"""Learned capability routing with an epsilon-greedy bandit.

Two agents claim overlapping skills. The router starts optimistic about
both, then learns from observed outcomes which one actually delivers, and
shifts the traffic share accordingly. A third, stronger agent registered
midway gets discovered through the exploration budget. Last, a composite
request is split into a chain of specialists.
"""

from random import Random

from cogfabric import AgentProfile, HashingEmbedder, Router

emb = HashingEmbedder()
rng = Random(7)

router = Router(emb)
router.register_agent(AgentProfile.from_skill(emb, "steady", "resolves support tickets"))
router.register_agent(AgentProfile.from_skill(emb, "flaky", "resolves support tickets"))

TRUE_P = {"steady": 0.8, "flaky": 0.3, "expert": 0.95}
task = emb.embed("resolve this support ticket about billing")

counts: dict[str, int] = {}
for episode in range(600):
    if episode == 300:
        router.register_agent(
            AgentProfile.from_skill(emb, "expert", "resolves support tickets")
        )
        print("episode 300: 'expert' joins the swarm")
    agent = router.dispatch(task, epsilon=0.1, rng=rng)
    success = rng.random() < TRUE_P[agent]
    router.record_outcome(agent, task, success=success, cost=0.0, latency=0.0)
    counts[agent] = counts.get(agent, 0) + 1
    if episode in (99, 299, 599):
        total = episode + 1
        shares = ", ".join(f"{a}={n / total:.2f}" for a, n in sorted(counts.items()))
        print(f"episode {total:>3}: cumulative shares {shares}")

tail = {a: 0 for a in TRUE_P}
for _ in range(200):
    agent = router.select(task, epsilon=0.0, rng=rng)
    tail[agent] += 1
print(f"greedy choice after training: {max(tail, key=tail.get)!r}")

# A composite request no single agent covers is split into sub-tasks, and
# each goes to its most similar specialist, in request order.
chains = Router(emb)
for agent_id, skill in (
    ("analyst", "summarizes quarterly finance reports"),
    ("translator", "translates text into french or german"),
    ("mailer", "sends email to a team"),
):
    chains.register_agent(AgentProfile.from_skill(emb, agent_id, skill))
request = "Summarize the quarterly report; then translate it into french; then email the team."
print(f"chain for {request!r}: {chains.synthesize_chain(request)}")
