"""Workload ``gossip-fleet``: a fleet of 64 nodes converging on learned state.

Set-up builds the nodes; each registers its agent, publishes the agent's
capability state and one term, and ``run_gossip`` runs to convergence
(bring-up). One op is one round: 1-3 random nodes publish 1-3 deltas each,
in counts that cycle from round to round, then ``run_gossip(beta=3)`` runs
until every node holds them. The deltas rewrite terms and rule ids, add
block rules with valid patterns, revise edge policies and update capability
state with the round number as the tick. ``push_to`` rescans each origin's
whole log on every push, so a round's cost grows with the history of the
pass. No intercept runs in an op, so changes to the intercept path should
leave this workload unchanged.

Every key a random round writes belongs to the node that writes it. Two
origins writing one key is what the kept fault needs, and with random
publishers it would fail on some seeds only; it is confined to the probe.

Kept fault: every 10th round is a causal-rewrite probe with fixed nodes and
keys. Node ``hi`` writes a term, the fleet converges, then node ``lo``
rewrites it. ``FabricNode._wins`` compares per-origin counters across
origins, and ``hi`` always holds the higher counter, so the later write
loses everywhere, even at ``lo``. Probe rounds count as ops attempted and
failed but stay out of the latency percentiles and ``ops_per_s``.
"""

from __future__ import annotations

from random import Random

import cogfabric.fabric as fabric
from cogfabric.core import AgentProfile, HashingEmbedder, make_envelope
from cogfabric.security import Rule, RuleKind
from cogfabric.topology import UnknownAgentError

import oracle

NODES, ROUNDS = 64, 100
SMOKE_SIZES = (16, 20)
SETUPS_PER_PASS = 1
BETA = 3
PROBE_EVERY = 10
PROBE_TERM = "Causal-Probe"
FAULT = "lww-counter-across-origins"
VERBS = ("audits", "monitors", "tunes", "reconciles", "indexes", "archives", "migrates", "schedules")
OBJECTS = ("billing ledgers", "search shards", "message queues", "cache clusters", "user sessions",
           "audit trails", "payment batches", "feature flags")
KINDS = ("term", "new-rule", "rule", "policy", "capability")


def _word(n: int) -> str:
    """A letters-only word per rule write: no entity, no lexicon hit."""
    out = ""
    n += 26 * 26
    while n:
        n, r = divmod(n, 26)
        out = chr(97 + r) + out
    return "zq" + out


class Fleet:
    """The nodes, each with its own agent, after bring-up."""

    def __init__(self, n: int, rng_seed: int):
        emb = HashingEmbedder()
        self.nodes = [fabric.FabricNode(f"n{i:02d}", embedder=emb, seed=i) for i in range(n)]
        self.agents = [f"agent-{i:02d}" for i in range(n)]
        self.rng = Random(rng_seed)
        for i, node in enumerate(self.nodes):
            skill = f"{VERBS[i % 8]} {OBJECTS[(i // 8) % 8]}"
            node.router.register_agent(AgentProfile.from_skill(emb, self.agents[i], skill))
            node.publish_capability(self.agents[i], tick=0)
            node.publish_term(f"T{i:02d}-0", 0.5, "temporary")
        fabric.run_gossip(self.nodes, self.rng, beta=BETA)


class Expected:
    """Last write of every key and delta counts per origin, as the benchmark made them."""

    def __init__(self, fleet: Fleet):
        self.tally = {node.node_id: 2 for node in fleet.nodes}
        self.keys: dict = {}
        for i, node in enumerate(fleet.nodes):
            self.keys[("term", f"T{i:02d}-0")] = (0.5, "temporary")
            self.keys[("cap", fleet.agents[i])] = _cap_view(node, fleet.agents[i])
        self.rules: dict[int, list[str]] = {}
        self.policy_versions: dict[tuple, int] = {}
        self.words = 0


def _cap_view(node, agent: str):
    state = node.router.state(agent)
    return (dict(state.mu_perf), state.tau_lat, state.c_cost)


def _view(node, key):
    """What one node holds for one key, in the shape Expected stores."""
    kind = key[0]
    if kind == "term":
        entry = node.ontology.term(key[1])
        return None if entry is None else (entry.validity, entry.status)
    if kind == "rule":
        return next((r.pattern for r in node.security.rules if r.id == key[1]), None)
    if kind == "policy":
        p = node.policies.get(key[1], key[2])
        return None if p is None else (p.text, p.version)
    try:
        return _cap_view(node, key[1])
    except UnknownAgentError:
        return None


def publish_round(fleet: Fleet, exp: Expected, r: int, rng: Random) -> tuple[list, list, list]:
    """Choose this round's deltas: (publish calls, written keys, rule writes)."""
    calls, written, rule_words = [], [], []
    n = len(fleet.nodes) - 2  # the last two nodes are the probe pair
    # the counts cycle so that every pass grows the same history; which
    # nodes publish, and what, is drawn from the seed
    for j, i in enumerate(rng.sample(range(n), 1 + r % 3)):
        node = fleet.nodes[i]
        kinds = [k for k in KINDS if k != "rule" or exp.rules.get(i)]
        for kind in rng.sample(kinds, 1 + (r // 3 + j) % 3):
            exp.tally[node.node_id] += 1
            if kind == "term":
                key = f"T{i:02d}-{rng.randrange(3)}"
                value = (round(rng.random(), 6), rng.choice(("temporary", "permanent")))
                calls.append((node.publish_term, (key, *value)))
                written.append((("term", key), value))
            elif kind in ("new-rule", "rule"):
                owned = exp.rules.setdefault(i, [])
                if kind == "new-rule":
                    rule_id = f"R{i:02d}-{len(owned)}"
                    owned.append(rule_id)
                else:
                    rule_id = rng.choice(owned)
                word = _word(exp.words)
                exp.words += 1
                pattern = rf"\b{word}\b"
                rule = Rule(id=rule_id, kind=RuleKind.BLOCK, pattern=pattern, priority=50,
                            message=f"blocked by {rule_id}")
                calls.append((node.publish_rule, (rule,)))
                written.append((("rule", rule_id), pattern))
                rule_words.append((i, rule_id, pattern, word))
            elif kind == "policy":
                edge = (fleet.agents[i], fleet.agents[i + 1])
                version = exp.policy_versions.get(edge, 0) + 1
                exp.policy_versions[edge] = version
                text = f"Keep replies short, revision {r}."
                calls.append((node.publish_policy, (*edge, text)))
                written.append((("policy", *edge), (text, version)))
            else:
                agent = fleet.agents[i]
                task = node.embedder.embed(f"{VERBS[r % 8]} {OBJECTS[i % 8]}")
                success = rng.random() < 0.7
                calls.append((_publish_capability, (node, agent, task, success, r)))
                written.append((("cap", agent), None))  # filled from the publisher after the op
    return calls, written, rule_words


def _publish_capability(node, agent, task, success, tick):
    node.router.record_outcome(agent, task, success=success, latency=0.2)
    return node.publish_capability(agent, tick=tick)


def _round(fleet: Fleet, calls: list) -> int:
    for fn, args in calls:
        fn(*args)
    return fabric.run_gossip(fleet.nodes, fleet.rng, beta=BETA)


def check_round(fleet: Fleet, exp: Expected, written: list, rule_words: list, r: int) -> list[str]:
    """Version vectors, pending buffers, the last write of each key written,
    and a rule probe at a node other than the rule's publisher."""
    problems = oracle.check_version_vectors(
        {n.node_id: n.version_vector for n in fleet.nodes}, exp.tally
    )
    problems += [f"node {n.node_id} holds {n.pending_count()} pending deltas"
                 for n in fleet.nodes if n.pending_count()]
    for key, value in written:
        if key[0] == "cap":
            value = _cap_view(fleet.nodes[fleet.agents.index(key[1])], key[1])
        exp.keys[key] = value
    touched = {key: exp.keys[key] for key, _ in written}
    problems += oracle.check_agreement(
        {n.node_id: {k: _view(n, k) for k in touched} for n in fleet.nodes}, touched
    )
    others = len(fleet.nodes) - 2
    for publisher, rule_id, pattern, word in rule_words:
        if exp.keys[("rule", rule_id)] != pattern:
            continue  # rewritten again later in the same round
        target = (publisher + 1 + r) % others
        if target == publisher:
            target = (target + 1) % others
        node = fleet.nodes[target]
        result = node.intercept(
            make_envelope("prober", f"Routine note about {word} for the team.", to=fleet.agents[target])
        )
        if result.delivered or result.reason != "security-block":
            problems.append(f"rule probe for {word!r} at {node.node_id} gave {result.reason!r}")
    return problems


def probe_round(fleet: Fleet, exp: Expected, r: int) -> list[str]:
    """A causally later write of one term must hold everywhere."""
    hi, lo = fleet.nodes[-1], fleet.nodes[-2]
    hi.publish_capability(fleet.agents[-1], tick=r)
    hi.publish_term(PROBE_TERM, 0.2, "temporary")
    exp.tally[hi.node_id] += 2
    exp.keys[("cap", fleet.agents[-1])] = _cap_view(hi, fleet.agents[-1])
    fabric.run_gossip(fleet.nodes, fleet.rng, beta=BETA)
    lo.publish_term(PROBE_TERM, 0.9, "temporary")
    exp.tally[lo.node_id] += 1
    fabric.run_gossip(fleet.nodes, fleet.rng, beta=BETA)
    stale = [n.node_id for n in fleet.nodes if _view(n, ("term", PROBE_TERM)) != (0.9, "temporary")]
    return [f"{len(stale)} nodes kept the earlier write of {PROBE_TERM}"] if stale else []


def run(rec, seed: int, seconds: float, smoke: bool) -> None:
    n_nodes, rounds = SMOKE_SIZES if smoke else (NODES, ROUNDS)
    passes = 0
    while True:
        pass_seed = seed * 1000 + passes
        for _ in range(SETUPS_PER_PASS):
            with rec.setup():
                fleet = Fleet(n_nodes, pass_seed)
        exp = Expected(fleet)
        rec.problems += oracle.check_version_vectors(
            {n.node_id: n.version_vector for n in fleet.nodes}, exp.tally
        )
        rng = Random(pass_seed + 1)
        rec.start()
        for r in range(1, rounds + 1):
            if r % PROBE_EVERY == 0:
                with rec.paused():
                    rec.settle(fault=FAULT if probe_round(fleet, exp, r) else None)
                continue
            calls, written, rule_words = publish_round(fleet, exp, r, rng)
            _, err = rec.call(_round, fleet, calls)
            with rec.paused():
                problems = [f"round raised {err!r}"] if err is not None else []
                problems += check_round(fleet, exp, written, rule_words, r)
                rec.settle(problems)
        rec.end_pass()
        views = {n.node_id: {k: _view(n, k) for k in exp.keys} for n in fleet.nodes}
        rec.problems += oracle.check_agreement(views, exp.keys)
        passes += 1
        if smoke or (passes >= 3 and rec.timed_s >= seconds):
            break
