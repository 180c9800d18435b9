"""Gossip against a full-rescan reference.

``FabricNode.push_to`` returns at once when the peer's version vector equals
the sender's and otherwise visits only the origins whose counters differ;
``_converged`` compares every version vector with the first node's. The
functions below are the earlier implementations: push every origin's log
tail in sorted origin order, and compare every vector with the element-wise
maximum. Two fleets receive the same random publishes, pushes, out-of-order
and duplicated deliveries, malformed deltas and gossip runs, one fleet
gossiping through each implementation, and after every step they must hold
the same state and have returned the same values.
"""

from __future__ import annotations

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from cogfabric.core import AgentProfile, FabricError, HashingEmbedder, make_envelope
from cogfabric.fabric import (
    MAX_GOSSIP_TICKS,
    FabricNode,
    PolicyDelta,
    _converged,
    gossip_tick,
    run_gossip,
)
from cogfabric.security import Rule, RuleKind

EMB = HashingEmbedder()
TERMS = ("Payment-Gateway", "Ledger", "Shard-Map")
RULE_IDS = ("r-a", "r-b", "r-c")
EDGES = (("s", "r"), ("r", "s"))
AGENTS = ("worker", "critic")
KINDS = ("term", "rule", "policy", "capability")
MALFORMED = (
    ("ontology-term", {"validity": 0.5}),
    ("ontology-term", {"term": "Ledger", "validity": "high"}),
    ("edge-policy", {"sender": "s", "receiver": "r", "text": "steps"}),
    ("capability-state",
     {"agent": "q", "mu_perf": [0.5], "tau_lat": 0.2, "c_cost": 0.0, "tick": 1}),
    ("security-rule", {"id": "bad", "kind": "block", "pattern": "("}),
    ("security-rule", {"id": "bad", "kind": "block", "pattern": "x", "priority": "high"}),
)
SETTINGS = settings(max_examples=80, deadline=None)


# ---------------------------------------------------------------------------
# Full-rescan reference
# ---------------------------------------------------------------------------

def ref_push(node: FabricNode, peer: FabricNode) -> int:
    sent = 0
    for origin in sorted(node._log):
        for delta in node._log[origin][peer.version_vector.get(origin, 0):]:
            peer.apply_delta(delta)
            sent += 1
    return sent


def ref_converged(nodes: list[FabricNode]) -> bool:
    target: dict[str, int] = {}
    for node in nodes:
        for origin, counter in node.version_vector.items():
            target[origin] = max(target.get(origin, 0), counter)
    return all(
        node.version_vector == target and node.pending_count() == 0 for node in nodes
    )


def ref_run_gossip(nodes: list[FabricNode], rng: Random, beta: int) -> int:
    n = len(nodes)
    for tick in range(MAX_GOSSIP_TICKS + 1):
        if ref_converged(nodes):
            return tick
        if tick == MAX_GOSSIP_TICKS:
            break
        for i, node in enumerate(nodes):
            for j in rng.sample(range(n - 1), min(beta, n - 1)):
                ref_push(node, nodes[j if j < i else j + 1])
    raise FabricError("reference gossip did not converge")


# ---------------------------------------------------------------------------
# Fleets driven by one operation list
# ---------------------------------------------------------------------------

class Fleet:
    def __init__(self, size: int, reference: bool):
        self.nodes = [FabricNode(f"n{i}", embedder=EMB) for i in range(size)]
        self.reference = reference
        self.rogue_counter = 0

    def push(self, i: int, j: int) -> int:
        node, peer = self.nodes[i], self.nodes[j]
        return ref_push(node, peer) if self.reference else node.push_to(peer)

    def converged(self) -> bool:
        return ref_converged(self.nodes) if self.reference else _converged(self.nodes)

    def gossip(self, seed: int, beta: int) -> int:
        run = ref_run_gossip if self.reference else run_gossip
        return run(self.nodes, Random(seed), beta)

    def step(self, op: tuple) -> object:
        """Apply one operation; returns what the fleet reports for it."""
        size = len(self.nodes)
        name, a, b, c, d = op
        if name == "publish":
            return _publish(self.nodes[a % size], KINDS[b], c, d)
        if name == "push":
            i, j = a % size, b % size
            if i == j:
                return None
            return [self.push(i, j) for _ in range(1 + c % 2)]  # repeated pushes send nothing new
        if name == "deliver":
            source, target = self.nodes[a % size], self.nodes[b % size]
            origins = sorted(source._log)
            if not origins:
                return None
            log = source._log[origins[c % len(origins)]]
            return target.apply_delta(log[d % len(log)])
        if name == "rogue":
            self.rogue_counter += 1
            kind, payload = MALFORMED[b % len(MALFORMED)]
            delta = PolicyDelta("rogue", self.rogue_counter, self.rogue_counter, kind, payload)
            return self.nodes[a % size].apply_delta(delta)
        return self.gossip(seed=a, beta=1 + b % 3)


def _publish(node: FabricNode, kind: str, key: int, value: int) -> int:
    if kind == "term":
        delta = node.publish_term(TERMS[key % 3], value / 10, ("temporary", "permanent")[value % 2])
    elif kind == "rule":
        rule = Rule(
            id=RULE_IDS[key % 3], kind=RuleKind.BLOCK, pattern=f"w{value}", priority=value % 3
        )
        delta = node.publish_rule(rule)
    elif kind == "policy":
        delta = node.publish_policy(*EDGES[key % 2], f"directive {value}")
    else:
        agent = AGENTS[key % 2]
        if agent not in node.router.agents():
            node.router.register_agent(AgentProfile.from_skill(EMB, agent, f"{agent} duties"))
        node.router.state(agent).mu_perf = {0: value / 10}
        delta = node.publish_capability(agent, tick=value)
    return delta.counter


def node_state(node: FabricNode) -> tuple:
    terms = {t: (node.ontology.term(t).validity, node.ontology.term(t).status)
             for t in node.ontology.terms()}
    states = {a: node.router.state(a) for a in node.router.agents()}
    return (
        dict(node.version_vector),
        node.pending_count(),
        terms,
        [(r.id, r.pattern, r.priority) for r in node.security.rules],
        {edge: node.policies.get(*edge) for edge in EDGES},
        {a: (dict(s.mu_perf), s.tau_lat, s.c_cost) for a, s in states.items()},
    )


_small = st.integers(0, 40)
OPERATION = st.one_of(
    st.tuples(st.just("publish"), _small, st.integers(0, len(KINDS) - 1), _small, _small),
    st.tuples(st.just("push"), _small, _small, _small, st.just(0)),
    st.tuples(st.just("deliver"), _small, _small, _small, _small),
    st.tuples(st.just("rogue"), _small, _small, st.just(0), st.just(0)),
    st.tuples(st.just("gossip"), _small, _small, st.just(0), st.just(0)),
)


@given(size=st.integers(2, 10), ops=st.lists(OPERATION, max_size=40))
@SETTINGS
def test_push_and_convergence_match_the_full_rescan(size, ops):
    fleet, ref = Fleet(size, reference=False), Fleet(size, reference=True)
    for op in ops:
        assert fleet.step(op) == ref.step(op), op
        assert [node_state(n) for n in fleet.nodes] == [node_state(n) for n in ref.nodes]
        assert fleet.converged() == ref.converged() == ref_converged(fleet.nodes)
    assert fleet.gossip(seed=len(ops), beta=2) == ref.gossip(seed=len(ops), beta=2)
    assert [node_state(n) for n in fleet.nodes] == [node_state(n) for n in ref.nodes]
    for node in fleet.nodes:
        rules = [(r.priority, r.id) for r in node.security.rules]
        assert rules == sorted(rules)
        # malformed deltas from the rogue origin left every node working
        result = node.intercept(make_envelope("alice", "please summarize the meeting", to="bob"))
        assert result.delivered


@given(size=st.integers(2, 10), seed=st.integers(0, 1000), beta=st.integers(1, 3),
       publishers=st.lists(st.integers(0, 9), min_size=1, max_size=6))
@SETTINGS
def test_gossip_ticks_send_what_the_reference_sends(size, seed, beta, publishers):
    fleet, ref = Fleet(size, reference=False), Fleet(size, reference=True)
    for k, p in enumerate(publishers):
        for f in (fleet, ref):
            _publish(f.nodes[p % size], KINDS[k % 4], k, p)
    rng_fleet, rng_ref = Random(seed), Random(seed)
    while not ref.converged():
        assert not fleet.converged()
        sent = gossip_tick(fleet.nodes, rng_fleet, beta)
        sent_ref = sum(
            ref.push(i, j if j < i else j + 1)
            for i in range(size)
            for j in rng_ref.sample(range(size - 1), min(beta, size - 1))
        )
        assert sent == sent_ref
        assert [node_state(n) for n in fleet.nodes] == [node_state(n) for n in ref.nodes]
    assert fleet.converged()
