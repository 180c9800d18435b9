"""The node that sits on every edge, plus gossip between nodes.

``FabricNode.intercept`` is the whole product in one call: resolve the
receiver (explicitly addressed or picked by the router), check the edge is
allowed, ground the message against the ontology, verify referenced artifacts
exist, then run the inject/sanitize/translate pipeline and deliver. A message
can be stopped at any stage and the result says exactly where and why.

Nodes synchronize learned state (security rules, ontology terms, edge
policies, capability estimates) by push gossip: each tick every node sends a
few random peers the part of its delta log they lack, and per-origin counters
give every node the same eventually-consistent view regardless of arrival
order. Writes to one term or rule are arbitrated by the writer's clock, so a
causally later write wins on every node. A delta whose kind, clock or
payload is malformed advances its origin's counter and changes nothing else;
one whose origin or counter is malformed is rejected outright.
"""

from __future__ import annotations

import math
import re
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from random import Random

from cogfabric.core import (
    AgentProfile,
    Envelope,
    Explicit,
    FabricError,
    HashingEmbedder,
    Intent,
    Payload,
    TextAnalysis,
    ZeroVectorError,
    analysis_of,
)
from cogfabric.grounding import (
    TAU_SOFT,
    TAU_VALID,
    TERM_STATUSES,
    GhostReport,
    GroundingDecision,
    Ontology,
    Verdict,
    extract_entities,
    ghost_check,
    ground,
)
from cogfabric.memory import EntityStore, Manifest, MemoryStore
from cogfabric.security import (
    Rule,
    RuleKind,
    SecurityDecision,
    SecurityEngine,
    lexicon_matches,
)
from cogfabric.topology import NoAgentsError, NoCapableAgentError, Router, UnknownAgentError
from cogfabric.transform import (
    DEFAULT_RETRIEVAL_FLOOR,
    DEFAULT_TOKEN_BUDGET,
    EdgePolicy,
    EdgePolicyStore,
    TransformHaltedError,
    Transformer,
    TransformResult,
)

DEFAULT_TAU_EDGE = 2.0
DEFAULT_EPSILON = 0.1
COMPLEXITY_TOKEN_SCALE = 64.0
MAX_GOSSIP_TICKS = 256


class ModeMismatchError(FabricError):
    """The operation requires a different deployment mode."""


class DeploymentMode(str, Enum):
    SIDECAR = "sidecar"
    HUB = "hub"
    HYBRID_EDGE = "hybrid-edge"
    HYBRID_CORE = "hybrid-core"


class RouteDecision(str, Enum):
    LOCAL = "local"
    FORWARD_TO_CORE = "forward-to-core"


@dataclass
class LatencyTrace:
    """Unit-cost accounting for one interception. Total is the exact sum."""

    l_net: float = 0.0
    l_inference: float = 0.0
    l_memory_lookup: float = 0.0

    @property
    def total(self) -> float:
        return self.l_net + self.l_inference + self.l_memory_lookup


@dataclass(frozen=True)
class ComplexityScore:
    tokens: int
    ungrounded_entities: int
    lexicon_classes: int
    value: float


def complexity_score(
    text: str, ontology: Ontology, analysis: TextAnalysis | None = None
) -> ComplexityScore:
    """C = tokens/64 + ungrounded entities + risk-lexicon classes.

    Ungrounded means the extracted entity is not an exact ontology term, so
    messages full of unfamiliar names rank as hard even when short. The
    entities and lexicon hits come from the caller's ``analysis`` when it is
    of ``text`` under the ontology's embedder, so grounding and the security
    stage reuse what this reads.
    """
    analysis = analysis_of(text, ontology.embedder, analysis)
    tokens = len(text.split())
    entities = analysis.read(extract_entities)
    ungrounded = sum(1 for e in entities if not ontology.has_term(e))
    classes = len(analysis.read(lexicon_matches))
    value = tokens / COMPLEXITY_TOKEN_SCALE + ungrounded + classes
    return ComplexityScore(
        tokens=tokens,
        ungrounded_entities=ungrounded,
        lexicon_classes=classes,
        value=value,
    )


@dataclass
class InterceptResult:
    delivered: bool
    receiver: str | None
    text: str | None = None
    reason: str | None = None
    payload: Payload | None = None
    grounding: GroundingDecision | None = None
    security: SecurityDecision | None = None
    ghost: GhostReport | None = None
    transform: TransformResult | None = None
    complexity: ComplexityScore | None = None
    route: RouteDecision | None = None
    latency: LatencyTrace = field(default_factory=LatencyTrace)


# ---------------------------------------------------------------------------
# Gossip deltas
# ---------------------------------------------------------------------------

class DeltaStatus(str, Enum):
    APPLIED = "applied"
    IGNORED_STALE = "ignored-stale"
    BUFFERED = "buffered"
    REJECTED = "rejected"


@dataclass(frozen=True)
class PolicyDelta:
    origin: str
    counter: int
    # deltas the writer had applied, plus one: a write made after seeing
    # another write always carries a larger clock
    clock: int
    kind: str  # security-rule | ontology-term | edge-policy | capability-state
    payload: dict

    def sort_key(self) -> int:
        return self.counter


_TEXT = (str,)
_NUMBER = (int, float)
_OPTIONAL_TEXT = (str, type(None))

# the payload fields each delta kind reads, with the types it can use
_PAYLOAD_TYPES: dict[str, dict[str, tuple[type, ...]]] = {
    "security-rule": {
        "id": _TEXT,
        "kind": _TEXT,
        "pattern": _TEXT,
        "priority": _NUMBER,
        "message": _TEXT,
        "required_tag": _OPTIONAL_TEXT,
        "action": _OPTIONAL_TEXT,
    },
    "ontology-term": {"term": _TEXT, "validity": _NUMBER, "status": _TEXT},
    "edge-policy": {"sender": _TEXT, "receiver": _TEXT, "text": _TEXT, "version": _NUMBER},
    "capability-state": {
        "agent": _TEXT,
        "skill_text": _TEXT,
        "mu_perf": (dict,),
        "tau_lat": _NUMBER,
        "c_cost": _NUMBER,
        "tick": _NUMBER,
    },
}
# the fields without a default; the others may be left out
_REQUIRED_FIELDS: dict[str, frozenset[str]] = {
    "security-rule": frozenset({"id", "kind"}),
    "ontology-term": frozenset({"term"}),
    "edge-policy": frozenset({"sender", "receiver", "text", "version"}),
    "capability-state": frozenset({"agent", "mu_perf", "tau_lat", "c_cost", "tick"}),
}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    """A finite int or float; a boolean is not a number."""
    return isinstance(value, _NUMBER) and not isinstance(value, bool) and abs(value) < math.inf


def _well_formed(kind: str, payload: object) -> bool:
    """Whether a payload carries every field its kind needs, each of a usable
    type, so that applying it cannot fail halfway."""
    if not isinstance(payload, dict) or not _REQUIRED_FIELDS[kind] <= payload.keys():
        return False
    types = _PAYLOAD_TYPES[kind]
    for name, value in payload.items():
        accepted = types.get(name)
        if accepted is _NUMBER:
            if not _is_number(value):
                return False
        elif accepted is not None and not isinstance(value, accepted):
            return False
    if kind == "ontology-term":
        return payload.get("status", "temporary") in TERM_STATUSES
    if kind == "capability-state":
        for key, value in payload["mu_perf"].items():
            if not (isinstance(key, str) and key.isdecimal() and _is_number(value)):
                return False
    return True


_ARTIFACT_RE = re.compile(r"[A-Za-z0-9]\.[A-Za-z0-9]")


def _looks_like_artifact(name: str) -> bool:
    # dotted identifiers read as file or resource names; bare words do not
    return bool(_ARTIFACT_RE.search(name))


class FabricNode:
    """One middleware node. Single-node deployments never touch gossip."""

    def __init__(
        self,
        node_id: str,
        *,
        mode: DeploymentMode = DeploymentMode.SIDECAR,
        embedder: HashingEmbedder | None = None,
        memory: MemoryStore | None = None,
        router: Router | None = None,
        allowed_edges: set[tuple[str, str]] | None = None,
        epsilon: float = DEFAULT_EPSILON,
        tau_edge: float = DEFAULT_TAU_EDGE,
        tau_valid: float = TAU_VALID,
        tau_soft: float = TAU_SOFT,
        token_budget: int = DEFAULT_TOKEN_BUDGET,
        retrieval_floor: float = DEFAULT_RETRIEVAL_FLOOR,
        seed: int = 0,
    ):
        self.node_id = node_id
        self.mode = mode
        self.embedder = embedder if embedder is not None else HashingEmbedder()
        self.memory = memory if memory is not None else MemoryStore(self.embedder)
        self.entity_store = EntityStore()
        self.manifest = Manifest(self.embedder)
        self.ontology = Ontology(self.embedder)
        self.router = router if router is not None else Router(self.embedder)
        self.security = SecurityEngine(self.embedder)
        self.policies = EdgePolicyStore()
        self.allowed_edges = allowed_edges
        self.epsilon = epsilon
        self.tau_edge = tau_edge
        self.tau_valid = tau_valid
        self.tau_soft = tau_soft
        self.rng = Random(seed)
        self.transformer = Transformer(
            memory=self.memory,
            security=self.security,
            policies=self.policies,
            token_budget=token_budget,
            retrieval_floor=retrieval_floor,
        )
        self.invocations: dict[str, int] = {}
        # gossip state
        self.version_vector: dict[str, int] = {}
        self._log: dict[str, list[PolicyDelta]] = {}
        self._pending: dict[str, list[PolicyDelta]] = {}
        self._kv_stamps: dict[tuple, tuple] = {}

    # -- interception ---------------------------------------------------------

    def _base_net(self) -> float:
        if self.mode in (DeploymentMode.HUB, DeploymentMode.HYBRID_CORE):
            return 2.0
        return 1.0

    def route_by_complexity(self, value: float) -> RouteDecision:
        """Edge-side split: cheap messages stay local, hard ones go to core."""
        if self.mode is not DeploymentMode.HYBRID_EDGE:
            raise ModeMismatchError(
                f"complexity routing needs hybrid-edge mode, node is {self.mode.value}"
            )
        if value < self.tau_edge:
            return RouteDecision.LOCAL
        return RouteDecision.FORWARD_TO_CORE

    def intercept(
        self,
        envelope: Envelope,
        *,
        among: list[str] | None = None,
        analysis: TextAnalysis | None = None,
    ) -> InterceptResult:
        """Process one message end to end. Never raises on gated traffic.

        The envelope text is analysed once, lazily, and every stage that
        reads that text shares the analysis. A caller that passes its own
        ``analysis`` of the envelope text under this node's embedder finds in
        it afterwards what the stages read (the vector, the entities, the
        lexicon hits), so it need not work them out again.
        """
        analysis = analysis_of(envelope.text, self.embedder, analysis)
        result = InterceptResult(
            delivered=False, receiver=None, latency=LatencyTrace(l_net=self._base_net())
        )
        addressing = envelope.addressing
        if isinstance(addressing, Explicit):
            result.receiver = addressing.receiver
        else:
            assert isinstance(addressing, Intent)
            task = analysis_of(addressing.description, self.embedder, analysis).vector
            try:
                result.receiver = self.router.dispatch(
                    task, self.epsilon, self.rng, among=among
                )
            except (
                NoAgentsError,
                NoCapableAgentError,
                UnknownAgentError,
                ZeroVectorError,
            ) as err:
                result.reason = f"no-route: {err}"
                return result
        self._run_stages(envelope, result, analysis)
        if not result.delivered and isinstance(addressing, Intent):
            self.router.release(result.receiver)  # gated after dispatch
        return result

    def _run_stages(
        self, envelope: Envelope, result: InterceptResult, analysis: TextAnalysis
    ) -> None:
        """Edge check, hybrid-edge split, ground, ghost, transform, deliver.

        Each stage fills in its part of ``result``; a stage that stops the
        message sets ``result.reason`` and returns.
        """
        receiver = result.receiver
        latency = result.latency
        if self.allowed_edges is not None and (envelope.sender, receiver) not in self.allowed_edges:
            result.reason = "edge-not-allowed"
            return

        if self.mode is DeploymentMode.HYBRID_EDGE:
            result.complexity = complexity_score(envelope.text, self.ontology, analysis)
            result.route = self.route_by_complexity(result.complexity.value)
            if result.route is RouteDecision.LOCAL:
                # rules-only fast path: no retrieval, no grounding, no translation
                outcome = self.security.evaluate_rules(
                    envelope.text, self._tags_of(envelope.sender)
                )
                result.security = outcome.decision()
                if not outcome.safe:
                    result.reason = "security-block"
                    return
                self._deliver(envelope, result, outcome.text, ["local: rules-only path"])
                return
            latency.l_net += 2.0  # forwarded to the core and back

        result.grounding = decision = ground(
            envelope.text,
            self.ontology,
            entity_store=self.entity_store,
            tau_valid=self.tau_valid,
            tau_soft=self.tau_soft,
            analysis=analysis,
        )
        latency.l_inference += 1.0
        if decision.verdict is Verdict.REJECT:
            result.reason = "grounding-reject"
            return

        if len(self.manifest):
            refs = [e for e in decision.entities if _looks_like_artifact(e)]
            if refs:
                result.ghost = ghost_check(refs, self.manifest)
                latency.l_memory_lookup += 1.0
                if not result.ghost.ok:
                    result.reason = "ghost-reference"
                    return

        schema = self.ontology.schema_map(envelope.sender, receiver)
        try:
            transformed = self.transformer.transform(
                envelope.text,
                sender=envelope.sender,
                receiver=receiver,
                sender_tags=self._tags_of(envelope.sender),
                grounding=decision,
                schema_map=schema or None,
                analysis=analysis,
            )
        except TransformHaltedError as err:
            result.reason = err.reason
            result.security = err.security
            return
        latency.l_memory_lookup += 1.0
        latency.l_inference += 1.0
        result.security = transformed.security
        result.transform = transformed
        self._deliver(envelope, result, transformed.text, transformed.trace)

    def _deliver(
        self, envelope: Envelope, result: InterceptResult, text: str, trace: list[str]
    ) -> None:
        receiver = result.receiver
        self.invocations[receiver] = self.invocations.get(receiver, 0) + 1
        result.delivered = True
        result.text = text
        result.payload = Payload(
            text=text, origin=envelope.sender, receiver=receiver, annotations=list(trace)
        )

    def _tags_of(self, agent_id: str) -> frozenset[str]:
        try:
            return self.router.profile(agent_id).tags
        except UnknownAgentError:
            return frozenset()

    # -- gossip ---------------------------------------------------------------

    def emit_delta(self, kind: str, payload: dict) -> PolicyDelta:
        """Record a local change and make it available to peers."""
        if kind not in _PAYLOAD_TYPES:
            raise ValueError(f"unknown delta kind {kind!r}")
        delta = PolicyDelta(
            origin=self.node_id,
            counter=self.version_vector.get(self.node_id, 0) + 1,
            clock=sum(self.version_vector.values()) + 1,
            kind=kind,
            payload=payload,
        )
        self._apply_in_order(delta)
        return delta

    def publish_rule(self, rule: Rule) -> PolicyDelta:
        return self.emit_delta(
            "security-rule",
            {
                "id": rule.id,
                "kind": rule.kind.value,
                "pattern": rule.pattern,
                "priority": rule.priority,
                "message": rule.message,
                "required_tag": rule.required_tag,
                "action": rule.guarded_action,
            },
        )

    def publish_term(
        self, term: str, validity: float, status: str = "temporary"
    ) -> PolicyDelta:
        return self.emit_delta(
            "ontology-term", {"term": term, "validity": validity, "status": status}
        )

    def publish_policy(self, sender: str, receiver: str, text: str) -> PolicyDelta:
        policy = self.policies.set_policy(sender, receiver, text)
        return self.emit_delta(
            "edge-policy",
            {
                "sender": policy.sender,
                "receiver": policy.receiver,
                "text": policy.text,
                "version": policy.version,
            },
        )

    def publish_capability(self, agent_id: str, tick: int) -> PolicyDelta:
        state = self.router.state(agent_id)
        profile = self.router.profile(agent_id)
        return self.emit_delta(
            "capability-state",
            {
                "agent": agent_id,
                "skill_text": profile.skill_text,
                "mu_perf": {str(k): v for k, v in state.mu_perf.items()},
                "tau_lat": state.tau_lat,
                "c_cost": state.c_cost,
                "tick": tick,
            },
        )

    def apply_delta(self, delta: PolicyDelta) -> DeltaStatus:
        """Fold in a peer's delta, strictly in per-origin counter order.

        A delta that arrives early waits in a per-origin buffer until the gap
        fills; one that arrives late is dropped as already seen. One whose
        origin is not a string or whose counter is not an integer cannot be
        placed in that order, so it is rejected and changes nothing.
        """
        if not (isinstance(delta.origin, str) and _is_int(delta.counter)):
            return DeltaStatus.REJECTED
        known = self.version_vector.get(delta.origin, 0)
        if delta.counter <= known:
            return DeltaStatus.IGNORED_STALE
        if delta.counter > known + 1:
            pending = self._pending.setdefault(delta.origin, [])
            if all(d.counter != delta.counter for d in pending):
                insort(pending, delta, key=PolicyDelta.sort_key)
            return DeltaStatus.BUFFERED
        self._apply_in_order(delta)
        pending = self._pending.get(delta.origin, [])
        while pending and pending[0].counter == self.version_vector[delta.origin] + 1:
            self._apply_in_order(pending.pop(0))
        return DeltaStatus.APPLIED

    def _apply_in_order(self, delta: PolicyDelta) -> None:
        self._apply_payload(delta)
        self.version_vector[delta.origin] = delta.counter
        self._log.setdefault(delta.origin, []).append(delta)

    def _wins(self, key: tuple, stamp: tuple) -> bool:
        """Per-key last-write-wins arbitration by ``(stamp, origin)``, so
        concurrent writes to the same key from different origins merge
        identically everywhere."""
        stored = self._kv_stamps.get(key)
        if stored is not None and stamp <= stored:
            return False
        self._kv_stamps[key] = stamp
        return True

    def _apply_payload(self, delta: PolicyDelta) -> None:
        payload = delta.payload
        if (
            delta.kind not in _PAYLOAD_TYPES
            or not _is_int(delta.clock)
            or not _well_formed(delta.kind, payload)
        ):
            return  # one peer's malformed delta must not disable or half-update a node
        if delta.kind == "security-rule":
            try:
                rule = Rule(
                    id=payload["id"],
                    kind=RuleKind(payload["kind"]),
                    pattern=payload.get("pattern", ""),
                    priority=payload.get("priority", 100),
                    message=payload.get("message", ""),
                    required_tag=payload.get("required_tag"),
                    guarded_action=payload.get("action"),
                )
            except ValueError:
                return  # an unknown rule kind or a pattern that does not compile
            if not self._wins(("rule", rule.id), (delta.clock, delta.origin)):
                return
            self.security.install_rule(rule)
        elif delta.kind == "ontology-term":
            if not self._wins(("term", payload["term"]), (delta.clock, delta.origin)):
                return
            self.ontology.add_term(
                payload["term"],
                validity=payload.get("validity", 0.0),
                status=payload.get("status", "temporary"),
            )
        elif delta.kind == "edge-policy":
            key = ("policy", payload["sender"], payload["receiver"])
            if not self._wins(key, (payload["version"], delta.origin)):
                return
            self.policies.install(
                EdgePolicy(
                    sender=payload["sender"],
                    receiver=payload["receiver"],
                    text=payload["text"],
                    version=payload["version"],
                )
            )
        else:
            agent = payload["agent"]
            if not self._wins(("cap", agent), (payload["tick"], delta.origin)):
                return
            try:
                state = self.router.state(agent)
            except UnknownAgentError:
                self.router.register_agent(
                    AgentProfile.from_skill(
                        self.embedder, agent, payload.get("skill_text", "")
                    )
                )
                state = self.router.state(agent)
            state.mu_perf = {int(k): float(v) for k, v in payload["mu_perf"].items()}
            state.tau_lat = float(payload["tau_lat"])
            state.c_cost = float(payload["c_cost"])

    def push_to(self, peer: "FabricNode") -> int:
        """Send everything the peer has not seen yet. Returns deltas sent.

        Costs one dict comparison when the peer already holds everything;
        otherwise it visits only the origins whose counters differ, in sorted
        origin order, and sends each log tail the peer lacks.
        """
        mine, theirs = self.version_vector, peer.version_vector
        if mine == theirs:
            return 0
        sent = 0
        for origin, counter in sorted(mine.items() - theirs.items()):
            # the log is contiguous by counter, so the peer lacks exactly the tail
            seen = theirs.get(origin, 0)
            if seen < counter:
                for delta in self._log[origin][seen:]:
                    peer.apply_delta(delta)
                    sent += 1
        return sent

    def pending_count(self) -> int:
        return sum(len(v) for v in self._pending.values())


# ---------------------------------------------------------------------------
# Cluster-level gossip
# ---------------------------------------------------------------------------

def _check_beta(beta: int) -> None:
    if beta < 1:
        raise ValueError(f"beta must be at least 1, got {beta}")


def gossip_tick(nodes: list[FabricNode], rng: Random, beta: int) -> int:
    """One synchronous round: every node pushes to beta random peers."""
    _check_beta(beta)
    n = len(nodes)
    if n <= 1:
        return 0
    k = min(beta, n - 1)
    sent = 0
    for i, node in enumerate(nodes):
        # sample peer indices from the n-1 others without materializing them
        for j in rng.sample(range(n - 1), k):
            peer = nodes[j if j < i else j + 1]
            sent += node.push_to(peer)
    return sent


def _converged(nodes: list[FabricNode]) -> bool:
    """One pass of dict comparisons: every version vector equals the first
    node's and nothing waits in a buffer. All vectors equal their element-wise
    maximum exactly when they all equal each other."""
    first = nodes[0].version_vector if nodes else None
    return all(
        node.version_vector == first and not any(node._pending.values())
        for node in nodes
    )


def run_gossip(nodes: list[FabricNode], rng: Random, beta: int) -> int:
    """Ticks until every node holds every delta. 0 when already converged.

    Each tick makes ``len(nodes) * min(beta, len(nodes) - 1)`` pushes; a push
    to a peer that holds everything costs one dict comparison, so a tick
    costs that many comparisons plus the deltas actually sent. Convergence is
    checked in one pass over the nodes before each tick.
    """
    _check_beta(beta)
    for tick in range(MAX_GOSSIP_TICKS + 1):
        if _converged(nodes):
            return tick
        if tick == MAX_GOSSIP_TICKS:
            break
        gossip_tick(nodes, rng, beta)
    raise FabricError(f"gossip did not converge within {MAX_GOSSIP_TICKS} ticks")


def expected_propagation_rounds(n: int, beta: int) -> float:
    """Push-gossip reaches n nodes in about ln(n)/beta rounds."""
    if n <= 1:
        return 0.0
    return math.log(n) / beta
