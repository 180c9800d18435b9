"""The node that sits on every edge, plus gossip between nodes.

``FabricNode.intercept`` is the whole product in one call: resolve the
receiver (explicitly addressed or picked by the router), check the edge is
allowed, ground the message against the ontology, verify referenced artifacts
exist, then run the inject/sanitize/translate pipeline and deliver. A message
can be stopped at any stage and the result says exactly where and why.

Nodes synchronize learned state (security rules, ontology terms, edge
policies, capability estimates) by push gossip: each tick every node forwards
its delta log to a few random peers, and per-origin counters give every node
the same eventually-consistent view regardless of arrival order. Writes to
one term or rule are arbitrated by the writer's clock, so a causally later
write wins on every node.
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
    ZeroVectorError,
)
from cogfabric.grounding import (
    TAU_SOFT,
    TAU_VALID,
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
    EdgePolicy,
    EdgePolicyStore,
    TransformHaltedError,
    Transformer,
    TransformResult,
)

DEFAULT_TAU_EDGE = 2.0
COMPLEXITY_TOKEN_SCALE = 64.0


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
    text: str, ontology: Ontology, *, a: float = 1.0, b: float = 1.0, c: float = 1.0
) -> ComplexityScore:
    """C = a * tokens/64 + b * ungrounded entities + c * risk-lexicon classes.

    Ungrounded means the extracted entity is not an exact ontology term, so
    messages full of unfamiliar names rank as hard even when short.
    """
    tokens = len(text.split())
    entities = extract_entities(text)
    ungrounded = sum(1 for e in entities if not ontology.has_term(e))
    classes = len(lexicon_matches(text))
    value = a * tokens / COMPLEXITY_TOKEN_SCALE + b * ungrounded + c * classes
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
        entity_store: EntityStore | None = None,
        manifest: Manifest | None = None,
        ontology: Ontology | None = None,
        router: Router | None = None,
        security: SecurityEngine | None = None,
        policies: EdgePolicyStore | None = None,
        allowed_edges: set[tuple[str, str]] | None = None,
        epsilon: float = 0.1,
        tau_edge: float = DEFAULT_TAU_EDGE,
        tau_valid: float = TAU_VALID,
        tau_soft: float = TAU_SOFT,
        token_budget: int = 64,
        retrieval_floor: float = 0.25,
        seed: int = 0,
    ):
        self.node_id = node_id
        self.mode = mode
        self.embedder = embedder if embedder is not None else HashingEmbedder()
        self.memory = memory if memory is not None else MemoryStore(self.embedder)
        self.entity_store = entity_store if entity_store is not None else EntityStore()
        self.manifest = manifest if manifest is not None else Manifest(self.embedder)
        self.ontology = ontology if ontology is not None else Ontology(self.embedder)
        self.router = router if router is not None else Router(self.embedder)
        self.security = (
            security if security is not None else SecurityEngine(self.embedder)
        )
        self.policies = policies if policies is not None else EdgePolicyStore()
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
        self, envelope: Envelope, *, among: list[str] | None = None
    ) -> InterceptResult:
        """Process one message end to end. Never raises on gated traffic."""
        result = InterceptResult(
            delivered=False, receiver=None, latency=LatencyTrace(l_net=self._base_net())
        )
        addressing = envelope.addressing
        if isinstance(addressing, Explicit):
            result.receiver = addressing.receiver
        else:
            assert isinstance(addressing, Intent)
            task = self.embedder.embed(addressing.description)
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
        self._run_stages(envelope, result)
        if not result.delivered and isinstance(addressing, Intent):
            self.router.release(result.receiver)  # gated after dispatch
        return result

    def _run_stages(self, envelope: Envelope, result: InterceptResult) -> None:
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
            result.complexity = complexity_score(envelope.text, self.ontology)
            result.route = self.route_by_complexity(result.complexity.value)
            if result.route is RouteDecision.LOCAL:
                # rules-only fast path: no retrieval, no grounding, no translation
                outcome = self.security.evaluate_rules(
                    envelope.text, self._tags_of(envelope.sender)
                )
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
        counter = self.version_vector.get(self.node_id, 0) + 1
        delta = PolicyDelta(
            origin=self.node_id,
            counter=counter,
            clock=sum(self.version_vector.values()) + 1,
            kind=kind,
            payload=payload,
        )
        self._apply_payload(delta)
        self.version_vector[self.node_id] = counter
        self._log.setdefault(self.node_id, []).append(delta)
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
        fills; one that arrives late is dropped as already seen.
        """
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
                return  # one peer's malformed rule must not disable every node
            if not self._wins(("rule", rule.id), (delta.clock, delta.origin)):
                return
            kept = [r for r in self.security.rules if r.id != rule.id]
            kept.append(rule)
            self.security.rules = sorted(kept, key=lambda r: (r.priority, r.id))
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
        elif delta.kind == "capability-state":
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
        else:
            raise ValueError(f"unknown delta kind {delta.kind!r}")

    def push_to(self, peer: "FabricNode") -> int:
        """Send everything the peer has not seen yet. Returns deltas sent."""
        sent = 0
        for origin in sorted(self._log):
            # the log is contiguous by counter, so the peer lacks exactly the tail
            for delta in self._log[origin][peer.version_vector.get(origin, 0):]:
                peer.apply_delta(delta)
                sent += 1
        return sent

    def pending_count(self) -> int:
        return sum(len(v) for v in self._pending.values())


# ---------------------------------------------------------------------------
# Cluster-level gossip
# ---------------------------------------------------------------------------

def gossip_tick(nodes: list[FabricNode], rng: Random, beta: int) -> int:
    """One synchronous round: every node pushes to beta random peers."""
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
    target: dict[str, int] = {}
    for node in nodes:
        for origin, counter in node.version_vector.items():
            target[origin] = max(target.get(origin, 0), counter)
    return all(
        node.version_vector == target and node.pending_count() == 0 for node in nodes
    )


def run_gossip(
    nodes: list[FabricNode], rng: Random, beta: int, max_ticks: int = 256
) -> int:
    """Ticks until every node holds every delta. 0 when already converged."""
    for tick in range(max_ticks + 1):
        if _converged(nodes):
            return tick
        if tick == max_ticks:
            break
        gossip_tick(nodes, rng, beta)
    raise FabricError(f"gossip did not converge within {max_ticks} ticks")


def expected_propagation_rounds(n: int, beta: int) -> float:
    """Push-gossip reaches n nodes in about ln(n)/beta rounds."""
    if n <= 1:
        return 0.0
    return math.log(n) / beta
