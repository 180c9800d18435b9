"""Prompt rewriting between sender and receiver.

A message passes through three stages in a fixed order: context injection
(prepend relevant memory under a token budget), sanitization (the security
engine's rewrite), and translation (receiver-side vocabulary mapping). Stage
order matters and is observable: injected context is itself subject to
sanitization, so a memory record carrying a credit card number arrives
redacted.

With nothing configured every stage is a no-op and the pipeline returns its
input byte for byte; the fabric can therefore sit on every edge without
altering benign traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cogfabric.core import FabricError, TextAnalysis, analysis_of
from cogfabric.grounding import GroundingDecision, Verdict, translate
from cogfabric.memory import MemoryStore
from cogfabric.security import Intervention, SecurityDecision, SecurityEngine

DEFAULT_TOKEN_BUDGET = 64
DEFAULT_TOP_K = 3
DEFAULT_RETRIEVAL_FLOOR = 0.25
DEFAULT_LAMBDA = 0.01


class TransformHaltedError(FabricError):
    """The pipeline refused to produce output for this message."""

    def __init__(
        self, reason: str, message: str = "", security: SecurityDecision | None = None
    ):
        super().__init__(message or reason)
        self.reason = reason
        self.security = security


@dataclass
class TransformResult:
    text: str
    injected: list[str] = field(default_factory=list)
    security: SecurityDecision | None = None
    translated: bool = False
    trace: list[str] = field(default_factory=list)
    tokens_added: int = 0


def _tokens(text: str) -> int:
    return len(text.split())


def inject_context(
    text: str, hits: list[str], token_budget: int
) -> tuple[str, list[str]]:
    """Prepend a Context block of memory lines, greedily respecting the budget.

    The whole block (header included) counts against ``token_budget`` in
    whitespace tokens. Lines are taken in the given order until one no longer
    fits. A zero budget, or no line fitting, yields the text unchanged.
    """
    if token_budget <= 0 or not hits:
        return text, []
    header = "Context:"
    used = _tokens(header)
    taken: list[str] = []
    for hit in hits:
        line = f"- {hit}"
        cost = _tokens(line)
        if used + cost > token_budget:
            break
        taken.append(hit)
        used += cost
    if not taken:
        return text, []
    block = "\n".join([header] + [f"- {h}" for h in taken])
    return f"{block}\n\n{text}", taken


def compute_loss(reward: float, tokens_added: int, lam: float = DEFAULT_LAMBDA) -> float:
    """Training signal for the fabric: loss = -(reward - lam * compute cost)."""
    return -(reward - lam * max(0, tokens_added))


@dataclass
class EdgePolicy:
    sender: str
    receiver: str
    text: str
    version: int


class EdgePolicyStore:
    """Standing per-edge directives, versioned per edge."""

    def __init__(self) -> None:
        self._policies: dict[tuple[str, str], EdgePolicy] = {}

    def set_policy(self, sender: str, receiver: str, text: str) -> EdgePolicy:
        key = (sender, receiver)
        old = self._policies.get(key)
        policy = EdgePolicy(sender, receiver, text, (old.version if old else 0) + 1)
        self._policies[key] = policy
        return policy

    def get(self, sender: str, receiver: str) -> EdgePolicy | None:
        return self._policies.get((sender, receiver))

    def install(self, policy: EdgePolicy) -> None:
        """Set a policy unconditionally. For sync layers that arbitrate
        versions themselves; local edits go through ``set_policy``."""
        self._policies[(policy.sender, policy.receiver)] = policy


class Transformer:
    """Inject, then sanitize, then translate."""

    def __init__(
        self,
        *,
        memory: MemoryStore | None = None,
        security: SecurityEngine | None = None,
        policies: EdgePolicyStore | None = None,
        token_budget: int = DEFAULT_TOKEN_BUDGET,
        retrieval_floor: float = DEFAULT_RETRIEVAL_FLOOR,
    ):
        self.memory = memory
        self.security = security
        self.policies = policies if policies is not None else EdgePolicyStore()
        self.token_budget = token_budget
        self.top_k = DEFAULT_TOP_K
        self.retrieval_floor = retrieval_floor

    def transform(
        self,
        text: str,
        *,
        sender: str = "",
        receiver: str = "",
        sender_tags: frozenset[str] | set[str] = frozenset(),
        grounding: GroundingDecision | None = None,
        schema_map: dict[str, str] | None = None,
        analysis: TextAnalysis | None = None,
    ) -> TransformResult:
        """Produce the receiver-facing payload for one message.

        Raises TransformHaltedError with reason "grounding-reject" when the
        caller's grounding decision rejected the message, and with reason
        "security-block" when sanitization blocks it. An aligned grounding
        decision substitutes its corrected text before any stage runs.

        ``analysis`` is the caller's analysis of ``text``. The inject query
        reuses its vector unless corrected text was substituted, and
        sanitization reuses it, or the query's analysis, for as long as no
        stage has rewritten the text.
        """
        trace: list[str] = []
        original = text
        if grounding is not None:
            if grounding.verdict is Verdict.REJECT:
                raise TransformHaltedError(
                    "grounding-reject",
                    f"grounding score {grounding.score:.3f} below the floor",
                )
            if grounding.corrected_text is not None:
                text = grounding.corrected_text
                trace.append("ground: corrected text substituted")

        # stage 1: inject
        injected: list[str] = []
        if self.memory is not None and self.token_budget > 0:
            analysis = analysis_of(text, self.memory.embedder, analysis)
            query = analysis.vector
            hits = (
                self.memory.retrieve(query, k=self.top_k, floor=self.retrieval_floor)
                if query.any()
                else []
            )
            text, injected = inject_context(
                text, [rec.text for rec, _ in hits], self.token_budget
            )
        policy = self.policies.get(sender, receiver) if sender and receiver else None
        if policy is not None:
            text = f"Directive: {policy.text}\n\n{text}"
        if injected or policy:
            trace.append(
                f"inject: {len(injected)} context lines"
                + (f", edge policy v{policy.version}" if policy else "")
            )
        else:
            trace.append("inject: no-op")

        # stage 2: sanitize
        decision: SecurityDecision | None = None
        if self.security is not None:
            decision = self.security.evaluate(
                text, sender, sender_tags=sender_tags, analysis=analysis
            )
            if decision.intervention is Intervention.BLOCK:
                raise TransformHaltedError(
                    "security-block",
                    "; ".join(decision.annotations) or "blocked",
                    security=decision,
                )
            text = decision.text
            trace.append(
                "sanitize: "
                + (decision.intervention.value if decision.intervention else "clean")
            )
        else:
            trace.append("sanitize: no-op")

        # stage 3: translate
        translated = False
        if schema_map:
            new_text = translate(text, schema_map)
            translated = new_text != text
            text = new_text
            trace.append("translate: applied" if translated else "translate: no match")
        else:
            trace.append("translate: no-op")
        if grounding is not None and grounding.verdict is Verdict.ALIGN:
            trace.append("translate: low grounding score, receiver should verify terms")

        return TransformResult(
            text=text,
            injected=injected,
            security=decision,
            translated=translated,
            trace=trace,
            tokens_added=max(0, _tokens(text) - _tokens(original)),
        )
