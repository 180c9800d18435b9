"""Semantic grounding: is a message talking about things that actually exist?

Entities are pulled out of message text with a deterministic heuristic, scored
against a shared ontology of known terms, and gated three ways: Pass, Align
(deliver after schema translation with a note), or Reject. The ontology itself
drifts with experience: term validity rises and falls with episode outcomes,
and terms are promoted to permanent or flagged for review at fixed thresholds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from cogfabric.core import (
    SCAN_ROWS,
    FabricError,
    HashingEmbedder,
    VectorTable,
    cosine_similarity,
    shortlist,
)

TAU_VALID = 0.75
TAU_SOFT = 0.40
PROMOTE_AT = 0.8
DEMOTE_AT = 0.2
SUGGESTION_FLOOR = 0.3

# accumulated +/- alpha steps drift by ulps; threshold checks absorb that
_EPS = 1e-9


class InvalidThresholdsError(FabricError):
    """Gate thresholds must satisfy 0 <= tau_soft <= tau_valid <= 1."""


class CyclicTableError(FabricError):
    """A substitution table maps some term transitively back onto a domain term."""


class Verdict(str, Enum):
    PASS = "pass"
    ALIGN = "align"
    REJECT = "reject"


# ---------------------------------------------------------------------------
# Entity extraction
# ---------------------------------------------------------------------------

_QUOTED_RE = re.compile(r"([\"'])([A-Za-z0-9_.\- ]{1,40})\1")
_WORD_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_CAP_SNAKE_RE = re.compile(r"^[A-Z][a-z0-9]*(?:_[A-Z][a-z0-9]*)+$")
_INTERIOR_SEP_RE = re.compile(r"[A-Za-z0-9][.\-][A-Za-z0-9]")


def _looks_like_entity(token: str) -> bool:
    if any(ch.isdigit() for ch in token):
        return True
    if "_" in token:
        return True
    if _INTERIOR_SEP_RE.search(token):
        return True
    return bool(_CAP_SNAKE_RE.match(token))


def extract_entities(text: str) -> list[str]:
    """Candidate entity mentions, deduplicated in first-appearance order.

    A mention is either a quoted span of identifier-ish characters, or a
    token that carries identifier structure: digits, underscores, or dots and
    hyphens sandwiched between alphanumerics. Plain prose words never qualify.
    """
    found: list[tuple[int, str]] = []
    for m in _QUOTED_RE.finditer(text):
        span = m.group(2).strip()
        if span and any(ch.isalnum() for ch in span):
            found.append((m.start(), span))
    for m in _WORD_RE.finditer(text):
        token = m.group(0).strip("._-")
        if token and _looks_like_entity(token):
            found.append((m.start(), token))
    found.sort(key=lambda pair: pair[0])
    out: list[str] = []
    for _, ent in found:
        if ent not in out:
            out.append(ent)
    return out


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------

def gate(g: float, tau_valid: float = TAU_VALID, tau_soft: float = TAU_SOFT) -> Verdict:
    """Piecewise verdict: Pass at or above tau_valid, Reject below tau_soft,
    Align in between."""
    if not (0.0 <= tau_soft <= tau_valid <= 1.0):
        raise InvalidThresholdsError(
            f"need 0 <= tau_soft <= tau_valid <= 1, got soft={tau_soft} valid={tau_valid}"
        )
    if g >= tau_valid:
        return Verdict.PASS
    if g >= tau_soft:
        return Verdict.ALIGN
    return Verdict.REJECT


# ---------------------------------------------------------------------------
# Ontology
# ---------------------------------------------------------------------------

@dataclass
class TermEntry:
    term: str
    embedding: np.ndarray
    validity: float = 0.0
    status: str = "temporary"  # "temporary" | "permanent"
    flagged: bool = False


@dataclass
class EntityScore:
    """Best validity-weighted match for one extracted entity."""

    score: float
    term: str | None


@dataclass
class OntologyUpdate:
    promoted: list[str] = field(default_factory=list)
    flagged: list[str] = field(default_factory=list)


class Ontology:
    """Shared world model: known terms with validity, plus per-edge schema maps.

    Scoring keeps one term matrix in sorted-term order, rebuilt when a term
    is added or replaced, and each entry's ``embedding`` is a read-only view
    of its row; validity is read from each ``TermEntry`` at score time, so
    ``update`` and gossip change it in one place.
    """

    def __init__(self, embedder: HashingEmbedder):
        self.embedder = embedder
        self._terms: dict[str, TermEntry] = {}
        self._table: tuple[list[TermEntry], VectorTable] | None = None  # sorted
        self._schema_maps: dict[tuple[str, str], dict[str, str]] = {}

    # -- terms -----------------------------------------------------------------

    def add_term(
        self, term: str, validity: float = 0.0, status: str = "temporary"
    ) -> TermEntry:
        if status not in ("temporary", "permanent"):
            raise ValueError(f"bad term status {status!r}")
        entry = TermEntry(
            term=term,
            embedding=self.embedder.embed_name(term),
            validity=float(np.clip(validity, 0.0, 1.0)),
            status=status,
        )
        self._terms[term] = entry
        self._table = None
        return entry

    def term(self, term: str) -> TermEntry | None:
        return self._terms.get(term)

    def has_term(self, term: str) -> bool:
        return term in self._terms

    def terms(self) -> list[str]:
        return sorted(self._terms)

    def score(self, entities: list[str]) -> tuple[float, dict[str, EntityScore]]:
        """Mean over entities of the best validity-weighted cosine against any
        term, each floored at zero. No entities means nothing to doubt: 1.0.
        Of equally good terms the first in sorted order wins.

        One (entities x terms) product shortlists each entity's contenders,
        which are rescored with ``cosine_similarity``.
        """
        if not entities:
            return 1.0, {}
        if self._table is None:
            entries = [self._terms[name] for name in sorted(self._terms)]
            table = VectorTable([e.embedding for e in entries], self.embedder.dim)
            for entry, row in zip(entries, table.matrix):
                entry.embedding = row  # one copy of each vector
            self._table = entries, table
        entries, table = self._table
        vecs = [self.embedder.embed_name(ent) for ent in entities]
        if len(entries) > SCAN_ROWS:
            validity = np.array([e.validity for e in entries])
            cos, band = table.cosines(np.array(vecs))
            scores, band = cos * validity, band * validity
        details: dict[str, EntityScore] = {}
        total = 0.0
        for i, (ent, vec) in enumerate(zip(entities, vecs)):
            best, best_term = 0.0, None
            if vec.any():
                rows: Iterable[int] = range(len(entries))
                if len(entries) > SCAN_ROWS:
                    rows = shortlist(scores[i], band[i], 1, floor=0.0, strict=True)
                for row in rows:
                    entry = entries[row]
                    if not entry.embedding.any():
                        continue
                    s = cosine_similarity(vec, entry.embedding) * entry.validity
                    if s > best:
                        best, best_term = s, entry.term
            details[ent] = EntityScore(score=best, term=best_term)
            total += best
        return total / len(entities), details

    def update(
        self,
        episodes: Iterable[tuple[list[str], bool]],
        alpha: float = 0.1,
    ) -> OntologyUpdate:
        """Fold (terms used, success flag) episodes into term validity.

        Validity moves by +/- alpha per episode, clamped to [0, 1]. Crossing
        PROMOTE_AT makes a term permanent, and that never reverts. Falling
        below DEMOTE_AT flags the term for review; the flag clears if the term
        recovers. Unknown terms are created at validity 0 on first sight.
        """
        result = OntologyUpdate()
        for terms, success in episodes:
            delta = alpha if success else -alpha
            for term in terms:
                entry = self._terms.get(term)
                if entry is None:
                    entry = self.add_term(term)
                old = entry.validity
                entry.validity = float(np.clip(old + delta, 0.0, 1.0))
                if entry.status != "permanent" and entry.validity >= PROMOTE_AT - _EPS:
                    entry.status = "permanent"
                    if term not in result.promoted:
                        result.promoted.append(term)
                if old >= DEMOTE_AT - _EPS and entry.validity < DEMOTE_AT - _EPS:
                    entry.flagged = True
                    if term not in result.flagged:
                        result.flagged.append(term)
                elif entry.flagged and entry.validity >= DEMOTE_AT - _EPS:
                    entry.flagged = False
        return result

    # -- schema maps -------------------------------------------------------------

    def set_schema_map(self, sender: str, receiver: str, table: dict[str, str]) -> None:
        """Install the substitution table for one directed edge.

        Tables must be injective (no two terms may map to the same target)
        and acyclic; either fault raises before anything is installed, so a
        bad map cannot make every message over the edge fail.
        """
        values = list(table.values())
        if len(set(values)) != len(values):
            raise ValueError(
                f"schema map for ({sender!r}, {receiver!r}) is not injective"
            )
        _check_acyclic(table)
        self._schema_maps[(sender, receiver)] = dict(table)

    def schema_map(self, sender: str, receiver: str) -> dict[str, str]:
        return dict(self._schema_maps.get((sender, receiver), {}))


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

_BOUNDARY_CHARS = "A-Za-z0-9_.\\-"


def _first_letter_variants(term: str) -> list[str]:
    if term and term[0].isalpha():
        rest = term[1:]
        lo, up = term[0].lower() + rest, term[0].upper() + rest
        return [lo, up] if lo != up else [term]
    return [term]


def _check_acyclic(table: dict[str, str]) -> None:
    """Raise CyclicTableError when following the table from any term can
    arrive back at a term of the table (first letters compared caselessly)."""

    def norm(s: str) -> str:
        return (s[0].lower() + s[1:]) if s and s[0].isalpha() else s

    normalized = {norm(k): v for k, v in table.items()}
    for start in normalized:
        seen = {start}
        cur = norm(normalized[start])
        while cur in normalized:
            if cur in seen:
                raise CyclicTableError(f"substitution table cycles through {cur!r}")
            seen.add(cur)
            cur = norm(normalized[cur])


def translate(text: str, table: dict[str, str]) -> str:
    """Rewrite whole tokens through a substitution table.

    Longer terms win over their prefixes, matching tolerates a different case
    on the first letter only, and replacement text is taken verbatim from the
    table. Raises CyclicTableError when following the table from any term can
    arrive back at a term of the table.
    """
    if not table:
        return text
    _check_acyclic(table)

    lookup: dict[str, str] = {}
    for key, value in table.items():
        for variant in _first_letter_variants(key):
            lookup.setdefault(variant, value)
        lookup[key] = value  # the exact spelling always wins
    alternatives = sorted(lookup, key=lambda k: (-len(k), k))
    pattern = re.compile(
        rf"(?<![{_BOUNDARY_CHARS}])"
        + "(" + "|".join(re.escape(a) for a in alternatives) + ")"
        + rf"(?![{_BOUNDARY_CHARS}])"
    )
    return pattern.sub(lambda m: lookup[m.group(1)], text)


# ---------------------------------------------------------------------------
# Ghost references and contradiction checks
# ---------------------------------------------------------------------------

@dataclass
class GhostReport:
    missing: list[str]
    suggestions: dict[str, str]

    @property
    def ok(self) -> bool:
        return not self.missing


def ghost_check(entities: list[str], manifest) -> GhostReport:
    """Which entities are absent from the environment manifest, and what the
    nearest real names are. Membership is exact; suggestions need name
    similarity of at least SUGGESTION_FLOOR."""
    missing = [e for e in entities if e not in manifest]
    suggestions: dict[str, str] = {}
    for ent in missing:
        hit = manifest.suggest(ent, floor=SUGGESTION_FLOOR)
        if hit is not None:
            suggestions[ent] = hit
    return GhostReport(missing=missing, suggestions=suggestions)


@dataclass
class Conflict:
    entity: str
    attribute: str
    asserted: str
    actual: str


def check_assertions(text: str, entities: list[str], entity_store) -> list[Conflict]:
    """Find '<entity> is <value>' claims that contradict tracked entity state.

    The minimal parser reads the claim as being about the entity's ``status``
    attribute when it has one, else its lexicographically first attribute.
    """
    conflicts: list[Conflict] = []
    for ent in entities:
        state = entity_store.lookup(ent)
        if state is None or not state.attributes:
            continue
        m = re.search(
            rf"{re.escape(ent)}\s+is\s+([A-Za-z0-9_.\-]+)", text
        )
        if not m:
            continue
        asserted = m.group(1).strip("._-")
        attr = "status" if "status" in state.attributes else sorted(state.attributes)[0]
        actual = state.attributes[attr]
        if asserted and asserted != actual:
            conflicts.append(
                Conflict(entity=ent, attribute=attr, asserted=asserted, actual=actual)
            )
    return conflicts


# ---------------------------------------------------------------------------
# Full grounding decision
# ---------------------------------------------------------------------------

@dataclass
class GroundingDecision:
    verdict: Verdict
    score: float
    entities: list[str]
    details: dict[str, EntityScore]
    conflicts: list[Conflict] = field(default_factory=list)
    corrected_text: str | None = None


def ground(
    text: str,
    ontology: Ontology,
    *,
    entity_store=None,
    tau_valid: float = TAU_VALID,
    tau_soft: float = TAU_SOFT,
) -> GroundingDecision:
    """Extract, score, and gate in one step.

    A message that would Pass but contradicts tracked entity state is
    downgraded to Align, with the fabric's view appended to the corrected
    text so the receiver sees both claims.
    """
    entities = extract_entities(text)
    g, details = ontology.score(entities)
    verdict = gate(g, tau_valid, tau_soft)
    conflicts = (
        check_assertions(text, entities, entity_store) if entity_store is not None else []
    )
    corrected = None
    if conflicts and verdict is not Verdict.REJECT:
        if verdict is Verdict.PASS:
            verdict = Verdict.ALIGN
        notes = "; ".join(
            f"{c.entity} {c.attribute} is {c.actual}, not {c.asserted}" for c in conflicts
        )
        corrected = f"{text} [Fabric state: {notes}. Verify before acting.]"
    return GroundingDecision(
        verdict=verdict,
        score=g,
        entities=entities,
        details=details,
        conflicts=conflicts,
        corrected_text=corrected,
    )
