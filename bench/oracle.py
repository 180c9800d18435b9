"""Reference computations made apart from cogfabric, and the checks that use them.

Nothing here imports the package. The embedder below is a second
implementation of the hashing embedder's published contract (lowercased
tokens, FNV-1a 64 into ``dim`` buckets, L2-normalised counts), so a change
to the program's embedding, ranking or gating shows up as a disagreement.

Every ``check_*`` function returns a list of problems, empty when the
program's output has the property; the benchmark's own tests feed them
corrupted outputs to show that each one can fail.
"""

from __future__ import annotations

import re

import numpy as np

DIM = 256
TOL = 1e-9  # scores closer than this are a tie; a one-ulp near-tie is no fault

_TOKEN_RE = re.compile(r"[a-z0-9_.]+")
_PART_RE = re.compile(r"[a-z0-9]+")
_ARTIFACT_RE = re.compile(r"[A-Za-z0-9]\.[A-Za-z0-9]")

PII_PATTERNS = {
    "ssn": re.compile(r"\b\d{3}-\d{2}-\d{4}\b"),
    "card": re.compile(r"\b\d{4}[ -]\d{4}[ -]\d{4}[ -]\d{4}\b"),
    "email": re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b"),
    "phone": re.compile(r"\b\d{3}[.-]\d{3}[.-]\d{4}\b"),
}
DROP_TABLE_RE = re.compile(r"(?i)\bdrop\s+table\b")


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class RefEmbedder:
    """Feature-hashing embedder written from the contract, with a bucket cache."""

    def __init__(self, dim: int = DIM):
        self.dim = dim
        self._bucket: dict[str, int] = {}

    def _vec(self, tokens: list[str]) -> np.ndarray:
        vec = np.zeros(self.dim)
        for tok in tokens:
            b = self._bucket.get(tok)
            if b is None:
                b = self._bucket[tok] = _fnv1a64(tok.encode("utf-8")) % self.dim
            vec[b] += 1.0
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    def text(self, text: str) -> np.ndarray:
        return self._vec([t for t in (r.strip("._") for r in _TOKEN_RE.findall(text.lower())) if t])

    def name(self, name: str) -> np.ndarray:
        return self._vec(_PART_RE.findall(name.lower()))


def is_artifact(name: str) -> bool:
    return bool(_ARTIFACT_RE.search(name))


# ---------------------------------------------------------------------------
# Retrieval and injection
# ---------------------------------------------------------------------------

class RecordTable:
    """The records a benchmark wrote, as one matrix, for brute-force ranking."""

    def __init__(self, emb: RefEmbedder, rows: list[tuple[str, str, float, float]]):
        # rows: (id, text, importance, created_at)
        self.ids = [r[0] for r in rows]
        self.texts = [r[1] for r in rows]
        self.matrix = np.stack([emb.text(r[1]) for r in rows]) if rows else np.zeros((0, emb.dim))
        self.weight = 1.0 + np.array([r[2] for r in rows])
        self.created = np.array([r[3] for r in rows])
        rank = {rid: i for i, rid in enumerate(sorted(self.ids))}
        self.id_rank = np.array([rank[i] for i in self.ids])
        self.nonzero = self.matrix.any(axis=1) if rows else np.zeros(0, bool)
        self.by_text = {t: i for i, t in enumerate(self.texts)}

    def scores(self, query: np.ndarray) -> np.ndarray:
        return (self.matrix @ query) * self.weight

    def top_k(self, query: np.ndarray, k: int, floor: float) -> list[tuple[int, float]]:
        """Rows by score desc, newer created_at, then lower id: (row, score)."""
        s = self.scores(query)
        eligible = np.flatnonzero(self.nonzero & (s >= floor))
        order = np.lexsort((self.id_rank[eligible], -self.created[eligible], -s[eligible]))
        return [(int(eligible[i]), float(s[eligible[i]])) for i in order[:k]]


def budget_prefix(lines: list[str], budget: int) -> list[str]:
    """The lines a Context block of ``budget`` whitespace tokens holds."""
    if budget <= 0:
        return []
    used = 1  # the "Context:" header
    taken = []
    for line in lines:
        cost = len(f"- {line}".split())
        if used + cost > budget:
            break
        taken.append(line)
        used += cost
    return taken


def check_injection(
    injected: list[str],
    table: RecordTable,
    query: np.ndarray,
    k: int,
    floor: float,
    budget: int,
) -> list[str]:
    """Injected lines equal the brute-force top-k that fits the budget.

    A line may stand where the reference has another only when the two
    scores are within TOL, so an ulp-level reordering of a near-tie passes.
    """
    want = table.top_k(query, k, floor)
    s = table.scores(query)
    problems = []
    got_rows = []
    for line in injected:
        row = table.by_text.get(line)
        if row is None:
            return [f"injected line is no generated record: {line!r}"]
        got_rows.append(row)
    if budget_prefix(injected, budget) != injected:
        problems.append("injected lines exceed the token budget")
    if len(got_rows) < len(want):
        following = table.texts[want[len(got_rows)][0]]
        if len(budget_prefix(injected + [following], budget)) > len(injected):
            problems.append(f"left out {table.ids[want[len(got_rows)][0]]}, which fits the budget")
    for pos, row in enumerate(got_rows):
        if pos >= len(want):
            problems.append(f"extra injected line at {pos}: {table.ids[row]}")
            break
        ref_row, ref_score = want[pos]
        if row != ref_row and abs(s[row] - ref_score) > TOL:
            problems.append(
                f"injected {table.ids[row]} (score {s[row]:.12f}) at {pos}, "
                f"reference {table.ids[ref_row]} (score {ref_score:.12f})"
            )
    return problems


def check_live_injection(injected: list[str], live_texts: set[str]) -> list[str]:
    """Every injected line comes from a record that is live right now."""
    return [f"injected line from a dead record: {t!r}" for t in injected if t not in live_texts]


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

class TermTable:
    """Ontology terms as name embeddings times validity, for reference scoring."""

    def __init__(self, emb: RefEmbedder):
        self.emb = emb
        self.names: list[str] = []
        self.rows: list[np.ndarray] = []
        self.validity: list[float] = []
        self._where: dict[str, int] = {}
        self._matrix: np.ndarray | None = None

    def set(self, term: str, validity: float) -> None:
        i = self._where.get(term)
        if i is None:
            self._where[term] = len(self.names)
            self.names.append(term)
            self.rows.append(self.emb.name(term))
            self.validity.append(validity)
            self._matrix = None
        else:
            self.validity[i] = validity

    def get(self, term: str) -> float | None:
        i = self._where.get(term)
        return None if i is None else self.validity[i]

    def score(self, entities: list[str]) -> float:
        """Mean over entities of max(0, best cosine x validity); 1.0 for none."""
        if not entities:
            return 1.0
        if self._matrix is None:
            self._matrix = np.stack(self.rows) if self.rows else np.zeros((0, self.emb.dim))
        validity = np.array(self.validity)
        total = 0.0
        for ent in entities:
            vec = self.emb.name(ent)
            best = float(np.max(self._matrix @ vec * validity)) if self.rows else 0.0
            total += max(0.0, best)
        return total / len(entities)


def gate(g: float, tau_valid: float, tau_soft: float) -> str:
    if g >= tau_valid:
        return "pass"
    if g >= tau_soft:
        return "align"
    return "reject"


def check_grounding(
    verdict: str,
    score: float,
    ref_score: float,
    tau_valid: float,
    tau_soft: float,
    conflict: bool = False,
) -> list[str]:
    """The program's score and verdict equal the reference recomputation.

    At a threshold closer than TOL either side of the gate is accepted. A
    message that contradicts tracked entity state cannot pass: it aligns.
    """
    problems = []
    if abs(score - ref_score) > TOL:
        problems.append(f"grounding score {score!r}, reference {ref_score!r}")
    allowed = {gate(ref_score + d, tau_valid, tau_soft) for d in (-TOL, 0.0, TOL)}
    if conflict:
        allowed = {"align" if v == "pass" else v for v in allowed}
    if verdict not in allowed:
        problems.append(f"grounding verdict {verdict}, reference {sorted(allowed)}")
    return problems


def reference_suggestion(
    emb: RefEmbedder, name: str, members: dict[str, np.ndarray], floor: float
) -> tuple[set[str], float]:
    """Members within TOL of the best name similarity at or above ``floor``."""
    probe = emb.name(name)
    if not probe.any() or not members:
        return set(), 0.0
    names = sorted(members)
    sims = np.array([float(members[m] @ probe) for m in names])
    best = float(sims.max())
    if best < floor - TOL:
        return set(), best
    return {m for m, s in zip(names, sims) if s >= best - TOL}, best


def check_ghost(
    reason: str | None,
    missing: list[str] | None,
    suggestions: dict[str, str] | None,
    refs: list[str],
    manifest: set[str],
    expected_suggestions: dict[str, set[str]],
) -> list[str]:
    """A ghost bounce happens exactly when a dotted reference is missing,
    and each suggestion is a nearest manifest name."""
    absent = [r for r in refs if r not in manifest]
    bounced = reason == "ghost-reference"
    if bool(absent) != bounced:
        return [f"ghost bounce {bounced} but missing references {absent}"]
    problems = []
    if bounced:
        if list(missing or []) != absent:
            problems.append(f"ghost missing {missing}, reference {absent}")
        for ref in absent:
            want = expected_suggestions.get(ref, set())
            got = (suggestions or {}).get(ref)
            if (got is None) != (not want) or (got is not None and got not in want):
                problems.append(f"suggestion for {ref!r} is {got!r}, reference {sorted(want)}")
    return problems


# ---------------------------------------------------------------------------
# Payload safety and translation
# ---------------------------------------------------------------------------

def check_payload_safe(text: str) -> list[str]:
    """A delivered payload carries no PII and no destructive SQL."""
    problems = [f"delivered payload matches the {k} pattern" for k, p in PII_PATTERNS.items() if p.search(text)]
    if DROP_TABLE_RE.search(text):
        problems.append("delivered payload contains 'drop table'")
    return problems


def check_translated(text: str, table: dict[str, str]) -> list[str]:
    """No source term of the edge's schema map survives as a whole token."""
    problems = []
    for src in table:
        variants = {src, src[:1].lower() + src[1:], src[:1].upper() + src[1:]}
        for v in variants:
            if re.search(rf"(?<![A-Za-z0-9_.\-]){re.escape(v)}(?![A-Za-z0-9_.\-])", text):
                problems.append(f"schema term {v!r} left untranslated")
    return problems


# ---------------------------------------------------------------------------
# Gossip
# ---------------------------------------------------------------------------

def check_version_vectors(vectors: dict[str, dict[str, int]], tally: dict[str, int]) -> list[str]:
    """Every node's version vector equals the count of deltas each origin emitted."""
    want = {o: c for o, c in tally.items() if c}
    return [
        f"node {node} version vector differs from the tally at {sorted(set(vv) ^ set(want) | {o for o in want if vv.get(o) != want[o]})[:3]}"
        for node, vv in vectors.items()
        if vv != want
    ]


def check_agreement(views: dict[str, dict], expected: dict) -> list[str]:
    """Every node holds the last write of every key."""
    problems = []
    for node, view in views.items():
        for key, value in expected.items():
            got = view.get(key)
            if got != value:
                problems.append(f"node {node} holds {got!r} for {key}, last write was {value!r}")
                break
    return problems
