from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogfabric.core import (
    AgentProfile,
    DimensionMismatchError,
    HashingEmbedder,
    ZeroVectorError,
    cosine_similarity,
    fnv1a64,
    make_envelope,
    name_parts,
    tokenize,
)

# ---------------------------------------------------------------------------
# Independent oracle: a from-scratch scalar re-implementation of the hashing
# scheme, no numpy, used to cross-check the production embedder.
# ---------------------------------------------------------------------------


def _oracle_fnv(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) % (1 << 64)
    return h


def _oracle_tokens(text: str) -> list[str]:
    toks, cur = [], []
    for ch in text.lower():
        if ch.isascii() and (ch.isalnum() or ch in "_."):
            cur.append(ch)
        else:
            if cur:
                toks.append("".join(cur))
            cur = []
    if cur:
        toks.append("".join(cur))
    out = []
    for t in toks:
        t = t.strip("._")
        if t:
            out.append(t)
    return out


def _oracle_name_parts(name: str) -> list[str]:
    parts, cur = [], []
    for ch in name.lower() + " ":
        if ch.isascii() and ch.isalnum():
            cur.append(ch)
        elif cur:
            parts.append("".join(cur))
            cur = []
    return parts


def _oracle_embed(text: str, dim: int) -> list[float]:
    return _oracle_vector(_oracle_tokens(text), dim)


def _oracle_vector(tokens: list[str], dim: int) -> list[float]:
    counts = [0.0] * dim
    for tok in tokens:
        counts[_oracle_fnv(tok.encode("utf-8")) % dim] += 1.0
    norm = math.sqrt(sum(c * c for c in counts))
    if norm == 0.0:
        return counts
    return [c / norm for c in counts]


def _oracle_cos(a: list[float], b: list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


# ---------------------------------------------------------------------------
# Hashing and tokenization
# ---------------------------------------------------------------------------


def test_fnv1a64_known_vectors() -> None:
    # Published FNV-1a 64 test vectors.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_tokenize_keeps_compound_identifiers() -> None:
    assert tokenize("Analyze the dataset Q3_Report.csv.") == [
        "analyze",
        "the",
        "dataset",
        "q3_report.csv",
    ]


def test_tokenize_strips_sentence_punctuation() -> None:
    assert tokenize("Deploy the container.") == ["deploy", "the", "container"]
    assert tokenize("") == []
    assert tokenize("...") == []


def test_name_parts_splits_identifier() -> None:
    assert name_parts("Q3_Report.csv") == ["q3", "report", "csv"]
    assert name_parts("db-01") == ["db", "01"]


@given(st.text(max_size=120))
@settings(max_examples=150, deadline=None)
def test_tokenize_matches_oracle(text: str) -> None:
    assert tokenize(text) == _oracle_tokens(text)


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def test_embed_same_text_same_vector() -> None:
    emb = HashingEmbedder(dim=64)
    a = emb.embed("deploy the payment service")
    b = emb.embed("deploy the payment service")
    assert np.array_equal(a, b)


def test_embed_empty_text_is_zero_vector() -> None:
    emb = HashingEmbedder(dim=32)
    assert not emb.embed("").any()
    assert not emb.embed(" \t\n").any()


def test_embed_norm_is_zero_or_one() -> None:
    emb = HashingEmbedder()
    for text in ["", "one", "two words", "a a a a a", "Q3_Report.csv at 14:00"]:
        norm = float(np.linalg.norm(emb.embed(text)))
        assert norm == 0.0 or abs(norm - 1.0) <= 1e-9


def test_embed_matches_scalar_oracle() -> None:
    emb = HashingEmbedder(dim=97)
    for text in [
        "deploy the payment service",
        "Error 503 occurred in service 'Payment-Gateway' at 14:00.",
        "retrieve quarterly finance report",
        "a b c a b a",
    ]:
        expected = np.array(_oracle_embed(text, 97))
        assert np.allclose(emb.embed(text), expected, atol=1e-12)


def test_embed_similarity_ordering() -> None:
    # Overlapping wording must land closer than unrelated wording.
    # Expected inequality confirmed with the scalar oracle first.
    emb = HashingEmbedder()
    q = "deploy the payment service"
    near = "deploy payment gateway service"
    far = "retrieve quarterly finance report"
    o_near = _oracle_cos(_oracle_embed(q, emb.dim), _oracle_embed(near, emb.dim))
    o_far = _oracle_cos(_oracle_embed(q, emb.dim), _oracle_embed(far, emb.dim))
    assert o_near > o_far  # oracle agrees the fixture is well-posed
    got_near = cosine_similarity(emb.embed(q), emb.embed(near))
    got_far = cosine_similarity(emb.embed(q), emb.embed(far))
    assert got_near > got_far
    assert got_near == pytest.approx(o_near, abs=1e-12)
    assert got_far == pytest.approx(o_far, abs=1e-12)


@given(st.text(max_size=80))
@settings(max_examples=100, deadline=None)
def test_embed_is_pure(text: str) -> None:
    emb = HashingEmbedder(dim=32)
    assert np.array_equal(emb.embed(text), emb.embed(text))


# plain ASCII words and separators mixed with arbitrary code points, so that
# tokens repeat within and across examples and the token-hash cache is hit
_MIXED_TEXT = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from("abcxyz019 _.-")), max_size=80
)


@given(_MIXED_TEXT)
@settings(max_examples=200, deadline=None)
def test_cached_token_hashes_embed_bit_for_bit(text: str) -> None:
    emb = HashingEmbedder(dim=97)
    for _ in range(2):  # cold and warm cache
        assert emb.embed(text).tobytes() == np.array(_oracle_embed(text, 97)).tobytes()
        assert (
            emb.embed_name(text).tobytes()
            == np.array(_oracle_vector(_oracle_name_parts(text), 97)).tobytes()
        )


def test_embed_name_uses_subtokens() -> None:
    emb = HashingEmbedder()
    a = emb.embed_name("Q3_Report.csv")
    b = emb.embed_name("Q3_Report_Archived.zip")
    # Shares the q3 and report sub-tokens, so clearly above zero.
    assert cosine_similarity(a, b) > 0.3
    # Whole-token view of the two names shares nothing.
    with_whole = cosine_similarity(emb.embed("Q3_Report.csv"), emb.embed("Q3_Report_Archived.zip"))
    assert with_whole == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Cosine similarity
# ---------------------------------------------------------------------------


def test_cosine_identical_and_orthogonal() -> None:
    a = np.zeros(8)
    a[0] = 1.0
    b = np.zeros(8)
    b[1] = 1.0
    assert cosine_similarity(a, a) == pytest.approx(1.0)
    assert cosine_similarity(a, b) == pytest.approx(0.0)


def test_cosine_zero_vector_raises() -> None:
    a = np.zeros(4)
    b = np.ones(4)
    with pytest.raises(ZeroVectorError):
        cosine_similarity(a, b)
    with pytest.raises(ZeroVectorError):
        cosine_similarity(b, a)


def test_cosine_dimension_mismatch_raises() -> None:
    with pytest.raises(DimensionMismatchError):
        cosine_similarity(np.ones(4), np.ones(5))


@given(
    st.lists(st.floats(-5, 5), min_size=6, max_size=6),
    st.lists(st.floats(-5, 5), min_size=6, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_cosine_symmetry(xs: list[float], ys: list[float]) -> None:
    a, b = np.array(xs), np.array(ys)
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return
    assert abs(cosine_similarity(a, b) - cosine_similarity(b, a)) <= 1e-12
    assert -1.0 <= cosine_similarity(a, b) <= 1.0


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def test_envelope_ids_unique_and_trace_appends() -> None:
    e1 = make_envelope("a", "hello", to="b")
    e2 = make_envelope("a", "hello", to="b")
    assert e1.id != e2.id


def test_envelope_requires_one_addressing() -> None:
    with pytest.raises(ValueError):
        make_envelope("a", "x")
    with pytest.raises(ValueError):
        make_envelope("a", "x", to="b", intent="both")


def test_profile_embedding_matches_skill_text() -> None:
    emb = HashingEmbedder()
    p = AgentProfile.from_skill(emb, "sql-agent", "query relational databases", tags=("db",))
    assert np.array_equal(p.skill_embedding, emb.embed("query relational databases"))
    assert p.tags == frozenset({"db"})
