from __future__ import annotations

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogfabric import ann
from cogfabric.ann import HnswIndex
from cogfabric.core import DimensionMismatchError, HashingEmbedder, ZeroVectorError
from cogfabric.memory import EntityStore, Manifest, MemoryRecord, MemoryStore


EMB = HashingEmbedder()


def _filled_store(n: int, seed: int, embedder: HashingEmbedder = EMB) -> MemoryStore:
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(40)]
    store = MemoryStore(embedder)
    for i in range(n):
        text = " ".join(rng.choices(words, k=rng.randint(3, 9)))
        store.add(
            text,
            created_at=float(rng.randint(0, 500)),
            importance=rng.choice([0.0, 0.0, 0.5, 1.0]),
        )
    return store


def _oracle_topk(store: MemoryStore, query: np.ndarray, k: int, floor: float = float("-inf")):
    """Independent brute-force ranking.

    Re-implements the scoring formula, floor, and tie-break contract from
    scratch; the raw inner product uses the same IEEE operation so that
    mathematically tied records stay bit-identical ties.
    """
    qn = float(np.linalg.norm(query))
    rows = []
    for rec in store.records():
        vn = float(np.linalg.norm(rec.vector))
        if vn == 0.0:
            continue
        cos = max(-1.0, min(1.0, float(np.dot(query, rec.vector)) / (qn * vn)))
        score = cos * (1.0 + rec.importance)
        if score >= floor:
            rows.append((rec.id, score, rec.created_at))
    rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
    return [(rid, s) for rid, s, _ in rows[:k]]


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


def test_retrieve_matches_brute_force_oracle() -> None:
    store = _filled_store(200, seed=11)
    rng = random.Random(5)
    words = [f"w{i}" for i in range(40)]
    for _ in range(25):
        query = EMB.embed(" ".join(rng.choices(words, k=5)))
        got = store.retrieve(query, k=5)
        expected = _oracle_topk(store, query, 5)
        assert [r.id for r, _ in got] == [rid for rid, _ in expected]
        for (_, s_got), (_, s_exp) in zip(got, expected):
            assert s_got == pytest.approx(s_exp, abs=1e-9)


def test_retrieve_importance_weighting() -> None:
    store = MemoryStore(EMB)
    plain = store.add("deploy payment service", importance=0.0)
    boosted = store.add("deploy payment service", importance=1.0)
    hits = store.retrieve(EMB.embed("deploy payment service"), k=2)
    assert hits[0][0].id == boosted.id
    assert hits[0][1] == pytest.approx(2.0 * hits[1][1])


def test_retrieve_tie_breaks_newer_then_id() -> None:
    store = MemoryStore(EMB)
    a = store.add("alpha beta", created_at=1.0, record_id="ra")
    b = store.add("alpha beta", created_at=9.0, record_id="rb")
    c = store.add("alpha beta", created_at=9.0, record_id="rc")
    hits = store.retrieve(EMB.embed("alpha beta"), k=3)
    assert [r.id for r, _ in hits] == ["rb", "rc", "ra"]


def test_retrieve_floor_and_k_zero() -> None:
    store = MemoryStore(EMB)
    store.add("alpha beta gamma")
    store.add("unrelated words entirely")
    q = EMB.embed("alpha beta gamma")
    assert store.retrieve(q, k=0) == []
    hits = store.retrieve(q, k=5, floor=0.9)
    assert len(hits) == 1
    assert all(s >= 0.9 for _, s in hits)


def test_retrieve_zero_query_raises() -> None:
    store = MemoryStore(EMB)
    store.add("something")
    with pytest.raises(ZeroVectorError):
        store.retrieve(np.zeros(EMB.dim), k=1)


def test_retrieve_dimension_mismatch() -> None:
    store = MemoryStore(EMB)
    with pytest.raises(DimensionMismatchError):
        store.retrieve(np.ones(7), k=1)


def test_empty_text_records_never_retrieved() -> None:
    store = MemoryStore(EMB)
    store.add("")
    store.add("real content here")
    hits = store.retrieve(EMB.embed("real content"), k=5)
    assert len(hits) == 1
    assert hits[0][0].text == "real content here"


# ---------------------------------------------------------------------------
# Store behavior
# ---------------------------------------------------------------------------


def test_identical_text_gets_distinct_ids() -> None:
    store = MemoryStore(EMB)
    r1 = store.add("same text")
    r2 = store.add("same text")
    assert r1.id != r2.id
    assert len(store) == 2


def test_duplicate_id_rejected() -> None:
    store = MemoryStore(EMB)
    store.add("x", record_id="r1")
    with pytest.raises(ValueError):
        store.add("y", record_id="r1")


@pytest.mark.parametrize("with_index", [False, True], ids=["exact", "indexed"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("importance", float("nan")),
        ("importance", float("inf")),
        ("ttl", float("nan")),
        ("ttl", float("inf")),
        ("created_at", float("nan")),
        ("created_at", float("-inf")),
    ],
)
def test_non_finite_number_is_refused_before_storing(field, value, with_index) -> None:
    store = MemoryStore(EMB, HnswIndex(EMB.dim) if with_index else None)
    store.add("Payment-Gateway returned 503", record_id="kept")
    with pytest.raises(ValueError, match="finite"):
        store.add("Payment-Gateway returned 503", record_id="bad", **{field: value})
    assert len(store) == 1 and store.get("bad") is None
    assert [rec.id for rec, _ in store.retrieve(EMB.embed("Payment-Gateway"), k=5)] == ["kept"]
    # nothing of the refused record is left behind, so its id is free
    store.add("Payment-Gateway returned 200", record_id="bad")
    assert len(store) == 2


@pytest.mark.parametrize("with_index", [False, True], ids=["exact", "indexed"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_vector_is_refused_before_storing(bad, with_index) -> None:
    store = _filled_store(20, seed=5)
    if with_index:
        indexed = MemoryStore(EMB, HnswIndex(EMB.dim))
        for rec in store.records():
            indexed.add(rec.text, created_at=rec.created_at, importance=rec.importance)
        store = indexed
    vector = EMB.embed("alpha beta gamma")
    vector[3] = bad
    with pytest.raises(ValueError, match="finite"):
        store.store(MemoryRecord(id="bad", text="alpha beta gamma", vector=vector))
    assert len(store) == 20 and store.get("bad") is None
    # nothing of the refused record is left behind, so its id is free
    store.add("alpha beta gamma", record_id="bad")
    query = EMB.embed("alpha beta gamma")
    assert "bad" in [rec.id for rec, _ in store.retrieve(query, k=5)]


def test_finite_vector_with_an_overflowing_norm_is_stored() -> None:
    store = _filled_store(3, seed=5)
    vector = EMB.embed("alpha beta gamma")
    vector[3] = 1e200
    with np.errstate(over="ignore"):
        store.store(MemoryRecord(id="big", text="alpha beta gamma", vector=vector))
    assert len(store) == 4 and store.get("big") is not None


def test_prune_ttl_boundary_inclusive() -> None:
    store = MemoryStore(EMB)
    store.add("expires", created_at=10.0, ttl=5.0, record_id="gone")
    store.add("survives", created_at=10.0, ttl=5.1, record_id="kept")
    store.add("immortal", created_at=0.0, record_id="forever")
    removed = store.prune(now=15.0)
    assert removed == 1
    assert store.get("gone") is None
    assert store.get("kept") is not None
    assert store.get("forever") is not None


# ---------------------------------------------------------------------------
# Approximate index
# ---------------------------------------------------------------------------


def test_hnsw_recall_against_exact() -> None:
    rng = np.random.default_rng(42)
    dim = 32
    n = 400
    vecs = rng.normal(size=(n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    index = HnswIndex(dim, m=8, ef_construction=100, ef_search=80, seed=1)
    for i in range(n):
        index.add(f"v{i:04d}", vecs[i])
    hits = 0
    total = 0
    for qi in range(30):
        q = rng.normal(size=dim)
        q /= np.linalg.norm(q)
        exact = np.argsort(-(vecs @ q))[:5]
        exact_ids = {f"v{i:04d}" for i in exact}
        got = set(index.search(q, 5))
        hits += len(got & exact_ids)
        total += 5
    assert hits / total >= 0.9


def test_hnsw_backed_store_same_interface() -> None:
    emb = HashingEmbedder(dim=64)
    index = HnswIndex(64, seed=9)
    store = MemoryStore(emb, index=index)
    for i in range(50):
        store.add(f"record number {i} about topic t{i % 7}")
    q = emb.embed("record about topic t3")
    hits = store.retrieve(q, k=3)
    assert len(hits) == 3
    assert all(s > 0 for _, s in hits)
    # pruning removes index entries too
    store.prune(now=1.0)  # nothing has a ttl; no-op
    assert len(store) == 50


def test_hnsw_graph_recall_against_exact() -> None:
    # criterion 7(b)'s data, with the graph built from the first row on
    g = np.random.default_rng(42)
    dim = 32
    vecs = g.normal(size=(1000, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    with mock.patch.object(ann, "GRAPH_ROWS", 0):
        index = HnswIndex(dim, m=8, ef_construction=100, ef_search=80, seed=1)
        for i in range(1000):
            index.add(f"v{i:04d}", vecs[i])
    hits = 0
    for _ in range(100):
        q = g.normal(size=dim)
        q /= np.linalg.norm(q)
        exact_ids = {f"v{i:04d}" for i in np.argsort(-(vecs @ q))[:5]}
        hits += len(set(index.search(q, 5)) & exact_ids)
    assert hits / 500 >= 0.9


_POOL = 160  # ids v0..v159, all live at the start
# long enough that dead slots come to outnumber live ones, which compacts
_churn = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "remove"]), st.integers(0, _POOL - 1)),
    min_size=150,
    max_size=300,
)


@pytest.mark.parametrize("graph_rows", [ann.GRAPH_ROWS, 0], ids=["flat", "graph"])
@settings(max_examples=25, deadline=None)
@given(ops=_churn, seed=st.integers(0, 2**16))
def test_hnsw_churn_keeps_ids_and_recall(graph_rows: int, ops: list, seed: int) -> None:
    rng = np.random.default_rng(seed)
    dim = 16

    def unit() -> np.ndarray:
        v = rng.normal(size=dim)
        return v / np.linalg.norm(v)

    live: dict[str, np.ndarray] = {}
    with mock.patch.object(ann, "GRAPH_ROWS", graph_rows):
        index = HnswIndex(dim, seed=seed)
        # ids start live, then are removed and added again in any order
        for i in range(_POOL):
            live[f"v{i}"] = unit()
            index.add(f"v{i}", live[f"v{i}"])
        for kind, i in ops:
            item = f"v{i}"
            if kind == "remove":
                index.remove(item)
                live.pop(item, None)
            elif item in live:
                with pytest.raises(ValueError, match="duplicate index id"):
                    index.add(item, unit())
            else:
                live[item] = unit()
                index.add(item, live[item])
            assert len(index) == len(live)
    ids = list(live)
    matrix = np.array([live[i] for i in ids]).reshape(len(ids), dim)
    recalls = []
    for _ in range(10):
        q = unit()
        for k in (5, len(ids) + 3):
            got = index.search(q, k)
            assert len(got) == len(set(got)) <= k
            assert set(got) <= live.keys()
        want = {ids[j] for j in np.argsort(-(matrix @ q))[:5]}
        if want:
            recalls.append(len(want & set(index.search(q, 5))) / len(want))
    assert not recalls or np.mean(recalls) >= 0.9


def test_hnsw_rejects_a_vector_of_the_wrong_shape() -> None:
    index = HnswIndex(4)
    for vec in (np.ones(1), np.float64(1.0), np.ones(5), np.ones((1, 4))):
        with pytest.raises(ValueError, match="shape"):
            index.add("a", vec)
    assert len(index) == 0 and index.search(np.ones(4) / 2, 1) == []


def test_hnsw_graph_survives_compaction_until_half_the_crossover() -> None:
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(60, 8))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    with mock.patch.object(ann, "GRAPH_ROWS", 40):
        index = HnswIndex(8, seed=5)
        for i in range(60):
            index.add(f"v{i}", vecs[i])
        # the 31st removal leaves 29 live of 60 slots and compacts; 29 is
        # under the crossover but not under half of it, so the graph stays
        for i in range(31):
            index.remove(f"v{i}")
        assert len(index._ids) == len(index) == 29 and index._links is not None
        # 14 live of 29 slots compacts again, under half: back to the scan
        for i in range(31, 46):
            index.remove(f"v{i}")
        assert len(index._ids) == len(index) == 14 and index._links is None
        assert index.search(vecs[50], 1) == ["v50"]


def test_pruned_record_id_can_be_stored_again_with_an_index() -> None:
    emb = HashingEmbedder(dim=64)
    store = MemoryStore(emb, index=HnswIndex(64, seed=3))
    for i in range(20):
        store.add(f"background note {i}", record_id=f"n{i}")
    store.add("escalation goes through the duty manager", ttl=5.0, record_id="fact")
    assert store.prune(now=10.0) == 1
    store.add("escalation now goes through the on-call lead", created_at=10.0, record_id="fact")
    hits = store.retrieve(emb.embed("escalation on-call lead"), k=3)
    assert "fact" in [rec.id for rec, _ in hits]


# ---------------------------------------------------------------------------
# Entity state
# ---------------------------------------------------------------------------


def test_entity_update_and_lookup() -> None:
    es = EntityStore()
    state = es.update("db-01", {"status": "offline"}, by="monitor", at=5.0)
    assert state.attributes == {"status": "offline"}
    assert state.updated_at == 5.0
    assert state.updated_by == "monitor"
    assert es.lookup("nope") is None


def test_entity_last_write_wins_per_attribute() -> None:
    es = EntityStore()
    es.update("db-01", {"status": "online", "region": "eu"}, by="a", at=1.0)
    es.update("db-01", {"status": "offline"}, by="b", at=2.0)
    # stale write must not clobber the newer status
    es.update("db-01", {"status": "online"}, by="c", at=1.5)
    state = es.lookup("db-01")
    assert state is not None
    assert state.attributes == {"region": "eu", "status": "offline"}
    assert state.updated_at == 2.0


def test_entity_replay_order_independent() -> None:
    updates = [
        ("db-01", {"status": "online"}, "a", 1.0),
        ("db-01", {"status": "offline"}, "b", 2.0),
        ("db-01", {"region": "us"}, "c", 1.5),
        ("cache-7", {"status": "warm"}, "a", 3.0),
    ]

    def final_states(order):
        es = EntityStore()
        for name, attrs, by, at in order:
            es.update(name, attrs, by=by, at=at)
        return {n: es.lookup(n).attributes for n, _, _, _ in order}

    # any interleaving preserving each entity's (at, by) order is equivalent;
    # stamps here are unique per entity so every permutation qualifies
    baseline = None
    for perm in itertools.permutations(updates):
        per_entity: dict[str, list] = {}
        ok = True
        for u in perm:
            per_entity.setdefault(u[0], []).append((u[3], u[2]))
        for stamps in per_entity.values():
            if stamps != sorted(stamps):
                ok = False
        if not ok:
            continue
        got = final_states(perm)
        if baseline is None:
            baseline = got
        assert got == baseline


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def test_manifest_membership_is_exact() -> None:
    man = Manifest(EMB, names=["Q3_Report_Archived.zip"])
    assert "Q3_Report_Archived.zip" in man
    assert "Q3_Report.csv" not in man
    assert "q3_report_archived.zip" not in man  # case matters


def test_manifest_suggest_near_name() -> None:
    man = Manifest(EMB, names=["Q3_Report_Archived.zip", "holiday_playlist.m3u"])
    assert man.suggest("Q3_Report.csv") == "Q3_Report_Archived.zip"


def test_manifest_suggest_floor() -> None:
    man = Manifest(EMB, names=["holiday_playlist.m3u"])
    assert man.suggest("Q3_Report.csv", floor=0.3) is None
