"""The matrix-product similarity core against a scalar reference.

Every store shortlists by one matrix product and rescores the shortlist with
``cosine_similarity``. The functions below restate the one-row-at-a-time
formulas and tie-break rules the stores follow, so ids and scores must come
out equal, not merely close. Stores are generated from a vocabulary of six
to ten words, so exact ties, duplicate texts and zero vectors are common.
"""

from __future__ import annotations

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogfabric.core import SCAN_ROWS, AgentProfile, HashingEmbedder
from cogfabric.fabric import FabricNode, run_gossip
from cogfabric.grounding import Ontology
from cogfabric.memory import Manifest, MemoryRecord, MemoryStore
from cogfabric.topology import NoCapableAgentError, Router, _split_subtasks

EMB = HashingEmbedder()
WORDS = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta", "zeta", "rho"]
SETTINGS = settings(max_examples=120, deadline=None)


# ---------------------------------------------------------------------------
# Scalar reference
# ---------------------------------------------------------------------------

def ref_cosine(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def ref_retrieve(ledger: dict, query, k: int, floor: float) -> list[tuple[str, float]]:
    rows = []
    for rid, (vec, importance, created_at) in ledger.items():
        if not vec.any():
            continue
        s = ref_cosine(query, vec) * (1.0 + importance)
        if s >= floor:
            rows.append((rid, s, created_at))
    rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
    return [(rid, s) for rid, s, _ in rows[:k]]


def ref_score(onto: Ontology, entities: list[str]):
    if not entities:
        return 1.0, {}
    details, total = {}, 0.0
    for ent in entities:
        vec = EMB.embed_name(ent)
        best, best_term = 0.0, None
        if vec.any():
            for name in onto.terms():
                emb = EMB.embed_name(name)
                if not emb.any():
                    continue
                s = ref_cosine(vec, emb) * onto.term(name).validity
                if s > best:
                    best, best_term = s, name
        details[ent] = (best, best_term)
        total += best
    return total / len(entities), details


def ref_suggest(members: list[str], name: str, floor: float) -> str | None:
    probe = EMB.embed_name(name)
    if not probe.any():
        return None
    best_name, best_sim = None, floor
    for member in sorted(members):
        vec = EMB.embed_name(member)
        if not vec.any():
            continue
        sim = ref_cosine(probe, vec)
        if sim > best_sim or (sim == best_sim and best_name is None):
            best_name, best_sim = member, sim
    return best_name


def ref_quality(router: Router, task, agent_id: str) -> float:
    w = router.quality_weights
    state = router.state(agent_id)
    skill = EMB.embed(router.profile(agent_id).skill_text)
    sim = ref_cosine(task, skill) if skill.any() else 0.0
    return (
        state.mu_perf.get(0, router.reward_weights.w1)
        + w.sim * sim
        - w.cost * state.c_cost
        - w.latency * state.tau_lat
        - w.load * state.l_load
    )


def ref_select(router: Router, task, among: list[str]) -> tuple[str, float]:
    best_id, best_q = None, None
    for aid in sorted(among):
        q = ref_quality(router, task, aid)
        if best_q is None or q > best_q:
            best_id, best_q = aid, q
    return best_id, best_q


def ref_chain(router: Router, text: str, coverage: float = 0.6, floor: float = 0.05):
    def best_for(vec):
        top_id, top_sim = None, float("-inf")
        for aid in router.agents():
            skill = EMB.embed(router.profile(aid).skill_text)
            if not skill.any():
                continue
            sim = ref_cosine(vec, skill)
            if sim > top_sim:
                top_id, top_sim = aid, sim
        return top_id, top_sim

    single, single_sim = best_for(EMB.embed(text))
    if single is not None and single_sim >= coverage:
        return [single]
    chain, assigned = [], False
    for sub in _split_subtasks(text):
        vec = EMB.embed(sub)
        if not vec.any():
            continue
        aid, sim = best_for(vec)
        if aid is None or sim < floor:
            continue
        assigned = True
        if aid not in chain:
            chain.append(aid)
    return chain if assigned else None


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@st.composite
def vocab(draw) -> list[str]:
    return WORDS[: draw(st.integers(6, 10))]


def text_of(draw, words: list[str], min_size: int = 0) -> str:
    return " ".join(draw(st.lists(st.sampled_from(words), min_size=min_size, max_size=4)))


def name_of(draw, words: list[str]) -> str:
    """An identifier-like name; "--" has no name parts, so a zero vector."""
    parts = draw(st.lists(st.sampled_from(words), min_size=0, max_size=3))
    return "-".join(p.title() for p in parts) or "--"


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------

@st.composite
def memory_case(draw):
    words = draw(vocab())
    store = MemoryStore(EMB)
    ledger: dict[str, tuple[np.ndarray, float, float]] = {}
    meta: dict[str, tuple[float, float | None]] = {}
    for step in range(draw(st.integers(0, 40))):
        op = draw(st.sampled_from(["add", "add", "add", "store", "prune"]))
        created = float(draw(st.integers(0, 5)))
        ttl = draw(st.sampled_from([None, None, 1.0, 3.0]))
        importance = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]))
        if op == "prune":
            now = float(draw(st.integers(0, 8)))
            store.prune(now)
            for rid in [r for r, (c, t) in meta.items() if t is not None and c + t <= now]:
                del ledger[rid], meta[rid]
        elif op == "add":
            rid = draw(st.sampled_from([None, "r0", "r1", "r2", "r3"]))
            if rid in ledger:
                continue
            text = text_of(draw, words)
            rec = store.add(text, created_at=created, ttl=ttl, importance=importance, record_id=rid)
            ledger[rec.id] = (EMB.embed(text), importance, created)
            meta[rec.id] = (created, ttl)
        else:
            kind = draw(st.sampled_from(["scaled", "signed"]))
            if kind == "scaled":
                vec = EMB.embed(text_of(draw, words)) * draw(st.sampled_from([0.5, 3.0, 7.25]))
            else:
                vec = np.zeros(EMB.dim)
                for i in draw(st.lists(st.integers(0, 7), max_size=4)):
                    vec[i] += draw(st.sampled_from([-2.0, -1.0, 1.0, 2.0]))
            rid = f"s{step}"
            store.store(MemoryRecord(id=rid, text="", vector=vec.copy(), created_at=created,
                                     ttl=ttl, importance=importance))
            ledger[rid] = (vec, importance, created)
            meta[rid] = (created, ttl)
    if draw(st.booleans()):
        query = EMB.embed(text_of(draw, words, min_size=1))
    else:
        query = np.zeros(EMB.dim)
        query[draw(st.integers(0, 7))] = draw(st.sampled_from([-1.0, 2.0]))
    k = draw(st.integers(1, len(ledger) + 2))
    scores = [s for _, s in ref_retrieve(ledger, query, len(ledger), float("-inf"))]
    floor = draw(st.sampled_from([float("-inf"), 0.0, 0.25] + scores))
    return store, ledger, query, k, floor


@SETTINGS
@given(memory_case())
def test_retrieve_equals_the_scalar_scan(case):
    store, ledger, query, k, floor = case
    got = [(rec.id, s) for rec, s in store.retrieve(query, k, floor)]
    assert got == ref_retrieve(ledger, query, k, floor)
    assert len(store) == len(ledger)
    for rid, (vec, _, _) in ledger.items():
        assert np.array_equal(store.get(rid).vector, vec)


def test_identical_content_gets_identical_scores():
    # many copies of a few texts: each copy must score exactly like its twins
    rng = Random(3)
    store = MemoryStore(EMB)
    texts = ["alpha beta", "alpha beta gamma delta", "beta beta omega"]
    for i in range(120):
        store.add(rng.choice(texts), importance=0.5, created_at=float(i))
    query = EMB.embed("alpha beta omega")
    by_text: dict[str, set[float]] = {}
    for rec, s in store.retrieve(query, k=len(store)):
        by_text.setdefault(rec.text, set()).add(s)
    assert len(by_text) == 3
    assert all(len(scores) == 1 for scores in by_text.values())
    # a top 5 cut inside one group of twins goes to the newest five
    score_of = {text: next(iter(scores)) for text, scores in by_text.items()}
    best = max(score_of, key=score_of.get)
    newest = sorted((r for r in store.records() if r.text == best), key=lambda r: -r.created_at)
    assert [r for r, _ in store.retrieve(query, k=5)] == newest[:5]


# ---------------------------------------------------------------------------
# Grounding score
# ---------------------------------------------------------------------------

@st.composite
def ontology_case(draw):
    words = draw(vocab())
    onto = Ontology(EMB)
    for _ in range(draw(st.integers(0, 24))):
        onto.add_term(name_of(draw, words), validity=draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0])))
        if onto.terms() and draw(st.booleans()):
            onto.score([name_of(draw, words)])  # builds the cached matrix mid-way
    if onto.terms():
        episodes = draw(st.lists(st.tuples(st.lists(st.sampled_from(onto.terms()), max_size=3), st.booleans()), max_size=4))
        onto.update(episodes)
    known = ["__", "Zork-Unknown", "Alpha"] + onto.terms()  # "__" embeds to zero
    entities = draw(st.lists(st.sampled_from(known), max_size=4))
    entities += [name_of(draw, words) for _ in range(draw(st.integers(0, 3)))]
    return onto, entities


@SETTINGS
@given(ontology_case())
def test_score_equals_the_scalar_scan(case):
    onto, entities = case
    g, details = onto.score(entities)
    ref_g, ref_details = ref_score(onto, entities)
    assert g == ref_g
    assert {e: (d.score, d.term) for e, d in details.items()} == ref_details


# ---------------------------------------------------------------------------
# Manifest suggestions
# ---------------------------------------------------------------------------

@st.composite
def manifest_case(draw):
    words = draw(vocab())
    members = [
        "_".join(draw(st.lists(st.sampled_from(words), min_size=0, max_size=3))) + draw(st.sampled_from([".csv", ".log", ""]))
        for _ in range(draw(st.integers(0, 24)))
    ]
    manifest = Manifest(EMB, members)
    for late in draw(st.lists(st.sampled_from(words), max_size=3)):
        manifest.suggest("alpha")  # builds the cached matrix before the add
        manifest.add(late + ".log")
    name = "_".join(draw(st.lists(st.sampled_from(words + ["zork"]), max_size=3))) + ".csv"
    sims = [ref_cosine(EMB.embed_name(name), EMB.embed_name(m))
            for m in manifest.names if EMB.embed_name(m).any() and EMB.embed_name(name).any()]
    floor = draw(st.sampled_from([0.3, 0.0, 1.0] + sims))
    return manifest, name, floor


@SETTINGS
@given(manifest_case())
def test_suggest_equals_the_scalar_scan(case):
    manifest, name, floor = case
    assert manifest.suggest(name, floor=floor) == ref_suggest(manifest.names, name, floor)


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

@st.composite
def router_case(draw):
    words = draw(vocab())
    router = Router(EMB)
    n = draw(st.integers(1, 24))
    for i in range(n):
        router.register_agent(
            AgentProfile.from_skill(EMB, f"a{i:02d}", text_of(draw, words)),
            cost=draw(st.sampled_from([0.0, 0.0, 0.5])),
            initial_load=draw(st.integers(0, 2)),
        )
        state = router.state(f"a{i:02d}")
        if draw(st.booleans()):
            state.mu_perf[0] = draw(st.sampled_from([0.2, 0.5, 0.9]))
        state.tau_lat = draw(st.sampled_from([0.0, 0.0, 1.5]))
    among = draw(st.one_of(st.none(), st.lists(st.sampled_from(router.agents()), min_size=1, unique=True)))
    task = EMB.embed(text_of(draw, words, min_size=1))
    subtasks = [text_of(draw, words) for _ in range(draw(st.integers(1, 3)))]
    return router, task, among, "; then ".join(subtasks)


@SETTINGS
@given(router_case())
def test_select_equals_the_scalar_scan(case):
    router, task, among, chain_text = case
    chosen = router.select(task, 0.0, Random(0), among=among)
    expected, best_q = ref_select(router, task, among if among is not None else router.agents())
    assert chosen == expected
    assert router.quality(task, chosen) == best_q
    if EMB.embed(chain_text).any():
        try:
            chain = router.synthesize_chain(chain_text)
        except NoCapableAgentError:
            chain = None
        assert chain == ref_chain(router, chain_text)


# ---------------------------------------------------------------------------
# State changes reach the cached matrices
# ---------------------------------------------------------------------------

def _many_terms(onto: Ontology) -> None:
    for i in range(SCAN_ROWS + 4):
        onto.add_term(f"Filler-{i}", validity=0.5)


def test_update_then_score_sees_the_new_validity():
    onto = Ontology(EMB)
    _many_terms(onto)
    onto.add_term("Payment-Gateway", validity=0.5)
    before = onto.score(["Payment-Gateway"])[1]["Payment-Gateway"].score
    onto.update([(["Payment-Gateway"], True)])
    after = onto.score(["Payment-Gateway"])[1]["Payment-Gateway"]
    assert before == pytest.approx(0.5)
    assert after.term == "Payment-Gateway" and after.score == pytest.approx(0.6)


def test_add_term_on_an_existing_term_replaces_its_row():
    onto = Ontology(EMB)
    _many_terms(onto)
    onto.add_term("Payment-Gateway", validity=0.9)
    assert onto.score(["Payment-Gateway"])[0] == pytest.approx(0.9)
    replaced = onto.add_term("Payment-Gateway", validity=0.2)  # the gossip overwrite path
    g, details = onto.score(["Payment-Gateway"])
    assert g == pytest.approx(0.2) and details["Payment-Gateway"].term == "Payment-Gateway"
    assert onto.term("Payment-Gateway") is replaced
    assert np.array_equal(replaced.embedding, EMB.embed_name("Payment-Gateway"))


def test_a_gossiped_capability_state_changes_the_next_select():
    nodes = [FabricNode(f"n{i}", embedder=EMB) for i in range(2)]
    for node in nodes:
        for i in range(SCAN_ROWS + 4):
            node.router.register_agent(AgentProfile.from_skill(EMB, f"a{i:02d}", "general work"))
    task = EMB.embed("general work")
    assert nodes[0].router.select(task, 0.0, Random(0)) == "a00"  # all tie: smallest id
    nodes[1].router.state("a07").mu_perf = {0: 0.2}
    for i in range(SCAN_ROWS + 4):
        if i != 7:
            nodes[1].router.state(f"a{i:02d}").mu_perf = {0: 0.1}
        nodes[1].publish_capability(f"a{i:02d}", tick=1)
    run_gossip(nodes, Random(0), beta=1)
    assert nodes[0].router.select(task, 0.0, Random(0)) == "a07"


def test_record_vector_is_a_read_only_copy_of_its_embedding():
    store = MemoryStore(EMB)
    rec = store.add("Payment-Gateway returned 503 at 09:15")
    assert np.array_equal(rec.vector, EMB.embed(rec.text))
    with pytest.raises(ValueError):
        rec.vector[0] = 1.0
    own = MemoryRecord(id="x", text="", vector=np.ones(EMB.dim))
    store.store(own)
    assert np.array_equal(own.vector, np.ones(EMB.dim)) and not own.vector.flags.writeable


def test_a_pruned_record_reads_correctly_after_later_adds():
    store = MemoryStore(EMB)
    doomed = store.add("expires soon alpha", created_at=0.0, ttl=1.0)
    for i in range(5):
        store.add(f"early filler {i}")
    assert store.prune(now=5.0) == 1 and store.get(doomed.id) is None
    for i in range(600):  # crosses several row blocks
        store.add(f"later record {i} beta")
    assert np.array_equal(doomed.vector, EMB.embed("expires soon alpha"))
    hits = store.retrieve(EMB.embed("expires soon alpha"), k=3)
    assert doomed.id not in [rec.id for rec, _ in hits]
    # re-adding the pruned id (no index) gets a fresh row
    again = store.add("expires soon alpha", record_id=doomed.id)
    assert store.retrieve(EMB.embed("expires soon alpha"), k=1)[0][0] is again
