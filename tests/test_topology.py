from __future__ import annotations

import random

import numpy as np
import pytest

from cogfabric.core import AgentProfile, HashingEmbedder, ZeroVectorError, cosine_similarity
from cogfabric.topology import (
    DuplicateAgentError,
    NoAgentsError,
    NoCapableAgentError,
    QualityWeights,
    RewardWeights,
    Router,
    UnknownAgentError,
)

EMB = HashingEmbedder()


def _router(**kw) -> Router:
    return Router(EMB, **kw)


def _add(router: Router, agent_id: str, skill: str, cost: float = 0.0) -> None:
    router.register_agent(AgentProfile.from_skill(EMB, agent_id, skill), cost=cost)


# ---------------------------------------------------------------------------
# Registration and state
# ---------------------------------------------------------------------------


def test_register_and_skill_index() -> None:
    r = _router()
    _add(r, "sql", "query relational databases")
    assert r.agents() == ["sql"]
    assert np.array_equal(
        r.profile("sql").skill_embedding, EMB.embed("query relational databases")
    )
    st = r.state("sql")
    assert st.mu_perf == {} and st.tau_lat == 0.0 and st.l_load == 0


def test_duplicate_registration_rejected() -> None:
    r = _router()
    _add(r, "a", "skill one")
    with pytest.raises(DuplicateAgentError):
        _add(r, "a", "skill two")


def test_unknown_agent_raises() -> None:
    r = _router()
    with pytest.raises(UnknownAgentError):
        r.state("ghost")
    with pytest.raises(UnknownAgentError):
        r.quality(EMB.embed("task"), "ghost")


# ---------------------------------------------------------------------------
# Quality score
# ---------------------------------------------------------------------------


def test_quality_of_fresh_agent_is_prior_plus_similarity() -> None:
    r = _router(
        reward_weights=RewardWeights(1.0, 0.1, 0.01),
        quality_weights=QualityWeights(sim=0.5, cost=0.05, latency=0.01, load=0.05),
    )
    _add(r, "a", "summarize quarterly reports")
    task = EMB.embed("summarize the quarterly report")
    sim = cosine_similarity(task, EMB.embed("summarize quarterly reports"))
    assert r.quality(task, "a") == pytest.approx(1.0 + 0.5 * sim)


def test_quality_penalizes_cost_latency_load() -> None:
    r = _router(quality_weights=QualityWeights(sim=0.0, cost=0.1, latency=0.2, load=0.3))
    _add(r, "a", "do work", cost=2.0)
    st = r.state("a")
    st.mu_perf[0] = 0.6
    st.tau_lat = 1.5
    st.l_load = 4
    q = r.quality(EMB.embed("some task"), "a")
    assert q == pytest.approx(0.6 - 0.1 * 2.0 - 0.2 * 1.5 - 0.3 * 4)


def test_quality_constant_cost_shift_keeps_argmax() -> None:
    rng = random.Random(0)
    r = _router(quality_weights=QualityWeights(sim=0.5, cost=0.1, latency=0.0, load=0.0))
    for i in range(6):
        _add(r, f"a{i}", f"skill area {i} handling", cost=rng.uniform(0, 3))
        r.state(f"a{i}").mu_perf[0] = rng.uniform(0, 1)
    task = EMB.embed("skill area 3 handling")
    before = r.select(task, epsilon=0.0, rng=random.Random(1))
    for i in range(6):
        r.state(f"a{i}").c_cost += 7.5  # same shift for everyone
    after = r.select(task, epsilon=0.0, rng=random.Random(1))
    assert before == after


def test_overload_flips_argmax_at_analytic_load() -> None:
    phi = QualityWeights(sim=0.0, cost=0.0, latency=0.0, load=0.05)
    r = _router(quality_weights=phi)
    _add(r, "a", "shared skill words")
    _add(r, "b", "shared skill words")
    r.state("a").mu_perf[0] = 0.9
    r.state("b").mu_perf[0] = 0.5
    task = EMB.embed("shared skill words")
    gap = r.quality(task, "a") - r.quality(task, "b")
    flip_load = int(gap / phi.load) + 1  # first integer load strictly past the gap
    r.state("a").l_load = flip_load - 1
    assert r.select(task, epsilon=0.0, rng=random.Random(0)) == "a"  # tie keeps 'a'
    r.state("a").l_load = flip_load
    assert r.select(task, epsilon=0.0, rng=random.Random(0)) == "b"


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def test_select_greedy_argmax_with_lexicographic_ties() -> None:
    r = _router(quality_weights=QualityWeights(sim=0.0, cost=0.0, latency=0.0, load=0.0))
    for aid in ["delta", "bravo", "alpha"]:
        _add(r, aid, "identical skill")
        r.state(aid).mu_perf[0] = 0.5
    task = EMB.embed("identical skill")
    assert r.select(task, epsilon=0.0, rng=random.Random(0)) == "alpha"
    r.state("delta").mu_perf[0] = 0.9
    assert r.select(task, epsilon=0.0, rng=random.Random(0)) == "delta"


def test_select_epsilon_one_is_uniform() -> None:
    # 4 agents, 10,000 fully random draws: each lands within 2500 +/- 150.
    r = _router()
    for aid in ["a", "b", "c", "d"]:
        _add(r, aid, f"skill {aid}")
    task = EMB.embed("anything at all")
    rng = random.Random(123)
    counts = {aid: 0 for aid in "abcd"}
    for _ in range(10_000):
        counts[r.select(task, epsilon=1.0, rng=rng)] += 1
    for aid, n in counts.items():
        assert abs(n - 2500) <= 150, (aid, n)


def test_select_deterministic_given_seed() -> None:
    r = _router()
    for aid in ["a", "b", "c"]:
        _add(r, aid, f"area {aid} work")
    task = EMB.embed("area b work")
    seq1 = [r.select(task, 0.3, random.Random(42)) for _ in range(1)]
    seq2 = [r.select(task, 0.3, random.Random(42)) for _ in range(1)]
    rng1, rng2 = random.Random(7), random.Random(7)
    seq1 = [r.select(task, 0.3, rng1) for _ in range(50)]
    seq2 = [r.select(task, 0.3, rng2) for _ in range(50)]
    assert seq1 == seq2


def test_select_errors() -> None:
    r = _router()
    with pytest.raises(NoAgentsError):
        r.select(EMB.embed("task"), 0.0, random.Random(0))
    _add(r, "a", "skill")
    with pytest.raises(ZeroVectorError):
        r.select(np.zeros(EMB.dim), 0.0, random.Random(0))


def test_select_among_restricts_candidates() -> None:
    r = _router()
    for aid in ["a", "b", "c"]:
        _add(r, aid, "same skill")
    task = EMB.embed("same skill")
    assert r.select(task, 0.0, random.Random(0), among=["c"]) == "c"


# ---------------------------------------------------------------------------
# Outcomes and the moving estimates
# ---------------------------------------------------------------------------


def test_reward_formula() -> None:
    w = RewardWeights(1.0, 0.1, 0.01)
    assert w.reward(True, 2.0, 5.0) == pytest.approx(0.75)
    assert w.reward(False, 0.0, 0.0) == 0.0


def test_record_outcome_ema_update() -> None:
    r = _router(reward_weights=RewardWeights(1.0, 0.1, 0.01))
    _add(r, "a", "work")
    r.state("a").mu_perf[0] = 0.5
    reward, st = r.record_outcome(
        "a", EMB.embed("task"), success=True, cost=2.0, latency=5.0
    )
    assert reward == pytest.approx(0.75)
    assert st.mu_perf[0] == pytest.approx(0.8 * 0.5 + 0.2 * 0.75)  # 0.55
    assert st.tau_lat == pytest.approx(0.2 * 5.0)


def test_record_outcome_untried_cluster_starts_from_prior() -> None:
    r = _router(reward_weights=RewardWeights(1.0, 0.0, 0.0))
    _add(r, "a", "work")
    reward, st = r.record_outcome("a", EMB.embed("task"), success=False)
    # prior is w1=1.0, one failure moves it to 0.8
    assert st.mu_perf[0] == pytest.approx(0.8)


def test_load_conservation() -> None:
    r = _router()
    for aid in ["a", "b"]:
        _add(r, aid, "same skill text")
    task = EMB.embed("same skill text")
    rng = random.Random(9)
    outstanding: list[str] = []
    increments = decrements = 0
    for _ in range(300):
        roll = rng.random()
        if roll < 0.5 or not outstanding:
            outstanding.append(r.dispatch(task, 0.5, rng))
            increments += 1
        elif roll < 0.8:
            aid = outstanding.pop(rng.randrange(len(outstanding)))
            r.record_outcome(aid, task, success=rng.random() < 0.5)
            decrements += 1
        else:
            aid = outstanding.pop(rng.randrange(len(outstanding)))
            r.release(aid)
            decrements += 1
    total_load = sum(r.state(aid).l_load for aid in ["a", "b"])
    assert total_load == increments - decrements == len(outstanding)


def test_load_never_negative() -> None:
    r = _router()
    _add(r, "a", "work")
    r.record_outcome("a", EMB.embed("task"), success=True)
    r.release("a")
    assert r.state("a").l_load == 0


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


def test_chain_single_agent_when_coverage_high() -> None:
    r = _router()
    _add(r, "writer", "write clear summaries prose")
    _add(r, "researcher", "research topics gather sources evidence")
    text = "write clear summaries"
    sim = cosine_similarity(EMB.embed(text), EMB.embed("write clear summaries prose"))
    assert sim >= 0.6  # fixture sanity: single-agent coverage applies
    assert r.synthesize_chain(text, coverage_threshold=0.6) == ["writer"]


def test_chain_splits_and_orders_agents() -> None:
    r = _router()
    _add(r, "writer", "write clear summaries prose")
    _add(r, "researcher", "research topics gather sources evidence")
    text = "research the topic thoroughly then write a summary"
    # oracle: compute each sub-task's argmax by hand
    subs = ["research the topic thoroughly", "write a summary"]
    expected = []
    for sub in subs:
        sims = {
            aid: cosine_similarity(EMB.embed(sub), r.profile(aid).skill_embedding)
            for aid in r.agents()
        }
        expected.append(max(sorted(sims), key=lambda a: sims[a]))
    assert expected == ["researcher", "writer"]
    whole_best = max(
        cosine_similarity(EMB.embed(text), r.profile(a).skill_embedding) for a in r.agents()
    )
    assert whole_best < 0.6  # fixture sanity: no single agent covers it
    assert r.synthesize_chain(text, coverage_threshold=0.6) == ["researcher", "writer"]


def test_chain_deduplicates_in_order() -> None:
    r = _router()
    _add(r, "writer", "write clear summaries prose")
    chain = r.synthesize_chain(
        "write the intro; write the body; write the ending", coverage_threshold=2.0
    )
    assert chain == ["writer"]


def test_chain_no_capable_agent() -> None:
    r = _router()
    _add(r, "writer", "write clear summaries prose")
    text = "qqqrzx vvbnm zzkkk"
    top = max(
        cosine_similarity(EMB.embed(p), r.profile("writer").skill_embedding)
        for p in [text]
    )
    with pytest.raises(NoCapableAgentError):
        r.synthesize_chain(text, coverage_threshold=2.0, floor=top + 0.01)


def test_chain_no_agents() -> None:
    r = _router()
    with pytest.raises(NoAgentsError):
        r.synthesize_chain("anything")


# ---------------------------------------------------------------------------
# Bandit behavior (small-scale mirror of the acceptance rollouts)
# ---------------------------------------------------------------------------


def test_bandit_converges_to_best_arm_small() -> None:
    probs = {"a0": 0.9, "a1": 0.4, "a2": 0.2}
    r = _router(
        reward_weights=RewardWeights(1.0, 0.0, 0.0),
        quality_weights=QualityWeights(sim=0.0, cost=0.0, latency=0.0, load=0.0),
    )
    for aid in probs:
        _add(r, aid, "identical skill text")
    task = EMB.embed("identical skill text")
    rng = random.Random(77)
    eps = 0.1
    picks_last = 0
    for ep in range(800):
        aid = r.dispatch(task, eps, rng)
        success = rng.random() < probs[aid]
        r.record_outcome(aid, task, success=success)
        if ep >= 600 and aid == "a0":
            picks_last += 1
        eps *= 0.995
    assert picks_last / 200 >= 0.8
