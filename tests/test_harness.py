"""Scenario configs, the episode drivers, and paired comparison runs."""

import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cogfabric
from cogfabric.fabric import DeploymentMode
from cogfabric.harness import (
    SCENARIOS,
    AgentSpec,
    CompareReport,
    ConfigError,
    FabricSettings,
    MismatchedSeedsError,
    ScenarioConfig,
    compare,
    load_config,
    run_scenario,
)

SCENARIO_DIR = Path(cogfabric.__file__).parent / "scenarios"


def cfg(name, **overrides):
    return ScenarioConfig.from_mapping({"name": name, **overrides})


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_unknown_scenario_name_lists_the_known_ones():
    with pytest.raises(ConfigError, match="bandit-5arm"):
        ScenarioConfig.from_mapping({"name": "roulette"})


def test_unknown_top_level_field_is_named():
    with pytest.raises(ConfigError, match="unknown field 'budget'"):
        cfg("bandit-5arm", budget=3)


def test_episodes_must_be_a_positive_int():
    for bad in (0, -5, "many", 2.5, True):
        with pytest.raises(ConfigError, match="episodes"):
            cfg("bandit-5arm", episodes=bad)


def test_seed_must_be_an_int():
    with pytest.raises(ConfigError, match="seed"):
        cfg("bandit-5arm", seed="zero")


def test_agent_unknown_field_is_named_with_its_index():
    agents = [{"id": "a", "skill": "s", "succes": 0.5}]
    with pytest.raises(ConfigError, match="succes"):
        cfg("bandit-5arm", agents=agents)


def test_duplicate_agent_ids_rejected():
    agents = [
        {"id": "a", "skill": "s"},
        {"id": "a", "skill": "t"},
    ]
    with pytest.raises(ConfigError, match="duplicate agent id"):
        cfg("bandit-5arm", agents=agents)


def test_agent_probabilities_are_range_checked():
    with pytest.raises(ConfigError, match="success"):
        cfg("bandit-5arm", agents=[{"id": "a", "skill": "s", "success": 1.5}])
    with pytest.raises(ConfigError, match="boosted"):
        cfg("bandit-5arm", agents=[{"id": "a", "skill": "s", "boosted": -0.1}])


def test_agent_latency_bounds_must_be_ordered():
    with pytest.raises(ConfigError, match="latency"):
        cfg("bandit-5arm", agents=[{"id": "a", "skill": "s", "latency": [2, 1]}])


def test_agent_arrival_must_be_non_negative():
    with pytest.raises(ConfigError, match="arrival"):
        cfg("bandit-5arm", agents=[{"id": "a", "skill": "s", "arrival": -1}])


def test_a_scenario_needs_an_agent_at_episode_zero():
    late = [{"id": "a", "skill": "s", "arrival": 3}]
    with pytest.raises(ConfigError, match="arrival"):
        cfg("expert-discovery", agents=late)


def test_hotpot_needs_four_agents():
    agents = [{"id": c, "skill": "s"} for c in "abc"]
    with pytest.raises(ConfigError, match="hotpot-like needs at least 4 agents"):
        cfg("hotpot-like", agents=agents)
    assert len(cfg("hotpot-like", agents=[*agents, {"id": "d", "skill": "s"}]).agents) == 4


def test_fabric_unknown_field_and_bad_mode():
    with pytest.raises(ConfigError, match="unknown field 'speed'"):
        cfg("bandit-5arm", fabric={"speed": 9})
    with pytest.raises(ConfigError, match="mode"):
        cfg("bandit-5arm", fabric={"mode": "warp"})


def test_fabric_threshold_order_enforced():
    with pytest.raises(ConfigError, match="tau_soft"):
        cfg("bandit-5arm", fabric={"tau_soft": 0.8, "tau_valid": 0.5})


def test_fabric_reward_weights_need_three_entries():
    with pytest.raises(ConfigError, match="reward_weights"):
        cfg("bandit-5arm", fabric={"reward_weights": [1.0, 0.5]})


def test_fabric_epsilon_and_nodes_ranges():
    with pytest.raises(ConfigError, match="epsilon"):
        cfg("bandit-5arm", fabric={"epsilon": 1.5})
    with pytest.raises(ConfigError, match="nodes"):
        cfg("bandit-5arm", fabric={"nodes": 0})


def test_task_template_placeholders_must_exist_in_every_pool_row():
    tasks = {
        "templates": ["Fix the {area} outage."],
        "pool": [{"area": "search"}, {"zone": "eu"}],
    }
    with pytest.raises(ConfigError, match="area"):
        cfg("entity-swarm", tasks=tasks)


def test_task_unknown_field_is_named():
    with pytest.raises(ConfigError, match="unknown field 'retries'"):
        cfg("entity-swarm", tasks={"templates": ["t"], "retries": 2})


def test_fabric_overrides_merge_over_scenario_defaults():
    c = cfg("entity-swarm", fabric={"epsilon": 0.05})
    d = cfg("entity-swarm")
    assert c.fabric.epsilon == 0.05
    assert c.fabric.tau_valid == d.fabric.tau_valid
    assert c.fabric.token_budget == d.fabric.token_budget


def test_agents_override_replaces_the_default_roster():
    c = cfg("bandit-5arm", agents=[{"id": "solo", "skill": "everything"}])
    assert [a.id for a in c.agents] == ["solo"]
    assert c.agents[0] == AgentSpec(id="solo", skill="everything")


def test_lambda_key_maps_to_loss_weight():
    c = cfg("bandit-5arm", fabric={"lambda": 0.25})
    assert c.fabric.loss_lambda == 0.25


@pytest.mark.parametrize(
    "overrides, name",
    [
        ({"agents": [{"id": "a", "skill": "s", "cost": math.inf}]}, "cost"),
        ({"agents": [{"id": "a", "skill": "s", "latency": [0, math.inf]}]}, "latency"),
        ({"fabric": {"tau_edge": True}}, "tau_edge"),
        ({"fabric": {"lambda": True}}, "lambda"),
        ({"fabric": {"epsilon_decay": True}}, "epsilon_decay"),
        ({"fabric": {"reward_weights": [1.0, math.nan, 0.0]}}, "reward_weights"),
        (
            {"tasks": {"templates": ["t"], "ontology": [["X", -math.inf, "permanent"]]}},
            "ontology",
        ),
        ({"tasks": {"templates": ["t"], "ontology": [["", 0.5, "permanent"]]}}, "ontology"),
    ],
    ids=[
        "cost-inf",
        "latency-inf",
        "tau_edge-bool",
        "lambda-bool",
        "epsilon_decay-bool",
        "reward_weights-nan",
        "validity-minus-inf",
        "empty-term",
    ],
)
def test_numbers_must_be_finite_and_not_booleans(overrides, name):
    with pytest.raises(ConfigError, match=name):
        cfg("entity-swarm", **overrides)


_IDS = st.sampled_from("abcdef")
_agent = st.fixed_dictionaries(
    {"id": _IDS, "skill": st.sampled_from(["search the docs", "fix the db", "x"])},
    optional={
        "success": st.floats(0.0, 1.0),
        "boosted": st.floats(0.0, 1.0),
        "cost": st.floats(0.0, 3.0),
        "latency": st.floats(0.0, 2.0),
        "arrival": st.integers(0, 4),
    },
)
_fabric = st.fixed_dictionaries(
    {},
    optional={
        "enabled": st.booleans(),
        "mode": st.sampled_from([m.value for m in DeploymentMode]),
        "epsilon": st.floats(0.0, 1.0),
        "tau_valid": st.floats(0.0, 1.0),
        "tau_soft": st.floats(0.0, 1.0),
        "token_budget": st.integers(0, 80),
        "retrieval_floor": st.floats(0.0, 1.0),
        "nodes": st.integers(1, 3),
    },
)
_tasks = st.fixed_dictionaries(
    {"templates": st.lists(st.sampled_from(["Check {area} now.", "Restart db-01."]), min_size=1)},
    optional={
        "pool": st.lists(
            st.fixed_dictionaries({"area": st.sampled_from(["search", "Payment-Gateway"])}),
            min_size=1,
        ),
        "memory": st.lists(st.sampled_from(["db-01 runs in eu", "search is slow"])),
        "clarify": st.just("Which {area}?"),
    },
)
_configs = st.fixed_dictionaries(
    {"name": st.sampled_from(sorted(SCENARIOS)), "episodes": st.integers(1, 6)},
    optional={
        "seed": st.integers(0, 3),
        "agents": st.lists(_agent, max_size=5),
        "edges": st.lists(st.lists(_IDS, min_size=2, max_size=2), max_size=6),
        "fabric": _fabric,
        "tasks": _tasks,
    },
)


@settings(max_examples=80, deadline=None)
@given(_configs)
def test_every_accepted_config_runs_to_a_report(data):
    try:
        config = ScenarioConfig.from_mapping(data)
    except ConfigError:
        return
    report = run_scenario(config)
    assert report.episodes == config.episodes
    json.loads(report.to_json())


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def test_load_config_accepts_paths_and_streams(tmp_path):
    text = "name: bandit-5arm\nepisodes: 50\nseed: 7\n"
    path = tmp_path / "s.yaml"
    path.write_text(text)
    from_path = load_config(str(path))
    from_stream = load_config(io.StringIO(text))
    assert from_path == from_stream
    assert from_path.episodes == 50 and from_path.seed == 7


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_has_a_packaged_file_that_loads(name):
    path = SCENARIO_DIR / f"{name.replace('-', '_')}.yaml"
    assert load_config(str(path)).name == name


def test_baseline_yaml_is_the_swarm_with_fabric_disabled():
    path = SCENARIO_DIR / "entity_swarm_baseline.yaml"
    loaded = load_config(str(path))
    assert loaded.fabric.enabled is False
    enabled = ScenarioConfig.from_mapping({"name": "entity-swarm"})
    assert loaded.agents == enabled.agents
    assert loaded.tasks == enabled.tasks


def test_non_mapping_document_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(str(path))


# ---------------------------------------------------------------------------
# Determinism and serialization
# ---------------------------------------------------------------------------

def test_repeated_runs_are_byte_identical():
    c = cfg("entity-swarm", episodes=120)
    assert run_scenario(c).to_json() == run_scenario(c).to_json()


def test_hotpot_runs_are_byte_identical():
    c = cfg("hotpot-like", episodes=15)
    assert run_scenario(c).to_json() == run_scenario(c).to_json()


def test_per_episode_records_stay_out_of_the_json():
    report = run_scenario(cfg("hotpot-like", episodes=5))
    assert report.records
    assert "records" not in report.to_dict()
    assert "records" not in report.to_json()


def test_summary_lines_carry_one_line_per_check():
    report = run_scenario(cfg("hotpot-like", episodes=5))
    lines = "\n".join(report.summary_lines())
    for name in report.checks:
        assert f"check {name}" in lines
    assert "PASS" in lines


# ---------------------------------------------------------------------------
# Count consistency
# ---------------------------------------------------------------------------

def test_interventions_sum_to_messages_total():
    report = run_scenario(cfg("entity-swarm", episodes=150))
    assert sum(report.intervention_counts.values()) == report.messages_total


def test_verdicts_cover_everything_that_reached_the_gate():
    report = run_scenario(cfg("hotpot-like", episodes=20))
    gated = report.messages_total - int(report.extras["edge_rejections"])
    assert sum(report.verdict_counts.values()) == gated
    assert sum(report.intervention_counts.values()) == report.messages_total


def test_latency_breakdown_sums_to_the_total():
    report = run_scenario(cfg("entity-swarm", episodes=80))
    parts = sum(report.latency_breakdown.values())
    assert parts == pytest.approx(report.latency_total)
    assert report.latency_mean == pytest.approx(
        report.latency_total / report.messages_total
    )


def test_delivered_plus_rejected_is_total():
    report = run_scenario(cfg("hotpot-like", episodes=12))
    assert report.delivered + report.rejected == report.messages_total


# ---------------------------------------------------------------------------
# Scenario behavior at reduced size
# ---------------------------------------------------------------------------

def test_bandit_mechanics():
    report = run_scenario(cfg("bandit-5arm", episodes=400))
    assert len(report.regret_curve) == 400
    assert all(a <= b for a, b in zip(report.regret_curve, report.regret_curve[1:]))
    assert sum(report.selection_shares.values()) == pytest.approx(1.0)
    assert report.selection_shares["arm-0"] >= 0.85
    assert report.checks["best-arm-share"] is True
    # 400 episodes is still inside the exploration phase; the flattening
    # check genuinely fails here, which is what an honest check should do.
    assert report.checks["regret-flattens"] is False


def test_expert_registration_honors_the_arrival_episode():
    report = run_scenario(cfg("expert-discovery", episodes=700))
    newcomer = [r for r in report.records if r["agent"] == "newcomer"]
    assert newcomer
    assert min(r["episode"] for r in newcomer) >= 500
    assert report.selection_shares["newcomer"] > 0.0


def test_hotpot_relay_succeeds_and_the_graph_is_enforced():
    report = run_scenario(cfg("hotpot-like", episodes=20))
    assert report.success_rate == 1.0
    assert report.extras["edge_rejections"] == 20.0
    assert report.checks == {"multi-hop-success": True, "edge-enforcement": True}
    assert report.verdict_counts["pass"] == 40


def test_swarm_context_injection_informs_every_delivery():
    report = run_scenario(cfg("entity-swarm", episodes=150))
    assert report.extras["informed_rate"] == 1.0
    assert report.checks["context-injected"] is True


def test_bandit_extras_have_no_informed_rate():
    report = run_scenario(cfg("bandit-5arm", episodes=40))
    assert "informed_rate" not in report.extras


def test_multi_node_fabric_reports_gossip_rounds():
    single = run_scenario(cfg("hotpot-like", episodes=5))
    assert single.gossip_rounds is None
    multi = run_scenario(cfg("hotpot-like", episodes=5, fabric={"nodes": 3}))
    assert multi.gossip_rounds is not None
    assert multi.gossip_rounds >= 1


def test_mean_reward_sits_inside_the_unit_interval():
    report = run_scenario(cfg("expert-discovery", episodes=200))
    assert 0.0 <= report.mean_reward <= 1.0


# ---------------------------------------------------------------------------
# Paired comparison
# ---------------------------------------------------------------------------

def test_compare_requires_equal_seeds():
    a = cfg("entity-swarm", episodes=50, seed=1)
    b = cfg("entity-swarm", episodes=50, seed=2)
    with pytest.raises(MismatchedSeedsError, match="seeds differ"):
        compare(a, b)


def test_compare_requires_the_same_task_stream():
    a = cfg("entity-swarm", episodes=50)
    b = cfg("entity-swarm", episodes=60)
    with pytest.raises(MismatchedSeedsError, match="task streams differ"):
        compare(a, b)
    with pytest.raises(MismatchedSeedsError, match="task streams differ"):
        compare(cfg("bandit-5arm", episodes=50), cfg("entity-swarm", episodes=50))


def test_fabric_beats_direct_delivery_on_the_swarm():
    base = cfg("entity-swarm", episodes=300, fabric={"enabled": False})
    cand = cfg("entity-swarm", episodes=300)
    result = compare(base, cand)
    assert result.deltas["success_rate"] >= 0.2
    assert result.deltas["messages_per_completed"] < 0.0
    assert result.candidate.success_rate > result.baseline.success_rate


def test_fabric_beats_direct_delivery_on_the_relay():
    base = cfg("hotpot-like", episodes=30, fabric={"enabled": False})
    result = compare(base, cfg("hotpot-like", episodes=30))
    assert result.deltas["success_rate"] > 0.0
    assert result.baseline.completed == 0
    assert result.baseline.messages_per_completed is None
    assert result.baseline.checks == {}
    assert result.baseline.verdict_counts == {"pass": 0, "align": 0, "reject": 0}


def test_identical_configs_compare_to_zero_deltas():
    base = cfg("entity-swarm", episodes=100, fabric={"enabled": False})
    result = compare(base, base)
    assert all(v == 0.0 for v in result.deltas.values())


def test_compare_report_serializes_both_sides():
    base = cfg("entity-swarm", episodes=60, fabric={"enabled": False})
    cand = cfg("entity-swarm", episodes=60)
    result = compare(base, cand)
    payload = json.loads(result.to_json())
    assert set(payload) == {"baseline", "candidate", "deltas"}
    assert payload["baseline"]["scenario"] == "entity-swarm"
    assert isinstance(result, CompareReport)


# ---------------------------------------------------------------------------
# Defaults sanity
# ---------------------------------------------------------------------------

def test_builtin_registry_lists_four_scenarios():
    assert set(SCENARIOS) == {
        "bandit-5arm",
        "expert-discovery",
        "hotpot-like",
        "entity-swarm",
    }
    for spec in SCENARIOS.values():
        assert spec.description


def test_default_fabric_settings_round_trip():
    fs = FabricSettings.from_mapping({})
    assert fs.enabled is True
    assert fs.mode == "sidecar"
    assert fs.nodes == 1
