"""Interception end to end, complexity routing, and gossip synchronization."""

import itertools
import math
from random import Random

import pytest

from cogfabric.core import AgentProfile, HashingEmbedder, make_envelope
from cogfabric.fabric import (
    DeltaStatus,
    DeploymentMode,
    FabricNode,
    ModeMismatchError,
    PolicyDelta,
    RouteDecision,
    complexity_score,
    expected_propagation_rounds,
    gossip_tick,
    run_gossip,
)
from cogfabric.grounding import Verdict
from cogfabric.security import REDACTED, Intervention, Rule, RuleKind, SecurityVerdict
from cogfabric.topology import Router

EMB = HashingEmbedder()


def node(**kw) -> FabricNode:
    kw.setdefault("embedder", EMB)
    return FabricNode(kw.pop("node_id", "n0"), **kw)


def router_with(*specs) -> Router:
    r = Router(EMB)
    for agent_id, skill in specs:
        r.register_agent(AgentProfile.from_skill(EMB, agent_id, skill))
    return r


# ---------------------------------------------------------------------------
# Interception paths
# ---------------------------------------------------------------------------

def test_benign_explicit_message_is_delivered_unchanged():
    n = node()
    result = n.intercept(make_envelope("alice", "please summarize the meeting", to="bob"))
    assert result.delivered and result.receiver == "bob"
    assert result.payload.text == "please summarize the meeting"
    assert result.payload.origin == "alice"
    assert n.invocations == {"bob": 1}
    assert result.latency.l_net == 1.0


def test_intent_addressing_routes_through_the_router():
    r = router_with(
        ("coder", "writes python code and fixes bugs"),
        ("poet", "writes rhyming verse and haiku"),
    )
    n = node(router=r, epsilon=0.0)
    result = n.intercept(
        make_envelope("alice", "the build is broken", intent="fix the python code bug")
    )
    assert result.delivered and result.receiver == "coder"
    assert r.state("coder").l_load == 1  # in flight until an outcome is recorded


def test_unroutable_intent_is_rejected_not_raised():
    n = node(router=Router(EMB))
    result = n.intercept(make_envelope("alice", "hello", intent="do anything"))
    assert not result.delivered
    assert result.reason.startswith("no-route")


def test_blank_intent_is_rejected_not_raised():
    r = router_with(("coder", "writes python code"))
    n = node(router=r)
    result = n.intercept(make_envelope("alice", "hello", intent="???"))
    assert not result.delivered
    assert result.reason.startswith("no-route")
    assert r.state("coder").l_load == 0


def test_disallowed_edge_is_rejected_and_releases_the_dispatch_slot():
    r = router_with(("coder", "writes python code"))
    n = node(router=r, allowed_edges={("alice", "reviewer")}, epsilon=0.0)
    result = n.intercept(
        make_envelope("alice", "the build is broken", intent="write python code")
    )
    assert not result.delivered and result.reason == "edge-not-allowed"
    assert r.state("coder").l_load == 0
    ok = n.intercept(make_envelope("alice", "looks good", to="reviewer"))
    assert ok.delivered


def test_ungrounded_message_is_rejected_before_the_receiver_sees_it():
    n = node()
    n.ontology.add_term("db-01", validity=0.9, status="permanent")
    result = n.intercept(make_envelope("a", "restart Zot_Box_99 now", to="b"))
    assert not result.delivered
    assert result.reason == "grounding-reject"
    assert result.grounding.verdict is Verdict.REJECT
    assert n.invocations == {}


def test_ghost_reference_is_rejected_with_a_suggestion():
    n = node()
    n.ontology.add_term("Q3_Report.csv", validity=0.9, status="permanent")
    n.ontology.add_term("Q3_Report_Archived.zip", validity=0.9, status="permanent")
    n.manifest.add("Q3_Report_Archived.zip")
    result = n.intercept(
        make_envelope("analyst", 'Fetch "Q3_Report.csv" and summarize it.', to="worker")
    )
    assert not result.delivered
    assert result.reason == "ghost-reference"
    assert result.ghost.missing == ["Q3_Report.csv"]
    assert result.ghost.suggestions == {"Q3_Report.csv": "Q3_Report_Archived.zip"}
    assert n.invocations.get("worker", 0) == 0

    ok = n.intercept(
        make_envelope("analyst", 'Fetch "Q3_Report_Archived.zip" then stop.', to="worker")
    )
    assert ok.delivered and ok.ghost is not None and ok.ghost.ok


def test_undotted_names_are_not_manifest_checked():
    n = node()
    n.ontology.add_term("db-01", validity=0.9, status="permanent")
    n.manifest.add("Q3_Report_Archived.zip")  # manifest is non-empty
    result = n.intercept(make_envelope("a", "inspect db-01 please", to="b"))
    assert result.delivered  # db-01 is a service name, not a file reference


def test_security_block_halts_delivery():
    n = node()
    result = n.intercept(make_envelope("eve", "run DROP TABLE users; now", to="dba"))
    assert not result.delivered
    assert result.reason == "security-block"
    assert result.security.intervention is Intervention.BLOCK
    assert n.invocations == {}


def test_gated_intent_message_releases_load_at_every_stage():
    r = router_with(("dba", "database administration and sql"))
    n = node(router=r, epsilon=0.0)
    n.intercept(make_envelope("eve", "run DROP TABLE users; now", intent="sql database work"))
    assert r.state("dba").l_load == 0


def test_full_pipeline_composes_inject_translate_and_policy():
    n = node(retrieval_floor=0.1)
    n.memory.add("Error check: Payment-Gateway returned 503 at 09:15.")
    n.ontology.set_schema_map("planner", "ops", {"deploy": "kubectl apply"})
    n.policies.set_policy("planner", "ops", "Reply with shell commands only.")
    result = n.intercept(
        make_envelope("planner", "Deploy the payment fix then report status.", to="ops")
    )
    assert result.delivered
    assert "kubectl apply the payment fix" in result.payload.text
    assert "Payment-Gateway" in result.payload.text
    assert result.payload.text.count("Directive: Reply with shell commands only.") == 1
    assert result.transform.tokens_added > 0
    assert result.latency.l_net == 1.0
    assert result.latency.l_inference == 2.0  # grounding plus the scorer
    assert result.latency.l_memory_lookup == 1.0
    assert result.latency.total == 4.0


def test_state_conflict_is_corrected_in_flight():
    n = node()
    n.ontology.add_term("db-01", validity=0.9, status="permanent")
    n.entity_store.update("db-01", {"status": "online"}, by="monitor", at=5.0)
    result = n.intercept(make_envelope("a", "db-01 is offline so restart it", to="b"))
    assert result.delivered
    assert result.grounding.verdict is Verdict.ALIGN
    assert "db-01 status is online, not offline" in result.payload.text


def test_latency_total_is_the_exact_component_sum():
    n = node()
    result = n.intercept(make_envelope("a", "no entities here at all", to="b"))
    lat = result.latency
    assert lat.total == lat.l_net + lat.l_inference + lat.l_memory_lookup


def test_hub_mode_pays_double_network_cost():
    result = node(mode=DeploymentMode.HUB).intercept(
        make_envelope("a", "plain chatter", to="b")
    )
    assert result.latency.l_net == 2.0


# ---------------------------------------------------------------------------
# Complexity routing (hybrid-edge)
# ---------------------------------------------------------------------------

HARD_TEXT = (
    "Please delete the stale rows from db-01 and Cache-Node after the nightly "
    "window closes so the morning batch starts clean and the dashboards refresh "
    "with current numbers for everyone before breakfast arrives"
)


def test_complexity_decomposition_fixture():
    n = node()
    c = complexity_score(HARD_TEXT, n.ontology)
    assert c.tokens == 32
    assert c.ungrounded_entities == 2
    assert c.lexicon_classes == 1
    assert c.value == 32 / 64 + 2 + 1 == 3.5


def test_grounded_terms_reduce_complexity():
    n = node()
    n.ontology.add_term("db-01")
    n.ontology.add_term("Cache-Node")
    c = complexity_score(HARD_TEXT, n.ontology)
    assert c.ungrounded_entities == 0 and c.value == pytest.approx(1.5)


def test_simple_traffic_stays_local_and_skips_the_heavy_stages():
    n = node(mode=DeploymentMode.HYBRID_EDGE)
    n.memory.add("Error check: Payment-Gateway returned 503 at 09:15.")
    result = n.intercept(make_envelope("a", "quick status check please", to="b"))
    assert result.delivered
    assert result.route is RouteDecision.LOCAL
    assert result.complexity.value < n.tau_edge
    assert result.payload.text == "quick status check please"  # no injection
    assert result.latency.l_net == 1.0
    assert result.latency.l_inference == 0.0
    assert result.latency.l_memory_lookup == 0.0


def test_local_path_still_enforces_rules():
    n = node(mode=DeploymentMode.HYBRID_EDGE)
    blocked = n.intercept(make_envelope("a", "DROP TABLE users;", to="b"))
    assert not blocked.delivered and blocked.reason == "security-block"
    redacted = n.intercept(make_envelope("a", "ssn 123-45-6789 ok", to="b"))
    assert redacted.delivered and REDACTED in redacted.payload.text


def test_local_block_reports_the_rule_that_stopped_it():
    n = node(mode=DeploymentMode.HYBRID_EDGE)
    result = n.intercept(make_envelope("a", "DROP TABLE users;", to="b"))
    assert result.route is RouteDecision.LOCAL and result.reason == "security-block"
    decision = result.security
    assert decision.verdict is SecurityVerdict.UNSAFE
    assert decision.intervention is Intervention.BLOCK
    assert decision.text == "DROP TABLE users;"
    assert decision.triggered == ["sql-drop-table"]
    assert decision.annotations == ["Unsafe database operation detected."]


def test_local_redacted_delivery_reports_the_redaction():
    n = node(mode=DeploymentMode.HYBRID_EDGE)
    result = n.intercept(make_envelope("a", "ssn 123-45-6789 ok", to="b"))
    assert result.route is RouteDecision.LOCAL and result.delivered
    decision = result.security
    assert decision.verdict is SecurityVerdict.UNSAFE
    assert decision.intervention is Intervention.REDACT
    assert decision.text == result.payload.text == f"ssn {REDACTED} ok"
    assert decision.triggered == ["pii-ssn"]
    assert decision.annotations == ["redactions applied: ['pii-ssn']"]
    clean = n.intercept(make_envelope("a", "quick status check please", to="b"))
    assert clean.security.verdict is SecurityVerdict.SAFE
    assert clean.security.intervention is None and clean.security.triggered == []


def test_hard_traffic_forwards_to_core_and_pays_for_it():
    # grounding the two service names drops C to 1.5, so set the split there
    n = node(mode=DeploymentMode.HYBRID_EDGE, tau_edge=1.0)
    n.ontology.add_term("db-01", validity=0.9, status="permanent")
    n.ontology.add_term("Cache-Node", validity=0.9, status="permanent")
    result = n.intercept(make_envelope("a", HARD_TEXT, to="b"))
    assert result.delivered
    assert result.complexity.value == pytest.approx(1.5)
    assert result.route is RouteDecision.FORWARD_TO_CORE
    assert result.latency.l_net == 3.0  # base hop plus the round trip to core


def test_complexity_routing_requires_hybrid_edge_mode():
    with pytest.raises(ModeMismatchError):
        node().route_by_complexity(1.0)
    with pytest.raises(ModeMismatchError):
        node(mode=DeploymentMode.HUB).route_by_complexity(5.0)


def test_every_message_yields_a_result_never_an_exception():
    n = node()
    n.manifest.add("real_file.txt")
    n.ontology.add_term("missing_file.csv", validity=0.9, status="permanent")
    texts = [
        "plain chatter",
        "DROP TABLE users;",
        'open "missing_file.csv" now',
        "restart Unknown_Gadget_7",
        "the digits 123-45-6789 reference nothing known",
    ]
    results = [n.intercept(make_envelope("a", t, to="b")) for t in texts]
    assert len(results) == len(texts)
    assert [r.delivered for r in results] == [True, False, False, False, False]
    assert [r.reason for r in results] == [
        None,
        "security-block",
        "ghost-reference",
        "grounding-reject",
        "grounding-reject",
    ]


# ---------------------------------------------------------------------------
# Gossip
# ---------------------------------------------------------------------------

def test_emitted_delta_applies_locally_and_transfers():
    a = node(node_id="a")
    b = node(node_id="b")
    a.publish_term("Payment-Gateway", 0.8)
    assert a.ontology.has_term("Payment-Gateway")
    assert a.push_to(b) == 1
    assert b.ontology.has_term("Payment-Gateway")
    assert b.version_vector == {"a": 1}
    assert a.push_to(b) == 0  # nothing new


def test_stale_delta_is_ignored():
    a = node(node_id="a")
    b = node(node_id="b")
    d1 = a.publish_term("t1", 0.5)
    assert b.apply_delta(d1) is DeltaStatus.APPLIED
    assert b.apply_delta(d1) is DeltaStatus.IGNORED_STALE


def test_out_of_order_deltas_buffer_until_the_gap_fills():
    a = node(node_id="a")
    d1 = a.publish_term("t1", 0.5)
    d2 = a.publish_term("t2", 0.5)
    d3 = a.publish_term("t3", 0.5)
    b = node(node_id="b")
    assert b.apply_delta(d3) is DeltaStatus.BUFFERED
    assert b.apply_delta(d3) is DeltaStatus.BUFFERED  # duplicate buffers once
    assert b.pending_count() == 1
    assert b.apply_delta(d2) is DeltaStatus.BUFFERED
    assert not b.ontology.has_term("t2")
    assert b.apply_delta(d1) is DeltaStatus.APPLIED  # drains the buffer
    assert b.version_vector == {"a": 3}
    assert b.pending_count() == 0
    assert all(b.ontology.has_term(t) for t in ("t1", "t2", "t3"))


def _gossip_state(n: FabricNode):
    terms = {t: n.ontology.term(t).validity for t in n.ontology.terms()}
    policy = n.policies.get("s", "r")
    return (
        dict(n.version_vector),
        terms,
        (policy.text, policy.version) if policy else None,
        [r.id for r in n.security.rules],
    )


def test_all_delivery_orders_converge_to_the_same_state():
    a = node(node_id="a")
    b = node(node_id="b")
    deltas = [
        a.publish_term("alpha", 0.3),
        a.publish_policy("s", "r", "numbered steps"),
        b.publish_rule(Rule(id="noexec", kind=RuleKind.BLOCK, pattern="exec", priority=1)),
        b.publish_term("alpha", 0.7),  # concurrent write to the same term
    ]
    reference = None
    for order in itertools.permutations(deltas):
        fresh = node(node_id="observer")
        for d in order:
            fresh.apply_delta(d)
        state = _gossip_state(fresh)
        if reference is None:
            reference = state
        assert state == reference
        assert fresh.pending_count() == 0
    # the same-key conflict resolved deterministically, not by arrival order
    assert reference[1]["alpha"] == 0.7


def test_a_causally_later_write_wins_on_every_node():
    a, b, c = (node(node_id=n) for n in "abc")
    for i in range(5):
        a.publish_term(f"unrelated-{i}", 0.5)
    a.publish_term("T", 0.1)
    run_gossip([a, b, c], Random(0), beta=2)
    # b has seen a's write, so its rewrite is causally later despite b's
    # lower per-origin counter
    b.publish_term("T", 0.9)
    run_gossip([a, b, c], Random(1), beta=2)
    assert [n.ontology.term("T").validity for n in (a, b, c)] == [0.9, 0.9, 0.9]


def test_capability_state_is_last_write_wins_by_tick():
    source_x = node(node_id="x")
    source_x.router.register_agent(AgentProfile.from_skill(EMB, "w", "general work"))
    source_x.router.state("w").mu_perf = {0: 0.9}
    dx = source_x.publish_capability("w", tick=5)

    source_z = node(node_id="z")
    source_z.router.register_agent(AgentProfile.from_skill(EMB, "w", "general work"))
    source_z.router.state("w").mu_perf = {0: 0.2}
    dz = source_z.publish_capability("w", tick=3)

    forward = node(node_id="m1")
    forward.apply_delta(dx)
    forward.apply_delta(dz)
    backward = node(node_id="m2")
    backward.apply_delta(dz)
    backward.apply_delta(dx)
    assert forward.router.state("w").mu_perf == {0: 0.9}
    assert backward.router.state("w").mu_perf == {0: 0.9}
    assert forward.version_vector == backward.version_vector


def test_malformed_gossiped_rule_is_skipped():
    n = node(node_id="n")
    bad = PolicyDelta(
        origin="peer",
        counter=1,
        clock=1,
        kind="security-rule",
        payload={"id": "bad", "kind": "block", "pattern": "("},
    )
    assert n.apply_delta(bad) is DeltaStatus.APPLIED
    assert n.version_vector == {"peer": 1}
    assert all(rule.id != "bad" for rule in n.security.rules)
    result = n.intercept(make_envelope("alice", "please summarize the meeting", to="bob"))
    assert result.delivered


def test_unknown_delta_kind_is_rejected():
    a = node(node_id="a")
    with pytest.raises(ValueError, match="unknown delta kind"):
        a.emit_delta("mystery", {})


def test_gossip_reaches_every_node_within_a_small_bound():
    # pilot over 50 seeds put the worst case at 5 rounds for 16 nodes, beta=2
    for seed in range(20):
        nodes = [node(node_id=f"n{i}") for i in range(16)]
        nodes[0].publish_term("alpha", 0.9)
        nodes[7].publish_policy("s", "r", "directive")
        ticks = run_gossip(nodes, Random(seed), beta=2)
        assert ticks <= 8
        assert all(n.ontology.has_term("alpha") for n in nodes)
        assert all(n.policies.get("s", "r") is not None for n in nodes)


def test_gossip_tick_count_is_seed_deterministic():
    def run(seed):
        nodes = [node(node_id=f"n{i}") for i in range(12)]
        nodes[3].publish_term("alpha", 0.9)
        return run_gossip(nodes, Random(seed), beta=2)

    assert run(42) == run(42)


def test_converged_cluster_needs_zero_rounds():
    nodes = [node(node_id=f"n{i}") for i in range(4)]
    assert run_gossip(nodes, Random(0), beta=2) == 0


def test_single_node_gossip_is_a_no_op():
    only = node(node_id="solo")
    only.publish_term("alpha", 0.9)
    assert gossip_tick([only], Random(0), beta=3) == 0
    assert run_gossip([only], Random(0), beta=3) == 0


@pytest.mark.parametrize("beta", [0, -1])
def test_gossip_rejects_a_fanout_below_one(beta):
    nodes = [node(node_id=f"n{i}") for i in range(3)]
    nodes[0].publish_term("alpha", 0.9)
    with pytest.raises(ValueError, match="beta"):
        gossip_tick(nodes, Random(0), beta=beta)
    with pytest.raises(ValueError, match="beta"):
        run_gossip(nodes, Random(0), beta=beta)


def test_expected_propagation_rounds_grows_with_log_n():
    assert expected_propagation_rounds(1, 3) == 0.0
    assert expected_propagation_rounds(16, 2) == pytest.approx(math.log(16) / 2)
    assert expected_propagation_rounds(256, 3) == pytest.approx(math.log(256) / 3)
    assert expected_propagation_rounds(64, 2) < expected_propagation_rounds(256, 2)
