from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogfabric.core import HashingEmbedder, cosine_similarity
from cogfabric.grounding import (
    CyclicTableError,
    InvalidThresholdsError,
    Ontology,
    Verdict,
    check_assertions,
    extract_entities,
    gate,
    ghost_check,
    ground,
    translate,
)
from cogfabric.memory import EntityStore, Manifest

EMB = HashingEmbedder()


# ---------------------------------------------------------------------------
# Entity extraction
# ---------------------------------------------------------------------------


def test_extract_identifier_with_digits_and_dots() -> None:
    assert extract_entities("Analyze the dataset Q3_Report.csv.") == ["Q3_Report.csv"]


def test_extract_hyphenated_and_quoted() -> None:
    got = extract_entities("Check db-01 and 'Payment-Gateway' logs now")
    assert got == ["db-01", "Payment-Gateway"]


def test_extract_order_and_dedup() -> None:
    got = extract_entities("Error 503 hit Payment-Gateway; 503 again at 14:00.")
    assert got == ["503", "Payment-Gateway", "14", "00"]


def test_extract_capitalized_snake() -> None:
    assert extract_entities("Only Privileged_Core can invoke DELETE methods") == [
        "Privileged_Core"
    ]


def test_extract_plain_prose_yields_nothing() -> None:
    assert extract_entities("Deploy the container now please") == []
    assert extract_entities("") == []


def test_extract_contractions_are_not_quotes() -> None:
    assert extract_entities("don't stop, it isn't ready") == []


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------


def test_gate_boundaries() -> None:
    assert gate(1.0) is Verdict.PASS
    assert gate(0.75) is Verdict.PASS
    assert gate(0.75 - 1e-9) is Verdict.ALIGN
    assert gate(0.40) is Verdict.ALIGN
    assert gate(0.40 - 1e-9) is Verdict.REJECT
    assert gate(0.0) is Verdict.REJECT


def test_gate_bad_thresholds() -> None:
    with pytest.raises(InvalidThresholdsError):
        gate(0.5, tau_valid=0.3, tau_soft=0.4)
    with pytest.raises(InvalidThresholdsError):
        gate(0.5, tau_valid=1.2, tau_soft=0.1)


@given(
    st.floats(0, 1),
    st.floats(0, 1),
    st.floats(0, 1),
)
@settings(max_examples=200, deadline=None)
def test_gate_total_over_valid_inputs(g: float, a: float, b: float) -> None:
    soft, valid = min(a, b), max(a, b)
    verdict = gate(g, tau_valid=valid, tau_soft=soft)
    if g >= valid:
        assert verdict is Verdict.PASS
    elif g >= soft:
        assert verdict is Verdict.ALIGN
    else:
        assert verdict is Verdict.REJECT


# ---------------------------------------------------------------------------
# Ontology scoring
# ---------------------------------------------------------------------------


def test_score_no_entities_is_one() -> None:
    onto = Ontology(EMB)
    g, details = onto.score([])
    assert g == 1.0 and details == {}


def test_score_exact_permanent_term_is_one() -> None:
    onto = Ontology(EMB)
    onto.add_term("Payment-Gateway", validity=1.0, status="permanent")
    g, details = onto.score(["Payment-Gateway"])
    assert g == pytest.approx(1.0)
    assert details["Payment-Gateway"].term == "Payment-Gateway"


def test_score_mixed_known_and_weak() -> None:
    # fixture sanity, checked by hand: name views of db-01 and db-02 share
    # exactly one of two sub-tokens, cosine 0.5; weighted by validity 0.4
    # the weak entity contributes 0.2, so the mean over both is 0.6
    assert cosine_similarity(
        EMB.embed_name("db-01"), EMB.embed_name("db-02")
    ) == pytest.approx(0.5)
    onto = Ontology(EMB)
    onto.add_term("Payment-Gateway", validity=1.0, status="permanent")
    onto.add_term("db-02", validity=0.4)
    g, details = onto.score(["Payment-Gateway", "db-01"])
    assert details["db-01"].score == pytest.approx(0.2)
    assert g == pytest.approx(0.6)


def test_score_unknown_entity_floors_at_zero() -> None:
    onto = Ontology(EMB)
    onto.add_term("alpha", validity=1.0)
    g, details = onto.score(["zz-99"])
    assert 0.0 <= g < 0.4
    assert details["zz-99"].score >= 0.0


# ---------------------------------------------------------------------------
# Ontology updates
# ---------------------------------------------------------------------------


def test_update_promotes_after_consecutive_successes() -> None:
    onto = Ontology(EMB)
    for i in range(7):
        out = onto.update([(["fresh_term"], True)], alpha=0.1)
        assert out.promoted == []
    out = onto.update([(["fresh_term"], True)], alpha=0.1)
    assert out.promoted == ["fresh_term"]
    entry = onto.term("fresh_term")
    assert entry is not None and entry.status == "permanent"


def test_update_promotion_never_reverts() -> None:
    onto = Ontology(EMB)
    onto.add_term("solid", validity=0.85, status="permanent")
    onto.update([(["solid"], False)] * 5, alpha=0.1)
    entry = onto.term("solid")
    assert entry is not None
    assert entry.status == "permanent"
    assert entry.validity == pytest.approx(0.35)


def test_update_failure_flags_on_crossing() -> None:
    onto = Ontology(EMB)
    onto.add_term("shaky", validity=0.25)
    out = onto.update([(["shaky"], False)], alpha=0.1)
    entry = onto.term("shaky")
    assert entry is not None
    assert entry.validity == pytest.approx(0.15)
    assert entry.flagged
    assert out.flagged == ["shaky"]


def test_update_clamps_to_unit_interval() -> None:
    onto = Ontology(EMB)
    onto.add_term("t", validity=0.95)
    onto.update([(["t"], True)], alpha=0.1)
    assert onto.term("t").validity == 1.0
    onto2 = Ontology(EMB)
    onto2.add_term("u", validity=0.05)
    onto2.update([(["u"], False)], alpha=0.1)
    assert onto2.term("u").validity == 0.0


def test_update_monotone_under_successes() -> None:
    onto = Ontology(EMB)
    onto.add_term("term", validity=0.3)
    last = 0.3
    for _ in range(10):
        onto.update([(["term"], True)], alpha=0.05)
        now = onto.term("term").validity
        assert now >= last
        last = now


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------


def test_translate_simple_token() -> None:
    assert translate("Get the client details", {"client": "customer"}) == (
        "Get the customer details"
    )


def test_translate_longest_match_first() -> None:
    table = {"client": "customer", "client_id": "customer_uuid"}
    assert translate("send client_id and client", table) == (
        "send customer_uuid and customer"
    )


def test_translate_first_letter_case_tolerant() -> None:
    # replacement text is verbatim; matching forgives first-letter case
    assert translate("Deploy the container.", {"deploy": "kubectl apply"}) == (
        "kubectl apply the container."
    )


def test_translate_whole_tokens_only() -> None:
    table = {"client": "customer"}
    assert translate("clientele stays, client.id stays", table) == (
        "clientele stays, client.id stays"
    )


def test_translate_empty_table_is_identity() -> None:
    assert translate("anything at all", {}) == "anything at all"


def test_translate_cyclic_table_raises() -> None:
    with pytest.raises(CyclicTableError):
        translate("a b", {"a": "b", "b": "a"})
    with pytest.raises(CyclicTableError):
        translate("x", {"x": "x"})


def test_translate_chain_is_single_pass() -> None:
    # a -> b -> c is acyclic; one application rewrites a to b, not to c
    assert translate("a stays", {"a": "b", "b": "c"}) == "b stays"


def test_translate_idempotent_when_disjoint() -> None:
    table = {"deploy": "kubectl apply"}
    once = translate("deploy the app", table)
    assert translate(once, table) == once


@given(st.text(alphabet="abcdefg hij", max_size=40))
@settings(max_examples=100, deadline=None)
def test_translate_untouched_tokens_survive(text: str) -> None:
    # table domain is disjoint from the generated alphabet
    table = {"zulu": "yankee"}
    assert translate(text, table) == text


# ---------------------------------------------------------------------------
# Ghost checks
# ---------------------------------------------------------------------------


def test_ghost_check_all_present() -> None:
    man = Manifest(EMB, names=["db-01", "Payment-Gateway"])
    report = ghost_check(["db-01"], man)
    assert report.ok and report.missing == [] and report.suggestions == {}


def test_ghost_check_missing_with_suggestion() -> None:
    man = Manifest(EMB, names=["Q3_Report_Archived.zip"])
    report = ghost_check(["Q3_Report.csv"], man)
    assert not report.ok
    assert report.missing == ["Q3_Report.csv"]
    assert report.suggestions == {"Q3_Report.csv": "Q3_Report_Archived.zip"}


def test_ghost_check_no_suggestion_below_floor() -> None:
    man = Manifest(EMB, names=["holiday_playlist.m3u"])
    report = ghost_check(["Q3_Report.csv"], man)
    assert report.missing == ["Q3_Report.csv"]
    assert report.suggestions == {}


# ---------------------------------------------------------------------------
# Contradiction checks
# ---------------------------------------------------------------------------


def test_assertion_conflict_detected() -> None:
    es = EntityStore()
    es.update("db-01", {"status": "offline"}, by="monitor", at=10.0)
    text = "The server db-01 is online and ready."
    conflicts = check_assertions(text, ["db-01"], es)
    assert len(conflicts) == 1
    c = conflicts[0]
    assert (c.entity, c.attribute, c.asserted, c.actual) == (
        "db-01",
        "status",
        "online",
        "offline",
    )


def test_assertion_agreement_is_quiet() -> None:
    es = EntityStore()
    es.update("db-01", {"status": "online"}, by="monitor", at=10.0)
    assert check_assertions("db-01 is online", ["db-01"], es) == []


def test_assertion_untracked_entity_ignored() -> None:
    es = EntityStore()
    assert check_assertions("db-77 is green", ["db-77"], es) == []


def test_ground_downgrades_pass_to_align_on_conflict() -> None:
    onto = Ontology(EMB)
    onto.add_term("db-01", validity=1.0, status="permanent")
    es = EntityStore()
    es.update("db-01", {"status": "offline"}, by="watchdog", at=3.0)
    decision = ground("The server db-01 is online.", onto, entity_store=es)
    assert decision.verdict is Verdict.ALIGN
    assert decision.score == pytest.approx(1.0)
    assert decision.corrected_text is not None
    assert "offline" in decision.corrected_text


def test_ground_pass_without_conflict() -> None:
    onto = Ontology(EMB)
    onto.add_term("db-01", validity=1.0, status="permanent")
    decision = ground("Restart db-01 tonight.", onto)
    assert decision.verdict is Verdict.PASS
    assert decision.corrected_text is None


def test_ground_rejects_unknown_world() -> None:
    onto = Ontology(EMB)
    decision = ground("Wipe zz-99 immediately", onto)
    assert decision.verdict is Verdict.REJECT


# ---------------------------------------------------------------------------
# Schema maps and config loading
# ---------------------------------------------------------------------------


def test_schema_map_injective_enforced() -> None:
    onto = Ontology(EMB)
    with pytest.raises(ValueError):
        onto.set_schema_map("a", "b", {"x": "same", "y": "same"})


def test_cyclic_schema_map_is_refused_at_install() -> None:
    onto = Ontology(EMB)
    with pytest.raises(CyclicTableError):
        onto.set_schema_map("a", "b", {"x": "y", "y": "x"})
    assert onto.schema_map("a", "b") == {}
