"""The benchmark's own tests: every check fails on a corrupted output, and a
smoke run of every workload ends with a correct result.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
from cogfabric.core import HashingEmbedder  # noqa: E402

EMB = oracle.RefEmbedder()


def _table():
    rows = [
        ("r1", "Service-1 monitors billing ledgers after the morning change.", 0.0, 1.0),
        ("r2", "Service-1 tunes search shards during the evening window.", 0.5, 2.0),
        ("r3", "Queue-7 archives message queues after the audit change.", 0.2, 3.0),
        ("r4", "Service-1 monitors billing ledgers after the nightly change.", 0.0, 4.0),
    ]
    return oracle.RecordTable(EMB, rows)


def test_reference_embedder_matches_the_program():
    program = HashingEmbedder()
    for text in ("Resolve the payment incident.", "Q3_Report.csv is in Vault-A", "", "!!!"):
        assert np.allclose(EMB.text(text), program.embed(text), atol=1e-12)
        assert np.allclose(EMB.name(text), program.embed_name(text), atol=1e-12)


def test_injection_check_accepts_the_reference_and_flags_a_wrong_line():
    table = _table()
    q = EMB.text("How are Service-1 billing ledgers?")
    want = [table.texts[r] for r, _ in table.top_k(q, 3, 0.1)]
    right = oracle.budget_prefix(want, 64)
    assert oracle.check_injection(right, table, q, 3, 0.1, 64) == []
    wrong = [table.texts[2]] + right[1:]
    assert oracle.check_injection(wrong, table, q, 3, 0.1, 64)
    assert oracle.check_injection(right[:1], table, q, 3, 0.1, 64)  # a line that fits left out
    assert oracle.check_injection(["not a record"], table, q, 3, 0.1, 64)


def test_top_k_breaks_ties_by_newer_created_at():
    table = _table()
    q = EMB.text("Service-1 monitors billing ledgers after the change.")
    top = [table.ids[r] for r, _ in table.top_k(q, 2, 0.0)]
    assert top == ["r4", "r1"]  # equal scores, r4 is newer


def test_grounding_check_flags_a_flipped_verdict():
    assert oracle.check_grounding("pass", 0.8, 0.8, 0.75, 0.4) == []
    assert oracle.check_grounding("reject", 0.8, 0.8, 0.75, 0.4)
    assert oracle.check_grounding("pass", 0.8, 0.7, 0.75, 0.4)  # score off
    assert oracle.check_grounding("align", 0.75 - 1e-12, 0.75, 0.75, 0.4) == []  # near-tie
    assert oracle.check_grounding("pass", 0.9, 0.9, 0.75, 0.4, conflict=True)
    assert oracle.check_grounding("align", 0.9, 0.9, 0.75, 0.4, conflict=True) == []


def test_term_table_scores_like_the_definition():
    terms = oracle.TermTable(EMB)
    terms.set("Service-1", 0.9)
    terms.set("Queue-7", 0.5)
    assert terms.score([]) == 1.0
    assert terms.score(["Service-1"]) == pytest.approx(0.9)
    assert terms.score(["Service-1", "Nothing_Here"]) == pytest.approx(0.45)


def test_ghost_check_flags_a_missed_or_spurious_bounce():
    manifest = {"report_1.csv"}
    sugg = {"report_2.csv": {"report_1.csv"}}
    ok = oracle.check_ghost("ghost-reference", ["report_2.csv"], {"report_2.csv": "report_1.csv"},
                            ["report_2.csv"], manifest, sugg)
    assert ok == []
    assert oracle.check_ghost(None, None, None, ["report_2.csv"], manifest, sugg)
    assert oracle.check_ghost("ghost-reference", ["report_1.csv"], {}, ["report_1.csv"], manifest, {})
    assert oracle.check_ghost("ghost-reference", ["report_2.csv"], {"report_2.csv": "other.csv"},
                              ["report_2.csv"], manifest, sugg)


def test_payload_and_translation_checks():
    assert oracle.check_payload_safe("Reach <REDACTED> today.") == []
    assert oracle.check_payload_safe("SSN 123-45-6789")
    assert oracle.check_payload_safe("call 555-010-1234")
    assert oracle.check_payload_safe("then DROP  TABLE users")
    assert oracle.check_translated("The customer opened a case.", {"client": "customer"}) == []
    assert oracle.check_translated("The Client opened a case.", {"client": "customer"})


def test_live_injection_check_flags_a_dead_record():
    assert oracle.check_live_injection(["a"], {"a", "b"}) == []
    assert oracle.check_live_injection(["c"], {"a", "b"})


def test_version_vector_check_flags_a_stale_vector():
    tally = {"a": 3, "b": 2, "c": 0}
    fresh = {"a": 3, "b": 2}
    assert oracle.check_version_vectors({"n1": fresh, "n2": dict(fresh)}, tally) == []
    problems = oracle.check_version_vectors({"n1": fresh, "n2": {"a": 2, "b": 2}}, tally)
    assert len(problems) == 1 and "n2" in problems[0]


def test_agreement_check_flags_a_lost_write():
    expected = {("term", "T"): (0.9, "temporary")}
    assert oracle.check_agreement({"n1": {("term", "T"): (0.9, "temporary")}}, expected) == []
    assert oracle.check_agreement({"n1": {("term", "T"): (0.1, "temporary")}}, expected)


def test_large_store_checks_flag_corrupted_program_output():
    import wl_large_store as ls
    from cogfabric.core import make_envelope

    inputs = ls.make_inputs(3, ls.SMOKE_SIZES)
    node = ls.build_node(inputs)
    ref = ls.Reference(inputs)
    delivered = None
    for msg in inputs["messages"]:
        if "to" not in msg or msg["sender"] == ls.ATTACKER:
            continue
        result = node.intercept(make_envelope(msg["sender"], msg["text"], to=msg["to"]))
        assert ls.check_message(node, ref, msg, result) == []
        if result.delivered and result.transform.injected:
            delivered = (msg, result)
    assert delivered is not None
    msg, result = delivered
    result.transform.injected[0] = inputs["records"][-1][1]
    assert ls.check_message(node, ref, msg, result)
    result.grounding.verdict = type(result.grounding.verdict)("reject")
    assert ls.check_message(node, ref, msg, result)


def test_gossip_checks_flag_a_stale_version_vector():
    import wl_gossip_fleet as gf

    fleet = gf.Fleet(8, 1)
    exp = gf.Expected(fleet)
    vectors = {n.node_id: n.version_vector for n in fleet.nodes}
    assert oracle.check_version_vectors(vectors, exp.tally) == []
    fleet.nodes[0].publish_term("T00-1", 0.7)
    exp.tally["n00"] += 1
    vectors = {n.node_id: n.version_vector for n in fleet.nodes}
    assert len(oracle.check_version_vectors(vectors, exp.tally)) == 7  # not yet gossiped


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", ["scenarios", "large-store", "memory-churn", "gossip-fleet"])
def test_smoke_run_is_correct(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_reports_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run("--workload", "memory-churn", "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    assert result["metrics"]["ann.search.calls"]["value"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run("--workload", "scenarios", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
