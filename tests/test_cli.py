"""Exit codes, output formats, and overrides of the scenario runner CLI."""

import json

import pytest

from cogfabric.cli import EXIT_CHECKS_FAILED, EXIT_INVALID, EXIT_OK, main


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# list / validate
# ---------------------------------------------------------------------------

def test_list_scenarios_names_all_four(capsys):
    assert run_cli("list-scenarios") == EXIT_OK
    out = capsys.readouterr().out
    for name in ("bandit-5arm", "expert-discovery", "hotpot-like", "entity-swarm"):
        assert name in out
    assert "(default 100 episodes)" in next(
        line for line in out.splitlines() if line.startswith("hotpot-like")
    )


def test_validate_accepts_a_bare_builtin_name(capsys):
    assert run_cli("validate", "entity-swarm") == EXIT_OK
    assert "ok:" in capsys.readouterr().out


def test_validate_accepts_a_good_file(tmp_path, capsys):
    path = tmp_path / "s.yaml"
    path.write_text("name: bandit-5arm\nepisodes: 10\n")
    assert run_cli("validate", str(path)) == EXIT_OK
    assert "'bandit-5arm'" in capsys.readouterr().out


def test_validate_names_the_bad_field(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("name: bandit-5arm\nbudget: 3\n")
    assert run_cli("validate", str(path)) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "error:" in err
    assert "budget" in err


def test_no_agent_at_episode_zero_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "late.yaml"
    path.write_text(
        "name: expert-discovery\nagents:\n  - {id: a, skill: s, arrival: 3}\n"
    )
    for command in ("run", "validate"):
        assert run_cli(command, str(path)) == EXIT_INVALID
        assert "arrival" in capsys.readouterr().err


def test_validate_missing_file_is_invalid_input(capsys):
    assert run_cli("validate", "/no/such/file.yaml") == EXIT_INVALID
    assert "cannot read" in capsys.readouterr().err


def test_validate_rejects_malformed_yaml(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("name: [unclosed\n")
    assert run_cli("validate", str(path)) == EXIT_INVALID
    assert "not valid YAML" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_prints_a_human_summary(capsys):
    code = run_cli("run", "entity-swarm", "--episodes", "120")
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "entity-swarm" in out
    assert "success rate" in out
    check_line = next(x for x in out.splitlines() if "context-injected" in x)
    assert check_line.startswith("check") and check_line.endswith("PASS")


def test_run_exit_reflects_failed_checks(capsys):
    # 400 episodes is mid-exploration, so the regret check genuinely fails
    code = run_cli("run", "bandit-5arm", "--episodes", "400")
    assert code == EXIT_CHECKS_FAILED
    out = capsys.readouterr().out
    check_line = next(x for x in out.splitlines() if "regret-flattens" in x)
    assert check_line.endswith("FAIL")


def test_run_records_format_emits_one_json_line_per_episode(capsys):
    code = run_cli("run", "hotpot-like", "--episodes", "8", "--format", "records")
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    for i, line in enumerate(lines):
        record = json.loads(line)
        assert record["episode"] == i
        assert record["success"] is True


def test_run_seed_override_changes_the_report(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run_cli("run", "entity-swarm", "--episodes", "60", "--seed", "1",
            "--out", str(out_a))
    run_cli("run", "entity-swarm", "--episodes", "60", "--seed", "2",
            "--out", str(out_b))
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["seed"] == 1 and b["seed"] == 2
    assert a != b
    capsys.readouterr()


def test_run_out_file_is_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for target in (out_a, out_b):
        assert run_cli(
            "run", "hotpot-like", "--episodes", "10", "--out", str(target)
        ) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    capsys.readouterr()


def test_run_rejects_an_unknown_scenario(capsys):
    assert run_cli("run", "roulette") == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _swarm_pair(tmp_path):
    base = tmp_path / "base.yaml"
    cand = tmp_path / "cand.yaml"
    base.write_text(
        "name: entity-swarm\nepisodes: 150\nfabric:\n  enabled: false\n"
    )
    cand.write_text("name: entity-swarm\nepisodes: 150\n")
    return str(base), str(cand)


def test_compare_prints_deltas(tmp_path, capsys):
    base, cand = _swarm_pair(tmp_path)
    assert run_cli("compare", base, cand) == EXIT_OK
    out = capsys.readouterr().out
    assert "delta" in out
    assert "success_rate" in out


def test_compare_records_format_tags_three_streams(tmp_path, capsys):
    base, cand = _swarm_pair(tmp_path)
    code = run_cli("compare", base, cand, "--format", "records")
    assert code == EXIT_OK
    lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert [x["kind"] for x in lines] == ["baseline", "candidate", "deltas"]
    assert lines[2]["success_rate"] > 0.2


def test_compare_out_holds_both_reports(tmp_path, capsys):
    base, cand = _swarm_pair(tmp_path)
    out = tmp_path / "cmp.json"
    run_cli("compare", base, cand, "--out", str(out))
    payload = json.loads(out.read_text())
    assert set(payload) == {"baseline", "candidate", "deltas"}
    capsys.readouterr()


def test_compare_mismatched_seeds_is_invalid_input(tmp_path, capsys):
    base = tmp_path / "base.yaml"
    cand = tmp_path / "cand.yaml"
    base.write_text("name: entity-swarm\nepisodes: 40\nseed: 1\n")
    cand.write_text("name: entity-swarm\nepisodes: 40\nseed: 2\n")
    assert run_cli("compare", str(base), str(cand)) == EXIT_INVALID
    assert "seeds differ" in capsys.readouterr().err


def test_compare_shared_overrides_keep_the_pair_aligned(capsys):
    code = run_cli(
        "compare", "entity-swarm", "entity-swarm", "--seed", "3",
        "--episodes", "50", "--format", "records",
    )
    assert code == EXIT_OK
    lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    deltas = lines[2]
    assert all(v == 0.0 for k, v in deltas.items() if k != "kind")


# ---------------------------------------------------------------------------
# argparse plumbing
# ---------------------------------------------------------------------------

def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2
    capsys.readouterr()
