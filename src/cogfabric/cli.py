"""Command line runner for the built-in simulation scenarios.

Exit codes: 0 on success, 1 when a scenario's built-in checks fail, 2 on
invalid input (bad file, unknown field, mismatched comparison).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import yaml

from cogfabric.harness import (
    SCENARIOS,
    ConfigError,
    MismatchedSeedsError,
    ScenarioConfig,
    compare,
    run_scenario,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_INVALID = 2


def _load_mapping(source: str) -> dict:
    """Accept a YAML file path, or a bare built-in scenario name."""
    if source in SCENARIOS and not Path(source).exists():
        return {"name": source}
    try:
        with open(source, encoding="utf-8") as fp:
            data = yaml.safe_load(fp)
    except OSError as err:
        raise ConfigError(f"cannot read {source}: {err}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"{source} is not valid YAML: {err}") from None
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{source} must contain a mapping")
    return data


def _config_from(source: str, args: argparse.Namespace) -> ScenarioConfig:
    data = _load_mapping(source)
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if getattr(args, "episodes", None) is not None:
        data["episodes"] = args.episodes
    return ScenarioConfig.from_mapping(data)


def _write_out(path: str | None, payload: str) -> None:
    if path:
        Path(path).write_text(payload + "\n", encoding="utf-8")


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from(args.scenario, args)
    report = run_scenario(config)
    _write_out(args.out, report.to_json())
    if args.format == "human":
        for line in report.summary_lines():
            print(line)
    else:
        for record in report.records:
            print(json.dumps(record, sort_keys=True))
    return EXIT_OK if all(report.checks.values()) else EXIT_CHECKS_FAILED


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = _config_from(args.baseline, args)
    candidate = _config_from(args.candidate, args)
    result = compare(baseline, candidate)
    _write_out(args.out, result.to_json())
    if args.format == "human":
        for line in result.summary_lines():
            print(line)
    else:
        for kind, report in (
            ("baseline", result.baseline),
            ("candidate", result.candidate),
        ):
            print(json.dumps({"kind": kind, **report.to_dict()}, sort_keys=True))
        print(json.dumps({"kind": "deltas", **result.deltas}, sort_keys=True))
    return (
        EXIT_OK if all(result.candidate.checks.values()) else EXIT_CHECKS_FAILED
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in sorted(SCENARIOS):
        episodes = ScenarioConfig.from_mapping({"name": name}).episodes
        print(f"{name:<18} {SCENARIOS[name].description} (default {episodes} episodes)")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _config_from(args.scenario, args)
    print(f"ok: {args.scenario} is a valid {config.name!r} scenario")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogfabric",
        description="Run deterministic multi-agent fabric scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument(
            "--episodes", type=int, default=None, help="override the episode count"
        )
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument(
            "--format",
            choices=("human", "records"),
            default="human",
            help="human summary or line-delimited JSON records",
        )

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario", help="scenario YAML file or built-in name")
    common(run_p)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run two paired configs and diff them")
    cmp_p.add_argument("baseline", help="baseline scenario YAML file or name")
    cmp_p.add_argument("candidate", help="candidate scenario YAML file or name")
    common(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    list_p = sub.add_parser("list-scenarios", help="list built-in scenarios")
    list_p.set_defaults(func=_cmd_list)

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("scenario", help="scenario YAML file or built-in name")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MismatchedSeedsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
