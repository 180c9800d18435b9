"""Workload ``scenarios``: the four packaged scenarios, as ``cogfabric run`` runs them.

One op is one ``FabricNode.intercept`` call made by ``run_scenario``. A pass
loads the four packaged configs (set-up) and runs each at its packaged seed
and episode count, about 5,400 intercepts. The stores are tiny, so the
fixed cost per message dominates: embedding, rule regexes, the lexicon, the
router and the harness bookkeeping between intercepts.

The packaged configs pin their own seed, and their checks are statistical
(the bandit check may miss on one seed in ten), so ``--seed`` does not
change this workload's inputs. Passes repeat the same inputs, which is what
the byte-identical report check needs.
"""

from __future__ import annotations

from pathlib import Path

import cogfabric
import cogfabric.fabric as fabric
import cogfabric.harness as harness
from cogfabric.core import Explicit

FILES = ("bandit_5arm.yaml", "expert_discovery.yaml", "hotpot_like.yaml", "entity_swarm.yaml")


def _scenario_problems(config, report, calls, first_json: dict) -> list[str]:
    """Checks on one scenario's report as a whole."""
    problems = [f"{config.name}: check {k} failed" for k, ok in report.checks.items() if not ok]
    if not (len(calls) == report.messages_total == report.delivered + report.rejected):
        problems.append(
            f"{config.name}: {len(calls)} intercepts, messages_total "
            f"{report.messages_total}, delivered + rejected "
            f"{report.delivered + report.rejected}"
        )
    text = report.to_json()
    if first_json.setdefault(config.name, text) != text:
        problems.append(f"{config.name}: report differs from the first run at the same seed")
    return problems


def _call_problems(config, envelope, result, err, task_requires: dict) -> list[str]:
    """Checks on one intercept."""
    if err is not None:
        return [f"{config.name}: intercept raised {err!r}"]
    if config.name == "hotpot-like":
        synthesizer, analyst = config.agents[3].id, config.agents[1].id
        addressed = envelope.addressing
        if (
            envelope.sender == synthesizer
            and isinstance(addressed, Explicit)
            and addressed.receiver == analyst
        ):
            if (synthesizer, analyst) in (config.edges or ()):
                return [f"hotpot-like: the config allows {synthesizer}->{analyst}"]
            if result.delivered or result.reason != "edge-not-allowed":
                return [f"hotpot-like: probe {synthesizer}->{analyst} gave {result.reason!r}"]
    elif config.name == "entity-swarm" and result.delivered:
        requires = task_requires.get(envelope.text)
        if requires is not None:
            lost = [t for t in requires if t not in result.payload.text]
            if lost:
                return [f"entity-swarm: delivered task lacks its component {lost}"]
    return []


def _task_requires(config) -> dict:
    """Rendered task text -> tokens its pool row requires, from the config."""
    out = {}
    for row in config.tasks.pool:
        fields = {k: v for k, v in row.items() if k != "requires"}
        for template in config.tasks.templates:
            out[template.format(**fields)] = tuple(row.get("requires", ()))
    return out


def run(rec, seed: int, seconds: float, smoke: bool) -> None:
    scenario_dir = Path(cogfabric.__file__).parent / "scenarios"
    calls: list = []
    traced_intercept = fabric.FabricNode.intercept

    def timed_intercept(self, envelope, **kwargs):
        result, err = rec.call(traced_intercept, self, envelope, **kwargs)
        calls.append((envelope, result, err))
        if err is not None:
            raise err
        return result

    first_json: dict = {}
    fabric.FabricNode.intercept = timed_intercept
    try:
        passes = 0
        while True:
            with rec.setup():
                configs = [harness.load_config(str(scenario_dir / f)) for f in FILES]
            rec.start()
            for config in configs:
                calls.clear()
                try:
                    report = harness.run_scenario(config)
                    crash = None
                except Exception as exc:  # the intercept that raised is settled below
                    report, crash = None, exc
                with rec.paused():
                    requires = _task_requires(config)
                    tail = (
                        _scenario_problems(config, report, calls, first_json)
                        if report is not None
                        else [f"{config.name}: run_scenario raised {crash!r}"]
                    )
                    for i, (envelope, result, err) in enumerate(calls):
                        problems = _call_problems(config, envelope, result, err, requires)
                        if i == len(calls) - 1:
                            problems += tail
                        rec.settle(problems)
                    if not calls:
                        rec.settle(tail or [f"{config.name}: no intercepts"])
            rec.end_pass()
            passes += 1
            if passes >= 2 and (smoke or rec.timed_s >= seconds):
                break
    finally:
        fabric.FabricNode.intercept = traced_intercept
