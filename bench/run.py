"""Benchmark of cogfabric's intercept path and gossip, end to end and by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload large-store --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's public calls with span recorders and prints the per-layer
metrics instead. ``--smoke`` runs one short pass on small inputs. The last
line of standard output is one JSON object; a fuller record of the run is
written under bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = {
    "scenarios": "wl_scenarios",
    "large-store": "wl_large_store",
    "memory-churn": "wl_memory_churn",
    "gossip-fleet": "wl_gossip_fleet",
}


def _import_program() -> str | None:
    """Put the checkout's sources first on the path; None on success."""
    package = SRC / "cogfabric"
    if not (package / "__init__.py").is_file():
        return f"cogfabric sources not found at {package}"
    sys.path.insert(0, str(SRC))
    import cogfabric

    if Path(cogfabric.__file__).resolve().parent != package.resolve():
        return f"cogfabric imported from {cogfabric.__file__}, not from {package}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    error = _import_program()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2

    from recorder import Recorder, at_nominal_speed
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    rec = Recorder(tracer)
    workload = importlib.import_module(WORKLOADS[args.workload])
    started = time.perf_counter()
    try:
        workload.run(rec, args.seed, args.seconds, args.smoke)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = time.perf_counter() - started

    factor = rec.speed_factor
    e2e = rec.end_to_end()
    if tracer is not None:
        metrics = at_nominal_speed(tracer.per_layer(rec.ops, len(rec.setup_ns), rec.notes), factor)
    else:
        metrics = e2e
    result = {
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "numpy": importlib.import_module("numpy").__version__,
        "wall_s": wall_s,
        "timed_s": rec.timed_ns / 1e9,
        "timed_ops": rec.ops,
        "setups": len(rec.setup_ns),
        "probe_us_mean": statistics.fmean(rec.probes_ns) / 1e3 if rec.probes_ns else None,
        "probes": len(rec.probes_ns),
        "speed_factor": factor,
        "faults": rec.faults,
        "problems": rec.problems[:50],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "end_to_end_raw": {k: v for k, (v, _) in rec.end_to_end(nominal=False).items()},
        "notes": rec.notes,
        "pass_marks": rec.pass_marks,
        "latency_ns": rec.latency_ns,
        "result": result,
    }
    if tracer is not None:
        record["spans"] = tracer.span_count
        record["layers"] = tracer.table(rec.ops)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(
        f"{args.workload}: {rec.attempted} ops, {rec.failed} failed {rec.faults}, "
        f"{len(rec.problems)} problems, speed factor {factor:.3f}",
        file=sys.stderr,
    )
    for problem in rec.problems[:5]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
