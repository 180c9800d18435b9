"""Timing, op outcomes and the end-to-end metrics of one benchmark run.

A run is a sequence of passes. Each pass sets up fresh program state (timed
as one ``setup_s`` sample) and then drives a fixed sequence of ops. The timed
phase is the wall time of the passes minus their set-up and minus the
benchmark's own checking, so ``ops_per_s`` counts the workload's work between
ops but not the work of verifying the program.

The speed of a shared machine drifts by a quarter and more over seconds to
minutes, for every process alike. So at the first op after each 50 ms, and
around every set-up, a fixed pure-Python loop (the probe) is timed outside
the timed phase. Each time the run reports is scaled by the local speed factor,
``PROBE_NOMINAL_NS`` over the median of the nine probes nearest it: the time
the run would have shown on a machine where the probe takes its nominal
time. The raw times and the mean factor go to the results file.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager

import numpy as np

OFF, OP, SETUP = 0, 1, 2

PROBE_EVERY_NS = 50_000_000
PROBE_ITERATIONS = 5_000
PROBE_WINDOW = 4  # probes on each side that set a local speed factor
# the probe's median time on a shared 2-core x86-64 host, CPython 3.11.7
PROBE_NOMINAL_NS = 470_000.0


def probe_ns() -> int:
    """Time of a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter_ns() - t0


class Recorder:
    """Collects set-up times, op latencies and op outcomes for one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.setup_ns: list[int] = []
        self.latency_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.faults: dict[str, int] = {}
        self.problems: list[str] = []
        self.timed_ns = 0
        self.pass_marks: list[tuple[int, int]] = []  # (ops, timed ns) at each pass end
        self.probes_ns: list[int] = []
        self._probe_timed: list[int] = []  # timed ns elapsed at each probe
        self._op_probes: list[int] = []  # probes taken before each op
        self._setup_probes: list[int] = []  # probes taken before each set-up ended
        self._next_probe = 0
        self._since: int | None = None
        self.notes: dict = {}

    # -- phases ----------------------------------------------------------------

    def _phase(self, code: int) -> None:
        if self.tracer is not None:
            self.tracer.phase = code

    def _probe(self) -> None:
        with self.paused():
            self._probe_timed.append(self.timed_ns)
            self.probes_ns.append(probe_ns())
        self._next_probe = time.perf_counter_ns() + PROBE_EVERY_NS

    @contextmanager
    def setup(self):
        """Time one set-up: everything the pass needs before its first op."""
        self._probe()
        self._phase(SETUP)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.setup_ns.append(time.perf_counter_ns() - t0)
            self._phase(OFF)
            self._probe()
            self._setup_probes.append(len(self.probes_ns) - 1)

    def start(self) -> None:
        """Open the timed phase of a pass."""
        self._phase(OP)
        self._since = time.perf_counter_ns()

    def stop(self) -> None:
        """Close the timed phase of a pass."""
        if self._since is not None:
            self.timed_ns += time.perf_counter_ns() - self._since
            self._since = None
        self._phase(OFF)

    def end_pass(self) -> None:
        """Close the timed phase of a pass and mark where the pass ended."""
        self.stop()
        self.pass_marks.append((len(self.latency_ns), self.timed_ns))

    @contextmanager
    def paused(self):
        """Checking and probing: outside the timed phase and outside the trace."""
        running = self._since is not None
        if running:
            self.stop()
        try:
            yield
        finally:
            if running:
                self.start()

    @property
    def timed_s(self) -> float:
        live = time.perf_counter_ns() - self._since if self._since is not None else 0
        return (self.timed_ns + live) / 1e9

    # -- ops -------------------------------------------------------------------

    def call(self, fn, *args, **kwargs):
        """Run one timed op. Returns (result, exception or None)."""
        t0 = time.perf_counter_ns()
        try:
            out, err = fn(*args, **kwargs), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, err = None, exc
        done = time.perf_counter_ns()
        self.latency_ns.append(done - t0)
        self._op_probes.append(len(self.probes_ns))
        if done >= self._next_probe:
            self._probe()
        return out, err

    def settle(self, problems=(), fault: str | None = None) -> None:
        """Count one op. ``fault`` names a kept, known fault; ``problems``
        are failed checks nobody expected."""
        self.attempted += 1
        if fault is not None or problems:
            self.failed += 1
        if fault is not None:
            self.faults[fault] = self.faults.get(fault, 0) + 1
        self.problems.extend(problems)

    @property
    def ops(self) -> int:
        return len(self.latency_ns)

    # -- results ---------------------------------------------------------------

    def _local_factors(self) -> np.ndarray:
        """Speed factor at each probe, from the median of the probes around
        it, so that one probe hit by an interrupt does not count."""
        probes = np.asarray(self.probes_ns, dtype=np.float64)
        if not len(probes):
            return np.ones(1)
        w = PROBE_WINDOW
        local = [np.median(probes[max(0, k - w) : k + w + 1]) for k in range(len(probes))]
        return PROBE_NOMINAL_NS / np.asarray(local)

    @property
    def speed_factor(self) -> float:
        """Mean speed factor of the run: below 1 on a slow machine."""
        return float(np.mean(self._local_factors()))

    def end_to_end(self, nominal: bool = True) -> dict:
        """End-to-end metrics as (value, unit), at nominal machine speed or raw."""
        lat = np.asarray(self.latency_ns, dtype=np.float64)
        setup = np.asarray(self.setup_ns, dtype=np.float64)
        marks = np.asarray(self._probe_timed + [self.timed_ns], dtype=np.float64)
        timed = np.diff(np.concatenate(([0.0], marks)))
        if nominal:
            f = self._local_factors()
            lat = lat * f[np.clip(np.asarray(self._op_probes) - 1, 0, len(f) - 1)]
            setup = setup * f[np.asarray(self._setup_probes, dtype=int)]
            timed = timed * f[np.clip(np.arange(len(timed)) - 1, 0, len(f) - 1)]
        lat_us = lat / 1e3
        return {
            "setup_s": (float(np.median(setup)) / 1e9, "s"),
            "ops_per_s": (len(lat_us) / (float(timed.sum()) / 1e9), "1/s"),
            "op_p50_us": (float(np.percentile(lat_us, 50)), "us"),
            "op_p95_us": (float(np.percentile(lat_us, 95)), "us"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }


def at_nominal_speed(metrics: dict, factor: float) -> dict:
    """Scale times by the speed factor; rates inversely; counts stay."""
    scale = {"s": factor, "us": factor, "1/s": 1.0 / factor}
    return {k: (v * scale.get(u, 1.0), u) for k, (v, u) in metrics.items()}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
