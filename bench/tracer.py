"""Per-layer spans, recorded from outside the program.

The tracer wraps public methods of cogfabric's classes, and the module
bindings the program calls through, with a function that records a span:
its name, start, end, parent and the phase (set-up or op) it ran in. Spans
stay in memory, in flat arrays, until the run ends. Nothing inside the
package changes; an untraced run installs none of this.

Self time is a span's duration minus the durations of its direct children.
Calls and self time are reported per op (op phase) or per set-up (set-up
phase). A few extra counts are taken at the same boundaries, so that ratios
are measured where the work happens.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

from recorder import OFF, OP, SETUP

# span name -> (module path, class name or None, attribute)
SPANS: dict[str, tuple[str, str | None, str]] = {
    "fabric.intercept": ("cogfabric.fabric", "FabricNode", "intercept"),
    "fabric.run_gossip": ("cogfabric.fabric", None, "run_gossip"),
    "fabric.gossip_tick": ("cogfabric.fabric", None, "gossip_tick"),
    "fabric.push_to": ("cogfabric.fabric", "FabricNode", "push_to"),
    "fabric.apply_delta": ("cogfabric.fabric", "FabricNode", "apply_delta"),
    "fabric.publish": ("cogfabric.fabric", "FabricNode", "publish_*"),
    "topology.dispatch": ("cogfabric.topology", "Router", "dispatch"),
    "topology.record_outcome": ("cogfabric.topology", "Router", "record_outcome"),
    "grounding.ground": ("cogfabric.fabric", None, "ground"),
    "grounding.score": ("cogfabric.grounding", "Ontology", "score"),
    "grounding.ghost_check": ("cogfabric.fabric", None, "ghost_check"),
    "grounding.translate": ("cogfabric.transform", None, "translate"),
    "grounding.update": ("cogfabric.grounding", "Ontology", "update"),
    "memory.retrieve": ("cogfabric.memory", "MemoryStore", "retrieve"),
    "memory.suggest": ("cogfabric.memory", "Manifest", "suggest"),
    "memory.add": ("cogfabric.memory", "MemoryStore", "add"),
    "memory.prune": ("cogfabric.memory", "MemoryStore", "prune"),
    "memory.entity_update": ("cogfabric.memory", "EntityStore", "update"),
    "ann.search": ("cogfabric.ann", "HnswIndex", "search"),
    "ann.add": ("cogfabric.ann", "HnswIndex", "add"),
    "ann.remove": ("cogfabric.ann", "HnswIndex", "remove"),
    "security.evaluate": ("cogfabric.security", "SecurityEngine", "evaluate"),
    "security.evaluate_rules": ("cogfabric.security", "SecurityEngine", "evaluate_rules"),
    "transform.transform": ("cogfabric.transform", "Transformer", "transform"),
    "core.embed": ("cogfabric.core", "HashingEmbedder", "embed"),
    "core.embed_name": ("cogfabric.core", "HashingEmbedder", "embed_name"),
    "harness.run_scenario": ("cogfabric.harness", None, "run_scenario"),
    "harness.load_config": ("cogfabric.harness", None, "load_config"),
}

# spans whose set-up cost is reported per set-up, as setup.<span>.self_us
SETUP_SPANS = (
    "harness.load_config",
    "memory.add",
    "ann.add",
    "core.embed",
    "core.embed_name",
    "fabric.publish",
    "fabric.run_gossip",
    "fabric.push_to",
    "fabric.apply_delta",
)

# extra counts: metric -> how it is formed from the sums taken at call time
RATIOS = {
    "fabric.intercept.raised": ("intercept.raised", "ops"),
    "fabric.push_to.deltas": ("push_to.deltas", "ops"),
    "fabric.push_to.empty_ratio": ("push_to.empty", "push_to.calls"),
    "grounding.score.terms": ("score.terms", "score.calls"),
    "grounding.score.entities": ("score.entities", "score.calls"),
    "memory.retrieve.rows": ("retrieve.rows", "retrieve.calls"),
    "memory.retrieve.hit_ratio": ("retrieve.hits", "retrieve.asked"),
    "transform.transform.injected_ratio": ("transform.injected", "transform.calls"),
    "core.embed.repeat_ratio": ("embed.repeat", "embed.calls"),
}

# spans whose calls feed the counts behind RATIOS
COUNTED = {
    "grounding.score",
    "memory.retrieve",
    "core.embed",
    "fabric.intercept",
    "fabric.push_to",
    "transform.transform",
}

# measured by a workload rather than at a span boundary
WORKLOAD_METRICS = {"ann.search.recall_at_5": "count"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for span in SPANS:
        out.append((f"{span}.calls", "count"))
        out.append((f"{span}.self_us", "us"))
    out.extend((name, "count") for name in RATIOS)
    out.extend((f"setup.{span}.self_us", "us") for span in SETUP_SPANS)
    out.extend(WORKLOAD_METRICS.items())
    return out


class Tracer:
    """Records spans around cogfabric's public calls while ``phase`` is on."""

    def __init__(self) -> None:
        self.names = list(SPANS)
        self.phase = OFF
        self._name = array("i")
        self._parent = array("i")
        self._phase = array("b")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self.sums: dict[str, float] = {}
        self._texts: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for name, (mod_path, cls_name, attr) in SPANS.items():
            owner = importlib.import_module(mod_path)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            attrs = (
                [a for a in vars(owner) if a.startswith(attr[:-1])]
                if attr.endswith("*")
                else [attr]
            )
            for a in attrs:
                original = getattr(owner, a)
                self._installed.append((owner, a, original))
                setattr(owner, a, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _count(self, key: str, value: float = 1.0) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def _before(self, name: str, args: tuple, kwargs: dict) -> None:
        # counts taken at call time, before the program changes its state
        if name == "grounding.score":
            self._count("score.calls")
            self._count("score.terms", len(args[0].terms()))
            self._count("score.entities", len(args[1]))
        elif name == "memory.retrieve":
            self._count("retrieve.calls")
            self._count("retrieve.rows", len(args[0]))
            self._count("retrieve.asked", kwargs["k"] if "k" in kwargs else args[2])
        elif name == "core.embed":
            text = args[1]
            self._count("embed.calls")
            if text in self._texts:
                self._count("embed.repeat")
            else:
                self._texts.add(text)

    def _after(self, name: str, result, raised: bool) -> None:
        if name == "fabric.intercept" and raised:
            self._count("intercept.raised")
        elif raised:
            return
        elif name == "fabric.push_to":
            self._count("push_to.calls")
            self._count("push_to.deltas", result)
            if result == 0:
                self._count("push_to.empty")
        elif name == "memory.retrieve":
            self._count("retrieve.hits", len(result))
        elif name == "transform.transform":
            self._count("transform.calls")
            if result.injected:
                self._count("transform.injected")

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        tracer = self
        counted = name in COUNTED
        starts, ends, stack = self._start, self._end, self._stack

        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase == OFF:
                return fn(*args, **kwargs)
            if counted and phase == OP:
                tracer._before(name, args, kwargs)
            idx = len(starts)
            tracer._name.append(nid)
            tracer._parent.append(stack[-1])
            tracer._phase.append(phase)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            raised = True
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if counted and phase == OP:
                    tracer._after(name, None if raised else result, raised)

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._start)

    def per_layer(self, ops: int, setups: int, workload_metrics: dict) -> dict:
        """Every per-layer metric by name, as (value, unit)."""
        n = len(self._start)
        names = np.frombuffer(self._name, dtype=np.int32, count=n) if n else np.zeros(0, np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32, count=n) if n else np.zeros(0, np.int32)
        phase = np.frombuffer(self._phase, dtype=np.int8, count=n) if n else np.zeros(0, np.int8)
        dur = (
            np.frombuffer(self._end, dtype=np.int64, count=n)
            - np.frombuffer(self._start, dtype=np.int64, count=n)
        ).astype(np.float64) if n else np.zeros(0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child[:n]
        k = len(self.names)
        out: dict = {}
        by_phase = {}
        for code in (OP, SETUP):
            sel = phase == code
            by_phase[code] = (
                np.bincount(names[sel], minlength=k),
                np.bincount(names[sel], weights=self_ns[sel], minlength=k),
            )
        calls, self_op = by_phase[OP]
        _, self_setup = by_phase[SETUP]
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = (float(calls[i]) / max(ops, 1), "count")
            out[f"{span}.self_us"] = (float(self_op[i]) / 1e3 / max(ops, 1), "us")
        sums = dict(self.sums, ops=ops)
        for metric, (num, den) in RATIOS.items():
            d = sums.get(den, 0.0)
            out[metric] = (sums.get(num, 0.0) / d if d else 0.0, "count")
        for span in SETUP_SPANS:
            i = self.names.index(span)
            out[f"setup.{span}.self_us"] = (float(self_setup[i]) / 1e3 / max(setups, 1), "us")
        for metric, unit in WORKLOAD_METRICS.items():
            out[metric] = (float(workload_metrics.get(metric, 0.0)), unit)
        return out

    def table(self, ops: int) -> list[dict]:
        """Op-phase totals per span, for the results file."""
        rows = self.per_layer(ops, 1, {})
        return [
            {
                "span": span,
                "calls_per_op": rows[f"{span}.calls"][0],
                "self_us_per_op": rows[f"{span}.self_us"][0],
            }
            for span in self.names
            if rows[f"{span}.calls"][0] > 0
        ]
