"""Span tracing for the traced benchmark process, and the per-layer table.

Tracing works by rebinding, in the traced process only, the module-level
names that ``specnego`` looks up at call time (``specnego.kernel.handle``,
``specnego.protocol.best_offer``, ``specnego.kernel.World.step``, ...). No
file of the package is changed, and an untraced workload process never
imports this module.

Each span records its name, start, end, parent span, run id and one number
(``value``) that a few layers use for counts measured where the work happens:
agent x coordinator pairs, TOPSIS width, queue depth, rendered bytes, or the
identity of a registry's contents. Spans are kept in flat arrays in memory
and written out once, when the traced run ends.
"""

from __future__ import annotations

import json
import statistics
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT_SPAN = "workload"

# Per-layer metrics, in output order: (name, unit, better). A name is
# "<span>.<measure>"; MEASURES below says how each measure is derived.
LAYER_METRICS = (
    ("coalitions.form_coalitions.calls", "count", "lower"),
    ("coalitions.form_coalitions.s", "s", "lower"),
    ("coalitions.form_coalitions.pairs", "count", "lower"),
    ("coalitions.best_offer.calls", "count", "lower"),
    ("coalitions.best_offer.s", "s", "lower"),
    ("coalitions.best_offer.us_per_call", "us", "lower"),
    ("coalitions.best_offer.distinct_frac", "frac", "lower"),
    ("coalitions.register_params.calls", "count", "lower"),
    ("coalitions.register_params.s", "s", "lower"),
    ("topsis.topsis.calls", "count", "lower"),
    ("topsis.topsis.s", "s", "lower"),
    ("topsis.topsis.us_per_call", "us", "lower"),
    ("topsis.topsis.alternatives_mean", "count", "lower"),
    ("protocol.handle.calls", "count", "lower"),
    ("protocol.handle.self_s", "s", "lower"),
    ("protocol.handle_wake.s", "s", "lower"),
    ("protocol.rank_offers.calls", "count", "lower"),
    ("protocol.rank_offers.s", "s", "lower"),
    ("protocol.assign_offers.s", "s", "lower"),
    ("protocol.topology_plan.s", "s", "lower"),
    ("kernel.world_init.s", "s", "lower"),
    ("kernel.step.calls", "count", "lower"),
    ("kernel.step.self_s", "s", "lower"),
    ("kernel.step.us_per_event", "us", "lower"),
    ("kernel.queue.peak", "count", "lower"),
    ("kernel.report.s", "s", "lower"),
    ("model.validate.s", "s", "lower"),
    ("scenario_io.parse_scenario.s", "s", "lower"),
    ("experiments.run_experiment.s", "s", "lower"),
    ("experiments.generate_scenario.s", "s", "lower"),
    ("reports.render_events_jsonl.s", "s", "lower"),
    ("reports.render_events_jsonl.bytes", "B", "lower"),
    ("reports.render_metrics_csv.s", "s", "lower"),
    ("reports.render_allocations_csv.s", "s", "lower"),
    ("reports.render_table_csv.s", "s", "lower"),
    ("charts.render_chart.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# Array typecodes of the span columns, in file order.
_COLUMNS = (("names", "H"), ("parents", "i"), ("runs", "I"),
            ("starts", "d"), ("ends", "d"), ("values", "d"))


class Tracer:
    """Records spans into flat arrays; one instance per traced process."""

    def __init__(self) -> None:
        self.names = array("H")
        self.parents = array("i")
        self.runs = array("I")
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("d")
        self.name_ids: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def open(self, name_id: int, value: float = 0.0) -> int:
        index = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.values.append(value)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around its own calls."""
        index = self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def rebind(self, owner, attribute: str, name: str, pre=None, post=None) -> None:
        """Replace ``owner.attribute`` by a wrapper that records one span per call.

        ``pre(args)`` gives the span's value before the call; ``post(args,
        result)`` replaces it after the call returns.
        """
        fn = getattr(owner, attribute)
        tracer, name_id = self, self._name_id(name)

        def traced(*args, **kwargs):
            index = tracer.open(name_id, pre(args) if pre else 0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if post:
                tracer.values[index] = post(args, result)
            return result

        self._restore.append((owner, attribute, fn))
        setattr(owner, attribute, traced)

    def install(self) -> None:
        """Rebind every traced layer boundary of ``specnego``."""
        from specnego import charts, coalitions, experiments, kernel, protocol, reports, scenario_io

        registries: dict[tuple, int] = {}

        def new_run(_args):
            self.run_id += 1
            return 0.0

        def registry_identity(args):
            key = tuple(sorted(args[0].entries.items()))
            return float(registries.setdefault(key, len(registries)))

        self.rebind(experiments, "run_experiment", "experiments.run_experiment")
        self.rebind(experiments, "generate_scenario", "experiments.generate_scenario")
        self.rebind(scenario_io, "parse_scenario", "scenario_io.parse_scenario")
        self.rebind(kernel.World, "__init__", "kernel.world_init", pre=new_run)
        self.rebind(kernel.World, "step", "kernel.step", pre=lambda a: float(a[0].pending))
        self.rebind(kernel.World, "report", "kernel.report")
        self.rebind(kernel, "validate", "model.validate")
        self.rebind(kernel, "topology_plan", "protocol.topology_plan")
        self.rebind(kernel, "handle", "protocol.handle")
        self.rebind(kernel, "handle_wake", "protocol.handle_wake")
        self.rebind(protocol, "form_coalitions", "coalitions.form_coalitions",
                    pre=lambda a: float(len(a[0]) * len(a[1])))
        self.rebind(protocol, "register_params", "coalitions.register_params")
        self.rebind(protocol, "best_offer", "coalitions.best_offer", pre=registry_identity)
        self.rebind(protocol, "rank_offers", "protocol.rank_offers")
        self.rebind(protocol, "assign_offers", "protocol.assign_offers")
        for owner in (protocol, coalitions):
            self.rebind(owner, "topsis", "topsis.topsis", pre=lambda a: float(a[0].shape[0]))
        self.rebind(reports, "render_events_jsonl", "reports.render_events_jsonl",
                    post=lambda a, text: float(len(text.encode("utf-8"))))
        self.rebind(reports, "render_metrics_csv", "reports.render_metrics_csv")
        self.rebind(reports, "render_allocations_csv", "reports.render_allocations_csv")
        self.rebind(reports, "render_table_csv", "reports.render_table_csv")
        self.rebind(charts, "render_chart", "charts.render_chart")

    def uninstall(self) -> None:
        """Put every rebound name back."""
        while self._restore:
            owner, attribute, fn = self._restore.pop()
            setattr(owner, attribute, fn)

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the raw columns."""
        names = sorted(self.name_ids, key=self.name_ids.get)
        with open(path, "wb") as out:
            out.write(json.dumps({"names": names, "count": len(self.names)}).encode() + b"\n")
            for column, _ in _COLUMNS:
                getattr(self, column).tofile(out)


def read_spans(path: Path) -> dict:
    """Read a span file written by :meth:`Tracer.write` into a dict of columns."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        spans = {"labels": header["names"]}
        for column, code in _COLUMNS:
            values = array(code)
            values.fromfile(src, header["count"])
            spans[column] = values
    return spans


# measure -> f(calls, total seconds, self seconds, span values)
MEASURES = {
    "calls": lambda n, total, own, values: float(n),
    "s": lambda n, total, own, values: total,
    "self_s": lambda n, total, own, values: own,
    "us_per_call": lambda n, total, own, values: total / n * 1e6 if n else 0.0,
    "us_per_event": lambda n, total, own, values: own / n * 1e6 if n else 0.0,
    "peak": lambda n, total, own, values: max(values, default=0.0),
    "pairs": lambda n, total, own, values: float(sum(values)),
    "bytes": lambda n, total, own, values: float(sum(values)),
    "distinct_frac": lambda n, total, own, values: len(set(values)) / n if n else 0.0,
    "alternatives_mean": lambda n, total, own, values: statistics.fmean(values) if n else 0.0,
}
# Metrics whose values are recorded on another span.
SOURCE_SPAN = {"kernel.queue": "kernel.step"}


def layer_metrics(spans: dict, untraced_wall_s: float) -> dict[str, float]:
    """Derive the per-layer table from one traced run's spans.

    ``self_s`` is a span's duration minus the time its direct child spans
    cover; ``trace.overhead_s`` is the root span's duration minus the
    median untraced wall time of the same workload and seed.
    """
    labels = spans["labels"]
    calls = [0] * len(labels)
    total = [0.0] * len(labels)
    child = [0.0] * len(labels)
    values: list[list[float]] = [[] for _ in labels]
    names, parents, starts, ends, vals = (
        spans["names"], spans["parents"], spans["starts"], spans["ends"], spans["values"]
    )
    for i in range(len(names)):
        nid = names[i]
        duration = ends[i] - starts[i]
        calls[nid] += 1
        total[nid] += duration
        values[nid].append(vals[i])
        if parents[i] >= 0:
            child[names[parents[i]]] += duration

    def stat(span: str):
        if span not in labels:
            return 0, 0.0, 0.0, []
        nid = labels.index(span)
        return calls[nid], total[nid], total[nid] - child[nid], values[nid]

    out = {"trace.overhead_s": stat(ROOT_SPAN)[1] - untraced_wall_s,
           "trace.spans": float(len(names))}
    for name, _, _ in LAYER_METRICS:
        if name not in out:
            span, measure = name.rsplit(".", 1)
            out[name] = MEASURES[measure](*stat(SOURCE_SPAN.get(span, span)))
    return {name: out[name] for name, _, _ in LAYER_METRICS}
