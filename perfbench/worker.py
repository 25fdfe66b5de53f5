"""One workload run in a fresh process: set up, run the measured work once, check it.

Usage (started by ``run.py``, one process per run)::

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny
                                --mode setup|run|trace [--spans PATH]

``setup`` only imports ``specnego`` and builds the inputs. ``run`` also does
the measured work with tracing off. ``trace`` does it with spans recorded and
writes them to ``--spans``. The last line of standard output is one JSON
object; a failure in set-up exits non-zero without it.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time starts before specnego is imported

import argparse
import hashlib
import json
import resource
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Scenario shapes per size. "full" is the benchmark; "tiny" is for the smoke
# check. exp_iii's shape at full size is the study's own (None).
SHAPES = {
    "full": {
        "study_exp_iii": None,
        "coord_select": {"pus": 50, "cpus": 10, "sus": 1000},
        "direct_bulk": {"pus": 200, "sus": 1000},
    },
    "tiny": {
        "study_exp_iii": ((10, 2), (4, 5), (1, 20)),
        "coord_select": {"pus": 10, "cpus": 2, "sus": 20},
        "direct_bulk": {"pus": 10, "sus": 20},
    },
}


@dataclass
class Outputs:
    """What the measured work produced, for the checks that follow it."""

    reports: list = field(default_factory=list)  # one RunReport per scenario run
    exports: dict[str, str] = field(default_factory=dict)  # file name -> rendered text


class Workload:
    """Inputs built at set-up, the measured work, and the expected totals.

    ``expected`` holds one (expected_messages, SU count) pair per scenario run.
    """

    expected: list[tuple[int, int]]

    def measure(self) -> Outputs:
        raise NotImplementedError

    def render_for_check(self, out: Outputs) -> None:
        """Render exports that are digested but not part of the measured work."""


class StudyExpIII(Workload):
    """The paper's exp_iii study with its CSV table and SVG chart."""

    def __init__(self, seed: int, size: str):
        from specnego import experiments

        spec = experiments.experiment_spec("exp_iii", seed)
        splits = SHAPES[size]["study_exp_iii"]
        if splits is not None:
            spec = replace(spec, csu_splits=splits)
        self.spec = spec
        self.expected = [
            (experiments.expected_messages(
                "cpu_csu", True, k * n, spec.pu_count, spec.cpu_count, k), k * n)
            for k, n in spec.csu_splits
        ]

    def measure(self) -> Outputs:
        from specnego import charts, experiments, reports

        out = Outputs()
        # run_experiment keeps its RunReports to itself; this pass-through
        # (one call per scenario run) hands them to the violation check.
        run = experiments.run

        def keep(scenario, event_cap=None):
            report = run(scenario, event_cap=event_cap)
            out.reports.append(report)
            return report

        experiments.run = keep
        try:
            table = experiments.run_experiment(self.spec)
            out.exports["exp_iii_metrics.csv"] = reports.render_table_csv(table)
            out.exports["exp_iii.svg"] = charts.render_chart(
                table, "line", "csu_count", "total_messages")
        finally:
            experiments.run = run
        return out


class CoordSelect(Workload):
    """cpu_only: every SU queries every PU-coalition coordinator."""

    def __init__(self, seed: int, size: str):
        from specnego import experiments

        shape = SHAPES[size]["coord_select"]
        self.scenario = experiments.generate_scenario(
            "cpu_only", shape["pus"], shape["cpus"], (shape["sus"],), seed=seed)
        self.expected = [(experiments.expected_messages(
            "cpu_only", None, shape["sus"], shape["pus"], shape["cpus"]), shape["sus"])]

    def measure(self) -> Outputs:
        from specnego import kernel

        return Outputs(reports=[kernel.run(self.scenario)])

    def render_for_check(self, out: Outputs) -> None:
        from specnego import reports

        out.exports["metrics.csv"] = reports.render_metrics_csv(out.reports[0])


class DirectBulk(Workload):
    """no_coalition from a serialized scenario, with all three run exports."""

    def __init__(self, seed: int, size: str):
        from specnego import experiments, scenario_io

        shape = SHAPES[size]["direct_bulk"]
        scenario = experiments.generate_scenario(
            "no_coalition", shape["pus"], 0, (shape["sus"],), seed=seed)
        self.text = scenario_io.scenario_to_json(scenario)
        self.expected = [(experiments.expected_messages(
            "no_coalition", None, shape["sus"], shape["pus"]), shape["sus"])]

    def measure(self) -> Outputs:
        from specnego import kernel, reports, scenario_io

        report = kernel.run(scenario_io.parse_scenario(self.text))
        return Outputs(reports=[report], exports={
            "metrics.csv": reports.render_metrics_csv(report),
            "events.jsonl": reports.render_events_jsonl(report),
            "allocations.csv": reports.render_allocations_csv(report),
        })


WORKLOADS = {
    "study_exp_iii": StudyExpIII,
    "coord_select": CoordSelect,
    "direct_bulk": DirectBulk,
}


def check(workload: Workload, out: Outputs) -> tuple[int, list[str]]:
    """Check every scenario run; returns (event count, failure messages)."""
    failures = []
    if len(out.reports) != len(workload.expected):
        failures.append(f"{len(out.reports)} scenario runs, expected {len(workload.expected)}")
    events = 0
    for i, (report, (expected, sus)) in enumerate(zip(out.reports, workload.expected)):
        problems = []
        if report.total_messages != expected:
            problems.append(f"total {report.total_messages} != expected_messages {expected}")
        if report.protocol_violations:
            problems.append(f"{len(report.protocol_violations)} protocol violations")
        if len(report.event_log) != report.total_messages + sus:
            problems.append(f"{len(report.event_log)} events != messages + SU wakes")
        if problems:
            failures.append(f"scenario run {i}: " + "; ".join(problems))
        events += len(report.event_log)
    return events, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=sorted(SHAPES), default="full")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import specnego  # noqa: F401  (the import is part of set-up time)

    workload = WORKLOADS[args.workload](args.seed, args.size)
    result = {"setup_s": time.perf_counter() - T0, "numpy": numpy.__version__,
              "runs": len(workload.expected)}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from spans import ROOT_SPAN, Tracer

            tracer = Tracer()
            tracer.install()
        failures: list[str] = []
        events = 0
        digests: dict[str, str] = {}
        out = None
        start = time.perf_counter()
        # A raising scenario run is a failed run: record it and report the rest.
        try:
            if tracer is None:
                out = workload.measure()
            else:
                try:
                    with tracer.span(ROOT_SPAN):
                        out = workload.measure()
                finally:
                    tracer.uninstall()
        except Exception:
            failures.append(traceback.format_exc())
        result["wall_s"] = time.perf_counter() - start
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if out is not None:
            try:
                workload.render_for_check(out)
                events, failures = check(workload, out)
                digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
                           for name, text in sorted(out.exports.items())}
            except Exception:
                failures.append(traceback.format_exc())
        if tracer is not None:
            tracer.write(args.spans)
        result.update(events=events, failures=failures, digests=digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
