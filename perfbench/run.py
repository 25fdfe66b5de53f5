"""Host-time benchmark of specnego: one workload per invocation, one JSON result.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload study_exp_iii|coord_select|direct_bulk
                             [--seed 1] [--seconds 40] [--trace 0|1]

Every workload run is a fresh process (``worker.py``) with one thread: the
BLAS and OpenMP thread variables are set to 1 for it. With ``--trace 0`` the
command first probes set-up several times, then repeats untraced runs for
``--seconds`` (at least three) and prints the end-to-end metrics. With
``--trace 1`` it alternates traced and untraced runs for ``--seconds`` (at
least one of each) and prints the per-layer metrics derived from the spans,
each the median over the traced runs.

Every run's outputs are checked: each scenario run's message total against
``expected_messages``, zero protocol violations, events = messages + SU
wakes, and a sha256 of each rendered export. On seed 1 the digests must equal
the ones pinned in ``digests.json``; on any other seed every run of the
invocation must give the same digests. A failed check counts toward
``ops_failed_frac`` (failed scenario runs / attempted) and the command exits 1.
A run stamp and every sample are written to ``perfbench/results/``. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("study_exp_iii", "coord_select", "direct_bulk")

# End-to-end metrics, in output order: (name, unit).
END_TO_END = (("wall_s", "s"), ("events_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5  # set-up-only processes, on top of the set-up of every measured run
MIN_RUNS = 4      # untraced runs with --trace 0, even when --seconds is short
DEADLINE_S = 170  # the whole command ends well within three minutes


class ProcessFailed(RuntimeError):
    """A workload process crashed or missed the deadline: the command has no result."""


class Invocation:
    """Starts the workload processes of one command, one at a time."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.started = time.monotonic()
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})

    def child(self, mode: str, spans_path: Path | None = None) -> dict:
        """Run one worker process to completion; returns its JSON result."""
        command = [sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--size", self.args.size, "--mode", mode]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        begun = time.monotonic()
        try:
            done = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired as exc:  # subprocess.run killed and reaped it
            raise ProcessFailed(f"{mode} process exceeded the {DEADLINE_S} s deadline") from exc
        if done.returncode != 0:
            raise ProcessFailed(f"{mode} process exited {done.returncode}:\n{done.stderr[-4000:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["process_s"] = time.monotonic() - begun
        result["spans_path"] = spans_path
        return result

    def repeat(self, budget_s: float, minimum: int, spans_stem: str | None = None):
        """Untraced runs until ``budget_s`` is spent, and at least ``minimum``.

        With ``spans_stem`` each untraced run is preceded by a traced one, so
        both sample the same stretch of time. Returns (untraced, traced).
        """
        untraced: list[dict] = []
        traced: list[dict] = []
        begun = time.monotonic()
        while True:
            if spans_stem is not None:
                spans_path = RESULTS / f"{spans_stem}-{len(traced)}.spans"
                traced.append(self.child("trace", spans_path))
            untraced.append(self.child("run"))
            spent = time.monotonic() - begun
            if len(untraced) >= minimum and spent * (1 + 1 / len(untraced)) > budget_s:
                return untraced, traced


def pinned_digests(path: Path, size: str, workload: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as src:
        return json.load(src)[size][workload]


def count_failures(children: list[dict], reference: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed) scenario runs over ``children``, and why runs failed."""
    attempted = failed = 0
    reasons: list[str] = []
    for k, child in enumerate(children):
        attempted += child["runs"]
        problems = list(child["failures"])
        if child["digests"] != reference:
            problems.append(f"digests {child['digests']} != reference {reference}")
        if problems:
            failed += child["runs"]
            reasons += [f"process {k}: {p}" for p in problems]
    return attempted, failed, reasons


def run_stamp(args: argparse.Namespace, numpy_version: str, events: int) -> dict:
    """The settings and environment of this result."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as src:
            cpu_model = next((line.split(":", 1)[1].strip() for line in src
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src" / "specnego").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "events_per_run": events,
        "cpu_model": cpu_model, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": git_commit(), "src_sha256": src_hash.hexdigest(),
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the repository at ROOT, or None when ROOT is not a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes are for the smoke check")
    parser.add_argument("--pinned", type=Path, default=BENCH / "digests.json",
                        help="pinned seed-1 digests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "specnego" / "__init__.py").is_file():
        print(f"no specnego package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    inv = Invocation(args)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}"
    try:
        probes = [] if args.trace else [inv.child("setup") for _ in range(SETUP_PROBES)]
        children, traced = inv.repeat(args.seconds, 1 if args.trace else MIN_RUNS,
                                      stem if args.trace else None)
    except ProcessFailed as exc:
        print(exc, file=sys.stderr)
        return 2

    checked = traced + children
    reference = (pinned_digests(args.pinned, args.size, args.workload)
                 if args.seed == 1 else checked[0]["digests"])
    attempted, failed, reasons = count_failures(checked, reference)
    events = max(c["events"] for c in checked)
    wall_s = statistics.median(c["wall_s"] for c in children)
    if args.trace:
        per_run = [spans.layer_metrics(spans.read_spans(c["spans_path"]), wall_s)
                   for c in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in per_run), "unit": unit}
                   for name, unit, _ in spans.LAYER_METRICS}
    else:
        values = {
            "wall_s": wall_s,
            "events_per_s": events / wall_s,
            "peak_rss_mb": statistics.median(c["rss_mb"] for c in children),
            "setup_s": statistics.median(c["setup_s"] for c in probes + children),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    stamp = run_stamp(args, checked[0]["numpy"], events)
    ops_failed_frac = failed / attempted
    record = {"stamp": stamp, "metrics": metrics, "ops_failed_frac": ops_failed_frac,
              "attempted": attempted, "failed": failed, "failures": reasons,
              "samples": [{k: c.get(k) for k in ("setup_s", "wall_s", "rss_mb", "process_s")}
                          | {"traced": c["spans_path"] is not None} for c in checked]}
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for reason in reasons:
        print("FAILED:", reason, file=sys.stderr)
    print("stamp:", json.dumps(stamp))
    print(f"runs: {len(checked)} processes, {attempted} scenario runs, "
          f"ops_failed_frac {ops_failed_frac:g} ({failed}/{attempted})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
