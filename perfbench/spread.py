"""Run the benchmark once per seed and report each metric's median and spread.

Usage, from the root of the repository::

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0]
                                [--out perfbench/results/spread-NAME.json]

Runs are sequential. The spread of a metric is the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median. For ``--trace 0`` each spread is compared with a third of the
metric's bound in ``BENCHMARK.json``. Every value is kept in ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        command = [sys.executable, *config["command"][1:], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{name} {metric['value']:.6g}" for name, metric in result["metrics"].items()
            if name in bounds or args.trace), flush=True)

    steady = True
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        verdict = ""
        if name in bounds:
            ok = spread < bounds[name] / 3 or name == "setup_s"
            steady &= ok
            verdict = f"  bound {bounds[name]}: {'ok' if ok else 'TOO WIDE'}"
        print(f"{name}: median {median:.6g} {units[name]}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"spread {spread:.4f}{verdict}")
    out = args.out or BENCH / "results" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                               "metrics": summary}, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
