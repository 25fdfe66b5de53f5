"""Smoke check of the benchmark itself, at tiny workload sizes (about a minute).

Usage, from the root of the repository::

    python3 perfbench/smoke.py

For every workload it checks that:

* ``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` with its
  unit, on seed 1 and on the held-out seed 2, with no failed run;
* ``--trace 1`` prints every per-layer metric with its unit, and the layers a
  workload bypasses read zero calls;
* a corrupted pinned digest makes the run fail: exit code 1, ``correct``
  false and every scenario run counted as failed;

and that in a directory holding only ``BENCHMARK.json`` and the benchmark,
the command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# Layers each workload must call (calls > 0) or bypass (calls == 0).
CALLED = {
    "study_exp_iii": ("coalitions.form_coalitions.calls", "coalitions.best_offer.calls"),
    "coord_select": ("coalitions.best_offer.calls", "coalitions.register_params.calls"),
    "direct_bulk": ("topsis.topsis.calls", "protocol.rank_offers.calls"),
}
BYPASSED = {
    "study_exp_iii": (),
    "coord_select": (),
    "direct_bulk": ("coalitions.form_coalitions.calls", "coalitions.best_offer.calls",
                    "coalitions.register_params.calls"),
}


def bench(cwd: Path, *args: str) -> tuple[int, dict | None]:
    """Run the benchmark command in ``cwd``; returns (exit code, parsed last line)."""
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected_units = {
        0: {m["name"]: m["unit"] for m in config["end_to_end"]},
        1: {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    RESULTS.mkdir(exist_ok=True)
    for workload in (w["name"] for w in config["workloads"]):
        tiny = ["--workload", workload, "--size", "tiny", "--seconds", "1"]
        for seed, trace in (("1", 0), ("2", 0), ("1", 1)):
            code, result = bench(ROOT, *tiny, "--seed", seed, "--trace", str(trace))
            label = f"{workload} seed {seed} trace {trace}"
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0, f"{label}: correct, nothing failed")
            if result is None:
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == expected_units[trace], f"{label}: every metric with its unit")
            if trace == 0:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{label}: end-to-end metrics are positive")
            else:
                values = {name: m["value"] for name, m in result["metrics"].items()}
                expect(all(values.get(n, 0) > 0 for n in CALLED[workload]),
                       f"{label}: {', '.join(CALLED[workload])} > 0")
                expect(all(values.get(n) == 0 for n in BYPASSED[workload]),
                       f"{label}: bypassed layers read 0 calls")

        pinned = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
        name, digest = next(iter(pinned["tiny"][workload].items()))
        pinned["tiny"][workload][name] = ("0" if digest[0] != "0" else "1") + digest[1:]
        corrupt = RESULTS / "corrupt-digests.json"
        corrupt.write_text(json.dumps(pinned), encoding="utf-8")
        code, result = bench(ROOT, *tiny, "--seed", "1", "--pinned", str(corrupt))
        expect(code == 1 and result is not None and not result["correct"]
               and result["failed"] == result["attempted"],
               f"{workload}: a corrupted pinned digest fails every run")

    with tempfile.TemporaryDirectory(dir=RESULTS) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        code, result = bench(Path(bare), "--workload", config["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0")
        expect(code != 0 and result is None, "without src/: non-zero exit, no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
