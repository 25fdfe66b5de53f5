"""Command-line entry point.

Subcommands::

    specnego run <scenario.json> [--out DIR]
    specnego experiment <exp_i|exp_ii|exp_iii|exp_iv> [--out DIR] [--seed N]
                        [--su-sweep 5,10,15] [--no-plots]
    specnego topsis <matrix.csv>
    specnego validate <scenario.json>

Exit codes: 0 success, 2 parse errors (bad JSON/CSV/arguments), 3 scenario
validation failures, 4 runtime errors. The environment variable
``SPECNEGO_EVENT_CAP`` overrides the kernel's event cap.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .charts import render_chart
from .experiments import EXPERIMENT_IDS, STUDIES, experiment_spec, run_experiment
from .kernel import SimulationCapExceeded, run
from .matrix_io import closeness_csv, parse_matrix_csv
from .model import validate
from .reports import export_report, render_table_csv, write_files
from .scenario_io import ScenarioParseError, parse_scenario
from .topsis import topsis

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def _sweep(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}: {exc}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"sweep values must be >= 1, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specnego",
        description="Coalition-based spectrum negotiation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario file")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("./out"))

    p_exp = sub.add_parser("experiment", help="run a built-in study")
    p_exp.add_argument("id", choices=EXPERIMENT_IDS)
    p_exp.add_argument("--out", type=Path, default=Path("./out"))
    p_exp.add_argument("--seed", type=int, default=1)
    p_exp.add_argument("--su-sweep", type=_sweep, default=None,
                       help="comma-separated SU counts (exp_iv only)")
    p_exp.add_argument("--no-plots", action="store_true")

    p_topsis = sub.add_parser("topsis", help="rank a CSV decision matrix")
    p_topsis.add_argument("matrix", type=Path)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", type=Path)

    return parser


def _event_cap() -> int | None:
    raw = os.environ.get("SPECNEGO_EVENT_CAP")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ScenarioParseError(f"SPECNEGO_EVENT_CAP must be an integer, got {raw!r}")


def _load_scenario(path: Path):
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(data)


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    problems = validate(scenario)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return EXIT_VALIDATION
    report = run(scenario, event_cap=_event_cap())
    files = export_report(report, args.out)
    response = "none" if report.run_response is None else f"{report.run_response:g}"
    print(f"messages={report.total_messages} run_response={response} "
          f"quiescent_at={report.quiescent_at:g}")
    for path in files:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    try:
        spec = experiment_spec(args.id, seed=args.seed, su_sweep=args.su_sweep)
    except ValueError as exc:
        print(f"--su-sweep: {exc}", file=sys.stderr)
        return EXIT_PARSE
    table = run_experiment(spec, event_cap=_event_cap())
    files = {f"{args.id}_metrics.csv": render_table_csv(table)}
    if not args.no_plots:
        kind, x, y, series = STUDIES[args.id].chart
        files[f"{args.id}.svg"] = render_chart(table, kind, x, y, series=series)
    for path in write_files(args.out, files):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_topsis(args) -> int:
    try:
        text = args.matrix.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {args.matrix}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        matrix = parse_matrix_csv(text)
    except ValueError as exc:
        print(f"{args.matrix}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(closeness_csv(matrix, topsis(matrix)), end="")
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = _load_scenario(args.scenario)
    problems = validate(scenario)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return EXIT_VALIDATION
    print(f"{args.scenario}: scenario OK")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "topsis":
            return _cmd_topsis(args)
        return _cmd_validate(args)
    except ScenarioParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except (SimulationCapExceeded, RuntimeError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
