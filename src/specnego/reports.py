"""Deterministic file exports for run reports and experiment tables.

Every renderer is a pure string builder, so re-exporting the same report or
table produces byte-identical files. Floats are written with ``repr`` (exact
round-trip form); CSV uses ``,`` separators and ``.`` decimal points, and a
field holding an agent id is quoted when the id needs it (``csv_field``).
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path

from .experiments import KIND_COLUMNS, MetricsTable
from .kernel import RunReport
from .matrix_io import csv_field

__all__ = [
    "render_metrics_csv",
    "render_events_jsonl",
    "render_allocations_csv",
    "render_table_csv",
    "write_files",
    "export_report",
]


def _value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_metrics_csv(report: RunReport) -> str:
    lines = ["metric,value"]
    lines.append(f"total_messages,{report.total_messages}")
    for kind in KIND_COLUMNS:
        lines.append(f"messages_{kind},{report.msg_counts[kind]}")
    lines.append(f"run_response,{_value(report.run_response)}")
    lines.append(f"quiescent_at,{_value(report.quiescent_at)}")
    served = sum(1 for v in report.per_su_response.values() if v is not None)
    lines.append(f"served,{served}")
    lines.append(f"unserved,{len(report.per_su_response) - served}")
    lines.append(f"allocations,{len(report.allocations)}")
    lines.append(f"protocol_violations,{len(report.protocol_violations)}")
    for su_id in sorted(report.per_su_response):
        value = report.per_su_response[su_id]
        field = csv_field(f"response_{su_id}")
        lines.append(f"{field},{'unserved' if value is None else _value(value)}")
    return "\n".join(lines) + "\n"


def render_events_jsonl(report: RunReport) -> str:
    """One compact JSON object per event, byte for byte what ``json.dumps`` writes.

    Each distinct string (agent id, kind, payload kind) is JSON-encoded once
    per render; a time is its ``repr``, as ``json`` writes a finite float.
    The kernel never logs a non-finite time: it raises on overflow instead.
    """
    enc = cache(json.dumps)
    lines = [
        f'{{"time":{time!r},"seq":{seq},'
        f'"kind":{enc(kind)},"from":{enc(sender)},"to":{enc(recipient)},'
        f'"payload_kind":{enc(payload_kind)}}}'
        for time, seq, kind, sender, recipient, payload_kind in report.event_log
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def render_allocations_csv(report: RunReport) -> str:
    lines = ["su_id,pu_id,cpu_id,granted_channels,offer_channels,price,alloc_time"]
    for a in report.allocations:
        lines.append(
            f"{csv_field(a.su_id)},{csv_field(a.offer.pu_id)},{csv_field(a.offer.cpu_id)},"
            f"{a.granted_channels},{a.offer.channels},{a.offer.price!r},{a.offer.alloc_time!r}"
        )
    return "\n".join(lines) + "\n"


def render_table_csv(table: MetricsTable) -> str:
    lines = [f"# {note}" for note in table.notes]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_value(cell) for cell in row))
    return "\n".join(lines) + "\n"


def write_files(out_dir: str | Path, files: dict[str, str]) -> list[Path]:
    """Write each ``{name: text}`` into ``out_dir`` as UTF-8; returns the paths in order.

    A failed write raises ``OSError("cannot write <path>: ...")``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in files.items():
        path = out / name
        try:
            path.write_bytes(text.encode("utf-8"))
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        written.append(path)
    return written


def export_report(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Write metrics.csv, events.jsonl, and allocations.csv into ``out_dir``."""
    return write_files(out_dir, {
        "metrics.csv": render_metrics_csv(report),
        "events.jsonl": render_events_jsonl(report),
        "allocations.csv": render_allocations_csv(report),
    })
