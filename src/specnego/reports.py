"""Deterministic file exports for run reports and experiment tables.

Every renderer is a pure string builder, so re-exporting the same report or
table produces byte-identical files. Floats are written with ``repr`` (exact
round-trip form); CSV uses ``,`` separators and ``.`` decimal points, and a
field holding an agent id is quoted when the id needs it (``csv_field``).
``events.jsonl`` is rendered in blocks of ``EVENT_BLOCK`` (1,000) lines,
which :func:`export_report` writes as they are made, so the whole text of a
long run is never held. :func:`render_events_jsonl`, which must return the text,
holds it once: it grows one string block by block (``+=``) instead of
joining a list of every block, which would hold the text twice.
Profile it with ``perfbench/run.py --trace 1``, not cProfile or coverage: on
CPython 3.11 that ``+=`` copies the text so far while ``sys.setprofile`` or
``sys.settrace`` is active (a 401,000-event log took 5-9 s to render under a
no-op ``sys.setprofile``, against 0.2-0.7 s without, on a 2-vCPU Xeon).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

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


EVENT_BLOCK = 1_000  # events.jsonl lines rendered (and written) at a time


def _event_blocks(report: RunReport) -> Iterator[str]:
    """``events.jsonl`` in blocks of ``EVENT_BLOCK`` lines.

    Each line is one compact JSON object, byte for byte what ``json.dumps``
    writes, built by one f-string from parts made once per run, per payload
    code or per agent id. A time is its ``repr``, as ``json`` writes a finite
    float; the kernel never logs an inf time. A block may hold many runs.
    """
    size, log, dumps = EVENT_BLOCK, report.event_log, json.dumps
    heads = [f',"kind":{dumps(kind)},"from":' for kind, _ in log.KINDS]
    tails = [f',"payload_kind":{dumps(payload_kind)}}}\n' for _, payload_kind in log.KINDS]
    ids = list(map(dumps, log.ids))
    block = []
    for time, rows in log.runs(size):
        prefix = f'{{"time":{time!r},"seq":'
        block += [
            f'{prefix}{seq}{heads[code]}{ids[sender]},"to":{ids[recipient]}{tails[code]}'
            for seq, code, sender, recipient in rows
        ]
        if len(block) == size:  # the log cuts its runs at every multiple of size
            yield "".join(block)
            block = []
    if block:
        yield "".join(block)


def render_events_jsonl(report: RunReport) -> str:
    """One compact JSON object per event, each line ended by a newline.

    The text is held once, plus the block being added. ``"".join`` over the
    blocks would keep every block alive until the joined copy is complete,
    about twice the text at once (some 2 GB near the 10M-event cap). PEP 8
    warns against relying on ``+=`` for strings, but here it is what bounds
    memory: CPython resizes a string in place when the left operand's
    variable holds its only reference, and a buffer this large is grown by
    ``realloc`` without a copy. An interpreter without that optimization
    writes the same text, only with more time and memory; see the module
    docstring for what that costs under a profiler.
    ``tests/test_cli.py`` pins the bound.
    """
    text = ""
    for block in _event_blocks(report):
        text += block
    return text


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


def write_files(out_dir: str | Path, files: dict[str, str | Iterable[str]]) -> list[Path]:
    """Write each ``{name: text}`` into ``out_dir`` as UTF-8; returns the paths in order.

    A text is a string or an iterable of strings written one after another.
    A failed write raises ``OSError("cannot write <path>: ...")``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in files.items():
        path = out / name
        try:
            with open(path, "wb") as stream:
                for chunk in (text,) if isinstance(text, str) else text:
                    stream.write(chunk.encode("utf-8"))
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        written.append(path)
    return written


def export_report(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Write metrics.csv, events.jsonl, and allocations.csv into ``out_dir``."""
    return write_files(out_dir, {
        "metrics.csv": render_metrics_csv(report),
        "events.jsonl": _event_blocks(report),
        "allocations.csv": render_allocations_csv(report),
    })
