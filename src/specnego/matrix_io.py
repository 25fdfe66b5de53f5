"""CSV layout for standalone decision matrices and closeness output.

Input layout (cell A1 is ignored, as are the label cells of the weights and
senses rows)::

    alternative,channels,price,alloc_time
    weights,0.2,0.5,0.3
    senses,benefit,cost,benefit
    pu1,3,5.0,30
    pu2,5,9.0,45

Output lists every alternative in input order with its closeness
coefficient and 1-based rank. A text field that holds ``,``, ``"``, CR or LF
is quoted as RFC 4180 says (:func:`csv_field`), here and in the run exports.
"""

from __future__ import annotations

import csv
import io
import re

from .topsis import CriterionSense, DecisionMatrix, TopsisResult

__all__ = ["parse_matrix_csv", "closeness_csv", "csv_field"]

_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with ``"`` doubled, only when it must be."""
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def parse_matrix_csv(text: str) -> DecisionMatrix:
    """Parse the CSV decision-matrix layout; raises ValueError on any defect."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if len(rows) < 4:
        raise ValueError(
            "matrix CSV needs a header row, a weights row, a senses row, "
            "and at least one alternative row"
        )
    header, weights_row, senses_row, *score_rows = rows
    criteria = tuple(label.strip() for label in header[1:])
    n = len(criteria)
    if n < 1:
        raise ValueError("header row declares no criteria")

    def floats(cells: list[str], what: str) -> tuple[float, ...]:
        if len(cells) != n:
            raise ValueError(f"{what}: expected {n} values, got {len(cells)}")
        try:
            return tuple(float(c) for c in cells)
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from exc

    weights = floats(weights_row[1:], "weights row")

    senses = []
    sense_cells = senses_row[1:]
    if len(sense_cells) != n:
        raise ValueError(f"senses row: expected {n} values, got {len(sense_cells)}")
    for cell in sense_cells:
        token = cell.strip().lower()
        if token == "benefit":
            senses.append(CriterionSense.BENEFIT)
        elif token == "cost":
            senses.append(CriterionSense.COST)
        else:
            raise ValueError(f"senses row: expected 'benefit' or 'cost', got {cell!r}")

    alternatives = []
    scores = []
    for i, row in enumerate(score_rows):
        alternatives.append(row[0].strip())
        scores.append(floats(row[1:], f"row {i + 4}"))

    return DecisionMatrix(
        alternatives=tuple(alternatives),
        criteria=criteria,
        scores=tuple(scores),
        weights=weights,
        senses=tuple(senses),
    )


def closeness_csv(matrix: DecisionMatrix, result: TopsisResult) -> str:
    """Render closeness coefficients and ranks, one row per alternative."""
    rank_of = {alt_index: position + 1 for position, alt_index in enumerate(result.ranking)}
    lines = ["alternative,closeness,rank"]
    for i, name in enumerate(matrix.alternatives):
        lines.append(f"{csv_field(name)},{result.closeness[i]!r},{rank_of[i]}")
    return "\n".join(lines) + "\n"
