"""Vector-normalized TOPSIS ranking engine.

The classic six-step pipeline: normalize each criterion column by its
Euclidean norm, apply criterion weights, locate the ideal and anti-ideal
reference points, measure the Euclidean separation of every alternative
from both, and rank by relative closeness to the ideal.

All stages are exposed individually so intermediate grids can be inspected
or verified stage by stage; :func:`topsis` composes them.

The stages are plain Python, a column at a time with ``map`` and
:mod:`operator`, in a fixed arithmetic order: squares are ``x * x`` and every
sum runs left to right with ``reduce(add, ...)``. Never ``sum()``: from Python
3.12 on it is compensated, so the last digits would depend on the interpreter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce
from itertools import repeat
from operator import add, mul, sub, truediv
from typing import Sequence

__all__ = [
    "CriterionSense",
    "DecisionMatrix",
    "TopsisResult",
    "normalize",
    "apply_weights",
    "ideal_solutions",
    "separations",
    "closeness_and_rank",
    "topsis",
]


class CriterionSense(Enum):
    """Whether a criterion column is to be maximized or minimized."""

    BENEFIT = "benefit"
    COST = "cost"


@dataclass(frozen=True)
class DecisionMatrix:
    """An m-alternatives by n-criteria scoring problem.

    Weights are stored as given; every computation uses them divided by
    their sum, so any positive scaling of the weight vector is equivalent.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[str, ...]
    scores: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]
    senses: tuple[CriterionSense, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "criteria", tuple(self.criteria))
        object.__setattr__(
            self, "scores", tuple(tuple(float(x) for x in row) for row in self.scores)
        )
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "senses", tuple(self.senses))

        m, n = len(self.alternatives), len(self.criteria)
        if m < 1 or n < 1:
            raise ValueError("decision matrix needs at least one alternative and one criterion")
        if len(self.scores) != m:
            raise ValueError(f"expected {m} score rows, got {len(self.scores)}")
        for i, row in enumerate(self.scores):
            if len(row) != n:
                raise ValueError(f"score row {i} has {len(row)} entries, expected {n}")
            for j, x in enumerate(row):
                if not math.isfinite(x):
                    raise ValueError(f"score[{i}][{j}] is not finite: {x}")
        if len(self.weights) != n:
            raise ValueError(f"expected {n} weights, got {len(self.weights)}")
        for j, w in enumerate(self.weights):
            if not math.isfinite(w) or w <= 0.0:
                raise ValueError(f"weight[{j}] must be a positive finite number, got {w}")
        if len(self.senses) != n:
            raise ValueError(f"expected {n} senses, got {len(self.senses)}")
        for j, s in enumerate(self.senses):
            if not isinstance(s, CriterionSense):
                raise ValueError(f"sense[{j}] is not a CriterionSense: {s!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.alternatives), len(self.criteria)


@dataclass(frozen=True)
class TopsisResult:
    """All intermediate grids and the final ranking of a TOPSIS run.

    ``ranking`` lists alternative indices best-first: sorted by closeness
    descending, ties broken by ascending alternative index.
    """

    normalized: list[list[float]]
    weighted: list[list[float]]
    ideal: list[float]
    anti_ideal: list[float]
    sep_ideal: list[float]
    sep_anti: list[float]
    closeness: list[float]
    ranking: list[int]


def _columns(grid: Sequence[Sequence[float]], n: int, problem: str) -> list[tuple[float, ...]]:
    if set(map(len, grid)) != {n}:
        raise ValueError(problem)
    return list(zip(*grid))


def normalize(matrix: DecisionMatrix) -> list[list[float]]:
    """Divide each column by its Euclidean norm.

    A column whose norm is zero (all scores zero) is mapped to all zeros:
    a constant-zero criterion carries no preference information.
    """
    columns = []
    for column in zip(*matrix.scores):
        norm = math.sqrt(reduce(add, map(mul, column, column)))
        columns.append(map(truediv, column, repeat(norm or 1.0)))
    return list(map(list, zip(*columns)))


def apply_weights(
    normalized: Sequence[Sequence[float]], weights: Sequence[float]
) -> list[list[float]]:
    """Scale each normalized column by its weight (weights divided by their sum)."""
    w = list(map(float, weights))
    columns = _columns(normalized, len(w), f"grid rows do not match {len(w)} weights")
    if not all(math.isfinite(x) and x > 0.0 for x in w):
        raise ValueError("weights must be positive finite numbers")
    total = reduce(add, w)
    weighted = [map(mul, column, repeat(x / total)) for column, x in zip(columns, w)]
    return list(map(list, zip(*weighted)))


def ideal_solutions(
    weighted: Sequence[Sequence[float]], senses: Sequence[CriterionSense]
) -> tuple[list[float], list[float]]:
    """Column-wise best (ideal) and worst (anti-ideal) weighted values.

    Benefit columns contribute their maximum to the ideal point and their
    minimum to the anti-ideal point; cost columns the reverse.
    """
    columns = _columns(weighted, len(senses), f"grid must be nonempty with {len(senses)} columns")
    ideal, anti = [], []
    for column, sense in zip(columns, senses):
        high, low = float(max(column)), float(min(column))
        benefit = sense is CriterionSense.BENEFIT
        ideal.append(high if benefit else low)
        anti.append(low if benefit else high)
    return ideal, anti


def separations(
    weighted: Sequence[Sequence[float]],
    ideal: Sequence[float],
    anti_ideal: Sequence[float],
) -> tuple[list[float], list[float]]:
    """Euclidean distance of every row from the ideal and anti-ideal points."""
    problem = "weighted grid and reference points disagree on column count"
    if len(ideal) != len(anti_ideal):
        raise ValueError(problem)
    columns = _columns(weighted, len(ideal), problem)
    return _distances(columns, ideal), _distances(columns, anti_ideal)


def _distances(columns: list[tuple[float, ...]], point: Sequence[float]) -> list[float]:
    """Each row's distance from ``point``; a row's squares add left to right."""
    squares = []
    for column, p in zip(columns, point):
        d = list(map(sub, column, repeat(float(p))))
        squares.append(map(mul, d, d))
    return list(map(math.sqrt, reduce(partial(map, add), squares)))


def closeness_and_rank(
    sep_ideal: Sequence[float], sep_anti: Sequence[float]
) -> tuple[list[float], list[int]]:
    """Relative closeness C* = S' / (S* + S') and the best-first ranking.

    When both separations are zero the alternative coincides with both
    reference points (every alternative is identical); closeness is then 1
    so a singleton matrix ranks its only option as ideal.
    """
    s_star, s_anti = list(map(float, sep_ideal)), list(map(float, sep_anti))
    if len(s_star) != len(s_anti):
        raise ValueError("separation vectors must be of equal length")
    if any(s < 0.0 for s in s_star + s_anti):
        raise ValueError("separations must be non-negative")
    closeness = [a / total if (total := s + a) else 1.0 for s, a in zip(s_star, s_anti)]
    # a stable sort: equal closeness keeps ascending index order
    ranking = sorted(range(len(closeness)), key=closeness.__getitem__, reverse=True)
    return closeness, ranking


def topsis(matrix: DecisionMatrix) -> TopsisResult:
    """Run the full pipeline over a decision matrix."""
    normalized = normalize(matrix)
    weighted = apply_weights(normalized, matrix.weights)
    ideal, anti_ideal = ideal_solutions(weighted, matrix.senses)
    sep_ideal, sep_anti = separations(weighted, ideal, anti_ideal)
    closeness, ranking = closeness_and_rank(sep_ideal, sep_anti)
    return TopsisResult(
        normalized=normalized,
        weighted=weighted,
        ideal=ideal,
        anti_ideal=anti_ideal,
        sep_ideal=sep_ideal,
        sep_anti=sep_anti,
        closeness=closeness,
        ranking=ranking,
    )
