"""Vector-normalized TOPSIS ranking engine.

The classic six-step pipeline: normalize each criterion column by its
Euclidean norm, apply criterion weights, locate the ideal and anti-ideal
reference points, measure the Euclidean separation of every alternative
from both, and rank by relative closeness to the ideal.

All stages are exposed individually so intermediate grids can be inspected
or verified stage by stage; :func:`topsis` composes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

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


def normalize(matrix: DecisionMatrix) -> list[list[float]]:
    """Divide each column by its Euclidean norm.

    A column whose norm is zero (all scores zero) is mapped to all zeros:
    a constant-zero criterion carries no preference information.
    """
    x = np.asarray(matrix.scores, dtype=float)
    norms = np.sqrt((x * x).sum(axis=0))
    r = x / np.where(norms == 0.0, 1.0, norms)
    return r.tolist()


def apply_weights(
    normalized: Sequence[Sequence[float]], weights: Sequence[float]
) -> list[list[float]]:
    """Scale each normalized column by its weight (weights divided by their sum)."""
    r = np.asarray(normalized, dtype=float)
    w = np.asarray(weights, dtype=float)
    if r.ndim != 2 or w.ndim != 1 or r.shape[1] != w.shape[0]:
        raise ValueError(
            f"grid of shape {r.shape} does not match weight vector of length {w.shape}"
        )
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be positive finite numbers")
    return (r * (w / w.sum())).tolist()


def ideal_solutions(
    weighted: Sequence[Sequence[float]], senses: Sequence[CriterionSense]
) -> tuple[list[float], list[float]]:
    """Column-wise best (ideal) and worst (anti-ideal) weighted values.

    Benefit columns contribute their maximum to the ideal point and their
    minimum to the anti-ideal point; cost columns the reverse.
    """
    v = np.asarray(weighted, dtype=float)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError("weighted grid must be a nonempty 2-D array")
    if v.shape[1] != len(senses):
        raise ValueError(f"grid has {v.shape[1]} columns but {len(senses)} senses given")
    benefit = np.array([s is CriterionSense.BENEFIT for s in senses])
    ideal = np.where(benefit, v.max(axis=0), v.min(axis=0))
    anti = np.where(benefit, v.min(axis=0), v.max(axis=0))
    return ideal.tolist(), anti.tolist()


def separations(
    weighted: Sequence[Sequence[float]],
    ideal: Sequence[float],
    anti_ideal: Sequence[float],
) -> tuple[list[float], list[float]]:
    """Euclidean distance of every row from the ideal and anti-ideal points."""
    v = np.asarray(weighted, dtype=float)
    a_star = np.asarray(ideal, dtype=float)
    a_anti = np.asarray(anti_ideal, dtype=float)
    if v.ndim != 2 or v.shape[1] != a_star.shape[0] or v.shape[1] != a_anti.shape[0]:
        raise ValueError("weighted grid and reference points disagree on column count")
    sep_ideal = np.sqrt(((v - a_star) ** 2).sum(axis=1))
    sep_anti = np.sqrt(((v - a_anti) ** 2).sum(axis=1))
    return sep_ideal.tolist(), sep_anti.tolist()


def closeness_and_rank(
    sep_ideal: Sequence[float], sep_anti: Sequence[float]
) -> tuple[list[float], list[int]]:
    """Relative closeness C* = S' / (S* + S') and the best-first ranking.

    When both separations are zero the alternative coincides with both
    reference points (every alternative is identical); closeness is then 1
    so a singleton matrix ranks its only option as ideal.
    """
    s_star = np.asarray(sep_ideal, dtype=float)
    s_anti = np.asarray(sep_anti, dtype=float)
    if s_star.shape != s_anti.shape or s_star.ndim != 1:
        raise ValueError("separation vectors must be 1-D and of equal length")
    if np.any(s_star < 0.0) or np.any(s_anti < 0.0):
        raise ValueError("separations must be non-negative")
    total = s_star + s_anti
    closeness = np.where(total == 0.0, 1.0, s_anti / np.where(total == 0.0, 1.0, total))
    ranking = np.lexsort((np.arange(len(closeness)), -closeness))
    return closeness.tolist(), [int(i) for i in ranking]


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
