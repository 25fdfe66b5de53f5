"""The numpy TOPSIS pipeline that ``specnego.topsis`` replaced, kept as a test reference.

The stage functions below are the former numpy implementation, verbatim.
``test_topsis_reference.py`` checks the plain-Python engine against them.
Column sums over axis 0 and row sums of fewer than 8 entries are left to
right in numpy, as in the engine; longer row sums are pairwise, so for 8 or
more criteria (or 1 criterion over 8 or more alternatives) the two agree
only to rounding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from specnego.topsis import CriterionSense, DecisionMatrix, TopsisResult


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
