"""Unit and property tests for the TOPSIS engine."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracle import oracle_topsis
from conftest import (
    CAR_ANTI_IDEAL,
    CAR_CIVIC_SEP_IDEAL,
    CAR_CLOSENESS_FULL,
    CAR_IDEAL,
    CAR_NORMALIZED_2DP,
    CAR_WEIGHTED_3DP,
    CAR_WEIGHTS,
    approx_grid,
)
from specnego import (
    CriterionSense,
    DecisionMatrix,
    apply_weights,
    closeness_and_rank,
    ideal_solutions,
    normalize,
    separations,
    topsis,
)

B, C = CriterionSense.BENEFIT, CriterionSense.COST


def make_matrix(scores, weights=None, senses=None):
    m, n = len(scores), len(scores[0])
    return DecisionMatrix(
        alternatives=tuple(f"a{i}" for i in range(m)),
        criteria=tuple(f"c{j}" for j in range(n)),
        scores=scores,
        weights=weights or (1.0,) * n,
        senses=senses or (B,) * n,
    )


# ---------------------------------------------------------------------------
# DecisionMatrix invariants
# ---------------------------------------------------------------------------


class TestDecisionMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DecisionMatrix((), (), (), (), ())

    def test_rejects_non_finite_score(self):
        with pytest.raises(ValueError, match="finite"):
            make_matrix(((1.0, float("nan")),))

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            make_matrix(((1.0, 2.0),), weights=(1.0, 0.0))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            make_matrix(((1.0, 2.0), (1.0,)))

    def test_weights_stored_as_given(self):
        matrix = make_matrix(((1.0, 2.0),), weights=(2.0, 8.0))
        assert matrix.weights == (2.0, 8.0)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


class TestNormalize:
    def test_car_matrix_matches_reference_table(self, car_matrix):
        r = normalize(car_matrix)
        assert r == approx_grid(CAR_NORMALIZED_2DP, abs=0.005)

    def test_car_style_column(self, car_matrix):
        # column (7, 8, 9, 6), norm sqrt(230)
        r = normalize(car_matrix)
        column = [row[0] for row in r]
        assert column == pytest.approx([x / math.sqrt(230) for x in (7, 8, 9, 6)])
        assert [round(x, 2) for x in column] == [0.46, 0.53, 0.59, 0.40]

    def test_single_alternative_self_normalizes(self):
        assert normalize(make_matrix(((5.0,),))) == [[1.0]]

    def test_zero_column_maps_to_zero(self):
        r = normalize(make_matrix(((0.0, 1.0), (0.0, 1.0))))
        assert [row[0] for row in r] == [0.0, 0.0]

    def test_unit_column_norms(self):
        r = normalize(make_matrix(((3.0, 1.0), (4.0, 2.0))))
        norms = [math.hypot(*column) for column in zip(*r)]
        assert norms == pytest.approx([1.0, 1.0], rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# apply_weights
# ---------------------------------------------------------------------------


class TestApplyWeights:
    def test_reference_weighted_table(self):
        # Applying the weights to the reference (rounded) normalized grid
        # reproduces the reference weighted grid exactly.
        v = apply_weights(CAR_NORMALIZED_2DP, CAR_WEIGHTS)
        assert v == approx_grid(CAR_WEIGHTED_3DP, abs=1e-12)

    def test_civic_row(self):
        v = apply_weights(CAR_NORMALIZED_2DP, CAR_WEIGHTS)
        assert v[0] == pytest.approx([0.046, 0.244, 0.162, 0.106], abs=1e-3)

    def test_weight_scaling_is_internalized(self):
        scaled = apply_weights(CAR_NORMALIZED_2DP, (2, 8, 6, 4))
        plain = apply_weights(CAR_NORMALIZED_2DP, CAR_WEIGHTS)
        assert scaled == approx_grid(plain, abs=1e-12)

    def test_identity_weight(self):
        assert apply_weights([[1.0], [0.8]], (1.0,)) == [[1.0], [0.8]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_weights([[1.0, 2.0]], (1.0,))


# ---------------------------------------------------------------------------
# ideal_solutions
# ---------------------------------------------------------------------------


class TestIdealSolutions:
    def test_reference_points(self):
        ideal, anti = ideal_solutions(CAR_WEIGHTED_3DP, (B, B, B, B))
        assert ideal == pytest.approx(CAR_IDEAL, abs=1e-12)
        assert anti == pytest.approx(CAR_ANTI_IDEAL, abs=1e-12)

    def test_single_row_degenerate(self):
        ideal, anti = ideal_solutions([[1.0, 2.0]], (B, C))
        assert ideal == anti == [1.0, 2.0]

    def test_cost_sense_reverses(self):
        ideal, anti = ideal_solutions([[1.0, 1.0], [2.0, 2.0]], (B, C))
        assert ideal == [2.0, 1.0]
        assert anti == [1.0, 2.0]

    def test_sense_count_mismatch(self):
        with pytest.raises(ValueError):
            ideal_solutions([[1.0, 2.0]], (B,))


# ---------------------------------------------------------------------------
# separations
# ---------------------------------------------------------------------------


class TestSeparations:
    def test_civic_ideal_separation_from_reference_grid(self):
        ideal, anti = ideal_solutions(CAR_WEIGHTED_3DP, (B, B, B, B))
        sep_ideal, _ = separations(CAR_WEIGHTED_3DP, ideal, anti)
        assert sep_ideal[0] == pytest.approx(CAR_CIVIC_SEP_IDEAL, abs=5e-4)

    def test_civic_anti_separation_full_precision(self, car_matrix):
        # The reference anti-ideal table is internally inconsistent; the
        # full-precision recomputation gives 0.0881.
        result = topsis(car_matrix)
        assert result.sep_anti[0] == pytest.approx(0.0881, abs=1e-3)
        expected = oracle_topsis(car_matrix.scores, car_matrix.weights, ["benefit"] * 4)
        assert result.sep_anti == pytest.approx(expected["sep_anti"], abs=1e-9)

    def test_row_at_ideal_has_zero_separation(self):
        sep_ideal, sep_anti = separations([[1.0, 2.0], [0.5, 1.0]], [1.0, 2.0], [0.5, 1.0])
        assert sep_ideal[0] == 0.0
        assert sep_anti[1] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            separations([[1.0, 2.0]], [1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# closeness_and_rank
# ---------------------------------------------------------------------------


class TestClosenessAndRank:
    def test_car_best_and_worst(self, car_matrix):
        result = topsis(car_matrix)
        assert result.ranking[0] == 0  # Civic
        assert result.ranking[-1] == 3  # Mazda

    def test_degenerate_single_identical_alternative(self):
        closeness, ranking = closeness_and_rank([0.0], [0.0])
        assert closeness == [1.0]
        assert ranking == [0]

    def test_car_full_precision_closeness(self, car_matrix):
        result = topsis(car_matrix)
        assert result.closeness == pytest.approx(CAR_CLOSENESS_FULL, abs=1e-9)

    def test_ties_break_by_ascending_index(self):
        closeness, ranking = closeness_and_rank([1.0, 1.0, 0.5], [1.0, 1.0, 0.5])
        assert closeness == [0.5, 0.5, 0.5]
        assert ranking == [0, 1, 2]

    def test_rejects_negative_separation(self):
        with pytest.raises(ValueError):
            closeness_and_rank([-0.1], [0.5])


# ---------------------------------------------------------------------------
# topsis pipeline
# ---------------------------------------------------------------------------


class TestPipeline:
    def test_result_fields_mutually_consistent(self, car_matrix):
        result = topsis(car_matrix)
        assert result.normalized == normalize(car_matrix)
        assert result.weighted == apply_weights(result.normalized, car_matrix.weights)
        ideal, anti = ideal_solutions(result.weighted, car_matrix.senses)
        assert (result.ideal, result.anti_ideal) == (ideal, anti)
        sep_ideal, sep_anti = separations(result.weighted, ideal, anti)
        assert (result.sep_ideal, result.sep_anti) == (sep_ideal, sep_anti)

    def test_single_alternative(self):
        result = topsis(make_matrix(((5.0, 2.0),)))
        assert result.closeness == [1.0]
        assert result.ranking == [0]

    def test_identical_rows_tie(self):
        result = topsis(make_matrix(((1.0, 2.0), (1.0, 2.0))))
        assert result.closeness[0] == result.closeness[1]
        assert result.ranking == [0, 1]


# ---------------------------------------------------------------------------
# Malformed input: each check names its defect
# ---------------------------------------------------------------------------


def _matrix_with(**field):
    fields = dict(alternatives=("a0", "a1"), criteria=("c0", "c1"),
                  scores=((1.0, 2.0), (3.0, 4.0)), weights=(1.0, 1.0), senses=(B, C))
    return lambda: DecisionMatrix(**{**fields, **field})


@pytest.mark.parametrize("call, message", [
    (_matrix_with(scores=((1.0, 2.0),)), "expected 2 score rows, got 1"),
    (_matrix_with(weights=(1.0,)), "expected 2 weights, got 1"),
    (_matrix_with(senses=(B,)), "expected 2 senses, got 1"),
    (_matrix_with(senses=(B, "cost")), "sense[1] is not a CriterionSense: 'cost'"),
    (lambda: apply_weights([[1.0, 2.0]], (1.0, -0.5)), "weights must be positive finite numbers"),
    (lambda: closeness_and_rank([0.1, 0.2], [0.5]), "separation vectors must be of equal length"),
], ids=["score_rows", "weights_count", "senses_count", "sense_type", "weights_sign",
        "separation_lengths"])
def test_malformed_input_names_its_defect(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(
                    st.floats(min_value=0.1, max_value=100.0), min_size=n, max_size=n
                ),
                min_size=m,
                max_size=m,
            ),
            st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=n, max_size=n),
            st.lists(st.sampled_from([B, C]), min_size=n, max_size=n),
        )
    )
)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_property_matches_oracle(data):
    scores, weights, senses = data
    result = topsis(make_matrix(scores, tuple(weights), tuple(senses)))
    expected = oracle_topsis(scores, weights, [s.value for s in senses])
    assert result.closeness == pytest.approx(expected["closeness"], abs=1e-9)
    assert result.ranking == expected["ranking"]


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_property_closeness_in_unit_interval(data):
    scores, weights, senses = data
    result = topsis(make_matrix(scores, tuple(weights), tuple(senses)))
    assert all(0.0 <= c <= 1.0 for c in result.closeness)


@given(matrices, st.integers(min_value=-20, max_value=20), st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_property_column_scale_invariance(data, exponent, column):
    # Powers of two scale exactly in binary floating point, so the
    # normalized grid (and everything after it) must be bitwise equal.
    scores, weights, senses = data
    column %= len(scores[0])
    factor = 2.0 ** exponent
    scaled = [
        [x * factor if j == column else x for j, x in enumerate(row)] for row in scores
    ]
    base = topsis(make_matrix(scores, tuple(weights), tuple(senses)))
    other = topsis(make_matrix(scaled, tuple(weights), tuple(senses)))
    assert other.normalized == base.normalized
    assert other.closeness == base.closeness
    assert other.ranking == base.ranking


@given(matrices, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_property_weight_scale_invariance(data, factor):
    scores, weights, senses = data
    base = topsis(make_matrix(scores, tuple(weights), tuple(senses)))
    other = topsis(
        make_matrix(scores, tuple(w * factor for w in weights), tuple(senses))
    )
    assert other.closeness == pytest.approx(base.closeness, abs=1e-12)
    assert other.ranking == base.ranking


@given(matrices, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_property_row_permutation_equivariance(data, rng):
    scores, weights, senses = data
    m = len(scores)
    permutation = list(range(m))
    rng.shuffle(permutation)
    base = topsis(make_matrix(scores, tuple(weights), tuple(senses)))
    gaps = [
        abs(a - b)
        for i, a in enumerate(base.closeness)
        for b in base.closeness[i + 1 :]
    ]
    assume(all(g > 1e-9 for g in gaps))  # ties break by index, which permutes
    permuted = topsis(
        make_matrix([scores[k] for k in permutation], tuple(weights), tuple(senses))
    )
    assert permuted.closeness == pytest.approx(
        [base.closeness[k] for k in permutation], abs=1e-9
    )
    assert [permutation[i] for i in permuted.ranking] == base.ranking


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_property_dominant_and_dominated_rows(data):
    # A row equal to the ideal point gets closeness exactly 1; a row equal
    # to the anti-ideal point gets exactly 0 (unless it is also ideal).
    scores, weights, senses = data
    columns = list(zip(*scores))
    best = [
        max(col) if sense is B else min(col) for col, sense in zip(columns, senses)
    ]
    worst = [
        min(col) if sense is B else max(col) for col, sense in zip(columns, senses)
    ]
    augmented = [list(best)] + [list(row) for row in scores] + [list(worst)]
    result = topsis(make_matrix(augmented, tuple(weights), tuple(senses)))
    assert result.closeness[0] == max(result.closeness)
    assert result.closeness[0] == 1.0
    if best != worst:
        assert result.closeness[-1] == 0.0
