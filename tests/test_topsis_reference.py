"""The plain-Python TOPSIS engine against the numpy pipeline it replaced.

For 2-7 criteria (and for 1 criterion over fewer than 8 alternatives) every
``TopsisResult`` field must equal the numpy reference exactly: both sum left
to right. Elsewhere numpy sums a row pairwise, so only rounding may differ.
"""

import importlib
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

import _numpy_reference as reference  # noqa: E402
from conftest import approx_grid  # noqa: E402
from specnego.topsis import CriterionSense, DecisionMatrix, TopsisResult  # noqa: E402

# the module, not the function that ``specnego`` re-exports under the same name
engine = importlib.import_module("specnego.topsis")

VALUES = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e300]),  # 1e300 squared overflows the column norm
    st.integers(min_value=0, max_value=1000),
    st.floats(min_value=-1e6, max_value=1e6),
)
WEIGHTS = st.one_of(st.floats(min_value=0.01, max_value=100.0), st.integers(1, 9))


@st.composite
def matrices(draw, criteria, alternatives=st.integers(1, 200)):
    n, m = draw(criteria), draw(alternatives)
    # a drawn pool of values, placed by a drawn generator: large matrices stay cheap
    pool = draw(st.lists(VALUES, min_size=1, max_size=12))
    rng = draw(st.randoms(use_true_random=False))
    scores = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in scores:
            row[j] = 0.0
    for i in draw(st.lists(st.integers(0, m - 1), max_size=4)):
        scores[i] = list(scores[0])
    return DecisionMatrix(
        alternatives=tuple(f"a{i}" for i in range(m)),
        criteria=tuple(f"c{j}" for j in range(n)),
        scores=scores,
        weights=draw(st.lists(WEIGHTS, min_size=n, max_size=n)),
        senses=draw(
            st.lists(st.sampled_from(list(CriterionSense)), min_size=n, max_size=n)
        ),
    )


def reference_topsis(matrix):
    with np.errstate(over="ignore"):
        return reference.topsis(matrix)


@given(st.one_of(matrices(st.integers(2, 7)), matrices(st.just(1), st.integers(1, 7))))
@settings(max_examples=300, deadline=None)
def test_every_field_equals_the_numpy_reference(matrix):
    ours, theirs = engine.topsis(matrix), reference_topsis(matrix)
    for field in fields(TopsisResult):
        assert getattr(ours, field.name) == getattr(theirs, field.name), field.name


@given(st.one_of(matrices(st.integers(8, 12)), matrices(st.just(1), st.integers(8, 200))))
@settings(max_examples=60, deadline=None)
def test_pairwise_sums_differ_only_by_rounding(matrix):
    ours, theirs = engine.topsis(matrix), reference_topsis(matrix)
    assert ours.normalized == approx_grid(theirs.normalized)
    assert ours.weighted == approx_grid(theirs.weighted)
    for name in ("ideal", "anti_ideal", "sep_ideal", "sep_anti", "closeness"):
        assert getattr(ours, name) == pytest.approx(getattr(theirs, name)), name
    # near-ties may swap places, so compare the closeness in ranked order
    assert [ours.closeness[i] for i in ours.ranking] == pytest.approx(
        sorted(theirs.closeness, reverse=True)
    )


@pytest.mark.parametrize("stage, args", [
    ("apply_weights", ([[1, 2], [3, 4]], (1, 3))),
    ("ideal_solutions", ([[1, 2], [3, 4]], (CriterionSense.BENEFIT, CriterionSense.COST))),
    ("separations", ([[1, 2], [3, 4]], [3, 2], [1, 4])),
    ("closeness_and_rank", ([1, 0], [1, 2])),
])
def test_stages_given_ints_return_the_reference_floats(stage, args):
    # repr tells 1 from 1.0: every value must be the reference's Python float
    assert repr(getattr(engine, stage)(*args)) == repr(getattr(reference, stage)(*args))
