import pytest

import specnego.coalitions
from specnego import CriterionSense, DecisionMatrix, generate_scenario, run


@pytest.fixture(autouse=True)
def fresh_ranking_memo():
    """Start every test with an empty ``rank_offers`` memo, so that a test that
    counts TOPSIS calls does not depend on the tests that ran before it."""
    specnego.coalitions._ranking.cache_clear()

# The classic car-choice tutorial matrix. All four criteria are evaluated as
# benefit criteria (the example's reference tables take the column maximum
# for the ideal point even on the cost column).
CAR_ALTERNATIVES = ("Civic", "Saturn", "Ford", "Mazda")
CAR_CRITERIA = ("style", "reliability", "fuel_economy", "cost")
CAR_SCORES = ((7, 9, 9, 8), (8, 7, 8, 7), (9, 6, 8, 9), (6, 7, 8, 6))
CAR_WEIGHTS = (0.1, 0.4, 0.3, 0.2)

# Reference intermediate tables (rounded; each stage was computed from the
# previous rounded stage).
CAR_NORMALIZED_2DP = (
    (0.46, 0.61, 0.54, 0.53),
    (0.53, 0.48, 0.48, 0.46),
    (0.59, 0.41, 0.48, 0.59),
    (0.40, 0.48, 0.48, 0.40),
)
CAR_WEIGHTED_3DP = (
    (0.046, 0.244, 0.162, 0.106),
    (0.053, 0.192, 0.144, 0.092),
    (0.059, 0.164, 0.144, 0.118),
    (0.040, 0.192, 0.144, 0.080),
)
CAR_IDEAL = (0.059, 0.244, 0.162, 0.118)
CAR_ANTI_IDEAL = (0.040, 0.164, 0.144, 0.080)
CAR_CIVIC_SEP_IDEAL = 0.01769

# Full-precision closeness from the raw matrix, frozen from the brute-force
# oracle in _oracle.py.
CAR_CLOSENESS_FULL = (
    0.8253371673567511,
    0.34190932904585775,
    0.34540019614341616,
    0.27327358427611126,
)


def approx_grid(rows, **tolerance):
    """``pytest.approx`` for a list of rows (``approx`` takes no nested lists)."""
    return [pytest.approx(row, **tolerance) for row in rows]


@pytest.fixture
def car_matrix() -> DecisionMatrix:
    return DecisionMatrix(
        alternatives=CAR_ALTERNATIVES,
        criteria=CAR_CRITERIA,
        scores=CAR_SCORES,
        weights=CAR_WEIGHTS,
        senses=(CriterionSense.BENEFIT,) * 4,
    )


@pytest.fixture(scope="session")
def bulk_run():
    """200 PUs x 1000 SUs without coalitions, 401,000 events: (scenario, report).

    Run once per session: the tests that read it only read it.
    """
    scenario = generate_scenario("no_coalition", 200, 0, (1000,), seed=1)
    return scenario, run(scenario)
