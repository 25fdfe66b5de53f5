"""Coalition-based spectrum negotiation simulator.

A deterministic discrete-event model of channel negotiation between
primary-user and secondary-user coalitions in a cognitive-radio network,
built around a reusable TOPSIS multi-criteria decision engine.
"""

from .coalitions import ParamRegistry, best_offer, form_coalitions, rank_offers, register_params
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentSpec,
    MetricsTable,
    expected_messages,
    experiment_spec,
    generate_scenario,
    run_experiment,
)
from .kernel import RunReport, SimulationCapExceeded, World, run
from .model import (
    CRITERIA_SENSES,
    CRITERION_LABELS,
    DEFAULT_WEIGHTS,
    Coordinator,
    MembershipOverride,
    Offer,
    PrimaryUser,
    Scenario,
    SecondaryUser,
    TimingConstants,
    Zone,
    validate,
)
from .protocol import (
    Allocation,
    Demand,
    Message,
    MessageKind,
    TopologyPlan,
    assign_offers,
    handle,
    handle_wake,
    topology_plan,
)
from .topsis import (
    CriterionSense,
    DecisionMatrix,
    TopsisResult,
    apply_weights,
    closeness_and_rank,
    ideal_solutions,
    normalize,
    separations,
    topsis,
)

__version__ = "0.1.0"
