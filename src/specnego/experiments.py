"""Scenario generators and the built-in studies.

Each study (``exp_i`` .. ``exp_iv``) is one entry of :data:`STUDIES`: its
configuration, notes, row keys and chart shape, plus a generator of the
runs that :func:`run_experiment` simulates and tabulates.

Scenario generation is fully deterministic from the experiment seed.
Measured response times are simulation-time spans; only orderings and
monotone trends are meaningful, not wall-clock values.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, replace
from typing import ClassVar

from .kernel import run
from .model import (
    DEFAULT_WEIGHTS,
    WIRINGS,
    Coordinator,
    PrimaryUser,
    Scenario,
    SecondaryUser,
    TimingConstants,
    Zone,
    expected_messages,
)
from .protocol import MessageKind

__all__ = [
    "EXPERIMENT_IDS",
    "KIND_COLUMNS",
    "MetricsTable",
    "ExperimentSpec",
    "STUDIES",
    "Study",
    "experiment_spec",
    "expected_messages",
    "generate_scenario",
    "run_experiment",
]

KIND_COLUMNS = tuple(kind.value for kind in MessageKind)

# Generated PU/SU parameter ranges (the studies only compare counts and
# orderings, so the exact ranges are free; they are echoed in every table).
CHANNELS_RANGE = (1, 8)
PRICE_RANGE = (5.0, 20.0)
ALLOC_TIME_RANGE = (10.0, 120.0)
REQUEST_RANGE = (1, 3)
ARRIVAL_SPACING = 100.0
CSU_SIZE = 5  # exp_iv's SU-coalition size


def generate_scenario(
    topology: str,
    pu_count: int,
    cpu_count: int = 0,
    su_groups: tuple[int, ...] = (),
    aggregation: bool = True,
    seed: int = 1,
) -> Scenario:
    """Deterministically generate one experiment scenario.

    ``su_groups`` lists SU-coalition sizes for ``cpu_csu``; for the other
    topologies pass a single group (no SU coordinators are created, the
    grouping only staggers arrivals). ``cpu_count`` is set to 0 where the
    topology forms no PU-coalitions. Within each group the i-th SU arrives
    at (i-1) * 100 time units. Agents are laid out in well-separated zone
    clusters so nearest-coordinator assignment reproduces the intended
    memberships. Weights and timing are the model's defaults.
    """
    if topology not in WIRINGS:
        raise ValueError(f"unknown topology {topology!r}")
    wiring = WIRINGS[topology]
    cpu_count = cpu_count if wiring.pu_coalitions else 0
    csu_count = len(su_groups) if wiring.su_coalitions else 0
    rng = random.Random(seed)

    pus = []
    for j in range(pu_count):
        channels = rng.randint(*CHANNELS_RANGE)
        price = rng.uniform(*PRICE_RANGE)
        alloc_time = rng.uniform(*ALLOC_TIME_RANGE)
        if wiring.pu_coalitions:
            block = j * cpu_count // pu_count
            zone = Zone(100.0 * block + 1.0 + 0.01 * j, 0.0)
        else:
            zone = Zone(10.0 * j, 0.0)
        pus.append(PrimaryUser(f"pu{j:03d}", zone, channels, price, alloc_time))

    sus = []
    index = 0
    for group, size in enumerate(su_groups):
        for position in range(size):
            requested = rng.randint(*REQUEST_RANGE)
            if wiring.su_coalitions:
                zone = Zone(100.0 * group + 1.0 + 0.01 * position, 1000.0)
            else:
                zone = Zone(10.0 * index, 1000.0)
            sus.append(
                SecondaryUser(
                    f"su{index:04d}", zone, requested, ARRIVAL_SPACING * position
                )
            )
            index += 1

    return Scenario(
        topology=topology,
        pus=tuple(pus),
        sus=tuple(sus),
        cpu_coordinators=tuple(
            Coordinator(f"cpu{k:02d}", Zone(100.0 * k, 0.0)) for k in range(cpu_count)
        ),
        csu_coordinators=tuple(
            Coordinator(f"csu{c:03d}", Zone(100.0 * c, 1000.0)) for c in range(csu_count)
        ),
        aggregation=aggregation,
        seed=seed,
    )


@dataclass(frozen=True)
class MetricsTable:
    """One experiment's results: a header note block plus labeled rows."""

    experiment_id: str
    notes: tuple[str, ...]
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class ExperimentSpec:
    """One built-in study's pinned configuration, over a fixed 15 PUs and 5 PU-coalitions."""

    pu_count: ClassVar[int] = 15
    cpu_count: ClassVar[int] = 5
    experiment_id: str
    seed: int = 1
    su_sweep: tuple[int, ...] = ()
    csu_splits: tuple[tuple[int, int], ...] = ()  # (csu_count, sus_per_csu)

    def __post_init__(self) -> None:
        if self.experiment_id not in STUDIES:
            raise ValueError(f"unknown experiment {self.experiment_id!r}")
        splits = [count for split in self.csu_splits for count in split]
        for name, counts in (("su_sweep", self.su_sweep), ("csu_splits", splits)):
            if counts and min(counts) < 1:
                raise ValueError(f"{name}: counts must be >= 1, got {min(counts)!r}")


def _single_csu_runs(spec: ExperimentSpec) -> Iterator[tuple]:
    for su_count in spec.su_sweep:
        yield f"{su_count} SU", (su_count,), "cpu_csu", (su_count,)


def _csu_split_runs(spec: ExperimentSpec) -> Iterator[tuple]:
    for csu_count, per_csu in spec.csu_splits:
        yield f"{csu_count} CSU x {per_csu} SU", (csu_count,), "cpu_csu", (per_csu,) * csu_count


def _topology_runs(spec: ExperimentSpec) -> Iterator[tuple]:
    for topology, wiring in WIRINGS.items():
        for su_count in spec.su_sweep:
            groups = (su_count,)
            if wiring.su_coalitions:
                full, rest = divmod(su_count, CSU_SIZE)
                groups = (CSU_SIZE,) * full + ((rest,) if rest else ())
            yield f"{topology} S={su_count}", (topology, su_count), topology, groups


@dataclass(frozen=True)
class Study:
    """Everything that differs between the built-in studies."""

    defaults: dict  # ExperimentSpec fields other than the id and seed
    title: tuple[str, ...]  # leading note lines
    keys: tuple[str, ...]  # row-key columns between the label and the metrics
    chart: tuple[str, str, str, str | None]  # (kind, x column, y column, series column)
    # yields one (label, row-key cells, topology, su_groups) per run
    runs: Callable[[ExperimentSpec], Iterator[tuple]]
    takes_su_sweep: bool = False  # whether experiment_spec's su_sweep replaces the default


STUDIES = {
    "exp_i": Study(
        {"su_sweep": (1, 2, 3, 4, 5, 10)},
        ("response time vs. SU count in a single SU-coalition",),
        ("su_count",), ("line", "su_count", "run_response", None), _single_csu_runs,
    ),
    "exp_ii": Study(
        {"csu_splits": ((5, 2), (2, 5), (1, 10))},
        ("response time vs. SU-coalition count (10 SUs total)",),
        ("csu_count",), ("bar", "csu_count", "run_response", None), _csu_split_runs,
    ),
    "exp_iii": Study(
        {"csu_splits": ((500, 2), (100, 10), (40, 25), (1, 1000))},
        ("message total vs. SU-coalition count (1000 SUs total)",),
        ("csu_count",), ("line", "csu_count", "total_messages", None), _csu_split_runs,
    ),
    "exp_iv": Study(
        {"su_sweep": (5, 10, 15, 20, 25)},
        ("message totals across the three topologies",
         f"cpu_csu rows aggregate member demands; SU-coalitions sized {CSU_SIZE}"),
        ("topology", "su_count"), ("bar", "su_count", "total_messages", "topology"),
        _topology_runs, takes_su_sweep=True,
    ),
}
EXPERIMENT_IDS = tuple(STUDIES)


def experiment_spec(
    experiment_id: str, seed: int = 1, su_sweep: tuple[int, ...] | None = None
) -> ExperimentSpec:
    """Build the standard spec for a study id.

    ``su_sweep`` replaces the default sweep of a study that takes one
    (exp_iv); the other studies reject it with ValueError.
    """
    spec = ExperimentSpec(experiment_id, seed=seed)  # rejects an unknown id
    study = STUDIES[experiment_id]
    if su_sweep and not study.takes_su_sweep:
        raise ValueError(f"{experiment_id} takes no SU sweep; it runs a fixed configuration set")
    spec = replace(spec, **study.defaults)
    return replace(spec, su_sweep=su_sweep) if su_sweep else spec


def run_experiment(spec: ExperimentSpec, event_cap: int | None = None) -> MetricsTable:
    """Run every configuration of a study and tabulate the metrics."""
    study = STUDIES[spec.experiment_id]
    rows = []
    for label, keys, topology, groups in study.runs(spec):
        scenario = generate_scenario(
            topology, spec.pu_count, spec.cpu_count, groups, seed=spec.seed)
        report = run(scenario, event_cap=event_cap)
        rows.append((label, *keys, report.total_messages, report.run_response)
                    + tuple(report.msg_counts[kind] for kind in KIND_COLUMNS))
    timing = ", ".join(f"{name}={value:g}" for name, value in asdict(TimingConstants()).items())
    notes = list(study.title) + [
        f"seed={spec.seed}; fixed topology: {spec.pu_count} PU over {spec.cpu_count} PU-coalitions",
        f"weights={DEFAULT_WEIGHTS}; timing: {timing}",
        f"generated PU params: channels in {list(CHANNELS_RANGE)}, price in {list(PRICE_RANGE)}, "
        f"alloc_time in {list(ALLOC_TIME_RANGE)}; SU requests in {list(REQUEST_RANGE)}",
        "message totals include the initial PU registration messages (one per PU) "
        "and negative coordinator replies",
        "response times are simulation-time spans (first SU arrival to last SU reply)",
    ]
    columns = ("label",) + study.keys + ("total_messages", "run_response") + KIND_COLUMNS
    return MetricsTable(spec.experiment_id, tuple(notes), columns, tuple(rows))
