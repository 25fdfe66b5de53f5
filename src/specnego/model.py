"""Shared domain model: agents, zones, timing constants, and the scenario.

A :class:`Scenario` is a complete, immutable description of one simulation
run. :func:`validate` reports every invariant violation as data (a list of
path-qualified strings) instead of raising, so callers can surface all
problems at once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, NamedTuple, Sequence

from .topsis import CriterionSense

__all__ = [
    "CRITERION_LABELS",
    "CRITERIA_SENSES",
    "DEFAULT_WEIGHTS",
    "WIRINGS",
    "Wiring",
    "Zone",
    "PrimaryUser",
    "SecondaryUser",
    "Coordinator",
    "Offer",
    "TimingConstants",
    "MembershipOverride",
    "Scenario",
    "coalition_sides",
    "validate",
    "check_override",
    "expected_messages",
]

# Offer criteria, in matrix column order: maximize channels and allocation
# time, minimize price.
CRITERION_LABELS = ("channels", "price", "alloc_time")
CRITERIA_SENSES = (CriterionSense.BENEFIT, CriterionSense.COST, CriterionSense.BENEFIT)
DEFAULT_WEIGHTS = (0.2, 0.5, 0.3)


class Wiring(NamedTuple):
    """The coalitions a topology forms; see :mod:`specnego.protocol` for their messages."""

    pu_coalitions: bool
    su_coalitions: bool

    def asked(self, pus, cpus):
        """Whom every ask goes to: ``cpus`` where PUs form coalitions, else ``pus``."""
        return cpus if self.pu_coalitions else pus


WIRINGS = {
    "no_coalition": Wiring(pu_coalitions=False, su_coalitions=False),
    "cpu_only": Wiring(pu_coalitions=True, su_coalitions=False),
    "cpu_csu": Wiring(pu_coalitions=True, su_coalitions=True),
}


@dataclass(frozen=True)
class Zone:
    """A 2-D point in abstract distance units."""

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))


@dataclass(frozen=True)
class PrimaryUser:
    """A licensed spectrum holder offering channels at a price."""

    id: str
    zone: Zone
    channels: int
    price: float
    alloc_time: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", int(self.channels))
        object.__setattr__(self, "price", float(self.price))
        object.__setattr__(self, "alloc_time", float(self.alloc_time))


@dataclass(frozen=True)
class SecondaryUser:
    """An unlicensed user requesting channels at a given simulation time."""

    id: str
    zone: Zone
    channels_requested: int
    arrival_time: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels_requested", int(self.channels_requested))
        object.__setattr__(self, "arrival_time", float(self.arrival_time))


@dataclass(frozen=True)
class Coordinator:
    """A coalition coordinator (either side), placed at a zone."""

    id: str
    zone: Zone


@dataclass(frozen=True)
class Offer:
    """A PU's terms, sent on by coordinator ``cpu_id`` (the PU itself when it answers directly);
    built from values already typed, so it converts none."""

    pu_id: str
    cpu_id: str
    channels: int
    price: float
    alloc_time: float


@dataclass(frozen=True)
class TimingConstants:
    """Processing and transport delays, in simulation time units.

    latency          -- link delay applied to every message
    agg_per_demand   -- coalition-side cost to aggregate one demand
    cpu_select       -- coordinator cost to answer one call for proposals
    rank_per_offer   -- cost to rank one received offer
    pu_reply         -- direct PU reply cost (no-coalition topology)
    """

    latency: float = 10.0
    agg_per_demand: float = 5.0
    cpu_select: float = 2.0
    rank_per_offer: float = 1.0
    pu_reply: float = 2.0

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))


@dataclass(frozen=True)
class MembershipOverride:
    """Explicit coordinator -> member-ids maps, replacing geographic assignment."""

    cpu: dict[str, tuple[str, ...]] | None = None
    csu: dict[str, tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        for name in ("cpu", "csu"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self, name, {str(k): tuple(v) for k, v in value.items()}
                )


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs: agents, wiring mode, weights, and timing."""

    topology: str
    pus: tuple[PrimaryUser, ...]
    sus: tuple[SecondaryUser, ...]
    cpu_coordinators: tuple[Coordinator, ...] = ()
    csu_coordinators: tuple[Coordinator, ...] = ()
    aggregation: bool = True
    seed: int = 0
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS
    timing: TimingConstants = field(default_factory=TimingConstants)
    memberships: MembershipOverride | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pus", tuple(self.pus))
        object.__setattr__(self, "sus", tuple(self.sus))
        object.__setattr__(self, "cpu_coordinators", tuple(self.cpu_coordinators))
        object.__setattr__(self, "csu_coordinators", tuple(self.csu_coordinators))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))


def coalition_sides(scenario: Scenario) -> tuple[tuple, tuple]:
    """The PU side, then the SU side, in :class:`Wiring`'s field order, each as
    ``(name, agents, coordinators, membership override or None)``."""
    override = scenario.memberships or MembershipOverride()
    return (
        ("cpu", scenario.pus, scenario.cpu_coordinators, override.cpu),
        ("csu", scenario.sus, scenario.csu_coordinators, override.csu),
    )


def _check_zone(path: str, zone: Zone, out: list[str]) -> None:
    if not (math.isfinite(zone.x) and math.isfinite(zone.y)):
        out.append(f"{path}.zone: coordinates must be finite")


def validate(scenario: Scenario) -> list[str]:
    """Return every invariant violation as a path-qualified message.

    An empty list means the scenario is runnable. Never raises on
    structurally well-formed input.
    """
    out: list[str] = []

    if scenario.topology not in WIRINGS:
        out.append(f"topology: unknown topology {scenario.topology!r}")
    if not isinstance(scenario.seed, int) or isinstance(scenario.seed, bool) or scenario.seed < 0:
        out.append(f"seed: must be a non-negative integer, got {scenario.seed!r}")

    seen: set[str] = set()
    for kind, agents in (
        ("pus", scenario.pus),
        ("sus", scenario.sus),
        ("cpu_coordinators", scenario.cpu_coordinators),
        ("csu_coordinators", scenario.csu_coordinators),
    ):
        for i, agent in enumerate(agents):
            if agent.id in seen:
                out.append(f"{kind}[{i}].id: duplicate id {agent.id!r}")
            seen.add(agent.id)
            _check_zone(f"{kind}[{i}]", agent.zone, out)

    for i, pu in enumerate(scenario.pus):
        if pu.channels < 0:
            out.append(f"pus[{i}].channels: must be >= 0, got {pu.channels}")
        if not (math.isfinite(pu.price) and pu.price > 0):
            out.append(f"pus[{i}].price: must be > 0 and finite, got {pu.price}")
        if not (math.isfinite(pu.alloc_time) and pu.alloc_time > 0):
            out.append(f"pus[{i}].alloc_time: must be > 0 and finite, got {pu.alloc_time}")

    for i, su in enumerate(scenario.sus):
        if su.channels_requested < 1:
            out.append(f"sus[{i}].channels_requested: must be >= 1, got {su.channels_requested}")
        if not (math.isfinite(su.arrival_time) and su.arrival_time >= 0):
            out.append(f"sus[{i}].arrival_time: must be >= 0 and finite, got {su.arrival_time}")

    # An unknown topology (reported above) neither requires nor admits coordinators.
    wiring = WIRINGS.get(scenario.topology, (None, None))
    for formed, (name, agents, coordinators, override) in zip(wiring, coalition_sides(scenario)):
        if formed is not None and formed != bool(coordinators):
            need = "requires at least one" if formed else "admits none"
            out.append(f"{name}_coordinators: topology {scenario.topology!r} {need}")
        check_override(
            f"memberships.{name}", override,
            {c.id for c in coordinators}, {a.id for a in agents}, out,
        )

    if len(scenario.weights) != 3:
        out.append(f"weights: expected 3 values, got {len(scenario.weights)}")
    for j, w in enumerate(scenario.weights):
        if not (math.isfinite(w) and w > 0):
            out.append(f"weights[{j}]: must be > 0 and finite, got {w}")

    for name, value in asdict(scenario.timing).items():
        if not (math.isfinite(value) and value >= 0):
            out.append(f"timing.{name}: must be >= 0 and finite, got {value}")
    _check_time_bound(scenario, out)
    return out


def _check_time_bound(scenario: Scenario, out: list[str]) -> None:
    """Append a problem when an event time of the run could overflow to inf.

    Walks one SU's message chain for the scenario's wiring from the latest
    arrival, applying ``t + delay + latency`` per hop in the kernel's order
    with each hop's largest delay, then adds the delay at which the SU
    completes. Rounding is monotone for non-negative operands, so when this
    bound is finite no event or completion time of the run can be inf.

    It is an upper bound: an aggregated batch holds only its own
    SU-coalition's members, but it is charged ``agg_per_demand`` for every SU,
    since the coalitions are formed only when the run starts.
    """
    timing = scenario.timing
    arrivals = [su.arrival_time for su in scenario.sus]
    wiring = WIRINGS.get(scenario.topology)
    if (wiring is None or not arrivals
            or not all(map(math.isfinite, (*arrivals, *asdict(timing).values())))):
        return  # no SU starts a chain, or the values are reported above
    # Whoever is asked replies, each at its own delay, and each reply is ranked.
    reply = wiring.asked(timing.pu_reply, timing.cpu_select)
    ranking = timing.rank_per_offer * len(wiring.asked(scenario.pus, scenario.cpu_coordinators))
    if wiring.su_coalitions:  # SuRequest, the call, the reply, and SuReply, which completes
        demands = len(scenario.sus) if scenario.aggregation else 1
        hops, completion = (0.0, timing.agg_per_demand * demands, reply, ranking), 0.0
    else:  # the call and the reply, then the SU ranks the replies
        hops, completion = (0.0, reply), ranking
    t = latest = max(arrivals)
    for delay in hops:
        t = t + delay + timing.latency
    if t + completion == math.inf:
        out.append(
            f"timing: event times may overflow to inf: the latest arrival {latest!r} plus "
            f"the {scenario.topology!r} chain's delays {hops!r}, each plus latency "
            f"{timing.latency!r}, and the completion delay {completion!r}, is not finite"
        )


def expected_messages(
    topology: str,
    aggregation: bool | None,
    su_count: int,
    pu_count: int,
    cpu_count: int | None = None,
    csu_count: int | None = None,
) -> int:
    """Closed-form directed-message total for one run, negative replies included.

    ``cpu_count`` counts PU-coalition coordinators (each one answers, with or
    without members), ``csu_count`` the SU-coalitions with at least one member
    (an empty one sends nothing); each is 0 or None where the wiring forms no
    such coalitions. ``aggregation`` matters only with SU-coalitions.
    """
    wiring = WIRINGS.get(topology)
    if wiring is None:
        raise ValueError(f"unknown topology {topology!r}")
    # With SUs, each one is in exactly one SU-coalition.
    csu_counts = range(min(su_count, 1), su_count + 1) if wiring.su_coalitions else (None, 0)
    if (min(su_count, pu_count, cpu_count or 0) < 0 or bool(cpu_count) != wiring.pu_coalitions
            or csu_count not in csu_counts or (wiring.su_coalitions and aggregation is None)):
        raise ValueError(
            f"{topology} cannot have {su_count} SUs, {pu_count} PUs, {cpu_count} PU-coalitions, "
            f"{csu_count} SU-coalitions with members and aggregation {aggregation}")
    # Each ask (an SU's own, or its SU-coalition's per demand or per batch) goes
    # to, and is answered by, every agent the wiring asks.
    targets = wiring.asked(pu_count, cpu_count)
    asks = csu_count if wiring.su_coalitions and aggregation else su_count
    registrations = pu_count if wiring.pu_coalitions else 0
    su_hops = 2 * su_count if wiring.su_coalitions else 0
    return registrations + su_hops + 2 * asks * targets


def check_override(
    path: str,
    override: Mapping[str, Sequence[str]] | None,
    coordinator_ids: set[str],
    member_ids: set[str],
    out: list[str],
) -> None:
    """Append to ``out`` every unknown id, repeated member and left-out member."""
    if override is None:
        return
    counts: dict[str, int] = {}
    for cid, members in override.items():
        if cid not in coordinator_ids:
            out.append(f"{path}: unknown coordinator {cid!r}")
        for mid in members:
            if mid not in member_ids:
                out.append(f"{path}[{cid!r}]: unknown member {mid!r}")
            counts[mid] = counts.get(mid, 0) + 1
    for mid in sorted(m for m, c in counts.items() if c > 1):
        out.append(f"{path}: member {mid!r} assigned to more than one coordinator")
    missing = sorted(member_ids - counts.keys())
    for mid in missing:
        out.append(f"{path}: member {mid!r} not assigned to any coordinator")
