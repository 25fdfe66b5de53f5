"""Agent state machines and typed messages for the negotiation rounds.

Four agent kinds exchange seven message kinds across three wiring modes:

* ``no_coalition`` -- every SU queries every PU directly and ranks the
  replies itself.
* ``cpu_only``     -- PUs register with PU-coalition coordinators; every SU
  queries every coordinator and ranks the returned best offers.
* ``cpu_csu``      -- the full intermediated flow: SU-coalition coordinators
  collect member demands (optionally aggregating them into one call for
  proposals per PU-coalition), rank the returned offers, assign them to
  demands, and reply to their members.

Every SU-side TOPSIS decision ends an *ask*: a call for proposals to a fixed
set of agents (an SU's own to every PU or PU-coalition, an SU-coalition's per
demand or per aggregated batch). The last reply *settles* it: the real offers
are ranked and granted to the ask's demands in order, at ``rank_per_offer``
per offer ranked.

Handlers are pure: given the same (state, message, time, context) they
return the same new state and outgoing messages. All world mutation (live
PU capacities, metric counters) is applied by the kernel from the returned
:class:`HandlerResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Mapping, Sequence, Union

from .coalitions import Membership, ParamRegistry, best_offer, form_coalitions, register_params
from .model import CRITERIA_SENSES, CRITERION_LABELS, WIRINGS, Offer, Scenario, TimingConstants
from .topsis import DecisionMatrix, topsis

__all__ = [
    "MessageKind",
    "Demand",
    "CoordinatorReply",
    "Message",
    "Allocation",
    "SuPhase",
    "CsuPhase",
    "PrimaryUserState",
    "SecondaryUserState",
    "PuCoalitionState",
    "SuCoalitionState",
    "AgentState",
    "TopologyPlan",
    "topology_plan",
    "HandlerContext",
    "HandlerResult",
    "handle",
    "handle_wake",
    "rank_offers",
    "assign_offers",
]


class MessageKind(str, Enum):
    """Protocol message kinds; the string values are the wire/export names."""

    PARAM_UPDATE = "ParamUpdate"
    SU_REQUEST = "SuRequest"
    CFP = "Cfp"
    CFP_SINGLE = "CfpSingle"
    CPU_OFFER = "CpuOffer"
    CPU_NO_OFFER = "CpuNoOffer"
    SU_REPLY = "SuReply"


@dataclass(frozen=True)
class Demand:
    """One SU's channel request."""

    su_id: str
    channels_requested: int


@dataclass(frozen=True)
class CoordinatorReply:
    """Payload of CpuOffer/CpuNoOffer.

    ``demand_ref`` names the SU whose single demand is being answered, or
    None when the reply answers an aggregated batch.
    """

    offer: Offer | None
    demand_ref: str | None = None


# The payload check of each message kind.
_PAYLOAD_RULES: dict[MessageKind, Callable[[object], bool]] = {
    MessageKind.PARAM_UPDATE: lambda p: isinstance(p, Offer),
    MessageKind.SU_REQUEST: lambda p: isinstance(p, Demand),
    MessageKind.CFP: lambda p: isinstance(p, tuple) and all(isinstance(d, Demand) for d in p),
    MessageKind.CFP_SINGLE: lambda p: isinstance(p, Demand),
    MessageKind.CPU_OFFER: lambda p: isinstance(p, CoordinatorReply) and p.offer is not None,
    MessageKind.CPU_NO_OFFER: lambda p: isinstance(p, CoordinatorReply) and p.offer is None,
    MessageKind.SU_REPLY: lambda p: p is None or isinstance(p, Offer),
}


@dataclass(frozen=True, slots=True)
class Message:
    """A typed, addressed protocol message."""

    kind: MessageKind
    sender: str
    recipient: str
    payload: object

    def __post_init__(self) -> None:
        if self.sender == self.recipient:
            raise ValueError(f"message from {self.sender!r} to itself")
        # A plain string hashes and compares like its wire name, so it would
        # find that kind's rule in the table; only members are kinds.
        if not isinstance(self.kind, MessageKind):
            raise ValueError(f"message kind {self.kind!r} is not a MessageKind")
        if not _PAYLOAD_RULES[self.kind](self.payload):
            raise ValueError(f"payload {self.payload!r} does not match kind {self.kind.value}")


@dataclass(frozen=True)
class Allocation:
    """A granted demand: the SU, the consumed offer, and the channels taken."""

    su_id: str
    offer: Offer
    granted_channels: int


class SuPhase(Enum):
    IDLE = "Idle"
    WAITING = "Waiting"
    SERVED = "Served"
    UNSERVED = "Unserved"


class CsuPhase(Enum):
    COLLECTING = "Collecting"
    AWAITING_OFFERS = "AwaitingOffers"
    DONE = "Done"


@dataclass(frozen=True)
class PrimaryUserState:
    agent_id: str
    offer: Offer  # the PU's terms at the capacity it last quoted


@dataclass(frozen=True)
class SecondaryUserState:
    agent_id: str
    channels_requested: int
    arrival_time: float
    phase: SuPhase = SuPhase.IDLE
    offers: tuple[Offer | None, ...] = ()  # one per reply so far; None for no offer
    completed_at: float | None = None


@dataclass(frozen=True)
class PuCoalitionState:
    agent_id: str
    registry: ParamRegistry


@dataclass(frozen=True)
class SuCoalitionState:
    agent_id: str
    member_ids: tuple[str, ...]
    phase: CsuPhase = CsuPhase.COLLECTING
    demands: tuple[tuple[float, Demand], ...] = ()
    # Members whose request has not arrived yet; None stands for all of them.
    awaited: frozenset[str] | None = None
    # Open asks keyed by demand_ref (None for the aggregated batch): the
    # demands the ask settles and the offers replied so far. A settled ask
    # is dropped, so a late or unknown reply finds no entry.
    asks: dict[str | None, tuple[tuple[Demand, ...], tuple[Offer | None, ...]]] = field(
        default_factory=dict
    )
    replied: int = 0  # members answered so far


AgentState = Union[PrimaryUserState, SecondaryUserState, PuCoalitionState, SuCoalitionState]


@dataclass(frozen=True)
class TopologyPlan:
    """Static wiring for one run: memberships and broadcast targets."""

    topology: str
    aggregation: bool
    pu_ids: tuple[str, ...]
    cpu_ids: tuple[str, ...]
    cpu_membership: Membership
    csu_membership: Membership
    cpu_of_pu: dict[str, str]
    csu_of_su: dict[str, str]


def topology_plan(scenario: Scenario) -> TopologyPlan:
    """Resolve coalition memberships and per-agent message targets."""
    wiring = WIRINGS[scenario.topology]
    cpu_membership: Membership = {}
    csu_membership: Membership = {}
    if wiring.pu_coalitions:
        cpu_membership = form_coalitions(
            [(pu.id, pu.zone) for pu in scenario.pus],
            [(c.id, c.zone) for c in scenario.cpu_coordinators],
            scenario.memberships.cpu if scenario.memberships else None,
        )
    if wiring.su_coalitions:
        csu_membership = form_coalitions(
            [(su.id, su.zone) for su in scenario.sus],
            [(c.id, c.zone) for c in scenario.csu_coordinators],
            scenario.memberships.csu if scenario.memberships else None,
        )
    return TopologyPlan(
        topology=scenario.topology,
        aggregation=scenario.aggregation,
        pu_ids=tuple(sorted(pu.id for pu in scenario.pus)),
        cpu_ids=tuple(sorted(cpu_membership)),
        cpu_membership=cpu_membership,
        csu_membership=csu_membership,
        cpu_of_pu={m: cid for cid, members in cpu_membership.items() for m in members},
        csu_of_su={m: cid for cid, members in csu_membership.items() for m in members},
    )


@dataclass(frozen=True)
class HandlerContext:
    """Read-only per-run context handed to every handler invocation."""

    timing: TimingConstants
    weights: tuple[float, float, float]
    plan: TopologyPlan
    capacities: Mapping[str, int]


@dataclass
class HandlerResult:
    """A handler's complete outcome: new state, sends, awards, violation."""

    state: AgentState
    sends: list[tuple[Message, float]] = field(default_factory=list)
    allocations: list[Allocation] = field(default_factory=list)
    violation: str | None = None


def rank_offers(offers: Sequence[Offer], weights: Sequence[float]) -> list[Offer]:
    """Order offers best-first by TOPSIS closeness over (channels, price, alloc_time)."""
    if not offers:
        return []
    matrix = DecisionMatrix(
        alternatives=tuple(o.pu_id for o in offers),
        criteria=CRITERION_LABELS,
        scores=tuple((o.channels, o.price, o.alloc_time) for o in offers),
        weights=tuple(weights),
        senses=CRITERIA_SENSES,
    )
    return [offers[i] for i in topsis(matrix).ranking]


def assign_offers(
    offers: Sequence[Offer],
    demands: Sequence[tuple[str, int]],
    capacities: Mapping[str, int],
) -> tuple[list[Allocation], list[str]]:
    """Greedily map ranked offers onto demands in arrival order.

    Each demand takes the highest-ranked unconsumed offer whose backing PU
    still has enough capacity; the offer is consumed and the capacity
    decremented. Demands that find no feasible offer are returned unserved.
    """
    caps = dict(capacities)
    available = list(offers)
    allocations: list[Allocation] = []
    unserved: list[str] = []
    for su_id, requested in demands:
        index = next(
            (k for k, off in enumerate(available) if caps.get(off.pu_id, 0) >= requested),
            None,
        )
        if index is None:
            unserved.append(su_id)
            continue
        offer = available.pop(index)
        caps[offer.pu_id] -= requested
        allocations.append(Allocation(su_id=su_id, offer=offer, granted_channels=requested))
    return allocations, unserved


def _violation(state: AgentState, agent_id: str, detail: str, now: float) -> HandlerResult:
    return HandlerResult(state=state, violation=f"t={now:g}: {detail} at {agent_id!r}")


def _settle(
    offers: Sequence[Offer | None], demands: Sequence[Demand], ctx: HandlerContext
) -> tuple[list[Allocation], float]:
    """Rank an ask's real offers and grant them to its demands; returns (allocations, delay)."""
    real = [o for o in offers if o is not None]
    allocations, _unserved = assign_offers(
        rank_offers(real, ctx.weights),
        [(d.su_id, d.channels_requested) for d in demands],
        ctx.capacities,
    )
    return allocations, ctx.timing.rank_per_offer * len(real)


def _quote(me: str, to: str, offer: Offer | None, ref: str | None) -> Message:
    """A reply to a call for proposals: the offer, or no offer when it is None."""
    kind = MessageKind.CPU_NO_OFFER if offer is None else MessageKind.CPU_OFFER
    return Message(kind, me, to, CoordinatorReply(offer, ref))


def _direct_targets(plan: TopologyPlan) -> tuple[str, ...]:
    """The agents an SU asks itself: every PU-coalition where PUs form them, else every PU."""
    return plan.cpu_ids if WIRINGS[plan.topology].pu_coalitions else plan.pu_ids


def handle_wake(state: AgentState, now: float, ctx: HandlerContext) -> HandlerResult:
    """An SU wakes at its arrival time and issues its request(s)."""
    if not isinstance(state, SecondaryUserState):
        raise ValueError(f"wake delivered to non-SU agent {state!r}")
    if state.phase is not SuPhase.IDLE:
        return _violation(state, state.agent_id, f"wake in phase {state.phase.value}", now)

    me = state.agent_id
    demand = Demand(su_id=me, channels_requested=state.channels_requested)
    if WIRINGS[ctx.plan.topology].su_coalitions:
        target = ctx.plan.csu_of_su[me]
        sends = [(Message(MessageKind.SU_REQUEST, me, target, demand), 0.0)]
    else:
        sends = [
            (Message(MessageKind.CFP_SINGLE, me, to, demand), 0.0)
            for to in _direct_targets(ctx.plan)
        ]
    if not sends:
        # nobody to query (e.g. no PUs exist): the request dies immediately
        new_state = replace(state, phase=SuPhase.UNSERVED, completed_at=now)
        return HandlerResult(state=new_state)
    return HandlerResult(state=replace(state, phase=SuPhase.WAITING), sends=sends)


def handle(state: AgentState, msg: Message, now: float, ctx: HandlerContext) -> HandlerResult:
    """Dispatch one delivered message to the addressed agent's state machine."""
    if isinstance(state, PrimaryUserState):
        return _handle_pu(state, msg, now, ctx)
    if isinstance(state, PuCoalitionState):
        return _handle_cpu(state, msg, now, ctx)
    if isinstance(state, SuCoalitionState):
        return _handle_csu(state, msg, now, ctx)
    if isinstance(state, SecondaryUserState):
        return _handle_su(state, msg, now, ctx)
    raise ValueError(f"unknown agent state {state!r}")


def _handle_pu(
    state: PrimaryUserState, msg: Message, now: float, ctx: HandlerContext
) -> HandlerResult:
    if msg.kind is not MessageKind.CFP_SINGLE:
        return _violation(state, state.agent_id, f"unexpected {msg.kind.value}", now)
    me = state.agent_id
    capacity = ctx.capacities.get(me, 0)
    offer = None
    if capacity > 0:
        offer = state.offer
        if offer.channels != capacity:
            offer = Offer(me, offer.cpu_id, capacity, offer.price, offer.alloc_time)
            state = PrimaryUserState(me, offer)
    reply = _quote(me, msg.sender, offer, msg.payload.su_id)
    return HandlerResult(state=state, sends=[(reply, ctx.timing.pu_reply)])


def _handle_cpu(
    state: PuCoalitionState, msg: Message, now: float, ctx: HandlerContext
) -> HandlerResult:
    me = state.agent_id
    if msg.kind is MessageKind.PARAM_UPDATE:
        if msg.payload.pu_id != msg.sender:
            return _violation(state, me, f"ParamUpdate from {msg.sender!r} for another PU", now)
        registry = register_params(state.registry, msg.payload)
        return HandlerResult(state=replace(state, registry=registry))
    if msg.kind in (MessageKind.CFP, MessageKind.CFP_SINGLE):
        ref = msg.payload.su_id if msg.kind is MessageKind.CFP_SINGLE else None
        reply = _quote(me, msg.sender, best_offer(state.registry, ctx.weights), ref)
        return HandlerResult(state=state, sends=[(reply, ctx.timing.cpu_select)])
    return _violation(state, me, f"unexpected {msg.kind.value}", now)


def _handle_csu(
    state: SuCoalitionState, msg: Message, now: float, ctx: HandlerContext
) -> HandlerResult:
    me = state.agent_id
    if state.phase is CsuPhase.DONE:
        return _violation(state, me, f"{msg.kind.value} in terminal phase Done", now)

    if msg.kind is MessageKind.SU_REQUEST:
        if state.phase is not CsuPhase.COLLECTING:
            return _violation(state, me, f"SuRequest in phase {state.phase.value}", now)
        demand: Demand = msg.payload
        sender = msg.sender
        awaited = frozenset(state.member_ids) if state.awaited is None else state.awaited
        if sender not in awaited:
            if sender in state.member_ids:
                return _violation(state, me, f"second SuRequest from {sender!r}", now)
            return _violation(state, me, f"SuRequest from non-member {sender!r}", now)
        if demand.su_id != sender:
            return _violation(state, me, f"SuRequest from {sender!r} for another SU", now)
        demands = state.demands + ((now, demand),)
        awaited = awaited - {sender}
        complete = not awaited
        if not ctx.plan.aggregation:
            # Ask every PU-coalition about this one demand.
            kind, payload, delay = MessageKind.CFP_SINGLE, demand, ctx.timing.agg_per_demand
            asks = {**state.asks, demand.su_id: ((demand,), ())}
        elif complete:
            # Last expected demand: ask every PU-coalition about the whole
            # batch in one CFP, paying the per-demand aggregation cost.
            by_arrival = sorted(demands, key=lambda td: (td[0], td[1].su_id))
            kind, payload = MessageKind.CFP, tuple(d for _, d in by_arrival)
            delay = ctx.timing.agg_per_demand * len(state.member_ids)
            asks = {None: (payload, ())}
        else:
            return HandlerResult(state=replace(state, demands=demands, awaited=awaited))
        sends = [(Message(kind, me, cpu, payload), delay) for cpu in ctx.plan.cpu_ids]
        phase = CsuPhase.AWAITING_OFFERS if complete else CsuPhase.COLLECTING
        new_state = replace(state, demands=demands, awaited=awaited, asks=asks, phase=phase)
        return HandlerResult(state=new_state, sends=sends)

    if msg.kind not in (MessageKind.CPU_OFFER, MessageKind.CPU_NO_OFFER):
        return _violation(state, me, f"unexpected {msg.kind.value}", now)
    reply: CoordinatorReply = msg.payload
    key = None if ctx.plan.aggregation else reply.demand_ref
    if key not in state.asks:
        return _violation(state, me, f"{msg.kind.value} for ask {key!r}, which is not open", now)
    demands, offers = state.asks[key]
    offers += (reply.offer,)
    if len(offers) < len(ctx.plan.cpu_ids):
        return HandlerResult(state=replace(state, asks={**state.asks, key: (demands, offers)}))
    # Every coordinator has answered: settle the ask and answer each member
    # it concerns.
    allocations, delay = _settle(offers, demands, ctx)
    granted = {a.su_id: a.offer for a in allocations}
    sends = [
        (Message(MessageKind.SU_REPLY, me, d.su_id, granted.get(d.su_id)), delay)
        for d in demands
    ]
    asks = {k: ask for k, ask in state.asks.items() if k != key}
    replied = state.replied + len(demands)
    phase = CsuPhase.DONE if replied >= len(state.member_ids) else state.phase
    new_state = replace(state, asks=asks, replied=replied, phase=phase)
    return HandlerResult(state=new_state, sends=sends, allocations=allocations)


def _handle_su(
    state: SecondaryUserState, msg: Message, now: float, ctx: HandlerContext
) -> HandlerResult:
    me = state.agent_id
    if state.phase in (SuPhase.SERVED, SuPhase.UNSERVED):
        return _violation(
            state, me, f"{msg.kind.value} in terminal phase {state.phase.value}", now
        )
    if state.phase is not SuPhase.WAITING:
        return _violation(state, me, f"{msg.kind.value} in phase {state.phase.value}", now)

    if msg.kind is MessageKind.SU_REPLY:
        served = msg.payload is not None
        new_state = replace(
            state,
            phase=SuPhase.SERVED if served else SuPhase.UNSERVED,
            completed_at=now,
        )
        return HandlerResult(state=new_state)

    if (
        msg.kind in (MessageKind.CPU_OFFER, MessageKind.CPU_NO_OFFER)
        and not WIRINGS[ctx.plan.topology].su_coalitions  # else the SU-coalition asks
    ):
        offers = state.offers + (msg.payload.offer,)
        if len(offers) < len(_direct_targets(ctx.plan)):
            # The constructor, not dataclasses.replace (twice its cost): this
            # runs once per reply.
            return HandlerResult(state=SecondaryUserState(
                agent_id=me,
                channels_requested=state.channels_requested,
                arrival_time=state.arrival_time,
                phase=state.phase,
                offers=offers,
                completed_at=state.completed_at,
            ))
        # Final reply: settle the SU's own ask.
        allocations, delay = _settle(offers, [Demand(me, state.channels_requested)], ctx)
        new_state = replace(
            state,
            offers=offers,
            phase=SuPhase.SERVED if allocations else SuPhase.UNSERVED,
            completed_at=now + delay,
        )
        return HandlerResult(state=new_state, allocations=allocations)

    return _violation(state, me, f"unexpected {msg.kind.value}", now)
