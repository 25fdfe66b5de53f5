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

A PU-coalition coordinator's state is its ``ParamRegistry``. An SU-coalition
takes each member's request in O(1): a bitmask of the members that have
asked and, when aggregating, a chain of demands flattened once per batch.

Every SU-side TOPSIS decision ends one :class:`Ask`: a call for proposals to
a fixed set of agents, made by an SU for itself (to every PU or PU-coalition)
or by its SU-coalition (per demand or per aggregated batch). Each reply is
added in O(1); the last one *settles* the ask: its real offers are ranked in
reply order by ``rank_offers`` and granted to its demands in order, at
``rank_per_offer`` per offer ranked.

Handlers are pure: given the same (state, message, time, context) they
return the same new state and outgoing messages. All world mutation (live
PU capacities, metric counters) is applied by the kernel from the returned
:class:`HandlerResult`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Mapping, Sequence, Union

from .coalitions import (
    Membership, ParamRegistry, best_offer, form_coalitions, rank_offers, register_params
)
from .model import WIRINGS, Offer, Scenario, TimingConstants

# Unused here: perfbench/spans.py rebinds protocol.topsis, so the name must exist.
from .topsis import topsis  # noqa: F401

__all__ = [
    "MessageKind",
    "Demand",
    "CoordinatorReply",
    "Message",
    "Allocation",
    "Ask",
    "SuPhase",
    "CsuPhase",
    "PrimaryUserState",
    "SecondaryUserState",
    "SuCoalitionState",
    "AgentState",
    "TopologyPlan",
    "topology_plan",
    "HandlerContext",
    "HandlerResult",
    "handle",
    "handle_wake",
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


@dataclass(frozen=True, slots=True)
class Ask:
    """One open call for proposals; its last reply settles it in :func:`_answer`."""

    demands: tuple[Demand, ...]  # granted in this order
    due: int  # replies still due
    # The real offers so far as a persistent chain (latest, earlier) ending in
    # (): a reply is added in O(1), sharing the earlier ones.
    offers: tuple = ()


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
    ask: Ask | None = None  # the SU's own open ask; None when its SU-coalition asks
    completed_at: float | None = None


@dataclass(frozen=True)
class SuCoalitionState:
    agent_id: str
    member_ids: tuple[str, ...]  # sorted, as form_coalitions returns them
    phase: CsuPhase = CsuPhase.COLLECTING
    asked: int = 0  # bit i is set once member_ids[i] has asked
    # Aggregated mode: the requests so far as a persistent chain
    # ((time, demand), earlier) ending in (), dropped once the batch is issued.
    requests: tuple = ()
    # Open asks keyed by demand_ref (None for the aggregated batch). A settled
    # ask is dropped, so a late or unknown reply finds no entry.
    asks: dict[str | None, Ask] = field(default_factory=dict)


AgentState = Union[PrimaryUserState, SecondaryUserState, ParamRegistry, SuCoalitionState]


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


def _in_order(chain: tuple) -> list:
    """The items of a persistent chain (latest, earlier) ending in (), earliest first."""
    items = []
    while chain:
        latest, chain = chain
        items.append(latest)
    return items[::-1]


def _answer(
    ask: Ask, offer: Offer | None, ctx: HandlerContext
) -> tuple[Ask | None, list[Allocation], float]:
    """Add a reply (None for no offer): returns (still-open ask, allocations, delay).

    The last reply settles the ask (returned as None): its real offers are
    ranked in reply order, so of equal offers the earlier reply wins, and
    granted to its demands after ``rank_per_offer`` per offer ranked.
    """
    offers = ask.offers if offer is None else (offer, ask.offers)
    if ask.due > 1:
        return Ask(ask.demands, ask.due - 1, offers), [], 0.0
    real = _in_order(offers)
    allocations, _unserved = assign_offers(
        rank_offers(real, ctx.weights),
        [(d.su_id, d.channels_requested) for d in ask.demands],
        ctx.capacities,
    )
    return None, allocations, ctx.timing.rank_per_offer * len(real)


def _quote(me: str, to: str, offer: Offer | None, ref: str | None) -> Message:
    """A reply to a call for proposals: the offer, or no offer when it is None."""
    kind = MessageKind.CPU_NO_OFFER if offer is None else MessageKind.CPU_OFFER
    return Message(kind, me, to, CoordinatorReply(offer, ref))


def handle_wake(state: AgentState, now: float, ctx: HandlerContext) -> HandlerResult:
    """An SU wakes at its arrival time and issues its request(s)."""
    if not isinstance(state, SecondaryUserState):
        raise ValueError(f"wake delivered to non-SU agent {state!r}")
    if state.phase is not SuPhase.IDLE:
        return _violation(state, state.agent_id, f"wake in phase {state.phase.value}", now)

    me = state.agent_id
    demand = Demand(su_id=me, channels_requested=state.channels_requested)
    wiring = WIRINGS[ctx.plan.topology]
    if wiring.su_coalitions:
        # The SU-coalition asks for this SU and answers it with an SuReply.
        request = Message(MessageKind.SU_REQUEST, me, ctx.plan.csu_of_su[me], demand)
        return HandlerResult(state=replace(state, phase=SuPhase.WAITING), sends=[(request, 0.0)])
    # The SU asks itself: every PU-coalition where PUs form them, else every PU.
    targets = ctx.plan.cpu_ids if wiring.pu_coalitions else ctx.plan.pu_ids
    if not targets:
        # nobody to query (e.g. no PUs exist): the request dies immediately
        return HandlerResult(state=replace(state, phase=SuPhase.UNSERVED, completed_at=now))
    sends = [(Message(MessageKind.CFP_SINGLE, me, to, demand), 0.0) for to in targets]
    ask = Ask((demand,), len(targets))
    return HandlerResult(state=replace(state, phase=SuPhase.WAITING, ask=ask), sends=sends)


def handle(state: AgentState, msg: Message, now: float, ctx: HandlerContext) -> HandlerResult:
    """Dispatch one delivered message to the addressed agent's state machine."""
    if isinstance(state, PrimaryUserState):
        return _handle_pu(state, msg, now, ctx)
    if isinstance(state, ParamRegistry):
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
    state: ParamRegistry, msg: Message, now: float, ctx: HandlerContext
) -> HandlerResult:
    me = state.coordinator_id
    if msg.kind is MessageKind.PARAM_UPDATE:
        if msg.payload.pu_id != msg.sender:
            return _violation(state, me, f"ParamUpdate from {msg.sender!r} for another PU", now)
        try:
            return HandlerResult(state=register_params(state, msg.payload))
        except ValueError as exc:  # a non-member, or an offer for another coordinator
            return _violation(state, me, str(exc), now)
    if msg.kind in (MessageKind.CFP, MessageKind.CFP_SINGLE):
        ref = msg.payload.su_id if msg.kind is MessageKind.CFP_SINGLE else None
        reply = _quote(me, msg.sender, best_offer(state, ctx.weights), ref)
        return HandlerResult(state=state, sends=[(reply, ctx.timing.cpu_select)])
    return _violation(state, me, f"unexpected {msg.kind.value}", now)


def _handle_csu(
    state: SuCoalitionState, msg: Message, now: float, ctx: HandlerContext
) -> HandlerResult:
    me = state.agent_id
    if state.phase is CsuPhase.DONE:
        return _violation(state, me, f"{msg.kind.value} in terminal phase Done", now)

    if msg.kind is MessageKind.SU_REQUEST:
        demand: Demand = msg.payload
        sender, members = msg.sender, state.member_ids
        index = bisect_left(members, sender)
        if index == len(members) or members[index] != sender:
            return _violation(state, me, f"SuRequest from non-member {sender!r}", now)
        if state.asked >> index & 1:
            return _violation(state, me, f"second SuRequest from {sender!r}", now)
        if demand.su_id != sender:
            return _violation(state, me, f"SuRequest from {sender!r} for another SU", now)
        asked = state.asked | 1 << index
        complete = asked == (1 << len(members)) - 1
        if not ctx.plan.aggregation:
            # Ask every PU-coalition about this one demand.
            kind, payload, delay = MessageKind.CFP_SINGLE, demand, ctx.timing.agg_per_demand
            asks = {**state.asks, demand.su_id: Ask((demand,), len(ctx.plan.cpu_ids))}
        elif complete:
            # Last expected demand: ask every PU-coalition about the whole
            # batch in one CFP, paying the per-demand aggregation cost.
            requests = _in_order(((now, demand), state.requests))
            by_arrival = sorted(requests, key=lambda td: (td[0], td[1].su_id))
            kind, payload = MessageKind.CFP, tuple(d for _, d in by_arrival)
            delay = ctx.timing.agg_per_demand * len(members)
            asks = {None: Ask(payload, len(ctx.plan.cpu_ids))}
        else:
            requests = ((now, demand), state.requests)
            return HandlerResult(state=replace(state, asked=asked, requests=requests))
        sends = [(Message(kind, me, cpu, payload), delay) for cpu in ctx.plan.cpu_ids]
        phase = CsuPhase.AWAITING_OFFERS if complete else CsuPhase.COLLECTING
        new_state = replace(state, asked=asked, requests=(), asks=asks, phase=phase)
        return HandlerResult(state=new_state, sends=sends)

    if msg.kind not in (MessageKind.CPU_OFFER, MessageKind.CPU_NO_OFFER):
        return _violation(state, me, f"unexpected {msg.kind.value}", now)
    reply: CoordinatorReply = msg.payload
    key = None if ctx.plan.aggregation else reply.demand_ref
    if key not in state.asks:
        return _violation(state, me, f"{msg.kind.value} for ask {key!r}, which is not open", now)
    ask = state.asks[key]
    still_open, allocations, delay = _answer(ask, reply.offer, ctx)
    if still_open is not None:
        return HandlerResult(state=replace(state, asks={**state.asks, key: still_open}))
    # Every coordinator has answered: answer each member the ask concerns.
    granted = {a.su_id: a.offer for a in allocations}
    sends = [
        (Message(MessageKind.SU_REPLY, me, d.su_id, granted.get(d.su_id)), delay)
        for d in ask.demands
    ]
    asks = {k: a for k, a in state.asks.items() if k != key}
    # Done once every member has asked and no ask is open.
    phase = CsuPhase.DONE if state.phase is CsuPhase.AWAITING_OFFERS and not asks else state.phase
    new_state = replace(state, asks=asks, phase=phase)
    return HandlerResult(state=new_state, sends=sends, allocations=allocations)


def _handle_su(
    state: SecondaryUserState, msg: Message, now: float, ctx: HandlerContext
) -> HandlerResult:
    me = state.agent_id
    if state.phase is not SuPhase.WAITING:
        where = "phase" if state.phase is SuPhase.IDLE else "terminal phase"
        return _violation(state, me, f"{msg.kind.value} in {where} {state.phase.value}", now)

    ask = state.ask
    if ask is None and msg.kind is MessageKind.SU_REPLY:
        # The SU-coalition asked for this SU: its reply is the grant or None.
        allocations, served, completed_at = [], msg.payload is not None, now
    elif ask is not None and msg.kind in (MessageKind.CPU_OFFER, MessageKind.CPU_NO_OFFER):
        ask, allocations, delay = _answer(ask, msg.payload.offer, ctx)
        if ask is not None:
            # Replies still due; the constructor costs half of replace() per reply.
            return HandlerResult(state=SecondaryUserState(
                me, state.channels_requested, state.arrival_time, state.phase, ask
            ))
        served, completed_at = bool(allocations), now + delay
    else:
        return _violation(state, me, f"unexpected {msg.kind.value}", now)
    phase = SuPhase.SERVED if served else SuPhase.UNSERVED
    new_state = replace(state, phase=phase, ask=None, completed_at=completed_at)
    return HandlerResult(state=new_state, allocations=allocations)
