"""Agent state machines and typed messages for the negotiation rounds.

Four agent kinds exchange seven message kinds across three wiring modes:

* ``no_coalition`` -- every SU queries every PU directly and ranks the
  replies itself.
* ``cpu_only``     -- PUs register with PU-coalition coordinators; every SU
  queries every coordinator and ranks the returned best offers.
* ``cpu_csu``      -- the full intermediated flow: SU-coalition coordinators
  collect member demands, ask every PU-coalition about them (per demand, or
  aggregated into one batch), rank the returned offers, assign them to
  demands, and reply to their members.

Each agent's state holds each fact once:

* a PU's state is its :class:`Offer` at the capacity it last quoted;
* a PU-coalition coordinator's state is its ``ParamRegistry``;
* an SU's state is its request, its phase, its own open ask, and the time
  it finished (None until it is served or unserved);
* an SU-coalition keeps no phase: a bitmask of the members that have asked,
  when aggregating a chain of their demands (flattened once per batch), and
  its open asks. Each request is taken in O(1), and the coalition is done
  once every member has asked and no ask is open.

Every SU-side TOPSIS decision ends one :class:`Ask`: a call for proposals to
a fixed set of agents, made by an SU for itself (to every PU or PU-coalition)
or by its SU-coalition for a batch of demands (per demand, a batch of one).
Each reply is added in O(1); the last one *settles* the ask: its real offers
are ranked in reply order by ``rank_offers`` and granted to its demands in
order, at ``rank_per_offer`` per offer ranked.

Handlers are pure: given the same (state, message, time, context) they
return the same new state and outgoing messages. All world mutation (live
PU capacities, metric counters) is applied by the kernel from the returned
:class:`HandlerResult`.

The records built on every event (:class:`Demand`, :class:`Message`,
:class:`CoordinatorReply`, :class:`Ask`, :class:`SecondaryUserState`,
:class:`SuCoalitionState`, :class:`HandlerResult`) are named tuples. Their
constructors are the API. Hot handler sites skip the generated ``__new__`` with
``tuple.__new__(Record, fields)``, every field in ``_fields`` order (a test of
the records' arity and order guards this); :meth:`Message.fan_out` checks the
messages of a fan-out once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from .coalitions import (
    Membership, ParamRegistry, best_offer, form_coalitions, rank_offers, register_params
)
from .model import WIRINGS, Offer, Scenario, TimingConstants, Wiring, coalition_sides

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


class Demand(NamedTuple):
    """One SU's channel request: the ``(su_id, requested)`` pair :func:`assign_offers` takes."""

    su_id: str
    channels_requested: int


class CoordinatorReply(NamedTuple):
    """Payload of CpuOffer/CpuNoOffer.

    ``demand_ref`` names the SU whose single demand is being answered, or
    None when the reply answers an aggregated batch.
    """

    offer: Offer | None
    demand_ref: str | None = None


_new = tuple.__new__  # builds a named tuple from its fields, as its _make does

# The payload check of each message kind.
_PAYLOAD_RULES: dict[MessageKind, Callable[[object], bool]] = {
    MessageKind.PARAM_UPDATE: lambda p: isinstance(p, Offer),
    MessageKind.SU_REQUEST: lambda p: isinstance(p, Demand),
    MessageKind.CFP: lambda p: isinstance(p, tuple) and all(map(isinstance, p, repeat(Demand))),
    MessageKind.CFP_SINGLE: lambda p: isinstance(p, Demand),
    MessageKind.CPU_OFFER: lambda p: isinstance(p, CoordinatorReply) and p.offer is not None,
    MessageKind.CPU_NO_OFFER: lambda p: isinstance(p, CoordinatorReply) and p.offer is None,
    MessageKind.SU_REPLY: lambda p: p is None or isinstance(p, Offer),
}


class _MessageFields(NamedTuple):
    """The fields of a :class:`Message`, which checks them."""

    kind: MessageKind
    sender: str
    recipient: str
    payload: object


class Message(_MessageFields):
    """A typed, addressed protocol message."""

    __slots__ = ()

    def __new__(cls, kind: MessageKind, sender: str, recipient: str, payload: object):
        if sender == recipient:
            raise ValueError(f"message from {sender!r} to itself")
        # A plain string hashes and compares like its wire name, so it would
        # find that kind's rule in the table; only members are kinds.
        if not isinstance(kind, MessageKind):
            raise ValueError(f"message kind {kind!r} is not a MessageKind")
        if not _PAYLOAD_RULES[kind](payload):
            raise ValueError(f"payload {payload!r} does not match kind {kind.value}")
        return tuple.__new__(cls, (kind, sender, recipient, payload))

    @classmethod
    def fan_out(
        cls, kind: MessageKind, sender: str, recipients: Sequence[str], payload, delay: float
    ) -> list[tuple[Message, float]]:
        """``[(Message(kind, sender, to, payload), delay) for to in recipients]``, checked once."""
        if not recipients:
            return []
        sends = [(cls(kind, sender, recipients[0], payload), delay)]
        if sender in recipients:  # the rest differ from the first only in recipient
            raise ValueError(f"message from {sender!r} to itself")
        sends += [(_new(cls, (kind, sender, to, payload)), delay) for to in recipients[1:]]
        return sends

    @classmethod
    def _make(cls, fields) -> "Message":  # so that _replace() checks its result too
        return cls(*fields)


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


class Ask(NamedTuple):
    """One open call for proposals; its last reply settles it in :func:`_answer`."""

    demands: tuple[Demand, ...]  # granted in this order
    due: int  # replies still due
    # The real offers so far as a persistent chain (latest, earlier) ending in
    # (): a reply is added in O(1), sharing the earlier ones.
    offers: tuple = ()


class SecondaryUserState(NamedTuple):
    agent_id: str
    channels_requested: int
    phase: SuPhase = SuPhase.IDLE
    ask: Ask | None = None  # the SU's own open ask; None when its SU-coalition asks
    completed_at: float | None = None


class SuCoalitionState(NamedTuple):
    agent_id: str
    member_ids: tuple[str, ...]  # sorted, as form_coalitions returns them
    asked: int = 0  # bit i is set once member_ids[i] has asked
    # Aggregated mode: the requests so far as a persistent chain
    # ((time, demand), earlier) ending in (), dropped once the batch is issued.
    requests: tuple = ()
    # Open asks keyed by demand_ref (None for the aggregated batch). A settled
    # ask is dropped, so a late or unknown reply finds no entry.
    asks: Mapping[str | None, Ask] = MappingProxyType({})


AgentState = Union[Offer, SecondaryUserState, ParamRegistry, SuCoalitionState]


@dataclass(frozen=True)
class TopologyPlan:
    """Static wiring for one run: the memberships, each SU's SU-coalition, and
    ``targets``, the sorted ids that every call for proposals goes to.
    """

    wiring: Wiring
    aggregation: bool
    cpu_membership: Membership
    csu_membership: Membership
    targets: tuple[str, ...]
    csu_of_su: dict[str, str]


def topology_plan(scenario: Scenario) -> TopologyPlan:
    """Resolve coalition memberships and whom each ask goes to."""
    wiring = WIRINGS[scenario.topology]
    cpu_membership, csu_membership = (
        form_coalitions(
            [(a.id, a.zone) for a in agents], [(c.id, c.zone) for c in coordinators], override
        ) if formed else {}
        for formed, (_, agents, coordinators, override) in zip(wiring, coalition_sides(scenario))
    )
    return TopologyPlan(
        wiring=wiring,
        aggregation=scenario.aggregation,
        cpu_membership=cpu_membership,
        csu_membership=csu_membership,
        targets=tuple(sorted(wiring.asked([pu.id for pu in scenario.pus], cpu_membership))),
        csu_of_su={m: cid for cid, members in csu_membership.items() for m in members},
    )


@dataclass(frozen=True)
class HandlerContext:
    """Read-only per-run context handed to every handler invocation."""

    timing: TimingConstants
    weights: tuple[float, float, float]
    plan: TopologyPlan
    capacities: Mapping[str, int]


class HandlerResult(NamedTuple):
    """A handler's complete outcome: new state, sends, awards, violation."""

    state: AgentState
    sends: Sequence[tuple[Message, float]] = ()
    allocations: Sequence[Allocation] = ()
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
) -> tuple[Ask | None, Sequence[Allocation], float]:
    """Add a reply (None for no offer): returns (still-open ask, allocations, delay).

    The last reply settles the ask (returned as None): its real offers are
    ranked in reply order, so of equal offers the earlier reply wins, and
    granted to its demands after ``rank_per_offer`` per offer ranked.
    """
    offers = ask.offers if offer is None else (offer, ask.offers)
    if ask.due > 1:
        return _new(Ask, (ask.demands, ask.due - 1, offers)), (), 0.0
    real = _in_order(offers)
    ranked = rank_offers(real, ctx.weights)
    allocations, _unserved = assign_offers(ranked, ask.demands, ctx.capacities)
    return None, allocations, ctx.timing.rank_per_offer * len(real)


def handle_wake(state: AgentState, now: float, ctx: HandlerContext) -> HandlerResult:
    """An SU wakes at its arrival time and issues its request(s)."""
    if not isinstance(state, SecondaryUserState):
        raise ValueError(f"wake delivered to non-SU agent {state!r}")
    if state.phase is not SuPhase.IDLE:
        return _violation(state, state.agent_id, f"wake in phase {state.phase.value}", now)

    me, requested = state.agent_id, state.channels_requested
    demand = _new(Demand, (me, requested))
    if ctx.plan.wiring.su_coalitions:
        # The SU-coalition asks for this SU and answers it with an SuReply.
        request = Message(MessageKind.SU_REQUEST, me, ctx.plan.csu_of_su[me], demand)
        waiting = _new(SecondaryUserState, (me, requested, SuPhase.WAITING, None, None))
        return _new(HandlerResult, (waiting, [(request, 0.0)], (), None))
    # The SU asks the plan's targets itself.
    targets = ctx.plan.targets
    if not targets:
        # nobody to query (e.g. no PUs exist): the request dies immediately
        return HandlerResult(SecondaryUserState(me, requested, SuPhase.UNSERVED, None, now))
    sends = Message.fan_out(MessageKind.CFP_SINGLE, me, targets, demand, 0.0)
    ask = _new(Ask, ((demand,), len(targets), ()))
    waiting = _new(SecondaryUserState, (me, requested, SuPhase.WAITING, ask, None))
    return _new(HandlerResult, (waiting, sends, (), None))


def handle(state: AgentState, msg: Message, now: float, ctx: HandlerContext) -> HandlerResult:
    """Dispatch one delivered message to the addressed agent's state machine."""
    handler = _HANDLERS.get(type(state))
    if handler is None:
        raise ValueError(f"unknown agent state {state!r}")
    return handler(state, msg, now, ctx)


def _handle_pu(state: Offer, msg: Message, now: float, ctx: HandlerContext) -> HandlerResult:
    me = state.pu_id
    if msg.kind is not MessageKind.CFP_SINGLE:
        return _violation(state, me, f"unexpected {msg.kind.value}", now)
    capacity = ctx.capacities.get(me, 0)
    offer = None
    if capacity > 0:
        if state.channels != capacity:
            state = Offer(me, state.cpu_id, capacity, state.price, state.alloc_time)
        offer = state
    kind = MessageKind.CPU_NO_OFFER if offer is None else MessageKind.CPU_OFFER
    reply = Message(kind, me, msg.sender, _new(CoordinatorReply, (offer, msg.payload.su_id)))
    return _new(HandlerResult, (state, [(reply, ctx.timing.pu_reply)], (), None))


def _handle_cpu(
    state: ParamRegistry, msg: Message, now: float, ctx: HandlerContext
) -> HandlerResult:
    me = state.coordinator_id
    if msg.kind is MessageKind.PARAM_UPDATE:
        if msg.payload.pu_id != msg.sender:
            return _violation(state, me, f"ParamUpdate from {msg.sender!r} for another PU", now)
        try:
            return _new(HandlerResult, (register_params(state, msg.payload), (), (), None))
        except ValueError as exc:  # a non-member, or an offer for another coordinator
            return _violation(state, me, str(exc), now)
    if msg.kind in (MessageKind.CFP, MessageKind.CFP_SINGLE):
        ref = msg.payload.su_id if msg.kind is MessageKind.CFP_SINGLE else None
        offer = best_offer(state, ctx.weights)
        kind = MessageKind.CPU_NO_OFFER if offer is None else MessageKind.CPU_OFFER
        reply = Message(kind, me, msg.sender, _new(CoordinatorReply, (offer, ref)))
        return _new(HandlerResult, (state, [(reply, ctx.timing.cpu_select)], (), None))
    return _violation(state, me, f"unexpected {msg.kind.value}", now)


def _handle_csu(
    state: SuCoalitionState, msg: Message, now: float, ctx: HandlerContext
) -> HandlerResult:
    """One ask path: per demand, each request asks about a batch of one (keyed by
    its SU); aggregating, the last member's request asks about them all (keyed None)."""
    me, members, asked, requests, asks = state
    if msg.kind is MessageKind.SU_REQUEST:
        demand: Demand = msg.payload
        sender = msg.sender
        index = bisect_left(members, sender)
        if index == len(members) or members[index] != sender:
            return _violation(state, me, f"SuRequest from non-member {sender!r}", now)
        if asked >> index & 1:
            return _violation(state, me, f"second SuRequest from {sender!r}", now)
        if demand.su_id != sender:
            return _violation(state, me, f"SuRequest from {sender!r} for another SU", now)
        asked |= 1 << index
        if not ctx.plan.aggregation:
            # Ask about this one demand: a batch of one.
            kind, key, payload, demands = MessageKind.CFP_SINGLE, demand.su_id, demand, (demand,)
        else:
            requests = ((now, demand), requests)
            if asked != (1 << len(members)) - 1:
                pending = _new(SuCoalitionState, (me, members, asked, requests, asks))
                return _new(HandlerResult, (pending, (), (), None))
            # Last expected demand: ask about the whole batch in one CFP.
            by_arrival = sorted(_in_order(requests), key=lambda td: (td[0], td[1].su_id))
            kind, key = MessageKind.CFP, None
            payload = demands = tuple(d for _, d in by_arrival)
        delay = ctx.timing.agg_per_demand * len(demands)
        sends = Message.fan_out(kind, me, ctx.plan.targets, payload, delay)
        asks = {**asks, key: _new(Ask, (demands, len(ctx.plan.targets), ()))}
        asking = _new(SuCoalitionState, (me, members, asked, (), asks))
        return _new(HandlerResult, (asking, sends, (), None))

    if msg.kind not in (MessageKind.CPU_OFFER, MessageKind.CPU_NO_OFFER):
        return _violation(state, me, f"unexpected {msg.kind.value}", now)
    reply: CoordinatorReply = msg.payload
    key = reply.demand_ref  # None for a batch
    if key not in asks:
        return _violation(state, me, f"{msg.kind.value} for ask {key!r}, which is not open", now)
    ask = asks[key]
    still_open, allocations, delay = _answer(ask, reply.offer, ctx)
    if still_open is not None:
        asks = {**asks, key: still_open}
        waiting = _new(SuCoalitionState, (me, members, asked, requests, asks))
        return _new(HandlerResult, (waiting, (), (), None))
    # Every coordinator has answered: answer each member the ask concerns.
    granted = {a.su_id: a.offer for a in allocations}
    sends = [
        (Message(MessageKind.SU_REPLY, me, d.su_id, granted.get(d.su_id)), delay)
        for d in ask.demands
    ]
    asks = {k: a for k, a in asks.items() if k != key}
    settled = _new(SuCoalitionState, (me, members, asked, requests, asks))
    return _new(HandlerResult, (settled, sends, allocations, None))


def _handle_su(
    state: SecondaryUserState, msg: Message, now: float, ctx: HandlerContext
) -> HandlerResult:
    me, requested = state.agent_id, state.channels_requested
    if state.phase is not SuPhase.WAITING:
        where = "phase" if state.phase is SuPhase.IDLE else "terminal phase"
        return _violation(state, me, f"{msg.kind.value} in {where} {state.phase.value}", now)

    ask = state.ask
    if ask is None and msg.kind is MessageKind.SU_REPLY:
        # The SU-coalition asked for this SU: its reply is the grant or None.
        allocations, served, completed_at = (), msg.payload is not None, now
    elif ask is not None and msg.kind in (MessageKind.CPU_OFFER, MessageKind.CPU_NO_OFFER):
        ask, allocations, delay = _answer(ask, msg.payload.offer, ctx)
        if ask is not None:
            waiting = _new(SecondaryUserState, (me, requested, SuPhase.WAITING, ask, None))
            return _new(HandlerResult, (waiting, (), (), None))
        served, completed_at = bool(allocations), now + delay
    else:
        return _violation(state, me, f"unexpected {msg.kind.value}", now)
    phase = SuPhase.SERVED if served else SuPhase.UNSERVED
    done = _new(SecondaryUserState, (me, requested, phase, None, completed_at))
    return _new(HandlerResult, (done, (), allocations, None))


# The handler of each agent state type.
_HANDLERS: dict[type, Callable[..., HandlerResult]] = {
    Offer: _handle_pu,
    ParamRegistry: _handle_cpu,
    SuCoalitionState: _handle_csu,
    SecondaryUserState: _handle_su,
}
