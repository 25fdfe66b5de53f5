"""Deterministic discrete-event kernel.

A run is a value: a virtual clock, a (time, seq)-ordered event queue, and
the agent states. Messages emitted by a handler at time t with send delay d
are delivered exactly at t + d + latency. Two wake/delivery events at the
same time dispatch in insertion order (strictly increasing ``seq``), which
makes every run bit-reproducible: no wall clock, no RNG, no unordered
iteration anywhere in dispatch.

Each queued event is a :class:`SimEvent` NamedTuple, dropped once dispatched.
The run's record of dispatched events is an :class:`EventLog`: five typed
columns (time, seq, sender, recipient, payload code) with agent ids interned
in a first-seen table, about 25 bytes per event, so a run near the 10M-event
cap keeps its log in about 250 MB. Rows read back as :class:`LoggedEvent`.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterator, NamedTuple

from .coalitions import ParamRegistry
from .model import WIRINGS, Offer, Scenario, expected_messages, validate
from .protocol import (
    Allocation,
    HandlerContext,
    Message,
    MessageKind,
    PrimaryUserState,
    SecondaryUserState,
    SuCoalitionState,
    SuPhase,
    handle,
    handle_wake,
    topology_plan,
)

__all__ = [
    "DEFAULT_EVENT_CAP",
    "SimEvent",
    "LoggedEvent",
    "EventLog",
    "RunReport",
    "SimulationCapExceeded",
    "World",
    "run",
]

DEFAULT_EVENT_CAP = 10_000_000

DELIVER = "Deliver"
AGENT_WAKE = "AgentWake"
_TERMINAL = (SuPhase.SERVED, SuPhase.UNSERVED)


class SimEvent(NamedTuple):
    """A scheduled occurrence: message delivery or an agent wake-up."""

    time: float
    seq: int
    kind: str  # DELIVER or AGENT_WAKE
    message: Message | None = None
    agent_id: str | None = None


class LoggedEvent(NamedTuple):
    """One dispatched event as recorded in the run's event log."""

    time: float
    seq: int
    kind: str
    sender: str
    recipient: str
    payload_kind: str | None


# An event's payload code: 0 for a wake, 1 + the MessageKind's position for a
# delivery. The code alone gives the event's (kind, payload_kind).
_CODES: dict[MessageKind | None, int] = {None: 0}
_CODES.update((kind, code) for code, kind in enumerate(MessageKind, 1))
_KINDS = ((AGENT_WAKE, None),) + tuple((DELIVER, kind.value) for kind in MessageKind)


class _Interner(dict):
    """Agent id -> index in first-seen order; an unseen id gets the next index.

    ``names`` lists the ids by index.
    """

    __slots__ = ("names",)

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []

    def __missing__(self, agent_id: str) -> int:
        index = self[agent_id] = len(self.names)
        self.names.append(agent_id)
        return index


class EventLog:
    """The dispatched events of a run, one typed column per field.

    Reads back as a sequence of :class:`LoggedEvent`: ``len``, iteration,
    integer indexing and ``==``. Two logs are equal when their rows are.
    """

    __slots__ = ("_times", "_seqs", "_senders", "_recipients", "_codes", "_ids")

    def __init__(self) -> None:
        self._times = array("d")
        self._seqs = array("q")
        self._senders = array("i")
        self._recipients = array("i")
        self._codes = array("B")
        self._ids = _Interner()

    def append(
        self, time: float, seq: int, sender: str, recipient: str, payload: MessageKind | None
    ) -> None:
        """Log one event: a delivery of a ``payload`` message, or a wake when it is None."""
        ids = self._ids
        self._times.append(time)
        self._seqs.append(seq)
        self._senders.append(ids[sender])
        self._recipients.append(ids[recipient])
        self._codes.append(_CODES[payload])

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i: int) -> LoggedEvent:
        ids = self._ids.names
        kind, payload_kind = _KINDS[self._codes[i]]
        return LoggedEvent(
            self._times[i], self._seqs[i], kind,
            ids[self._senders[i]], ids[self._recipients[i]], payload_kind,
        )

    def __iter__(self) -> Iterator[LoggedEvent]:
        return map(LoggedEvent._make, self.rows(lambda value: value))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        # The id table follows from the rows (ids are numbered in order of
        # first appearance), so equal rows mean equal columns.
        return all(
            getattr(self, column) == getattr(other, column) for column in self.__slots__
        )

    def count(self, payload: MessageKind | None) -> int:
        """The number of deliveries of ``payload`` messages, or of wakes when it is None."""
        # bytes.count scans at C speed; array.count boxes every item
        return self._codes.tobytes().count(_CODES[payload])

    def rows(self, encode: Callable[[str | None], object]) -> Iterator[tuple]:
        """Every row as ``(time, seq, kind, sender, recipient, payload_kind)``, lazily.

        Each string field is ``encode`` of its value, called once per distinct
        value per call rather than once per row.
        """
        ids = [encode(agent_id) for agent_id in self._ids.names]
        kinds = [encode(kind) for kind, _ in _KINDS]
        payloads = [encode(payload_kind) for _, payload_kind in _KINDS]
        return zip(
            self._times,
            self._seqs,
            map(kinds.__getitem__, self._codes),
            map(ids.__getitem__, self._senders),
            map(ids.__getitem__, self._recipients),
            map(payloads.__getitem__, self._codes),
        )


@dataclass
class RunReport:
    """Everything measured during one run."""

    event_log: EventLog
    msg_counts: dict[str, int]
    total_messages: int
    per_su_response: dict[str, float | None]
    run_response: float | None
    allocations: list[Allocation]
    quiescent_at: float
    protocol_violations: list[str]
    registries: dict[str, dict[str, Offer]]
    final_capacities: dict[str, int]


class SimulationCapExceeded(RuntimeError):
    """Raised when a run dispatches more events than the configured cap."""


class World:
    """Mutable simulation state for one run; advanced one event at a time."""

    def __init__(self, scenario: Scenario, event_cap: int | None = None):
        problems = validate(scenario)
        if problems:
            raise ValueError("invalid scenario: " + "; ".join(problems))
        self.scenario = scenario
        self.event_cap = DEFAULT_EVENT_CAP if event_cap is None else int(event_cap)
        self.plan = topology_plan(scenario)

        self.clock = 0.0
        self.dispatched = 0
        self._seq = 0
        self._queue: list[SimEvent] = []

        self.capacities: dict[str, int] = {pu.id: pu.channels for pu in scenario.pus}
        self.ctx = HandlerContext(
            timing=scenario.timing,
            weights=scenario.weights,
            plan=self.plan,
            capacities=MappingProxyType(self.capacities),
        )

        # One Offer per PU, shared by its state and its t=0 ParamUpdate.
        offers: dict[str, Offer] = {}
        for pu in scenario.pus:
            cpu_id = self.plan.cpu_of_pu.get(pu.id, pu.id)
            offers[pu.id] = Offer(pu.id, cpu_id, pu.channels, pu.price, pu.alloc_time)
        self.states: dict[str, object] = {
            pu_id: PrimaryUserState(pu_id, offer) for pu_id, offer in offers.items()
        }
        for cpu_id, members in self.plan.cpu_membership.items():
            self.states[cpu_id] = ParamRegistry(cpu_id, tuple(members))
        for csu_id, members in self.plan.csu_membership.items():
            self.states[csu_id] = SuCoalitionState(csu_id, tuple(members))
        for su in scenario.sus:
            self.states[su.id] = SecondaryUserState(
                su.id, su.channels_requested, su.arrival_time
            )

        self.event_log = EventLog()
        self.sent = 0
        self.allocations: list[Allocation] = []
        self.violations: list[str] = []
        self.per_su_response: dict[str, float | None] = {}
        self._last_completion: float | None = None

        # Seed the run: PU parameter registrations delivered at t=0 in the
        # coalition topologies, and one wake per SU at its arrival time.
        if WIRINGS[self.plan.topology].pu_coalitions:
            for pu_id, offer in offers.items():
                message = Message(MessageKind.PARAM_UPDATE, pu_id, offer.cpu_id, offer)
                self._schedule(0.0, DELIVER, message=message)
                self.sent += 1
        for su in scenario.sus:
            self._schedule(su.arrival_time, AGENT_WAKE, agent_id=su.id)

    def _schedule(
        self, time: float, kind: str, message: Message | None = None, agent_id: str | None = None
    ) -> None:
        seq = self._seq
        self._seq = seq + 1
        # seq is unique, so heap comparisons never reach the message
        heapq.heappush(self._queue, SimEvent(time, seq, kind, message, agent_id))

    @property
    def pending(self) -> int:
        return len(self._queue)

    def step(self) -> "World":
        """Dispatch the single earliest (time, seq) event."""
        if not self._queue:
            raise ValueError("step on an empty event queue")
        time, seq, kind, message, agent_id = heapq.heappop(self._queue)
        self.clock = time
        self.dispatched += 1

        if kind == DELIVER:
            agent_id = message.recipient
            self.event_log.append(time, seq, message.sender, agent_id, message.kind)
            state = self.states.get(agent_id)
            if state is None:
                raise ValueError(f"delivery to unknown agent {agent_id!r}")
            result = handle(state, message, time, self.ctx)
        else:
            self.event_log.append(time, seq, agent_id, agent_id, None)
            state = self.states.get(agent_id)
            if state is None:
                raise ValueError(f"wake for unknown agent {agent_id!r}")
            result = handle_wake(state, time, self.ctx)

        self._apply(state, result.state, agent_id, message)
        if result.violation is not None:
            self.violations.append(result.violation)
        for allocation in result.allocations:
            remaining = self.capacities[allocation.offer.pu_id] - allocation.granted_channels
            if remaining < 0:
                raise RuntimeError(
                    f"capacity of {allocation.offer.pu_id!r} driven negative at t={time:g}"
                )
            self.capacities[allocation.offer.pu_id] = remaining
            self.allocations.append(allocation)
        for message, delay in result.sends:
            due = time + delay + self.scenario.timing.latency
            if due == math.inf:
                raise _time_overflow("delivery", message, time)
            self._schedule(due, DELIVER, message)
        self.sent += len(result.sends)
        return self

    def _apply(self, old_state, new_state, agent_id: str, message: Message | None) -> None:
        self.states[agent_id] = new_state
        if isinstance(new_state, SecondaryUserState) and isinstance(old_state, SecondaryUserState):
            if old_state.phase not in _TERMINAL and new_state.phase in _TERMINAL:
                completed = new_state.completed_at
                if completed == math.inf:
                    raise _time_overflow("completion", message, self.clock)
                if new_state.phase is SuPhase.SERVED:
                    self.per_su_response[agent_id] = completed - new_state.arrival_time
                else:
                    self.per_su_response[agent_id] = None
                if self._last_completion is None or completed > self._last_completion:
                    self._last_completion = completed

    def run_to_quiescence(self) -> RunReport:
        while self._queue:
            if self.dispatched >= self.event_cap:
                raise SimulationCapExceeded(
                    f"event cap {self.event_cap} reached at t={self.clock:g} "
                    f"with {len(self._queue)} events pending"
                )
            self.step()
        return self.report()

    def report(self) -> RunReport:
        if self._queue:
            raise ValueError("report requested before quiescence")
        msg_counts = {kind.value: self.event_log.count(kind) for kind in MessageKind}
        delivered = sum(msg_counts.values())
        plan = self.plan
        expected = expected_messages(
            plan.topology, plan.aggregation, len(self.scenario.sus), len(plan.pu_ids),
            len(plan.cpu_ids), sum(map(bool, plan.csu_membership.values())),
        )
        if not self.sent == delivered == expected:
            raise RuntimeError(
                f"message conservation broken: sent {self.sent}, delivered {delivered}, "
                f"closed form {expected}"
            )
        arrivals = [su.arrival_time for su in self.scenario.sus]
        run_response = None
        if arrivals and self._last_completion is not None:
            run_response = self._last_completion - min(arrivals)
        registries = {
            agent_id: dict(state.entries)
            for agent_id, state in sorted(self.states.items())
            if isinstance(state, ParamRegistry)
        }
        per_su = {su.id: self.per_su_response.get(su.id) for su in self.scenario.sus}
        return RunReport(
            event_log=self.event_log,
            msg_counts=msg_counts,
            total_messages=delivered,
            per_su_response=per_su,
            run_response=run_response,
            allocations=list(self.allocations),
            quiescent_at=self.clock,
            protocol_violations=list(self.violations),
            registries=registries,
            final_capacities=dict(sorted(self.capacities.items())),
        )


def _time_overflow(what: str, message: Message, time: float) -> RuntimeError:
    return RuntimeError(
        f"{what} time overflows to inf: {message.kind.value} from "
        f"{message.sender!r} to {message.recipient!r} at t={time!r}"
    )


def run(scenario: Scenario, event_cap: int | None = None) -> RunReport:
    """Run a validated scenario to quiescence and return its report."""
    return World(scenario, event_cap=event_cap).run_to_quiescence()
