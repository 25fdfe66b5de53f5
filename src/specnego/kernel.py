"""Deterministic discrete-event kernel.

A run is a value: a virtual clock, a (time, seq)-ordered event queue, and
the agent states. Messages emitted by a handler at time t with send delay d
are delivered exactly at t + d + latency. Two wake/delivery events at the
same time dispatch in insertion order (strictly increasing ``seq``), which
makes every run bit-reproducible: no wall clock, no RNG, no unordered
iteration anywhere in dispatch.

Event records (:class:`SimEvent`, :class:`LoggedEvent`) are NamedTuples so that
they stay cheap: a run builds one or two of them per event.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from .coalitions import ParamRegistry
from .model import Offer, Scenario, validate
from .protocol import (
    Allocation,
    HandlerContext,
    Message,
    MessageKind,
    PrimaryUserState,
    PuCoalitionState,
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
    "RunReport",
    "SimulationCapExceeded",
    "World",
    "run",
]

DEFAULT_EVENT_CAP = 10_000_000

DELIVER = "Deliver"
AGENT_WAKE = "AgentWake"


# Wire name of each message kind. Read on every delivery, where ``kind.value``
# would be an enum descriptor call.
_WIRE_NAMES: dict[MessageKind, str] = {kind: kind.value for kind in MessageKind}
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


@dataclass
class RunReport:
    """Everything measured during one run."""

    event_log: list[LoggedEvent]
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
            registry = ParamRegistry(coordinator_id=cpu_id, members=tuple(members))
            self.states[cpu_id] = PuCoalitionState(cpu_id, registry)
        for csu_id, members in self.plan.csu_membership.items():
            self.states[csu_id] = SuCoalitionState(csu_id, tuple(members))
        for su in scenario.sus:
            self.states[su.id] = SecondaryUserState(
                su.id, su.channels_requested, su.arrival_time
            )

        self.event_log: list[LoggedEvent] = []
        self.msg_counts: dict[str, int] = {kind.value: 0 for kind in MessageKind}
        self.sent = 0
        self.delivered = 0
        self.allocations: list[Allocation] = []
        self.violations: list[str] = []
        self.per_su_response: dict[str, float | None] = {}
        self._last_completion: float | None = None

        # Seed the run: PU parameter registrations delivered at t=0 in the
        # coalition topologies, and one wake per SU at its arrival time.
        if self.plan.topology in ("cpu_only", "cpu_csu"):
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
            wire_name = _WIRE_NAMES[message.kind]
            self.event_log.append(
                LoggedEvent(time, seq, DELIVER, message.sender, agent_id, wire_name)
            )
            self.msg_counts[wire_name] += 1
            self.delivered += 1
            state = self.states.get(agent_id)
            if state is None:
                raise ValueError(f"delivery to unknown agent {agent_id!r}")
            result = handle(state, message, time, self.ctx)
        else:
            self.event_log.append(LoggedEvent(time, seq, AGENT_WAKE, agent_id, agent_id, None))
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
        if self.sent != self.delivered:
            raise RuntimeError(
                f"message conservation broken: sent {self.sent}, delivered {self.delivered}"
            )
        arrivals = [su.arrival_time for su in self.scenario.sus]
        run_response = None
        if arrivals and self._last_completion is not None:
            run_response = self._last_completion - min(arrivals)
        registries = {
            agent_id: dict(state.registry.entries)
            for agent_id, state in sorted(self.states.items())
            if isinstance(state, PuCoalitionState)
        }
        per_su = {su.id: self.per_su_response.get(su.id) for su in self.scenario.sus}
        return RunReport(
            event_log=list(self.event_log),
            msg_counts=dict(self.msg_counts),
            total_messages=self.delivered,
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
        f"{what} time overflows to inf: {_WIRE_NAMES[message.kind]} from "
        f"{message.sender!r} to {message.recipient!r} at t={time!r}"
    )


def run(scenario: Scenario, event_cap: int | None = None) -> RunReport:
    """Run a validated scenario to quiescence and return its report."""
    return World(scenario, event_cap=event_cap).run_to_quiescence()
