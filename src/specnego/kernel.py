"""Deterministic discrete-event kernel.

A simulation is a value: a virtual clock, a (time, seq)-ordered event queue,
and the agent states. Messages emitted by a handler at time t with send
delay d are delivered exactly at t + d + latency. Two wake/delivery events
at the same time dispatch in insertion order (strictly increasing ``seq``),
which makes every simulation bit-reproducible: no wall clock, no RNG, no
unordered iteration anywhere in dispatch.

Dispatch hands each event to its agent's handler, stores the returned state
without inspecting it, and applies the returned allocations and sends.
:meth:`World.report` reads each SU's outcome from its final state.

Events come in *runs*: the events due at the same time, bit for bit, with
consecutive seqs, as every fan-out of the negotiation produces. A queue
entry is one run, ``(time, first seq, events)``, where an event is the
:class:`Message` to deliver or the id of the SU to wake. A new event joins
the newest run while it is due at that run's time. That is exact: it takes
the next seq, and no other entry holds a seq inside the run, so none sorts
between its events. Seqs are unique, so ordering never compares events. A
run is dropped once its last event is dispatched. The seeds, and each
handler's sends, are queued in one pass.

The record of dispatched events is an :class:`EventLog`: the time and seq
once per run, and per event a sender, a recipient (agent ids interned in a
first-seen table) and a payload code, about 9 bytes per event plus 16 per
run and never more than 25 per event, so a simulation near the 10M-event
cap keeps its log in about 90 MB (250 MB if no two events shared a run).
One walk over the runs, which scans the codes a chunk at a time for run
starts, reads the log back: as :class:`LoggedEvent` rows, or a run at a time
for ``events.jsonl``. The event cap counts logged events: every dispatched
event is logged first, so the events pending are those queued less those
logged, and the messages sent are those queued less the SU wakes. Only a
queue run's first event goes through the log's merge rule; its later events
continue the run.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from itertools import chain, compress, count, pairwise
from types import MappingProxyType
from typing import Iterator, NamedTuple

from .coalitions import ParamRegistry
from .model import Offer, Scenario, expected_messages, validate
from .protocol import (
    Allocation,
    HandlerContext,
    Message,
    MessageKind,
    SecondaryUserState,
    SuCoalitionState,
    SuPhase,
    handle,
    handle_wake,
    topology_plan,
)

__all__ = [
    "DEFAULT_EVENT_CAP",
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


class LoggedEvent(NamedTuple):
    """One dispatched event as recorded in the run's event log."""

    time: float
    seq: int
    kind: str
    sender: str
    recipient: str
    payload_kind: str | None


# An event's payload code: 0 for a wake, 1 + the MessageKind's position for a
# delivery, plus _FIRST on the first event of a run. The code alone gives the
# event's (kind, payload_kind): EventLog.KINDS[code].
_CODES: dict[MessageKind | None, int] = {None: 0}
_CODES.update((kind, code) for code, kind in enumerate(MessageKind, 1))
_KINDS = ((AGENT_WAKE, None),) + tuple((DELIVER, kind.value) for kind in MessageKind)
_FIRST = len(_KINDS)
_STARTS = bytes(_FIRST) + bytes([1]) * (256 - _FIRST)  # code -> 1 on a run's first event
_CHUNK = 1 << 16  # codes scanned for run starts at a time


def _same_time(a: float, b: float) -> bool:
    """Whether two times are bit-identical: ``==``, and -0.0 is not 0.0."""
    return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))


class _Interner(dict):
    """Agent id -> index in first-seen order; an unseen id gets the next index.

    The keys, in the dict's own (insertion) order, list the ids by index.
    """

    def __missing__(self, agent_id: str) -> int:
        index = self[agent_id] = len(self)
        return index


class EventLog:
    """A simulation's dispatched events, in runs of one time and consecutive seqs.

    Per run, its time and its *offset*, the seq of its first event minus that
    event's row (row i of the run has seq i + offset); per event, typed
    columns of sender, recipient and payload code. Reads back as a sequence
    of :class:`LoggedEvent`: ``len``, iteration, integer indexing (which walks
    the runs before the index) and ``==``; or a run at a time, by :meth:`runs`.
    Two logs are equal when their rows are.
    """

    __slots__ = ("_times", "_offsets", "_senders", "_recipients", "_codes", "_ids")
    KINDS = _KINDS * 2  # (kind, payload_kind) by payload code

    def __init__(self) -> None:
        self._times = array("d")
        self._offsets = array("q")
        self._senders = array("i")
        self._recipients = array("i")
        self._codes = array("B")
        self._ids = _Interner()

    def append(
        self, time: float, seq: int, sender: str, recipient: str, payload: MessageKind | None
    ) -> None:
        """Log one event: a delivery of a ``payload`` message, or a wake when it is None."""
        codes = self._codes
        offset = seq - len(codes)
        if codes and offset == self._offsets[-1] and _same_time(time, self._times[-1]):
            return self.continue_run(sender, recipient, payload)
        self._times.append(time)
        self._offsets.append(offset)
        self.continue_run(sender, recipient, payload)
        codes[-1] += _FIRST

    def continue_run(self, sender: str, recipient: str, payload: MessageKind | None) -> None:
        """Log an event of the latest run: at the run's time, with the next seq."""
        ids = self._ids
        self._senders.append(ids[sender])
        self._recipients.append(ids[recipient])
        self._codes.append(_CODES[payload])

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i: int) -> LoggedEvent:
        n = len(self._codes)
        if not -n <= i < n:
            raise IndexError("event log index out of range")
        i %= n
        time, seq, start, _ = next(run for run in self._runs(n) if i < run[3])
        ids, (kind, payload_kind) = self.ids, self.KINDS[self._codes[i]]
        sender, recipient = ids[self._senders[i]], ids[self._recipients[i]]
        return LoggedEvent(time, seq + i - start, kind, sender, recipient, payload_kind)

    def __iter__(self) -> Iterator[LoggedEvent]:
        ids, kinds = self.ids, self.KINDS
        for time, rows in self.runs(len(self)):
            for seq, code, sender, recipient in rows:
                kind, payload_kind = kinds[code]
                yield LoggedEvent(time, seq, kind, ids[sender], ids[recipient], payload_kind)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        # The runs and the id table follow from the rows (ids are numbered in
        # order of first appearance), so equal rows mean equal columns.
        return all(
            getattr(self, column) == getattr(other, column) for column in self.__slots__
        )

    def count(self, payload: MessageKind | None) -> int:
        """The number of deliveries of ``payload`` messages, or of wakes when it is None."""
        # bytes.count scans a chunk at C speed; map drops each chunk before the next
        codes, code = memoryview(self._codes), _CODES[payload]
        chunks = (codes[i:i + _CHUNK].tobytes() for i in range(0, len(codes), _CHUNK))
        return sum(map(lambda chunk: chunk.count(code) + chunk.count(code + _FIRST), chunks))

    def _runs(self, size: int) -> Iterator[tuple[float, int, int, int]]:
        """Each run as ``(time, first seq, first row, end row)``, lazily, cut at
        every multiple of ``size`` rows; no whole column is copied to find them."""
        codes = self._codes
        starts = chain.from_iterable(
            compress(count(i), codes[i:i + _CHUNK].tobytes().translate(_STARTS))
            for i in range(0, len(codes), _CHUNK)
        )
        bounds = pairwise(chain(starts, (len(codes),)))
        for time, offset, (start, end) in zip(self._times, self._offsets, bounds):
            while start < end:
                stop = min(end, start - start % size + size)
                yield time, start + offset, start, stop
                start = stop

    @property
    def ids(self) -> list[str]:
        """The agent ids, by the index a row gives them."""
        return list(self._ids)

    def runs(self, size: int) -> Iterator[tuple[float, Iterator[tuple[int, int, int, int]]]]:
        """Each run as ``(time, rows)``, lazily, cut at every multiple of ``size`` rows.

        A row is ``(seq, code, sender, recipient)``: ``KINDS[code]`` is its
        ``(kind, payload_kind)``, and ``ids[sender]`` is its sender's id.
        """
        for time, seq, start, stop in self._runs(size):
            yield time, zip(
                range(seq, seq + stop - start), self._codes[start:stop],
                self._senders[start:stop], self._recipients[start:stop],
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
        self._latency = scenario.timing.latency
        self.event_cap = DEFAULT_EVENT_CAP if event_cap is None else int(event_cap)
        self.plan = topology_plan(scenario)

        self.clock = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, list[Message | str]]] = []  # a heap of runs
        # The run holding the latest seq, until its last event is dispatched.
        self._newest: tuple[float, int, list[Message | str]] | None = None
        self._next = 0  # the index of the earliest run's next event

        self.capacities: dict[str, int] = {pu.id: pu.channels for pu in scenario.pus}
        self.ctx = HandlerContext(
            timing=scenario.timing,
            weights=scenario.weights,
            plan=self.plan,
            capacities=MappingProxyType(self.capacities),
        )

        # A PU's state is its Offer; its t=0 Offer is also its ParamUpdate.
        cpu_of_pu = {pu: cpu for cpu, pus in self.plan.cpu_membership.items() for pu in pus}
        offers = [
            Offer(pu.id, cpu_of_pu.get(pu.id, pu.id), pu.channels, pu.price, pu.alloc_time)
            for pu in scenario.pus
        ]
        self.states: dict[str, object] = {offer.pu_id: offer for offer in offers}
        for cpu_id, members in self.plan.cpu_membership.items():
            self.states[cpu_id] = ParamRegistry(cpu_id, tuple(members))
        for csu_id, members in self.plan.csu_membership.items():
            self.states[csu_id] = SuCoalitionState(csu_id, tuple(members))
        for su in scenario.sus:
            self.states[su.id] = SecondaryUserState(su.id, su.channels_requested)

        self.event_log = EventLog()
        self.allocations: list[Allocation] = []
        self.violations: list[str] = []

        # Seed the run: PU parameter registrations delivered at t=0 in the
        # coalition topologies, and one wake per SU at its arrival time.
        if self.plan.wiring.pu_coalitions:
            self._enqueue([
                (Message(MessageKind.PARAM_UPDATE, offer.pu_id, offer.cpu_id, offer), 0.0)
                for offer in offers
            ])
        self._enqueue([(su.id, su.arrival_time) for su in scenario.sus])

    def _enqueue(self, events: list, time: float = -0.0, latency: float = -0.0) -> None:
        """Queue each ``(event, delay)``, in order, at ``time + delay + latency``.

        An event joins the newest run iff its due time is bit-identical to the run's.
        By default the due time is the delay (x + -0.0 is x for every float x).
        An inf due time raises, with the events before it queued and counted.
        """
        newest, seq = self._newest, self._seq
        try:
            for event, delay in events:
                due = time + delay + latency
                # == is bit-identity except between zeros, whose signs must also agree
                if newest is not None and due == newest[0] and (due or _same_time(due, newest[0])):
                    newest[2].append(event)
                else:
                    if due == math.inf:
                        raise RuntimeError(
                            f"delivery time overflows to inf: {event.kind.value} from "
                            f"{event.sender!r} to {event.recipient!r} at t={time!r}"
                        )
                    newest = (due, seq, [event])
                    heapq.heappush(self._queue, newest)
                seq += 1
        finally:
            self._newest = newest
            self._seq = seq

    @property
    def pending(self) -> int:
        """The number of queued events: those ever queued less those logged on dispatch."""
        return self._seq - len(self.event_log)

    @property
    def sent(self) -> int:
        """The number of messages sent: every queued event but the SU wakes."""
        return self._seq - len(self.scenario.sus)

    def step(self) -> "World":
        """Dispatch the single earliest (time, seq) event."""
        queue = self._queue
        if not queue:
            raise ValueError("step on an empty event queue")
        entry = time, first, events = queue[0]
        index = self._next
        event = events[index]
        if index + 1 < len(events):
            self._next = index + 1
        else:  # the run is done: a later event at its time starts a new one
            heapq.heappop(queue)
            self._next = 0
            if entry is self._newest:
                self._newest = None
        self.clock = time

        wake = type(event) is str
        kind, sender, agent_id, _ = (None, event, event, None) if wake else event
        # A run's later events continue the log's run: same time, next seq.
        if index:
            self.event_log.continue_run(sender, agent_id, kind)
        else:
            self.event_log.append(time, first, sender, agent_id, kind)
        state = self.states.get(agent_id)
        if state is None:
            raise ValueError(f"{'wake for' if wake else 'delivery to'} unknown agent {agent_id!r}")
        ctx = self.ctx
        self.states[agent_id], sends, allocations, violation = (
            handle_wake(state, time, ctx) if wake else handle(state, event, time, ctx)
        )
        if violation is not None:
            self.violations.append(violation)
        for allocation in allocations:
            remaining = self.capacities[allocation.offer.pu_id] - allocation.granted_channels
            if remaining < 0:
                raise RuntimeError(
                    f"capacity of {allocation.offer.pu_id!r} driven negative at t={time:g}"
                )
            self.capacities[allocation.offer.pu_id] = remaining
            self.allocations.append(allocation)
        if sends:
            self._enqueue(sends, time, self._latency)
        return self

    def run_to_quiescence(self) -> RunReport:
        for _ in range(self.event_cap - len(self.event_log)):
            if not self._queue:
                break
            self.step()
        if self._queue:
            raise SimulationCapExceeded(
                f"event cap {self.event_cap} reached at t={self.clock:g} "
                f"with {self.pending} events pending"
            )
        return self.report()

    def report(self) -> RunReport:
        if self._queue:
            raise ValueError("report requested before quiescence")
        msg_counts = {kind.value: self.event_log.count(kind) for kind in MessageKind}
        delivered = sum(msg_counts.values())
        scenario, plan = self.scenario, self.plan
        expected = expected_messages(
            scenario.topology, scenario.aggregation, len(scenario.sus), len(scenario.pus),
            len(plan.cpu_membership), sum(map(bool, plan.csu_membership.values())),
        )
        if not self.sent == delivered == expected:
            raise RuntimeError(
                f"message conservation broken: sent {self.sent}, delivered {delivered}, "
                f"closed form {expected}"
            )
        # Each SU's outcome is its final state: served, unserved, or never
        # finished (completed_at None). Every finished SU counts in run_response.
        per_su: dict[str, float | None] = {}
        completions = []
        for su in scenario.sus:
            state = self.states[su.id]
            completed = state.completed_at
            if completed == math.inf:
                raise RuntimeError(
                    f"completion time overflows to inf: {su.id!r} arrived at t={su.arrival_time!r}"
                )
            served = state.phase is SuPhase.SERVED
            per_su[su.id] = completed - su.arrival_time if served else None
            if completed is not None:
                completions.append(completed)
        run_response = None
        if completions:
            run_response = max(completions) - min(su.arrival_time for su in scenario.sus)
        registries = {cpu: dict(self.states[cpu].entries) for cpu in sorted(plan.cpu_membership)}
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


def run(scenario: Scenario, event_cap: int | None = None) -> RunReport:
    """Run a validated scenario to quiescence and return its report."""
    return World(scenario, event_cap=event_cap).run_to_quiescence()
