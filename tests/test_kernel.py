"""Discrete-event kernel tests: hand-traced timelines, ordering, determinism."""

import re
import sys
from array import array
from collections.abc import Mapping
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specnego.kernel
from specnego import (
    Allocation,
    Coordinator,
    Demand,
    MembershipOverride,
    Message,
    MessageKind,
    PrimaryUser,
    Scenario,
    SecondaryUser,
    SimulationCapExceeded,
    TimingConstants,
    World,
    Zone,
    expected_messages,
    generate_scenario,
    run,
    validate,
)
from specnego.kernel import AGENT_WAKE, DELIVER, EventLog, LoggedEvent
from specnego.model import WIRINGS
from specnego.coalitions import ParamRegistry
from specnego.model import Offer
from specnego.protocol import (
    Ask,
    CoordinatorReply,
    HandlerResult,
    SecondaryUserState,
    SuCoalitionState,
    SuPhase,
    handle,
    handle_wake,
)
from specnego.reports import render_allocations_csv, render_events_jsonl, render_metrics_csv


def reference_scenario(su_groups=(1,), aggregation=True, seed=1):
    return generate_scenario(
        "cpu_csu", pu_count=15, cpu_count=5, su_groups=su_groups,
        aggregation=aggregation, seed=seed,
    )


def deliveries(report, kind):
    return [e for e in report.event_log if e.payload_kind == kind]


def direct_scenario(pus=(PrimaryUser("pu0", Zone(0, 0), 4, 10.0, 60.0),), arrivals=(0.0,)):
    """A ``no_coalition`` scenario: ``pus``, and one SU ``su<i>`` per arrival time."""
    sus = tuple(SecondaryUser(f"su{i}", Zone(0, 1 + i), 1, t) for i, t in enumerate(arrivals))
    return Scenario(topology="no_coalition", pus=pus, sus=sus)


class TestHandTrace:
    def test_single_su_timeline(self):
        # 1 CSU x 1 SU arriving at 0, 5 CPUs x 3 PUs, default timing:
        # request delivered at 10, CFP emitted at 15 (delivered 25), offers
        # emitted at 27 (delivered 37), reply emitted at 42, delivered at 52.
        report = run(reference_scenario((1,)))
        assert {e.time for e in deliveries(report, "Cfp")} == {25.0}
        assert {e.time for e in deliveries(report, "CpuOffer")} == {37.0}
        assert [e.time for e in deliveries(report, "SuReply")] == [52.0]
        assert report.run_response == 52.0
        assert report.quiescent_at == 52.0
        assert report.per_su_response == {"su0000": 52.0}

    def test_unserved_completion_counts_in_run_response(self):
        # 1 PU x 1 channel, no coalitions, default timing. s0 (t=0): CfpSingle
        # delivered at 10, offer at 22, one offer ranked: served at 23. s1
        # (t=100): CfpSingle at 110, no offer at 122, none ranked: unserved at
        # 122, the run's last completion.
        scenario = Scenario(
            topology="no_coalition",
            pus=(PrimaryUser("pu0", Zone(0, 0), 1, 10.0, 60.0),),
            sus=(SecondaryUser("s0", Zone(0, 1), 1, 0.0),
                 SecondaryUser("s1", Zone(0, 1), 1, 100.0)),
        )
        report = run(scenario)
        assert report.per_su_response == {"s0": 23.0, "s1": None}
        assert report.run_response == 122.0

    def test_ten_su_timeline(self):
        # arrivals (i-1)*100: last request delivered at 910, CFP emitted at
        # 910 + 5*10 = 960, reply chain ends at 997.
        report = run(reference_scenario((10,)))
        assert {e.time for e in deliveries(report, "Cfp")} == {970.0}
        assert report.run_response == 997.0

    def test_aggregated_message_total(self):
        report = run(reference_scenario((5, 5, 5)))
        assert report.total_messages == 15 + 2 * 15 + 2 * 3 * 5 == 75
        assert report.msg_counts["Cfp"] == 15
        assert report.msg_counts["CpuOffer"] + report.msg_counts["CpuNoOffer"] == 15
        assert report.total_messages == len(
            [e for e in report.event_log if e.kind == DELIVER]
        )


class TestStep:
    def test_single_step_advances_clock_and_log(self):
        world = World(reference_scenario((1,)))
        world.step()
        assert len(world.event_log) == 1
        assert world.clock == 0.0
        assert world.event_log[0].payload_kind == "ParamUpdate"

    def test_equal_times_dispatch_by_seq(self):
        # two SUs with identical arrival times: insertion order must win
        scenario = Scenario(
            topology="no_coalition",
            pus=(PrimaryUser("pu0", Zone(0, 0), 4, 10.0, 60.0),),
            sus=(
                SecondaryUser("sb", Zone(0, 1), 1, 0.0),
                SecondaryUser("sa", Zone(0, 2), 1, 0.0),
            ),
        )
        world = World(scenario)
        assert world.pending == 2  # events: the two wakes are one run
        world.step()
        assert world.pending == 2  # sa's wake, and sb's call for proposals
        world.step()
        # insertion order (scenario order), not id order
        assert [e.sender for e in world.event_log] == ["sb", "sa"]
        assert [e.seq for e in world.event_log] == [0, 1]

    def test_step_on_empty_queue_fails(self):
        world = World(reference_scenario((1,)))
        world.run_to_quiescence()
        with pytest.raises(ValueError, match="empty"):
            world.step()

    def test_delivery_to_unknown_agent_fails(self):
        world = World(reference_scenario((1,)))
        bogus = Message(MessageKind.SU_REQUEST, "ghost1", "ghost2", Demand("ghost1", 1))
        world._enqueue([(bogus, 0.0)])
        with pytest.raises(ValueError, match="unknown agent"):
            for _ in range(30):
                world.step()

    def test_handler_violation_is_recorded(self):
        # pu0 never handles an SuReply; the kernel records what its handler says
        world = World(direct_scenario())
        world._enqueue([(Message(MessageKind.SU_REPLY, "su0", "pu0", None), 0.0)])
        while world.pending:
            world.step()
        assert world.violations == ["t=0: unexpected SuReply at 'pu0'"]
        # the injected message counts as sent and delivered, but the closed
        # form has no place for it, so the totals cannot agree
        with pytest.raises(RuntimeError, match="message conservation broken"):
            world.report()

    def test_allocation_beyond_capacity_is_refused(self, monkeypatch):
        # assign_offers never over-grants, so a stub handler must: pu0 has 4
        def over_grant(state, message, now, ctx):
            return HandlerResult(state, allocations=[Allocation("su0", state, 5)])

        monkeypatch.setattr(specnego.kernel, "handle", over_grant)
        with pytest.raises(RuntimeError, match="capacity of 'pu0' driven negative at t=10"):
            run(direct_scenario())

    def test_overflowing_send_leaves_the_counts_agreeing(self, monkeypatch):
        # pu0 answers at t=1e300 with two replies; the second's due time
        # 1e300 + max float + latency overflows to inf
        def two_replies(state, message, now, ctx):
            if message.kind is not MessageKind.CFP_SINGLE:
                return handle(state, message, now, ctx)
            reply = Message(MessageKind.CPU_NO_OFFER, "pu0", "su0", CoordinatorReply(None, "su0"))
            return HandlerResult(state, [(reply, 0.0), (reply, sys.float_info.max)])

        monkeypatch.setattr(specnego.kernel, "handle", two_replies)
        world = World(direct_scenario(arrivals=(1e300,)))
        expected = "delivery time overflows to inf: CpuNoOffer from 'pu0' to 'su0' at t=1e+300"
        with pytest.raises(RuntimeError, match=re.escape(expected)):
            world.run_to_quiescence()
        queued = sum(len(events) for _, _, events in world._queue) - world._next
        assert world.pending == queued == 1  # the first reply
        # sent: the SU's call for proposals, delivered, and the queued reply
        assert world.sent == world.event_log.count(MessageKind.CFP_SINGLE) + queued == 2

    def test_report_before_quiescence_fails(self):
        world = World(reference_scenario((1,)))
        with pytest.raises(ValueError, match="quiescence"):
            world.report()

    def test_report_checks_the_closed_form(self):
        # a second registration, queued and so counted as sent, so that only
        # the closed form can tell the total is one message too many
        world = World(reference_scenario((1,)))
        offer = world.states["pu000"]  # a PU's state is its Offer
        extra = Message(MessageKind.PARAM_UPDATE, "pu000", offer.cpu_id, offer)
        world._enqueue([(extra, 0.0)])
        with pytest.raises(RuntimeError, match="sent 28, delivered 28, closed form 27"):
            world.run_to_quiescence()


    def test_signed_zero_arrivals_keep_their_sign(self):
        # -0.0 == 0.0, yet each wake is logged, and handled, at its own time
        report = run(direct_scenario(arrivals=(-0.0, 0.0)))
        lines = render_events_jsonl(report).splitlines()
        assert lines[:2] == [
            '{"time":-0.0,"seq":0,"kind":"AgentWake","from":"su0","to":"su0","payload_kind":null}',
            '{"time":0.0,"seq":1,"kind":"AgentWake","from":"su1","to":"su1","payload_kind":null}',
        ]


def wake_unknown_agent():
    world = World(direct_scenario())
    world._enqueue([("ghost", 0.0)])
    while world.pending:
        world.step()


def outcome(action):
    """What ``action()`` returns, or the text of the ValueError it raises."""
    try:
        return action()
    except ValueError as exc:
        return f"ValueError: {exc}"


CTX = World(direct_scenario()).ctx
CFP = Message(MessageKind.CFP_SINGLE, "su0", "pu0", Demand("su0", 1))


@pytest.mark.parametrize("action, expected", [
    (wake_unknown_agent, "ValueError: wake for unknown agent 'ghost'"),
    (lambda: (EventLog().__eq__([]), EventLog() == []), (NotImplemented, False)),
    (lambda: handle("ghost", CFP, 0.0, CTX), "ValueError: unknown agent state 'ghost'"),
    (lambda: handle_wake("pu0", 0.0, CTX), "ValueError: wake delivered to non-SU agent 'pu0'"),
    (lambda: handle_wake(SecondaryUserState("su0", 1, SuPhase.WAITING), 2.5, CTX).violation,
     "t=2.5: wake in phase Waiting at 'su0'"),
], ids=["unknown wake", "log vs non-log", "unknown state", "non-SU wake", "wake in phase"])
def test_error_paths(action, expected):
    assert outcome(action) == expected


def log_bytes(log):
    """The bytes held by the event log's typed columns."""
    columns = (getattr(log, name) for name in EventLog.__slots__)
    return sum(len(c) * c.itemsize for c in columns if isinstance(c, array))


class TestEventLogSize:
    def test_fan_outs_log_under_ten_bytes_per_event(self, bulk_run):
        # each SU's wake, call wave and reply wave is a run
        log = bulk_run[1].event_log
        assert len(log) == 401_000
        assert log_bytes(log) <= 10 * len(log)

    def test_one_event_runs_log_at_most_25_bytes_per_event(self):
        # one PU and SUs 100 apart: no two events share a time
        log = run(direct_scenario(arrivals=(0.0, 100.0, 200.0))).event_log
        assert len({e.time for e in log}) == len(log) == 9
        assert log_bytes(log) <= 25 * len(log)

class TestRecords:
    def test_field_names_and_order(self):
        assert LoggedEvent._fields == (
            "time", "seq", "kind", "sender", "recipient", "payload_kind"
        )

    def test_records_are_immutable(self):
        record = LoggedEvent(1.0, 0, AGENT_WAKE, "su0", "su0", None)
        with pytest.raises(AttributeError):
            record.time = 2.0
        with pytest.raises(AttributeError):
            record.seq = 1


class TestRun:
    def test_rejects_invalid_scenario(self):
        scenario = Scenario(
            topology="cpu_csu",
            pus=(PrimaryUser("pu0", Zone(0, 0), 4, 10.0, 60.0),),
            sus=(SecondaryUser("su0", Zone(0, 1), 1, 0.0),),
            cpu_coordinators=(Coordinator("cpu0", Zone(0, 0)),),
            csu_coordinators=(),
        )
        with pytest.raises(ValueError, match="invalid scenario"):
            run(scenario)

    def test_event_cap_aborts_with_diagnostic(self):
        world = World(reference_scenario((1,)), event_cap=3)
        with pytest.raises(SimulationCapExceeded, match="event cap 3") as raised:
            world.run_to_quiescence()
        # the cap counts logged events, and the message names what is still queued
        assert len(world.event_log) == 3
        assert "with 13 events pending" in str(raised.value)
        assert world.pending == 13

    def test_clock_is_monotone(self):
        report = run(reference_scenario((5, 5, 5)))
        times = [e.time for e in report.event_log]
        assert times == sorted(times)

    def test_deterministic_reports(self):
        for scenario in (
            reference_scenario((5, 5, 5)),
            reference_scenario((5, 5, 5), aggregation=False),
            generate_scenario("no_coalition", pu_count=15, su_groups=(15,)),
            generate_scenario("cpu_only", pu_count=15, cpu_count=5, su_groups=(15,)),
        ):
            first, second = run(scenario), run(scenario)
            assert first == second
            assert render_events_jsonl(first) == render_events_jsonl(second)
            assert render_metrics_csv(first) == render_metrics_csv(second)

    def test_every_su_reaches_terminal_state(self):
        report = run(reference_scenario((5, 5, 5)))
        assert set(report.per_su_response) == {f"su{i:04d}" for i in range(15)}
        served = [s for s, v in report.per_su_response.items() if v is not None]
        assert len(served) == len(report.allocations)

    def test_capacity_accounting(self):
        scenario = reference_scenario((5, 5, 5))
        report = run(scenario)
        initial = {pu.id: pu.channels for pu in scenario.pus}
        granted: dict[str, int] = {}
        for allocation in report.allocations:
            granted[allocation.offer.pu_id] = (
                granted.get(allocation.offer.pu_id, 0) + allocation.granted_channels
            )
        for pu_id, total in granted.items():
            assert total <= initial[pu_id]
        for pu_id, remaining in report.final_capacities.items():
            assert remaining >= 0
            assert remaining == initial[pu_id] - granted.get(pu_id, 0)

    def test_registries_snapshot_in_report(self):
        scenario = reference_scenario((1,))
        report = run(scenario)
        assert set(report.registries) == {f"cpu{k:02d}" for k in range(5)}
        assert all(len(entries) == 3 for entries in report.registries.values())

    def test_run_response_spans_first_arrival_to_last_reply(self):
        report = run(reference_scenario((10,)))
        last_reply = max(e.time for e in deliveries(report, "SuReply"))
        assert report.run_response == last_reply - 0.0

    def test_no_coalition_flow(self):
        scenario = generate_scenario("no_coalition", pu_count=3, su_groups=(2,))
        report = run(scenario)
        assert report.total_messages == 2 * 2 * 3
        assert report.msg_counts["ParamUpdate"] == 0
        assert report.msg_counts["CfpSingle"] == 6
        # every SU ranked 3 offers; completion = last reply + 3 * rank cost
        assert all(v is not None for v in report.per_su_response.values())
        # every SU exchanges exactly 2P messages: P queries out, P replies in
        for su in scenario.sus:
            touched = [
                e for e in report.event_log
                if e.kind == DELIVER and su.id in (e.sender, e.recipient)
            ]
            assert len(touched) == 2 * 3

    def test_cpu_only_flow(self):
        scenario = generate_scenario("cpu_only", pu_count=6, cpu_count=2, su_groups=(2,))
        report = run(scenario)
        assert report.total_messages == 6 + 2 * 2 * 2
        assert report.msg_counts["ParamUpdate"] == 6
        assert report.protocol_violations == []

    def test_su_with_nobody_to_ask(self):
        # no PUs: each SU is unserved at its arrival and no message is sent
        report = run(direct_scenario(pus=(), arrivals=(5.0, 7.0)))
        assert report.total_messages == 0
        assert report.per_su_response == {"su0": None, "su1": None}
        assert report.run_response == 2.0
        assert report.quiescent_at == 7.0

    def test_non_aggregated_flow(self):
        report = run(reference_scenario((5, 5, 5), aggregation=False))
        assert report.total_messages == 15 + 2 * 15 + 2 * 15 * 5 == 195
        assert report.msg_counts["Cfp"] == 0
        assert report.msg_counts["CfpSingle"] == 75
        assert report.msg_counts["SuReply"] == 15


zones = st.builds(
    Zone,
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50),
)
# A few fixed points, so that agents and coordinators tie on distance.
some_zones = st.one_of(zones, st.sampled_from([Zone(0, 0), Zone(1, 0), Zone(0, 1)]))
arrivals = st.sampled_from([0.0, 50.0, 100.0])


@st.composite
def override(draw, members, coordinators):
    """None, or each member under a drawn coordinator, so some coalitions may be empty."""
    if not coordinators or not draw(st.booleans()):
        return None
    chosen = [draw(st.sampled_from(coordinators)).id for _ in members]
    return {c.id: tuple(m.id for m, cid in zip(members, chosen) if cid == c.id)
            for c in coordinators}


@st.composite
def arbitrary_scenarios(draw, topology=None, aggregation=None):
    """A valid scenario; in ``topology`` and ``aggregation`` mode when given."""
    if topology is None:
        topology = draw(st.sampled_from(tuple(WIRINGS)))
    wiring = WIRINGS[topology]
    n_pu = draw(st.integers(min_value=0 if topology == "no_coalition" else 1, max_value=6))
    n_su = draw(st.integers(min_value=0, max_value=6))
    no_capacity = draw(st.booleans())
    same_arrival = draw(st.one_of(st.none(), arrivals))  # every SU at once
    pus = tuple(
        PrimaryUser(
            f"pu{j}",
            draw(some_zones),
            0 if no_capacity else draw(st.integers(min_value=0, max_value=5)),
            draw(st.floats(min_value=1.0, max_value=20.0)),
            draw(st.floats(min_value=1.0, max_value=100.0)),
        )
        for j in range(n_pu)
    )
    sus = tuple(
        SecondaryUser(
            f"su{i}",
            draw(some_zones),
            draw(st.integers(min_value=1, max_value=4)),
            draw(arrivals) if same_arrival is None else same_arrival,
        )
        for i in range(n_su)
    )
    cpu_coordinators = csu_coordinators = ()
    if wiring.pu_coalitions:
        cpu_coordinators = tuple(
            Coordinator(f"cpu{k}", draw(some_zones))
            for k in range(draw(st.integers(min_value=1, max_value=3)))
        )
    if wiring.su_coalitions:
        csu_coordinators = tuple(
            Coordinator(f"csu{k}", draw(some_zones))
            for k in range(draw(st.integers(min_value=1, max_value=3)))
        )
    return Scenario(
        topology=topology,
        pus=pus,
        sus=sus,
        cpu_coordinators=cpu_coordinators,
        csu_coordinators=csu_coordinators,
        aggregation=draw(st.booleans()) if aggregation is None else aggregation,
        memberships=MembershipOverride(
            cpu=draw(override(pus, cpu_coordinators)),
            csu=draw(override(sus, csu_coordinators)),
        ),
    )


def exports(report):
    return render_metrics_csv(report), render_events_jsonl(report), render_allocations_csv(report)


@given(arbitrary_scenarios())
@settings(max_examples=200, deadline=None)
def test_property_valid_scenarios_run_to_quiescence(scenario):
    assert validate(scenario) == []
    world = World(scenario)
    report = world.run_to_quiescence()
    # conservation, the closed form, terminal coverage, capacity sanity
    assert report.total_messages == len(
        [e for e in report.event_log if e.kind == DELIVER]
    )
    plan = world.plan
    assert report.total_messages == expected_messages(
        scenario.topology, scenario.aggregation, len(scenario.sus), len(scenario.pus),
        len(plan.cpu_membership), sum(1 for members in plan.csu_membership.values() if members),
    )
    assert report.protocol_violations == []
    assert set(report.per_su_response) == {su.id for su in scenario.sus}
    assert all(
        world.states[su.id].phase in (SuPhase.SERVED, SuPhase.UNSERVED) for su in scenario.sus
    )
    assert all(v >= 0 for v in report.final_capacities.values())
    times = [e.time for e in report.event_log]
    assert times == sorted(times)
    assert exports(run(scenario)) == exports(report)


def signed_zero_arrivals(scenario, draw):
    """Every SU arrives at -0.0 or at 0.0: equal times that never share a run."""
    arrivals = [draw(st.sampled_from([-0.0, 0.0])) for _ in scenario.sus]
    return replace(scenario, sus=tuple(
        replace(su, arrival_time=t) for su, t in zip(scenario.sus, arrivals)
    ))


@pytest.mark.parametrize("variant", [
    lambda scenario, draw: scenario,
    # every send is due at once, so it joins the run being dispatched
    lambda scenario, draw: replace(scenario, timing=TimingConstants(0.0, 0.0, 0.0, 0.0, 0.0)),
    signed_zero_arrivals,
], ids=["as drawn", "zero timing", "signed zero arrivals"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_property_log_equals_its_rows_appended_one_by_one(variant, data):
    # step continues the log's run for a queue run's later events; append
    # alone, applying its merge rule to every row, must build the same log
    scenario = variant(data.draw(arbitrary_scenarios()), data.draw)
    world, clocks = World(scenario), []
    while world.pending:
        clocks.append(repr(world.step().clock))
        # pending is derived from the seq and the log: it must equal what is queued
        queued = sum(len(events) for _, _, events in world._queue) - world._next
        assert world.pending == queued
        assert (world.pending == 0) == (not world._queue)
        # sent is derived from the seq too: each SU's wake is queued or logged
        # exactly once, so it must equal the deliveries logged and the messages queued
        done = world._queue[0][2][:world._next] if world._queue else []
        messages = sum(type(e) is Message for _, _, events in world._queue for e in events)
        messages -= sum(type(e) is Message for e in done)
        log = world.event_log
        assert world.sent == len(log) - log.count(None) + messages
    log = world.event_log
    # each row is logged at its dispatch time, and every queued seq once
    assert [repr(event.time) for event in log] == clocks
    assert sorted(event.seq for event in log) == list(range(len(log)))
    rebuilt = EventLog()
    for event in log:
        payload = None if event.payload_kind is None else MessageKind(event.payload_kind)
        rebuilt.append(event.time, event.seq, event.sender, event.recipient, payload)
    assert rebuilt == log


# Each per-event record's field types, in _fields order.
NONE = type(None)
FIELD_TYPES = {
    Demand: (str, int),
    CoordinatorReply: ((Offer, NONE), (str, NONE)),
    Message: (MessageKind, str, str, object),
    Ask: (tuple, int, tuple),
    SecondaryUserState: (str, int, SuPhase, (Ask, NONE), (float, NONE)),
    SuCoalitionState: (str, tuple, int, tuple, Mapping),
    HandlerResult: (
        (Offer, ParamRegistry, SecondaryUserState, SuCoalitionState), (list, tuple),
        (list, tuple), (str, NONE),
    ),
}


def check_records(value):
    """Every record in ``value``, itself included, has all its fields, each of
    its type, and equals what its constructor (and its checks) rebuild from them."""
    record_type = type(value)
    if record_type in FIELD_TYPES:
        assert len(value) == len(record_type._fields), value
        assert all(map(isinstance, value, FIELD_TYPES[record_type])), value
        assert record_type(*value) == value
    if isinstance(value, (tuple, list)):
        for item in value:
            check_records(item)
    elif isinstance(value, Mapping):
        for item in value.values():
            check_records(item)


@pytest.mark.parametrize("aggregation", [False, True], ids=["per_demand", "aggregated"])
@pytest.mark.parametrize("topology", list(WIRINGS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_property_handlers_return_whole_records(topology, aggregation, data):
    # handlers build their records field by field, skipping the constructors:
    # a field dropped or out of order must not reach the kernel
    scenario = data.draw(arbitrary_scenarios(topology, aggregation))
    results = []

    def recorded(handler):
        def call(*args):
            results.append(handler(*args))
            return results[-1]
        return call

    with mock.patch.object(specnego.kernel, "handle", recorded(handle)), \
            mock.patch.object(specnego.kernel, "handle_wake", recorded(handle_wake)):
        report = run(scenario)
    assert len(results) == len(report.event_log)
    for result in results:
        assert type(result) is HandlerResult
        check_records(result)
