"""Handler state-machine, offer-assignment, and wiring-plan tests."""

import pytest

from specnego import (
    Demand,
    Message,
    MessageKind,
    Offer,
    TimingConstants,
    TopologyPlan,
    assign_offers,
    generate_scenario,
    handle,
    handle_wake,
    rank_offers,
    topology_plan,
)
from specnego.coalitions import ParamRegistry, register_params
from specnego.model import WIRINGS
from specnego.protocol import (
    Ask,
    CoordinatorReply,
    HandlerContext,
    HandlerResult,
    SecondaryUserState,
    SuCoalitionState,
    SuPhase,
)

WEIGHTS = (0.2, 0.5, 0.3)


def make_offer(pu_id, channels=4, price=10.0, alloc_time=60.0, cpu_id="cpu0"):
    return Offer(pu_id=pu_id, cpu_id=cpu_id, channels=channels, price=price,
                 alloc_time=alloc_time)


def make_ctx(topology="cpu_csu", aggregation=True, targets=("cpu0",), csu_of_su=None,
             capacities=None):
    plan = TopologyPlan(
        wiring=WIRINGS[topology],
        aggregation=aggregation,
        cpu_membership={},
        csu_membership={},
        targets=tuple(targets),
        csu_of_su=csu_of_su or {},
    )
    return HandlerContext(
        timing=TimingConstants(),
        weights=WEIGHTS,
        plan=plan,
        capacities=capacities or {},
    )


class TestMessage:
    def test_rejects_self_addressed(self):
        with pytest.raises(ValueError, match="itself"):
            Message(MessageKind.SU_REQUEST, "a", "a", Demand("a", 1))

    def test_rejects_payload_kind_mismatch(self):
        with pytest.raises(ValueError, match="payload"):
            Message(MessageKind.SU_REQUEST, "a", "b", make_offer("p"))
        with pytest.raises(ValueError, match="payload"):
            Message(MessageKind.CPU_OFFER, "a", "b", CoordinatorReply(None))
        # a Demand is a tuple, but a tuple of the same fields is not a Demand
        with pytest.raises(ValueError, match="does not match kind Cfp$"):
            Message(MessageKind.CFP, "a", "b", (Demand("s", 1), ("s", 1)))
        with pytest.raises(ValueError, match="does not match kind SuRequest$"):
            Message(MessageKind.SU_REQUEST, "a", "b", ("a", 1))

    def test_accepts_matching_payloads(self):
        Message(MessageKind.CFP, "a", "b", (Demand("s", 1),))
        Message(MessageKind.SU_REPLY, "a", "b", None)
        Message(MessageKind.CPU_NO_OFFER, "a", "b", CoordinatorReply(None, "s"))

    # kind -> (an accepted payload, a rejected payload)
    PAYLOADS = {
        MessageKind.PARAM_UPDATE: (make_offer("p"), Demand("s", 1)),
        MessageKind.SU_REQUEST: (Demand("s", 1), make_offer("p")),
        MessageKind.CFP: ((Demand("s", 1), Demand("t", 2)), (Demand("s", 1), "t")),
        MessageKind.CFP_SINGLE: (Demand("s", 1), (Demand("s", 1),)),
        MessageKind.CPU_OFFER: (CoordinatorReply(make_offer("p"), "s"), CoordinatorReply(None)),
        MessageKind.CPU_NO_OFFER: (CoordinatorReply(None, "s"), CoordinatorReply(make_offer("p"))),
        MessageKind.SU_REPLY: (make_offer("p"), CoordinatorReply(make_offer("p"))),
    }

    def test_payload_cases_cover_every_kind(self):
        assert set(self.PAYLOADS) == set(MessageKind)

    @pytest.mark.parametrize("kind", list(MessageKind), ids=lambda k: k.value)
    def test_payload_rule_per_kind(self, kind):
        accepted, rejected = self.PAYLOADS[kind]
        assert Message(kind, "a", "b", accepted).payload is accepted
        with pytest.raises(ValueError, match=f"does not match kind {kind.value}$"):
            Message(kind, "a", "b", rejected)

    def test_rejects_plain_string_kind(self):
        with pytest.raises(ValueError, match="'SuRequest' is not a MessageKind"):
            Message("SuRequest", "a", "b", Demand("a", 1))

    def test_replace_checks_the_new_message(self):
        message = Message(MessageKind.SU_REPLY, "a", "b", None)
        assert message._replace(recipient="c") == Message(MessageKind.SU_REPLY, "a", "c", None)
        with pytest.raises(ValueError, match="itself"):
            message._replace(recipient="a")

    def test_is_frozen_without_instance_dict(self):
        message = Message(MessageKind.SU_REPLY, "a", "b", None)
        with pytest.raises(AttributeError):
            message.sender = "c"
        assert not hasattr(message, "__dict__")


class TestFanOut:
    DEMAND = Demand("s", 1)

    @pytest.mark.parametrize("recipients", [(), ("b",), ("b", "c", "d")])
    def test_equals_the_messages_built_one_by_one(self, recipients):
        sends = Message.fan_out(MessageKind.CFP_SINGLE, "a", recipients, self.DEMAND, 0.5)
        assert sends == [
            (Message(MessageKind.CFP_SINGLE, "a", r, self.DEMAND), 0.5) for r in recipients
        ]
        assert all(type(message) is Message for message, _ in sends)

    def test_no_recipients_checks_nothing(self):
        assert Message.fan_out("Cfp", "a", (), None, 0.0) == []

    @pytest.mark.parametrize("kind, recipients, payload", [
        ("CfpSingle", ("b", "c"), DEMAND),
        (MessageKind.CFP, ("b", "c"), DEMAND),
        (MessageKind.CFP_SINGLE, ("a", "b", "c"), DEMAND),
        (MessageKind.CFP_SINGLE, ("b", "a", "c"), DEMAND),
        (MessageKind.CFP_SINGLE, ("b", "c", "a"), DEMAND),
    ], ids=["plain string kind", "payload mismatch", "sender first", "sender in the middle",
            "sender last"])
    def test_raises_what_building_one_by_one_raises(self, kind, recipients, payload):
        with pytest.raises(ValueError) as one_by_one:
            [Message(kind, "a", r, payload) for r in recipients]
        with pytest.raises(ValueError) as fanned:
            Message.fan_out(kind, "a", recipients, payload, 0.0)
        assert str(fanned.value) == str(one_by_one.value)


class TestAssignOffers:
    def test_single_demand_consumes_capacity(self):
        offers = [make_offer("p", channels=5)]
        allocations, unserved = assign_offers(offers, [("su", 3)], {"p": 5})
        assert len(allocations) == 1 and unserved == []
        assert allocations[0].granted_channels == 3
        # caller applies the decrement; the offer reports what was consumed
        assert allocations[0].offer.pu_id == "p"

    def test_rank_ordered_consumption(self):
        offers = [make_offer("a"), make_offer("b")]
        allocations, unserved = assign_offers(
            offers, [("s1", 4), ("s2", 4)], {"a": 4, "b": 4}
        )
        assert [(a.su_id, a.offer.pu_id) for a in allocations] == [("s1", "a"), ("s2", "b")]
        assert unserved == []

    def test_exhaustion_leaves_unserved(self):
        offers = [make_offer("a"), make_offer("b")]
        allocations, unserved = assign_offers(
            offers, [("s1", 2), ("s2", 2), ("s3", 2)], {"a": 8, "b": 8}
        )
        assert len(allocations) == 2 and unserved == ["s3"]

    def test_infeasible_offer_skipped(self):
        offers = [make_offer("small"), make_offer("big")]
        allocations, _ = assign_offers(offers, [("s", 5)], {"small": 2, "big": 6})
        assert allocations[0].offer.pu_id == "big"

    def test_each_offer_consumed_at_most_once(self):
        offers = [make_offer("a")]
        allocations, unserved = assign_offers(
            offers, [("s1", 1), ("s2", 1)], {"a": 10}
        )
        assert len(allocations) == 1 and unserved == ["s2"]

    def test_input_capacities_not_mutated(self):
        capacities = {"a": 5}
        assign_offers([make_offer("a")], [("s", 2)], capacities)
        assert capacities == {"a": 5}

    def test_demands_assign_as_their_pairs(self):
        offers = [make_offer("a"), make_offer("b", channels=2)]
        pairs = [("s1", 3), ("s2", 2), ("s3", 2)]
        capacities = {"a": 4, "b": 2}
        by_demand = assign_offers(offers, [Demand(*pair) for pair in pairs], capacities)
        assert by_demand == assign_offers(offers, pairs, capacities)


class TestRecords:
    def test_field_order(self):
        assert Demand._fields == ("su_id", "channels_requested")
        assert HandlerResult._fields == ("state", "sends", "allocations", "violation")

    @pytest.mark.parametrize("record, field", [
        (Demand("s", 1), "channels_requested"),
        (HandlerResult(None), "sends"),
    ])
    def test_fields_are_read_only(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 2)

    def test_handler_result_defaults(self):
        state = make_offer("p")
        assert tuple(HandlerResult(state)) == (state, (), (), None)


class TestRankOffers:
    def test_orders_best_first(self):
        offers = [make_offer("worst", 1, 19.0, 15.0), make_offer("best", 7, 6.0, 110.0)]
        assert [o.pu_id for o in rank_offers(offers, WEIGHTS)] == ["best", "worst"]

    def test_empty(self):
        assert rank_offers([], WEIGHTS) == []


class TestSuHandlers:
    def test_wake_sends_one_request_to_own_coalition(self):
        state = SecondaryUserState("su0", 2)
        ctx = make_ctx(csu_of_su={"su0": "csu0"})
        result = handle_wake(state, 0.0, ctx)
        assert result.state.phase is SuPhase.WAITING
        [(message, delay)] = result.sends
        assert message.kind is MessageKind.SU_REQUEST
        assert (message.sender, message.recipient, delay) == ("su0", "csu0", 0.0)

    def test_wake_broadcasts_in_flat_topologies(self):
        state = SecondaryUserState("su0", 2)
        ctx = make_ctx(topology="no_coalition", targets=("p0", "p1", "p2"))
        result = handle_wake(state, 0.0, ctx)
        assert [m.recipient for m, _ in result.sends] == ["p0", "p1", "p2"]
        assert all(m.kind is MessageKind.CFP_SINGLE for m, _ in result.sends)
        assert result.state.phase is SuPhase.WAITING
        assert result.state.ask == Ask((Demand("su0", 2),), due=3)

    def test_reply_in_terminal_phase_is_violation(self):
        state = SecondaryUserState("su0", 2, phase=SuPhase.SERVED)
        message = Message(MessageKind.SU_REPLY, "csu0", "su0", None)
        result = handle(state, message, 9.0, make_ctx())
        assert result.violation is not None and "terminal" in result.violation
        assert result.state == state and not result.sends

    def test_reply_with_offer_serves(self):
        state = SecondaryUserState("su0", 2, phase=SuPhase.WAITING)
        message = Message(MessageKind.SU_REPLY, "csu0", "su0", make_offer("p"))
        result = handle(state, message, 52.0, make_ctx())
        assert result.state.phase is SuPhase.SERVED
        assert result.state.completed_at == 52.0

    def test_local_ranking_after_last_reply(self):
        # no-coalition SU collects two offers, ranks them after the second,
        # and completes rank_per_offer * offers later
        ctx = make_ctx(topology="no_coalition", targets=("a", "b"), capacities={"a": 4, "b": 4})
        state = handle_wake(SecondaryUserState("su0", 2), 0.0, ctx).state
        first = Message(MessageKind.CPU_OFFER, "a", "su0",
                        CoordinatorReply(make_offer("a", cpu_id="a"), "su0"))
        result = handle(state, first, 20.0, ctx)
        assert result.state.phase is SuPhase.WAITING and not result.allocations
        second = Message(MessageKind.CPU_OFFER, "b", "su0",
                         CoordinatorReply(make_offer("b", cpu_id="b"), "su0"))
        result = handle(result.state, second, 22.0, ctx)
        assert result.state.phase is SuPhase.SERVED and result.state.ask is None
        assert result.state.completed_at == 22.0 + 1.0 * 2
        assert len(result.allocations) == 1

    def test_unserved_when_no_feasible_offer(self):
        ctx = make_ctx(topology="no_coalition", targets=("a",), capacities={"a": 4})
        state = handle_wake(SecondaryUserState("su0", 9), 0.0, ctx).state
        message = Message(MessageKind.CPU_OFFER, "a", "su0",
                          CoordinatorReply(make_offer("a", cpu_id="a"), "su0"))
        result = handle(state, message, 20.0, ctx)
        assert result.state.phase is SuPhase.UNSERVED and not result.allocations
        assert result.state.ask is None

    def test_no_offer_counts_as_a_reply_but_is_not_ranked(self):
        ctx = make_ctx(topology="cpu_only", targets=("cpu0", "cpu1"), capacities={"a": 4})
        state = handle_wake(SecondaryUserState("su0", 2), 0.0, ctx).state
        none = Message(MessageKind.CPU_NO_OFFER, "cpu0", "su0", CoordinatorReply(None, "su0"))
        result = handle(state, none, 20.0, ctx)
        assert result.state.phase is SuPhase.WAITING
        assert result.state.ask == Ask((Demand("su0", 2),), due=1)  # no offer is kept
        offer = Message(MessageKind.CPU_OFFER, "cpu1", "su0",
                        CoordinatorReply(make_offer("a", cpu_id="cpu1"), "su0"))
        result = handle(result.state, offer, 21.0, ctx)
        assert result.state.phase is SuPhase.SERVED
        assert result.state.completed_at == 21.0 + 1.0 * 1  # one offer ranked

    def test_coordinator_reply_under_cpu_csu_is_violation(self):
        state = SecondaryUserState("su0", 2, phase=SuPhase.WAITING)
        message = Message(MessageKind.CPU_OFFER, "cpu0", "su0",
                          CoordinatorReply(make_offer("p0"), "su0"))
        result = handle(state, message, 20.0, make_ctx(capacities={"p0": 4}))
        assert result.violation == "t=20: unexpected CpuOffer at 'su0'"
        assert result.state is state and not result.allocations

    def test_su_reply_to_an_su_asking_itself_is_violation(self):
        ctx = make_ctx(topology="cpu_only", targets=("cpu0",))
        state = handle_wake(SecondaryUserState("su0", 2), 0.0, ctx).state
        message = Message(MessageKind.SU_REPLY, "cpu0", "su0", make_offer("p0"))
        result = handle(state, message, 20.0, ctx)
        assert result.violation == "t=20: unexpected SuReply at 'su0'"
        assert result.state is state and result.state.phase is SuPhase.WAITING


@pytest.mark.parametrize("asker", ["su", "csu"])
def test_equal_offers_ranked_in_reply_order(asker):
    # Equal terms from b, then no offer, then a: the earlier reply wins the tie,
    # whether the SU asks itself or its SU-coalition asks for that one demand.
    cpu_ids = ("cpu0", "cpu1", "cpu2")
    if asker == "su":
        ctx = make_ctx(topology="cpu_only", targets=cpu_ids, capacities={"a": 4, "b": 4})
        state = handle_wake(SecondaryUserState("su0", 2), 0.0, ctx).state
    else:
        ctx = make_ctx(aggregation=False, targets=cpu_ids, capacities={"a": 4, "b": 4})
        request = Message(MessageKind.SU_REQUEST, "su0", "csu0", Demand("su0", 2))
        state = handle(SuCoalitionState("csu0", ("su0",)), request, 10.0, ctx).state
    me = state.agent_id
    for cpu, offer in zip(cpu_ids, (make_offer("b"), None, make_offer("a"))):
        kind = MessageKind.CPU_NO_OFFER if offer is None else MessageKind.CPU_OFFER
        result = handle(state, Message(kind, cpu, me, CoordinatorReply(offer, "su0")), 30.0, ctx)
        state = result.state
    [allocation] = result.allocations
    assert (allocation.su_id, allocation.offer.pu_id) == ("su0", "b")
    if asker == "su":
        assert state.phase is SuPhase.SERVED and state.ask is None
    else:
        assert state.asked == 0b1 and state.asks == {}
        assert [(m.recipient, m.payload) for m, _ in result.sends] == [("su0", make_offer("b"))]


@pytest.mark.parametrize("state, message", [
    (make_offer("p0", cpu_id="p0"), Message(MessageKind.CFP, "csu0", "p0", ())),
    (ParamRegistry("cpu0", ("pu0",)), Message(MessageKind.SU_REPLY, "csu0", "cpu0", None)),
    (SuCoalitionState("csu0", ("su0",)),
     Message(MessageKind.PARAM_UPDATE, "pu0", "csu0", make_offer("pu0"))),
], ids=["pu", "cpu", "csu"])
def test_kind_the_agent_never_handles_is_violation(state, message):
    result = handle(state, message, 7.0, make_ctx())
    assert result.violation == f"t=7: unexpected {message.kind.value} at {message.recipient!r}"
    assert result.state is state and not result.sends and not result.allocations


class TestCpuHandlers:
    def test_param_update_fills_registry(self):
        state = ParamRegistry("cpu0", ("pu0",))
        message = Message(MessageKind.PARAM_UPDATE, "pu0", "cpu0", make_offer("pu0"))
        result = handle(state, message, 0.0, make_ctx())
        assert result.state.entries["pu0"].channels == 4
        assert not result.sends

    def test_param_update_for_another_pu_is_a_violation(self):
        state = ParamRegistry("cpu0", ("pu0", "pu1"))
        message = Message(MessageKind.PARAM_UPDATE, "pu1", "cpu0", make_offer("pu0"))
        result = handle(state, message, 0.0, make_ctx())
        assert result.state is state and not result.sends
        assert result.violation == "t=0: ParamUpdate from 'pu1' for another PU at 'cpu0'"

    @pytest.mark.parametrize("offer, detail", [
        (make_offer("pu1"), "'pu1' is not a member of coalition 'cpu0'"),
        (make_offer("pu0", cpu_id="cpu1"), "offer of 'pu0' names coordinator 'cpu1', not 'cpu0'"),
    ])
    def test_param_update_the_registry_refuses_is_a_violation(self, offer, detail):
        state = ParamRegistry("cpu0", ("pu0",))
        message = Message(MessageKind.PARAM_UPDATE, offer.pu_id, "cpu0", offer)
        result = handle(state, message, 3.0, make_ctx())
        assert result.violation == f"t=3: {detail} at 'cpu0'"
        assert result.state is state and not result.sends and not result.allocations

    def test_cfp_yields_exactly_one_offer_after_select_delay(self):
        registry = ParamRegistry("cpu0", ("a", "b", "c"))
        for pu_id, price in (("a", 10.0), ("b", 8.0), ("c", 12.0)):
            registry = register_params(registry, Offer(pu_id, "cpu0", 4, price, 60.0))
        message = Message(MessageKind.CFP, "csu0", "cpu0", (Demand("su0", 2),))
        result = handle(registry, message, 25.0, make_ctx())
        [(reply, delay)] = result.sends
        assert reply.kind is MessageKind.CPU_OFFER and delay == 2.0
        assert reply.payload.offer.pu_id == "b"
        assert reply.payload.demand_ref is None

    def test_cfp_single_reply_carries_demand_ref(self):
        registry = register_params(ParamRegistry("cpu0", ("a",)), Offer("a", "cpu0", 4, 9.0, 60.0))
        message = Message(MessageKind.CFP_SINGLE, "su7", "cpu0", Demand("su7", 2))
        [(reply, _)] = handle(registry, message, 10.0, make_ctx()).sends
        assert reply.payload.demand_ref == "su7"

    def test_empty_registry_answers_no_offer(self):
        state = ParamRegistry("cpu0", ())
        message = Message(MessageKind.CFP, "csu0", "cpu0", ())
        [(reply, _)] = handle(state, message, 25.0, make_ctx()).sends
        assert reply.kind is MessageKind.CPU_NO_OFFER


class TestPuHandlers:
    def cfp(self, state, capacity):
        message = Message(MessageKind.CFP_SINGLE, "su0", "p0", Demand("su0", 1))
        return handle(state, message, 5.0, make_ctx(capacities={"p0": capacity}))

    def test_offer_reused_while_capacity_unchanged(self):
        first = self.cfp(Offer("p0", "p0", 4, 9.0, 30.0), 4)
        [(reply, delay)] = first.sends
        assert delay == 2.0
        assert reply.payload.offer == Offer("p0", "p0", 4, 9.0, 30.0)
        assert first.state is reply.payload.offer
        second = self.cfp(first.state, 4)
        assert second.state is first.state
        assert second.sends[0][0].payload.offer is reply.payload.offer

    def test_offer_rebuilt_when_capacity_changes(self):
        first = self.cfp(Offer("p0", "p0", 4, 9.0, 30.0), 4)
        second = self.cfp(first.state, 3)
        assert second.sends[0][0].payload.offer == Offer("p0", "p0", 3, 9.0, 30.0)
        assert second.state.channels == 3
        assert first.state.channels == 4  # the earlier state is untouched

    def test_no_offer_without_capacity(self):
        state = self.cfp(Offer("p0", "p0", 4, 9.0, 30.0), 4).state
        result = self.cfp(state, 0)
        assert result.sends[0][0].kind is MessageKind.CPU_NO_OFFER
        assert result.state is state

    def test_state_is_the_offer_at_last_quoted_capacity(self):
        state = Offer("p0", "p0", 4, 9.0, 30.0)
        assert self.cfp(state, 4).state is state
        rebuilt = self.cfp(state, 2).state
        assert rebuilt == Offer("p0", "p0", 2, 9.0, 30.0)


class TestCsuHandlers:
    def test_single_member_triggers_cfp_batch(self):
        state = SuCoalitionState("csu0", ("su0",))
        ctx = make_ctx(targets=("cpu0", "cpu1", "cpu2", "cpu3", "cpu4"))
        message = Message(MessageKind.SU_REQUEST, "su0", "csu0", Demand("su0", 2))
        result = handle(state, message, 10.0, ctx)
        assert result.state.asked == 0b1 and set(result.state.asks) == {None}
        assert len(result.sends) == 5
        assert all(m.kind is MessageKind.CFP for m, _ in result.sends)
        assert all(delay == 5.0 * 1 for _, delay in result.sends)

    def test_waits_for_all_member_demands(self):
        state = SuCoalitionState("csu0", ("su0", "su1"))
        ctx = make_ctx()
        message = Message(MessageKind.SU_REQUEST, "su0", "csu0", Demand("su0", 2))
        result = handle(state, message, 10.0, ctx)
        assert not result.sends and result.state.asked == 0b01 and result.state.asks == {}
        message = Message(MessageKind.SU_REQUEST, "su1", "csu0", Demand("su1", 1))
        result = handle(result.state, message, 110.0, ctx)
        assert result.state.asked == 0b11 and set(result.state.asks) == {None}
        [(cfp, delay)] = result.sends
        assert delay == 5.0 * 2
        assert [d.su_id for d in cfp.payload] == ["su0", "su1"]

    def test_fifth_offer_releases_replies(self):
        cpu_ids = ("cpu0", "cpu1", "cpu2", "cpu3", "cpu4")
        ctx = make_ctx(targets=cpu_ids, capacities={f"p{k}": 8 for k in range(5)})
        state = SuCoalitionState(
            "csu0",
            tuple(f"su{i}" for i in range(3)),
            asked=0b111,
            asks={None: Ask(tuple(Demand(f"su{i}", 1) for i in range(3)), due=5)},
        )
        for k in range(4):
            message = Message(
                MessageKind.CPU_OFFER, cpu_ids[k], "csu0",
                CoordinatorReply(make_offer(f"p{k}", cpu_id=cpu_ids[k])),
            )
            result = handle(state, message, 37.0, ctx)
            assert not result.sends
            state = result.state
        final = Message(
            MessageKind.CPU_OFFER, cpu_ids[4], "csu0",
            CoordinatorReply(make_offer("p4", cpu_id=cpu_ids[4])),
        )
        result = handle(state, final, 37.0, ctx)
        assert result.state.asks == {}
        assert len(result.sends) == 3  # one SuReply per member
        assert all(m.kind is MessageKind.SU_REPLY for m, _ in result.sends)
        assert all(delay == 1.0 * 5 for _, delay in result.sends)
        assert len(result.allocations) == 3

    def test_done_phase_rejects_messages(self):
        # done: every member has asked and no ask is open
        state = SuCoalitionState("csu0", ("su0",), asked=0b1)
        message = Message(MessageKind.SU_REQUEST, "su0", "csu0", Demand("su0", 1))
        result = handle(state, message, 99.0, make_ctx())
        assert result.violation == "t=99: second SuRequest from 'su0' at 'csu0'"
        assert result.state is state
        reply = Message(MessageKind.CPU_NO_OFFER, "cpu0", "csu0", CoordinatorReply(None))
        result = handle(state, reply, 99.0, make_ctx())
        assert result.violation == "t=99: CpuNoOffer for ask None, which is not open at 'csu0'"
        assert result.state is state

    def test_non_aggregated_forwards_each_demand(self):
        ctx = make_ctx(aggregation=False, targets=("cpu0", "cpu1"),
                       capacities={"p0": 8})
        state = SuCoalitionState("csu0", ("su0", "su1"))
        message = Message(MessageKind.SU_REQUEST, "su0", "csu0", Demand("su0", 2))
        result = handle(state, message, 10.0, ctx)
        assert [m.kind for m, _ in result.sends] == [MessageKind.CFP_SINGLE] * 2
        assert all(delay == 5.0 for _, delay in result.sends)
        # two replies for su0 close out that demand only
        state = result.state
        for cpu in ("cpu0", "cpu1"):
            reply = Message(
                MessageKind.CPU_OFFER, cpu, "csu0",
                CoordinatorReply(make_offer("p0", cpu_id=cpu), "su0"),
            )
            result = handle(state, reply, 34.0, ctx)
            state = result.state
        [(su_reply, _)] = result.sends
        assert su_reply.kind is MessageKind.SU_REPLY and su_reply.recipient == "su0"
        assert state.asked == 0b01 and state.asks == {}  # su1 has not asked yet

    def test_non_aggregated_coalition_reaches_done(self):
        cpu_ids = ("cpu0", "cpu1")
        ctx = make_ctx(aggregation=False, targets=cpu_ids, capacities={"p0": 8, "p1": 8})
        state = SuCoalitionState("csu0", ("su0", "su1"))
        for su_id, t in (("su0", 10.0), ("su1", 110.0)):
            message = Message(MessageKind.SU_REQUEST, su_id, "csu0", Demand(su_id, 2))
            state = handle(state, message, t, ctx).state
        assert state.asked == 0b11 and set(state.asks) == {"su0", "su1"}
        batch = Message(MessageKind.CPU_OFFER, "cpu0", "csu0",
                        CoordinatorReply(make_offer("p0", cpu_id="cpu0")))
        rejected = handle(state, batch, 120.0, ctx)
        assert "CpuOffer for ask None, which is not open" in rejected.violation
        # replies for the two demands interleave; each demand closes on its second
        answered = []
        for su_id, cpu, pu in (("su1", "cpu0", "p0"), ("su0", "cpu0", "p0"),
                               ("su1", "cpu1", "p1"), ("su0", "cpu1", "p1")):
            reply = Message(MessageKind.CPU_OFFER, cpu, "csu0",
                            CoordinatorReply(make_offer(pu, cpu_id=cpu), su_id))
            result = handle(state, reply, 130.0, ctx)
            state = result.state
            answered += [(m.recipient, m.payload is not None) for m, _ in result.sends]
        assert answered == [("su1", True), ("su0", True)]
        assert state.asks == {}
        late = handle(state, reply, 140.0, ctx)
        assert late.violation == "t=140: CpuOffer for ask 'su0', which is not open at 'csu0'"

    def per_demand_coalition(self):
        """A non-aggregated coalition of su0 and su1 with both demands forwarded."""
        ctx = make_ctx(aggregation=False, targets=("cpu0", "cpu1"), capacities={"p0": 8})
        state = SuCoalitionState("csu0", ("su0", "su1"))
        for su_id, t in (("su0", 10.0), ("su1", 110.0)):
            message = Message(MessageKind.SU_REQUEST, su_id, "csu0", Demand(su_id, 2))
            state = handle(state, message, t, ctx).state
        return state, ctx

    @staticmethod
    def offer_for(ref, cpu="cpu0"):
        return Message(MessageKind.CPU_OFFER, cpu, "csu0",
                       CoordinatorReply(make_offer("p0", cpu_id=cpu), ref))

    def test_reply_for_unknown_demand_is_violation(self):
        state, ctx = self.per_demand_coalition()
        result = handle(state, self.offer_for("su9"), 120.0, ctx)
        assert result.violation == "t=120: CpuOffer for ask 'su9', which is not open at 'csu0'"
        assert result.state is state and not result.sends and not result.allocations

    def test_duplicate_reply_for_settled_demand_is_violation(self):
        state, ctx = self.per_demand_coalition()
        for cpu in ("cpu0", "cpu1"):
            result = handle(state, self.offer_for("su0", cpu), 120.0, ctx)
            state = result.state
        assert len(result.allocations) == 1 and set(state.asks) == {"su1"}
        late = handle(state, self.offer_for("su0", "cpu1"), 121.0, ctx)
        assert late.violation == "t=121: CpuOffer for ask 'su0', which is not open at 'csu0'"
        assert not late.allocations and not late.sends
        assert late.state is state
        assert late.state.asked == 0b11

    def test_batch_reply_before_the_batch_is_violation(self):
        ctx = make_ctx(capacities={"p0": 8})
        state = SuCoalitionState("csu0", ("su0", "su1"))
        message = Message(MessageKind.SU_REQUEST, "su0", "csu0", Demand("su0", 2))
        state = handle(state, message, 10.0, ctx).state
        result = handle(state, self.offer_for(None), 20.0, ctx)
        assert result.violation == "t=20: CpuOffer for ask None, which is not open at 'csu0'"
        assert result.state is state and not result.sends and not result.allocations

    def test_per_demand_reply_to_a_batch_is_violation(self):
        # an aggregated coalition's open batch is settled only by a batch reply
        ctx = make_ctx(capacities={"p0": 8})
        state = handle(SuCoalitionState("csu0", ("su0",)), self.request("su0"), 10.0, ctx).state
        assert set(state.asks) == {None}
        result = handle(state, self.offer_for("su0"), 20.0, ctx)
        assert result.violation == "t=20: CpuOffer for ask 'su0', which is not open at 'csu0'"
        assert result.state is state and not result.sends and not result.allocations

    @pytest.mark.parametrize("aggregation", [True, False])
    def test_settled_ask_is_dropped(self, aggregation):
        ctx = make_ctx(aggregation=aggregation, capacities={"p0": 8})
        state = SuCoalitionState("csu0", ("su0",))
        message = Message(MessageKind.SU_REQUEST, "su0", "csu0", Demand("su0", 2))
        state = handle(state, message, 10.0, ctx).state
        ref = None if aggregation else "su0"
        assert set(state.asks) == {ref}
        result = handle(state, self.offer_for(ref), 20.0, ctx)
        assert len(result.allocations) == 1
        assert result.state.asks == {} and result.state.asked == 0b1

    @staticmethod
    def request(sender, su_id=None):
        return Message(MessageKind.SU_REQUEST, sender, "csu0", Demand(su_id or sender, 2))

    @pytest.mark.parametrize("aggregation", [True, False])
    def test_second_request_from_a_member_is_violation(self, aggregation):
        ctx = make_ctx(aggregation=aggregation, targets=("cpu0", "cpu1"))
        state = SuCoalitionState("csu0", ("su0000", "su0001"))
        state = handle(state, self.request("su0000"), 10.0, ctx).state
        again = handle(state, self.request("su0000"), 20.0, ctx)
        assert again.violation == "t=20: second SuRequest from 'su0000' at 'csu0'"
        assert again.state is state and not again.sends and not again.allocations
        assert state.asked == 0b01
        assert (state.requests != ()) is aggregation  # per demand, no request is kept
        # the other member's request still completes the coalition
        result = handle(state, self.request("su0001"), 30.0, ctx)
        assert set(result.state.asks) == ({None} if aggregation else {"su0000", "su0001"})
        assert result.state.asked == 0b11 and result.state.requests == ()
        if aggregation:
            assert [m.kind for m, _ in result.sends] == [MessageKind.CFP] * 2
            assert [d.su_id for d in result.sends[0][0].payload] == ["su0000", "su0001"]
        else:
            assert [m.payload.su_id for m, _ in result.sends] == ["su0001"] * 2
        # every member has asked: a further request is still a second one
        late = handle(result.state, self.request("su0001"), 40.0, ctx)
        assert late.violation == "t=40: second SuRequest from 'su0001' at 'csu0'"

    def test_request_from_non_member_is_violation(self):
        ctx = make_ctx()
        fresh = SuCoalitionState("csu0", ("su1", "su3"))
        done = fresh
        for member in fresh.member_ids:
            done = handle(done, self.request(member), 20.0, ctx).state
        # ids that sort before the first member, between the two, after the last
        for stranger in ("su0", "su2", "su4", "su_stranger"):
            for state in (fresh, done):  # before and after every member has asked
                result = handle(state, self.request(stranger), 30.0, ctx)
                assert result.violation == f"t=30: SuRequest from non-member {stranger!r} at 'csu0'"
                assert result.state is state and not result.sends
        assert fresh.asked == 0 and fresh.requests == ()

    def test_batch_orders_demands_by_arrival_then_id(self):
        members = tuple(f"su{i}" for i in range(6))
        ctx = make_ctx()
        state = SuCoalitionState("csu0", members)
        # arrival times tie, and the tied requests arrive in shuffled id order
        for sender, t in (("su4", 10.0), ("su1", 10.0), ("su5", 10.0),
                          ("su3", 20.0), ("su0", 20.0), ("su2", 20.0)):
            result = handle(state, self.request(sender), t, ctx)
            state = result.state
        [(cfp, _)] = result.sends
        assert [d.su_id for d in cfp.payload] == ["su1", "su4", "su5", "su0", "su2", "su3"]
        assert state.requests == () and set(state.asks) == {None}

    def test_request_for_another_su_is_violation(self):
        ctx = make_ctx()
        state = SuCoalitionState("csu0", ("su0000", "su0001"))
        result = handle(state, self.request("su0001", "su0000"), 10.0, ctx)
        assert result.violation == "t=10: SuRequest from 'su0001' for another SU at 'csu0'"
        assert result.state is state and not result.sends

    def test_handler_is_pure(self):
        state = SuCoalitionState("csu0", ("su0",))
        ctx = make_ctx()
        message = Message(MessageKind.SU_REQUEST, "su0", "csu0", Demand("su0", 2))
        assert handle(state, message, 10.0, ctx) == handle(state, message, 10.0, ctx)


class TestSuCoalitionStateValue:
    def test_fields_cannot_be_assigned(self):
        state = SuCoalitionState("csu0", ("su0",))
        for name in SuCoalitionState._fields:
            with pytest.raises(AttributeError):
                setattr(state, name, None)

    def test_default_asks_is_immutable_and_shares_nothing_mutable(self):
        first, second = SuCoalitionState("csu0", ("su0",)), SuCoalitionState("csu1", ("su1",))
        with pytest.raises(TypeError):
            first.asks[None] = Ask((Demand("su0", 1),), 1)
        # an ask opened from one fresh state leaves every other fresh state empty
        request = Message(MessageKind.SU_REQUEST, "su0", "csu0", Demand("su0", 2))
        opened = handle(first, request, 10.0, make_ctx()).state
        assert set(opened.asks) == {None}
        assert first.asks == second.asks == SuCoalitionState("csu2", ()).asks == {}

    def test_handle_dispatches_on_the_state_type(self):
        state = SuCoalitionState("csu0", ("su0",))
        request = Message(MessageKind.SU_REQUEST, "su0", "csu0", Demand("su0", 2))
        assert handle(state, request, 10.0, make_ctx()).state.asked == 0b1
        # the same fields as a plain tuple are no agent state
        with pytest.raises(ValueError, match="unknown agent state"):
            handle(tuple(state), request, 10.0, make_ctx())


class TestTopologyPlan:
    def test_no_coalition_targets_every_pu(self):
        scenario = generate_scenario("no_coalition", pu_count=4, su_groups=(2,))
        plan = topology_plan(scenario)
        assert plan.cpu_membership == {}
        assert plan.targets == ("pu000", "pu001", "pu002", "pu003")

    def test_cpu_csu_memberships(self):
        scenario = generate_scenario("cpu_csu", pu_count=15, cpu_count=5, su_groups=(5, 5, 5))
        plan = topology_plan(scenario)
        assert all(len(m) == 3 for m in plan.cpu_membership.values())
        assert all(len(m) == 5 for m in plan.csu_membership.values())
        assert len(plan.csu_of_su) == 15
        assert plan.targets == ("cpu00", "cpu01", "cpu02", "cpu03", "cpu04")
