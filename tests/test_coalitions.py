"""Coalition formation and parameter-registry tests."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import oracle_topsis
import specnego.coalitions
from specnego import (
    ParamRegistry,
    Zone,
    best_offer,
    form_coalitions,
    register_params,
)

WEIGHTS = (0.2, 0.5, 0.3)


class TestFormCoalitions:
    def test_nearest_coordinator_wins(self):
        membership = form_coalitions(
            [("agent", Zone(0, 0))], [("A", Zone(1, 0)), ("B", Zone(5, 0))]
        )
        assert membership == {"A": ["agent"], "B": []}

    def test_distance_tie_breaks_by_coordinator_id(self):
        membership = form_coalitions(
            [("agent", Zone(0, 0))], [("B", Zone(0, 2)), ("A", Zone(0, -2))]
        )
        assert membership["A"] == ["agent"]

    def test_three_per_zone(self):
        coordinators = [(f"c{k}", Zone(100 * k, 0)) for k in range(5)]
        agents = [
            (f"p{j:02d}", Zone(100 * (j // 3) + 1 + j % 3, 0)) for j in range(15)
        ]
        membership = form_coalitions(agents, coordinators)
        assert all(len(members) == 3 for members in membership.values())

    def test_member_lists_sorted(self):
        membership = form_coalitions(
            [("z", Zone(0, 0)), ("a", Zone(0, 1))], [("c", Zone(0, 0))]
        )
        assert membership["c"] == ["a", "z"]

    def test_deterministic(self):
        agents = [(f"a{i}", Zone(i * 0.7, i * 1.3)) for i in range(9)]
        coordinators = [("x", Zone(0, 0)), ("y", Zone(5, 5))]
        assert form_coalitions(agents, coordinators) == form_coalitions(
            agents, coordinators
        )

    def test_requires_coordinators_without_override(self):
        with pytest.raises(ValueError):
            form_coalitions([("a", Zone(0, 0))], [])

    def test_override_wins_verbatim(self):
        membership = form_coalitions(
            [("a", Zone(0, 0)), ("b", Zone(100, 0))],
            [("near", Zone(0, 0)), ("far", Zone(100, 0))],
            override={"far": ["a", "b"]},
        )
        assert membership == {"near": [], "far": ["a", "b"]}

    def test_override_unknown_agent(self):
        with pytest.raises(ValueError, match="unknown agent"):
            form_coalitions([("a", Zone(0, 0))], [("c", Zone(0, 0))], override={"c": ["x"]})

    def test_override_unknown_coordinator(self):
        with pytest.raises(ValueError, match="unknown coordinator"):
            form_coalitions([("a", Zone(0, 0))], [("c", Zone(0, 0))], override={"d": ["a"]})

    def test_override_must_cover_all_agents(self):
        with pytest.raises(ValueError, match="unassigned"):
            form_coalitions(
                [("a", Zone(0, 0)), ("b", Zone(0, 0))],
                [("c", Zone(0, 0))],
                override={"c": ["a"]},
            )

    def test_override_rejects_double_assignment(self):
        with pytest.raises(ValueError, match="twice"):
            form_coalitions(
                [("a", Zone(0, 0))],
                [("c", Zone(0, 0)), ("d", Zone(1, 1))],
                override={"c": ["a"], "d": ["a"]},
            )

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_total_coverage(self, points, n_coordinators):
        agents = [(f"a{i}", Zone(x, y)) for i, (x, y) in enumerate(points)]
        coordinators = [(f"c{k}", Zone(k * 10.0, 0.0)) for k in range(n_coordinators)]
        membership = form_coalitions(agents, coordinators)
        assigned = [m for members in membership.values() for m in members]
        assert sorted(assigned) == sorted(a for a, _ in agents)


class TestParamRegistry:
    def test_write_then_read(self):
        registry = ParamRegistry("cpu0", ("pu3",))
        registry = register_params(registry, "pu3", 4, 10.0, 60.0, 0.0)
        entry = registry.entries["pu3"]
        assert (entry.channels, entry.price, entry.alloc_time, entry.last_update_time) == (
            4, 10.0, 60.0, 0.0,
        )

    def test_latest_registration_wins(self):
        registry = ParamRegistry("cpu0", ("pu3",))
        registry = register_params(registry, "pu3", 4, 10.0, 60.0, 0.0)
        registry = register_params(registry, "pu3", 2, 12.0, 30.0, 5.0)
        entry = registry.entries["pu3"]
        assert (entry.channels, entry.last_update_time) == (2, 5.0)

    def test_non_member_rejected(self):
        registry = ParamRegistry("cpu0", ("pu3",))
        with pytest.raises(ValueError, match="not a member"):
            register_params(registry, "pu9", 4, 10.0, 60.0, 0.0)

    def test_registry_is_persistent_value(self):
        registry = ParamRegistry("cpu0", ("pu3",))
        updated = register_params(registry, "pu3", 4, 10.0, 60.0, 0.0)
        assert registry.entries == {} and "pu3" in updated.entries


def registry_of(members):
    registry = ParamRegistry("cpu0", tuple(pu_id for pu_id, *_ in members))
    for pu_id, channels, price, alloc_time in members:
        registry = register_params(registry, pu_id, channels, price, alloc_time, 0.0)
    return registry


class TestBestOffer:
    def test_cheapest_wins_on_single_differing_cost(self):
        registry = registry_of(
            [("a", 4, 10.0, 60.0), ("b", 4, 8.0, 60.0), ("c", 4, 12.0, 60.0)]
        )
        offer = best_offer(registry, WEIGHTS)
        assert offer.pu_id == "b" and offer.cpu_id == "cpu0"
        assert (offer.channels, offer.price, offer.alloc_time) == (4, 8.0, 60.0)

    def test_single_member(self):
        offer = best_offer(registry_of([("only", 3, 9.0, 50.0)]), WEIGHTS)
        assert offer.pu_id == "only"

    def test_matches_independent_recomputation(self):
        members = [("a", 3, 5.0, 30.0), ("b", 5, 9.0, 45.0), ("c", 4, 7.0, 40.0)]
        offer = best_offer(registry_of(members), WEIGHTS)
        expected = oracle_topsis(
            [m[1:] for m in members], WEIGHTS, ["benefit", "cost", "benefit"]
        )
        assert offer.pu_id == members[expected["ranking"][0]][0]
        assert offer.pu_id == "a"

    def test_zero_channel_members_excluded(self):
        registry = registry_of([("free", 0, 1.0, 500.0), ("paid", 2, 15.0, 20.0)])
        offer = best_offer(registry, WEIGHTS)
        assert offer.pu_id == "paid"

    def test_none_when_no_usable_member(self):
        assert best_offer(registry_of([("a", 0, 1.0, 1.0)]), WEIGHTS) is None
        assert best_offer(ParamRegistry("cpu0", ()), WEIGHTS) is None

    def test_unregistered_members_skipped(self):
        registry = ParamRegistry("cpu0", ("a", "b"))
        registry = register_params(registry, "a", 2, 9.0, 30.0, 0.0)
        assert best_offer(registry, WEIGHTS).pu_id == "a"

    def test_choice_invariant_under_column_scaling(self):
        members = [("a", 3, 5.0, 30.0), ("b", 5, 9.0, 45.0), ("c", 4, 7.0, 40.0)]
        scaled = [(pu, ch, price * 128.0, alloc) for pu, ch, price, alloc in members]
        assert (
            best_offer(registry_of(members), WEIGHTS).pu_id
            == best_offer(registry_of(scaled), WEIGHTS).pu_id
        )


CHANNEL_HEAVY = (0.8, 0.1, 0.1)
MEMO_MEMBERS = ("a", "b", "c", "d")


class TestBestOfferMemo:
    def test_topsis_runs_once_per_registry_and_weights(self, monkeypatch):
        calls = []
        real_topsis = specnego.coalitions.topsis
        monkeypatch.setattr(
            specnego.coalitions, "topsis", lambda m: calls.append(m) or real_topsis(m)
        )
        registry = registry_of([("a", 3, 5.0, 30.0), ("b", 5, 9.0, 45.0)])
        offers = [best_offer(registry, WEIGHTS) for _ in range(3)]
        assert len(calls) == 1 and offers[0] == offers[1] == offers[2]
        best_offer(registry, list(CHANNEL_HEAVY))
        best_offer(registry, CHANNEL_HEAVY)
        assert len(calls) == 2
        best_offer(register_params(registry, "a", 3, 5.0, 30.0, 1.0), WEIGHTS)
        assert len(calls) == 3

    def test_alternating_weights_keep_their_own_winners(self):
        registry = registry_of([("cheap", 1, 5.0, 30.0), ("wide", 8, 9.0, 30.0)])
        for _ in range(2):
            assert best_offer(registry, WEIGHTS).pu_id == "cheap"
            assert best_offer(registry, CHANNEL_HEAVY).pu_id == "wide"

    def test_replace_starts_with_an_empty_memo(self):
        registry = registry_of([("a", 3, 5.0, 30.0), ("b", 5, 9.0, 45.0)])
        assert best_offer(registry, WEIGHTS).pu_id == "a"
        entries = dict(registry.entries)
        entries["a"] = replace(entries["a"], channels=0)
        assert best_offer(replace(registry, entries=entries), WEIGHTS).pu_id == "b"
        assert best_offer(replace(registry, entries={}), WEIGHTS) is None

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(MEMO_MEMBERS),
                st.integers(min_value=0, max_value=3),
                st.sampled_from((5.0, 7.5, 10.0)),
                st.sampled_from((30.0, 60.0)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_property_memo_matches_fresh_registry(self, updates):
        registry = ParamRegistry("cpu0", MEMO_MEMBERS)
        for t, (pu_id, channels, price, alloc_time) in enumerate(updates):
            previous = registry
            registry = register_params(registry, pu_id, channels, price, alloc_time, float(t))
            fresh = ParamRegistry("cpu0", MEMO_MEMBERS, dict(registry.entries))
            expected = {w: best_offer(fresh, w) for w in (WEIGHTS, CHANNEL_HEAVY)}
            for w in (WEIGHTS, CHANNEL_HEAVY, WEIGHTS, CHANNEL_HEAVY):
                assert best_offer(registry, w) == expected[w]
            # replace() must not inherit the winners memoized on previous
            assert best_offer(replace(previous, entries=registry.entries), WEIGHTS) == expected[WEIGHTS]
