"""Coalition formation and parameter-registry tests."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import oracle_topsis
import specnego.coalitions
from specnego import (
    DecisionMatrix,
    Offer,
    ParamRegistry,
    Zone,
    best_offer,
    experiment_spec,
    form_coalitions,
    generate_scenario,
    rank_offers,
    register_params,
    run,
    topsis,
)
from specnego.model import CRITERIA_SENSES, CRITERION_LABELS

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
        with pytest.raises(ValueError, match="unknown member"):
            form_coalitions([("a", Zone(0, 0))], [("c", Zone(0, 0))], override={"c": ["x"]})

    def test_override_unknown_coordinator(self):
        with pytest.raises(ValueError, match="unknown coordinator"):
            form_coalitions([("a", Zone(0, 0))], [("c", Zone(0, 0))], override={"d": ["a"]})

    def test_override_must_cover_all_agents(self):
        with pytest.raises(ValueError, match="not assigned"):
            form_coalitions(
                [("a", Zone(0, 0)), ("b", Zone(0, 0))],
                [("c", Zone(0, 0))],
                override={"c": ["a"]},
            )

    def test_override_rejects_double_assignment(self):
        with pytest.raises(ValueError, match="more than one coordinator"):
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


def oracle_coalitions(agents, coordinators):
    """Score every agent x coordinator pair: nearest wins, ties by smaller id."""
    membership = {cid: [] for cid, _ in coordinators}
    for aid, zone in agents:
        best_cid = min(
            coordinators, key=lambda c: (math.hypot(zone.x - c[1].x, zone.y - c[1].y), c[0])
        )[0]
        membership[best_cid].append(aid)
    return {cid: sorted(members) for cid, members in membership.items()}


# Tie-heavy coordinates: +-0.0, decimals whose sums round, and huge finite
# values whose differences overflow to inf.
TIE_VALUES = (0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 2.0, 1e308, -1e308, 5e307, -5e307)
coordinate = st.one_of(
    st.sampled_from(TIE_VALUES),
    st.integers(-4, 4).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def layouts(draw):
    """Coordinators (ids in random order, many sharing one x) and agents
    placed left of, right of and exactly on coordinator xs."""
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12))
    shared_x = draw(coordinate)
    points += [(shared_x, y) for y in draw(st.lists(coordinate, max_size=6))]
    points += draw(st.lists(st.sampled_from(points), max_size=3))  # repeated zones
    ids = draw(st.permutations([f"c{k:02d}" for k in range(len(points))]))
    coordinators = [(cid, Zone(x, y)) for cid, (x, y) in zip(ids, points)]
    xs = [x for x, _ in points]
    agent_x = st.one_of(coordinate, st.sampled_from(xs))
    agent_points = draw(st.lists(st.tuples(agent_x, coordinate), max_size=12))
    agents = [(f"a{i}", Zone(x, y)) for i, (x, y) in enumerate(agent_points)]
    return agents, coordinators


@st.composite
def mirrored_layouts(draw):
    """Coordinators at exactly equal distances from one agent: mirror images
    through it, the same offsets swapped, and points sharing its x."""
    ax, ay = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    points = set()
    offsets = st.tuples(st.integers(0, 4), st.integers(0, 4))
    for dx, dy in draw(st.lists(offsets, min_size=1, max_size=4)):
        for sx, sy in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            points.add((ax + sx * dx, ay + sy * dy))
            points.add((ax + sx * dy, ay + sy * dx))
    points = sorted(points)
    ids = draw(st.permutations([f"c{k:02d}" for k in range(len(points))]))
    coordinators = [(cid, Zone(x, y)) for cid, (x, y) in zip(ids, points)]
    agents = [("a", Zone(ax, ay)), ("neg0", Zone(-0.0, -0.0))]
    return agents, coordinators


class TestFormCoalitionsExact:
    """The pruned sweep agrees with scoring every pair, ties included."""

    @given(layouts())
    @settings(max_examples=200, deadline=None)
    def test_property_matches_every_pair_oracle(self, layout):
        agents, coordinators = layout
        assert form_coalitions(agents, coordinators) == oracle_coalitions(agents, coordinators)

    @given(mirrored_layouts())
    @settings(max_examples=200, deadline=None)
    def test_property_exact_ties_match_oracle(self, layout):
        agents, coordinators = layout
        assert form_coalitions(agents, coordinators) == oracle_coalitions(agents, coordinators)

    @pytest.mark.parametrize("agent_x", [-1e308, -1.0, 0.0, -0.0, 3.0, 1e308])
    def test_single_coordinator_takes_everyone(self, agent_x):
        agents = [("a", Zone(agent_x, 5e307)), ("b", Zone(-agent_x, -1e308))]
        assert form_coalitions(agents, [("only", Zone(0.0, 1e308))]) == {"only": ["a", "b"]}

    def test_overflowed_distances_tie_by_id(self):
        coordinators = [("z", Zone(1e308, 0.0)), ("y", Zone(1e308, 1.0)), ("x", Zone(-1e308, 0.0))]
        agents = [("far", Zone(-1e308, 1e308)), ("mid", Zone(0.0, 0.0))]
        assert form_coalitions(agents, coordinators) == oracle_coalitions(agents, coordinators)

    @pytest.mark.parametrize("csu_count, per_csu", experiment_spec("exp_iii").csu_splits)
    def test_exp_iii_splits_match_oracle(self, csu_count, per_csu):
        spec = experiment_spec("exp_iii")
        scenario = generate_scenario(
            "cpu_csu", spec.pu_count, spec.cpu_count, (per_csu,) * csu_count, seed=spec.seed
        )
        for agents, coordinators in (
            (scenario.pus, scenario.cpu_coordinators),
            (scenario.sus, scenario.csu_coordinators),
        ):
            agents = [(a.id, a.zone) for a in agents]
            coordinators = [(c.id, c.zone) for c in coordinators]
            assert form_coalitions(agents, coordinators) == oracle_coalitions(agents, coordinators)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_agent_zone_rejected(self, bad):
        with pytest.raises(ValueError, match="agent 'a1'.*non-finite"):
            form_coalitions(
                [("a0", Zone(0, 0)), ("a1", Zone(0, bad))], [("c", Zone(0, 0))]
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinator_zone_rejected(self, bad):
        with pytest.raises(ValueError, match="coordinator 'c1'.*non-finite"):
            form_coalitions(
                [("a", Zone(0, 0))], [("c0", Zone(0, 0)), ("c1", Zone(bad, 0))]
            )


class TestParamRegistry:
    def test_write_then_read(self):
        registry = ParamRegistry("cpu0", ("pu3",))
        registry = register_params(registry, Offer("pu3", "cpu0", 4, 10.0, 60.0))
        entry = registry.entries["pu3"]
        assert (entry.channels, entry.price, entry.alloc_time) == (4, 10.0, 60.0)

    def test_latest_registration_wins(self):
        registry = ParamRegistry("cpu0", ("pu3",))
        registry = register_params(registry, Offer("pu3", "cpu0", 4, 10.0, 60.0))
        registry = register_params(registry, Offer("pu3", "cpu0", 2, 12.0, 30.0))
        entry = registry.entries["pu3"]
        assert entry.channels == 2

    def test_non_member_rejected(self):
        registry = ParamRegistry("cpu0", ("pu3",))
        with pytest.raises(ValueError, match="not a member"):
            register_params(registry, Offer("pu9", "cpu0", 4, 10.0, 60.0))

    def test_foreign_coordinator_rejected(self):
        registry = ParamRegistry("cpu0", ("pu3",))
        with pytest.raises(ValueError, match="names coordinator 'cpu1', not 'cpu0'"):
            register_params(registry, Offer("pu3", "cpu1", 4, 10.0, 60.0))
        assert registry.entries == {}

    def test_registry_is_persistent_value(self):
        registry = ParamRegistry("cpu0", ("pu3",))
        updated = register_params(registry, Offer("pu3", "cpu0", 4, 10.0, 60.0))
        assert registry.entries == {} and "pu3" in updated.entries


def registry_of(members):
    registry = ParamRegistry("cpu0", tuple(pu_id for pu_id, *_ in members))
    for pu_id, channels, price, alloc_time in members:
        registry = register_params(registry, Offer(pu_id, "cpu0", channels, price, alloc_time))
    return registry


class TestBestOffer:
    def test_cheapest_wins_on_single_differing_cost(self):
        registry = registry_of(
            [("a", 4, 10.0, 60.0), ("b", 4, 8.0, 60.0), ("c", 4, 12.0, 60.0)]
        )
        offer = best_offer(registry, WEIGHTS)
        assert offer.pu_id == "b" and offer.cpu_id == "cpu0"
        assert (offer.channels, offer.price, offer.alloc_time) == (4, 8.0, 60.0)

    def test_returns_the_registered_offer(self):
        registry = registry_of([("a", 3, 5.0, 30.0), ("b", 5, 9.0, 45.0)])
        offer = best_offer(registry, WEIGHTS)
        assert offer is registry.entries[offer.pu_id]

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
        registry = register_params(registry, Offer("a", "cpu0", 2, 9.0, 30.0))
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
        best_offer(register_params(registry, Offer("a", "cpu0", 3, 5.0, 30.0)), WEIGHTS)
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
            registry = register_params(registry, Offer(pu_id, "cpu0", channels, price, alloc_time))
            fresh = ParamRegistry("cpu0", MEMO_MEMBERS, dict(registry.entries))
            expected = {w: best_offer(fresh, w) for w in (WEIGHTS, CHANNEL_HEAVY)}
            for w in (WEIGHTS, CHANNEL_HEAVY, WEIGHTS, CHANNEL_HEAVY):
                assert best_offer(registry, w) == expected[w]
            # replace() must not inherit the winners memoized on previous
            assert best_offer(replace(previous, entries=registry.entries), WEIGHTS) == expected[WEIGHTS]


@st.composite
def ranking_calls(draw):
    """A sequence of ``(offers, weights)`` calls drawn from a few score sets.

    Calls repeat a set with new ``Offer`` objects, permute it, rename its
    offers, and mix ``0.0``/``-0.0`` prices and ``int``/``float`` values.
    """
    row = st.tuples(
        st.sampled_from((0, 1, 1.0, 3)),
        st.sampled_from((0.0, -0.0, 5.0, 9.0)),
        st.sampled_from((30, 30.0, 60.0)),
    )
    bases = draw(st.lists(st.lists(row, min_size=1, max_size=5), min_size=1, max_size=3))
    calls = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        base = draw(st.sampled_from(bases))
        order = draw(st.permutations(range(len(base))))
        names = draw(st.lists(st.sampled_from("abc"), min_size=len(base), max_size=len(base)))
        offers = [Offer(name, "cpu0", *base[i]) for name, i in zip(names, order)]
        calls.append((offers, draw(st.sampled_from((WEIGHTS, CHANNEL_HEAVY)))))
    return calls


class TestRankingMemo:
    @given(ranking_calls())
    @settings(max_examples=200, deadline=None)
    def test_property_matches_uncached_ranking(self, calls):
        for offers, weights in calls:
            matrix = DecisionMatrix(
                alternatives=tuple(o.pu_id for o in offers),
                criteria=CRITERION_LABELS,
                scores=tuple((o.channels, o.price, o.alloc_time) for o in offers),
                weights=weights,
                senses=CRITERIA_SENSES,
            )
            expected = [offers[i] for i in topsis(matrix).ranking]
            ranked = rank_offers(offers, weights)
            assert ranked == expected
            assert all(got is want for got, want in zip(ranked, expected))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_score_raises_on_every_repeat(self, bad):
        offers = [Offer("a", "cpu0", 3, 5.0, 30.0), Offer("b", "cpu0", 2, bad, 30.0)]
        for _ in range(3):
            with pytest.raises(ValueError, match="not finite"):
                rank_offers(offers, WEIGHTS)

    @pytest.mark.parametrize("topology, su_groups, aggregation", [
        ("cpu_only", (20,), True),
        ("cpu_csu", (5, 5, 5), True),
        ("cpu_csu", (5, 5, 5), False),
    ])
    def test_topsis_runs_once_per_distinct_ranking(
        self, topology, su_groups, aggregation, monkeypatch
    ):
        # five registries, each ranked once, then one ranking shared by every
        # SU or SU-coalition: all of them receive the same five nominees
        calls = []
        real_topsis = specnego.coalitions.topsis
        monkeypatch.setattr(
            specnego.coalitions, "topsis", lambda m: calls.append(m) or real_topsis(m)
        )
        run(generate_scenario(topology, 15, 5, su_groups, aggregation=aggregation, seed=1))
        assert len(calls) == 6
