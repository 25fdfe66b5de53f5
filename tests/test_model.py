"""Scenario model and validation tests."""

import dataclasses
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnego import (
    Coordinator,
    MembershipOverride,
    PrimaryUser,
    Scenario,
    SecondaryUser,
    TimingConstants,
    Zone,
    generate_scenario,
    run,
    validate,
)
from specnego.model import WIRINGS


def small_scenario(**overrides) -> Scenario:
    fields = dict(
        topology="cpu_csu",
        pus=(PrimaryUser("pu0", Zone(1, 0), 4, 10.0, 60.0),),
        sus=(SecondaryUser("su0", Zone(1, 10), 2, 0.0),),
        cpu_coordinators=(Coordinator("cpu0", Zone(0, 0)),),
        csu_coordinators=(Coordinator("csu0", Zone(0, 10)),),
    )
    fields.update(overrides)
    return Scenario(**fields)


def wired_scenario(topology: str, **overrides) -> Scenario:
    """``small_scenario`` for a topology, with only the coordinators it admits."""
    wiring, base = WIRINGS[topology], small_scenario()
    return small_scenario(
        topology=topology,
        cpu_coordinators=base.cpu_coordinators if wiring.pu_coalitions else (),
        csu_coordinators=base.csu_coordinators if wiring.su_coalitions else (),
        **overrides,
    )


class TestValidate:
    def test_reference_topology_is_valid(self):
        # 15 PUs over 5 coordinators, 15 SUs over 3 coordinators, defaults.
        scenario = generate_scenario("cpu_csu", pu_count=15, cpu_count=5, su_groups=(5, 5, 5))
        assert validate(scenario) == []
        assert scenario.weights == (0.2, 0.5, 0.3)

    def test_small_scenario_valid(self):
        assert validate(small_scenario()) == []

    def test_duplicate_id_names_the_id(self):
        scenario = small_scenario(
            sus=(
                SecondaryUser("pu0", Zone(1, 10), 2, 0.0),
            )
        )
        problems = validate(scenario)
        assert len(problems) == 1
        assert "pu0" in problems[0]

    def test_cpu_csu_requires_csu_coordinator(self):
        problems = validate(small_scenario(csu_coordinators=()))
        assert len(problems) == 1
        assert "csu_coordinators" in problems[0]

    def test_cpu_topologies_require_cpu_coordinator(self):
        problems = validate(small_scenario(cpu_coordinators=()))
        assert any("cpu_coordinators" in p for p in problems)

    def test_no_coalition_admits_no_coordinators(self):
        scenario = small_scenario(topology="no_coalition")
        problems = validate(scenario)
        assert any("cpu_coordinators" in p for p in problems)
        assert any("csu_coordinators" in p for p in problems)
        clean = small_scenario(
            topology="no_coalition", cpu_coordinators=(), csu_coordinators=()
        )
        assert validate(clean) == []

    def test_unknown_topology(self):
        assert any("topology" in p for p in validate(small_scenario(topology="mesh")))

    def test_bad_agent_fields(self):
        scenario = small_scenario(
            pus=(PrimaryUser("pu0", Zone(1, 0), -1, 0.0, 60.0),),
            sus=(SecondaryUser("su0", Zone(1, 10), 0, -5.0),),
        )
        problems = validate(scenario)
        assert any("pus[0].channels" in p for p in problems)
        assert any("pus[0].price" in p for p in problems)
        assert any("sus[0].channels_requested" in p for p in problems)
        assert any("sus[0].arrival_time" in p for p in problems)

    def test_non_finite_zone(self):
        scenario = small_scenario(
            pus=(PrimaryUser("pu0", Zone(float("inf"), 0), 4, 10.0, 60.0),)
        )
        assert any("zone" in p for p in validate(scenario))

    def test_bad_weights_and_timing(self):
        scenario = small_scenario(
            weights=(0.2, -0.5, 0.3), timing=TimingConstants(latency=-1.0)
        )
        problems = validate(scenario)
        assert any("weights[1]" in p for p in problems)
        assert any("timing.latency" in p for p in problems)

    @pytest.mark.parametrize("overrides, problem", [
        ({"pus": (PrimaryUser("pu0", Zone(1, 0), 4, 10.0, 0.0),)},
         "pus[0].alloc_time: must be > 0 and finite, got 0.0"),
        ({"pus": (PrimaryUser("pu0", Zone(1, 0), 4, 10.0, math.nan),)},
         "pus[0].alloc_time: must be > 0 and finite, got nan"),
        ({"weights": (0.5, 0.5)}, "weights: expected 3 values, got 2"),
        ({"weights": (0.2, 0.5, 0.3, 0.1)}, "weights: expected 3 values, got 4"),
    ])
    def test_the_one_problem_is_named_exactly(self, overrides, problem):
        assert validate(small_scenario(**overrides)) == [problem]

    def test_negative_seed(self):
        assert any("seed" in p for p in validate(small_scenario(seed=-1)))

    def test_membership_override_checks(self):
        scenario = small_scenario(
            memberships=MembershipOverride(cpu={"ghost": ("pu0",)}, csu=None)
        )
        assert any("unknown coordinator 'ghost'" in p for p in validate(scenario))

        scenario = small_scenario(
            memberships=MembershipOverride(cpu={"cpu0": ("nope",)}, csu=None)
        )
        problems = validate(scenario)
        assert any("unknown member 'nope'" in p for p in problems)
        assert any("'pu0' not assigned" in p for p in problems)

    def test_membership_override_full_problem_list(self):
        # unknown members and coordinators, members listed twice (also under
        # one coordinator) and members left out, all in one override
        scenario = small_scenario(
            pus=tuple(PrimaryUser(f"pu{j}", Zone(j, 0), 4, 10.0, 60.0) for j in range(4)),
            sus=(SecondaryUser("su0", Zone(1, 10), 2, 0.0),
                 SecondaryUser("su1", Zone(2, 10), 2, 0.0)),
            cpu_coordinators=(Coordinator("cpu0", Zone(0, 0)), Coordinator("cpu1", Zone(3, 0))),
            memberships=MembershipOverride(
                cpu={"cpu1": ("pu2", "ghost", "pu0"), "cpuX": ("pu0", "pu2", "pu2", "zz")},
                csu={"csu0": ("su1", "su1")},
            ),
        )
        assert validate(scenario) == [
            "memberships.cpu['cpu1']: unknown member 'ghost'",
            "memberships.cpu: unknown coordinator 'cpuX'",
            "memberships.cpu['cpuX']: unknown member 'zz'",
            "memberships.cpu: member 'pu0' assigned to more than one coordinator",
            "memberships.cpu: member 'pu2' assigned to more than one coordinator",
            "memberships.cpu: member 'pu1' not assigned to any coordinator",
            "memberships.cpu: member 'pu3' not assigned to any coordinator",
            "memberships.csu: member 'su1' assigned to more than one coordinator",
            "memberships.csu: member 'su0' not assigned to any coordinator",
        ]

    def test_validate_is_pure(self):
        scenario = small_scenario()
        first = validate(scenario)
        second = validate(scenario)
        assert first == second == []


# Timing values and arrivals near the float limit, where the sums the kernel
# forms (t + delay + latency, and rank_per_offer x offers) overflow to inf.
huge = st.one_of(
    st.sampled_from([0.0, 1.0, 1e306, 1e307, 2e307, 5e307, 1e308, sys.float_info.max]),
    st.floats(min_value=0.0, max_value=sys.float_info.max),
)


@st.composite
def huge_timed_scenarios(draw) -> Scenario:
    topology = draw(st.sampled_from(tuple(WIRINGS)))
    n_pus, n_sus = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_cpus = 0 if topology == "no_coalition" else draw(st.integers(1, 3))
    n_csus = draw(st.integers(1, 2)) if topology == "cpu_csu" else 0
    return Scenario(
        topology=topology,
        pus=tuple(PrimaryUser(f"pu{j}", Zone(j, 0), draw(st.integers(0, 3)), 10.0 + j, 60.0)
                  for j in range(n_pus)),
        sus=tuple(SecondaryUser(f"su{j}", Zone(j, 10), draw(st.integers(1, 3)), draw(huge))
                  for j in range(n_sus)),
        cpu_coordinators=tuple(Coordinator(f"cpu{j}", Zone(j, 1)) for j in range(n_cpus)),
        csu_coordinators=tuple(Coordinator(f"csu{j}", Zone(j, 9)) for j in range(n_csus)),
        aggregation=draw(st.booleans()),
        timing=TimingConstants(**{
            f.name: draw(huge) for f in dataclasses.fields(TimingConstants)
        }),
    )


class TestTimeBound:
    @settings(max_examples=300, deadline=None)
    @given(huge_timed_scenarios())
    def test_accepted_scenarios_never_overflow(self, scenario):
        problems = validate(scenario)
        if problems:
            assert [p.split(":")[0] for p in problems] == ["timing"]
            return
        report = run(scenario)  # the kernel raises on an inf time
        assert all(math.isfinite(event.time) for event in report.event_log)
        assert math.isfinite(report.quiescent_at)

    @pytest.mark.parametrize("topology, hops, last", [
        ("no_coalition", 2, "CpuOffer"), ("cpu_only", 2, "CpuOffer"), ("cpu_csu", 4, "SuReply"),
    ])
    def test_bound_is_tight_on_the_last_hop(self, topology, hops, last, monkeypatch):
        # An SU's chain is CfpSingle and the reply, or SuRequest, Cfp, the
        # reply and SuReply with SU-coalitions; with zero delays a run's last
        # time is the bound itself, so one latency more overflows the last hop
        latency = sys.float_info.max / (hops + 0.5)
        timing = TimingConstants(latency=latency, agg_per_demand=0.0, cpu_select=0.0,
                                 rank_per_offer=0.0, pu_reply=0.0)
        assert validate(wired_scenario(topology, timing=timing)) == []
        late = wired_scenario(topology, timing=timing,
                              sus=(SecondaryUser("su0", Zone(1, 10), 2, latency),))
        assert [p.split(":")[0] for p in validate(late)] == ["timing"]
        monkeypatch.setattr("specnego.kernel.validate", lambda scenario: [])
        with pytest.raises(RuntimeError, match=f"delivery time overflows to inf: {last}"):
            run(late)

    @pytest.mark.parametrize("topology, unused, quiescent_at", [
        ("no_coalition", "agg_per_demand", 22.0),
        ("cpu_only", "pu_reply", 22.0),
        ("cpu_csu", "pu_reply", 53.0),
    ])
    def test_bound_charges_only_the_wirings_delays(self, topology, unused, quiescent_at):
        # a delay the wiring never charges may be as large as it likes
        scenario = wired_scenario(
            topology,
            sus=(SecondaryUser("su0", Zone(1, 10), 2, 0.0),
                 SecondaryUser("su1", Zone(2, 10), 1, 0.0)),
            timing=TimingConstants(**{unused: 1e308}),
        )
        assert validate(scenario) == []
        assert run(scenario).quiescent_at == quiescent_at

    def test_per_demand_charges_one_demand_per_chain(self):
        # each per-demand SuRequest is aggregated alone, so agg_per_demand is
        # charged once; aggregated, it is charged once per SU and overflows
        timing = TimingConstants(agg_per_demand=1e308)
        per_demand = dataclasses.replace(
            generate_scenario("cpu_csu", 3, 1, (2,), aggregation=False, seed=1), timing=timing
        )
        assert validate(per_demand) == []
        assert run(per_demand).quiescent_at == 1e308
        aggregated = dataclasses.replace(per_demand, aggregation=True)
        assert [p.split(":")[0] for p in validate(aggregated)] == ["timing"]

    def test_no_sus_nothing_to_bound(self):
        scenario = small_scenario(sus=(), csu_coordinators=(),
                                  topology="cpu_only",
                                  timing=TimingConstants(latency=sys.float_info.max))
        assert validate(scenario) == []


class TestModelTypes:
    def test_scenario_is_immutable(self):
        scenario = small_scenario()
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.topology = "cpu_only"

    def test_numeric_fields_coerced_to_float(self):
        pu = PrimaryUser("p", Zone(1, 2), 4, 10, 60)
        assert isinstance(pu.price, float) and isinstance(pu.alloc_time, float)
        assert isinstance(pu.zone.x, float)
