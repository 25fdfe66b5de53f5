"""Closed-form accounting, generators, and the four built-in studies."""

from dataclasses import fields, replace

import pytest

from specnego import (
    Coordinator,
    Zone,
    expected_messages,
    experiment_spec,
    generate_scenario,
    run,
    run_experiment,
    topology_plan,
    validate,
)
from specnego.experiments import (
    ALLOC_TIME_RANGE,
    CHANNELS_RANGE,
    PRICE_RANGE,
    REQUEST_RANGE,
)


def column(table, name):
    return [row[table.columns.index(name)] for row in table.rows]


class TestExpectedMessages:
    def test_no_coalition(self):
        assert expected_messages("no_coalition", None, 15, 15) == 450

    def test_cpu_only(self):
        assert expected_messages("cpu_only", None, 15, 15, 5) == 165

    def test_cpu_csu_aggregated(self):
        assert expected_messages("cpu_csu", True, 1000, 15, 5, 100) == 3015
        assert expected_messages("cpu_csu", True, 15, 15, 5, 3) == 75

    def test_cpu_csu_non_aggregated(self):
        assert expected_messages("cpu_csu", False, 15, 15, 5, 3) == 195

    def test_counts_only_su_coalitions_with_members(self):
        # csu1 is far from both SUs, so it has no members and sends nothing
        scenario = generate_scenario("cpu_csu", pu_count=2, cpu_count=1, su_groups=(2,))
        scenario = replace(scenario, csu_coordinators=scenario.csu_coordinators + (
            Coordinator("csu1", Zone(1e6, 1e6)),))
        assert sum(map(bool, topology_plan(scenario).csu_membership.values())) == 1
        assert run(scenario).total_messages == 8 == expected_messages("cpu_csu", True, 2, 2, 1, 1)
        # with no SU there is no coalition with members: the registrations alone
        assert expected_messages("cpu_csu", True, 0, 2, 1, 0) == 2

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            expected_messages("no_coalition", None, 15, 15, csu_count=3)
        with pytest.raises(ValueError):
            expected_messages("cpu_only", None, 15, 15)  # missing coalitions
        with pytest.raises(ValueError):
            expected_messages("cpu_only", None, 15, 15, 5, 3)
        with pytest.raises(ValueError):
            expected_messages("cpu_csu", None, 15, 15, 5, 3)  # aggregation unset
        with pytest.raises(ValueError):
            expected_messages("cpu_csu", True, -1, 15, 5, 3)
        with pytest.raises(ValueError):
            expected_messages("ring", None, 15, 15)


class TestGenerateScenario:
    def test_generated_scenarios_validate(self):
        for scenario in (
            generate_scenario("no_coalition", pu_count=15, su_groups=(15,)),
            generate_scenario("cpu_only", pu_count=15, cpu_count=5, su_groups=(15,)),
            generate_scenario("cpu_csu", pu_count=15, cpu_count=5, su_groups=(5, 5, 5)),
        ):
            assert validate(scenario) == []

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology 'mesh'"):
            generate_scenario("mesh", pu_count=3, su_groups=(2,))

    def test_deterministic_for_a_seed(self):
        a = generate_scenario("cpu_csu", pu_count=15, cpu_count=5, su_groups=(5,), seed=9)
        b = generate_scenario("cpu_csu", pu_count=15, cpu_count=5, su_groups=(5,), seed=9)
        assert a == b
        c = generate_scenario("cpu_csu", pu_count=15, cpu_count=5, su_groups=(5,), seed=10)
        assert c != a

    def test_parameter_ranges(self):
        scenario = generate_scenario("cpu_csu", pu_count=30, cpu_count=5,
                                     su_groups=(10, 10), seed=3)
        for pu in scenario.pus:
            assert CHANNELS_RANGE[0] <= pu.channels <= CHANNELS_RANGE[1]
            assert PRICE_RANGE[0] <= pu.price <= PRICE_RANGE[1]
            assert ALLOC_TIME_RANGE[0] <= pu.alloc_time <= ALLOC_TIME_RANGE[1]
        for su in scenario.sus:
            assert REQUEST_RANGE[0] <= su.channels_requested <= REQUEST_RANGE[1]

    def test_arrivals_staggered_within_groups(self):
        scenario = generate_scenario("cpu_csu", pu_count=15, cpu_count=5, su_groups=(3, 2))
        arrivals = [su.arrival_time for su in scenario.sus]
        assert arrivals == [0.0, 100.0, 200.0, 0.0, 100.0]

    def test_geography_reproduces_intended_memberships(self):
        scenario = generate_scenario("cpu_csu", pu_count=15, cpu_count=5, su_groups=(5, 5, 5))
        plan = topology_plan(scenario)
        assert all(len(m) == 3 for m in plan.cpu_membership.values())
        assert [len(plan.csu_membership[c]) for c in sorted(plan.csu_membership)] == [5, 5, 5]


class TestStudies:
    def test_exp_i_response_strictly_increases(self):
        table = run_experiment(experiment_spec("exp_i"))
        sweep = column(table, "su_count")
        responses = column(table, "run_response")
        assert sweep == [1, 2, 3, 4, 5, 10]
        assert all(a < b for a, b in zip(responses, responses[1:]))

    def test_exp_ii_response_strictly_decreases_with_more_coalitions(self):
        table = run_experiment(experiment_spec("exp_ii"))
        csu_counts = column(table, "csu_count")
        responses = column(table, "run_response")
        assert csu_counts == [5, 2, 1]
        assert responses[0] < responses[1] < responses[2]

    def test_exp_iii_message_totals(self):
        table = run_experiment(experiment_spec("exp_iii"))
        assert column(table, "csu_count") == [500, 100, 40, 1]
        assert column(table, "total_messages") == [7015, 3015, 2415, 2025]

    def test_exp_iv_topology_ordering_for_every_sweep_point(self):
        table = run_experiment(experiment_spec("exp_iv"))
        totals = {}
        for row in table.rows:
            topology = row[table.columns.index("topology")]
            su_count = row[table.columns.index("su_count")]
            totals[(topology, su_count)] = row[table.columns.index("total_messages")]
        for su_count in (5, 10, 15, 20, 25):
            assert (
                totals[("no_coalition", su_count)]
                > totals[("cpu_only", su_count)]
                > totals[("cpu_csu", su_count)]
            )
        assert totals[("no_coalition", 15)] == 450
        assert totals[("cpu_only", 15)] == 165
        assert totals[("cpu_csu", 15)] == 75

    def test_exp_iv_sweep_override(self):
        table = run_experiment(experiment_spec("exp_iv", su_sweep=(5, 7)))
        assert column(table, "su_count") == [5, 7] * 3
        # 7 SUs split into coalitions of 5 -> groups (5, 2)
        row = next(r for r in table.rows if r[0] == "cpu_csu S=7")
        assert row[table.columns.index("total_messages")] == 15 + 14 + 2 * 2 * 5

    def test_every_row_matches_closed_form(self):
        # run_experiment itself raises on mismatch; cross-check one study
        table = run_experiment(experiment_spec("exp_i"))
        for row in table.rows:
            su_count = row[table.columns.index("su_count")]
            assert row[table.columns.index("total_messages")] == expected_messages(
                "cpu_csu", True, su_count, 15, 5, 1
            )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            experiment_spec("exp_v")

    @pytest.mark.parametrize("su_count", [0, -3])
    def test_su_sweep_below_one_rejected(self, su_count):
        with pytest.raises(ValueError, match=f"su_sweep: counts must be >= 1, got {su_count}"):
            experiment_spec("exp_iv", su_sweep=(5, su_count))

    @pytest.mark.parametrize("split", [(0, 5), (2, 0), (-1, 3)])
    def test_csu_splits_below_one_rejected(self, split):
        spec = experiment_spec("exp_ii")
        with pytest.raises(ValueError, match=f"csu_splits: counts must be >= 1, got {min(split)}"):
            replace(spec, csu_splits=((1, 10), split))

    def test_topology_size_is_fixed(self):
        # 15 PUs over 5 PU-coalitions in every study: constants, not fields
        spec = experiment_spec("exp_i")
        assert (spec.pu_count, spec.cpu_count) == (15, 5)
        assert [f.name for f in fields(spec)] == ["experiment_id", "seed", "su_sweep", "csu_splits"]
        with pytest.raises(TypeError):
            replace(spec, pu_count=-2)

    def test_simulated_totals_equal_closed_form_across_topologies(self):
        cases = [
            ("no_coalition", None, 0, (15,), 450),
            ("cpu_only", None, 5, (15,), 165),
            ("cpu_csu", True, 5, (5, 5, 5), 75),
            ("cpu_csu", False, 5, (5, 5, 5), 195),
        ]
        for topology, aggregation, cpu_count, groups, expected in cases:
            scenario = generate_scenario(
                topology, pu_count=15, cpu_count=cpu_count, su_groups=groups,
                aggregation=bool(aggregation),
            )
            assert run(scenario).total_messages == expected
