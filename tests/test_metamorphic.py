"""Metamorphic relations: transformations of a scenario whose run must change
in a known way, or not at all, checked on drawn scenarios of every wiring in
both aggregation modes."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnego import run
from specnego.model import WIRINGS
from specnego.reports import render_events_jsonl, render_metrics_csv
from test_kernel import arbitrary_scenarios

every_mode = pytest.mark.parametrize("topology, aggregation", [
    (topology, aggregation) for topology in WIRINGS for aggregation in (True, False)
])


def draw_runs(data, topology, aggregation, transform):
    """The reports of a drawn scenario and of its transform."""
    scenario = data.draw(arbitrary_scenarios(topology, aggregation))
    return run(scenario), run(transform(scenario))


def allocations(report, scale=1):
    """Each grant as ``(su_id, pu_id, cpu_id, granted_channels * scale)``."""
    return [
        (a.su_id, a.offer.pu_id, a.offer.cpu_id, a.granted_channels * scale)
        for a in report.allocations
    ]


def scaled_criteria(scenario):
    """Every price x2, every alloc_time x4 and the weights x2."""
    return replace(
        scenario,
        pus=tuple(replace(pu, price=pu.price * 2, alloc_time=pu.alloc_time * 4)
                  for pu in scenario.pus),
        weights=tuple(w * 2 for w in scenario.weights),
    )


def later_arrivals(scenario):
    """Every arrival +1024."""
    return replace(scenario, sus=tuple(
        replace(su, arrival_time=su.arrival_time + 1024) for su in scenario.sus
    ))


def doubled_channels(scenario):
    """Every PU's channels and every SU's request x2."""
    return replace(
        scenario,
        pus=tuple(replace(pu, channels=pu.channels * 2) for pu in scenario.pus),
        sus=tuple(replace(su, channels_requested=su.channels_requested * 2)
                  for su in scenario.sus),
    )


@every_mode
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_scaling_a_criterion_or_the_weights_changes_nothing(topology, aggregation, data):
    # TOPSIS divides each column by its length and the weighted columns by
    # the weights' sum, so a positive scale per column or on the weights
    # ranks the same (powers of two scale floats exactly)
    before, after = draw_runs(data, topology, aggregation, scaled_criteria)
    assert render_events_jsonl(after) == render_events_jsonl(before)
    assert render_metrics_csv(after) == render_metrics_csv(before)
    assert allocations(after) == allocations(before)


@every_mode
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_later_arrivals_shift_the_run_in_time(topology, aggregation, data):
    # no rule reads the clock itself, only the spans between times
    before, after = draw_runs(data, topology, aggregation, later_arrivals)
    assert allocations(after) == allocations(before)
    assert after.per_su_response == before.per_su_response
    assert after.run_response == before.run_response


@every_mode
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_doubled_channels_double_every_grant(topology, aggregation, data):
    # a grant is the whole request, made where the capacity covers it; both double
    before, after = draw_runs(data, topology, aggregation, doubled_channels)
    assert render_events_jsonl(after) == render_events_jsonl(before)
    assert allocations(after) == allocations(before, scale=2)
