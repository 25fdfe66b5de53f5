"""The names ``specnego`` keeps for the benchmark's tracer, ``perfbench/spans.py``.

The tracer rebinds module-level names of the package while a traced run
lasts (``protocol.rank_offers``, ``protocol.topsis``, ``coalitions.topsis``,
...). A renamed or removed name breaks only the benchmark, so these tests
install the tracer around tiny runs of every wiring and pin the names. They
also pin the per-event contract behind ``kernel.step.calls`` and
``us_per_event``: one ``World.step`` call, and one ``handle`` or
``handle_wake`` call, per logged event.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from specnego import generate_scenario, run

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


# The events each tiny run logs: SU wakes plus delivered messages.
EVENTS = {
    ("no_coalition", True): 45, ("cpu_only", True): 29, ("cpu_csu", True): 27,
    ("cpu_csu", False): 39,
}


@pytest.mark.parametrize("topology, aggregation", list(EVENTS))
def test_tracer_spans_every_wiring_and_restores_the_names(topology, aggregation):
    groups = (2, 3) if topology == "cpu_csu" else (5,)
    scenario = generate_scenario(topology, 4, 2, groups, aggregation=aggregation)
    tracer = load_tracer_class()()
    try:
        tracer.install()
        rebound = list(tracer._restore)  # (owner, attribute, original object)
        report = run(scenario)
    finally:
        tracer.uninstall()

    ids = Counter(tracer.names)
    calls = {name: ids[name_id] for name, name_id in tracer.name_ids.items()}
    expected = ["topsis.topsis", "protocol.rank_offers"]
    if topology != "no_coalition":
        expected += ["coalitions.best_offer", "coalitions.register_params"]
    assert all(calls.get(name, 0) > 0 for name in expected), calls
    events = EVENTS[topology, aggregation]
    assert len(report.event_log) == events
    assert calls["kernel.step"] == events
    assert calls.get("protocol.handle", 0) + calls.get("protocol.handle_wake", 0) == events
    assert rebound
    for owner, attribute, original in rebound:
        assert getattr(owner, attribute) is original, f"{owner.__name__}.{attribute}"
