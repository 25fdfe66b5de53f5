"""The names ``specnego`` keeps for the benchmark's tracer, ``perfbench/spans.py``.

The tracer rebinds module-level names of the package while a traced run
lasts (``protocol.rank_offers``, ``protocol.topsis``, ``coalitions.topsis``,
...). A renamed or removed name breaks only the benchmark, so these tests
install the tracer around tiny runs of every wiring and pin the names.
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


@pytest.mark.parametrize("topology, aggregation", [
    ("no_coalition", True), ("cpu_only", True), ("cpu_csu", True), ("cpu_csu", False),
])
def test_tracer_spans_every_wiring_and_restores_the_names(topology, aggregation):
    groups = (2, 3) if topology == "cpu_csu" else (5,)
    scenario = generate_scenario(topology, 4, 2, groups, aggregation=aggregation)
    tracer = load_tracer_class()()
    try:
        tracer.install()
        rebound = list(tracer._restore)  # (owner, attribute, original object)
        run(scenario)
    finally:
        tracer.uninstall()

    ids = Counter(tracer.names)
    calls = {name: ids[name_id] for name, name_id in tracer.name_ids.items()}
    expected = ["topsis.topsis", "protocol.rank_offers"]
    if topology != "no_coalition":
        expected += ["coalitions.best_offer", "coalitions.register_params"]
    assert all(calls.get(name, 0) > 0 for name in expected), calls
    assert rebound
    for owner, attribute, original in rebound:
        assert getattr(owner, attribute) is original, f"{owner.__name__}.{attribute}"
