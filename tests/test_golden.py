"""Golden exports: byte-identical metrics.csv, events.jsonl and allocations.csv.

Each scenario is small but exercises its topology's full negotiation path,
including a zero-channel PU and more demand than capacity, so some SUs go
unserved. The pins are sha256 digests of the rendered exports; a change that
alters any byte of them (an event order, a float's last digit, a different
winning offer) fails here. Re-pin only in a change that means to alter the
exports, by running ``python tests/test_golden.py`` from the repository root
with ``src`` on ``PYTHONPATH``.
"""

import hashlib
from dataclasses import replace

import pytest

from specnego import generate_scenario, run
from specnego.reports import render_allocations_csv, render_events_jsonl, render_metrics_csv

RENDERERS = {
    "metrics.csv": render_metrics_csv,
    "events.jsonl": render_events_jsonl,
    "allocations.csv": render_allocations_csv,
}


def _scenario(topology, pu_count, cpu_count, su_groups, aggregation=True):
    scenario = generate_scenario(
        topology, pu_count, cpu_count, su_groups, aggregation=aggregation, seed=3
    )
    pus = list(scenario.pus)
    pus[1] = replace(pus[1], channels=0)
    return replace(scenario, pus=tuple(pus))


SCENARIOS = {
    "no_coalition": lambda: _scenario("no_coalition", 4, 0, (10,)),
    "cpu_only": lambda: _scenario("cpu_only", 6, 2, (9,)),
    "cpu_csu_aggregated": lambda: _scenario("cpu_csu", 6, 2, (4, 3, 2)),
    "cpu_csu_per_demand": lambda: _scenario("cpu_csu", 6, 2, (4, 3, 2), aggregation=False),
}

GOLDEN = {
    "no_coalition": {
        "metrics.csv": "e331f3e1c08ec8881afba3f6c0cfdd5a309feb54e0a8fc658c5945313b9859a3",
        "events.jsonl": "7dae516057b60e8c7f5f0adb3507baa8ab050f7030c6f9ce5d800a022cf5802a",
        "allocations.csv": "a166acce2a606e12ee9d3bfb7e385f0683f824f95b25675465d62e84f3e711e5",
    },
    "cpu_only": {
        "metrics.csv": "5efa937ce424c962f9f0092a6547312a7fc33ea05704926a50bb4a31e4eafbb3",
        "events.jsonl": "7790d32cdc05383ad484a206539915cc66a1f8623ae34d7d7da8a07bb866b04c",
        "allocations.csv": "73f041f9e7a9289b41ffe3f6c259707c3b37f7b561c474a1b34ac5f5af185a7a",
    },
    "cpu_csu_aggregated": {
        "metrics.csv": "25b3434b7aa54cea9c0df6787cca4cdae3d449062dbd14631ec131d8ae65665a",
        "events.jsonl": "0cb348103ff5ac7ab4d49e1dba28cf4a044ae476831e5891b910f18d13040133",
        "allocations.csv": "f5e1001fe6bf9490f757d2d06a0eeb38614bd266edfe1c64b0db2ba6323401ed",
    },
    "cpu_csu_per_demand": {
        "metrics.csv": "e327a75afe7442dda388080b30f80234dfabbb7220f2794c4a3658d0e1fd5f30",
        "events.jsonl": "fc6ad5203d9d747ec30228f764aeacf3d4b0bd5613f8e4c7222e1b2da361777a",
        "allocations.csv": "8a373ca1a92cf51d86541f749b4c9b45528890bda8930f27f01053670d22ce9c",
    },
}


def export_digests(name):
    report = run(SCENARIOS[name]())
    return {
        export: hashlib.sha256(render(report).encode("utf-8")).hexdigest()
        for export, render in RENDERERS.items()
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_exports_match_golden_digests(name):
    assert export_digests(name) == GOLDEN[name]


if __name__ == "__main__":
    for scenario_name in SCENARIOS:
        print(repr(scenario_name), export_digests(scenario_name))
