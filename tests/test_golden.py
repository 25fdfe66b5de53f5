"""Golden exports: byte-identical run exports and study tables and charts.

Each scenario is small but exercises its topology's full negotiation path,
including a zero-channel PU and more demand than capacity, so some SUs go
unserved. The pins are sha256 digests of the rendered exports; a change that
alters any byte of them (an event order, a float's last digit, a different
winning offer) fails here. Re-pin only in a change that means to alter the
exports, by running ``python tests/test_golden.py`` from the repository root
with ``src`` on ``PYTHONPATH``.

The built-in studies are pinned the same way, through the ``experiment``
command: its ``<id>_metrics.csv`` (``render_table_csv``) and ``<id>.svg``
(``render_chart`` with the study's chart shape), for every study at seed 1
and for ``exp_iv`` with an SU sweep whose counts leave a smaller last
SU-coalition.
"""

import hashlib
from dataclasses import replace

import pytest

from specnego import generate_scenario, run
from specnego.cli import EXIT_OK, main
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


STUDIES = {
    "exp_i": [],
    "exp_ii": [],
    "exp_iii": [],
    "exp_iv": [],
    "exp_iv_sweep_5_7_13": ["--su-sweep", "5,7,13"],
}

GOLDEN_STUDIES = {
    "exp_i": {
        "exp_i_metrics.csv": "88e2e8a51e243cdf8b3d59f6682b5169ffb01cc0712269836ddc93e0ef06fdf4",
        "exp_i.svg": "9c4a2fa8fdd1df3687a3014ab4efc71d69d8120673fa7c58b77363d947165338",
    },
    "exp_ii": {
        "exp_ii_metrics.csv": "22dc3934c887f80ee5ee2b9de2a794f944e3e11b24136b1ab1646e50eb813133",
        "exp_ii.svg": "2185a22e63691c12f8e054d6798868d3740369895139642a2b2edb472e966da6",
    },
    "exp_iii": {
        "exp_iii_metrics.csv": "2906fecd4db2e3f8ead783d87c54a8623dbec25f5932a7f6ffac50d8eb8ba537",
        "exp_iii.svg": "dd75ce0252ad33f761ac3064e226c41821b66f65a642a02beeb0c1ac3a164a71",
    },
    "exp_iv": {
        "exp_iv_metrics.csv": "bf3243c3da0c9d6dd17e9a81b51e3d0996b71f15d185f43504795f3443c1d7d7",
        "exp_iv.svg": "3195c8ec112092786ad6b72966ec66e9d35b77c3aa633608464ae90b8ab9aee6",
    },
    "exp_iv_sweep_5_7_13": {
        "exp_iv_metrics.csv": "005b8103f1dc167973e5131bcb597662a70ddc6cdb9030155169db9406214701",
        "exp_iv.svg": "ef79d7f1a70a56562b19756972dbf5c49e7aa02fdce72c21bdb495c77c6b073d",
    },
}


def study_digests(name, out_dir):
    study = name.split("_sweep")[0]
    argv = ["experiment", study, "--seed", "1", "--out", str(out_dir)] + STUDIES[name]
    assert main(argv) == EXIT_OK
    return {
        path: hashlib.sha256((out_dir / path).read_bytes()).hexdigest()
        for path in (f"{study}_metrics.csv", f"{study}.svg")
    }


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_outputs_match_golden_digests(name, tmp_path):
    assert study_digests(name, tmp_path) == GOLDEN_STUDIES[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for scenario_name in SCENARIOS:
        print(repr(scenario_name), export_digests(scenario_name))
    for study_name in STUDIES:
        with tempfile.TemporaryDirectory() as tmp:
            print(repr(study_name), study_digests(study_name, Path(tmp)))
