"""Command-line interface tests: exit codes, outputs, env overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specnego
from specnego import generate_scenario
from specnego.cli import EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, EXIT_VALIDATION, main
from specnego.reports import render_events_jsonl
from specnego.scenario_io import scenario_to_json

MATRIX_CSV = (
    "alternative,channels,price,alloc_time\n"
    "weights,0.2,0.5,0.3\n"
    "senses,benefit,cost,benefit\n"
    "pu1,3,5.0,30\n"
    "pu2,5,9.0,45\n"
)


@pytest.fixture
def scenario_file(tmp_path):
    scenario = generate_scenario("cpu_csu", pu_count=15, cpu_count=5,
                                 su_groups=(5, 5, 5), seed=1)
    path = tmp_path / "scenario.json"
    path.write_text(scenario_to_json(scenario), encoding="utf-8")
    return path


class TestValidateCommand:
    def test_ok(self, scenario_file, capsys):
        assert main(["validate", str(scenario_file)]) == EXIT_OK
        assert "scenario OK" in capsys.readouterr().out

    def test_validation_failure(self, tmp_path, capsys):
        doc = {
            "topology": "cpu_csu",
            "pus": [{"id": "a", "zone": [0, 0], "channels": 1, "price": 1.0,
                     "alloc_time": 1.0}],
            "sus": [{"id": "a", "zone": [0, 1], "channels_requested": 1,
                     "arrival_time": 0.0}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "duplicate" in err and "'a'" in err

    def test_weights_count_is_a_validation_failure(self, tmp_path, capsys):
        doc = json.loads(scenario_to_json(generate_scenario("no_coalition", 2, su_groups=(1,))))
        doc["weights"] = [0.5, 0.5]
        path = tmp_path / "two_weights.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "weights: expected 3 values, got 2\n"

    def test_parse_failure(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_PARSE
        assert "malformed" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_PARSE


class TestRunCommand:
    def test_writes_exports(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "messages=75" in stdout
        for name in ("metrics.csv", "events.jsonl", "allocations.csv"):
            assert (out / name).exists()

    def test_su_with_nobody_to_ask(self, tmp_path, capsys):
        # no PUs: both SUs are unserved on arrival, at t=5 and t=7
        doc = json.loads(scenario_to_json(generate_scenario("no_coalition", 0, su_groups=(2,))))
        for su, arrival in zip(doc["sus"], (5.0, 7.0)):
            su["arrival_time"] = arrival
        path = tmp_path / "no_pus.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert "messages=0 run_response=2 quiescent_at=7" in capsys.readouterr().out
        metrics = (tmp_path / "out" / "metrics.csv").read_text(encoding="utf-8").splitlines()
        assert "unserved,2" in metrics

    def test_event_cap_env(self, scenario_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPECNEGO_EVENT_CAP", "3")
        code = main(["run", str(scenario_file), "--out", str(tmp_path / "o")])
        assert code == EXIT_RUNTIME
        assert "event cap 3" in capsys.readouterr().err

    def test_bad_event_cap_env(self, scenario_file, tmp_path, capsys, monkeypatch):
        for cap in ("plenty", "0", "-3"):
            monkeypatch.setenv("SPECNEGO_EVENT_CAP", cap)
            code = main(["run", str(scenario_file), "--out", str(tmp_path / "o")])
            assert code == EXIT_PARSE, cap
            assert "SPECNEGO_EVENT_CAP must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads RSS from procfs")
    def test_large_run_streams_events_in_bounded_memory(self, tmp_path, bulk_run):
        # 200 PUs x 1000 SUs: 401,000 events and a 41 MB events.jsonl. Holding
        # the log's rows as objects and its text whole took the process past
        # 230 MB; the columnar log, stored by run of same-time events and
        # written out in blocks, keeps it near 22 MB; importing the network
        # stack (see tests/test_imports.py) would add about 6 MB.
        # The peak is VmHWM, not ru_maxrss, which keeps the forking test
        # process's peak across exec.
        scenario, report = bulk_run
        path = tmp_path / "bulk.json"
        path.write_text(scenario_to_json(scenario), encoding="utf-8")
        out = tmp_path / "out"
        code = (
            "import sys\n"
            "from specnego.cli import main\n"
            "assert main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "with open('/proc/self/status') as status:\n"
            "    print(next(l for l in status if l.startswith('VmHWM:')).split()[1])\n"
        )
        src = str(Path(specnego.__file__).resolve().parents[1])
        stdout = subprocess.run(
            [sys.executable, "-c", code, str(path), str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        ).stdout
        peak_mb = int(stdout.splitlines()[-1]) / 1024
        assert peak_mb < 26, f"peak RSS {peak_mb:.1f} MB"
        expected = render_events_jsonl(report).encode("utf-8")
        assert (out / "events.jsonl").read_bytes() == expected

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads RSS from procfs")
    def test_rendered_events_text_is_held_once(self, tmp_path):
        # The same 41 MB events.jsonl rendered to one string: the peak RSS
        # may grow by the text and a block, not by the text twice (joining
        # every block held them and their join at once, about 2.0x; the
        # in-place += holds about 1.1x). The peak is VmHWM, not ru_maxrss,
        # which keeps the forking test process's peak across exec.
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from specnego import generate_scenario, run\n"
            "from specnego.reports import export_report, render_events_jsonl\n"
            "def status_kb(field):\n"
            "    with open('/proc/self/status') as status:\n"
            "        line = next(l for l in status if l.startswith(field + ':'))\n"
            "    return int(line.split()[1])\n"
            "report = run(generate_scenario('no_coalition', 200, 0, (1000,), seed=1))\n"
            "before = status_kb('VmRSS')\n"
            "text = render_events_jsonl(report)\n"
            "grown = (status_kb('VmHWM') - before) * 1024\n"
            "data = text.encode('utf-8')\n"
            "export_report(report, sys.argv[1])\n"
            "print(grown, len(data), int((Path(sys.argv[1]) / 'events.jsonl').read_bytes() == data))\n"
        )
        src = str(Path(specnego.__file__).resolve().parents[1])
        stdout = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        ).stdout
        grown, size, same = map(int, stdout.split())
        assert same, "render_events_jsonl differs from the exported events.jsonl"
        assert grown < 1.5 * size, f"peak RSS grew {grown / size:.2f}x the text"


class TestTopsisCommand:
    def test_ranks_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(MATRIX_CSV, encoding="utf-8")
        assert main(["topsis", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alternative,closeness,rank"
        assert len(lines) == 3

    def test_unreadable_matrix(self, tmp_path, capsys):
        assert main(["topsis", str(tmp_path / "nope.csv")]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"cannot read {tmp_path / 'nope.csv'}: ")

    def test_bad_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("only,one,row\n", encoding="utf-8")
        assert main(["topsis", str(path)]) == EXIT_PARSE


class TestExperimentCommand:
    def test_writes_table_and_plot(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["experiment", "exp_i", "--out", str(out)]) == EXIT_OK
        assert (out / "exp_i_metrics.csv").exists()
        assert (out / "exp_i.svg").exists()

    def test_no_plots(self, tmp_path):
        out = tmp_path / "out"
        assert main(["experiment", "exp_i", "--out", str(out), "--no-plots"]) == EXIT_OK
        assert not (out / "exp_i.svg").exists()

    def test_unwritable_table_exits_runtime(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "exp_i_metrics.csv").mkdir(parents=True)
        assert main(["experiment", "exp_i", "--out", str(out)]) == EXIT_RUNTIME
        assert f"cannot write {out / 'exp_i_metrics.csv'}: " in capsys.readouterr().err
        assert not (out / "exp_i.svg").exists()

    def test_sweep_override(self, tmp_path):
        out = tmp_path / "out"
        code = main(["experiment", "exp_iv", "--out", str(out), "--su-sweep", "5,10"])
        assert code == EXIT_OK
        text = (out / "exp_iv_metrics.csv").read_text(encoding="utf-8")
        assert "no_coalition S=10" in text and "S=15" not in text

    @pytest.mark.parametrize("study", ["exp_i", "exp_ii", "exp_iii"])
    def test_sweep_rejected_outside_exp_iv(self, study, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["experiment", study, "--out", str(out), "--su-sweep", "5,10"])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "--su-sweep" in err and study in err
        assert not out.exists()

    def test_bad_sweep_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "exp_iv", "--su-sweep", "5,ten"])
        assert excinfo.value.code == EXIT_PARSE

    @pytest.mark.parametrize("seed", ["-1", "one"])
    def test_bad_seed_rejected_by_argparse(self, seed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "exp_i", "--seed", seed])
        assert excinfo.value.code == EXIT_PARSE
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_unknown_id_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "exp_v"])
        assert excinfo.value.code == EXIT_PARSE


def test_runtime_never_imports_numpy(tmp_path):
    # the package runs on the standard library alone
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(MATRIX_CSV, encoding="utf-8")
    code = (
        "import sys\n"
        "import specnego\n"
        "from specnego import cli, generate_scenario, run\n"
        "run(generate_scenario('cpu_csu', pu_count=4, cpu_count=2, su_groups=(2, 2), seed=1))\n"
        "assert cli.main(['topsis', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    src = str(Path(specnego.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, str(matrix)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"
