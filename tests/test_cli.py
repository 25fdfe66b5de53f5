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

    def test_event_cap_env(self, scenario_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPECNEGO_EVENT_CAP", "3")
        code = main(["run", str(scenario_file), "--out", str(tmp_path / "o")])
        assert code == EXIT_RUNTIME
        assert "event cap 3" in capsys.readouterr().err

    def test_bad_event_cap_env(self, scenario_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPECNEGO_EVENT_CAP", "plenty")
        code = main(["run", str(scenario_file), "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE


class TestTopsisCommand:
    def test_ranks_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(MATRIX_CSV, encoding="utf-8")
        assert main(["topsis", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alternative,closeness,rank"
        assert len(lines) == 3

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
