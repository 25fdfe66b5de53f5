"""Scenario/matrix file handling and export determinism tests."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specnego
from specnego import (
    Coordinator,
    MembershipOverride,
    MessageKind,
    PrimaryUser,
    RunReport,
    Scenario,
    SecondaryUser,
    TimingConstants,
    Zone,
    generate_scenario,
    run,
    topsis,
    validate,
)
from specnego import charts, kernel, reports
from specnego.charts import render_chart
from specnego.cli import EXIT_VALIDATION, main
from specnego.experiments import MetricsTable, experiment_spec, run_experiment
from specnego.kernel import AGENT_WAKE, DELIVER, EventLog, LoggedEvent
from specnego.matrix_io import closeness_csv, parse_matrix_csv
from specnego.reports import (
    render_allocations_csv,
    render_events_jsonl,
    render_metrics_csv,
    render_table_csv,
    export_report,
)
from specnego.scenario_io import ScenarioParseError, parse_scenario, scenario_to_json

MINIMAL_DOC = """
{
  "topology": "no_coalition",
  "pus": [{"id": "pu0", "zone": [0, 0], "channels": 4, "price": 10.0, "alloc_time": 60.0}],
  "sus": [{"id": "su0", "zone": [0, 1], "channels_requested": 2, "arrival_time": 0.0}]
}
"""


class TestParseScenario:
    def test_minimal_document_gets_defaults(self):
        scenario = parse_scenario(MINIMAL_DOC)
        assert scenario.weights == (0.2, 0.5, 0.3)
        assert scenario.seed == 0 and scenario.aggregation is True
        assert scenario.timing.latency == 10.0
        assert validate(scenario) == []

    def test_weights_not_summing_to_one_accepted(self):
        doc = json.loads(MINIMAL_DOC)
        doc["weights"] = [0.4, 1.0, 0.6]
        scenario = parse_scenario(json.dumps(doc))
        assert validate(scenario) == []

    def test_weights_count_reported_by_validate(self):
        # the count is a value problem, listed with the scenario's others
        doc = json.loads(MINIMAL_DOC)
        doc["weights"] = [0.5, 0.5]
        doc["sus"][0]["id"] = "pu0"
        assert validate(parse_scenario(json.dumps(doc))) == [
            "sus[0].id: duplicate id 'pu0'", "weights: expected 3 values, got 2",
        ]

    def test_duplicate_id_reported_by_validate(self):
        doc = json.loads(MINIMAL_DOC)
        doc["sus"][0]["id"] = "pu0"
        problems = validate(parse_scenario(json.dumps(doc)))
        assert len(problems) == 1 and "pu0" in problems[0]

    def test_unknown_field_rejected_with_path(self):
        doc = json.loads(MINIMAL_DOC)
        doc["pus"][0]["prices"] = 3
        with pytest.raises(ScenarioParseError, match=r"pus\[0\].prices"):
            parse_scenario(json.dumps(doc))

    def test_unknown_top_level_field(self):
        doc = json.loads(MINIMAL_DOC)
        doc["latency"] = 10
        with pytest.raises(ScenarioParseError, match="unknown field"):
            parse_scenario(json.dumps(doc))

    def test_missing_required_field(self):
        doc = json.loads(MINIMAL_DOC)
        del doc["topology"]
        with pytest.raises(ScenarioParseError, match="topology"):
            parse_scenario(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ScenarioParseError, match="malformed"):
            parse_scenario("{not json")

    def test_wrong_types_reported_with_path(self):
        doc = json.loads(MINIMAL_DOC)
        doc["pus"][0]["channels"] = "four"
        with pytest.raises(ScenarioParseError, match=r"pus\[0\].channels"):
            parse_scenario(json.dumps(doc))
        doc = json.loads(MINIMAL_DOC)
        doc["pus"][0]["zone"] = [1, 2, 3]
        with pytest.raises(ScenarioParseError, match=r"pus\[0\].zone"):
            parse_scenario(json.dumps(doc))
        doc = json.loads(MINIMAL_DOC)
        doc["aggregation"] = "yes"
        with pytest.raises(ScenarioParseError, match="aggregation"):
            parse_scenario(json.dumps(doc))

    def test_partial_timing_keeps_other_defaults(self):
        doc = json.loads(MINIMAL_DOC)
        doc["timing"] = {"latency": 2.5}
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.timing.latency == 2.5
        assert scenario.timing.cpu_select == 2.0

    def test_timing_unknown_key(self):
        doc = json.loads(MINIMAL_DOC)
        doc["timing"] = {"lag": 1}
        with pytest.raises(ScenarioParseError, match="timing.lag"):
            parse_scenario(json.dumps(doc))


    def test_first_bad_timing_value_reported_whatever_the_hash_seed(self):
        # Several bad values: the error names the first in declaration
        # order, not whichever a set's hash order happens to reach first.
        doc = json.loads(MINIMAL_DOC)
        doc["timing"] = {"pu_reply": "y", "cpu_select": True, "latency": "x"}
        code = (
            "import sys\n"
            "from specnego.scenario_io import parse_scenario\n"
            "try:\n"
            "    parse_scenario(sys.argv[1])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(specnego.__file__).resolve().parents[1])
        for hash_seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", code, json.dumps(doc)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            assert out.startswith("timing.latency: "), (hash_seed, out)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "scenario",
        [
            generate_scenario("no_coalition", pu_count=3, su_groups=(2,), seed=5),
            generate_scenario("cpu_only", pu_count=6, cpu_count=2, su_groups=(4,), seed=5),
            generate_scenario("cpu_csu", pu_count=15, cpu_count=5, su_groups=(5, 5, 5), seed=5),
        ],
        ids=["no_coalition", "cpu_only", "cpu_csu"],
    )
    def test_parse_inverts_serialize(self, scenario):
        assert parse_scenario(scenario_to_json(scenario)) == scenario

    def test_round_trip_with_membership_override(self):
        base = generate_scenario("cpu_csu", pu_count=2, cpu_count=1, su_groups=(2,), seed=5)
        scenario = type(base)(
            **{
                **{f: getattr(base, f) for f in (
                    "topology", "pus", "sus", "cpu_coordinators", "csu_coordinators",
                    "aggregation", "seed", "weights", "timing",
                )},
                "memberships": MembershipOverride(
                    cpu={"cpu00": ("pu000", "pu001")}, csu={"csu000": ("su0000", "su0001")}
                ),
            }
        )
        assert parse_scenario(scenario_to_json(scenario)) == scenario

    def test_serialization_is_byte_stable(self):
        scenario = generate_scenario("cpu_csu", pu_count=15, cpu_count=5,
                                     su_groups=(5, 5, 5), seed=5)
        assert scenario_to_json(scenario) == scenario_to_json(scenario)


class TestMatrixCsv:
    TEXT = (
        "alternative,channels,price,alloc_time\n"
        "weights,0.2,0.5,0.3\n"
        "senses,benefit,cost,benefit\n"
        "pu1,3,5.0,30\n"
        "pu2,5,9.0,45\n"
        "pu3,4,7.0,40\n"
    )

    def test_parse_and_rank(self):
        matrix = parse_matrix_csv(self.TEXT)
        assert matrix.alternatives == ("pu1", "pu2", "pu3")
        assert matrix.weights == (0.2, 0.5, 0.3)
        result = topsis(matrix)
        text = closeness_csv(matrix, result)
        lines = text.strip().splitlines()
        assert lines[0] == "alternative,closeness,rank"
        assert lines[1].startswith("pu1,") and lines[1].endswith(",1")

    def test_no_criteria(self):
        with pytest.raises(ValueError, match="header row declares no criteria"):
            parse_matrix_csv("alternative\nweights\nsenses\nx\n")

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least one alternative"):
            parse_matrix_csv("a,b\nweights,1\nsenses,benefit\n")

    def test_bad_sense_token(self):
        bad = self.TEXT.replace("benefit,cost", "benefit,cheap")
        with pytest.raises(ValueError, match="cheap"):
            parse_matrix_csv(bad)

    def test_senses_row_count(self):
        with pytest.raises(ValueError) as excinfo:
            parse_matrix_csv("alternative,a,b\nweights,1,1\nsenses,benefit\nx,1,2\n")
        assert str(excinfo.value) == "senses row: expected 2 values, got 1"

    def test_wrong_cell_count(self):
        with pytest.raises(ValueError, match="expected 3"):
            parse_matrix_csv(
                "alternative,a,b,c\nweights,1,1,1\nsenses,benefit,benefit,benefit\nx,1,2\n"
            )

    def test_non_numeric_score(self):
        with pytest.raises(ValueError):
            parse_matrix_csv(
                "alternative,a\nweights,1\nsenses,benefit\nx,lots\n"
            )


@pytest.fixture(scope="module")
def report():
    return run(generate_scenario("cpu_csu", pu_count=15, cpu_count=5,
                                 su_groups=(5, 5, 5), seed=1))


@pytest.fixture(scope="module")
def exp_i_table():
    return run_experiment(experiment_spec("exp_i"))


@pytest.fixture(scope="module")
def exp_iv_table():
    return run_experiment(experiment_spec("exp_iv", su_sweep=(5, 10)))


def json_dumps_lines(events):
    """events.jsonl as ``json.dumps`` writes it: one compact object per event."""
    return "".join(
        json.dumps(
            {
                "time": e.time,
                "seq": e.seq,
                "kind": e.kind,
                "from": e.sender,
                "to": e.recipient,
                "payload_kind": e.payload_kind,
            },
            separators=(",", ":"),
        ) + "\n"
        for e in events
    )


def report_with_log(event_log):
    """A RunReport around ``event_log``, every other field empty."""
    return RunReport(
        event_log=event_log, msg_counts={}, total_messages=0, per_su_response={},
        run_response=None, allocations=[], quiescent_at=0.0, protocol_violations=[],
        registries={}, final_capacities={},
    )


# Agent ids that JSON must escape or that are not ASCII, and arbitrary text.
AGENT_IDS = st.text() | st.sampled_from(
    ['pu"q', "pu\\b", "su\t1", "su\u00e9", "su\u96ea", "\x00", ""]
)
EVENT_ROWS = st.lists(st.tuples(
    st.sampled_from([-0.0, 5e-324, 1e308]) | st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**63 - 1),
    AGENT_IDS,
    AGENT_IDS,
    st.sampled_from([None, *MessageKind]),
), max_size=30)


@st.composite
def event_runs(draw):
    """Rows in runs, as the kernel logs them: consecutive seqs at one time,
    then a seq gap, a new time, or both; -0.0 and 0.0 are different times.
    A run may be longer than the largest patched ``EVENT_BLOCK`` (4), so
    block edges fall both inside runs and between them."""
    seq = draw(st.integers(0, 2**62))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        time = draw(st.sampled_from([-0.0, 0.0, 2.5]) | st.floats(allow_nan=False,
                                                                  allow_infinity=False))
        for _ in range(draw(st.integers(1, 9))):
            rows.append((time, seq, draw(AGENT_IDS), draw(AGENT_IDS),
                         draw(st.sampled_from([None, *MessageKind]))))
            seq += 1
        seq += draw(st.sampled_from([0, 0, 1, 7]))
    return rows


@given(EVENT_ROWS | event_runs(), st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_event_log_reads_back_its_rows(rows, block, chunk):
    log, again = EventLog(), EventLog()
    for row in rows:
        log.append(*row)
        again.append(*row)
    expected = [
        LoggedEvent(time, seq, AGENT_WAKE if payload is None else DELIVER, sender, recipient,
                    None if payload is None else payload.value)
        for time, seq, sender, recipient, payload in rows
    ]
    n = len(expected)
    # the log scans its codes for run starts a few at a time, so runs
    # straddle the edges of those chunks
    with mock.patch.object(kernel, "_CHUNK", chunk):
        assert len(log) == n
        assert list(log) == expected
        assert [log[i] for i in range(n)] == expected
        assert [log[i - n] for i in range(n)] == expected
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                log[i]
        # rendered in blocks of a few lines, so block edges fall inside runs
        with mock.patch.object(reports, "EVENT_BLOCK", block):
            blocks = list(reports._event_blocks(report_with_log(log)))
            assert render_events_jsonl(report_with_log(log)) == json_dumps_lines(expected)
    assert "".join(blocks) == json_dumps_lines(expected)
    # every block is full but the last (json escapes a newline inside an id)
    full, last = divmod(n, block)
    assert [text.count("\n") for text in blocks] == [block] * full + [last] * (last > 0)
    assert log == again
    if rows:
        shorter, changed = EventLog(), EventLog()
        for row in rows[:-1]:
            shorter.append(*row)
            changed.append(*row)
        time, seq, *rest = rows[-1]
        changed.append(time, seq ^ 1, *rest)
        assert log != shorter and log != changed


def test_events_jsonl_of_a_burst_longer_than_a_block(tmp_path):
    # every SU arrives at t=0, so 200 SUs x 20 PUs make one CFP run of 4,000
    # events, which the default EVENT_BLOCK splits
    scenario = generate_scenario("no_coalition", 20, 0, (200,), seed=1)
    scenario = dataclasses.replace(scenario, sus=tuple(
        dataclasses.replace(su, arrival_time=0.0) for su in scenario.sus
    ))
    report = run(scenario)
    cfps = [e for e in report.event_log if e.payload_kind == MessageKind.CFP_SINGLE.value]
    assert len(cfps) == 4000 > reports.EVENT_BLOCK
    assert {event.time for event in cfps} == {cfps[0].time}
    assert [event.seq for event in cfps] == list(range(cfps[0].seq, cfps[0].seq + 4000))
    text = render_events_jsonl(report)
    assert text == json_dumps_lines(report.event_log)
    export_report(report, tmp_path)
    assert (tmp_path / "events.jsonl").read_bytes() == text.encode("utf-8")


class TestReportExports:
    def test_metrics_row_for_total(self, report):
        assert "total_messages,75" in render_metrics_csv(report).splitlines()

    def test_events_jsonl_schema(self, report):
        lines = render_events_jsonl(report).strip().splitlines()
        assert len(lines) == len(report.event_log)
        first = json.loads(lines[0])
        assert set(first) == {"time", "seq", "kind", "from", "to", "payload_kind"}

    def test_allocations_csv_lists_grants(self, report):
        lines = render_allocations_csv(report).strip().splitlines()
        assert lines[0].startswith("su_id,pu_id,cpu_id,granted_channels")
        assert len(lines) == 1 + len(report.allocations)

    def test_empty_allocations_header_only(self):
        report = run(generate_scenario("cpu_csu", pu_count=1, cpu_count=1,
                                       su_groups=(1,), seed=1))
        # force emptiness by requesting more than any PU offers
        if report.allocations:
            report.allocations.clear()
        assert render_allocations_csv(report).strip().splitlines() == [
            "su_id,pu_id,cpu_id,granted_channels,offer_channels,price,alloc_time"
        ]

    @pytest.mark.parametrize("scenario", [
        # agent ids that JSON must escape: quote, backslash, tab, non-ASCII
        Scenario(
            topology="no_coalition",
            pus=(PrimaryUser('pu"q', Zone(0, 0), 2, 10.0, 60.0),
                 PrimaryUser("pu\\b", Zone(1, 0), 0, 12.0, 30.0)),
            sus=(SecondaryUser("su\t1", Zone(0, 1), 1, 0.0),
                 SecondaryUser("su\u00e9", Zone(0, 2), 1, 5.0),
                 SecondaryUser("su\u96ea", Zone(0, 3), 2, 5.0)),
        ),
        # a time json writes specially: -0.0 (an overflow to inf is rejected, see below)
        Scenario(
            topology="no_coalition",
            pus=(PrimaryUser("pu0", Zone(0, 0), 2, 10.0, 60.0),),
            sus=(SecondaryUser("su0", Zone(0, 1), 1, -0.0),),
        ),
    ], ids=["escaped_ids", "special_times"])
    def test_events_jsonl_matches_json_dumps(self, scenario):
        report = run(scenario)
        text = render_events_jsonl(report)
        assert text == json_dumps_lines(report.event_log)
        lines = text.splitlines()
        assert len(lines) == len(report.event_log) > 0
        for line, event in zip(lines, report.event_log):
            decoded = json.loads(line)
            assert (decoded["from"], decoded["to"]) == (event.sender, event.recipient)
            assert decoded["payload_kind"] == event.payload_kind

    def test_csv_exports_quote_ids(self):
        # ids holding a comma, a quote, CR or LF: each CSV field must read
        # back as the id, and every row must keep the header's width
        pu_ids, su_ids, cpu_id = ('pu,1', 'pu"2'), ('su,"x"', "su\n2", "plain"), "cpu\r0"
        scenario = Scenario(
            topology="cpu_only",
            pus=tuple(PrimaryUser(p, Zone(0, k), 4, 10.0 + k, 60.0) for k, p in enumerate(pu_ids)),
            sus=tuple(SecondaryUser(s, Zone(1, k), 1, 0.0) for k, s in enumerate(su_ids)),
            cpu_coordinators=(Coordinator(cpu_id, Zone(0, 0)),),
        )
        assert validate(scenario) == []
        report = run(scenario)

        def rows(text):
            return list(csv.reader(io.StringIO(text, newline="")))

        metrics = rows(render_metrics_csv(report))
        assert {len(row) for row in metrics} == {2}
        responses = {name[len("response_"):] for name, _ in metrics if name.startswith("response_")}
        assert responses == set(su_ids)
        allocations = rows(render_allocations_csv(report))
        assert {len(row) for row in allocations} == {7}
        assert [row[:3] for row in allocations[1:]] == [
            [a.su_id, a.offer.pu_id, a.offer.cpu_id] for a in report.allocations
        ]
        assert {row[0] for row in allocations[1:]} == set(su_ids)
        assert {row[2] for row in allocations[1:]} == {cpu_id}
        text = 'alternative,c\nweights,1\nsenses,benefit\n"a,b",1\n"q""x",2\n"l\nf",3\n'
        matrix = parse_matrix_csv(text)
        assert matrix.alternatives == ("a,b", 'q"x', "l\nf")
        closeness = rows(closeness_csv(matrix, topsis(matrix)))
        assert {len(row) for row in closeness} == {3}
        assert [row[0] for row in closeness[1:]] == list(matrix.alternatives)

    def test_delivery_time_overflow_raises(self, tmp_path, monkeypatch):
        # finite timing values whose sum overflows: 1e308 + 0 + 1e308 is inf
        scenario = Scenario(
            topology="no_coalition",
            pus=(PrimaryUser("pu0", Zone(0, 0), 2, 10.0, 60.0),),
            sus=(SecondaryUser("su0", Zone(0, 1), 1, -0.0),
                 SecondaryUser("su1", Zone(0, 2), 1, 1e308)),
            timing=TimingConstants(latency=1e308),
        )
        assert validate(scenario) == [
            "timing: event times may overflow to inf: the latest arrival 1e+308 plus the "
            "'no_coalition' chain's delays (0.0, 2.0), each plus latency 1e+308, and the "
            "completion delay 1.0, is not finite"
        ]
        path = tmp_path / "overflow.json"
        path.write_text(scenario_to_json(scenario), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert not (out / "events.jsonl").exists()
        # the kernel still guards a run that skips the bound
        monkeypatch.setattr("specnego.kernel.validate", lambda scenario: [])
        with pytest.raises(
            RuntimeError,
            match=r"delivery time overflows to inf: CfpSingle from 'su1' to 'pu0' at t=1e\+308",
        ):
            run(scenario)

    def test_completion_time_overflow_raises(self, monkeypatch):
        # every send is finite, but ranking two offers costs 2e308
        scenario = Scenario(
            topology="no_coalition",
            pus=(PrimaryUser("pu0", Zone(0, 0), 2, 10.0, 60.0),
                 PrimaryUser("pu1", Zone(1, 0), 2, 10.0, 60.0)),
            sus=(SecondaryUser("su0", Zone(0, 1), 1, 0.0),),
            timing=TimingConstants(rank_per_offer=1e308),
        )
        assert [p.split(":")[0] for p in validate(scenario)] == ["timing"]
        monkeypatch.setattr("specnego.kernel.validate", lambda scenario: [])
        with pytest.raises(
            RuntimeError, match=r"completion time overflows to inf: 'su0' arrived at t=0\.0"
        ):
            run(scenario)

    def test_reexport_is_byte_identical(self, report, tmp_path):
        first = {p.name: p.read_bytes() for p in export_report(report, tmp_path / "a")}
        second = {p.name: p.read_bytes() for p in export_report(report, tmp_path / "b")}
        assert set(first) == {"metrics.csv", "events.jsonl", "allocations.csv"}
        assert first == second

    def test_table_csv_has_notes_and_rows(self):
        table = run_experiment(experiment_spec("exp_i"))
        text = render_table_csv(table)
        lines = text.splitlines()
        assert lines[0].startswith("# ")
        header_index = next(i for i, l in enumerate(lines) if not l.startswith("# "))
        assert lines[header_index].split(",")[:2] == ["label", "su_count"]
        assert len(lines) == header_index + 1 + 6


class TestCharts:
    def test_line_chart_shape(self, exp_i_table):
        svg = render_chart(exp_i_table, "line", "su_count", "run_response")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 1
        assert "su_count" in svg and "run_response" in svg

    def test_grouped_bar_chart_shape(self, exp_iv_table):
        svg = render_chart(exp_iv_table, "bar", "su_count", "total_messages",
                           series="topology")
        # 3 series x 2 sweep points = 6 bars, plus 3 legend swatches
        assert svg.count("<rect") == 1 + 6 + 3  # background + bars + legend
        for name in ("no_coalition", "cpu_only", "cpu_csu"):
            assert name in svg

    def test_single_row_table(self):
        table = MetricsTable("t", (), ("x", "y"), ((1, 2.0),))
        svg = render_chart(table, "line", "x", "y")
        assert "<circle" in svg
        svg = render_chart(table, "bar", "x", "y")
        assert "<rect" in svg

    def test_all_zero_column_plots_on_the_axis(self):
        # no positive value: the y scale falls back to 1 (x 1.05 headroom)
        table = MetricsTable("t", (), ("x", "y"), ((1, 0.0), (2, 0.0)))
        svg = render_chart(table, "line", "x", "y")
        assert svg.count('cy="370.00"') == 2 and ">1.05</text>" in svg

    def test_bar_series_missing_a_category(self):
        rows = (("a", 1, 5.0), ("a", 2, 6.0), ("b", 1, 7.0))  # b has no bar at x=2
        table = MetricsTable("t", (), ("s", "x", "y"), rows)
        svg = render_chart(table, "bar", "x", "y", series="s")
        assert svg.count("<rect") == 1 + 3 + 2  # background + bars + legend

    def test_empty_table_rejected(self):
        table = MetricsTable("t", (), ("x", "y"), ())
        with pytest.raises(ValueError, match="empty"):
            render_chart(table, "line", "x", "y")

    def test_unknown_column_rejected(self, exp_i_table):
        with pytest.raises(ValueError, match="no column"):
            render_chart(exp_i_table, "line", "su_count", "wall_clock")

    def test_unknown_kind_rejected(self, exp_i_table):
        with pytest.raises(ValueError, match="kind"):
            render_chart(exp_i_table, "scatter", "su_count", "run_response")

    def test_deterministic(self, exp_i_table):
        a = render_chart(exp_i_table, "line", "su_count", "run_response")
        b = render_chart(exp_i_table, "line", "su_count", "run_response")
        assert a == b

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_escape_matches_saxutils(self, text):
        # saxutils is the oracle here only: the package must not import it
        assert charts._escape(text) == sax_escape(text)

    @pytest.mark.parametrize("kind", ["line", "bar"])
    def test_markup_in_names_reads_back_from_the_svg(self, kind):
        x, y, s = "n<&>", "y \"'&amp;", "s'\""
        series = ("a&b", "<c>", "&amp;\"'")
        rows = tuple((name, 1, 2.0) for name in series)
        svg = render_chart(MetricsTable("e<&>", (), (s, x, y), rows), kind, x, y, series=s)
        texts = [node.text for node in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        for name in (f"e<&>: {y} by {x}", x, y) + series:
            assert name in texts
