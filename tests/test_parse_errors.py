"""The scenario parser's error table: the exact text of every record defect.

Each agent section (``pus``, ``sus``, ``cpu_coordinators``,
``csu_coordinators``) is checked field by field: a missing field, a value of
the wrong type, and an extra key, plus a record that is not an object and a
section that is not an array. ``timing`` is read by the same record reader,
with every field optional. The messages are pinned verbatim, so a change to
how records are parsed cannot change what a user is told.
"""

import copy
import json

import pytest

from specnego.scenario_io import ScenarioParseError, parse_scenario

BASE = {
    "topology": "cpu_csu",
    "pus": [{"id": "pu0", "zone": [0, 0], "channels": 4, "price": 10.0, "alloc_time": 60.0}],
    "sus": [{"id": "su0", "zone": [0, 1], "channels_requested": 2, "arrival_time": 0.0}],
    "cpu_coordinators": [{"id": "cpu0", "zone": [0, 0]}],
    "csu_coordinators": [{"id": "csu0", "zone": [0, 1]}],
}

MISSING = object()

# (section, field, value or MISSING, expected error). A field of None means
# the whole record is replaced by ``value``.
FIELD_CASES = [
    ("pus", "id", MISSING, "pus[0].id: missing required field"),
    ("pus", "id", 7, "pus[0].id: expected a string, got int"),
    ("pus", "zone", MISSING, "pus[0].zone: missing required field"),
    ("pus", "zone", "here", "pus[0].zone: expected an array, got str"),
    ("pus", "zone", [1], "pus[0].zone: expected [x, y], got 1 entries"),
    ("pus", "zone", [0, "y"], "pus[0].zone[1]: expected a number, got 'y'"),
    ("pus", "channels", MISSING, "pus[0].channels: missing required field"),
    ("pus", "channels", "4", "pus[0].channels: expected an integer, got '4'"),
    ("pus", "channels", 4.0, "pus[0].channels: expected an integer, got 4.0"),
    ("pus", "channels", True, "pus[0].channels: expected an integer, got True"),
    ("pus", "price", MISSING, "pus[0].price: missing required field"),
    ("pus", "price", "x", "pus[0].price: expected a number, got 'x'"),
    ("pus", "price", False, "pus[0].price: expected a number, got False"),
    ("pus", "alloc_time", MISSING, "pus[0].alloc_time: missing required field"),
    ("pus", "alloc_time", None, "pus[0].alloc_time: expected a number, got None"),
    ("pus", "colour", 1, "pus[0].colour: unknown field"),
    ("sus", "id", MISSING, "sus[0].id: missing required field"),
    ("sus", "id", ["su0"], "sus[0].id: expected a string, got list"),
    ("sus", "zone", MISSING, "sus[0].zone: missing required field"),
    ("sus", "zone", {"x": 0}, "sus[0].zone: expected an array, got dict"),
    ("sus", "zone", [0, 1, 2], "sus[0].zone: expected [x, y], got 3 entries"),
    ("sus", "zone", ["0", 1], "sus[0].zone[0]: expected a number, got '0'"),
    ("sus", "channels_requested", MISSING, "sus[0].channels_requested: missing required field"),
    ("sus", "channels_requested", 1.5,
     "sus[0].channels_requested: expected an integer, got 1.5"),
    ("sus", "arrival_time", MISSING, "sus[0].arrival_time: missing required field"),
    ("sus", "arrival_time", "0", "sus[0].arrival_time: expected a number, got '0'"),
    ("sus", "colour", 1, "sus[0].colour: unknown field"),
    ("cpu_coordinators", "id", MISSING, "cpu_coordinators[0].id: missing required field"),
    ("cpu_coordinators", "id", None, "cpu_coordinators[0].id: expected a string, got NoneType"),
    ("cpu_coordinators", "zone", MISSING, "cpu_coordinators[0].zone: missing required field"),
    ("cpu_coordinators", "zone", 3, "cpu_coordinators[0].zone: expected an array, got int"),
    ("cpu_coordinators", "zone", [True, 0],
     "cpu_coordinators[0].zone[0]: expected a number, got True"),
    ("cpu_coordinators", "colour", 1, "cpu_coordinators[0].colour: unknown field"),
    ("csu_coordinators", "id", MISSING, "csu_coordinators[0].id: missing required field"),
    ("csu_coordinators", "id", 1.0, "csu_coordinators[0].id: expected a string, got float"),
    ("csu_coordinators", "zone", MISSING, "csu_coordinators[0].zone: missing required field"),
    ("csu_coordinators", "zone", [], "csu_coordinators[0].zone: expected [x, y], got 0 entries"),
    ("csu_coordinators", "colour", 1, "csu_coordinators[0].colour: unknown field"),
]

# (section, whole record, expected error)
RECORD_CASES = [
    ("pus", [1, 2], "pus[0]: expected an object, got list"),
    ("sus", "su0", "sus[0]: expected an object, got str"),
    ("cpu_coordinators", None, "cpu_coordinators[0]: expected an object, got NoneType"),
    ("csu_coordinators", 5, "csu_coordinators[0]: expected an object, got int"),
    # missing fields are reported in name order, unknown ones first
    ("pus", {}, "pus[0].alloc_time: missing required field"),
    ("sus", {}, "sus[0].arrival_time: missing required field"),
    ("cpu_coordinators", {"zone": [0, 0]}, "cpu_coordinators[0].id: missing required field"),
    ("csu_coordinators", {"b": 1, "a": 2}, "csu_coordinators[0].b: unknown field"),
]

# (section, whole section, expected error)
SECTION_CASES = [
    ("pus", {}, "pus: expected an array, got dict"),
    ("sus", "sus", "sus: expected an array, got str"),
    ("cpu_coordinators", None, "cpu_coordinators: expected an array, got NoneType"),
    ("csu_coordinators", 0, "csu_coordinators: expected an array, got int"),
]


# (timing value, expected error): timing is read like a record whose every
# field is optional
TIMING_CASES = [
    ([], "timing: expected an object, got list"),
    ({"latency": "x"}, "timing.latency: expected a number, got 'x'"),
    ({"pu_reply": True}, "timing.pu_reply: expected a number, got True"),
    ({"foo": 1}, "timing.foo: unknown field"),
    ({"latency": "x", "foo": 1}, "timing.foo: unknown field"),
]


def _error(doc) -> str:
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario(json.dumps(doc))
    return str(info.value)


@pytest.mark.parametrize("section, key, value, expected", FIELD_CASES)
def test_field_defect(section, key, value, expected):
    doc = copy.deepcopy(BASE)
    if value is MISSING:
        del doc[section][0][key]
    else:
        doc[section][0][key] = value
    assert _error(doc) == expected


@pytest.mark.parametrize("section, record, expected", RECORD_CASES)
def test_record_defect(section, record, expected):
    doc = copy.deepcopy(BASE)
    doc[section][0] = record
    assert _error(doc) == expected


@pytest.mark.parametrize("section, value, expected", SECTION_CASES)
def test_section_defect(section, value, expected):
    doc = copy.deepcopy(BASE)
    doc[section] = value
    assert _error(doc) == expected


@pytest.mark.parametrize("value, expected", TIMING_CASES)
def test_timing_defect(value, expected):
    doc = copy.deepcopy(BASE)
    doc["timing"] = value
    assert _error(doc) == expected


def test_later_records_are_indexed():
    doc = copy.deepcopy(BASE)
    doc["sus"].append({"id": "su1", "zone": [0, 2], "channels_requested": "2",
                       "arrival_time": 0.0})
    assert _error(doc) == "sus[1].channels_requested: expected an integer, got '2'"


def test_several_defects_report_the_pus_one():
    doc = copy.deepcopy(BASE)
    doc["csu_coordinators"][0]["zone"] = "far"
    doc["cpu_coordinators"] = {}
    doc["memberships"] = {"cpu": []}
    doc["sus"][0]["channels_requested"] = None
    doc["pus"][0]["price"] = "cheap"
    assert _error(doc) == "pus[0].price: expected a number, got 'cheap'"
    del doc["pus"][0]["price"]
    doc["pus"][0]["extra"] = 1
    assert _error(doc) == "pus[0].extra: unknown field"
    del doc["pus"][0]["extra"]
    doc["pus"][0]["price"] = 1.0
    assert _error(doc) == "sus[0].channels_requested: expected an integer, got None"
    doc["sus"][0]["channels_requested"] = 1
    assert _error(doc) == "memberships.cpu: expected an object, got list"
    del doc["memberships"]
    assert _error(doc) == "cpu_coordinators: expected an array, got dict"
    doc["cpu_coordinators"] = []
    assert _error(doc) == "csu_coordinators[0].zone: expected an array, got str"
