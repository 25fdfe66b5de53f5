"""JSON scenario files: strict parsing with defaults, canonical serialization.

The document schema (all other keys are rejected with a path-qualified
error)::

    {
      "seed": 1,                       // optional, default 0
      "topology": "cpu_csu",           // required
      "aggregation": true,             // optional, default true
      "weights": [0.2, 0.5, 0.3],      // optional, default shown
      "timing": {"latency": 10, "agg_per_demand": 5, "cpu_select": 2,
                 "rank_per_offer": 1, "pu_reply": 2},   // optional per key
      "pus":  [{"id": "pu0", "zone": [x, y], "channels": 4,
                "price": 10.0, "alloc_time": 60.0}],     // required
      "sus":  [{"id": "su0", "zone": [x, y], "channels_requested": 2,
                "arrival_time": 0.0}],                   // required
      "cpu_coordinators": [{"id": "cpu0", "zone": [x, y]}],  // default []
      "csu_coordinators": [{"id": "csu0", "zone": [x, y]}],  // default []
      "memberships": {"cpu": {"cpu0": ["pu0"]},
                      "csu": {"csu0": ["su0"]}}          // optional
    }

An agent record has exactly the fields of :class:`model.PrimaryUser`,
:class:`model.SecondaryUser` or :class:`model.Coordinator`, each checked by
its annotation. Criterion senses are fixed (maximize channels and allocation
time, minimize price) and therefore not part of the document.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Collection
from dataclasses import asdict, fields
from functools import cache
from typing import get_type_hints

from .model import (
    DEFAULT_WEIGHTS,
    Coordinator,
    MembershipOverride,
    PrimaryUser,
    Scenario,
    SecondaryUser,
    TimingConstants,
    Zone,
)

__all__ = ["ScenarioParseError", "parse_scenario", "scenario_to_json"]


class ScenarioParseError(ValueError):
    """A scenario document failed schema checks; the message carries the path."""


_TOP_KEYS = {f.name for f in fields(Scenario)}
_TIMING_KEYS = tuple(f.name for f in fields(TimingConstants))  # declaration order


def _fail(path: str, message: str) -> None:
    raise ScenarioParseError(f"{path}: {message}")


def _check_keys(obj: dict, allowed: Collection[str], required: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown field")
    for key in sorted(required):
        if key not in obj:
            _fail(f"{path}.{key}" if path else key, "missing required field")


def _of_type(cls: type, noun: str) -> Callable:
    """A check that a value is a ``cls``, naming the type it got otherwise."""
    def check(value, path: str):
        if not isinstance(value, cls):
            _fail(path, f"expected {noun}, got {type(value).__name__}")
        return value
    return check


_as_dict = _of_type(dict, "an object")
_as_list = _of_type(list, "an array")
_as_str = _of_type(str, "a string")
_as_bool = _of_type(bool, "a boolean")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _as_zone(value, path: str) -> Zone:
    arr = _as_list(value, path)
    if len(arr) != 2:
        _fail(path, f"expected [x, y], got {len(arr)} entries")
    return Zone(_as_number(arr[0], f"{path}[0]"), _as_number(arr[1], f"{path}[1]"))


_CONVERTERS = {str: _as_str, int: _as_int, float: _as_number, Zone: _as_zone}


@cache
def _record_fields(cls) -> tuple[tuple[str, Callable], ...]:
    """Each field of an agent record with the converter for its annotation."""
    hints = get_type_hints(cls)
    return tuple((f.name, _CONVERTERS[hints[f.name]]) for f in fields(cls))


def _parse_records(doc: dict, key: str, cls) -> tuple:
    """The ``cls`` records of array ``doc[key]`` (default empty), all fields required."""
    converters = _record_fields(cls)
    names = {name for name, _ in converters}
    out = []
    for i, item in enumerate(_as_list(doc.get(key, []), key)):
        path = f"{key}[{i}]"
        obj = _as_dict(item, path)
        _check_keys(obj, names, names, path)
        out.append(cls(**{name: conv(obj[name], f"{path}.{name}") for name, conv in converters}))
    return tuple(out)


def _record_docs(records) -> list[dict]:
    """Agent records as document objects: fields in declaration order, a zone as [x, y]."""
    return [
        {name: [v.x, v.y] if isinstance(v := getattr(r, name), Zone) else v
         for name, _ in _record_fields(type(r))}
        for r in records
    ]


def _parse_membership_side(value, path: str) -> dict[str, tuple[str, ...]]:
    side = _as_dict(value, path)
    out = {}
    for cid, members in side.items():
        arr = _as_list(members, f"{path}.{cid}")
        out[cid] = tuple(_as_str(m, f"{path}.{cid}[{i}]") for i, m in enumerate(arr))
    return out


def parse_scenario(data: bytes | str) -> Scenario:
    """Parse a scenario document; raises :class:`ScenarioParseError` on any defect."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"malformed JSON: {exc}") from exc
    doc = _as_dict(doc, "document")
    _check_keys(doc, _TOP_KEYS, {"topology", "pus", "sus"}, "")

    topology = _as_str(doc["topology"], "topology")
    seed = _as_int(doc.get("seed", 0), "seed")
    aggregation = _as_bool(doc.get("aggregation", True), "aggregation")

    weights_doc = _as_list(doc.get("weights", list(DEFAULT_WEIGHTS)), "weights")
    if len(weights_doc) != 3:
        _fail("weights", f"expected 3 values, got {len(weights_doc)}")
    weights = tuple(_as_number(w, f"weights[{j}]") for j, w in enumerate(weights_doc))

    timing_doc = _as_dict(doc.get("timing", {}), "timing")
    _check_keys(timing_doc, _TIMING_KEYS, set(), "timing")
    timing = TimingConstants(**{
        key: _as_number(timing_doc[key], f"timing.{key}")
        for key in _TIMING_KEYS
        if key in timing_doc
    })

    pus = _parse_records(doc, "pus", PrimaryUser)
    sus = _parse_records(doc, "sus", SecondaryUser)

    memberships = None
    if doc.get("memberships") is not None:
        obj = _as_dict(doc["memberships"], "memberships")
        _check_keys(obj, {"cpu", "csu"}, set(), "memberships")
        memberships = MembershipOverride(**{
            side: _parse_membership_side(obj[side], f"memberships.{side}")
            for side in ("cpu", "csu") if side in obj
        })

    return Scenario(
        topology=topology,
        pus=pus,
        sus=sus,
        cpu_coordinators=_parse_records(doc, "cpu_coordinators", Coordinator),
        csu_coordinators=_parse_records(doc, "csu_coordinators", Coordinator),
        aggregation=aggregation,
        seed=seed,
        weights=weights,
        timing=timing,
        memberships=memberships,
    )


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize to the canonical document form (all keys present, 2-space indent)."""
    override = scenario.memberships
    memberships = None if override is None else {
        side: {k: list(v) for k, v in m.items()}
        for side in ("cpu", "csu") if (m := getattr(override, side)) is not None
    }
    doc = {
        "seed": scenario.seed,
        "topology": scenario.topology,
        "aggregation": scenario.aggregation,
        "weights": list(scenario.weights),
        "timing": asdict(scenario.timing),
        "pus": _record_docs(scenario.pus),
        "sus": _record_docs(scenario.sus),
        "cpu_coordinators": _record_docs(scenario.cpu_coordinators),
        "csu_coordinators": _record_docs(scenario.csu_coordinators),
        "memberships": memberships,
    }
    return json.dumps(doc, indent=2) + "\n"
