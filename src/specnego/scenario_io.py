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

Criterion senses are fixed (maximize channels and allocation time, minimize
price) and therefore not part of the document.
"""

from __future__ import annotations

import json
from collections.abc import Collection
from dataclasses import asdict, fields

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


_TOP_KEYS = {
    "seed", "topology", "aggregation", "weights", "timing",
    "pus", "sus", "cpu_coordinators", "csu_coordinators", "memberships",
}
_TIMING_KEYS = tuple(f.name for f in fields(TimingConstants))  # declaration order
_PU_KEYS = {"id", "zone", "channels", "price", "alloc_time"}
_SU_KEYS = {"id", "zone", "channels_requested", "arrival_time"}
_COORD_KEYS = {"id", "zone"}


def _fail(path: str, message: str) -> None:
    raise ScenarioParseError(f"{path}: {message}")


def _check_keys(obj: dict, allowed: Collection[str], required: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown field")
    for key in sorted(required):
        if key not in obj:
            _fail(f"{path}.{key}" if path else key, "missing required field")


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {type(value).__name__}")
    return value


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

    pus = []
    for i, item in enumerate(_as_list(doc["pus"], "pus")):
        obj = _as_dict(item, f"pus[{i}]")
        _check_keys(obj, _PU_KEYS, _PU_KEYS, f"pus[{i}]")
        pus.append(
            PrimaryUser(
                id=_as_str(obj["id"], f"pus[{i}].id"),
                zone=_as_zone(obj["zone"], f"pus[{i}].zone"),
                channels=_as_int(obj["channels"], f"pus[{i}].channels"),
                price=_as_number(obj["price"], f"pus[{i}].price"),
                alloc_time=_as_number(obj["alloc_time"], f"pus[{i}].alloc_time"),
            )
        )

    sus = []
    for i, item in enumerate(_as_list(doc["sus"], "sus")):
        obj = _as_dict(item, f"sus[{i}]")
        _check_keys(obj, _SU_KEYS, _SU_KEYS, f"sus[{i}]")
        sus.append(
            SecondaryUser(
                id=_as_str(obj["id"], f"sus[{i}].id"),
                zone=_as_zone(obj["zone"], f"sus[{i}].zone"),
                channels_requested=_as_int(
                    obj["channels_requested"], f"sus[{i}].channels_requested"
                ),
                arrival_time=_as_number(obj["arrival_time"], f"sus[{i}].arrival_time"),
            )
        )

    def coordinators(key: str) -> tuple[Coordinator, ...]:
        out = []
        for i, item in enumerate(_as_list(doc.get(key, []), key)):
            obj = _as_dict(item, f"{key}[{i}]")
            _check_keys(obj, _COORD_KEYS, _COORD_KEYS, f"{key}[{i}]")
            out.append(
                Coordinator(
                    _as_str(obj["id"], f"{key}[{i}].id"),
                    _as_zone(obj["zone"], f"{key}[{i}].zone"),
                )
            )
        return tuple(out)

    memberships = None
    if doc.get("memberships") is not None:
        obj = _as_dict(doc["memberships"], "memberships")
        _check_keys(obj, {"cpu", "csu"}, set(), "memberships")
        memberships = MembershipOverride(
            cpu=_parse_membership_side(obj["cpu"], "memberships.cpu") if "cpu" in obj else None,
            csu=_parse_membership_side(obj["csu"], "memberships.csu") if "csu" in obj else None,
        )

    return Scenario(
        topology=topology,
        pus=tuple(pus),
        sus=tuple(sus),
        cpu_coordinators=coordinators("cpu_coordinators"),
        csu_coordinators=coordinators("csu_coordinators"),
        aggregation=aggregation,
        seed=seed,
        weights=weights,
        timing=timing,
        memberships=memberships,
    )


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize to the canonical document form (all keys present, 2-space indent)."""
    memberships = None
    if scenario.memberships is not None:
        memberships = {}
        if scenario.memberships.cpu is not None:
            memberships["cpu"] = {k: list(v) for k, v in scenario.memberships.cpu.items()}
        if scenario.memberships.csu is not None:
            memberships["csu"] = {k: list(v) for k, v in scenario.memberships.csu.items()}
    doc = {
        "seed": scenario.seed,
        "topology": scenario.topology,
        "aggregation": scenario.aggregation,
        "weights": list(scenario.weights),
        "timing": asdict(scenario.timing),
        "pus": [
            {
                "id": pu.id,
                "zone": [pu.zone.x, pu.zone.y],
                "channels": pu.channels,
                "price": pu.price,
                "alloc_time": pu.alloc_time,
            }
            for pu in scenario.pus
        ],
        "sus": [
            {
                "id": su.id,
                "zone": [su.zone.x, su.zone.y],
                "channels_requested": su.channels_requested,
                "arrival_time": su.arrival_time,
            }
            for su in scenario.sus
        ],
        "cpu_coordinators": [
            {"id": c.id, "zone": [c.zone.x, c.zone.y]} for c in scenario.cpu_coordinators
        ],
        "csu_coordinators": [
            {"id": c.id, "zone": [c.zone.x, c.zone.y]} for c in scenario.csu_coordinators
        ],
        "memberships": memberships,
    }
    return json.dumps(doc, indent=2) + "\n"
