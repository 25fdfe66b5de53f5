"""Coalition formation, the PU-coalition's registry, and the one ranking of offers.

Coalitions are formed once per run: each agent joins the coordinator at
minimal Euclidean distance (ties to the lexicographically smaller
coordinator id), unless an explicit override map is supplied. A
PU-coalition coordinator's whole state is its :class:`ParamRegistry` of
member offers, and it answers a call for proposals with :func:`best_offer`,
the head of :func:`rank_offers`. That TOPSIS ranking over (channels, price,
alloc_time) is the one ranking of offers, for coordinators and SUs alike.
It keeps its last result: registries are written once, at t=0, so in the
coalition wirings nearly every ranking repeats the previous call's offer
scores and weights, and one entry keeps memory flat where inputs differ.

The nearest coordinator is found by a pruned sweep rather than by scoring
every pair: coordinators are sorted by x once per call, and each agent walks
outward from its own x, always to the side with the smaller ``|dx|``,
scoring each visited coordinator by ``(math.hypot(dx, dy), id)``, the one
definition of distance. The walk stops once the next ``|dx|`` exceeds the
best distance so far. This is exact, ties included: float subtraction is
monotone in the coordinator's x, and ``math.hypot(dx, dy) >= |dx|``, so no
skipped coordinator can win or tie.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import attrgetter
from typing import Mapping, Sequence

from .model import CRITERIA_SENSES, CRITERION_LABELS, Offer, Zone, check_override
from .topsis import DecisionMatrix, topsis

__all__ = [
    "Membership",
    "ParamRegistry",
    "form_coalitions",
    "register_params",
    "best_offer",
    "rank_offers",
]

# coordinator id -> member ids, sorted ascending
Membership = dict[str, list[str]]


def form_coalitions(
    agents: Sequence[tuple[str, Zone]],
    coordinators: Sequence[tuple[str, Zone]],
    override: Mapping[str, Sequence[str]] | None = None,
) -> Membership:
    """Assign every agent to exactly one coordinator.

    Without an override, the nearest coordinator wins (Euclidean distance,
    ties by ascending coordinator id), and every zone must be finite. An
    override map wins verbatim but must pass :func:`model.check_override`:
    known ids only, and every agent under exactly one coordinator.
    """
    if override is not None:
        problems: list[str] = []
        agent_ids = {aid for aid, _ in agents}
        check_override("override", override, {cid for cid, _ in coordinators}, agent_ids, problems)
        if problems:
            raise ValueError("; ".join(problems))
        return {cid: sorted(override.get(cid, ())) for cid, _ in coordinators}

    if not coordinators:
        raise ValueError("cannot form coalitions without coordinators")
    # the sweep needs finite zones: a NaN x has no place in the sorted order
    for cid, zone in coordinators:
        _check_finite("coordinator", cid, zone)
    ordered = sorted((zone.x, zone.y, cid) for cid, zone in coordinators)
    xs = [cx for cx, _, _ in ordered]
    n = len(ordered)
    membership = {cid: [] for cid, _ in coordinators}
    for aid, zone in agents:
        _check_finite("agent", aid, zone)
        x, y = zone.x, zone.y
        hi = bisect_left(xs, x)
        lo = hi - 1
        best = None
        while lo >= 0 or hi < n:
            if lo < 0 or (hi < n and xs[hi] - x <= x - xs[lo]):
                i, dx = hi, xs[hi] - x
                hi += 1
            else:
                i, dx = lo, x - xs[lo]
                lo -= 1
            if best is not None and dx > best[0]:
                break
            cx, cy, cid = ordered[i]
            candidate = (math.hypot(x - cx, y - cy), cid)
            if best is None or candidate < best:
                best = candidate
        membership[best[1]].append(aid)
    return {cid: sorted(members) for cid, members in membership.items()}


def _check_finite(role: str, agent_id: str, zone: Zone) -> None:
    if not (math.isfinite(zone.x) and math.isfinite(zone.y)):
        raise ValueError(f"{role} {agent_id!r} has a non-finite zone ({zone.x}, {zone.y})")


@dataclass(frozen=True)
class ParamRegistry:
    """A PU-coalition coordinator's whole state: its live table of member offers.

    Only declared members may register; entries hold each member's latest
    offer (no history). An instance is one registry version:
    ``register_params`` returns a new one, and ``entries`` must not be mutated
    in place.
    """

    coordinator_id: str
    members: tuple[str, ...]
    entries: dict[str, Offer] = field(default_factory=dict)
    # best_offer's winner per weights tuple; every new instance starts empty
    _best: dict[tuple[float, ...], Offer | None] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(self.members)))


def register_params(registry: ParamRegistry, offer: Offer) -> ParamRegistry:
    """Replace (or create) a member's offer; returns the updated registry."""
    me = registry.coordinator_id
    if offer.pu_id not in registry.members:
        raise ValueError(f"{offer.pu_id!r} is not a member of coalition {me!r}")
    if offer.cpu_id != me:
        raise ValueError(f"offer of {offer.pu_id!r} names coordinator {offer.cpu_id!r}, not {me!r}")
    return replace(registry, entries={**registry.entries, offer.pu_id: offer})


def rank_offers(offers: Sequence[Offer], weights: Sequence[float]) -> list[Offer]:
    """Order the caller's own offers best-first by TOPSIS over (channels, price, alloc_time)."""
    if not offers:
        return []
    ranking = _ranking(tuple(map(attrgetter(*CRITERION_LABELS), offers)), tuple(weights))
    return [offers[i] for i in ranking]


# A ranking depends only on the score rows and the weights, not on names, so
# those are the whole key and the matrix gets blank names (a new name string
# per row raised a long run's peak RSS); a call that raises caches nothing.
@lru_cache(maxsize=1)
def _ranking(scores: tuple[tuple[float, ...], ...], weights: tuple[float, ...]) -> tuple[int, ...]:
    matrix = DecisionMatrix(
        alternatives=("",) * len(scores),
        criteria=CRITERION_LABELS,
        scores=scores,
        weights=weights,
        senses=CRITERIA_SENSES,
    )
    return tuple(topsis(matrix).ranking)


def best_offer(registry: ParamRegistry, weights: Sequence[float]) -> Offer | None:
    """The head of :func:`rank_offers` over the registered member offers, in member order.

    Members advertising zero channels are excluded before ranking (an
    unusable offer must not win on price or allocation time). Returns None
    when no member has channels available. The result is memoized per
    registry instance and weights: TOPSIS runs at most on the first call.
    """
    key = tuple(weights)
    if key not in registry._best:
        candidates = [
            offer
            for pu_id in registry.members
            if (offer := registry.entries.get(pu_id)) is not None and offer.channels > 0
        ]
        registry._best[key] = rank_offers(candidates, key)[0] if candidates else None
    return registry._best[key]
