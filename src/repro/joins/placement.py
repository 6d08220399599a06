"""Join-location analysis (§IV-E "Design Considerations" and ref. [20]).

The paper fixes both the pre-computation join and the final join at the base
station and justifies it with a cost analysis ("Where in the sensor network
should the join be computed, after all?"): after filtering, the join's
selectivity is low — the result is larger than the (filtered) input — so
shipping the inputs to the powered base station beats computing at an
in-network mediator and shipping the (bigger) result onward.  In-network
placement only wins in the specific scenarios the related work assumes
(small, close input regions, tiny results).

This module makes that argument computable.  The cost model is the classic
byte-hops measure over shortest paths:

    cost(m) = sum over contributing nodes n of  hops(n, m) * tuple_bytes
            + result_rows * result_row_bytes * hops(m, base station)

with ``hops(n, base station)`` taken over the connectivity graph.  The base
station is the special case ``m = base station`` (the second term vanishes —
the result is already where the user is).

:func:`analyze_join_location` evaluates the model for the base station and a
set of in-network candidates and reports the best placement;
:func:`placement_study` (in :mod:`repro.bench.experiments`) reproduces the
paper's conclusion across filtered/unfiltered workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence

from ..errors import NetworkError
from ..routing.ctp import hop_distances
from ..sim.network import Network
from ..sim.node import BASE_STATION_ID

__all__ = ["PlacementCost", "PlacementReport", "analyze_join_location", "hop_distances"]


@dataclass(frozen=True)
class PlacementCost:
    """Cost decomposition of one candidate join location."""

    location: int
    input_byte_hops: float
    result_byte_hops: float

    @property
    def total(self) -> float:
        """Input collection plus result shipping."""
        return self.input_byte_hops + self.result_byte_hops


@dataclass(frozen=True)
class PlacementReport:
    """Outcome of a placement analysis."""

    base_station: PlacementCost
    best_in_network: PlacementCost
    candidates_evaluated: int

    @property
    def base_station_is_optimal(self) -> bool:
        """True when no evaluated in-network location beats the base station."""
        return self.base_station.total <= self.best_in_network.total

    @property
    def advantage(self) -> float:
        """base-station cost / best in-network cost (<= 1 means BS wins)."""
        best = self.best_in_network.total or 1.0
        return self.base_station.total / best


def _cost_at(
    network: Network,
    location: int,
    contributors: Sequence[int],
    tuple_bytes: int,
    result_rows: int,
    result_row_bytes: int,
    to_base: Mapping[int, int],
) -> PlacementCost:
    hops = hop_distances(network, location)
    input_cost = 0.0
    for node_id in contributors:
        try:
            input_cost += hops[node_id] * tuple_bytes
        except KeyError:
            raise NetworkError(
                f"contributor {node_id} cannot reach candidate {location}"
            ) from None
    result_cost = float(result_rows * result_row_bytes * to_base.get(location, 0))
    return PlacementCost(location, input_cost, result_cost)


def analyze_join_location(
    network: Network,
    contributors: Sequence[int],
    tuple_bytes: int,
    result_rows: int,
    result_row_bytes: int,
    candidates: Optional[Iterable[int]] = None,
    max_candidates: int = 64,
) -> PlacementReport:
    """Compare the base station against in-network join locations.

    ``contributors`` are the nodes whose tuples must reach the join location
    (post-filtering: the nodes the filter kept; pre-filtering: everyone).
    ``candidates`` defaults to a deterministic sample of the contributors
    plus the node nearest their centroid — the locations a mediated join
    would plausibly pick.
    """
    contributors = list(contributors)
    to_base = hop_distances(network, BASE_STATION_ID)

    if candidates is None:
        chosen: List[int] = []
        if contributors:
            xs = [network.nodes[n].x for n in contributors]
            ys = [network.nodes[n].y for n in contributors]
            cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
            centroid_node = min(
                contributors,
                key=lambda n: (network.nodes[n].x - cx) ** 2
                + (network.nodes[n].y - cy) ** 2,
            )
            chosen.append(centroid_node)
            stride = max(1, len(contributors) // max_candidates)
            chosen.extend(sorted(contributors)[::stride])
        candidates = chosen or network.sensor_node_ids[:max_candidates]

    base_cost = _cost_at(
        network, BASE_STATION_ID, contributors, tuple_bytes,
        result_rows, result_row_bytes, to_base,
    )
    best: Optional[PlacementCost] = None
    count = 0
    for candidate in dict.fromkeys(candidates):  # dedupe, keep order
        if candidate == BASE_STATION_ID:
            continue
        cost = _cost_at(
            network, candidate, contributors, tuple_bytes,
            result_rows, result_row_bytes, to_base,
        )
        count += 1
        if best is None or cost.total < best.total:
            best = cost
    if best is None:
        best = base_cost
    return PlacementReport(base_cost, best, count)
