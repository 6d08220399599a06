"""Selectivity calibration.

The paper's main experimental parameter is the **fraction of nodes in the
result**, varied "by adapting the join conditions" (§VI: "to vary the
fraction of tuples that join, we can also adapt the join conditions. This is
much easier to present, and this is what we do.").

This module does the same mechanically: the workload templates expose one
numeric knob (a range-condition threshold), and :func:`calibrate_threshold`
bisects that knob until the measured fraction of contributing nodes matches
the target.  Measuring never runs a protocol — it evaluates the join
directly over the snapshot (the vectorised evaluator makes this cheap), so
calibration is exact with respect to the data the protocols will see.
"""

from __future__ import annotations

from typing import Callable, Tuple

from ..data.relations import SensorWorld
from ..errors import QueryError
from ..joins.base import TupleFormat, acquire, evaluate_arrived
from ..query.query import JoinQuery

__all__ = ["measure_result_fraction", "calibrate_threshold"]


def measure_result_fraction(world: SensorWorld, query: JoinQuery) -> float:
    """Fraction of sensor nodes whose tuple appears in the join result.

    The tuples are acquired exactly like the protocols acquire them (via
    :func:`repro.joins.base.acquire`), so the measured fraction matches what
    an execution would produce.
    """
    sensor_ids = world.network.sensor_node_ids
    if not sensor_ids:
        raise QueryError("network has no sensor nodes")
    fmt = TupleFormat(query, world)
    result = evaluate_arrived(query, fmt, acquire(fmt, sensor_ids).values())
    return len(result.all_contributing_nodes()) / len(sensor_ids)


def calibrate_threshold(
    world: SensorWorld,
    query_for: Callable[[float], JoinQuery],
    target_fraction: float,
    lo: float,
    hi: float,
    increasing: bool = True,
    tolerance: float = 0.005,
    max_iterations: int = 40,
) -> Tuple[float, float]:
    """Bisect a threshold until the result fraction hits the target.

    Parameters
    ----------
    query_for:
        Builds the query for a candidate threshold value.
    target_fraction:
        Desired fraction of nodes in the result (e.g. 0.05).
    lo, hi:
        Search bracket for the threshold.
    increasing:
        True when a *larger* threshold yields a *larger* fraction (e.g.
        ``|A.temp - B.temp| < delta``); False for the opposite (e.g.
        ``A.temp - B.temp > delta``).
    tolerance:
        Accept when ``|measured - target| <= tolerance``.

    Returns ``(threshold, achieved_fraction)``; after the iteration budget
    the midpoint's fraction is returned even outside tolerance (the caller
    reports the achieved fraction, so experiments stay honest).
    """
    if not 0.0 <= target_fraction <= 1.0:
        raise ValueError(f"target fraction must be in [0, 1]: {target_fraction}")
    if lo >= hi:
        raise ValueError(f"invalid bracket: [{lo}, {hi}]")
    world.take_snapshot(0.0)
    best_threshold, best_fraction = lo, measure_result_fraction(world, query_for(lo))
    for _ in range(max_iterations):
        mid = (lo + hi) / 2.0
        fraction = measure_result_fraction(world, query_for(mid))
        if abs(fraction - target_fraction) < abs(best_fraction - target_fraction):
            best_threshold, best_fraction = mid, fraction
        if abs(fraction - target_fraction) <= tolerance:
            return mid, fraction
        overshoot = fraction > target_fraction
        if overshoot == increasing:
            hi = mid
        else:
            lo = mid
    return best_threshold, best_fraction
