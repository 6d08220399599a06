"""Workload construction for the §VI experiments.

The paper's experiment queries follow one template::

    SELECT A.att_1,..., A.att_n, B.att_1,..., B.att_n
    FROM Sensors A, Sensors B
    WHERE join-expr(A.join-atts, B.join-atts) AND ... ONCE

with two default settings "settled towards different ends of the spectrum":

* **33 %** — one join attribute out of three attributes overall: the join
  condition is a Q1-style range condition over the temperature,
  ``A.temp - B.temp > delta``;
* **60 %** — three join attributes out of five: a Q2-style similarity +
  distance condition, ``|A.temp - B.temp| < delta AND
  distance(A.x, A.y, B.x, B.y) > 100``.

``delta`` is the selectivity knob that
:func:`repro.bench.calibrate.calibrate_threshold` tunes to hit a target
fraction of nodes in the result.

Scale: the paper's default is 1500 nodes on 1050 m x 1050 m.  Benches run a
scaled-down default (600 nodes, same density) so the suite stays fast; set
``REPRO_SCALE=paper`` (or ``--scale paper`` on the bench CLI) to run every
experiment at full size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .. import constants
from ..data.relations import SensorWorld
from ..joins.runner import run_snapshot
from ..query.parser import parse_query
from ..query.query import JoinQuery
from ..routing.cluster import build_routing_tree
from ..routing.tree import RoutingTree
from ..sim.network import DeploymentConfig, Network, deploy_uniform
from ..sim.radio import PacketFormat
from .calibrate import calibrate_threshold

__all__ = [
    "SCALE_NODE_COUNTS",
    "Scenario",
    "build_scenario",
    "default_node_count",
    "ratio_query_builder",
    "calibrated_query",
    "JOIN_ATTR_SETS",
    "EXTRA_ATTR_POOL",
]

#: Join-attribute sets by count: 1 = Q1-style, 3 = Q2-style.
JOIN_ATTR_SETS = {1: ["temp"], 2: ["temp", "hum"], 3: ["temp", "x", "y"]}

#: Non-join attributes added to reach a target "attributes overall" count.
EXTRA_ATTR_POOL = ["hum", "pres", "light", "x", "y"]

#: Q2's minimum-distance constant (metres).
MIN_DISTANCE_M = 100.0


#: Sensor nodes at each named scale: ``bench`` keeps the paper's density on
#: a smaller area, ``paper`` is the §VI default setting.
SCALE_NODE_COUNTS = {"bench": 600, "paper": constants.PAPER_NODE_COUNT}


def default_node_count() -> int:
    """600 by default; the paper's 1500 under ``REPRO_SCALE=paper``."""
    paper = os.environ.get("REPRO_SCALE", "").lower() == "paper"
    return SCALE_NODE_COUNTS["paper" if paper else "bench"]


@dataclass
class Scenario:
    """A deployed, data-bound, routed network ready for query execution."""

    network: Network
    world: SensorWorld
    tree: RoutingTree
    config: DeploymentConfig
    seed: int

    @property
    def node_count(self) -> int:
        """Number of sensor nodes (excluding the base station)."""
        return len(self.network.sensor_node_ids)

    def run(self, query: JoinQuery, algorithm, **kwargs):
        """Execute one snapshot query on this scenario."""
        return run_snapshot(
            self.network, self.world, query, algorithm, tree=self.tree,
            tree_seed=self.seed, **kwargs,
        )


@lru_cache(maxsize=16)
def _cached_scenario(
    node_count: int, seed: int, packet_bytes: int, loss_rate: float, routing: str
) -> Scenario:
    config = DeploymentConfig(seed=seed, loss_rate=loss_rate).scaled(node_count)
    network = deploy_uniform(config, packet_format=PacketFormat(packet_bytes))
    world = SensorWorld.homogeneous(network, seed=seed, area_side_m=config.area_side_m)
    tree = build_routing_tree(network, routing=routing, seed=seed)
    return Scenario(network, world, tree, config, seed)


def build_scenario(
    node_count: Optional[int] = None,
    seed: int = 0,
    packet_bytes: int = constants.DEFAULT_MAX_PACKET_BYTES,
    loss_rate: float = 0.0,
    routing: str = "flat",
) -> Scenario:
    """A deployment at the paper's density (cached per parameter set).

    ``routing`` selects the tree-construction mode (``"flat"`` CTP vs
    ``"cluster"`` grid-head routing) of the scenario's tree.
    """
    if node_count is None:
        node_count = default_node_count()
    return _cached_scenario(node_count, seed, packet_bytes, loss_rate, routing)


def ratio_query_builder(
    join_attr_count: int, total_attr_count: int
) -> Callable[[float], JoinQuery]:
    """A query template with the requested join/overall attribute counts.

    Returns ``query_for(threshold)``.  The threshold semantics depend on the
    join-attribute count: one join attribute uses the Q1-style condition
    (fraction *decreases* with the threshold), two or three join attributes
    use Q2-style similarity conditions (fraction *increases*).
    """
    try:
        join_attrs = JOIN_ATTR_SETS[join_attr_count]
    except KeyError:
        raise ValueError(
            f"supported join-attribute counts: {sorted(JOIN_ATTR_SETS)}; "
            f"got {join_attr_count}"
        ) from None
    if total_attr_count < join_attr_count:
        raise ValueError(
            f"total attributes ({total_attr_count}) cannot be fewer than "
            f"join attributes ({join_attr_count})"
        )
    extras = [name for name in EXTRA_ATTR_POOL if name not in join_attrs]
    needed = total_attr_count - join_attr_count
    if needed > len(extras):
        raise ValueError(f"not enough distinct attributes for total={total_attr_count}")
    selected = extras[:needed] if needed else join_attrs[:1]
    select_clause = ", ".join(
        f"{alias}.{name}" for name in selected for alias in ("A", "B")
    )

    def query_for(threshold: float) -> JoinQuery:
        # All templates are Q1-style *tail* range conditions: the threshold
        # moves through the temperature-difference distribution's tail, so
        # the calibrated values stay far above the 0.1 degC quantization
        # resolution (a similarity condition tight enough for a 5% result
        # fraction would sit *below* the resolution and the conservative
        # pre-computation join would degenerate to "keep everything" —
        # exactly the too-coarse-resolution caveat of §V-B).
        if join_attr_count == 1:
            condition = f"A.temp - B.temp > {threshold:.9f}"
        elif join_attr_count == 2:
            condition = (
                f"A.temp - B.temp > {threshold:.9f} AND |A.hum - B.hum| < 150.0"
            )
        else:
            condition = (
                f"A.temp - B.temp > {threshold:.9f} "
                f"AND distance(A.x, A.y, B.x, B.y) > {MIN_DISTANCE_M:.1f}"
            )
        sql = (
            f"SELECT {select_clause} FROM sensors A, sensors B "
            f"WHERE {condition} ONCE"
        )
        return parse_query(sql)

    return query_for


@lru_cache(maxsize=64)
def _cached_calibration(
    node_count: int,
    seed: int,
    packet_bytes: int,
    join_attr_count: int,
    total_attr_count: int,
    fraction_milli: int,
) -> float:
    """One calibrated threshold, memoised per process."""
    scenario = build_scenario(node_count, seed, packet_bytes)
    builder = ratio_query_builder(join_attr_count, total_attr_count)
    # Every template is ``A.temp - B.temp > delta``: a larger delta means a
    # smaller result fraction.
    threshold, _achieved = calibrate_threshold(
        scenario.world,
        builder,
        fraction_milli / 1000.0,
        0.0,
        40.0,
        increasing=False,
    )
    return threshold


def calibrated_query(
    scenario: Scenario,
    join_attr_count: int,
    total_attr_count: int,
    target_fraction: float = constants.PAPER_RESULT_FRACTION,
) -> JoinQuery:
    """The template query tuned so ~``target_fraction`` of nodes join."""
    threshold = _cached_calibration(
        scenario.node_count,
        scenario.seed,
        scenario.network.packet_format.max_packet_bytes,
        join_attr_count,
        total_attr_count,
        int(round(target_fraction * 1000)),
    )
    return ratio_query_builder(join_attr_count, total_attr_count)(threshold)
