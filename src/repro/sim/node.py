"""Sensor node model.

A node is a stationary device with a position, a set of sensors (its current
readings are filled in per snapshot by :mod:`repro.data`), and membership in
zero or more sensor relations (§III: "We say that a node belongs to a sensor
relation R if it contributes a tuple T to R").  Its radio traffic and energy
live in the network's :class:`~repro.sim.stats.TransmissionStats` store.  The
base station is modelled as a distinguished node with unlimited power; its
traffic is recorded so accounting code is uniform, but its consumption is
excluded from all network-lifetime metrics (the paper's base station is mains
powered).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet

__all__ = ["SensorNode", "BASE_STATION_ID"]

#: Conventional id of the base station in every deployment.
BASE_STATION_ID = 0


@dataclass(slots=True)
class SensorNode:
    """One stationary sensor node.

    Slotted: deployments are sized in the tens of thousands of nodes, and
    ``__slots__`` removes the per-instance ``__dict__`` (the memory-regression
    test in ``tests/test_sim_network.py`` pins the per-node byte budget).

    Attributes
    ----------
    node_id:
        Unique integer id; ``BASE_STATION_ID`` (0) is the base station.
    x, y:
        Position in metres.  Positions are static (§III: "stationary
        sensor nodes") and known to the node itself — queries may use them
        via the ``x``/``y`` attributes and the ``distance()`` function.
    readings:
        Current snapshot of sensor values, keyed by sensor name (e.g.
        ``"temp"``).  Replaced by
        :meth:`repro.data.relations.SensorWorld.take_snapshot` per query
        execution; a join algorithm reads the sensors exactly once per
        execution (§IV-D).
    relations:
        Names of the sensor relations this node belongs to.  Homogeneous
        networks put every node in the single relation ``"sensors"``;
        heterogeneous deployments partition or overlap nodes across several.
    alive:
        False once the node has failed (failure-injection experiments).
    """

    node_id: int
    x: float
    y: float
    readings: Dict[str, float] = field(default_factory=dict)
    relations: FrozenSet[str] = frozenset()
    alive: bool = True

    @property
    def is_base_station(self) -> bool:
        """True for the distinguished root node."""
        return self.node_id == BASE_STATION_ID

    @property
    def position(self) -> tuple[float, float]:
        """(x, y) in metres."""
        return (self.x, self.y)

    def distance_to(self, other: "SensorNode") -> float:
        """Euclidean distance to another node in metres."""
        return ((self.x - other.x) ** 2 + (self.y - other.y) ** 2) ** 0.5

    def belongs_to(self, relation: str) -> bool:
        """Whether this node contributes a tuple to ``relation``."""
        return relation in self.relations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "base-station" if self.is_base_station else "node"
        return f"<{role} {self.node_id} at ({self.x:.1f}, {self.y:.1f})>"
