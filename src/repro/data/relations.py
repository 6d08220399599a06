"""Sensor relations and the world model binding networks to data.

§III: "the network is seen as a (sensor) relation.  For homogeneous networks
there is one relation ... If the network is heterogeneous, groups of nodes
form different relations."

:class:`SensorWorld` owns the physical fields and the relation membership of
each node and produces *snapshots*: it writes the current readings into every
node (``node.readings``).  A join algorithm reads the sensors exactly once
per execution (§IV-D), which here means: the runner takes one snapshot, then
the protocol runs against those frozen values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional

import numpy as np

from ..sim.network import Network
from ..sim.node import BASE_STATION_ID, SensorNode
from .fields import Field, GaussianProcessField
from .sensors import SensorCatalog, standard_catalog

__all__ = ["SensorWorld", "default_fields", "RELATION_SENSORS"]

#: Name of the single relation in a homogeneous network.
RELATION_SENSORS = "sensors"


def default_fields(
    area_side_m: float,
    seed: int = 0,
    length_scale: float = 150.0,
    drift_rate: float = 0.0,
) -> Dict[str, Field]:
    """Spatially correlated fields for the standard sensor suite.

    The means/stds roughly match the catalogue ranges; the shared
    ``length_scale`` gives Fig. 4 style regional structure.  Humidity is
    anti-correlated with temperature (built from the negated temperature
    features plus its own variation), as in real deployments.
    """
    temp = GaussianProcessField(22.0, 4.0, length_scale, seed=seed, drift_rate=drift_rate)
    hum_own = GaussianProcessField(55.0, 8.0, length_scale, seed=seed + 1, drift_rate=drift_rate)
    pres = GaussianProcessField(1010.0, 6.0, length_scale * 2, seed=seed + 2, drift_rate=drift_rate)
    light = GaussianProcessField(500.0, 180.0, length_scale / 2, seed=seed + 3, drift_rate=drift_rate)

    class _AntiCorrelated:
        """Humidity = own variation minus a temperature-coupled term."""

        def sample(self, xs: np.ndarray, ys: np.ndarray, t: float = 0.0) -> np.ndarray:
            return hum_own.sample(xs, ys, t) - 1.2 * (temp.sample(xs, ys, t) - temp.mean)

        def value(self, x: float, y: float, t: float = 0.0) -> float:
            return float(self.sample(np.array([x]), np.array([y]), t)[0])

    return {"temp": temp, "hum": _AntiCorrelated(), "pres": pres, "light": light}


class SensorWorld:
    """Physical environment + relation membership for one deployment.

    Parameters
    ----------
    network:
        The deployed network; snapshots write into its nodes.
    fields:
        Mapping from sensor name to :class:`~repro.data.fields.Field`.
        The position pseudo-sensors ``x``/``y`` need no field — they come
        from the node positions.
    catalog:
        Sensor catalogue (quantizer parameters).  Defaults to the standard
        suite fitted to the deployment area inferred from node positions.
    relations:
        Mapping from relation name to the set of member node ids.  Defaults
        to the homogeneous case: every sensor node belongs to
        ``RELATION_SENSORS``.
    """

    def __init__(
        self,
        network: Network,
        fields: Mapping[str, Field],
        catalog: Optional[SensorCatalog] = None,
        relations: Optional[Mapping[str, Iterable[int]]] = None,
    ):
        self.network = network
        self.fields = dict(fields)
        if catalog is None:
            side = max(
                max((node.x for node in network.nodes.values()), default=0.0),
                max((node.y for node in network.nodes.values()), default=0.0),
            )
            catalog = standard_catalog(area_side_m=max(side, 1.0))
        self.catalog = catalog
        if relations is None:
            relations = {RELATION_SENSORS: network.sensor_node_ids}
        self.relations: Dict[str, frozenset[int]] = {
            name: frozenset(ids) for name, ids in relations.items()
        }
        self._apply_memberships()
        self.snapshot_time: Optional[float] = None

    def _apply_memberships(self) -> None:
        membership: Dict[int, set[str]] = {node_id: set() for node_id in self.network.nodes}
        for relation, ids in self.relations.items():
            for node_id in ids:
                if node_id == BASE_STATION_ID:
                    raise ValueError("the base station cannot belong to a sensor relation")
                if node_id not in self.network.nodes:
                    raise ValueError(f"relation {relation!r} lists unknown node {node_id}")
                membership[node_id].add(relation)
        for node_id, names in membership.items():
            self.network.nodes[node_id].relations = frozenset(names)

    # -- relation queries -------------------------------------------------------

    def members(self, relation: str) -> frozenset[int]:
        """Node ids belonging to ``relation``."""
        try:
            return self.relations[relation]
        except KeyError:
            known = ", ".join(sorted(self.relations))
            raise KeyError(f"unknown relation {relation!r}; known: {known}") from None

    @property
    def relation_names(self) -> list[str]:
        """All relation names, sorted."""
        return sorted(self.relations)

    # -- snapshots -------------------------------------------------------------

    def take_snapshot(self, t: float = 0.0) -> None:
        """Sample every field at every node position and store the readings.

        This models the single sensor acquisition per query execution
        (§IV-D: "As any other join algorithm, SENS-Join reads the sensors
        exactly once").  Every node gets a fresh readings dict.  A frozen
        :class:`~repro.data.fields.GaussianProcessField` reuses its last
        evaluation when the alive nodes sit where they sat at the previous
        snapshot, which leaves every reading bit-identical (see that class);
        a move, a revival or a failure changes the positions sampled, so
        the next snapshot evaluates afresh.
        """
        nodes = self.network.nodes
        sensor_ids = self.network.sensor_node_ids
        xs = np.array([nodes[i].x for i in sensor_ids])
        ys = np.array([nodes[i].y for i in sensor_ids])
        columns = [
            (name, np.asarray(field.sample(xs, ys, t), dtype=float).tolist())
            for name, field in self.fields.items()
        ]
        for index, node_id in enumerate(sensor_ids):
            node = nodes[node_id]
            readings: Dict[str, float] = {"x": node.x, "y": node.y}
            for name, values in columns:
                readings[name] = values[index]
            node.readings = readings
        self.snapshot_time = t

    def reading_matrix(self, sensor: str) -> np.ndarray:
        """(node_id, value) pairs of the current snapshot for one sensor."""
        if self.snapshot_time is None:
            raise RuntimeError("no snapshot taken yet; call take_snapshot() first")
        rows = [
            (node_id, self.network.nodes[node_id].readings[sensor])
            for node_id in self.network.sensor_node_ids
        ]
        return np.array(rows)

    # -- convenience constructors ----------------------------------------------

    @classmethod
    def homogeneous(
        cls,
        network: Network,
        seed: int = 0,
        length_scale: float = 150.0,
        drift_rate: float = 0.0,
        area_side_m: Optional[float] = None,
    ) -> "SensorWorld":
        """Standard world: default fields, one relation with every node."""
        side = area_side_m
        if side is None:
            side = max(
                max((node.x for node in network.nodes.values()), default=1.0),
                max((node.y for node in network.nodes.values()), default=1.0),
            )
        return cls(
            network,
            default_fields(side, seed=seed, length_scale=length_scale, drift_rate=drift_rate),
            catalog=standard_catalog(area_side_m=side),
        )

    @classmethod
    def two_relations(
        cls,
        network: Network,
        split: Callable[[SensorNode], str] | float = 0.5,
        names: tuple[str, str] = ("rel_a", "rel_b"),
        seed: int = 0,
        length_scale: float = 150.0,
        area_side_m: Optional[float] = None,
    ) -> "SensorWorld":
        """Heterogeneous world: nodes split between two relations.

        ``split`` is either a function mapping a node to one of the two
        names, or a float giving the fraction assigned (pseudo-randomly but
        deterministically) to the first relation.
        """
        side = area_side_m
        if side is None:
            side = max(
                max((node.x for node in network.nodes.values()), default=1.0),
                max((node.y for node in network.nodes.values()), default=1.0),
            )
        members_a, members_b = [], []
        rng = np.random.default_rng(seed)
        for node_id in network.sensor_node_ids:
            node = network.nodes[node_id]
            if callable(split):
                target = split(node)
                if target not in names:
                    raise ValueError(f"split() returned unknown relation {target!r}")
            else:
                target = names[0] if rng.random() < split else names[1]
            (members_a if target == names[0] else members_b).append(node_id)
        return cls(
            network,
            default_fields(side, seed=seed, length_scale=length_scale),
            catalog=standard_catalog(area_side_m=side),
            relations={names[0]: members_a, names[1]: members_b},
        )
