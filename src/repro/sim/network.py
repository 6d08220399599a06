"""Network deployment and connectivity.

Implements the paper's simulation setting (§VI, "General setting"): nodes are
placed uniformly at random in a square area, every node has a fixed radio
range (50 m) and links are bidirectional — i.e. the connectivity graph is a
unit-disk graph.  The base station sits at a configurable position (centre of
an edge by default, a common choice for data-collection deployments).

The module also provides the failure-injection hooks used by the
error-tolerance design of §IV-F: :meth:`Network.fail_node` and
:meth:`Network.fail_link` mutate the connectivity graph mid-experiment; the
routing layer then repairs the tree and the runner re-executes the query.

Deployment generators
---------------------
``deploy_uniform``   — the paper's setting: uniform random placement.
``deploy_grid``      — regular grid with jitter (useful for debugging,
                       deterministic structure).
``deploy_clustered`` — Gaussian clusters (exercises the "specific node
                       distributions" of the related-work baselines).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import constants
from ..errors import NetworkError
from .energy import EnergyModel
from .node import BASE_STATION_ID, SensorNode
from .radio import ArqConfig, Channel, PacketFormat
from .spatial import SpatialGridIndex
from .stats import TransmissionStats

__all__ = [
    "Network",
    "DeploymentConfig",
    "LinkQuality",
    "deploy_uniform",
    "deploy_grid",
    "deploy_clustered",
]


@dataclass(frozen=True)
class LinkQuality:
    """Distance-based per-link packet-loss model.

    Every unit-disk link gets a deterministic packet-reception ratio from
    its length: a link at distance ``d`` (of range ``r``) loses each packet
    independently with probability ``loss_rate * (d / r) ** distance_exponent``.
    Short links are near-perfect; links close to the unit-disk boundary
    approach the configured ``loss_rate`` — the empirical "grey zone" shape.
    ``loss_rate`` is thus the worst-link loss probability and the single
    knob the loss studies sweep.

    ``seed`` seeds the channel's ARQ draws, so a given (deployment, seed)
    pair sees exactly the same loss realisation on every run.
    """

    loss_rate: float = 0.0
    distance_exponent: float = constants.DEFAULT_LOSS_DISTANCE_EXPONENT
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.distance_exponent < 0:
            raise ValueError(
                f"distance_exponent must be non-negative, got {self.distance_exponent}"
            )

    @property
    def enabled(self) -> bool:
        """True when the model actually induces loss."""
        return self.loss_rate > 0.0

    def loss_probability(self, distance_m: float, range_m: float) -> float:
        """Per-packet loss probability of a link at ``distance_m``."""
        if range_m <= 0:
            raise ValueError(f"radio range must be positive, got {range_m}")
        ratio = min(distance_m, range_m) / range_m
        return self.loss_rate * ratio**self.distance_exponent

    def prr(self, distance_m: float, range_m: float) -> float:
        """Packet-reception ratio of a link at ``distance_m``."""
        return 1.0 - self.loss_probability(distance_m, range_m)


@dataclass(frozen=True)
class DeploymentConfig:
    """Parameters of a deployment (defaults = the paper's §VI setting)."""

    node_count: int = constants.PAPER_NODE_COUNT
    area_side_m: float = constants.PAPER_AREA_SIDE_M
    radio_range_m: float = constants.DEFAULT_RADIO_RANGE_M
    seed: int = 0
    base_station_position: Optional[tuple[float, float]] = None
    #: Worst-link packet-loss probability (see :class:`LinkQuality`).  Zero
    #: keeps the whole loss/ARQ layer switched off.
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("a network needs at least a base station and one node")
        if self.area_side_m <= 0 or self.radio_range_m <= 0:
            raise ValueError("area side and radio range must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")

    def scaled(self, node_count: int) -> "DeploymentConfig":
        """Same density, different node count (the Fig. 14 sweep).

        The paper varies the number of nodes "and at the same time ... the
        area of the network to keep the node density constant".
        """
        density = self.node_count / (self.area_side_m**2)
        side = math.sqrt(node_count / density)
        return DeploymentConfig(
            node_count=node_count,
            area_side_m=side,
            radio_range_m=self.radio_range_m,
            seed=self.seed,
            base_station_position=None,
            loss_rate=self.loss_rate,
        )


class Network:
    """A deployed sensor network: nodes, unit-disk links, shared channel."""

    def __init__(
        self,
        nodes: Sequence[SensorNode],
        radio_range_m: float,
        packet_format: Optional[PacketFormat] = None,
        energy_model: Optional[EnergyModel] = None,
        link_quality: Optional[LinkQuality] = None,
        arq: Optional[ArqConfig] = None,
    ):
        if not nodes:
            raise NetworkError("empty node list")
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise NetworkError("duplicate node ids in deployment")
        if BASE_STATION_ID not in set(ids):
            raise NetworkError(f"deployment lacks a base station (id {BASE_STATION_ID})")
        self.nodes: Dict[int, SensorNode] = {node.node_id: node for node in nodes}
        self.radio_range_m = radio_range_m
        self.packet_format = packet_format or PacketFormat()
        #: Prices the store's packet and byte counts when energy is read.
        self.energy_model = energy_model or EnergyModel()
        self.stats = TransmissionStats()
        # A disabled (loss_rate=0) model is normalised to None so the channel
        # takes its lossless fast path and stays a strict no-op.
        self.link_quality = (
            link_quality if link_quality is not None and link_quality.enabled else None
        )
        self.channel = Channel(
            self.packet_format,
            self.stats,
            self.nodes,
            loss_probability=(
                self.link_loss_probability if self.link_quality is not None else None
            ),
            arq=arq,
            arq_seed=self.link_quality.seed if self.link_quality is not None else 0,
            link_up=self.link_up,
            energy_model=self.energy_model,
        )
        self._adjacency: Dict[int, set[int]] = {}
        self._failed_links: set[frozenset[int]] = set()
        # Squared-range threshold, computed once with the same expression the
        # dense reference build used (bit-for-bit float parity matters: the
        # grid index must be a pure drop-in — see tests/test_sim_spatial.py).
        self._range2 = self.radio_range_m**2
        self._index = SpatialGridIndex(radio_range_m)
        self._rebuild_adjacency()

    # -- construction -------------------------------------------------------

    def _rebuild_adjacency(self) -> None:
        """Recompute the unit-disk graph over alive nodes, minus failed links.

        Built through the uniform grid index in O(n·k) where k is the local
        neighbourhood population — the dense O(n²) build survives only as
        the :meth:`_reference_adjacency` twin for the property suite.  Only
        deployment-time construction pays this full pass; failure injection
        and churn go through the incremental :meth:`_attach`/:meth:`_detach`
        updates instead.
        """
        index = SpatialGridIndex(self.radio_range_m)
        alive = [node for node in self.nodes.values() if node.alive]
        for node in alive:
            index.insert(node.node_id, node.x, node.y)
        self._index = index
        adjacency: Dict[int, set[int]] = {}
        failed = self._failed_links
        limit2 = self._range2
        for node in alive:
            neighbours = index.neighbours_within(
                node.x, node.y, limit2, exclude=node.node_id
            )
            if failed:
                node_id = node.node_id
                neighbours = [
                    other
                    for other in neighbours
                    if frozenset((node_id, other)) not in failed
                ]
            adjacency[node.node_id] = set(neighbours)
        self._adjacency = adjacency

    def _reference_adjacency(self) -> Dict[int, set[int]]:
        """Brute-force O(n²) unit-disk build — the reference twin.

        This is the seed implementation's dense pairwise build, kept (like
        the codec ``_reference_*`` twins) as the trusted oracle the property
        tests compare the grid index against.  Never called on the hot path.
        """
        alive = [node for node in self.nodes.values() if node.alive]
        coords = np.array([[node.x, node.y] for node in alive])
        ids = [node.node_id for node in alive]
        adjacency: Dict[int, set[int]] = {node_id: set() for node_id in ids}
        if len(alive) < 2:
            return adjacency
        deltas = coords[:, None, :] - coords[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", deltas, deltas)
        within = dist2 <= self.radio_range_m**2
        rows, cols = np.nonzero(np.triu(within, k=1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            a, b = ids[i], ids[j]
            if frozenset((a, b)) in self._failed_links:
                continue
            adjacency[a].add(b)
            adjacency[b].add(a)
        return adjacency

    # -- incremental maintenance --------------------------------------------

    def _detach(self, node_id: int) -> None:
        """Remove a node's edges and index entry (it died or is moving)."""
        for other in self._adjacency.pop(node_id, set()):
            self._adjacency[other].discard(node_id)
        self._index.discard(node_id)

    def _attach(self, node: SensorNode) -> None:
        """Index an alive node at its current position and wire local edges."""
        self._index.insert(node.node_id, node.x, node.y)
        node_id = node.node_id
        neighbours: set[int] = set()
        for other in self._index.neighbours_within(
            node.x, node.y, self._range2, exclude=node_id
        ):
            if frozenset((node_id, other)) in self._failed_links:
                continue
            neighbours.add(other)
            self._adjacency[other].add(node_id)
        self._adjacency[node_id] = neighbours

    # -- topology queries ----------------------------------------------------

    def neighbours(self, node_id: int) -> set[int]:
        """Ids of nodes within radio range of ``node_id`` (alive, link up)."""
        try:
            return self._adjacency[node_id]
        except KeyError:
            raise NetworkError(f"unknown or dead node: {node_id}") from None

    def link_up(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` are both alive and their link is usable.

        The adjacency structure is rebuilt over alive nodes minus failed
        links, so a single membership test answers all three questions
        (endpoints alive, within range, link not failed).
        """
        return b in self._adjacency.get(a, ())

    @property
    def node_ids(self) -> List[int]:
        """All node ids (including the base station), sorted."""
        return sorted(self.nodes)

    @property
    def sensor_node_ids(self) -> List[int]:
        """All alive non-base-station node ids, sorted."""
        return sorted(
            node_id
            for node_id, node in self.nodes.items()
            if node.alive and not node.is_base_station
        )

    @property
    def base_station(self) -> SensorNode:
        """The distinguished powered root node."""
        return self.nodes[BASE_STATION_ID]

    def is_connected(self) -> bool:
        """True if every alive node can reach the base station."""
        alive = {node_id for node_id, node in self.nodes.items() if node.alive}
        if BASE_STATION_ID not in alive:
            return False
        seen = {BASE_STATION_ID}
        frontier = [BASE_STATION_ID]
        while frontier:
            current = frontier.pop()
            for neighbour in self._adjacency.get(current, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return seen == alive

    def average_degree(self) -> float:
        """Mean neighbourhood size (the paper quotes 6-15 as typical)."""
        if not self._adjacency:
            return 0.0
        return sum(len(n) for n in self._adjacency.values()) / len(self._adjacency)

    # -- link quality ---------------------------------------------------------

    def link_loss_probability(self, a: int, b: int) -> float:
        """Per-packet loss probability of the link ``a``-``b``.

        Zero when no :class:`LinkQuality` model is attached.
        """
        if self.link_quality is None:
            return 0.0
        node_a = self.nodes.get(a)
        node_b = self.nodes.get(b)
        if node_a is None or node_b is None:
            raise NetworkError(f"unknown node: {a if node_a is None else b}")
        return self.link_quality.loss_probability(
            node_a.distance_to(node_b), self.radio_range_m
        )

    def link_prr(self, a: int, b: int) -> float:
        """Packet-reception ratio of the link ``a``-``b`` (1.0 when lossless)."""
        return 1.0 - self.link_loss_probability(a, b)

    def link_etx(self, a: int, b: int) -> float:
        """Expected transmission count of the link ``a``-``b`` (ETX = 1/PRR)."""
        return 1.0 / self.link_prr(a, b)

    # -- failure injection (§IV-F) -------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Kill a node: it disappears from the graph and sends nothing more.

        Idempotent: killing an already dead node changes nothing.
        """
        if node_id == BASE_STATION_ID:
            raise NetworkError("the base station is mains powered and does not fail")
        node = self.nodes.get(node_id)
        if node is None:
            raise NetworkError(f"unknown node: {node_id}")
        if not node.alive:
            return
        node.alive = False
        self._detach(node_id)

    def fail_link(self, a: int, b: int) -> None:
        """Take down the (bidirectional) link between ``a`` and ``b``."""
        for node_id in (a, b):
            if node_id not in self.nodes:
                raise NetworkError(f"unknown node: {node_id}")
        if a == b:
            raise NetworkError(f"a node has no link to itself: {a}")
        key = frozenset((a, b))
        self._failed_links.add(key)
        self._adjacency.get(a, set()).discard(b)
        self._adjacency.get(b, set()).discard(a)

    def revive_node(self, node_id: int, x: Optional[float] = None, y: Optional[float] = None) -> None:
        """Bring a departed node back, optionally at a new position (churn).

        The rejoin model of the continuous-churn subsystem: a node that
        earlier left the network (``fail_node``) powers up again, possibly
        at a perturbed position, and the unit-disk links are rewired
        accordingly.  Reviving an alive node only applies the position
        update (idempotent otherwise).  The node keeps its last sensor
        readings — it does not re-sample until the next world snapshot.
        """
        if node_id == BASE_STATION_ID:
            raise NetworkError("the base station is mains powered and never departs")
        node = self.nodes.get(node_id)
        if node is None:
            raise NetworkError(f"unknown node: {node_id}")
        moved = False
        if x is not None:
            node.x = float(x)
            moved = True
        if y is not None:
            node.y = float(y)
            moved = True
        if node.alive and not moved:
            return
        if node.alive:
            self._detach(node_id)
        node.alive = True
        self._attach(node)

    def move_node(self, node_id: int, x: float, y: float) -> None:
        """One waypoint mobility step: relocate a node and rewire its links.

        Dead nodes may be moved (their position matters once they rejoin)
        but only an alive node's move triggers an adjacency rebuild.
        """
        if node_id == BASE_STATION_ID:
            raise NetworkError("the base station does not move")
        node = self.nodes.get(node_id)
        if node is None:
            raise NetworkError(f"unknown node: {node_id}")
        node.x = float(x)
        node.y = float(y)
        if node.alive:
            self._detach(node_id)
            self._attach(node)

    def restore_link(self, a: int, b: int) -> None:
        """Bring a previously failed link back up (if still within range).

        Idempotent, and consistent with node state: the adjacency rebuild
        only spans alive nodes, so restoring a link to a dead node never
        resurrects connectivity.
        """
        for node_id in (a, b):
            if node_id not in self.nodes:
                raise NetworkError(f"unknown node: {node_id}")
        if a == b:
            raise NetworkError(f"a node has no link to itself: {a}")
        self._failed_links.discard(frozenset((a, b)))
        node_a, node_b = self.nodes[a], self.nodes[b]
        if not (node_a.alive and node_b.alive):
            return
        dx = node_a.x - node_b.x
        dy = node_a.y - node_b.y
        if dx * dx + dy * dy <= self._range2:
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)

    # -- accounting helpers ----------------------------------------------------

    def total_energy(self) -> float:
        """Network-wide energy spent since the last accounting reset.

        Priced from the statistics store by :attr:`energy_model`.
        """
        return self.stats.total_energy(self.energy_model)

    def energy_by_node(self) -> Dict[int, float]:
        """Per-node energy spent since the last accounting reset.

        Every node appears, silent ones at 0.0.  The per-node view behind
        the time-series sampler's residual-energy gauges and
        ``python -m repro.obs hotspots`` — the base-station funnel effect
        (§V) is a statement about *this* distribution, not about the
        network total.
        """
        stats, model = self.stats, self.energy_model
        return {node_id: stats.node_energy(node_id, model) for node_id in self.nodes}

    def residual_energy_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Array-backed per-node energy view: ``(ids, spent_energy)`` columns.

        The dict view of :meth:`energy_by_node` boxes every value; at 10k-100k
        nodes the scale studies instead read this flat pair of numpy columns
        (sorted by node id) to compute load distributions in one shot.
        """
        spent = self.energy_by_node()
        ids = np.fromiter(spent.keys(), dtype=np.int64, count=len(spent))
        order = np.argsort(ids)
        energy = np.fromiter(spent.values(), dtype=np.float64, count=len(spent))
        return ids[order], energy[order]

    def reset_accounting(self) -> None:
        """Swap in a fresh statistics store, which zeroes every node's energy.

        The old store is left as it was, so an outcome that holds it keeps
        its run's counts.  Also re-seeds the channel's ARQ draws so each
        query execution sees the same deterministic loss realisation.
        """
        self.stats = TransmissionStats()
        self.channel.stats = self.stats
        self.channel.reset_arq()


# ---------------------------------------------------------------------------
# Deployment generators
# ---------------------------------------------------------------------------


def _base_station_at(config: DeploymentConfig) -> tuple[float, float]:
    if config.base_station_position is not None:
        return config.base_station_position
    # Centre of the bottom edge: a typical access-point placement that gives
    # the long multi-hop paths the paper's per-node analysis relies on.
    return (config.area_side_m / 2.0, 0.0)


def _build(
    config: DeploymentConfig,
    positions: np.ndarray,
    packet_format: Optional[PacketFormat],
    energy_model: Optional[EnergyModel],
) -> Network:
    bs_x, bs_y = _base_station_at(config)
    nodes = [SensorNode(BASE_STATION_ID, bs_x, bs_y)]
    for index, (x, y) in enumerate(positions, start=1):
        nodes.append(SensorNode(index, float(x), float(y)))
    link_quality = (
        LinkQuality(loss_rate=config.loss_rate, seed=config.seed)
        if config.loss_rate > 0.0
        else None
    )
    return Network(
        nodes, config.radio_range_m, packet_format, energy_model,
        link_quality=link_quality,
    )


def deploy_uniform(
    config: DeploymentConfig,
    packet_format: Optional[PacketFormat] = None,
    energy_model: Optional[EnergyModel] = None,
    max_attempts: int = 25,
) -> Network:
    """Uniform random deployment (the paper's setting), retried until connected.

    At the paper's density (~10 expected neighbours) a random placement is
    connected with high probability; occasionally it is not, in which case we
    re-draw with a derived seed.  After ``max_attempts`` failures a
    :class:`~repro.errors.NetworkError` is raised — that indicates the
    requested density is simply too low for a connected unit-disk graph.
    """
    for attempt in range(max_attempts):
        rng = np.random.default_rng(config.seed + attempt * 7919)
        positions = rng.uniform(0.0, config.area_side_m, size=(config.node_count, 2))
        network = _build(config, positions, packet_format, energy_model)
        if network.is_connected():
            return network
    raise NetworkError(
        f"could not draw a connected deployment in {max_attempts} attempts "
        f"(n={config.node_count}, side={config.area_side_m}, "
        f"range={config.radio_range_m})"
    )


def deploy_grid(
    config: DeploymentConfig,
    jitter_m: float = 0.0,
    packet_format: Optional[PacketFormat] = None,
    energy_model: Optional[EnergyModel] = None,
) -> Network:
    """Regular grid deployment with optional positional jitter.

    Deterministic and guaranteed connected as long as the grid pitch is below
    the radio range; handy for unit tests that need a known topology.
    """
    side = math.ceil(math.sqrt(config.node_count))
    pitch = config.area_side_m / side
    if pitch > config.radio_range_m:
        raise NetworkError(
            f"grid pitch {pitch:.1f} m exceeds radio range "
            f"{config.radio_range_m:.1f} m; the grid would be disconnected"
        )
    rng = np.random.default_rng(config.seed)
    positions = []
    for i in range(config.node_count):
        row, col = divmod(i, side)
        x = (col + 0.5) * pitch
        y = (row + 0.5) * pitch
        if jitter_m > 0:
            x += rng.uniform(-jitter_m, jitter_m)
            y += rng.uniform(-jitter_m, jitter_m)
        positions.append((x, y))
    return _build(config, np.array(positions), packet_format, energy_model)


def deploy_clustered(
    config: DeploymentConfig,
    cluster_count: int = 4,
    cluster_std_m: float = 60.0,
    packet_format: Optional[PacketFormat] = None,
    energy_model: Optional[EnergyModel] = None,
    max_attempts: int = 50,
) -> Network:
    """Nodes in Gaussian clusters around random centres.

    This reproduces the "two small regions" setting the specialised
    related-work joins require; used by the mediated-join/semi-join
    comparison experiments.
    """
    for attempt in range(max_attempts):
        rng = np.random.default_rng(config.seed + attempt * 104729)
        centres = rng.uniform(
            cluster_std_m, config.area_side_m - cluster_std_m, size=(cluster_count, 2)
        )
        assignments = rng.integers(0, cluster_count, size=config.node_count)
        positions = centres[assignments] + rng.normal(
            0.0, cluster_std_m, size=(config.node_count, 2)
        )
        positions = np.clip(positions, 0.0, config.area_side_m)
        network = _build(config, positions, packet_format, energy_model)
        if network.is_connected():
            return network
    raise NetworkError(
        "could not draw a connected clustered deployment; clusters are too "
        "far apart for the radio range"
    )
