"""High-level facade: a sensor network as a queryable database.

:class:`SensorNetworkDB` bundles deployment, data binding, routing and query
execution behind the declarative interface the paper advocates (§III): you
hand it SQL in the TinyDB-flavoured dialect, it hands back result rows plus
the communication-cost report.

>>> db = SensorNetworkDB(node_count=300, seed=7)
>>> report = db.execute('''
...     SELECT A.hum, B.hum FROM sensors A, sensors B
...     WHERE A.temp - B.temp > 18 ONCE
... ''')
>>> report.rows          # the join result           # doctest: +SKIP
>>> report.transmissions # what it cost the network  # doctest: +SKIP

The facade is deliberately thin: everything it does is available through the
underlying packages (``repro.sim``, ``repro.joins``, ...) for users who need
full control.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Union

from . import constants
from .data.relations import SensorWorld
from .errors import QueryError
from .joins.base import JoinOutcome, TupleFormat
from .joins.runner import make_algorithm, run_continuous, run_snapshot
from .joins.sensjoin import SensJoinConfig
from .query.parser import parse_query
from .query.query import JoinQuery, Once, SamplePeriod
from .routing.ctp import build_tree
from .routing.tree import RoutingTree
from .sim.network import DeploymentConfig, Network, deploy_uniform
from .sim.radio import PacketFormat

__all__ = ["SensorNetworkDB", "QueryReport"]


@dataclass
class QueryReport:
    """What :meth:`SensorNetworkDB.execute` returns."""

    query: JoinQuery
    outcome: JoinOutcome

    @property
    def rows(self) -> List[Dict[str, float]]:
        """The SELECT output rows."""
        return self.outcome.result.rows

    @property
    def transmissions(self) -> int:
        """Total link-layer transmissions of this execution."""
        return self.outcome.total_transmissions

    @property
    def retransmissions(self) -> int:
        """Link-layer ARQ retransmissions (zero on a lossless network)."""
        return self.outcome.total_retransmissions

    @property
    def algorithm(self) -> str:
        """Which join method produced the result."""
        return self.outcome.algorithm

    def summary(self) -> str:
        """One-paragraph human-readable execution report."""
        phases = self.outcome.per_phase_transmissions()
        phase_text = ", ".join(f"{name}: {count}" for name, count in sorted(phases.items()))
        retx = self.retransmissions
        retx_text = f", {retx} retransmissions" if retx else ""
        return (
            f"{self.algorithm}: {self.outcome.result.row_count} row(s), "
            f"{self.transmissions} transmissions ({phase_text}){retx_text}, "
            f"max node load {self.outcome.max_node_transmissions()} packets, "
            f"response time {self.outcome.response_time_s:.2f}s"
        )


class SensorNetworkDB:
    """A deployed, data-bound sensor network with a SQL front door."""

    def __init__(
        self,
        node_count: int = 300,
        area_side_m: Optional[float] = None,
        seed: int = 0,
        max_packet_bytes: int = constants.DEFAULT_MAX_PACKET_BYTES,
        length_scale: float = 150.0,
        drift_rate: float = 0.0,
        loss_rate: float = 0.0,
        network: Optional[Network] = None,
        world: Optional[SensorWorld] = None,
    ):
        """Deploy a fresh network (or wrap an existing network + world).

        ``area_side_m`` defaults to the paper's node density.  ``drift_rate``
        makes the fields evolve over time (for ``SAMPLE PERIOD`` queries).
        ``loss_rate`` turns on the lossy link layer with ARQ (worst-link
        packet-loss probability; zero keeps the classic lossless channel).
        """
        if (network is None) != (world is None):
            raise ValueError("pass both network and world, or neither")
        if network is None:
            config = DeploymentConfig(seed=seed, loss_rate=loss_rate).scaled(node_count)
            if area_side_m is not None:
                config = replace(config, area_side_m=area_side_m)
            network = deploy_uniform(config, packet_format=PacketFormat(max_packet_bytes))
            world = SensorWorld.homogeneous(
                network,
                seed=seed,
                length_scale=length_scale,
                drift_rate=drift_rate,
                area_side_m=config.area_side_m,
            )
        assert world is not None
        self.network = network
        self.world = world
        self.seed = seed
        self.tree: RoutingTree = build_tree(network, seed=seed)

    # -- queries -----------------------------------------------------------------

    def parse(self, sql: str) -> JoinQuery:
        """Parse and validate a query against this network's catalogue."""
        return parse_query(sql, catalog=self.world.catalog)

    def execute(
        self,
        sql: Union[str, JoinQuery],
        algorithm: str = "sens-join",
        sens_config: Optional[SensJoinConfig] = None,
        snapshot_time: float = 0.0,
    ) -> QueryReport:
        """Execute a snapshot (``ONCE``) query and return rows + costs."""
        query = self.parse(sql) if isinstance(sql, str) else sql
        if not isinstance(query.mode, Once):
            raise QueryError(
                "execute() runs snapshot queries; use execute_stream() for "
                "SAMPLE PERIOD queries"
            )
        outcome = run_snapshot(
            self.network,
            self.world,
            query,
            make_algorithm(algorithm, sens_config),
            tree=self.tree,
            snapshot_time=snapshot_time,
            tree_seed=self.seed,
        )
        return QueryReport(query, outcome)

    def execute_stream(
        self,
        sql: Union[str, JoinQuery],
        executions: int = 5,
        algorithm: str = "sens-join",
    ) -> List[QueryReport]:
        """Execute a ``SAMPLE PERIOD`` query for several rounds."""
        query = self.parse(sql) if isinstance(sql, str) else sql
        if not isinstance(query.mode, SamplePeriod):
            raise QueryError("execute_stream() expects a SAMPLE PERIOD query")
        outcomes = run_continuous(
            self.network,
            self.world,
            query,
            make_algorithm(algorithm, None),
            executions=executions,
            tree=self.tree,
        )
        return [QueryReport(query, outcome) for outcome in outcomes]

    def explain(self, sql: Union[str, JoinQuery]) -> str:
        """Describe how SENS-Join would process the query (no execution)."""
        query = self.parse(sql) if isinstance(sql, str) else sql
        fmt = TupleFormat(query, self.world)
        lines = [
            f"query: {query.sql().splitlines()[0]} ...",
            f"relations: {', '.join(f'{n} AS {a}' for n, a in query.relations)}",
            f"join attributes: {fmt.join_attributes} "
            f"({fmt.raw_join_tuple_bytes} bytes raw)",
            f"full tuple: {fmt.full_attributes} ({fmt.full_tuple_bytes} bytes)",
            "join-attribute ratio: "
            + ", ".join(
                f"{alias}={query.join_attribute_ratio(alias):.0%}" for alias in query.aliases
            ),
            f"quantizer: {fmt.quantizer!r}",
            f"plan: collect join-attribute quadtree (Treecut D_max="
            f"{constants.DEFAULT_TREECUT_DMAX_BYTES}B) -> base-station filter "
            "-> selective filter forwarding -> collect matching full tuples",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        nodes = len(self.network.sensor_node_ids)
        return f"<SensorNetworkDB {nodes} nodes, tree height {self.tree.height}>"
