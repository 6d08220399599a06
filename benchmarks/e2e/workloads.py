"""The four workloads of the end-to-end benchmark.

Every workload is a fixed set of *kinds* (one query template on one engine,
or one broker stream) on a fixed deployment.  The benchmark seed only
permutes the order in which kinds are issued; the network, the data and the
queries do not depend on it, so each kind's simulated cost is a property of
the code alone and the model metrics carry a bound of 0.

A rig is one set-up workload; ``workload.setup(smoke, step)`` builds it,
passing each set-up step (a deployment, a calibration) through ``step`` so
the benchmark can time the steps one by one.  ``rig.run(kind, timed)``
issues one sample through the program's public entry point inside ``timed``
and returns the outcome plus ``timed``'s timing; ``rig.check`` compares the
outcome with the lossless oracle and ``rig.stats`` reads its simulated cost.
Only the call inside ``timed`` is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.bench.calibrate import calibrate_threshold
from repro.bench.workloads import ratio_query_builder
from repro.data.relations import SensorWorld
from repro.joins.base import ExecutionContext, oracle_result
from repro.joins.runner import run_snapshot
from repro.joins.sensjoin import PHASE_COLLECTION, PHASE_FILTER, PHASE_FINAL
from repro.query.query import JoinQuery
from repro.routing.cluster import build_routing_tree
from repro.service.broker import BrokerConfig, DeadlinePolicy, QueryBroker
from repro.service.workloads import WorkloadSpec, generate_workload
from repro.sim.faults import ChurnModel
from repro.sim.network import DeploymentConfig, deploy_uniform
from repro.sim.node import BASE_STATION_ID

#: (join attributes, attributes overall) of the paper's two ratio settings.
RATIOS = {"33": (1, 3), "60": (3, 5)}

#: Deployment and field seed of every workload (see the module docstring).
DEPLOYMENT_SEED = 0

#: Above this many matches the full result-set comparison is skipped: the
#: set is built row by row in Python and would dominate the run.
FULL_CHECK_MAX_MATCHES = 50_000

#: Node count of every deployment in ``--smoke`` runs.
SMOKE_NODES = 60

#: The broker workload: STREAMS request streams of REQUESTS_PER_STREAM
#: bursty requests at RATE_HZ, served with CONCURRENCY queries per batch.
#: Every CHURN_EVERY-th stream loses CHURN_FRACTION of its nodes over
#: CHURN_HORIZON_S simulated seconds.
STREAMS = 20
REQUESTS_PER_STREAM = 8
RATE_HZ = 2.0
CONCURRENCY = 8
CHURN_EVERY = 4
CHURN_FRACTION = 0.1
CHURN_HORIZON_S = 4.0

#: Kinds are issued once a round, except stream 3.  Churn streams form the
#: slowest quarter; stream 3 is slower than three of them and faster than
#: one.  At weight 3 the p90 rank falls in the middle of its cluster instead
#: of on the edge between two churn streams.
STREAM_WEIGHTS = {3: 3}

#: ``timed(fn, *args)`` makes one timed program call: ``(result, timing)``.
Timed = Callable[..., Tuple[object, object]]

#: ``step(fn, *args)`` runs one step of a set-up and returns its result; the
#: benchmark times every step on its own.
Step = Callable[..., object]


@dataclass(frozen=True)
class SampleStats:
    """Simulated cost of one sample: identical on every repeat of its kind."""

    queries: int
    completed: int
    failed: int
    tx_packets: float
    energy: float
    hot_node_energy: float
    latencies: Tuple[float, ...]
    counts: Tuple[Tuple[str, float], ...] = ()
    waits: Tuple[float, ...] = ()


def _deploy(nodes: int):
    config = DeploymentConfig().scaled(nodes)
    network = deploy_uniform(config)
    world = SensorWorld.homogeneous(
        network, seed=DEPLOYMENT_SEED, area_side_m=config.area_side_m
    )
    tree = build_routing_tree(network, seed=DEPLOYMENT_SEED)
    return network, world, tree


def _calibrated(world: SensorWorld, ratio: str, fraction: float) -> JoinQuery:
    builder = ratio_query_builder(*RATIOS[ratio])
    threshold, _ = calibrate_threshold(world, builder, fraction, 0.0, 40.0, increasing=False)
    return builder(threshold)


def _hot_node_energy(network) -> float:
    return max(
        energy for node_id, energy in network.energy_by_node().items()
        if node_id != BASE_STATION_ID
    )


class _Oracle:
    """The lossless answer to one query, with the views the gate compares."""

    def __init__(self, network, tree, world, query: JoinQuery):
        self.result = oracle_result(ExecutionContext(network, tree, world, query))
        self.match_count = self.result.match_count
        self.contributing = {
            alias: self.result.contributing_nodes(alias) for alias in query.aliases
        }
        self._result_set: Optional[frozenset] = None

    @property
    def result_set(self) -> frozenset:
        if self._result_set is None:
            self._result_set = self.result.result_set()
        return self._result_set


# ---------------------------------------------------------------------------
# Snapshot workloads: one run_snapshot call per sample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """One query template on one engine, issued ``weight`` times a round.

    The threshold is either calibrated to a result ``fraction`` at set-up or
    a fixed temperature difference in degC.  ``nodes`` puts the kind on a
    deployment of its own size instead of the workload's.
    """

    engine: str
    ratio: str
    fraction: Optional[float] = None
    threshold: Optional[float] = None
    weight: int = 1
    nodes: Optional[int] = None

    @property
    def name(self) -> str:
        knob = f"f{self.fraction}" if self.threshold is None else f"t{self.threshold}"
        where = f"@{self.nodes}" if self.nodes else ""
        return f"{self.engine}/{self.ratio}/{knob}{where}"


@dataclass(frozen=True)
class SnapshotWorkload:
    name: str
    nodes: int
    kinds: Tuple[Kind, ...]

    def weights(self) -> Dict[str, int]:
        return {kind.name: kind.weight for kind in self.kinds}

    def setup(self, smoke: bool, step: Step) -> "SnapshotRig":
        return SnapshotRig(self, smoke, step)


@dataclass
class _Plan:
    engine: str
    query: JoinQuery
    deployment: tuple
    oracle: Optional[_Oracle] = None


class SnapshotRig:
    """One deployment per node count, and one query per kind."""

    def __init__(self, workload: SnapshotWorkload, smoke: bool, step: Step):
        deployments: Dict[int, tuple] = {}
        queries: Dict[tuple, JoinQuery] = {}
        self.plan: Dict[str, _Plan] = {}
        for kind in workload.kinds:
            nodes = SMOKE_NODES if smoke else kind.nodes or workload.nodes
            if nodes not in deployments:
                deployments[nodes] = step(_deploy, nodes)
            world = deployments[nodes][1]
            key = (nodes, kind.ratio, kind.fraction, kind.threshold)
            if key not in queries:
                if kind.threshold is None:
                    queries[key] = step(_calibrated, world, kind.ratio, kind.fraction)
                else:
                    queries[key] = step(ratio_query_builder(*RATIOS[kind.ratio]), kind.threshold)
            self.plan[kind.name] = _Plan(kind.engine, queries[key], deployments[nodes])

    def prepare_oracles(self) -> None:
        """Compute each query's lossless answer once, before any timing."""
        oracles: Dict[tuple, _Oracle] = {}
        for plan in self.plan.values():
            network, world, tree = plan.deployment
            key = (id(network), plan.query.sql())
            if key not in oracles:
                world.take_snapshot(0.0)
                oracles[key] = _Oracle(network, tree, world, plan.query)
            plan.oracle = oracles[key]

    def run(self, kind: str, timed: Timed):
        plan = self.plan[kind]
        network, world, tree = plan.deployment
        return timed(run_snapshot, network, world, plan.query, plan.engine, tree=tree)

    def check(self, kind: str, outcome, full: bool) -> Optional[str]:
        oracle = self.plan[kind].oracle
        result = outcome.result
        if result.match_count != oracle.match_count:
            return f"{result.match_count} matches, oracle {oracle.match_count}"
        for alias, expected in oracle.contributing.items():
            if result.contributing_nodes(alias) != expected:
                return f"contributing nodes of {alias} differ from the oracle"
        if full and oracle.match_count <= FULL_CHECK_MAX_MATCHES:
            if outcome.result_set() != oracle.result_set:
                return "result set differs from the oracle"
        return None

    def stats(self, kind: str, outcome) -> SampleStats:
        plan = self.plan[kind]
        network = plan.deployment[0]
        phases = outcome.per_phase_transmissions()
        counts = {
            "sim.tx_collection": phases.get(PHASE_COLLECTION, 0),
            "sim.tx_filter": phases.get(PHASE_FILTER, 0),
            "sim.tx_final": phases.get(PHASE_FINAL, 0),
            "sim.max_node_tx": outcome.max_node_transmissions(),
        }
        if plan.engine == "sens-join":
            details = outcome.details
            counts.update({
                "joins.treecut_exited": details["treecut_exited"],
                "joins.filter_bytes": details["filter_bytes"],
                "joins.filter_pruned_subtrees": details["filter_pruned_subtrees"],
                "joins.final_tuples_shipped": details["final_tuples_shipped"],
                "joins.false_positives": details["false_positives"],
            })
        return SampleStats(
            queries=1,
            completed=1,
            failed=0,
            tx_packets=float(outcome.total_transmissions + outcome.total_retransmissions),
            energy=network.total_energy(),
            hot_node_energy=_hot_node_energy(network),
            latencies=(outcome.response_time_s,),
            counts=tuple(sorted((k, float(v)) for k, v in counts.items())),
        )


# ---------------------------------------------------------------------------
# Broker workload: one QueryBroker(...).run(stream) call per sample
# ---------------------------------------------------------------------------


def serve(network, world, config: BrokerConfig, tree, churn, requests):
    """The timed broker call: build a broker and drain one request stream."""
    return QueryBroker(network, world, config, tree=tree, churn=churn).run(requests)


@dataclass(frozen=True)
class BrokerWorkload:
    name: str
    nodes: int

    def weights(self) -> Dict[str, int]:
        return {f"stream-{index:02d}": STREAM_WEIGHTS.get(index, 1) for index in range(STREAMS)}

    def setup(self, smoke: bool, step: Step) -> "BrokerRig":
        return BrokerRig(self, SMOKE_NODES if smoke else self.nodes, step)


def _is_churn(index: int) -> bool:
    return index % CHURN_EVERY == CHURN_EVERY - 1


def _streams(names, templates) -> Dict[str, Tuple[int, list]]:
    """One bursty request stream over ``templates`` per kind name."""
    streams = {}
    for index, name in enumerate(names):
        spec = WorkloadSpec(kind="bursty", rate_hz=RATE_HZ, count=REQUESTS_PER_STREAM, seed=index)
        streams[name] = (index, generate_workload(spec, templates))
    return streams


class BrokerRig:
    """Shared deployment, the template pool and one request stream per kind.

    Plain streams share the set-up deployment; every ``CHURN_EVERY``-th
    stream runs on a fresh copy of it under a churn model and a deadline
    policy, because churn mutates the topology.
    """

    def __init__(self, workload: BrokerWorkload, nodes: int, step: Step):
        self.nodes = nodes
        self.network, self.world, self.tree = step(_deploy, nodes)
        # The concurrency_study pool, hottest first: three selectivities of
        # the 1/3-ratio template share one quantized domain (their filters
        # compose), the 3/5-ratio one rides the same dissemination wave.
        self.templates = [
            step(_calibrated, self.world, ratio, fraction)
            for ratio, fraction in (("33", 0.05), ("60", 0.05), ("33", 0.02), ("33", 0.08))
        ]
        self.streams = step(_streams, list(workload.weights()), self.templates)
        self.oracles: Dict[str, _Oracle] = {}

    def prepare_oracles(self) -> None:
        """Lossless answers on the pristine deployment.

        A churn stream's fresh deployment is rebuilt from the same config and
        seed, so its pre-churn state, and thus its oracle, is this one.
        """
        self.world.take_snapshot(0.0)
        for query in self.templates:
            self.oracles[query.sql()] = _Oracle(self.network, self.tree, self.world, query)

    def run(self, kind: str, timed: Timed):
        index, requests = self.streams[kind]
        if _is_churn(index):
            network, world, tree = _deploy(self.nodes)
            churn = ChurnModel.from_departure_fraction(
                CHURN_FRACTION,
                horizon_s=CHURN_HORIZON_S,
                seed=index,
                rejoin_delay_s=CHURN_HORIZON_S / 4.0,
                rejoin_jitter_m=10.0,
            )
            config = BrokerConfig(
                concurrency=CONCURRENCY, share_work=True, deadline=DeadlinePolicy(seed=index),
            )
        else:
            network, world, tree, churn = self.network, self.world, self.tree, None
            config = BrokerConfig(concurrency=CONCURRENCY, share_work=True)
        report, wall = timed(serve, network, world, config, tree, churn, requests)
        return (report, network), wall

    def check(self, kind: str, served, full: bool) -> Optional[str]:
        report, _ = served
        for outcome in report.outcomes:
            if outcome.status == "shed":
                continue
            expected = self.oracles[outcome.request.query.sql()].result_set
            got = outcome.result_set()
            if outcome.status == "completed" and got != expected:
                return f"completed query {outcome.request.query_id} differs from the oracle"
            if outcome.status == "degraded" and not got <= expected:
                return f"degraded query {outcome.request.query_id} is not a subset of the oracle"
        return None

    def stats(self, kind: str, served) -> SampleStats:
        report, network = served
        outcomes = sorted(report.outcomes, key=lambda o: o.request.query_id)
        details = report.details
        counts = {
            "service.batches": report.batch_count,
            "service.share_groups": details["share_groups"],
            "service.piggybacked": details["piggybacked_broadcasts"],
            "service.attempts": sum(o.attempts for o in outcomes),
            "routing.repair_beacons": details.get("repair_beacons", 0.0),
            "routing.repairs": details.get("repairs", 0.0),
        }
        return SampleStats(
            queries=len(outcomes),
            completed=sum(1 for o in outcomes if o.status == "completed"),
            failed=sum(1 for o in outcomes if o.status == "shed" or o.error is not None),
            tx_packets=float(report.total_tx_packets),
            energy=report.total_energy_j,
            hot_node_energy=_hot_node_energy(network),
            latencies=tuple(o.latency_s for o in outcomes),
            counts=tuple(sorted((k, float(v)) for k, v in counts.items())),
            waits=tuple(o.admitted_s - o.request.arrival_s for o in outcomes),
        )


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

#: Paper kinds: both SENS-Join engines x both ratio settings x three result
#: fractions.  The 1/3-ratio kinds run about half as long as the 3/5 ones;
#: weighting them 2:1 puts the p50 rank inside the des-sensjoin 1/3 cluster
#: and the p90 rank inside the 3/5 clusters, away from the gap between them.
PAPER_KINDS = tuple(
    Kind(engine, ratio, fraction=fraction, weight=2 if ratio == "33" else 1)
    for engine in ("sens-join", "des-sensjoin")
    for ratio in ("33", "60")
    for fraction in (0.01, 0.05, 0.2)
)

#: Sparse kinds: three low result fractions of the 1/3-ratio template on
#: the workload's deployment, plus one on a 2000-node deployment whose
#: deeper tree makes it run about twice as long.  Weighted 3:2, the p90
#: rank falls inside that kind's cluster instead of the host-noise tail of
#: one cluster, and every kind stays collection-bound.
SPARSE_KINDS = tuple(
    Kind("sens-join", "33", fraction=f, weight=3) for f in (0.01, 0.03, 0.05)
) + (Kind("sens-join", "33", fraction=0.03, weight=2, nodes=2000),)

#: Fixed thresholds in degC: on 1000 nodes the 1/3-ratio query matches
#: 3.5e5 node pairs at 3 degC and 2.3e5 at 6 degC.  External-join kinds run
#: about 60 % as long as the SENS-Join ones, and within an engine the lower
#: threshold runs longer.  With these weights the p50 rank falls in the
#: middle of the 3 degC external-join cluster and the p90 rank in the middle
#: of the 3 degC SENS-Join one.  A 1 degC threshold (4.5e5 matches) is left
#: out: its time moves by 10-18 % between runs of the same code, and it
#: overlaps the 3 degC kinds.
DENSE_WEIGHTS = {
    ("external-join", 6.0): 3,
    ("external-join", 3.0): 4,
    ("sens-join", 6.0): 1,
    ("sens-join", 3.0): 2,
}
DENSE_KINDS = tuple(
    Kind(engine, "33", threshold=t, weight=w) for (engine, t), w in DENSE_WEIGHTS.items()
)

#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, object] = {
    w.name: w
    for w in (
        SnapshotWorkload("paper-600", 600, PAPER_KINDS),
        SnapshotWorkload("sparse-deep", 1200, SPARSE_KINDS),
        SnapshotWorkload("dense-1000", 1000, DENSE_KINDS),
        BrokerWorkload("broker-churn", 300),
    )
}
