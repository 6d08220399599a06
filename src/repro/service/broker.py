"""The concurrent multi-query broker: admission, batching, work sharing.

The paper runs one query at a time; the broker runs *many* against one
deployment and recovers the redundancy between them:

1.  **Admission.**  Requests queue FIFO by arrival time.  When the network
    is free, the broker admits every already-arrived request up to the
    configured ``concurrency`` limit into one *batch* — one network epoch.

2.  **Share groups.**  A batch is partitioned by
    :func:`sharing_signature`: queries agreeing on aliases, relations,
    join attributes, full-tuple attributes and selection predicates (i.e.
    differing at most in the join predicate) share one quantized domain —
    their phase-1a traffic is *identical*, so the group runs
    Join-Attribute-Collection **once**.  From the one collected point set
    the base station builds each member query's join filter and unites
    them (:func:`~repro.joins.filterbuild.compose_filters`) into a single
    conservative filter: a superset of every per-query filter, so the
    exactness argument of §IV survives — the final join per query discards
    all false positives the wider filter lets through.

3.  **Piggybacked dissemination.**  The composed filters of *different*
    groups ride the same pre-order wave: at each node every group prunes
    its own filter against its SubtreeJoinAtts (Selective Filter
    Forwarding, per group), and whatever survives is concatenated — plus a
    small per-filter header — into **one** broadcast instead of one wave
    per group.  The final phase then runs once per group and each member
    query is evaluated exactly over the group's arrived complete tuples.

Every epoch runs through SENS-Join's own public phases
(:meth:`~repro.joins.sensjoin.SensJoin.collect`, ``disseminate``,
``final``): one group's filter is the one-filter case of the piggybacked
wave.  With ``share_work=False`` (or ``concurrency=1``) every admitted
query runs as an epoch of its own, serially — the same sends, costs and
trace as issuing it through :func:`repro.joins.runner.run_snapshot`, which
is both the correctness baseline and the denominator of the amortization
numbers reported by the ``concurrency_study`` experiment.

**Resilience under churn.**  With a :class:`~repro.sim.faults.ChurnModel`
(or a pre-materialized :class:`~repro.sim.faults.FaultPlan`) the broker
survives a topology that shifts under its batches.  Readings are sampled
once, pre-churn; due faults are applied as the clock reaches them and the
tree heals incrementally (:func:`~repro.routing.ctp.reattach_tree`, repair
cost in the stats store).  Batches run a *degradation ladder*: shared execution
with bounded, seeded-exponential-backoff retries when an epoch is disrupted
(a fault landed mid-epoch, or the :class:`DeadlinePolicy` timeout expired);
then the share group splits and members re-execute independently; a member
disrupted even then gets one final serial re-run whose result is accepted
as-is.  Every admitted query terminates with status ``"completed"``
(recall 1.0 against the pre-churn lossless oracle), ``"degraded"`` (partial
recall, or its engine raised — wrapped in a typed
:class:`~repro.errors.BrokerError` without aborting the batch) or
``"shed"`` (dropped at admission once the backlog exceeded
``admission_depth``).  With churn disabled every code path above is inert
and the broker's output is byte-identical to the pre-resilience behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import constants
from ..errors import BrokerError
from ..joins.base import ExecutionContext, evaluate_arrived, oracle_result
from ..joins.filterbuild import build_join_filter, compose_filters
from ..joins.sensjoin import SensJoin, SensJoinRun
from ..obs.telemetry import NULL_TELEMETRY, Telemetry, instrumented
from ..obs.timeseries import MetricsSampler, WindowedAggregate
from ..query.evaluate import JoinResult
from ..query.query import JoinQuery
from ..routing.cluster import build_routing_tree
from ..routing.ctp import reattach_tree
from ..routing.dissemination import flood_batch
from ..routing.tree import RoutingTree
from ..sim.faults import (
    ChurnModel,
    Fault,
    FaultPlan,
    LOSS_BURST,
    RetryPolicy,
    apply_fault,
    record_fault,
)
from ..sim.network import Network
from ..sim.node import BASE_STATION_ID
from ..sim.trace import (
    BROKER_ADMIT,
    BROKER_BATCH,
    BROKER_COMPLETE,
    BROKER_DEGRADED,
    BROKER_GROUP_SPLIT,
    BROKER_RETRY,
    BROKER_SHED,
    FILTER_COMPOSED,
)
from .workloads import QueryRequest

__all__ = [
    "BrokerConfig",
    "DeadlinePolicy",
    "QueryBroker",
    "QueryOutcome",
    "BrokerReport",
    "sharing_signature",
]

#: Recall within this of 1.0 counts as complete (float accumulation guard).
_RECALL_EPSILON = 1e-9

#: Rolling SLO windows span this many sampling periods: wide enough that a
#: single slow wave does not whipsaw the percentiles, narrow enough that a
#: sustained regression surfaces within a handful of ticks.
SLO_WINDOW_PERIODS = 10


def sharing_signature(query: JoinQuery) -> Tuple:
    """What must agree for two queries to share phase-1a work.

    The collected join-attribute points depend on the aliases (flag bits),
    the relations behind them (which nodes hold tuples), the join/full
    attribute sets (the quantized domain and payload sizes) and the
    selection predicates (applied at acquisition time) — but **not** on
    the join predicate, which only enters at the base station when the
    filter is built.  Queries equal under this key therefore produce
    identical phase-1a traffic and may differ in their join condition.
    """
    return (
        tuple(query.aliases),
        tuple(query.relation_of(alias) for alias in query.aliases),
        tuple(tuple(query.join_attributes(alias)) for alias in query.aliases),
        tuple(tuple(query.full_tuple_attributes(alias)) for alias in query.aliases),
        tuple(
            tuple(sorted(p.sql() for p in query.selection_predicates(alias)))
            for alias in query.aliases
        ),
    )


@dataclass(frozen=True)
class DeadlinePolicy(RetryPolicy):
    """Per-query deadline and retry semantics for churn-resilient batches.

    ``timeout_s`` is the per-epoch wall-clock budget: a shared attempt whose
    simulated duration exceeds it counts as disrupted even if no fault
    landed mid-epoch (``None`` disables the wall-clock check; mid-epoch
    faults still disrupt).  A disrupted attempt is retried after a seeded
    exponential backoff — ``backoff_s`` scaled by ``backoff_factor`` per
    retry, jittered by a deterministic draw from ``seed`` so two brokers
    with the same seed retry at identical simulated times.  After
    ``max_retries`` shared retries the group splits (degradation ladder,
    see the module docstring).
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    timeout_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")


@dataclass(frozen=True)
class BrokerConfig:
    """Broker knobs.

    ``concurrency`` caps how many queries one batch admits; ``share_work``
    turns the group/compose/piggyback machinery on (off = every query runs
    as an epoch of its own, the serial reference); ``disseminate_queries``
    additionally floods the admitted queries' text in one piggybacked wave
    (off by default, matching ``run_snapshot``).

    ``deadline`` activates the churn-resilient execution ladder even
    without a churn model; ``admission_depth`` enables overload shedding —
    whenever a batch is formed, arrived-but-waiting requests beyond that
    depth are dropped with status ``"shed"`` instead of queueing without
    bound.
    """

    concurrency: int = 8
    share_work: bool = True
    disseminate_queries: bool = False
    deadline: Optional[DeadlinePolicy] = None
    admission_depth: Optional[int] = None
    #: Routing-tree construction mode used when no explicit tree is passed
    #: to the broker: ``"flat"`` min-hop CTP or ``"cluster"`` grid-head
    #: routing (:mod:`repro.routing.cluster`).
    routing: str = "flat"

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1: {self.concurrency}")
        if self.admission_depth is not None and self.admission_depth < 0:
            raise ValueError(
                f"admission_depth must be >= 0, got {self.admission_depth}"
            )
        if self.routing not in ("flat", "cluster"):
            raise ValueError(f"unknown routing mode: {self.routing!r}")


@dataclass
class QueryOutcome:
    """Per-query completion record.

    ``status`` is terminal: ``"completed"`` (full recall against the
    pre-churn oracle), ``"degraded"`` (partial recall, or the engine raised
    — then ``error`` carries the :class:`~repro.errors.BrokerError`), or
    ``"shed"`` (dropped at admission under overload).  Without churn or a
    deadline policy every outcome keeps the historical defaults.
    """

    request: QueryRequest
    result: JoinResult
    admitted_s: float
    completed_s: float
    latency_s: float
    energy_share_j: float
    tx_share_packets: float
    group_size: int
    batch_index: int
    status: str = "completed"
    #: Fraction of the pre-churn lossless oracle's matches this result
    #: delivered (1.0 when no churn/deadline machinery is active).
    recall: float = 1.0
    #: Execution attempts this query participated in (shared + split runs).
    attempts: int = 1
    error: Optional[BrokerError] = None

    def result_set(self, digits: int = 9) -> frozenset:
        return self.result.result_set(digits)


@dataclass
class BrokerReport:
    """Everything one :meth:`QueryBroker.run` produced."""

    outcomes: List[QueryOutcome]
    total_energy_j: float
    total_tx_packets: int
    batch_count: int
    details: Dict[str, float] = field(default_factory=dict)

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank latency percentile over all completed queries."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        if not self.outcomes:
            raise ValueError("no completed queries")
        ordered = sorted(outcome.latency_s for outcome in self.outcomes)
        rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
        return ordered[rank]


@dataclass
class _Group:
    """One share group inside an epoch: its members, their one protocol
    run, and the cost only this group caused."""

    members: List[QueryRequest]
    run: SensJoinRun
    energy_j: float = 0.0
    tx_packets: float = 0.0
    #: Set when one of the group's phases raised: its members surface
    #: degraded outcomes instead of aborting the epoch.
    error: Optional[Exception] = None


def _share_groups(batch: Sequence[QueryRequest]) -> List[List[QueryRequest]]:
    """The batch partitioned by :func:`sharing_signature`, in admission order."""
    groups: Dict[Tuple, List[QueryRequest]] = {}
    for request in batch:
        groups.setdefault(sharing_signature(request.query), []).append(request)
    return list(groups.values())


class QueryBroker:
    """Admit, schedule and execute many queries on one network.

    The broker owns a single routing tree (built once — concurrent queries
    share the converged topology) and a simulated wall clock.  Batches run
    back to back; a query's latency is *completion − arrival*, so time
    spent waiting in the admission queue counts.

    ``churn`` (a :class:`~repro.sim.faults.ChurnModel`, materialized here
    against the deployment, or a ready :class:`~repro.sim.faults.FaultPlan`)
    turns on the resilient execution ladder; under churn a broker is a
    single-shot object — construct a fresh one per ``run()`` so the plan
    replays from the top.  Loss bursts are rejected: the broker's epochs are
    synchronous, only the DES engine can replay a transient loss window.
    """

    def __init__(
        self,
        network: Network,
        world,
        config: BrokerConfig = BrokerConfig(),
        tree: Optional[RoutingTree] = None,
        tree_seed: int = 0,
        telemetry: Optional[Telemetry] = None,
        churn: Optional[Union[ChurnModel, FaultPlan]] = None,
        sampler: Optional[MetricsSampler] = None,
    ):
        self.network = network
        self.world = world
        self.config = config
        self.tree = (
            tree
            if tree is not None
            else build_routing_tree(network, routing=config.routing, seed=tree_seed)
        )
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.tracer = self.telemetry.tracer
        #: Every epoch runs this engine's phases; it holds no per-query or
        #: observation state (it reads the telemetry :meth:`run` installs).
        self.engine = SensJoin()
        self.tree_seed = tree_seed
        #: Optional time-series sampler (docs/observability.md).  The broker
        #: feeds rolling service-level aggregates (latency percentiles,
        #: deadline-miss/retry/shed rates, throughput) and ticks the sampler
        #: as its synchronous clock advances batch to batch; ``None`` (the
        #: default) leaves every run byte-identical to a sampler-free build.
        self._sampler = sampler
        if sampler is not None:
            window_s = sampler.period_s * SLO_WINDOW_PERIODS
            self._lat_window = WindowedAggregate(window_s)
            self._completed_window = WindowedAggregate(window_s)
            self._retry_window = WindowedAggregate(window_s)
            self._miss_window = WindowedAggregate(window_s)
            self._shed_window = WindowedAggregate(window_s)
            # The tree is re-grafted on heal, so the watch needs a live view.
            sampler.watch_tree(lambda: self.tree)
            sampler.add_probe(self._service_probe)
        if isinstance(churn, ChurnModel):
            plan = churn.materialize(network)
        elif churn is not None:
            plan = churn
        else:
            plan = FaultPlan.empty()
        for fault in plan:
            if fault.kind == LOSS_BURST:
                raise ValueError(
                    "loss bursts need the DES engine's in-flight ARQ; "
                    "the broker replays topology churn only"
                )
        self._churn_faults: Tuple[Fault, ...] = tuple(plan)
        self._churn_index = 0
        #: Resilient ladder active: churn scheduled or a deadline configured.
        self._resilient = bool(self._churn_faults) or config.deadline is not None
        self._backoff_rng = random.Random(
            f"broker-backoff-{(config.deadline or DeadlinePolicy()).seed}"
        )
        self._oracles: Dict[str, Tuple[frozenset, int]] = {}
        self._repairs = 0
        self._repair_beacons = 0
        self._repair_energy_j = 0.0
        self._repair_tx_packets = 0.0
        self._orphaned_nodes = 0
        self._aborted_energy_j = 0.0
        self._aborted_tx_packets = 0.0

    # -- time-series sampling ------------------------------------------------

    def _service_probe(self, now: float) -> List[Tuple[str, Dict[str, str], float]]:
        """Rolling SLO aggregates over the last ``SLO_WINDOW_PERIODS`` ticks."""
        for window in (
            self._lat_window, self._completed_window, self._retry_window,
            self._miss_window, self._shed_window,
        ):
            window.advance(now)
        readings: List[Tuple[str, Dict[str, str], float]] = [
            ("broker_throughput_qps", {}, self._completed_window.rate()),
            ("broker_retry_rate", {}, self._retry_window.rate()),
            ("broker_deadline_miss_rate", {}, self._miss_window.rate()),
            ("broker_shed_rate", {}, self._shed_window.rate()),
        ]
        if self._lat_window.count:
            readings.extend([
                ("broker_wave_latency_p50_s", {}, self._lat_window.percentile(0.5)),
                ("broker_wave_latency_p95_s", {}, self._lat_window.percentile(0.95)),
                ("broker_wave_latency_max_s", {}, self._lat_window.maximum),
            ])
        return readings

    def _reset_accounting(self) -> None:
        """Reset per-epoch accounting, banking cumulative gauges first.

        Every epoch starts from a fresh statistics store (energy shares are
        per-epoch deltas), but the sampler's per-node gauges are cumulative —
        the watch must fold the current readings into its base offsets before
        the wipe or the time series would saw-tooth back to zero each batch.
        """
        if self._sampler is not None:
            self._sampler.note_network_reset()
        self.network.reset_accounting()

    # -- admission loop ------------------------------------------------------

    def run(self, requests: Sequence[QueryRequest]) -> BrokerReport:
        """Drain the request stream; returns the per-query outcome report."""
        telemetry = self.telemetry if self.telemetry.enabled else None
        # Instrument the whole run, not just the serial path: the shared and
        # resilient epochs (and repair beacons) charge the channel directly,
        # and their per-node/per-phase counters must land in the registry for
        # the network's energy total to reconcile (docs/observability.md).
        with instrumented(self.network, telemetry):
            return self._run(requests)

    def _run(self, requests: Sequence[QueryRequest]) -> BrokerReport:
        pending = sorted(requests, key=lambda r: (r.arrival_s, r.query_id))
        outcomes: List[QueryOutcome] = []
        reg = self.telemetry.registry
        if self._resilient:
            # Sample readings once, pre-churn, and fix the lossless oracle
            # per distinct query: recall is measured against what the full,
            # unchurned deployment would have answered (§IV-F).  Batches
            # must not re-snapshot — churned nodes keep their pre-churn
            # readings, so every delivered result is comparable.
            self.world.take_snapshot(0.0)
            for request in pending:
                key = request.query.sql()
                if key not in self._oracles:
                    oracle = oracle_result(
                        ExecutionContext(
                            network=self.network, tree=self.tree,
                            world=self.world, query=request.query,
                        )
                    )
                    self._oracles[key] = (
                        frozenset(oracle.combinations),
                        oracle.match_count,
                    )
        clock = 0.0
        batch_index = 0
        total_energy = 0.0
        total_tx = 0
        composed_total = 0
        piggyback_total = 0
        group_total = 0
        shed_count = 0
        index = 0
        while index < len(pending):
            start = max(clock, pending[index].arrival_s)
            batch: List[QueryRequest] = []
            while (
                index < len(pending)
                and len(batch) < self.config.concurrency
                and pending[index].arrival_s <= start
            ):
                batch.append(pending[index])
                index += 1
            if self.config.admission_depth is not None:
                # Overload shedding: of the requests already waiting behind
                # this batch, only admission_depth may keep queueing; the
                # newest arrivals beyond that are dropped terminally.
                waiting_end = index
                while (
                    waiting_end < len(pending)
                    and pending[waiting_end].arrival_s <= start
                ):
                    waiting_end += 1
                keep_end = min(index + self.config.admission_depth, waiting_end)
                for request in pending[keep_end:waiting_end]:
                    shed = self._shed_outcome(request, start, batch_index)
                    outcomes.append(shed)
                    shed_count += 1
                    if self._sampler is not None:
                        self._shed_window.observe(start, 1.0)
                    self.tracer.emit(
                        start, BASE_STATION_ID, BROKER_SHED,
                        query=request.query_id,
                        backlog=waiting_end - index,
                        depth=self.config.admission_depth,
                    )
                    if reg.enabled:
                        reg.counter("broker_shed_total").inc()
                pending = pending[:keep_end] + pending[waiting_end:]
            for request in batch:
                self.tracer.emit(
                    start, BASE_STATION_ID, BROKER_ADMIT,
                    query=request.query_id, waited_s=round(start - request.arrival_s, 6),
                )
            share = self.config.share_work and len(batch) > 1
            self.tracer.emit(
                start, BASE_STATION_ID, BROKER_BATCH,
                index=batch_index, size=len(batch), shared=share,
            )
            batch_outcomes, stats = self._execute_batch(batch, start, batch_index)
            composed_total += stats["composed_filters"]
            piggyback_total += stats["piggybacked_broadcasts"]
            group_total += stats["share_groups"]
            for outcome in batch_outcomes:
                total_energy += outcome.energy_share_j
                total_tx += outcome.tx_share_packets
                clock = max(clock, outcome.completed_s)
                self.tracer.emit(
                    outcome.completed_s, BASE_STATION_ID, BROKER_COMPLETE,
                    query=outcome.request.query_id,
                    latency_s=round(outcome.latency_s, 6),
                )
                if outcome.status == "degraded":
                    self.tracer.emit(
                        outcome.completed_s, BASE_STATION_ID, BROKER_DEGRADED,
                        query=outcome.request.query_id,
                        recall=round(outcome.recall, 6),
                        error=(
                            type(outcome.error.cause).__name__
                            if outcome.error is not None and outcome.error.cause
                            else ""
                        ),
                    )
                    if reg.enabled:
                        reg.counter("broker_degraded_total").inc()
                if reg.enabled:
                    reg.counter("broker_queries_total").inc()
                    reg.histogram("broker_query_latency_seconds").observe(
                        outcome.latency_s
                    )
            outcomes.extend(batch_outcomes)
            if self._sampler is not None:
                # Windows demand time-ordered observations; batch outcomes
                # are ordered by query id, so re-sort by completion.
                for outcome in sorted(batch_outcomes, key=lambda o: o.completed_s):
                    self._lat_window.observe(outcome.completed_s, outcome.latency_s)
                    self._completed_window.observe(outcome.completed_s, 1.0)
                self._sampler.advance_to(clock)
            if reg.enabled:
                reg.counter("broker_batches_total").inc()
            batch_index += 1
        if reg.enabled:
            reg.counter("broker_share_groups_total").inc(group_total)
            reg.counter("broker_composed_filters_total").inc(composed_total)
            reg.counter("broker_piggybacked_broadcasts_total").inc(piggyback_total)
        details = {
            "queries": float(len(outcomes)),
            "batches": float(batch_index),
            "share_groups": float(group_total),
            "composed_filters": float(composed_total),
            "piggybacked_broadcasts": float(piggyback_total),
            "makespan_s": clock,
        }
        if self._resilient or self.config.admission_depth is not None:
            # Churn bookkeeping rides only on resilient runs so the
            # historical report shape stays byte-identical without churn.
            executed = [o for o in outcomes if o.status != "shed"]
            details["completed"] = float(
                sum(1 for o in outcomes if o.status == "completed")
            )
            details["degraded"] = float(
                sum(1 for o in outcomes if o.status == "degraded")
            )
            details["shed"] = float(shed_count)
            details["mean_recall"] = (
                sum(o.recall for o in executed) / len(executed) if executed else 1.0
            )
            details["min_recall"] = (
                min(o.recall for o in executed) if executed else 1.0
            )
            details["churn_faults_applied"] = float(self._churn_index)
            details["repairs"] = float(self._repairs)
            details["repair_beacons"] = float(self._repair_beacons)
            details["repair_energy_j"] = self._repair_energy_j
            details["orphaned_nodes"] = float(self._orphaned_nodes)
            details["aborted_energy_j"] = self._aborted_energy_j
            total_energy += self._repair_energy_j + self._aborted_energy_j
            total_tx += self._repair_tx_packets + self._aborted_tx_packets
        if self._sampler is not None:
            # One off-grid sample at the makespan so the final state of every
            # gauge is in the export even when the run ends between ticks.
            self._sampler.flush(clock)
        return BrokerReport(
            outcomes=outcomes,
            total_energy_j=total_energy,
            total_tx_packets=int(round(total_tx)),
            batch_count=batch_index,
            details=details,
        )

    # -- batch execution: the degradation ladder over epochs ------------------

    def _execute_batch(
        self, batch: List[QueryRequest], start: float, batch_index: int
    ) -> Tuple[List[QueryOutcome], Dict[str, float]]:
        """Run one admitted batch as epochs down the degradation ladder.

        A shared batch runs as one epoch over its share groups.  While an
        epoch is disrupted (a churn fault landed inside it, or it blew the
        deadline's budget) it is retried after a seeded exponential backoff;
        after ``max_retries`` retries the groups split.  An unshared or split
        batch runs each member as an epoch of its own, back to back; a member
        whose epoch races a churn fault gets one re-run, accepted as is.
        Without churn and deadline nothing is ever disrupted, so every first
        epoch is final.
        """
        policy = self.config.deadline or DeadlinePolicy()
        reg = self.telemetry.registry
        clock = start
        attempts = 0
        if self.config.share_work and len(batch) > 1:
            groups = _share_groups(batch)
            for attempt, backoff in policy.schedule():
                self._advance_churn(clock)
                attempts += 1
                outcomes, piggybacked = self._run_epoch(groups, clock, clock, batch_index)
                epoch_end = max(o.completed_s for o in outcomes)
                timed_out = (
                    policy.timeout_s is not None
                    and epoch_end - clock > policy.timeout_s
                )
                if not timed_out and not self._churn_between(clock, epoch_end):
                    for outcome in outcomes:
                        outcome.attempts = attempts
                        self._finalize_outcome(outcome)
                    return outcomes, {
                        "share_groups": float(len(groups)),
                        "composed_filters": float(
                            sum(1 for members in groups if len(members) > 1)
                        ),
                        "piggybacked_broadcasts": float(piggybacked),
                    }
                self._absorb_aborted_epoch()
                if backoff is None:
                    clock = epoch_end
                    break
                delay = backoff * (1.0 + self._backoff_rng.random() * 0.5)
                if self._sampler is not None:
                    self._retry_window.observe(epoch_end, 1.0)
                    if timed_out:
                        self._miss_window.observe(epoch_end, 1.0)
                self.tracer.emit(
                    epoch_end, BASE_STATION_ID, BROKER_RETRY,
                    batch=batch_index, attempt=attempt + 1,
                    delay_s=round(delay, 6), timed_out=timed_out,
                )
                if reg.enabled:
                    reg.counter("broker_retries_total").inc()
                clock = epoch_end + delay
            self.tracer.emit(
                clock, BASE_STATION_ID, BROKER_GROUP_SPLIT,
                batch=batch_index, size=len(batch),
            )
            if reg.enabled:
                reg.counter("broker_group_splits_total").inc()
        outcomes = []
        admitted_s = clock
        for request in batch:
            self._advance_churn(clock)
            [outcome], _ = self._run_epoch([[request]], clock, admitted_s, batch_index)
            outcome.attempts = attempts + 1
            if outcome.error is None and self._churn_between(clock, outcome.completed_s):
                self._absorb_aborted_epoch()
                self._advance_churn(outcome.completed_s)
                [outcome], _ = self._run_epoch(
                    [[request]], outcome.completed_s, admitted_s, batch_index
                )
                outcome.attempts = attempts + 2
            self._finalize_outcome(outcome)
            outcomes.append(outcome)
            clock = outcome.completed_s
        stats = {
            "share_groups": float(len(batch)),
            "composed_filters": 0.0,
            "piggybacked_broadcasts": 0.0,
        }
        return outcomes, stats

    def _run_epoch(
        self,
        groups: Sequence[List[QueryRequest]],
        start: float,
        admitted_s: float,
        batch_index: int,
    ) -> Tuple[List[QueryOutcome], int]:
        """One network epoch through SENS-Join's own phases.

        Each share group runs Join-Attribute-Collection once and unites its
        members' filters; every group's filter rides one dissemination wave;
        each group runs its final phase, and every further member is
        evaluated exactly over the group's arrived tuples.  A phase that
        raises marks only its own group: its members come back degraded with
        a :class:`~repro.errors.BrokerError`, the other groups carry on.
        An epoch of one query is exactly that query's ``run_snapshot``.

        Readings are refreshed at ``start`` unless the resilient ladder is on
        (its readings were sampled once, pre-churn; see :meth:`run`).
        Returns the outcomes by query id and how many broadcasts carried
        more than one group's filter.
        """
        network, tree, world, engine = self.network, self.tree, self.world, self.engine
        requests = [request for members in groups for request in members]
        self._reset_accounting()
        energy_mark = 0.0
        tx_mark = 0.0

        def take_delta() -> Tuple[float, float]:
            nonlocal energy_mark, tx_mark
            energy = network.total_energy()
            tx = float(network.stats.total_tx_packets())
            delta = (energy - energy_mark, tx - tx_mark)
            energy_mark, tx_mark = energy, tx
            return delta

        # One piggybacked flood disseminates every admitted query's text.
        if self.config.disseminate_queries:
            flood_batch(network, [len(r.query.sql().encode()) for r in requests])
        if not self._resilient:
            world.take_snapshot(start)
        flood_energy, flood_tx = take_delta()

        epoch: List[_Group] = []
        for members in groups:
            context = ExecutionContext(
                network=network, tree=tree, world=world, query=members[0].query
            )
            group = _Group(members, engine.begin(context))
            epoch.append(group)
            try:
                points = engine.collect(group.run)
                # sharing_signature fixes the aliases, join attributes and
                # quantizer, so every member's filter is built on the
                # group's format.
                group.run.join_filter = compose_filters(
                    build_join_filter(group.run.fmt, points, r.query) for r in members
                )
            except Exception as exc:
                group.error = exc
            else:
                if len(members) > 1:
                    self.tracer.emit(
                        group.run.finish_s, BASE_STATION_ID, FILTER_COMPOSED,
                        queries=len(members), points=len(group.run.join_filter),
                    )
            group.energy_j, group.tx_packets = take_delta()

        live = [group.run for group in epoch if group.error is None]
        piggybacked = 0
        if live:
            piggybacked = engine.disseminate(
                live, max(group.run.finish_s for group in epoch)
            )
        wave_energy, wave_tx = take_delta()
        # Query flooding and the filter wave serve the whole batch; their
        # cost is split evenly.
        shared_energy = (wave_energy + flood_energy) / len(requests)
        shared_tx = (wave_tx + flood_tx) / len(requests)

        overhead = 3 * tree.height * constants.DEFAULT_LEVEL_SLOT_S
        outcomes: List[QueryOutcome] = []
        for group in epoch:
            result: Optional[JoinResult] = None
            if group.error is None:
                try:
                    result = engine.final(group.run)
                except Exception as exc:
                    group.error = exc
            energy, tx = take_delta()
            group.energy_j += energy
            group.tx_packets += tx
            completed = start + (overhead + group.run.finish_s)
            size = len(group.members)
            for index, request in enumerate(group.members):
                error = group.error
                if error is None and index > 0:
                    try:
                        result = evaluate_arrived(
                            request.query, group.run.fmt, group.run.arrived
                        )
                    except Exception as exc:
                        error = exc
                if len(requests) == 1:
                    # A lone query pays for the whole epoch, read off the store.
                    energy_share = network.total_energy()
                    tx_share = float(network.stats.total_tx_packets())
                else:
                    energy_share = group.energy_j / size + shared_energy
                    tx_share = group.tx_packets / size + shared_tx
                outcomes.append(
                    QueryOutcome(
                        request=request,
                        result=result if error is None else _empty_result(request.query),
                        admitted_s=admitted_s,
                        completed_s=completed,
                        latency_s=completed - request.arrival_s,
                        energy_share_j=energy_share,
                        tx_share_packets=tx_share,
                        group_size=size,
                        batch_index=batch_index,
                        status="completed" if error is None else "degraded",
                        recall=1.0 if error is None else 0.0,
                        error=None if error is None else BrokerError(
                            f"query {request.query_id} failed: {error}",
                            query_id=request.query_id,
                            cause=error,
                        ),
                    )
                )
        outcomes.sort(key=lambda o: o.request.query_id)
        return outcomes, piggybacked

    # -- churn replay and bookkeeping ----------------------------------------

    def _advance_churn(self, now: float) -> None:
        """Apply every scheduled fault due by ``now``, then heal the tree."""
        applied = False
        while (
            self._churn_index < len(self._churn_faults)
            and self._churn_faults[self._churn_index].time_s <= now
        ):
            fault = self._churn_faults[self._churn_index]
            apply_fault(self.network, fault)
            record_fault(self.telemetry, fault.time_s, fault)
            self._churn_index += 1
            applied = True
        if applied:
            self._heal_tree(now)

    def _heal_tree(self, now: float) -> None:
        """Localized re-attach over the churned topology, cost in the store.

        The beacon deltas are banked immediately: the next epoch's
        ``reset_accounting`` swaps the store out, so repair cost lives in the
        broker's own accumulators and is added to the report total.
        """
        network = self.network
        energy_before = network.total_energy()
        tx_before = float(network.stats.total_tx_packets())
        heal = reattach_tree(network, self.tree, seed=self.tree_seed, time_s=now)
        self.tree = heal.tree
        self._repairs += 1
        self._repair_beacons += heal.beacons
        self._orphaned_nodes += len(heal.orphaned)
        self._repair_energy_j += network.total_energy() - energy_before
        self._repair_tx_packets += (
            float(network.stats.total_tx_packets()) - tx_before
        )

    def _churn_between(self, start_s: float, end_s: float) -> bool:
        """Is any not-yet-applied fault due in ``(start_s, end_s]``?"""
        for fault in self._churn_faults[self._churn_index:]:
            if fault.time_s > end_s:
                return False
            if fault.time_s > start_s:
                return True
        return False

    def _absorb_aborted_epoch(self) -> None:
        """Bank the cost of a disrupted epoch whose results were discarded."""
        self._aborted_energy_j += self.network.total_energy()
        self._aborted_tx_packets += float(self.network.stats.total_tx_packets())

    def _finalize_outcome(self, outcome: QueryOutcome) -> None:
        """Stamp terminal status and recall against the pre-churn oracle."""
        if not self._resilient or outcome.status == "shed":
            return
        if outcome.error is not None:
            outcome.status = "degraded"
            outcome.recall = 0.0
            return
        oracle_set, oracle_count = self._oracles[outcome.request.query.sql()]
        if oracle_count == 0:
            outcome.recall = 1.0
        else:
            delivered = set(outcome.result.combinations) & oracle_set
            outcome.recall = len(delivered) / oracle_count
        outcome.status = (
            "completed"
            if outcome.recall >= 1.0 - _RECALL_EPSILON
            else "degraded"
        )

    def _shed_outcome(
        self, request: QueryRequest, start: float, batch_index: int
    ) -> QueryOutcome:
        """Terminal record for a request dropped at admission."""
        return QueryOutcome(
            request=request,
            result=_empty_result(request.query),
            admitted_s=start,
            completed_s=start,
            latency_s=start - request.arrival_s,
            energy_share_j=0.0,
            tx_share_packets=0.0,
            group_size=0,
            batch_index=batch_index,
            status="shed",
            recall=0.0,
            attempts=0,
        )


def _empty_result(query: JoinQuery) -> JoinResult:
    """The zero-match result shape for degraded and shed outcomes."""
    return JoinResult.from_lists(tuple(query.aliases), [], [])

