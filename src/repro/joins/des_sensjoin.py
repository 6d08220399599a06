"""SENS-Join as actual message-passing processes on the DES kernel.

The production implementation (:class:`repro.joins.sensjoin.SensJoin`) runs
the protocol as synchronous tree traversals — exact and fast, but the
schedule is implicit.  This module is an *independent second implementation*
in the event-driven style of the paper's Fig. 1: every node is a kernel
process that sleeps between phases, waits for its children's messages,
applies the Fig. 2/3 logic, and sends.  Nothing here shares protocol code
with the fast path (only the codec, the quantizer,
:func:`~repro.joins.filterbuild.build_join_filter` and the base-station
evaluator :func:`~repro.joins.base.evaluate_arrived` are reused — they
define the wire format and the exact final join, not the protocol).

Purpose: equivalence testing.  ``tests/test_joins_des.py`` asserts that for
the paper's default configuration the DES engine produces *identical*
per-phase transmission counts, per-node loads, and join results as the fast
path — a strong check that the synchronous traversals faithfully implement
the distributed protocol.  (The DES engine supports the paper's defaults
only: quadtree representation; Treecut and Selective Filter Forwarding on.)

Fault injection and recovery (§IV-F)
------------------------------------
Constructed with a :class:`~repro.sim.faults.FaultPlan`, the engine
additionally exercises the paper's error-tolerance loop *in-flight*: a
:class:`~repro.sim.faults.FaultInjector` applies node crashes, link drops
and loss bursts at simulated times on the shared kernel.  A send over a
dead link spends its ARQ budget and delivers nothing, so the message never
arrives, the waiting ancestors starve, and the protocol stalls.  The base
station detects the stall (the simulation goes quiet, backstopped by a
per-phase wall-clock budget), emits a ``phase-timeout`` trace event,
interrupts the surviving processes, lets CTP repair the tree
(``tree-repair``), waits out a backoff, and re-executes the query on the
same kernel timeline — so every aborted attempt's partially spent
transmissions and energy stay in the statistics store.  The retries and
their backoffs come from :meth:`~repro.sim.faults.RetryPolicy.schedule`.
After ``max_retries`` failed repairs the :class:`RecoveryPolicy` either raises
:class:`~repro.errors.ExecutionAborted` or returns the partial result
flagged with ``details["partial"]`` (graceful degradation).

Completeness is reported against the lossless oracle computed centrally
before the first fault: ``details["recall"]``, the delivered base-station
subtrees, and full tuples lost because their Treecut proxy died.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from .. import constants
from ..codec.quadtree import FlaggedPoint
from ..codec.setops import intersect_points, union_points
from ..errors import ExecutionAborted
from ..obs.telemetry import Telemetry, instrumented
from ..obs.timeseries import MetricsSampler
from ..query.evaluate import JoinResult
from ..routing.ctp import reattach_tree, repair_tree
from ..routing.tree import RoutingTree
from ..sim.faults import FaultInjector, FaultPlan, RetryPolicy
from ..sim.kernel import Environment, Event, Process
from ..sim.network import Network
from ..sim.node import BASE_STATION_ID
from ..sim.trace import PHASE_TIMEOUT, TREE_REPAIR
from .base import (
    ExecutionContext,
    FullTupleRecord,
    JoinAlgorithm,
    JoinOutcome,
    TupleFormat,
    evaluate_arrived,
    node_tuple,
    oracle_result,
)
from .filterbuild import build_join_filter
from .sensjoin import PHASE_COLLECTION, PHASE_FILTER, PHASE_FINAL

__all__ = ["DesSensJoin", "RecoveryPolicy"]


@dataclass(frozen=True)
class RecoveryPolicy(RetryPolicy):
    """Timeout/retry semantics of the §IV-F recovery loop.

    ``phase_timeout_s`` is the base station's per-phase wall-clock budget
    (the watchdog backstop; the primary stall signal is the simulation
    going quiet).  ``None`` derives a generous budget from the tree size.
    After an abort the re-execution starts ``backoff_s`` later, doubling
    per retry by ``backoff_factor`` — CTP needs time to re-converge, and
    immediate retries under a loss burst would just burn energy.

    ``on_exhaustion`` decides what happens once ``max_retries`` repairs
    were not enough: ``"raise"`` aborts with
    :class:`~repro.errors.ExecutionAborted`; ``"partial"`` (the default)
    returns whatever reached the base station, flagged with
    ``details["partial"] = 1.0`` — graceful degradation as a policy.

    ``repair`` selects how the tree heals between attempts:
    ``"rebuild"`` (default, the historical behaviour) re-converges globally
    via :func:`~repro.routing.ctp.repair_tree`; ``"reattach"`` heals
    incrementally via :func:`~repro.routing.ctp.reattach_tree` — detached
    subtrees graft onto the nearest live parent through a localized beacon
    exchange whose cost lands in the statistics store, and nodes that rejoined
    mid-attempt are adopted into the tree instead of being ignored.
    """

    max_retries: int = 3
    backoff_s: float = 0.5
    phase_timeout_s: Optional[float] = None
    on_exhaustion: str = "partial"
    repair: str = "rebuild"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.phase_timeout_s is not None and self.phase_timeout_s <= 0:
            raise ValueError(
                f"phase_timeout_s must be positive, got {self.phase_timeout_s}"
            )
        if self.on_exhaustion not in ("partial", "raise"):
            raise ValueError(
                f"on_exhaustion must be 'partial' or 'raise', "
                f"got {self.on_exhaustion!r}"
            )
        if self.repair not in ("rebuild", "reattach"):
            raise ValueError(
                f"repair must be 'rebuild' or 'reattach', got {self.repair!r}"
            )


@dataclass
class _Mailbox:
    """Per-node inbox for one protocol phase."""

    #: Complete tuples (Treecut payloads) received from children.
    full_tuples: List[FullTupleRecord] = field(default_factory=list)
    full_bytes: int = 0
    joinatt_children: int = 0
    points: FrozenSet[FlaggedPoint] = frozenset()
    #: Pruned filter received from the parent (phase 1b).
    filter_points: Optional[FrozenSet[FlaggedPoint]] = None
    #: Final-phase tuples and bytes from children.
    final_tuples: List[FullTupleRecord] = field(default_factory=list)
    final_bytes: int = 0


@dataclass
class _AttemptState:
    """Everything one protocol execution attempt allocates on the kernel."""

    mailboxes: Dict[int, _Mailbox]
    done_1a: Dict[int, Event]
    filter_ready: Dict[int, Event]
    done_final: Dict[int, Event]
    exited: Dict[int, bool]
    proxy_records: Dict[int, List[FullTupleRecord]]
    procs: Dict[int, Process]
    details: Dict[str, float]


class DesSensJoin(JoinAlgorithm):
    """Event-driven reference implementation (paper defaults only).

    Without a ``fault_plan`` (or with an empty one) the engine runs the
    plain protocol and is byte-for-byte equivalent to previous behaviour.
    With a plan it runs the full §IV-F loop described in the module
    docstring; ``recovery`` tunes the timeout/retry semantics and
    ``repair_seed`` the tie-breaking of repaired trees.  Spans and events
    go to the run's telemetry, read from ``network.channel.telemetry``
    under the kernel clock.
    """

    name = "sens-join[des]"

    def __init__(
        self,
        fault_plan: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
        repair_seed: int = 0,
        sampler: Optional[MetricsSampler] = None,
    ):
        self.fault_plan = fault_plan
        self.recovery = recovery
        #: Optional time-series sampler; attached to the kernel as a periodic
        #: process at :meth:`execute` so registered probes snapshot gauges
        #: every ``period_s`` of *simulated* time (docs/observability.md).
        self.sampler = sampler
        self.repair_seed = repair_seed

    def execute(self, context: ExecutionContext) -> JoinOutcome:
        """Run the protocol as kernel processes; see the module docstring."""
        network, tree = context.network, context.tree
        fmt = context.tuple_format()
        env = Environment()
        if self.sampler is not None:
            # A perpetual periodic process: every env.run below is bounded
            # (until=...), so the ticker samples while the protocol runs and
            # simply stops being scheduled once the run target fires.
            self.sampler.attach(env)
        if self.fault_plan is None or not self.fault_plan:
            tel = network.channel.telemetry.with_clock(lambda: env.now)
            state = self._spawn_attempt(env, network, tree, fmt)
            if tel.enabled:
                # Drive the run in two stages so the collection/downstream
                # boundary lands on a span edge; the kernel's event order is
                # deterministic, so staging does not change the execution.
                children = tree.children(BASE_STATION_ID)
                with tel.span(
                    PHASE_COLLECTION, node_id=BASE_STATION_ID, protocol=self.name
                ):
                    env.run(until=env.all_of([state.done_1a[c] for c in children]))
                with tel.span(
                    "filter-and-final", node_id=BASE_STATION_ID, protocol=self.name
                ):
                    env.run(until=state.done_final[BASE_STATION_ID])
            else:
                env.run(until=state.done_final[BASE_STATION_ID])
            if self.sampler is not None:
                self.sampler.flush(env.now)
            return JoinOutcome(
                algorithm=self.name,
                result=self._evaluate(context, fmt, state),
                stats=network.stats,
                response_time_s=(
                    3 * tree.height * constants.DEFAULT_LEVEL_SLOT_S + env.now
                ),
                details=dict(state.details),
            )
        return self._execute_with_faults(context, env, fmt)

    # -- §IV-F recovery loop -------------------------------------------------

    def _execute_with_faults(
        self, context: ExecutionContext, env: Environment, fmt: TupleFormat
    ) -> JoinOutcome:
        network, tree = context.network, context.tree
        tel = network.channel.telemetry.with_clock(lambda: env.now)
        reg = tel.registry
        policy = self.recovery or RecoveryPolicy()

        # The completeness reference, taken before the first fault strikes.
        oracle = oracle_result(context)

        # The injector outlives attempts; it must always interrupt the
        # *current* attempt's process for a crashed node.
        live: Dict[str, _AttemptState] = {}

        def kill_process(node_id: int) -> None:
            state = live.get("state")
            if state is None:
                return
            proc = state.procs.get(node_id)
            if proc is not None and proc.is_alive:
                proc.interrupt("node-crash")

        injector = FaultInjector(env, network, self.fault_plan, on_node_crash=kill_process)
        injector.start()

        aborted_attempts = 0
        aborted_tx = 0
        aborted_energy = 0.0
        repairs = 0
        repair_beacons = 0
        orphaned = 0
        tx_mark = network.stats.total_tx_packets()
        energy_mark = network.total_energy()
        completed = False
        state: Optional[_AttemptState] = None

        # The fault injector and tree repair read the run's telemetry from
        # the channel; install the kernel-clocked copy for the loop.
        with instrumented(network, tel):
            for attempt, backoff in policy.schedule():
                if reg.enabled:
                    reg.counter("recovery_attempts_total", protocol=self.name).inc()
                with tel.span(
                    "recovery-attempt", node_id=BASE_STATION_ID,
                    protocol=self.name, attempt=attempt,
                ) as attempt_span:
                    state = self._spawn_attempt(env, network, tree, fmt)
                    live["state"] = state
                    completed = self._monitor_attempt(
                        env, network, tree, state, policy, attempt, tel
                    )
                    attempt_span.labels["completed"] = completed
                if completed:
                    break
                self._abort_attempt(env, state)
                aborted_attempts += 1
                now_tx = network.stats.total_tx_packets()
                now_energy = network.total_energy()
                aborted_tx += now_tx - tx_mark
                aborted_energy += now_energy - energy_mark
                tx_mark, energy_mark = now_tx, now_energy
                if backoff is None:
                    break
                with tel.span(
                    "tree-repair-and-backoff", node_id=BASE_STATION_ID,
                    protocol=self.name, attempt=attempt,
                ):
                    if policy.repair == "reattach":
                        # Incremental self-healing: graft detached subtrees
                        # (and any nodes that rejoined mid-attempt) onto the
                        # nearest live parent; the beacon exchange is charged
                        # to the store under the tree-maintenance phase.
                        heal = reattach_tree(
                            network, tree, seed=self.repair_seed, time_s=env.now
                        )
                        tree = heal.tree
                        repairs += 1
                        repair_beacons += heal.beacons
                        orphaned = len(heal.orphaned)
                    else:
                        report = repair_tree(network, tree, seed=self.repair_seed)
                        tree = report.tree
                        repairs += 1
                        orphaned = len(report.orphaned)
                        tel.tracer.emit(
                            env.now, BASE_STATION_ID, TREE_REPAIR,
                            attempt=attempt,
                            reparented=len(report.reparented),
                            orphaned=len(report.orphaned),
                        )
                    if backoff > 0:
                        env.run(until=env.now + backoff)

        if not completed and policy.on_exhaustion == "raise":
            raise ExecutionAborted(
                f"query did not complete within {policy.max_retries} "
                f"retries under the injected fault plan"
            )

        assert state is not None
        result = self._evaluate(context, fmt, state)
        details = dict(state.details)
        details["retries"] = float(aborted_attempts)
        details["repairs"] = float(repairs)
        if policy.repair == "reattach":
            # Only reported for the incremental strategy so the historical
            # rebuild path keeps its exact details shape.
            details["repair_beacons"] = float(repair_beacons)
        details["orphaned_nodes"] = float(orphaned)
        details["partial"] = 0.0 if completed else 1.0
        details["aborted_tx_packets"] = float(aborted_tx)
        details["aborted_energy"] = aborted_energy
        details["faults_applied"] = float(len(injector.applied))
        details["recall"] = (
            result.match_count / oracle.match_count if oracle.match_count else 1.0
        )
        children = tree.children(BASE_STATION_ID)
        delivered = sum(
            1
            for child in children
            if state.exited.get(child) or state.done_final[child].processed
        )
        details["subtrees_total"] = float(len(children))
        details["subtrees_delivered"] = float(delivered)
        # Full tuples that exited with a Treecut and were buffered at a proxy
        # that died before forwarding them: lost without any trace on the
        # wire — exactly the completeness gap §IV-F's re-execution papers
        # over, made visible here.
        details["lost_proxy_tuples"] = float(
            sum(
                len(records)
                for node_id, records in state.proxy_records.items()
                if not network.nodes[node_id].alive
            )
        )
        if self.sampler is not None:
            self.sampler.flush(env.now)
        return JoinOutcome(
            algorithm=self.name,
            result=result,
            stats=network.stats,
            response_time_s=(
                3 * tree.height * constants.DEFAULT_LEVEL_SLOT_S + env.now
            ),
            details=details,
        )

    def _monitor_attempt(
        self,
        env: Environment,
        network: Network,
        tree: RoutingTree,
        state: _AttemptState,
        policy: RecoveryPolicy,
        attempt: int,
        tel: Telemetry,
    ) -> bool:
        """Drive one attempt with the base station's per-phase watchdog.

        Returns True when the final result arrived; False on a stall, with
        a ``phase-timeout`` trace event naming the starved phase.
        """
        tracer, reg = tel.tracer, tel.registry
        budget = (
            policy.phase_timeout_s
            if policy.phase_timeout_s is not None
            else self._phase_budget(tree)
        )
        children = tree.children(BASE_STATION_ID)
        collection = env.all_of([state.done_1a[child] for child in children])
        with tel.span(
            PHASE_COLLECTION, node_id=BASE_STATION_ID,
            protocol=self.name, attempt=attempt,
        ) as sp:
            arrived = env.run_until(collection, env.now + budget)
            sp.ok = arrived
        if not arrived:
            waiting = sum(
                1 for child in children if not state.done_1a[child].processed
            )
            if reg.enabled:
                reg.counter(
                    "phase_timeouts_total", phase=PHASE_COLLECTION, protocol=self.name
                ).inc()
            tracer.emit(
                env.now, BASE_STATION_ID, PHASE_TIMEOUT,
                phase=PHASE_COLLECTION, attempt=attempt, waiting=waiting,
            )
            return False
        # Filter dissemination and final collection ride on one watchdog:
        # the base process drives 1b itself and then awaits phase 2.
        with tel.span(
            "filter-and-final", node_id=BASE_STATION_ID,
            protocol=self.name, attempt=attempt,
        ) as sp:
            finished = env.run_until(
                state.done_final[BASE_STATION_ID], env.now + 2 * budget
            )
            sp.ok = finished
        if not finished:
            stalled_filter = any(
                not state.filter_ready[node_id].processed
                for node_id in tree.node_ids
                if node_id != BASE_STATION_ID
                and not state.exited.get(node_id)
                and network.nodes[node_id].alive
            )
            starved = PHASE_FILTER if stalled_filter else PHASE_FINAL
            if reg.enabled:
                reg.counter(
                    "phase_timeouts_total", phase=starved, protocol=self.name
                ).inc()
            tracer.emit(
                env.now, BASE_STATION_ID, PHASE_TIMEOUT,
                phase=starved, attempt=attempt,
            )
            return False
        return True

    @staticmethod
    def _phase_budget(tree: RoutingTree) -> float:
        """Wall-clock backstop per phase; stalls are usually caught earlier
        (the event queue drains the moment nothing can make progress)."""
        return (
            max(10.0, 0.1 * len(tree.node_ids))
            + 3 * tree.height * constants.DEFAULT_LEVEL_SLOT_S
        )

    @staticmethod
    def _abort_attempt(env: Environment, state: _AttemptState) -> None:
        """Interrupt every surviving process of a stalled attempt."""
        for proc in state.procs.values():
            if proc.is_alive:
                proc.interrupt("attempt-aborted")
        # Deliver the interrupts at the current instant so no process of
        # this attempt can act during the backoff or the next attempt.
        env.run(until=env.now)

    # -- one protocol attempt ------------------------------------------------

    def _evaluate(
        self, context: ExecutionContext, fmt: TupleFormat, state: _AttemptState
    ) -> JoinResult:
        mailbox = state.mailboxes[BASE_STATION_ID]
        arrived = list(mailbox.final_tuples) + list(mailbox.full_tuples)
        return evaluate_arrived(context.query, fmt, arrived)

    def _spawn_attempt(
        self,
        env: Environment,
        network: Network,
        tree: RoutingTree,
        fmt: TupleFormat,
    ) -> _AttemptState:
        """Allocate fresh mailboxes/events and register the node processes.

        Only alive nodes get a process; a node that died earlier never
        signals, and its ancestors starve — which is precisely the stall
        the base-station watchdog exists to catch.
        """
        channel = network.channel
        mailboxes: Dict[int, _Mailbox] = {n: _Mailbox() for n in tree.node_ids}
        # Events: fired when a node has finished a phase.
        done_1a: Dict[int, Event] = {n: env.event() for n in tree.node_ids}
        filter_ready: Dict[int, Event] = {n: env.event() for n in tree.node_ids}
        done_final: Dict[int, Event] = {n: env.event() for n in tree.node_ids}
        exited: Dict[int, bool] = {n: False for n in tree.node_ids}
        subtree_atts: Dict[int, Optional[FrozenSet[FlaggedPoint]]] = {}
        proxy_records: Dict[int, List[FullTupleRecord]] = {}
        own_record: Dict[int, Optional[FullTupleRecord]] = {}
        own_point: Dict[int, Optional[FlaggedPoint]] = {}
        details: Dict[str, float] = {}

        def sensor_process(node_id: int):
            mailbox = mailboxes[node_id]
            children = tree.children(node_id)
            # ---- phase 1a: wait for every child, then act (Fig. 2) ----
            if children:
                yield env.all_of([done_1a[child] for child in children])
            record, flags = node_tuple(fmt, node_id)
            own_record[node_id] = record
            own_point[node_id] = (
                (flags, fmt.quantizer.encode(
                    {k: record.values[k] for k in fmt.join_attributes}
                ))
                if record is not None
                else None
            )
            own_bytes = fmt.full_tuple_bytes if record is not None else 0
            parent = tree.parent(node_id)
            all_full = mailbox.joinatt_children == 0
            total_full = mailbox.full_bytes + own_bytes
            if all_full and total_full <= constants.DEFAULT_TREECUT_DMAX_BYTES:
                # Treecut: hand over complete tuples and exit the query.
                records = list(mailbox.full_tuples)
                if record is not None:
                    records.append(record)
                payload = fmt.full_tuples_bytes(len(records))
                yield env.timeout(channel.latency_for(payload))
                channel.unicast(node_id, parent, payload, PHASE_COLLECTION)
                if not channel.last_send_delivered:
                    # The handover died with the link; the parent will
                    # starve and the base station's watchdog takes over.
                    return
                target = mailboxes[parent]
                target.full_tuples.extend(records)
                target.full_bytes += payload
                exited[node_id] = True
                done_1a[node_id].succeed()
                return
            # Proxy + SubtreeJoinAtts bookkeeping (Fig. 2 lines 20-21).
            proxy_records[node_id] = list(mailbox.full_tuples)
            stored = mailbox.points
            if stored and fmt.encoded_points_bytes(stored) > (
                constants.DEFAULT_SUBTREE_FILTER_LIMIT_BYTES
            ):
                subtree_atts[node_id] = None
            else:
                subtree_atts[node_id] = stored
            points = mailbox.points
            for proxied in proxy_records[node_id]:
                join_values = {k: proxied.values[k] for k in fmt.join_attributes}
                points = union_points(
                    points, [(proxied.flags, fmt.quantizer.encode(join_values))]
                )
            if own_point[node_id] is not None:
                points = union_points(points, [own_point[node_id]])
            payload = fmt.encoded_points_bytes(points)
            yield env.timeout(channel.latency_for(payload))
            channel.unicast(node_id, parent, payload, PHASE_COLLECTION)
            if not channel.last_send_delivered:
                return
            target = mailboxes[parent]
            target.points = union_points(target.points, points)
            target.joinatt_children += 1
            done_1a[node_id].succeed()

            # ---- phase 1b: receive the filter, prune, broadcast (Fig. 3) ----
            yield filter_ready[node_id]
            incoming = mailbox.filter_points or frozenset()
            awake = [child for child in children if not exited[child]]
            reached = list(awake)
            if incoming and awake:
                stored = subtree_atts[node_id]
                pruned = intersect_points(incoming, stored) if stored is not None else incoming
                if pruned:
                    payload = fmt.encoded_points_bytes(pruned)
                    yield env.timeout(channel.latency_for(payload))
                    channel.broadcast(node_id, awake, payload, PHASE_FILTER)
                    reached = list(channel.last_broadcast_reached)
                    for child in reached:
                        mailboxes[child].filter_points = pruned
            # Children the broadcast could not reach never wake up for the
            # later phases — their subtree starves (watchdog territory).
            for child in reached:
                filter_ready[child].succeed()

            # ---- phase 2: collect matching complete tuples ----
            if awake:
                yield env.all_of([done_final[child] for child in awake])
            payload = mailbox.final_bytes
            records_out = list(mailbox.final_tuples)
            filter_flags: Dict[int, int] = {}
            for fl, z in (mailbox.filter_points or frozenset()):
                filter_flags[z] = filter_flags.get(z, 0) | fl
            matched: List[FullTupleRecord] = []
            if record is not None and own_point[node_id] is not None:
                fl, z = own_point[node_id]
                if filter_flags.get(z, 0) & fl:
                    matched.append(record)
            for proxied in proxy_records[node_id]:
                join_values = {k: proxied.values[k] for k in fmt.join_attributes}
                z = fmt.quantizer.encode(join_values)
                if filter_flags.get(z, 0) & proxied.flags:
                    matched.append(proxied)
            records_out.extend(matched)
            payload += fmt.full_tuples_bytes(len(matched))
            yield env.timeout(channel.latency_for(payload))
            channel.unicast(node_id, parent, payload, PHASE_FINAL)
            if not channel.last_send_delivered:
                return
            target = mailboxes[parent]
            target.final_tuples.extend(records_out)
            target.final_bytes += payload
            done_final[node_id].succeed()

        def base_station_process():
            mailbox = mailboxes[BASE_STATION_ID]
            children = tree.children(BASE_STATION_ID)
            if children:
                yield env.all_of([done_1a[child] for child in children])
            points = mailbox.points
            for proxied in mailbox.full_tuples:
                join_values = {k: proxied.values[k] for k in fmt.join_attributes}
                points = union_points(
                    points, [(proxied.flags, fmt.quantizer.encode(join_values))]
                )
            join_filter = build_join_filter(fmt, points)
            details["filter_points"] = float(len(join_filter))
            awake = [child for child in children if not exited[child]]
            subtree = mailbox.points
            pruned = intersect_points(join_filter, subtree)
            reached = list(awake)
            if pruned and awake:
                payload = fmt.encoded_points_bytes(pruned)
                yield env.timeout(channel.latency_for(payload))
                channel.broadcast(BASE_STATION_ID, awake, payload, PHASE_FILTER)
                reached = list(channel.last_broadcast_reached)
                for child in reached:
                    mailboxes[child].filter_points = pruned
            for child in reached:
                filter_ready[child].succeed()
            if awake:
                yield env.all_of([done_final[child] for child in awake])
            done_final[BASE_STATION_ID].succeed()

        procs: Dict[int, Process] = {}
        for node_id in tree.node_ids:
            if node_id == BASE_STATION_ID:
                procs[node_id] = env.process(base_station_process())
            elif network.nodes[node_id].alive:
                procs[node_id] = env.process(sensor_process(node_id))
        return _AttemptState(
            mailboxes=mailboxes,
            done_1a=done_1a,
            filter_ready=filter_ready,
            done_final=done_final,
            exited=exited,
            proxy_records=proxy_records,
            procs=procs,
            details=details,
        )
