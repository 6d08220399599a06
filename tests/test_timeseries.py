"""Time-series observability: sampling, rolling windows, SLOs, export.

Covers the contracts ``docs/observability.md`` adds on top of the static
registry view:

* :class:`Series` rings are bounded and honest about eviction (``dropped``);
* :class:`WindowedAggregate` statistics match a brute-force recomputation;
* the sampler's drive modes (kernel process, ``advance_to``, ``flush``)
  land ticks on the same deterministic grid;
* SLO breaches emit ``slo-violation`` events and count per policy;
* the ``series`` record round-trips through the JSONL export, and exports
  without series stay byte-identical to the pre-series schema.
"""

import io

import pytest

from repro.errors import ReproError, TraceFormatError
from repro.obs import (
    MetricsSampler,
    Series,
    SloPolicy,
    Telemetry,
    WindowedAggregate,
    read_jsonl,
    write_jsonl,
)
from repro.sim.kernel import Environment, SimulationError
from repro.sim.trace import ListTracer, SLO_VIOLATION


# -- Series ------------------------------------------------------------------


class TestSeries:
    def test_append_and_read_back(self):
        series = Series("energy", {"node": 3})
        series.append(0.0, 1.0)
        series.append(1.0, 2.5)
        assert series.points == [(0.0, 1.0), (1.0, 2.5)]
        assert series.times() == [0.0, 1.0]
        assert series.values() == [1.0, 2.5]
        assert series.last == (1.0, 2.5)
        assert len(series) == 2

    def test_ring_evicts_oldest_and_counts_dropped(self):
        series = Series("s", capacity=3)
        for tick in range(5):
            series.append(float(tick), float(tick * 10))
        assert series.dropped == 2
        assert series.points == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]

    def test_rejects_backwards_time(self):
        series = Series("s")
        series.append(2.0, 1.0)
        with pytest.raises(ValueError, match="backwards"):
            series.append(1.0, 1.0)
        series.append(2.0, 2.0)  # equal times are fine (same-instant events)

    def test_rejects_non_finite(self):
        series = Series("s")
        with pytest.raises(ValueError, match="finite"):
            series.append(float("nan"), 1.0)
        with pytest.raises(ValueError, match="finite"):
            series.append(0.0, float("inf"))
        assert len(series) == 0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            Series("")
        with pytest.raises(ValueError):
            Series("s", capacity=0)


# -- WindowedAggregate -------------------------------------------------------


class TestWindowedAggregate:
    def test_statistics_match_brute_force(self):
        window = WindowedAggregate(10.0)
        samples = [(0.0, 5.0), (2.0, 1.0), (4.0, 9.0), (6.0, 3.0)]
        for time_s, value in samples:
            window.observe(time_s, value)
        values = [v for _, v in samples]
        assert window.count == 4
        assert window.sum == pytest.approx(sum(values))
        assert window.mean == pytest.approx(sum(values) / 4)
        assert window.minimum == 1.0
        assert window.maximum == 9.0
        assert window.percentile(0.0) == 1.0
        assert window.percentile(1.0) == 9.0
        assert window.rate() == pytest.approx(4 / 10.0)

    def test_eviction_past_window(self):
        window = WindowedAggregate(5.0)
        window.observe(0.0, 100.0)
        window.observe(4.0, 1.0)
        window.observe(6.0, 2.0)  # 0.0 falls out (horizon 1.0)
        assert window.count == 2
        assert window.maximum == 2.0
        window.advance(20.0)  # idle tick clears everything
        assert window.count == 0
        assert window.sum == 0.0
        assert window.mean == 0.0

    def test_eviction_with_duplicate_values(self):
        window = WindowedAggregate(3.0)
        window.observe(0.0, 7.0)
        window.observe(1.0, 7.0)
        window.observe(5.0, 7.0)  # evicts both old sevens, keeps one
        assert window.count == 1
        assert window.sum == pytest.approx(7.0)

    def test_rejects_backwards_time(self):
        window = WindowedAggregate(5.0)
        window.observe(3.0, 1.0)
        with pytest.raises(ValueError, match="backwards"):
            window.observe(2.0, 1.0)

    def test_percentile_bounds(self):
        window = WindowedAggregate(5.0)
        assert window.percentile(0.5) == 0.0  # empty -> 0
        with pytest.raises(ValueError):
            window.percentile(1.5)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedAggregate(0.0)


# -- SloPolicy ---------------------------------------------------------------


class TestSloPolicy:
    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError, match="max_value and/or min_value"):
            SloPolicy(name="p", series="s")

    def test_bounds(self):
        policy = SloPolicy(name="p", series="s", max_value=2.0, min_value=1.0)
        assert policy.ok(1.5)
        assert not policy.ok(2.5)
        assert not policy.ok(0.5)
        assert "<= 2" in policy.bound_text() and ">= 1" in policy.bound_text()

    def test_sampler_rejects_duplicate_policy_names(self):
        policies = (
            SloPolicy(name="p", series="a", max_value=1.0),
            SloPolicy(name="p", series="b", max_value=2.0),
        )
        with pytest.raises(ValueError, match="duplicate"):
            MetricsSampler(policies=policies)


# -- MetricsSampler ----------------------------------------------------------


class TestMetricsSampler:
    def test_series_get_or_create_and_deterministic_order(self):
        sampler = MetricsSampler()
        a = sampler.series("x", node=2)
        b = sampler.series("x", node=1)
        assert sampler.series("x", node=2) is a
        assert [s.labels for s in sampler.all_series()] == [
            {"node": 1}, {"node": 2},
        ]
        assert b.name == "x"

    def test_advance_to_lands_on_period_grid(self):
        ticks = []
        sampler = MetricsSampler(period_s=0.5)
        sampler.add_probe(lambda now: ticks.append(now) or ())
        assert sampler.advance_to(2.6) == 5
        assert ticks == [0.5, 1.0, 1.5, 2.0, 2.5]
        # A second advance continues from the last tick, no replays.
        assert sampler.advance_to(2.6) == 0
        assert sampler.advance_to(3.1) == 1
        assert ticks[-1] == 3.0

    def test_flush_takes_one_off_grid_sample(self):
        sampler = MetricsSampler(period_s=1.0)
        sampler.add_probe(lambda now: [("g", {}, now)])
        sampler.advance_to(2.0)
        assert sampler.flush(2.3) is True
        assert sampler.flush(2.3) is False  # not newer than the last sample
        assert sampler.series("g").times() == [1.0, 2.0, 2.3]

    def test_probe_readings_become_series(self):
        sampler = MetricsSampler(period_s=1.0)
        sampler.add_probe(lambda now: [("a", {}, now * 2), ("b", {"n": 1}, 7.0)])
        sampler.sample(1.0)
        sampler.sample(2.0)
        assert sampler.series("a").values() == [2.0, 4.0]
        assert sampler.series("b", n=1).values() == [7.0, 7.0]
        assert sampler.samples_taken == 2
        assert sampler.last_sample_s == 2.0

    def test_watch_counters_snapshots_registry_totals(self):
        telemetry = Telemetry.capture()
        sampler = MetricsSampler(telemetry=telemetry, period_s=1.0)
        sampler.watch_counters(["tx_packets_total"])
        telemetry.registry.counter("tx_packets_total", node=1).inc(3)
        sampler.sample(1.0)
        telemetry.registry.counter("tx_packets_total", node=2).inc(2)
        sampler.sample(2.0)
        assert sampler.series("tx_packets_total").values() == [3.0, 5.0]

    def test_dropped_aggregates_ring_overflow(self):
        sampler = MetricsSampler(period_s=1.0, capacity=2)
        sampler.add_probe(lambda now: [("g", {}, now)])
        sampler.advance_to(5.0)
        assert sampler.dropped == 3

    def test_watch_network_rejects_double_watch(self):
        from repro.sim.network import DeploymentConfig, deploy_grid

        network = deploy_grid(DeploymentConfig(node_count=9, area_side_m=100.0))
        sampler = MetricsSampler()
        sampler.watch_network(network)
        with pytest.raises(ReproError, match="already watches"):
            sampler.watch_network(network)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            MetricsSampler(period_s=0.0)
        with pytest.raises(ValueError):
            MetricsSampler(capacity=0)

    def test_slo_violation_emits_event_and_counts(self):
        telemetry = Telemetry.capture()
        sampler = MetricsSampler(
            telemetry=telemetry,
            period_s=1.0,
            policies=(SloPolicy(name="cap", series="g", max_value=5.0),),
        )
        sampler.add_probe(lambda now: [("g", {}, now)])  # breaches after t=5
        sampler.advance_to(8.0)
        events = [e for e in telemetry.tracer.events if e.kind == SLO_VIOLATION]
        assert len(events) == 3  # t=6, 7, 8
        assert events[0].detail["policy"] == "cap"
        assert events[0].detail["value"] == 6.0
        assert events[0].detail["bound"] == "<= 5"
        assert sampler.violations == {"cap": 3}
        assert (
            telemetry.registry.total("slo_violations_total", policy="cap") == 3
        )

    def test_slo_over_null_telemetry_is_safe(self):
        sampler = MetricsSampler(
            period_s=1.0,
            policies=(SloPolicy(name="cap", series="g", max_value=0.0),),
        )
        sampler.add_probe(lambda now: [("g", {}, 1.0)])
        sampler.sample(1.0)  # must not raise; series still record
        assert sampler.violations == {"cap": 1}
        assert sampler.series("g").values() == [1.0]


# -- kernel integration ------------------------------------------------------


class TestKernelSampling:
    def test_environment_every_fires_on_grid(self):
        env = Environment()
        ticks = []
        env.every(1.0, ticks.append)

        def workload():
            yield env.timeout(5.2)

        env.run(until=env.process(workload()))
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_environment_every_until_bound(self):
        env = Environment()
        ticks = []
        env.every(1.0, ticks.append, until=2.5)

        def workload():
            yield env.timeout(6.0)

        env.run(until=env.process(workload()))
        assert ticks == [1.0, 2.0]

    def test_environment_every_rejects_bad_period(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.every(0.0, lambda now: None)

    def test_sampler_attach_samples_on_kernel_clock(self):
        env = Environment()
        sampler = MetricsSampler(period_s=0.5)
        sampler.add_probe(lambda now: [("g", {}, now)])
        sampler.attach(env)

        def workload():
            yield env.timeout(2.2)

        env.run(until=env.process(workload()))
        assert sampler.series("g").times() == [0.5, 1.0, 1.5, 2.0]

    def test_sampled_des_run_produces_node_series(self, make_deployment):
        from repro.joins.des_sensjoin import DesSensJoin
        from repro.joins.runner import run_snapshot
        from repro.query.parser import parse_query
        from repro.routing.ctp import build_tree

        network, world = make_deployment(node_count=25, seed=3)
        tree = build_tree(network, seed=3)
        query = parse_query(
            "SELECT A.hum, B.hum FROM sensors A, sensors B "
            "WHERE A.temp - B.temp > 1.0 ONCE"
        )
        telemetry = Telemetry.capture()
        sampler = MetricsSampler(telemetry=telemetry, period_s=0.01)
        sampler.watch_network(network, battery_j=1e9)
        sampler.watch_tree(lambda: tree)
        algo = DesSensJoin(sampler=sampler)
        run_snapshot(
            network, world, query, algorithm=algo, tree=tree,
            telemetry=telemetry,
        )
        assert sampler.samples_taken > 0
        names = {series.name for series in sampler.all_series()}
        assert {
            "node_energy_j", "node_residual_j", "node_tx_packets",
            "node_rx_packets", "node_tree_depth", "tree_height",
        } <= names
        # Energy and residual mirror each other around the battery budget.
        for series in sampler.all_series():
            if series.name != "node_energy_j":
                continue
            node = series.labels["node"]
            residual = sampler.series("node_residual_j", node=node)
            for (_, spent), (_, left) in zip(series, residual):
                assert spent + left == pytest.approx(1e9)


# -- export round trip -------------------------------------------------------


def _sampled_export() -> str:
    telemetry = Telemetry.capture()
    sampler = MetricsSampler(telemetry=telemetry, period_s=1.0, capacity=4)
    sampler.add_probe(lambda now: [("g", {}, now), ("h", {"node": 1}, now * 2)])
    sampler.advance_to(6.0)  # overflows the capacity-4 ring
    telemetry.registry.counter("tx_packets_total").inc(3)
    buffer = io.StringIO()
    write_jsonl(
        buffer,
        tracer=telemetry.tracer,
        registry=telemetry.registry,
        series=sampler.all_series(),
    )
    return buffer.getvalue()


class TestSeriesExport:
    def test_round_trip_is_byte_identical(self):
        text = _sampled_export()
        log = read_jsonl(io.StringIO(text))
        again = io.StringIO()
        write_jsonl(
            again,
            events=log.events,
            registry=log.registry(),
            meta=log.meta,
            dropped=log.dropped,
            series=log.series,
        )
        assert again.getvalue() == text

    def test_series_content_and_dropped_survive(self):
        log = read_jsonl(io.StringIO(_sampled_export()))
        assert len(log.series) == 2
        g = log.series_named("g")[0]
        assert g.labels == {}
        assert g.points == [(3.0, 3.0), (4.0, 4.0), (5.0, 5.0), (6.0, 6.0)]
        assert g.dropped == 2
        assert log.series_dropped() == 4
        h = log.series_named("h")[0]
        assert h.labels == {"node": 1}
        assert h.last == (6.0, 12.0)

    def test_trailer_counts_series(self):
        text = _sampled_export()
        assert '"series":2' in text.strip().splitlines()[-1]

    def test_no_series_key_when_absent(self):
        """Sampler-free exports must stay byte-identical to the pre-series
        schema: no ``series`` records, no ``series`` trailer key."""
        telemetry = Telemetry.capture()
        telemetry.registry.counter("c").inc()
        buffer = io.StringIO()
        write_jsonl(
            buffer, tracer=telemetry.tracer, registry=telemetry.registry
        )
        text = buffer.getvalue()
        assert '"record":"series"' not in text
        assert '"series"' not in text.strip().splitlines()[-1]
        assert read_jsonl(io.StringIO(text)).series == []

    def test_trailer_series_count_mismatch_rejected(self):
        lines = _sampled_export().strip().splitlines()
        lines[-1] = lines[-1].replace('"series":2', '"series":7')
        with pytest.raises(TraceFormatError, match="series"):
            read_jsonl(io.StringIO("\n".join(lines) + "\n"))

    def test_malformed_series_record_rejected(self):
        text = _sampled_export()
        bad = text.replace('"points":[[', '"points":[[null,')
        with pytest.raises(TraceFormatError):
            read_jsonl(io.StringIO(bad))

    def test_unknown_series_version_rejected(self):
        text = _sampled_export()
        bad = text.replace(
            '"record":"series","version":1', '"record":"series","version":99'
        )
        with pytest.raises(TraceFormatError, match="version"):
            read_jsonl(io.StringIO(bad))


# -- broker integration ------------------------------------------------------


class TestBrokerSampling:
    @pytest.fixture(scope="class")
    def sampled_run(self, make_deployment):
        from repro.query.parser import parse_query
        from repro.service.broker import (
            BrokerConfig, DeadlinePolicy, QueryBroker,
        )
        from repro.service.workloads import QueryRequest
        from repro.sim.faults import ChurnModel

        network, world = make_deployment(node_count=40, seed=11)
        query = parse_query(
            "SELECT A.hum, B.hum FROM sensors A, sensors B "
            "WHERE A.temp - B.temp > 1.0 ONCE"
        )
        requests = [
            QueryRequest(
                query_id=i, arrival_s=i * 30.0, template_index=0, query=query
            )
            for i in range(4)
        ]
        telemetry = Telemetry.capture()
        sampler = MetricsSampler(
            telemetry=telemetry,
            period_s=10.0,
            policies=(
                SloPolicy(
                    name="latency-p95",
                    series="broker_wave_latency_p95_s",
                    max_value=1e-6,  # impossible: every sampled wave breaches
                ),
            ),
        )
        sampler.watch_network(network)
        churn = ChurnModel(
            departure_rate=0.0004, rejoin_delay_s=30.0, rejoin_jitter_m=4.0,
            horizon_s=200.0, seed=2,
        )
        broker = QueryBroker(
            network, world,
            config=BrokerConfig(
                concurrency=2, deadline=DeadlinePolicy(timeout_s=90.0)
            ),
            telemetry=telemetry, churn=churn, sampler=sampler,
        )
        report = broker.run(requests)
        return report, sampler, telemetry

    def test_broker_feeds_service_series(self, sampled_run):
        report, sampler, _ = sampled_run
        names = {series.name for series in sampler.all_series()}
        assert {
            "broker_throughput_qps", "broker_retry_rate",
            "broker_deadline_miss_rate", "broker_shed_rate",
            "node_energy_j",
        } <= names
        assert sampler.samples_taken > 0
        # The flush lands exactly on the report makespan.
        assert sampler.last_sample_s == pytest.approx(
            report.details["makespan_s"]
        )

    def test_node_gauges_cumulative_across_epoch_resets(self, sampled_run):
        _, sampler, _ = sampled_run
        checked = 0
        for series in sampler.all_series():
            if series.name != "node_energy_j":
                continue
            values = series.values()
            assert values == sorted(values), (
                f"node {series.labels} energy saw-toothed: {values}"
            )
            checked += 1
        assert checked > 0

    def test_slo_breaches_traced_per_policy(self, sampled_run):
        _, sampler, telemetry = sampled_run
        events = [
            e for e in telemetry.tracer.events if e.kind == SLO_VIOLATION
        ]
        assert events, "impossible p95 bound never fired"
        assert sampler.violations["latency-p95"] == len(events)
        assert telemetry.registry.total(
            "slo_violations_total", policy="latency-p95"
        ) == len(events)
