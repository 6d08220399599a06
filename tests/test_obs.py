"""The telemetry layer: metrics, spans, JSONL export, CLI, reconciliation.

Covers the three contracts `docs/observability.md` documents:

* with telemetry disabled, protocols behave byte-identically;
* the JSONL export round-trips losslessly (re-export == original);
* with telemetry enabled, the traffic/energy counters reconcile exactly
  against ``TransmissionStats`` and the energy ledgers.
"""

import io
import json

import pytest

from repro.joins.runner import make_algorithm, run_snapshot
from repro.joins.sensjoin import (
    PHASE_COLLECTION,
    PHASE_FILTER,
    PHASE_FINAL,
    SensJoin,
)
from repro.errors import TraceFormatError
from repro.obs import (
    NULL_REGISTRY,
    NULL_TELEMETRY,
    MetricsRegistry,
    NullRegistry,
    Telemetry,
    read_jsonl,
    write_jsonl,
)
from repro.obs.export import jsonify_detail
from repro.sim.trace import (
    KNOWN_EVENT_KINDS,
    ListTracer,
    RingTracer,
    SPAN_END,
    SPAN_START,
    TraceEvent,
)


# -- metrics ----------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_labels_create_distinct_instruments(self):
        reg = MetricsRegistry()
        reg.counter("tx", node=1).inc()
        reg.counter("tx", node=2).inc(2)
        assert reg.value("counter", "tx", node=1) == 1
        assert reg.value("counter", "tx", node=2) == 2
        assert len(reg) == 2

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("tx").inc(-1)

    def test_counter_rejects_non_finite(self):
        reg = MetricsRegistry()
        counter = reg.counter("tx")
        counter.inc(2)
        for bad in (float("nan"), float("inf"), float("-inf"), "three", None):
            with pytest.raises(ValueError, match="finite number"):
                counter.inc(bad)
        assert counter.value == 2  # nothing leaked into the sum

    def test_gauge_rejects_non_finite(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth")
        gauge.set(4)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite number"):
                gauge.set(bad)
            with pytest.raises(ValueError, match="finite number"):
                gauge.inc(bad)
            with pytest.raises(ValueError, match="finite number"):
                gauge.dec(bad)
        assert gauge.value == 4

    def test_histogram_rejects_non_finite(self):
        reg = MetricsRegistry()
        hist = reg.histogram("latency")
        hist.observe(1.0)
        for bad in (float("nan"), float("inf"), float("-inf"), "fast"):
            with pytest.raises(ValueError, match="finite number"):
                hist.observe(bad)
        assert hist.count == 1 and hist.sum == 1.0
        assert hist.min == 1.0 and hist.max == 1.0

    def test_null_instruments_still_accept_anything(self):
        # The disabled registry's shared no-op instrument must stay a
        # no-op: validation lives on the real instruments only.
        from repro.obs.metrics import NULL_REGISTRY

        NULL_REGISTRY.counter("tx").inc(float("nan"))
        NULL_REGISTRY.histogram("latency").observe(float("inf"))

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert reg.value("gauge", "depth") == 4

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        hist = reg.histogram("latency")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.count == 3 and hist.sum == 6.0
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.mean == 2.0

    def test_total_sums_and_filters(self):
        reg = MetricsRegistry()
        reg.counter("tx", node=1, phase="a").inc(10)
        reg.counter("tx", node=2, phase="a").inc(5)
        reg.counter("tx", node=1, phase="b").inc(100)
        assert reg.total("tx") == 115
        assert reg.total("tx", phase="a") == 15
        assert reg.total("tx", node=1) == 110
        assert reg.total("tx", phase="missing") == 0

    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)

    def test_samples_deterministic_order(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a", z=1).inc()
        reg.histogram("a").observe(1.0)
        names = [(s.name, s.kind) for s in reg.samples()]
        assert names == sorted(names)

    def test_null_registry_is_disabled_no_op(self):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("x", node=1).inc(5)
        NULL_REGISTRY.gauge("y").set(3)
        NULL_REGISTRY.histogram("z").observe(1.0)
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.total("x") == 0.0
        assert isinstance(NULL_REGISTRY, NullRegistry)


# -- spans ------------------------------------------------------------------


class TestSpans:
    def test_span_emits_start_end_and_histogram(self):
        tel = Telemetry.capture()
        with tel.span("phase-x", node_id=3, start=1.0, proto="p") as sp:
            sp.end = 4.0
        kinds = [e.kind for e in tel.tracer]
        assert kinds == [SPAN_START, SPAN_END]
        end = tel.tracer.events[-1]
        assert end.time == 4.0
        assert end.detail["duration_s"] == 3.0
        assert end.detail["ok"] is True and end.detail["proto"] == "p"
        hist = tel.registry.value("histogram", "span_seconds", span="phase-x", proto="p")
        assert hist == {"count": 1, "sum": 3.0, "min": 3.0, "max": 3.0}

    def test_span_uses_clock_when_no_explicit_times(self):
        now = [10.0]
        tel = Telemetry.capture(clock=lambda: now[0])
        with tel.span("tick"):
            now[0] = 12.5
        end = tel.tracer.events[-1]
        assert end.detail["duration_s"] == 2.5

    def test_span_clamps_backwards_end(self):
        tel = Telemetry.capture()
        with tel.span("weird", start=5.0) as sp:
            sp.end = 3.0  # must not produce a negative duration
        assert tel.tracer.events[-1].detail["duration_s"] == 0.0

    def test_span_flags_exception_not_ok(self):
        tel = Telemetry.capture()
        with pytest.raises(RuntimeError):
            with tel.span("doomed", start=0.0):
                raise RuntimeError("boom")
        end = tel.tracer.events[-1]
        assert end.kind == SPAN_END and end.detail["ok"] is False

    def test_label_mutation_visible_on_end_event(self):
        tel = Telemetry.capture()
        with tel.span("attempt", start=0.0, completed=False) as sp:
            sp.labels["completed"] = True
        assert tel.tracer.events[-1].detail["completed"] is True

    def test_disabled_span_yields_but_emits_nothing(self):
        with NULL_TELEMETRY.span("quiet", start=0.0) as sp:
            sp.end = 9.0  # settable unconditionally
        assert NULL_TELEMETRY.enabled is False

    def test_with_clock_shares_sinks(self):
        tel = Telemetry.capture()
        derived = tel.with_clock(lambda: 7.0)
        assert derived.tracer is tel.tracer
        assert derived.registry is tel.registry
        with derived.span("shifted"):
            pass
        assert tel.tracer.events[0].time == 7.0


# -- JSONL export -----------------------------------------------------------


def _capture_with_data() -> Telemetry:
    tel = Telemetry.capture()
    tel.tracer.emit(0.5, 1, "treecut-exit", tuples=2)
    tel.tracer.emit(1.0, 2, "subtree-store", points={3, 1}, path=(0, 2))
    tel.registry.counter("tx_packets_total", node=1, phase="a").inc(4)
    tel.registry.gauge("depth").set(2)
    tel.registry.histogram("span_seconds", span="s").observe(0.25)
    return tel

def test_write_read_round_trip_is_byte_identical():
    tel = _capture_with_data()
    first = io.StringIO()
    write_jsonl(first, tracer=tel.tracer, registry=tel.registry, meta={"nodes": 2})
    log = read_jsonl(io.StringIO(first.getvalue()))
    second = io.StringIO()
    write_jsonl(
        second,
        events=log.events,
        registry=log.registry(),
        meta=log.meta,
        dropped=log.dropped,
    )
    assert second.getvalue() == first.getvalue()


def test_read_reconstructs_events_and_metrics():
    tel = _capture_with_data()
    buffer = io.StringIO()
    lines = write_jsonl(buffer, tracer=tel.tracer, registry=tel.registry)
    # header + 2 events + 3 metrics + trailer
    assert lines == 7
    log = read_jsonl(io.StringIO(buffer.getvalue()))
    assert [e.kind for e in log.events] == ["treecut-exit", "subtree-store"]
    # JSON has no sets/tuples: canonicalised to sorted list / list.
    assert log.events[1].detail == {"points": [1, 3], "path": [0, 2]}
    reg = log.registry()
    assert reg.total("tx_packets_total") == 4
    assert reg.value("gauge", "depth") == 2
    assert reg.value("histogram", "span_seconds", span="s")["count"] == 1


def test_ring_tracer_dropped_count_in_trailer():
    tracer = RingTracer(capacity=2)
    for i in range(5):
        tracer.emit(float(i), i, "tick")
    buffer = io.StringIO()
    write_jsonl(buffer, tracer=tracer)
    log = read_jsonl(io.StringIO(buffer.getvalue()))
    assert len(log.events) == 2 and log.dropped == 3


def test_jsonify_detail_canonical_forms():
    assert jsonify_detail((1, 2)) == [1, 2]
    assert jsonify_detail({3, 1, 2}) == [1, 2, 3]
    assert jsonify_detail({"k": (1,)}) == {"k": [1]}
    assert jsonify_detail(True) is True and jsonify_detail(None) is None
    assert isinstance(jsonify_detail(object()), str)


class TestMalformedTraces:
    def _lines(self) -> list:
        buffer = io.StringIO()
        write_jsonl(buffer, events=[TraceEvent(0.0, 1, "tick", {})])
        return buffer.getvalue().splitlines()

    def _expect_error(self, text: str):
        with pytest.raises(TraceFormatError):
            read_jsonl(io.StringIO(text))

    def test_missing_header(self):
        self._expect_error("\n".join(self._lines()[1:]))

    def test_missing_trailer(self):
        self._expect_error("\n".join(self._lines()[:-1]))

    def test_records_after_trailer(self):
        lines = self._lines()
        self._expect_error("\n".join(lines + [lines[1]]))

    def test_trailer_count_mismatch(self):
        lines = self._lines()
        lines[-1] = json.dumps({"record": "end", "events": 99, "metrics": 0, "dropped": 0})
        self._expect_error("\n".join(lines))

    def test_unknown_record_type(self):
        lines = self._lines()
        lines.insert(1, json.dumps({"record": "mystery"}))
        self._expect_error("\n".join(lines))

    def test_unknown_metric_kind(self):
        lines = self._lines()
        lines.insert(
            1,
            json.dumps({"record": "metric", "metric": "summary", "name": "x", "value": 1}),
        )
        self._expect_error("\n".join(lines))

    def test_schema_mismatch(self):
        lines = self._lines()
        lines[0] = json.dumps({"record": "header", "schema": 99, "meta": {}})
        self._expect_error("\n".join(lines))

    def test_invalid_json(self):
        self._expect_error("not json at all")

    def test_empty_file(self):
        self._expect_error("")


# -- end-to-end: instrumented runs ------------------------------------------


class TestInstrumentedRun:
    @pytest.fixture()
    def traced(self, small_network, small_world, tail_query):
        tel = Telemetry.capture()
        outcome = run_snapshot(
            small_network, small_world, tail_query(1.5), "sens-join",
            tree_seed=11, telemetry=tel,
        )
        return tel, outcome, small_network

    def test_traffic_counters_reconcile_with_stats(self, traced):
        tel, outcome, network = traced
        reg = tel.registry
        by_phase = network.stats.tx_packets_by_phase()
        for phase in (PHASE_COLLECTION, PHASE_FILTER, PHASE_FINAL):
            assert reg.total("tx_packets_total", phase=phase) == by_phase.get(phase, 0)

    def test_energy_counters_reconcile_with_ledger(self, traced):
        tel, outcome, network = traced
        assert tel.registry.total("energy_joules_total") == pytest.approx(
            network.total_energy(), abs=1e-12
        )

    def test_phase_spans_cover_response_time(self, traced):
        tel, outcome, _ = traced
        ends = {
            e.detail["span"]: e
            for e in tel.tracer.filter(kind=SPAN_END)
        }
        assert set(ends) >= {PHASE_COLLECTION, PHASE_FILTER, PHASE_FINAL}
        assert ends[PHASE_COLLECTION].time == pytest.approx(
            outcome.details["collection_finish_s"]
        )
        # Spans carry raw phase-boundary times; the outcome's response time
        # adds the epoch scheduling overhead on top, so it bounds them.
        assert ends[PHASE_FINAL].time <= outcome.response_time_s
        assert (
            ends[PHASE_COLLECTION].time
            <= ends[PHASE_FILTER].time
            <= ends[PHASE_FINAL].time
        )
        for event in ends.values():
            assert event.detail["duration_s"] >= 0.0

    def test_treecut_counters_match_outcome_details(self, traced):
        tel, outcome, _ = traced
        reg = tel.registry
        assert reg.total("treecut_exits_total") == outcome.details["treecut_exited"]
        assert reg.total("proxy_stores_total") == outcome.details["treecut_proxies"]

    def test_event_kinds_all_registered(self, traced):
        tel, _, _ = traced
        assert tel.tracer.kinds() <= KNOWN_EVENT_KINDS

    def test_telemetry_does_not_change_results(
        self, small_world, tail_query
    ):
        from repro.sim.network import DeploymentConfig, deploy_uniform
        from repro.data.relations import SensorWorld

        def run(telemetry):
            config = DeploymentConfig(node_count=200, area_side_m=383.0, seed=11)
            network = deploy_uniform(config)
            world = SensorWorld.homogeneous(network, seed=11, area_side_m=383.0)
            world.take_snapshot(0.0)
            return network, run_snapshot(
                network, world, tail_query(1.5), "sens-join",
                tree_seed=11, telemetry=telemetry,
            )

        net_plain, plain = run(None)
        net_traced, traced = run(Telemetry.capture())
        assert plain.result.signature() == traced.result.signature()
        assert plain.total_transmissions == traced.total_transmissions
        assert plain.total_bytes == traced.total_bytes
        assert plain.response_time_s == traced.response_time_s
        assert plain.details == traced.details
        assert net_plain.total_energy() == net_traced.total_energy()

    def test_runner_restores_channel_telemetry(
        self, small_network, small_world, tail_query
    ):
        run_snapshot(
            small_network, small_world, tail_query(1.5), "sens-join",
            tree_seed=11, telemetry=Telemetry.capture(),
        )
        assert small_network.channel.telemetry is NULL_TELEMETRY

    def test_instrumented_none_preserves_attached_tracer(
        self, small_network, small_world, tail_query
    ):
        attached = Telemetry(tracer=ListTracer())
        small_network.channel.telemetry = attached
        run_snapshot(
            small_network, small_world, tail_query(1.5), "sens-join",
            tree_seed=11,  # telemetry=None must not clobber the attached one
        )
        assert small_network.channel.telemetry is attached
        # The engine observed the run through the attached telemetry.
        assert attached.tracer.filter(kind=SPAN_END)

    @pytest.mark.parametrize("engine", ["sens-join", "des-sensjoin"])
    def test_reused_engine_leaves_first_capture_alone(
        self, small_network, small_world, tail_query, engine
    ):
        """Engines hold no observation state: an untraced run after a traced
        one with the same instance adds nothing to the first capture."""
        algo = make_algorithm(engine)
        tel = Telemetry.capture()
        run_snapshot(
            small_network, small_world, tail_query(1.5), algo,
            tree_seed=11, telemetry=tel,
        )
        events = len(tel.tracer)
        samples = tel.registry.samples()
        assert tel.tracer.filter(kind=SPAN_END)
        run_snapshot(small_network, small_world, tail_query(1.5), algo, tree_seed=11)
        assert len(tel.tracer) == events
        assert tel.registry.samples() == samples

    def test_des_engine_emits_spans_on_simulated_clock(
        self, small_network, small_world, tail_query
    ):
        from repro.joins.des_sensjoin import DesSensJoin

        tel = Telemetry.capture()
        outcome = run_snapshot(
            small_network, small_world, tail_query(1.5), DesSensJoin(),
            tree_seed=11, telemetry=tel,
        )
        ends = {e.detail["span"]: e for e in tel.tracer.filter(kind=SPAN_END)}
        assert PHASE_COLLECTION in ends
        assert ends[PHASE_COLLECTION].detail["ok"] is True
        assert tel.registry.total("energy_joules_total") == pytest.approx(
            small_network.total_energy(), abs=1e-12
        )
        assert len(outcome.result.rows) > 0


# -- CLI --------------------------------------------------------------------


class TestObsCli:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        from repro.obs.__main__ import main

        path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
        code = main(
            ["record", "--nodes", "40", "--seed", "0", "--out", str(path)]
        )
        assert code == 0
        return path

    def test_record_writes_valid_jsonl(self, trace_file):
        log = read_jsonl(trace_file)
        assert log.meta["nodes"] == 40
        assert log.events and log.metrics

    def test_summary(self, trace_file, capsys):
        from repro.obs.__main__ import main

        assert main(["summary", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "events" in out and PHASE_COLLECTION in out

    def test_grep_filters(self, trace_file, capsys):
        from repro.obs.__main__ import main

        assert main(["grep", str(trace_file), "--kind", "span-end"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out and all("span-end" in line for line in out)

    def test_timeline(self, trace_file, capsys):
        from repro.obs.__main__ import main

        assert main(["timeline", str(trace_file)]) == 0
        assert "t=" in capsys.readouterr().out

    def test_energy_breakdown_reconciles(self, trace_file, capsys):
        from repro.obs.__main__ import main

        assert main(["energy-breakdown", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "RECONCILIATION FAILED" not in out


# -- churn + broker reconciliation ------------------------------------------


def _tail(threshold: float, select: str = "A.hum, B.hum"):
    from repro.query.parser import parse_query

    return parse_query(
        f"SELECT {select} FROM sensors A, sensors B "
        f"WHERE A.temp - B.temp > {threshold} ONCE"
    )


def _churned_broker_run(make_deployment, requests, concurrency, churn_kwargs):
    from repro.service.broker import BrokerConfig, DeadlinePolicy, QueryBroker
    from repro.sim.faults import ChurnModel

    network, world = make_deployment(50, seed=11)
    telemetry = Telemetry.capture(capacity=32768)
    broker = QueryBroker(
        network,
        world,
        config=BrokerConfig(
            concurrency=concurrency,
            deadline=DeadlinePolicy(timeout_s=90.0),
            disseminate_queries=True,
        ),
        telemetry=telemetry,
        churn=ChurnModel(**churn_kwargs),
    )
    report = broker.run(requests)
    return network, telemetry, report


class TestChurnedBrokerReconcile:
    """Satellite: repair, aborted-attempt, and piggybacked-dissemination
    energy all land in the phase counters and reconcile exactly against the
    channel ledger — the broker instruments its *whole* run, not just the
    per-batch execution paths."""

    @pytest.fixture(scope="class")
    def repair_run(self, make_deployment):
        """A churned run whose crash orphans children (repair beacons flow)
        and whose first batch mixes two sharing signatures (piggyback)."""
        from repro.service.workloads import QueryRequest

        queries = [_tail(1.0), _tail(1.6), _tail(1.0, "A.hum, B.hum, A.pres")]
        requests = [
            QueryRequest(query_id=i, arrival_s=0.0, template_index=i, query=q)
            for i, q in enumerate(queries)
        ] + [
            QueryRequest(query_id=3, arrival_s=150.0, template_index=0,
                         query=_tail(1.0)),
            QueryRequest(query_id=4, arrival_s=150.0, template_index=1,
                         query=_tail(1.6)),
        ]
        return _churned_broker_run(
            make_deployment, requests, concurrency=3,
            churn_kwargs=dict(
                departure_rate=0.002, rejoin_delay_s=60.0,
                rejoin_jitter_m=5.0, horizon_s=250.0, seed=7,
            ),
        )

    @pytest.fixture(scope="class")
    def aborted_run(self, make_deployment):
        """Same deployment, deadline pressure instead: an epoch aborts."""
        from repro.service.workloads import QueryRequest

        requests = [
            QueryRequest(query_id=0, arrival_s=0.0, template_index=0,
                         query=_tail(1.0)),
            QueryRequest(query_id=1, arrival_s=0.0, template_index=0,
                         query=_tail(1.0)),
            QueryRequest(query_id=2, arrival_s=120.0, template_index=0,
                         query=_tail(1.0)),
            QueryRequest(query_id=3, arrival_s=120.0, template_index=0,
                         query=_tail(1.0)),
        ]
        return _churned_broker_run(
            make_deployment, requests, concurrency=2,
            churn_kwargs=dict(
                departure_rate=0.002, rejoin_delay_s=60.0,
                rejoin_jitter_m=5.0, horizon_s=250.0, seed=7,
            ),
        )

    def test_repair_energy_reconciles_exactly(self, repair_run):
        from repro.obs.reconcile import (
            energy_model_map,
            phases_in,
            reconcile_phase_energy,
            reconciliation_tolerance,
        )

        network, telemetry, report = repair_run
        reg = telemetry.registry
        assert report.details["repairs"] >= 1
        assert report.details["repair_energy_j"] > 0
        assert "tree-maintenance" in phases_in(reg)
        assert reg.total("energy_joules_total", phase="tree-maintenance") == (
            pytest.approx(report.details["repair_energy_j"])
        )
        total, worst, deltas = reconcile_phase_energy(
            reg, energy_model_map(network.energy_model)
        )
        assert worst <= reconciliation_tolerance(total)
        assert total == pytest.approx(report.total_energy_j)

    def test_piggybacked_dissemination_reconciles(self, repair_run):
        network, telemetry, report = repair_run
        reg = telemetry.registry
        # Two distinct sharing signatures in one batch → the dissemination
        # wave carries both groups' payloads on shared broadcasts.
        assert report.details["piggybacked_broadcasts"] > 0
        assert reg.total("broker_piggybacked_broadcasts_total") == (
            report.details["piggybacked_broadcasts"]
        )
        # The piggybacked wave's traffic is in the ledger too: registry
        # total equals the report total, which equals the per-node sum.
        assert reg.total("energy_joules_total") == pytest.approx(
            report.total_energy_j
        )

    def test_aborted_attempt_energy_reconciles(self, aborted_run):
        from repro.obs.reconcile import (
            energy_model_map,
            reconcile_phase_energy,
            reconciliation_tolerance,
        )

        network, telemetry, report = aborted_run
        reg = telemetry.registry
        # A deadline-missed epoch burns real energy; the ledger keeps it.
        assert report.details["aborted_energy_j"] > 0
        total, worst, _ = reconcile_phase_energy(
            reg, energy_model_map(network.energy_model)
        )
        assert worst <= reconciliation_tolerance(total)
        assert total == pytest.approx(report.total_energy_j)


# -- compare / hotspots CLIs -------------------------------------------------


def _inflate_phase_energy(src, dst, factor: float, phase: str) -> None:
    """Copy a trace, multiplying one phase's energy counters by ``factor``."""
    out = []
    for line in src.read_text().splitlines():
        obj = json.loads(line)
        if (
            obj.get("record") == "metric"
            and obj.get("name") == "energy_joules_total"
            and obj.get("labels", {}).get("phase") == phase
        ):
            obj["value"] = obj["value"] * factor
        out.append(json.dumps(obj))
    dst.write_text("\n".join(out) + "\n")


class TestCompareCli:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        from repro.obs.__main__ import main

        path = tmp_path_factory.mktemp("cmp") / "a.jsonl"
        assert main(
            ["record", "--nodes", "30", "--seed", "2", "--out", str(path)]
        ) == 0
        return path

    def test_identical_traces_compare_clean(self, trace_file, capsys):
        from repro.obs.__main__ import main

        assert main(["compare", str(trace_file), str(trace_file)]) == 0
        assert "no energy regression" in capsys.readouterr().out

    def test_injected_regression_fails(self, trace_file, tmp_path, capsys):
        from repro.obs.__main__ import main

        worse = tmp_path / "b.jsonl"
        _inflate_phase_energy(trace_file, worse, 1.5, PHASE_COLLECTION)
        assert main(["compare", str(trace_file), str(worse)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "ENERGY REGRESSION" in captured.err

    def test_below_tolerance_inflation_passes(self, trace_file, tmp_path, capsys):
        from repro.obs.__main__ import main

        nearly = tmp_path / "b.jsonl"
        _inflate_phase_energy(trace_file, nearly, 1.01, PHASE_COLLECTION)
        assert main(["compare", str(trace_file), str(nearly)]) == 0
        assert "no energy regression" in capsys.readouterr().out

    def test_improvement_is_not_a_regression(self, trace_file, tmp_path, capsys):
        from repro.obs.__main__ import main

        better = tmp_path / "b.jsonl"
        _inflate_phase_energy(trace_file, better, 0.5, PHASE_COLLECTION)
        assert main(["compare", str(trace_file), str(better)]) == 0
        assert "no energy regression" in capsys.readouterr().out


class TestHotspotsCli:
    def test_counter_fallback_ranks_nodes(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "trace.jsonl"
        assert main(
            ["record", "--nodes", "30", "--seed", "2", "--out", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["hotspots", str(path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Gini" in out and "max/mean" in out

    def test_no_per_node_data_exits_2(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "empty.jsonl"
        with open(path, "w") as handle:
            write_jsonl(handle, events=[TraceEvent(0.0, 1, "tick", {})])
        assert main(["hotspots", str(path)]) == 2
        assert "no per-node energy" in capsys.readouterr().err


class TestSummaryWarnings:
    def test_tracer_overflow_warns(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        tracer = RingTracer(capacity=2)
        for i in range(5):
            tracer.emit(float(i), i, "tick")
        path = tmp_path / "overflow.jsonl"
        with open(path, "w") as handle:
            write_jsonl(handle, tracer=tracer)
        assert main(["summary", str(path)]) == 0
        assert "WARNING: tracer ring overflowed" in capsys.readouterr().out

    def test_sampler_overflow_warns(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        from repro.obs.timeseries import MetricsSampler

        telemetry = Telemetry.capture()
        sampler = MetricsSampler(telemetry=telemetry, period_s=1.0, capacity=2)
        gauge = telemetry.registry.gauge("depth")
        sampler.watch_counters(["depth"])
        for tick in range(5):
            gauge.set(tick)
            sampler.sample(float(tick))
        assert sampler.dropped > 0
        path = tmp_path / "sampled.jsonl"
        with open(path, "w") as handle:
            write_jsonl(
                handle,
                tracer=telemetry.tracer,
                registry=telemetry.registry,
                series=sampler.all_series(),
            )
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "WARNING: sampler rings overflowed" in out


# -- acceptance: sampled broker run reproduces the energy funnel -------------


class TestSampledBrokerFunnel:
    """A sampled 150-node churned broker run exports series from which
    ``hotspots`` reproduces the near-base-station energy funnel."""

    @pytest.fixture(scope="class")
    def funnel_run(self, make_deployment, tmp_path_factory):
        from repro.obs.timeseries import MetricsSampler
        from repro.service.broker import BrokerConfig, DeadlinePolicy, QueryBroker
        from repro.service.workloads import QueryRequest
        from repro.sim.faults import ChurnModel

        network, world = make_deployment(150, seed=9)
        telemetry = Telemetry.capture(capacity=65536)
        sampler = MetricsSampler(telemetry=telemetry, period_s=15.0)
        sampler.watch_network(network)
        broker = QueryBroker(
            network,
            world,
            config=BrokerConfig(
                concurrency=2, deadline=DeadlinePolicy(timeout_s=120.0)
            ),
            telemetry=telemetry,
            churn=ChurnModel(
                departure_rate=0.0005, rejoin_delay_s=40.0,
                rejoin_jitter_m=5.0, horizon_s=250.0, seed=3,
            ),
            sampler=sampler,
        )
        report = broker.run(
            [
                QueryRequest(query_id=i, arrival_s=i * 40.0,
                             template_index=0, query=_tail(1.0))
                for i in range(4)
            ]
        )
        path = tmp_path_factory.mktemp("funnel") / "series.jsonl"
        with open(path, "w") as handle:
            write_jsonl(
                handle,
                tracer=telemetry.tracer,
                registry=telemetry.registry,
                series=sampler.all_series(),
            )
        return broker, sampler, report, path

    def _energy_by_node(self, broker, sampler):
        in_tree = set(broker.tree.as_parent_map())
        return {
            series.labels["node"]: series.last[1]
            for series in sampler.all_series()
            if series.name == "node_energy_j"
            and series.labels.get("node", 0) != 0
            and series.labels["node"] in in_tree
        }

    def test_series_export_round_trips(self, funnel_run):
        broker, sampler, report, path = funnel_run
        log = read_jsonl(path)
        assert len(log.series) == len(sampler.all_series())
        assert sampler.samples_taken >= 2

    def test_top_nodes_sit_near_the_base_station(self, funnel_run):
        broker, sampler, report, path = funnel_run
        energy = self._energy_by_node(broker, sampler)
        depths = {node: broker.tree.depth(node) for node in energy}
        ranked = sorted(energy, key=lambda node: -energy[node])
        # The collection funnel: every top-5 energy node is within 3 hops
        # of the base station, and the top-10 mean depth is well below the
        # population mean (relays near the root do the heavy lifting).
        assert all(depths[node] <= 3 for node in ranked[:5])
        population_mean = sum(depths.values()) / len(depths)
        top10_mean = sum(depths[node] for node in ranked[:10]) / 10
        assert top10_mean < population_mean

    def test_hotspots_cli_reads_the_export(self, funnel_run, capsys):
        from repro.obs.__main__ import main

        broker, sampler, report, path = funnel_run
        assert main(["hotspots", str(path), "--top", "10"]) == 0
        out = capsys.readouterr().out
        assert "Gini" in out
        assert "the collection funnel" in out


# -- bench profiling --------------------------------------------------------


class TestBenchProfile:
    def test_manifest_profile_section(self):
        from repro.bench.harness import run_experiments

        run = run_experiments(["related_work"], jobs=1)
        profile = run.manifest["profile"]
        assert set(profile) == {"slowest_cells"}
        assert profile["slowest_cells"][0]["label"] == "related_work[0]"
