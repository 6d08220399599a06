"""Tracer tests, including the SENS-Join protocol trace."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.joins.runner import run_snapshot
from repro.obs.telemetry import Telemetry
from repro.sim.trace import (
    KNOWN_EVENT_KINDS,
    ListTracer,
    NullTracer,
    RingTracer,
    TraceEvent,
    register_event_kind,
)


class TestTracerBasics:
    def test_null_tracer_swallows(self):
        tracer = NullTracer()
        tracer.emit(0.0, 1, "anything", foo=1)  # must not raise

    def test_list_tracer_records(self):
        tracer = ListTracer()
        tracer.emit(1.5, 7, "kind-a", detail=3)
        tracer.emit(2.0, 8, "kind-b")
        assert len(tracer) == 2
        assert tracer.events[0].time == 1.5
        assert tracer.events[0].detail == {"detail": 3}
        assert tracer.kinds() == {"kind-a", "kind-b"}

    def test_filtering(self):
        tracer = ListTracer()
        for i in range(5):
            tracer.emit(float(i), i % 2, "tick", index=i)
        assert len(tracer.filter(node_id=0)) == 3
        assert len(tracer.filter(kind="tick")) == 5
        assert len(tracer.filter(kind="tock")) == 0
        assert len(tracer.filter(predicate=lambda e: e.detail["index"] > 2)) == 2

    def test_event_str(self):
        event = TraceEvent(1.25, 3, "treecut-exit", {"tuples": 2})
        text = str(event)
        assert "treecut-exit" in text and "tuples=2" in text and "node " in text

    def test_iteration(self):
        tracer = ListTracer()
        tracer.emit(0.0, 1, "x")
        assert [e.kind for e in tracer] == ["x"]

    def test_counts_by_kind_is_counter(self):
        tracer = ListTracer()
        for _ in range(3):
            tracer.emit(0.0, 1, "a")
        tracer.emit(0.0, 1, "b")
        counts = tracer.counts_by_kind()
        assert isinstance(counts, Counter)
        assert counts == {"a": 3, "b": 1}
        assert counts.most_common(1) == [("a", 3)]
        assert counts["never-seen"] == 0  # Counter semantics, no KeyError

    def test_event_str_non_scalar_detail(self):
        # Sets render sorted (deterministic regardless of insertion order)
        # and long representations are elided, never dumped wholesale.
        event = TraceEvent(0.5, 1, "subtree-store", {"points": {3, 1, 2}})
        assert "points={1, 2, 3}" in str(event)
        event = TraceEvent(0.5, 1, "subtree-store", {"d": {"b": 2, "a": 1}})
        assert "d={'a': 1, 'b': 2}" in str(event)
        big = TraceEvent(0.5, 1, "subtree-store", {"points": set(range(1000))})
        rendered = str(big)
        assert rendered.endswith("...")
        assert len(rendered) < 120

    def test_event_str_scalar_detail_unchanged(self):
        event = TraceEvent(1.25, 3, "treecut-exit", {"tuples": 2, "note": "hi"})
        assert "tuples=2" in str(event) and "note=hi" in str(event)


class TestRingTracer:
    def test_bounded_and_counts_drops(self):
        tracer = RingTracer(capacity=3)
        for i in range(5):
            tracer.emit(float(i), i, "tick", index=i)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        # The *most recent* events survive.
        assert [e.detail["index"] for e in tracer] == [2, 3, 4]

    def test_no_drops_under_capacity(self):
        tracer = RingTracer(capacity=10)
        tracer.emit(0.0, 1, "tick")
        assert tracer.dropped == 0 and len(tracer) == 1

    def test_query_api_shared_with_list_tracer(self):
        tracer = RingTracer(capacity=8)
        for i in range(4):
            tracer.emit(float(i), i % 2, "tick", index=i)
        assert len(tracer.filter(node_id=0)) == 2
        assert tracer.kinds() == {"tick"}
        assert tracer.counts_by_kind() == {"tick": 4}

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_non_positive_capacity(self, capacity):
        with pytest.raises(ValueError):
            RingTracer(capacity=capacity)


class TestEventKindRegistry:
    def test_register_is_idempotent(self):
        kind = register_event_kind("test-custom-kind")
        assert kind == "test-custom-kind"
        assert kind in KNOWN_EVENT_KINDS
        register_event_kind("test-custom-kind")  # no error, no duplicate

    @pytest.mark.parametrize("bad", ["", None, 7])
    def test_register_rejects_non_strings(self, bad):
        with pytest.raises(ValueError):
            register_event_kind(bad)

    def test_no_stray_literal_kinds_in_source(self):
        """Grep-proof: every ``tracer.emit(...)`` in the package passes a
        named constant, never a free-form string literal."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        literal_kind = re.compile(
            r"""\.emit\(\s*[^,)]+,\s*[^,)]+,\s*(["'])([a-z0-9-]+)\1"""
        )
        offenders = []
        for path in sorted(src.rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                match = literal_kind.search(line)
                if match:
                    offenders.append(f"{path.name}:{number}: {match.group(2)!r}")
        assert not offenders, (
            "emit() called with a literal kind instead of a trace.py "
            f"constant: {offenders}"
        )

    def test_one_telemetry_handle_per_run(self):
        """Grep-proof: the run's telemetry lives on the channel only.

        Outside ``repro/obs/`` and ``repro/sim/trace.py`` no function takes
        a ``tracer`` parameter, and only ``instrumented()`` assigns
        ``channel.telemetry``.
        """
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        tracer_params = []
        telemetry_writes = []

        def is_channel(node):
            return (isinstance(node, ast.Name) and node.id == "channel") or (
                isinstance(node, ast.Attribute) and node.attr == "channel"
            )

        def visit(node, path, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
                args = node.args
                names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
                exempt = path.parts[0] == "obs" or path.as_posix() == "sim/trace.py"
                if "tracer" in names and not exempt:
                    tracer_params.append(f"{path}:{node.lineno} {node.name}")
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "telemetry"
                    and is_channel(target.value)
                    and function != "instrumented"
                ):
                    telemetry_writes.append(f"{path}:{node.lineno} in {function}")
            for child in ast.iter_child_nodes(node):
                visit(child, path, function)

        for file in sorted(src.rglob("*.py")):
            visit(ast.parse(file.read_text()), file.relative_to(src), None)
        assert not tracer_params, f"functions taking a tracer: {tracer_params}"
        assert not telemetry_writes, f"channel.telemetry assigned: {telemetry_writes}"

    def test_one_tuple_path(self):
        """Grep-proof: every engine acquires and joins tuples the same way.

        Under ``src/repro`` outside ``repro/query/``, only ``joins/base.py``
        and ``joins/semijoin.py`` call ``evaluate_join``, and only
        ``acquire`` and the per-node acquisition of ``SensJoin`` and the DES
        node process call ``node_tuple``.
        """
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        evaluate_callers = set()
        node_tuple_callers = set()

        def visit(node, path, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "evaluate_join":
                    evaluate_callers.add(path)
                elif name == "node_tuple":
                    node_tuple_callers.add((path, function))
            for child in ast.iter_child_nodes(node):
                visit(child, path, function)

        for file in sorted(src.rglob("*.py")):
            path = file.relative_to(src)
            if path.parts[0] != "query":
                visit(ast.parse(file.read_text()), path.as_posix(), None)
        assert evaluate_callers == {"joins/base.py", "joins/semijoin.py"}
        assert node_tuple_callers == {
            ("joins/base.py", "acquire"),
            ("joins/sensjoin.py", "_collection_phase"),
            ("joins/des_sensjoin.py", "sensor_process"),
        }

    def test_one_filter_wave(self):
        """Grep-proof: snapshot, broker and continuous rounds disseminate
        their filters through one wave.

        Under ``src/repro``, only ``joins/sensjoin.py::_filter_phase`` and
        the DES twin ``joins/des_sensjoin.py`` pass ``PHASE_FILTER`` to a
        channel send.
        """
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        senders = set()

        def names_filter_phase(arg):
            name = arg.id if isinstance(arg, ast.Name) else getattr(arg, "attr", None)
            return name == "PHASE_FILTER"

        def visit(node, path, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) in ("unicast", "broadcast")
                and any(
                    names_filter_phase(arg)
                    for arg in [*node.args, *(kw.value for kw in node.keywords)]
                )
            ):
                senders.add((path, function))
            for child in ast.iter_child_nodes(node):
                visit(child, path, function)

        for file in sorted(src.rglob("*.py")):
            visit(ast.parse(file.read_text()), file.relative_to(src).as_posix(), None)
        assert {path for path, _ in senders} == {"joins/sensjoin.py", "joins/des_sensjoin.py"}
        assert {
            function for path, function in senders if path == "joins/sensjoin.py"
        } == {"_filter_phase"}

    def test_one_binder(self):
        """Grep-proof: the exact join and the join filter bind aliases
        through one binder.

        Under ``src/repro`` outside ``query/expressions.py``, only
        ``query/evaluate.py``'s ``_bind`` and its two pinned reference twins
        call ``.possible(`` or ``_conjunct_schedule(``.
        """
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        callers = set()

        def visit(node, path, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "_conjunct_schedule" or (
                    name == "possible" and isinstance(func, ast.Attribute)
                ):
                    callers.add((path, function))
            for child in ast.iter_child_nodes(node):
                visit(child, path, function)

        for file in sorted(src.rglob("*.py")):
            path = file.relative_to(src).as_posix()
            if path != "query/expressions.py":
                visit(ast.parse(file.read_text()), path, None)
        assert callers == {
            ("query/evaluate.py", "_bind"),
            ("query/evaluate.py", "_reference_expand_exact"),
            ("query/evaluate.py", "_reference_semijoin_two_way"),
        }

    def test_sizes_not_bitstrings(self):
        """Grep-proof: the protocol prices quadtrees, it never builds them.

        Under ``src/repro``, only ``codec/`` and ``verify/`` call ``.encode(``
        or ``.decode(`` on a name or attribute ending in ``codec``; every
        other path sizes a point set with ``encoded_size_bits``.
        """
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        calls = []
        for file in sorted(src.rglob("*.py")):
            path = file.relative_to(src).as_posix()
            if path.startswith(("codec/", "verify/")):
                continue
            for node in ast.walk(ast.parse(file.read_text())):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("encode", "decode")
                ):
                    continue
                receiver = node.func.value
                name = receiver.id if isinstance(receiver, ast.Name) else getattr(
                    receiver, "attr", ""
                )
                if name.endswith("codec"):
                    calls.append((path, node.lineno))
        assert calls == []

    def test_one_fault_applier(self):
        """Grep-proof: every recovery model changes the topology the same way.

        Under ``src/repro`` outside ``sim/network.py``, only
        ``sim/faults.py::apply_fault`` calls ``fail_node``, ``fail_link``,
        ``revive_node`` or ``move_node``.
        """
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        mutators = {"fail_node", "fail_link", "revive_node", "move_node"}
        callers = set()

        def visit(node, path, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in mutators:
                callers.add((path, function))
            for child in ast.iter_child_nodes(node):
                visit(child, path, function)

        for file in sorted(src.rglob("*.py")):
            path = file.relative_to(src).as_posix()
            if path != "sim/network.py":
                visit(ast.parse(file.read_text()), path, None)
        assert callers == {("sim/faults.py", "apply_fault")}

    def test_traced_run_emits_only_registered_kinds(
        self, small_network, small_world, tail_query
    ):
        tracer = ListTracer()
        run_snapshot(
            small_network, small_world, tail_query(1.5),
            "sens-join", tree_seed=11, telemetry=Telemetry(tracer=tracer),
        )
        assert tracer.kinds() <= KNOWN_EVENT_KINDS


class TestProtocolTrace:
    def test_sensjoin_emits_protocol_events(self, small_network, small_world, tail_query):
        tracer = ListTracer()
        run_snapshot(
            small_network, small_world, tail_query(1.5),
            "sens-join", tree_seed=11, telemetry=Telemetry(tracer=tracer),
        )
        kinds = tracer.kinds()
        assert "treecut-exit" in kinds
        assert "proxy-store" in kinds
        assert "send-join-atts" in kinds
        assert "filter-broadcast" in kinds
        assert "final-send" in kinds

    def test_trace_counts_match_details(self, small_network, small_world, tail_query):
        tracer = ListTracer()
        outcome = run_snapshot(
            small_network, small_world, tail_query(1.5),
            "sens-join", tree_seed=11, telemetry=Telemetry(tracer=tracer),
        )
        assert len(tracer.filter(kind="treecut-exit")) == outcome.details["treecut_exited"]
        assert len(tracer.filter(kind="proxy-store")) == outcome.details["treecut_proxies"]
        assert (
            len(tracer.filter(kind="filter-broadcast"))
            == outcome.details["filter_broadcasts"]
        )
        assert len(tracer.filter(kind="final-send")) == outcome.details["final_senders"]

    def test_pruned_subtrees_traced(self, small_network, small_world, tail_query):
        tracer = ListTracer()
        outcome = run_snapshot(
            small_network, small_world, tail_query(2.5),
            "sens-join", tree_seed=11, telemetry=Telemetry(tracer=tracer),
        )
        assert (
            len(tracer.filter(kind="filter-pruned"))
            == outcome.details["filter_pruned_subtrees"]
        )
