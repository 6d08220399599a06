"""Span recorders wrapped around the program's public functions.

A traced run patches each function in :data:`LAYERS` wherever it is bound —
its defining module, every ``sys.modules`` global that *is* the same object
(``repro.joins.sensjoin.union_points`` is ``repro.codec.setops.union_points``)
and, for methods, the class attribute — with a wrapper that records one span
per call.  :func:`uninstall` puts every original object back.

A span is ``(name, start_ns, end_ns, parent, sample)``.  The run is one
thread, so the parent is the innermost open span.  ``sample`` is the index of
the timed benchmark call the span belongs to, or -1 for set-up.  Spans stay
in memory in columns and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: (span name, module, attribute) for every layer boundary.  Several
#: functions may share one span name; a call into a span of the name already
#: innermost (``build_routing_tree`` -> ``build_tree``) is folded into it.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.deploy", "repro.sim.network", "deploy_uniform"),
    ("routing.tree", "repro.routing.cluster", "build_routing_tree"),
    ("routing.tree", "repro.routing.ctp", "build_tree"),
    ("bench.calibrate", "repro.bench.calibrate", "calibrate_threshold"),
    ("query.parse", "repro.query.parser", "parse_query"),
    ("data.snapshot", "repro.data.relations", "SensorWorld.take_snapshot"),
    ("joins.node_tuple", "repro.joins.base", "node_tuple"),
    ("joins.format", "repro.joins.base", "TupleFormat.__init__"),
    ("joins.oracle", "repro.joins.base", "oracle_result"),
    ("codec.quantize", "repro.codec.quantize", "Quantizer.encode"),
    ("codec.setops", "repro.codec.setops", "union_points"),
    ("codec.setops", "repro.codec.setops", "intersect_points"),
    ("codec.size", "repro.codec.quadtree", "QuadtreeCodec.encoded_size_bits"),
    ("sim.radio", "repro.sim.radio", "Channel.unicast"),
    ("sim.radio", "repro.sim.radio", "Channel.broadcast"),
    ("sim.kernel", "repro.sim.kernel", "Environment.run"),
    ("sim.kernel", "repro.sim.kernel", "Environment.run_until"),
    ("joins.execute", "repro.joins.sensjoin", "SensJoin.execute"),
    ("joins.execute", "repro.joins.des_sensjoin", "DesSensJoin.execute"),
    ("joins.execute", "repro.joins.external", "ExternalJoin.execute"),
    ("joins.collect", "repro.joins.sensjoin", "SensJoin._collection_phase"),
    ("joins.disseminate", "repro.joins.sensjoin", "SensJoin._filter_phase"),
    ("joins.final", "repro.joins.sensjoin", "SensJoin._final_phase"),
    ("joins.filter_build", "repro.joins.filterbuild", "build_join_filter"),
    ("joins.compose", "repro.joins.filterbuild", "compose_filters"),
    ("query.semijoin", "repro.query.evaluate", "conservative_semijoin"),
    ("query.evaluate", "repro.query.evaluate", "evaluate_join"),
    ("query.contributing", "repro.query.evaluate", "JoinResult.all_contributing_nodes"),
    ("service.broker", "repro.service.broker", "QueryBroker.run"),
    ("routing.reattach", "repro.routing.ctp", "reattach_tree"),
    ("sim.mutate", "repro.sim.network", "Network.fail_node"),
    ("sim.mutate", "repro.sim.network", "Network.revive_node"),
    ("sim.mutate", "repro.sim.network", "Network.move_node"),
)

#: Functions whose calls are only counted: the memoized size lookup in front
#: of ``codec.size`` (a hit never reaches the codec).
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("codec.size_lookup", "repro.joins.base", "TupleFormat.encoded_points_bytes"),
)

#: Span of the benchmark's own timed call; its self time is the part of the
#: timed wall that no named layer covers.
ROOT = "e2e.call"

#: Entry points that wrap whole protocol runs.  Their self time is the
#: orchestration between the layers below them: it is reported, but it does
#: not count as covered, so a drop in ``trace.coverage`` means time that no
#: layer explains.
OUTER = ("joins.execute", "service.broker")

#: Layers that run while the benchmark sets up, reported per set-up.
SETUP_LAYERS = ("sim.deploy", "routing.tree", "bench.calibrate", "query.parse")

#: Layers that run inside timed calls, reported per query.
QUERY_LAYERS = tuple(
    dict.fromkeys(name for name, _, _ in LAYERS if name not in SETUP_LAYERS)
)


class SpanRecorder:
    """Columnar span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.samples: List[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self.sample = -1
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper recording one ``name`` span per call of ``fn``."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, samples, stack = self.parents, self.samples, self._stack
        clock = time.perf_counter_ns
        recorder = self

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            if not recorder.active or (stack and names[stack[-1]] == name):
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            samples.append(recorder.sample)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        span_wrapper._e2e_span = name
        return span_wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """A wrapper counting the calls of ``fn`` under ``name``."""
        counts = self.counts
        recorder = self

        @functools.wraps(fn)
        def count_wrapper(*args, **kwargs):
            if recorder.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        count_wrapper._e2e_span = name
        return count_wrapper

    def call(self, sample: int, fn: Callable, *args, **kwargs):
        """Run ``fn`` as timed call ``sample`` under a :data:`ROOT` span."""
        self.sample = sample
        self.active = True
        try:
            return self.wrap(ROOT, fn)(*args, **kwargs)
        finally:
            self.active = False
            self.sample = -1

    def write_jsonl(self, path: Path) -> None:
        """One ``[name, start_ns, end_ns, parent, sample]`` list per line."""
        with open(path, "w", encoding="utf-8") as out:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.samples):
                out.write(json.dumps(row, separators=(",", ":")))
                out.write("\n")


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------

Binding = Tuple[object, str, object]


def _resolve(module: str, attribute: str) -> Tuple[object, str, object]:
    """``(owner, attribute, original)`` for a function or ``Class.method``."""
    owner: object = importlib.import_module(module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    namespace = vars(owner)
    if leaf not in namespace:
        raise AttributeError(f"{module}.{attribute} is not defined where the trace expects it")
    return owner, leaf, namespace[leaf]


def install(recorder: SpanRecorder) -> List[Binding]:
    """Patch every layer boundary; returns the bindings to restore."""
    replacements: Dict[int, Tuple[Callable, Callable]] = {}
    bindings: List[Binding] = []
    targets = [(recorder.wrap, entry) for entry in LAYERS]
    targets += [(recorder.counter, entry) for entry in COUNTED]
    for make, (name, module, attribute) in targets:
        owner, leaf, original = _resolve(module, attribute)
        wrapper = make(name, original)
        if isinstance(owner, type):
            setattr(owner, leaf, wrapper)
            bindings.append((owner, leaf, original))
        else:
            replacements[id(original)] = (original, wrapper)
    for module in list(sys.modules.values()):
        if not isinstance(module, types.ModuleType):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
                bindings.append((module, key, value))
    return bindings


def uninstall(bindings: Sequence[Binding]) -> None:
    """Put every original object back where :func:`install` found it."""
    for owner, key, original in reversed(bindings):
        setattr(owner, key, original)


# ---------------------------------------------------------------------------
# Self time and per-layer totals
# ---------------------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += max(0, end - start)
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]) -> List[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        kids = children.get(index)
        covered = 0
        if kids:
            covered = union_length(
                (max(starts[k], start), min(ends[k], end)) for k in kids
            )
        result.append(end - start - covered)
    return result


def layer_totals(recorder: SpanRecorder, timed: bool) -> Dict[str, Tuple[int, int, int]]:
    """``name -> (calls, busy_ns, self_ns)`` over timed or set-up spans."""
    selfs = self_times(recorder.starts, recorder.ends, recorder.parents)
    totals: Dict[str, List[int]] = {}
    for name, start, end, sample, own in zip(
        recorder.names, recorder.starts, recorder.ends, recorder.samples, selfs
    ):
        if (sample >= 0) != timed:
            continue
        entry = totals.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    return {name: (c, b, s) for name, (c, b, s) in totals.items()}
