"""Perf suite: micro kernels, DES throughput, scale micros, snapshots.

``python -m repro.bench perf`` establishes the repo's micro-kernel
performance trajectory.  One run times four layers:

* **codec micros** — the §V pipeline kernels the protocol runs (quantize,
  Z-curve interleave/deinterleave, quadtree sizing), the last three
  against their pinned ``_reference_*`` twins so the report shows the
  optimized/reference speedup directly;
* **kernel micros** — schedule/drain throughput of the DES event loop at
  several queue depths, plus a same-timestamp burst (the case the
  bucketed queue exists for);
* **scale micros** — the spatial grid index behind the 10k-100k node
  deployments (bulk build, 3x3-cell range queries, churn moves) and the
  full adjacency build against its pinned dense-``numpy`` reference;
* **query micros** — the base-station join's alias binding on a
  1000 x 1000 self-join, against the pinned cross-product reference, and
  the join filter's blocked semi-join of 600 x 600 cells under paper-600's
  3/5-ratio predicate, against the pinned unblocked pass.

End-to-end query timing is not part of this suite: it is the repo's
benchmark, declared in ``BENCHMARK.json`` and run by
``benchmarks/e2e/run.py``.

Every run appends a versioned snapshot ``BENCH_<n>.json`` (schema
:data:`SCHEMA`) under the results directory and prints deltas against the
previous snapshot (or ``--baseline``).  Raw ns/op is machine-bound, so
each entry also carries a **score**: ns/op divided by the ns/op of a
fixed pure-Python spin loop timed in the same process.  The regression
gate (``--check``) compares scores, not wall times, and only for the
*tracked* micro kernels, those of the :data:`TRACKED_GROUPS`.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import platform
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SCHEMA",
    "TRACKED_GROUPS",
    "DEFAULT_THRESHOLD",
    "add_perf_arguments",
    "build_suite",
    "cmd_perf",
    "compare_snapshots",
    "default_results_dir",
    "latest_snapshot",
    "next_snapshot_path",
    "snapshot_history",
]

#: Snapshot payload schema; bump when the layout changes.
SCHEMA = "repro.bench-perf/1"

#: Groups whose entries the regression gate compares (see module docstring).
TRACKED_GROUPS = ("codec", "kernel", "scale", "query")

#: Default regression gate: fail on >25% score increase of a tracked kernel.
DEFAULT_THRESHOLD = 0.25

_SNAPSHOT_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: Mirrors ``repro.bench.__main__.DEFAULT_RESULTS_DIR`` (not imported: the
#: CLI module re-executes when imported under its real name from ``-m`` runs).
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"


# -- measurement --------------------------------------------------------------


@dataclass
class Bench:
    """One timeable unit: a closure plus the op count it performs."""

    group: str
    name: str
    ops: int
    run: Callable[[], Any]
    #: The pinned pre-optimization twin, if the kernel has one.
    reference: Optional[Callable[[], Any]] = None

    @property
    def key(self) -> str:
        return f"{self.group}.{self.name}"

    @property
    def tracked(self) -> bool:
        """Whether the regression gate compares this entry."""
        return self.group in TRACKED_GROUPS


def _best_ns_per_op(run: Callable[[], Any], ops: int, repeats: int) -> float:
    """Best-of-``repeats`` wall time per operation, in nanoseconds."""
    best = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter_ns()
        run()
        elapsed = time.perf_counter_ns() - started
        if best is None or elapsed < best:
            best = elapsed
    return best / ops


def calibration_ns_per_op(repeats: int = 5) -> float:
    """ns/op of a fixed pure-Python spin loop — the score denominator.

    Dividing every measurement by this normalizes away most of the
    machine/interpreter speed difference, which is what lets a CI runner
    gate against a baseline recorded elsewhere.
    """
    n = 200_000

    def spin() -> int:
        acc = 0
        for i in range(n):
            acc += i
        return acc

    return _best_ns_per_op(spin, n, repeats)


# -- micro workloads ----------------------------------------------------------


def _codec_benches() -> List[Bench]:
    from ..codec import zcurve
    from ..codec.quadtree import QuadtreeCodec
    from ..codec.quantize import QuantizedDimension, Quantizer

    benches: List[Bench] = []
    rng = Random(20090329)  # ICDE 2009, for what it's worth

    # quantize: raw tuples -> Z-numbers through a two-dimension quantizer.
    dims = [
        QuantizedDimension("humidity", 0.0, 0.1, 1024, 10),
        QuantizedDimension("temperature", -30.0, 0.1, 1024, 10),
    ]
    quantizer = Quantizer(dims)
    tuples = [
        {"humidity": rng.uniform(0.0, 102.3), "temperature": rng.uniform(-30.0, 72.3)}
        for _ in range(4096)
    ]

    def run_quantize() -> None:
        encode = quantizer.encode
        for values in tuples:
            encode(values)

    benches.append(Bench("codec", "quantize_encode", len(tuples), run_quantize))

    # zcurve: the table-driven interleaver vs the per-bit reference.
    bpd = [10, 10]
    coords = [(rng.randrange(1 << 10), rng.randrange(1 << 10)) for _ in range(4096)]
    zs = [zcurve.interleave(c, bpd) for c in coords]

    def run_interleave() -> None:
        interleave = zcurve.interleave
        for c in coords:
            interleave(c, bpd)

    def run_interleave_ref() -> None:
        interleave = zcurve._reference_interleave
        for c in coords:
            interleave(c, bpd)

    benches.append(
        Bench("codec", "zcurve_interleave", len(coords), run_interleave, run_interleave_ref)
    )

    def run_deinterleave() -> None:
        deinterleave = zcurve.deinterleave
        for z in zs:
            deinterleave(z, bpd)

    def run_deinterleave_ref() -> None:
        deinterleave = zcurve._reference_deinterleave
        for z in zs:
            deinterleave(z, bpd)

    benches.append(
        Bench("codec", "zcurve_deinterleave", len(zs), run_deinterleave, run_deinterleave_ref)
    )

    # A retired micro drew 32768 fields here; drawing them still keeps the
    # sized points below equal to those of every earlier snapshot.
    for _ in range(32768):
        rng.randrange(1 << 7)

    # quadtree sizing on the standard 20-bit shape: the protocol prices every
    # join-attribute and filter message this way.
    codec = QuadtreeCodec(2, zcurve.level_widths(bpd))
    points = sorted(
        {(rng.randrange(1, 4), rng.randrange(1 << 20)) for _ in range(512)}
    )
    benches.append(
        Bench(
            "codec",
            "quadtree_size",
            1,
            lambda: codec.encoded_size_bits(points),
            lambda: codec._reference_encoded_size_bits(points),
        )
    )
    return benches


def _kernel_benches() -> List[Bench]:
    from ..sim.kernel import Environment

    benches: List[Bench] = []
    rng = Random(97)
    for depth in (64, 512, 4096):
        delays = [rng.random() * 100.0 for _ in range(depth)]

        def run(delays: List[float] = delays) -> None:
            env = Environment()
            timeout = env.timeout
            for delay in delays:
                timeout(delay)
            env.run()

        benches.append(Bench("kernel", f"events_depth{depth}", depth, run))

    # The bucketed queue's home turf: bursts of same-timestamp events
    # (every receiver of a broadcast wave shares one fire time).
    burst_delays = [float(i % 16) for i in range(4096)]

    def run_burst() -> None:
        env = Environment()
        timeout = env.timeout
        for delay in burst_delays:
            timeout(delay)
        env.run()

    benches.append(Bench("kernel", "events_burst16", len(burst_delays), run_burst))
    return benches


def _scale_benches() -> List[Bench]:
    from ..sim.network import DeploymentConfig, deploy_uniform
    from ..sim.spatial import SpatialGridIndex

    benches: List[Bench] = []
    rng = Random(64)
    config = DeploymentConfig().scaled(2000)
    side = config.area_side_m
    cell = config.radio_range_m
    limit2 = cell * cell
    points = [(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(5000)]

    # Bulk build: the path every deployment constructor takes.
    def run_build() -> None:
        index = SpatialGridIndex(cell)
        insert = index.insert
        for node_id, (x, y) in enumerate(points):
            insert(node_id, x, y)

    benches.append(Bench("scale", "grid_build_n5000", len(points), run_build))

    # Range queries over a built index: the adjacency-build inner loop.
    built = SpatialGridIndex(cell)
    for node_id, (x, y) in enumerate(points):
        built.insert(node_id, x, y)
    queries = points[:2048]

    def run_query() -> None:
        neighbours = built.neighbours_within
        for x, y in queries:
            neighbours(x, y, limit2)

    benches.append(Bench("scale", "grid_query_n5000", len(queries), run_query))

    # Churn moves on a persistent index: fail/revive/move_node's O(1) path.
    # Repeats re-apply the same ops from wherever the last run left each
    # node; a move costs the same regardless of origin cell.
    churning = SpatialGridIndex(cell)
    for node_id, (x, y) in enumerate(points):
        churning.insert(node_id, x, y)
    churn_ops = [
        (rng.randrange(len(points)), rng.uniform(0.0, side), rng.uniform(0.0, side))
        for _ in range(8192)
    ]

    def run_churn() -> None:
        move = churning.move
        for node_id, x, y in churn_ops:
            move(node_id, x, y)

    benches.append(Bench("scale", "grid_churn_n5000", len(churn_ops), run_churn))

    # Whole-network adjacency build vs the pinned dense-numpy reference.
    network = deploy_uniform(config)
    benches.append(
        Bench(
            "scale",
            "adjacency_build_n2000",
            1,
            network._rebuild_adjacency,
            network._reference_adjacency,
        )
    )
    return benches


def _query_benches() -> List[Bench]:
    import numpy as np

    from ..codec.quantize import QuantizedDimension
    from ..data.sensors import standard_catalog
    from ..query.evaluate import (
        Row,
        _expand_exact,
        _reference_expand_exact,
        _reference_semijoin_two_way,
        conservative_semijoin,
    )
    from ..query.parser import parse_query

    # dense-1000's base-station join: 1000 x 1000 tuples, 35 % of pairs match.
    temps = np.random.default_rng(7).normal(15.0, 4.0, 1000)
    rows = [Row(node_id, {"temp": float(t)}) for node_id, t in enumerate(temps, start=1)]
    query = parse_query("SELECT A.temp, B.temp FROM s A, s B WHERE A.temp - B.temp > 2 ONCE")
    working = {"A": rows, "B": rows}

    # paper-600's 3/5-ratio filter build: 600 collected cells over temp, x
    # and y, each playing both aliases of the self-join.
    rng = np.random.default_rng(600)
    bounds = {}
    for spec in standard_catalog().subset(("temp", "x", "y")):
        dimension = QuantizedDimension.from_spec(spec)
        values = rng.uniform(spec.min_value, spec.max_value, 600)
        bounds[spec.name] = dimension.bounds_of(np.array([dimension.cell_of(v) for v in values]))
    cells = {"A": np.arange(600), "B": np.arange(600)}
    filter_query = parse_query(
        "SELECT A.temp, B.temp FROM s A, s B "
        "WHERE A.temp - B.temp > 20 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE"
    )
    return [
        Bench(
            "query",
            "expand_exact_n1000",
            1,
            lambda: _expand_exact(query, query.aliases, working),
            lambda: _reference_expand_exact(query, query.aliases, working),
        ),
        Bench(
            "query",
            "semijoin_n600",
            1,
            lambda: conservative_semijoin(filter_query, bounds, cells),
            lambda: _reference_semijoin_two_way(filter_query, bounds, cells),
        ),
    ]


def build_suite(only: Optional[Sequence[str]] = None) -> List[Bench]:
    """The full bench list, optionally filtered by ``group.name`` globs.

    A pattern that matches nothing raises :class:`ValueError` naming the
    available keys (mirroring the experiment harness's selection errors).
    """
    suite = _codec_benches() + _kernel_benches() + _scale_benches() + _query_benches()
    if not only:
        return suite
    keys = [bench.key for bench in suite]
    for pattern in only:
        if not fnmatch.filter(keys, pattern):
            raise ValueError(
                f"no perf bench matches {pattern!r}; choices: {', '.join(keys)}"
            )
    return [
        bench
        for bench in suite
        if any(fnmatch.fnmatch(bench.key, pattern) for pattern in only)
    ]


# -- snapshots ----------------------------------------------------------------


def _interpreter_fingerprint() -> Dict[str, Any]:
    """The runtime a snapshot was timed on, recorded as its ``interpreter``.

    Scores are compared across machines, so a snapshot names the Python
    version (major.minor), implementation and platform it came from.
    """
    return {
        "python": list(sys.version_info[:2]),
        "implementation": sys.implementation.name,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def snapshot_entries(path: Path) -> Dict[str, Dict[str, Any]]:
    """``group.name -> entry`` of one snapshot file.

    Raises :class:`ValueError` (the CLI's exit-2 path) if the file is
    unreadable, corrupt, or from a different schema.
    """
    try:
        payload = json.loads(path.read_text())
    except OSError as error:
        raise ValueError(f"cannot read baseline {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise ValueError(f"baseline {path} is not valid JSON ({error})") from None
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise ValueError(
            f"baseline {path} does not carry schema {SCHEMA!r} "
            f"(got {payload.get('schema') if isinstance(payload, dict) else payload!r})"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"baseline {path} has no entry list")
    out: Dict[str, Dict[str, Any]] = {}
    for entry in entries:
        if isinstance(entry, dict) and "group" in entry and "name" in entry:
            out[f"{entry['group']}.{entry['name']}"] = entry
    return out


def _numbered_snapshots(results_dir: Path) -> List[Tuple[int, Path]]:
    if not results_dir.exists():
        return []
    found = []
    for path in results_dir.iterdir():
        match = _SNAPSHOT_RE.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def default_results_dir() -> Path:
    """Where committed ``BENCH_<n>.json`` snapshots live.

    ``DEFAULT_RESULTS_DIR`` is cwd-relative, which silently resolves to an
    *empty* directory when a CLI runs from anywhere but the repo root — a
    perf trajectory that "has no history" while ``benchmarks/results/`` is
    right there in the tree.  Prefer the cwd-relative directory when it
    actually holds snapshots (or the repo-anchored one does not exist),
    otherwise fall back to the directory next to this source tree.
    """
    local = DEFAULT_RESULTS_DIR
    if _numbered_snapshots(local):
        return local
    anchored = Path(__file__).resolve().parents[3] / DEFAULT_RESULTS_DIR
    if _numbered_snapshots(anchored):
        return anchored
    return local


def snapshot_history(results_dir: Optional[Path] = None) -> List[Path]:
    """Every ``BENCH_<n>.json`` in ascending snapshot order."""
    base = Path(results_dir) if results_dir is not None else default_results_dir()
    return [path for _, path in _numbered_snapshots(base)]


def latest_snapshot(results_dir: Path) -> Optional[Path]:
    """The highest-numbered ``BENCH_<n>.json``, or None."""
    numbered = _numbered_snapshots(Path(results_dir))
    return numbered[-1][1] if numbered else None


def next_snapshot_path(results_dir: Path) -> Path:
    """The next free ``BENCH_<n>.json`` path (1-based, gapless or not)."""
    numbered = _numbered_snapshots(Path(results_dir))
    n = numbered[-1][0] + 1 if numbered else 1
    return Path(results_dir) / f"BENCH_{n}.json"


@dataclass
class Regression:
    """One tracked kernel whose normalized score got worse than allowed."""

    key: str
    baseline_score: float
    score: float

    @property
    def ratio(self) -> float:
        return self.score / self.baseline_score


def compare_snapshots(
    baseline: Dict[str, Dict[str, Any]],
    current: Dict[str, Dict[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Regression]:
    """Tracked entries whose score regressed by more than ``threshold``.

    Only keys present in both snapshots participate; a kernel added or
    removed between snapshots is reported in the delta table, not gated.
    """
    regressions: List[Regression] = []
    for key, entry in sorted(current.items()):
        if not entry.get("tracked"):
            continue
        base = baseline.get(key)
        if base is None or not base.get("tracked"):
            continue
        old = base.get("score")
        new = entry.get("score")
        if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
            continue
        if old > 0 and new > old * (1.0 + threshold):
            regressions.append(Regression(key, float(old), float(new)))
    return regressions


# -- CLI ----------------------------------------------------------------------


def _format_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    return f"{ns:.0f}ns"


def add_perf_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``perf`` subcommand's arguments (shared with tests)."""
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="micro-bench repeats (default: 7; best-of-N damps scheduler noise)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="GLOB",
        help="run only benches whose group.name matches (repeatable)",
    )
    parser.add_argument(
        "--results-dir",
        default=None,
        help="where BENCH_<n>.json snapshots live (default: benchmarks/results)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="snapshot to diff/gate against (default: latest BENCH_<n>.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any tracked kernel's score regressed past --threshold",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional score regression (default: 0.25)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="measure and report without writing a new snapshot",
    )


def cmd_perf(args: argparse.Namespace) -> int:
    """Handler behind ``python -m repro.bench perf``."""
    if args.repeats is not None and args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1: {args.repeats}")
    if not (0.0 < args.threshold):
        raise ValueError(f"--threshold must be positive: {args.threshold}")
    results_dir = Path(args.results_dir) if args.results_dir else default_results_dir()
    # Best-of-7 by default: anything lower is too noisy for a 25% gate on
    # shared CI runners.
    repeats = args.repeats if args.repeats is not None else 7

    suite = build_suite(args.only)

    # Resolve the baseline before writing, so a fresh snapshot never
    # compares against itself.
    if args.baseline:
        baseline_path: Optional[Path] = Path(args.baseline)
        if not baseline_path.exists():
            raise ValueError(f"baseline {baseline_path} does not exist")
    else:
        baseline_path = latest_snapshot(results_dir)
    baseline = snapshot_entries(baseline_path) if baseline_path else {}

    calibration = calibration_ns_per_op()
    print(
        f"# repro.bench perf: {len(suite)} bench(es), "
        f"calibration {calibration:.1f} ns/op",
        flush=True,
    )

    entries: List[Dict[str, Any]] = []
    for i, bench in enumerate(suite, 1):
        ns_per_op = _best_ns_per_op(bench.run, bench.ops, repeats)
        entry: Dict[str, Any] = {
            "group": bench.group,
            "name": bench.name,
            "ops": bench.ops,
            "repeats": repeats,
            "ns_per_op": round(ns_per_op, 3),
            "score": round(ns_per_op / calibration, 6),
            "tracked": bench.tracked,
        }
        line = f"[{i}/{len(suite)}] {bench.key}: {_format_ns(ns_per_op)}/op"
        if bench.reference is not None:
            reference_ns = _best_ns_per_op(bench.reference, bench.ops, repeats)
            entry["reference_ns_per_op"] = round(reference_ns, 3)
            entry["speedup"] = round(reference_ns / ns_per_op, 2)
            line += f" ({entry['speedup']}x vs reference)"
        base = baseline.get(bench.key)
        if base and isinstance(base.get("score"), (int, float)) and base["score"] > 0:
            delta = entry["score"] / base["score"] - 1.0
            entry["baseline_delta"] = round(delta, 4)
            line += f" [{delta:+.1%} vs baseline]"
        print(line, flush=True)
        entries.append(entry)

    snapshot: Dict[str, Any] = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "interpreter": _interpreter_fingerprint(),
        "calibration_ns_per_op": round(calibration, 3),
        "baseline": str(baseline_path) if baseline_path else None,
        "entries": entries,
    }

    if not args.no_write:
        path = next_snapshot_path(results_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        snapshot["path"] = str(path)
        print(f"snapshot: {path}")
    if baseline_path:
        print(f"baseline: {baseline_path}")

    if args.check:
        if not baseline:
            print("regression gate: no baseline snapshot — nothing to gate against")
            return 0
        current = {f"{e['group']}.{e['name']}": e for e in entries}
        regressions = compare_snapshots(baseline, current, args.threshold)
        if regressions:
            for reg in regressions:
                print(
                    f"REGRESSION {reg.key}: score {reg.baseline_score:.2f} -> "
                    f"{reg.score:.2f} ({reg.ratio - 1.0:+.1%}, "
                    f"limit +{args.threshold:.0%})",
                    file=sys.stderr,
                )
            return 1
        print(
            f"regression gate: {sum(1 for e in entries if e['tracked'])} tracked "
            f"kernel(s) within +{args.threshold:.0%} of baseline"
        )
    return 0
