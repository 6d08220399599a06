#!/usr/bin/env python3
"""End-to-end benchmark of the SENS-Join reproduction.

    python3 benchmarks/e2e/run.py --seed 0                      # all workloads
    python3 benchmarks/e2e/run.py --workload paper-600 --seed 3 --seconds 15
    python3 benchmarks/e2e/run.py --workload dense-1000 --trace 1   # per-layer
    python3 benchmarks/e2e/run.py --smoke --trace 1              # ~60 nodes

Run it from the repository root; it imports the program from ``src/``.
Each workload runs in its own fresh single-threaded subprocess, one after
another, with ``PYTHONHASHSEED`` derived from ``--seed``.  The subprocess
sets the workload up several times (``setup_s`` is the median), checks
every sample against the lossless oracle, and issues rounds of shuffled
samples in a closed loop until ``--seconds`` have passed and at least
:data:`MIN_SAMPLES` samples were taken.

Every metric is printed as ``<workload> <metric> <value> <unit>``; a JSON
result file goes to ``--out``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  A result
that differs from the oracle exits 1 and names the workload and sample.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Each workload is set up at least this often and for at least this long;
#: ``setup_s`` is the median.  A cheap set-up repeats for seconds, so that
#: a busy spell of the host slows fewer than half of the repeats.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 4.0

#: Host times are reported at this spin-probe speed, in ns per iteration:
#: about the probe's speed on a quiet 2-vCPU x86-64 VM.  Every timed call
#: and every set-up is bracketed by two probes and scaled by
#: ``REFERENCE_PROBE_NS / mean of the two``, so a call made while the host
#: is busy and one made while it is quiet report the same program speed.
#: The raw times stay in the result file under ``raw``.
REFERENCE_PROBE_NS = 40.0

#: Percentiles reported for host and simulated latency.
P50, P90 = 50, 90

#: Fewest samples beyond a reported percentile.
MIN_TAIL = 10

#: A subprocess that runs longer than this is killed: every run must end
#: within three minutes.
CHILD_TIMEOUT_S = 170

#: End-to-end metrics and their units.
E2E_UNITS = {
    "setup_s": "s",
    "wall_p50_ms": "ms",
    "wall_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "tx_packets_per_query": "packets",
    "energy_per_query": "model_units",
    "hot_node_energy": "model_units",
    "sim_latency_p50": "sim_s",
    "sim_latency_p90": "sim_s",
    "completed_frac": "fraction",
}

#: Simulated per-layer counts, read from the program's public outputs.
COUNT_UNITS = {
    "sim.tx_collection": "packets",
    "sim.tx_filter": "packets",
    "sim.tx_final": "packets",
    "sim.max_node_tx": "packets",
    "joins.treecut_exited": "nodes",
    "joins.filter_bytes": "bytes",
    "joins.filter_pruned_subtrees": "subtrees",
    "joins.final_precision": "fraction",
    "service.batches": "batches",
    "service.share_groups": "groups",
    "service.piggybacked": "broadcasts",
    "service.queue_wait_p90": "sim_s",
    "service.attempts_per_query": "attempts",
    "routing.repair_beacons": "packets",
    "routing.repairs": "repairs",
}

#: Module groups whose summed self time is reported as a share of the wall.
MODULES = ("data", "sim", "routing", "codec", "joins", "query", "service")


def rank(n: int, percent: int) -> int:
    """1-based nearest rank of ``percent`` among ``n`` sorted samples."""
    return max(1, -(-percent * n // 100))


def min_samples(percent: int = P90, tail: int = MIN_TAIL) -> int:
    """Fewest samples that leave ``tail`` samples beyond the percentile."""
    n = 1
    while n - rank(n, percent) < tail:
        n += 1
    return n


MIN_SAMPLES = min_samples()


def percentile(values: Sequence[float], percent: int) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank(len(ordered), percent) - 1]


def layer_units() -> Dict[str, str]:
    """Every per-layer metric and its unit, in print order."""
    units: Dict[str, str] = {}
    for layer in layers.SETUP_LAYERS:
        units[f"{layer}_ms"] = "ms/setup"
        units[f"{layer}_calls"] = "calls/setup"
    for layer in layers.QUERY_LAYERS:
        units[f"{layer}_ms"] = "ms/query"
        units[f"{layer}_self_ms"] = "ms/query"
        units[f"{layer}_calls"] = "calls/query"
    units["e2e.remainder_ms"] = "ms/query"
    units["codec.size_memo_hit_ratio"] = "fraction"
    for module in MODULES:
        units[f"share.{module}"] = "fraction"
    units["trace.coverage"] = "fraction"
    units["trace.closure_gap"] = "fraction"
    units["trace.overhead_frac"] = "fraction"
    units.update(COUNT_UNITS)
    return units


def spin_probe(loops: int = 3, iterations: int = 20_000) -> float:
    """Median ns per iteration of a fixed pure-Python loop: host speed."""
    timings = []
    for _ in range(loops):
        start = time.perf_counter_ns()
        total = 0
        for value in range(iterations):
            total += value
        timings.append((time.perf_counter_ns() - start) / iterations)
    return statistics.median(timings)


def at_reference(duration: float, before: float, after: float) -> float:
    """``duration`` at :data:`REFERENCE_PROBE_NS`, from the probes around it."""
    return duration * 2.0 * REFERENCE_PROBE_NS / (before + after)


def probed(fn, *args, **kwargs):
    """Run ``fn`` between two spin probes.

    Returns ``(result, (raw ns, ns at the reference probe speed, probes))``.
    """
    before = spin_probe()
    start = time.perf_counter_ns()
    result = fn(*args, **kwargs)
    raw = time.perf_counter_ns() - start
    after = spin_probe()
    return result, (raw, at_reference(raw, before, after), (before, after))


def thread_count() -> int:
    """Threads of this process, from ``/proc`` where it exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading

    return threading.active_count()


# ---------------------------------------------------------------------------
# One workload, inside its subprocess
# ---------------------------------------------------------------------------


class Failure(Exception):
    """A sample that raised or differed from the oracle."""


def weighted(stats: Dict[str, object], weights: Dict[str, int], pick) -> List:
    """``pick(stats)`` for every kind, repeated by weight, in kind order."""
    values: List = []
    for kind in sorted(stats):
        for _ in range(weights[kind]):
            values.extend(pick(stats[kind]))
    return values


def model_metrics(stats, weights) -> Dict[str, float]:
    """End-to-end simulated metrics over one canonical round of kinds."""
    kinds = sorted(stats)
    queries = sum(weights[k] * stats[k].queries for k in kinds)
    latencies = weighted(stats, weights, lambda s: s.latencies)
    return {
        "tx_packets_per_query": sum(weights[k] * stats[k].tx_packets for k in kinds) / queries,
        "energy_per_query": sum(weights[k] * stats[k].energy for k in kinds) / queries,
        "hot_node_energy": sum(weights[k] * stats[k].hot_node_energy for k in kinds)
        / sum(weights[k] for k in kinds),
        "sim_latency_p50": percentile(latencies, P50),
        "sim_latency_p90": percentile(latencies, P90),
        "completed_frac": sum(weights[k] * stats[k].completed for k in kinds) / queries,
    }


def count_metrics(stats, weights) -> Dict[str, float]:
    """Per-layer simulated counts: means per sample over the kinds that have them."""
    totals: Dict[str, float] = {}
    carriers: Dict[str, int] = {}
    for kind in sorted(stats):
        for key, value in stats[kind].counts:
            totals[key] = totals.get(key, 0.0) + weights[kind] * value
            carriers[key] = carriers.get(key, 0) + weights[kind]
    metrics = {name: 0.0 for name in COUNT_UNITS}
    for key in totals:
        if key in metrics:
            metrics[key] = totals[key] / carriers[key]
    shipped = totals.get("joins.final_tuples_shipped", 0.0)
    if shipped:
        metrics["joins.final_precision"] = 1.0 - totals["joins.false_positives"] / shipped
    if "service.attempts" in totals:
        queries = sum(weights[k] * stats[k].queries for k in stats)
        metrics["service.attempts_per_query"] = totals["service.attempts"] / queries
    waits = weighted(stats, weights, lambda s: s.waits)
    if waits:
        metrics["service.queue_wait_p90"] = percentile(waits, P90)
    return metrics


def digest(stats) -> str:
    """sha256 over every kind's simulated tx, energy and latencies."""
    hasher = hashlib.sha256()
    for kind in sorted(stats):
        s = stats[kind]
        line = f"{kind}|{s.queries}|{s.completed}|{s.tx_packets!r}|{s.energy!r}|{s.hot_node_energy!r}|{s.latencies!r}\n"
        hasher.update(line.encode())
    return hasher.hexdigest()


def layer_metrics(recorder, setups: int, traced_queries: int, traced_wall_ns: int) -> Dict[str, float]:
    """Per-layer host metrics from the traced rounds' spans."""
    metrics: Dict[str, float] = {}
    setup = layers.layer_totals(recorder, timed=False)
    for layer in layers.SETUP_LAYERS:
        calls, busy, _ = setup.get(layer, (0, 0, 0))
        metrics[f"{layer}_ms"] = busy / 1e6 / setups
        metrics[f"{layer}_calls"] = calls / setups
    timed = layers.layer_totals(recorder, timed=True)
    per_query = max(traced_queries, 1)
    named_self = covered = 0
    for layer in layers.QUERY_LAYERS:
        calls, busy, own = timed.get(layer, (0, 0, 0))
        named_self += own
        if layer not in layers.OUTER:
            covered += own
        metrics[f"{layer}_ms"] = busy / 1e6 / per_query
        metrics[f"{layer}_self_ms"] = own / 1e6 / per_query
        metrics[f"{layer}_calls"] = calls / per_query
    _, _, remainder = timed.get(layers.ROOT, (0, 0, 0))
    metrics["e2e.remainder_ms"] = remainder / 1e6 / per_query
    lookups = recorder.counts.get("codec.size_lookup", 0)
    sized = timed.get("codec.size", (0, 0, 0))[0]
    metrics["codec.size_memo_hit_ratio"] = max(0.0, 1.0 - sized / lookups) if lookups else 0.0
    wall = max(traced_wall_ns, 1)
    for module in MODULES:
        metrics[f"share.{module}"] = sum(
            timed.get(layer, (0, 0, 0))[2] for layer in layers.QUERY_LAYERS
            if layer.split(".")[0] == module
        ) / wall
    # Coverage leaves out the entry points' own time (layers.OUTER); the
    # closure gap checks the span bookkeeping: self times partition the wall.
    metrics["trace.coverage"] = covered / wall
    metrics["trace.closure_gap"] = (wall - named_self - remainder) / wall
    return metrics


@dataclass
class Times:
    """Host times: raw, and at the reference probe speed."""

    raw: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)

    def add(self, raw: float, scaled: float) -> None:
        self.raw.append(raw)
        self.scaled.append(scaled)


@dataclass
class Measurement:
    """What the timed loop collects (times in ns); traced rounds are kept apart."""

    kinds: List[str]
    stats: Dict[str, object] = field(default_factory=dict)
    walls: Times = field(default_factory=Times)
    kind_walls: Dict[str, List[float]] = field(default_factory=dict)
    rates: Times = field(default_factory=Times)
    traced_walls: List[int] = field(default_factory=list)
    traced_rates: List[float] = field(default_factory=list)
    traced_queries: int = 0
    attempted: int = 0
    failed: int = 0
    probes: List[float] = field(default_factory=list)
    rounds: int = 0
    error: Optional[str] = None


def set_up(workload, smoke: bool, recorder, trace: bool):
    """Set the workload up repeatedly; returns the last rig, durations in s, probes.

    Each step of a set-up is timed between its own probes: a set-up takes
    seconds, over which the host's speed changes.
    """
    times = Times()
    probes: List[float] = []
    minimum_s = 0.0 if smoke else SETUP_MIN_SECONDS
    bindings = layers.install(recorder) if trace else []
    recorder.active = trace
    try:
        while len(times.raw) < SETUP_MIN_REPEATS or sum(times.raw) < minimum_s:
            rig = None
            gc.collect()
            steps = Times()

            def step(fn, *args):
                result, (raw, scaled, around) = probed(fn, *args)
                steps.add(raw, scaled)
                probes.extend(around)
                return result

            rig = workload.setup(smoke, step)
            times.add(sum(steps.raw) / 1e9, sum(steps.scaled) / 1e9)
    finally:
        recorder.active = False
        layers.uninstall(bindings)
    return rig, times, probes


def measure(rig, weights: Dict[str, int], args, recorder, say) -> Measurement:
    """Warm up, then issue shuffled rounds until time and sample count suffice.

    With tracing, rounds alternate untraced and traced and the loop ends
    after a traced one.  A failing sample stops the loop and sets ``error``.
    """
    trace = bool(args.trace)
    seconds = 0.0 if args.smoke else args.seconds
    floor = 12 if args.smoke else MIN_SAMPLES
    rng = random.Random(f"e2e-{args.workload}-{args.seed}")
    m = Measurement(kinds=sorted(weights))
    m.kind_walls = {kind: [] for kind in m.kinds}

    def traced_call(index):
        def timed(fn, *a, **kw):
            return probed(recorder.call, index, fn, *a, **kw)
        return timed

    def sample(kind: str, timed):
        try:
            outcome, wall = rig.run(kind, timed)
        except Exception as exc:  # an engine failure ends the run, reported
            raise Failure(f"{type(exc).__name__}: {exc}") from exc
        error = rig.check(kind, outcome, full=kind not in m.stats)
        if error is not None:
            raise Failure(error)
        current = rig.stats(kind, outcome)
        if m.stats.setdefault(kind, current) != current:
            raise Failure("simulated cost differs from the kind's first sample")
        return current, wall

    index = 0
    where = f"warm-up ({m.kinds[0]})"
    try:
        sample(m.kinds[0], probed)  # untimed
        start = time.perf_counter()
        while True:
            traced = trace and m.rounds % 2 == 1
            order = [k for k in m.kinds for _ in range(weights[k])]
            rng.shuffle(order)
            bindings = layers.install(recorder) if traced else []
            round_raw = round_scaled = round_queries = 0
            round_probes: List[float] = []
            try:
                for kind in order:
                    where = f"sample {index} ({kind})"
                    gc.collect()
                    current, (raw, scaled, around) = sample(
                        kind, traced_call(index) if traced else probed
                    )
                    round_probes.extend(around)
                    m.attempted += current.queries
                    m.failed += current.failed
                    round_raw += raw
                    round_scaled += scaled
                    round_queries += current.queries
                    if traced:
                        m.traced_walls.append(raw)  # spans are raw too
                        m.traced_queries += current.queries
                    else:
                        m.walls.add(raw, scaled)
                        m.kind_walls[kind].append(scaled)
                    index += 1
            finally:
                layers.uninstall(bindings)
            if traced:
                m.traced_rates.append(round_queries / (round_scaled / 1e9))
            else:
                m.rates.add(round_queries / (round_raw / 1e9), round_queries / (round_scaled / 1e9))
            m.probes.extend(round_probes)
            say("host.probe_ns", f"{statistics.median(round_probes):.2f}", "ns")
            m.rounds += 1
            if (
                time.perf_counter() - start >= seconds
                and (trace or len(m.walls.raw) >= floor)
                and (not trace or m.rounds % 2 == 0)
            ):
                return m
    except Failure as exc:
        m.error = f"workload {args.workload} {where}: {exc}"
        print(f"FAILED: {m.error}", file=sys.stderr, flush=True)
        return m


def run_workload(args) -> dict:
    """Set up, measure and check one workload; prints and returns its result."""
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    weights = workload.weights()
    recorder = layers.SpanRecorder()

    def say(metric, value, unit=""):
        print(f"{workload.name} {metric} {value} {unit}".rstrip(), flush=True)

    rig, setup_times, setup_probes = set_up(workload, args.smoke, recorder, bool(args.trace))
    rig.prepare_oracles()
    m = measure(rig, weights, args, recorder, say)
    probes = setup_probes + m.probes
    result: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "smoke": bool(args.smoke),
        "correct": m.error is None,
        "error": m.error,
        "attempted": max(m.attempted, 1),
        "failed": m.failed,
        "kinds": weights,
        "rounds": m.rounds,
        "samples": len(m.walls.raw),
        "traced_samples": len(m.traced_walls),
        "setup_runs_s": setup_times.raw,
        "threads": thread_count(),
        "metrics": {},
    }
    if m.error is not None:
        return result

    def host(times: Times, walls: Times, rates: Times, pick) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(pick(times)),
            "wall_p50_ms": percentile(pick(walls), P50) / 1e6,
            "wall_p90_ms": percentile(pick(walls), P90) / 1e6,
            "queries_per_s": statistics.median(pick(rates)),
        }

    e2e = host(setup_times, m.walls, m.rates, lambda t: t.scaled)
    raw = host(setup_times, m.walls, m.rates, lambda t: t.raw)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e.update(model_metrics(m.stats, weights))
    counts = count_metrics(m.stats, weights)
    result.update({
        "e2e": e2e,
        "raw": raw,
        "counts": counts,
        "digest": digest(m.stats),
        "kind_wall_p50_ms": {
            kind: percentile(walls, P50) / 1e6 for kind, walls in m.kind_walls.items() if walls
        },
        "probe_ns": statistics.median(probes),
        "probe_spread": (max(probes) - min(probes)) / statistics.median(probes),
    })
    for metric, unit in E2E_UNITS.items():
        say(metric, e2e[metric], unit)
    for metric, value in raw.items():
        say(f"raw.{metric}", value, E2E_UNITS[metric])
    for metric, unit in COUNT_UNITS.items():
        say(metric, counts[metric], unit)
    say("samples", len(m.walls.raw))
    say("digest", result["digest"])
    say("host.probe_median_ns", result["probe_ns"], "ns")
    say("host.probe_spread", result["probe_spread"], "fraction")
    say("host.threads", result["threads"])

    if not args.trace:
        result["metrics"] = {
            metric: {"value": e2e[metric], "unit": unit} for metric, unit in E2E_UNITS.items()
        }
        return result

    per_layer = layer_metrics(recorder, len(setup_times.raw), m.traced_queries, sum(m.traced_walls))
    per_layer["trace.overhead_frac"] = e2e["queries_per_s"] / statistics.median(m.traced_rates) - 1.0
    per_layer.update(counts)
    units = layer_units()
    for metric, unit in units.items():
        if metric not in COUNT_UNITS:
            say(metric, per_layer[metric], unit)
    result["layers"] = per_layer
    result["metrics"] = {
        metric: {"value": per_layer[metric], "unit": unit} for metric, unit in units.items()
    }
    spans = Path(args.out) / f"trace-{workload.name}.jsonl"
    recorder.write_jsonl(spans)
    say("trace.spans", len(recorder))
    say("trace.file", os.path.relpath(spans))
    return result


# ---------------------------------------------------------------------------
# Launcher
# ---------------------------------------------------------------------------


def child_env(seed: int) -> Dict[str, str]:
    """The workload subprocess's environment: hash seed, one thread, no cache."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 4_294_967_296)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    for var in ("REPRO_BENCH_CACHE_DIR", "REPRO_SCALE"):
        env.pop(var, None)
    return env


def result_name(workload: str, seed: int, trace: int) -> str:
    return f"{workload}-seed{seed}{'-trace' if trace else ''}.json"


def launch(args) -> int:
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            print(f"unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        child_file = out / result_name(name, args.seed, args.trace)
        child_file.unlink(missing_ok=True)
        command = [
            sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out),
        ] + (["--smoke"] if args.smoke else [])
        try:
            subprocess.run(command, env=child_env(args.seed), timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"workload {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if not child_file.is_file():
            print(f"workload {name} wrote no result", file=sys.stderr)
            return 1
        results[name] = json.loads(child_file.read_text())

    if args.workload:
        final = results[args.workload]
        summary_metrics = final["metrics"]
    else:
        final = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workloads": results}
        summary_metrics = {
            f"{name}:{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        }
    result_path = Path(args.result) if args.result else out / result_name(
        args.workload or "all", args.seed, args.trace
    )
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(final, indent=1, sort_keys=True) + "\n")
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": summary_metrics,
    }))
    return 0 if correct else 1


def parse_args(argv: Optional[Sequence[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0, help="permutes the issue order")
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: alternate untraced and traced rounds and report per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="~60 nodes, ~12 samples per workload")
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for result and span files")
    parser.add_argument("--result", help="path of the final result file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if not args.child:
        os.environ.update({k: v for k, v in child_env(args.seed).items() if k.endswith("_THREADS")})
        return launch(args)
    result = run_workload(args)
    path = Path(args.out) / result_name(args.workload, args.seed, args.trace)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
