"""Query and report over exported telemetry traces.

::

    python -m repro.obs record --nodes 50 --out trace.jsonl   # produce one
    python -m repro.obs summary trace.jsonl                   # what happened
    python -m repro.obs grep trace.jsonl --kind link-retx     # find events
    python -m repro.obs timeline trace.jsonl                  # who, when
    python -m repro.obs energy-breakdown trace.jsonl          # where it went
    python -m repro.obs compare base.jsonl new.jsonl          # did it regress
    python -m repro.obs hotspots trace.jsonl                  # who pays for it

``record`` runs one traced snapshot query on a fresh deployment at the
paper's density and writes the JSONL export (schema in
``docs/observability.md``); every other subcommand is a pure reader and
works on any export, including ones produced programmatically with
:func:`repro.obs.write_jsonl`.

``energy-breakdown`` is the accounting cross-check: per phase it sums the
measured energy counters and independently *derives* the energy from the
packet/byte counters and the affine radio constants recorded in the trace
header — the two must agree to float precision, a property the test suite
enforces.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError
from . import reconcile
from .export import TraceLog, read_jsonl, write_jsonl
from .metrics import MetricsRegistry

#: Phase ordering for report tables (protocol order, then anything else).
_PHASE_ORDER = [
    "query-dissemination",
    "join-attribute-collection",
    "filter-dissemination",
    "final-result",
    "external-collection",
    "tree-maintenance",
]

#: Lane grouping for service-layer event kinds (summary/timeline).  The
#: protocol lane is the catch-all; everything the broker and the tree
#: maintenance layer emit gets its own lane so a churned broker trace reads
#: as three interleaved stories instead of one flat histogram.
_KIND_LANES = [
    ("broker", lambda kind: kind.startswith("broker-")),
    ("tree", lambda kind: kind in ("tree-reattach", "fault-inject", "fault-heal")),
    ("slo", lambda kind: kind == "slo-violation"),
]


def _kind_lane(kind: str) -> str:
    for lane, match in _KIND_LANES:
        if match(kind):
            return lane
    return "protocol"


def _phase_sort_key(phase: str) -> Tuple[int, str]:
    try:
        return (_PHASE_ORDER.index(phase), phase)
    except ValueError:
        return (len(_PHASE_ORDER), phase)


def _phases_in(reg: MetricsRegistry) -> List[str]:
    return sorted(reconcile.phases_in(reg), key=_phase_sort_key)


def _format_table(header: List[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(header[i]), max((len(row[i]) for row in rows), default=0))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(header)),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


# -- record ------------------------------------------------------------------


def _cmd_record(args: argparse.Namespace) -> int:
    from ..bench.workloads import build_scenario, ratio_query_builder
    from ..joins.runner import run_snapshot
    from .telemetry import Telemetry

    scenario = build_scenario(
        node_count=args.nodes, seed=args.seed, loss_rate=args.loss
    )
    # A fixed tail threshold rather than a calibrated one: `record` must be
    # cheap and self-contained (no calibration bisection), and any sensible
    # selectivity exercises all three phases.
    query = ratio_query_builder(1, 3)(args.threshold)
    telemetry = Telemetry.capture(capacity=args.ring)
    algorithm: Any = args.algorithm
    sampler = None
    if args.sample_period is not None:
        # Simulated-time sampling rides on the DES kernel's clock; the
        # synchronous snapshot engines have no clock to tick against.
        if args.algorithm != "des-sensjoin":
            raise ReproError(
                "--sample-period needs the event-driven engine: "
                "use --algorithm des-sensjoin"
            )
        from ..joins.des_sensjoin import DesSensJoin
        from .timeseries import MetricsSampler

        sampler = MetricsSampler(telemetry=telemetry, period_s=args.sample_period)
        sampler.watch_network(scenario.network)
        sampler.watch_tree(lambda: scenario.tree)
        algorithm = DesSensJoin(sampler=sampler)
    outcome = run_snapshot(
        scenario.network,
        scenario.world,
        query,
        algorithm,
        tree=scenario.tree,
        tree_seed=scenario.seed,
        disseminate_query=True,
        telemetry=telemetry,
    )
    model = scenario.network.energy_model
    meta = {
        "generator": "repro.obs record",
        "nodes": scenario.node_count,
        "seed": args.seed,
        "loss_rate": args.loss,
        "algorithm": outcome.algorithm,
        "threshold": args.threshold,
        "max_packet_bytes": scenario.network.packet_format.max_packet_bytes,
        "energy_model": {
            "tx_per_packet": model.tx_per_packet,
            "tx_per_byte": model.tx_per_byte,
            "rx_per_packet": model.rx_per_packet,
            "rx_per_byte": model.rx_per_byte,
        },
        "result_matches": outcome.result.match_count,
        "response_time_s": outcome.response_time_s,
        "total_energy_joules": scenario.network.total_energy(),
    }
    if sampler is not None:
        # Key present only when sampling so sampler-free exports stay
        # byte-identical to pre-sampling builds.
        meta["sample_period_s"] = args.sample_period
    lines = write_jsonl(
        args.out,
        tracer=telemetry.tracer,
        registry=telemetry.registry,
        meta=meta,
        series=sampler.all_series() if sampler is not None else (),
    )
    suffix = ""
    if sampler is not None:
        suffix = f", {len(sampler.all_series())} series"
    print(
        f"wrote {args.out}: {len(telemetry.tracer)} events, "
        f"{len(telemetry.registry)} instruments{suffix}, {lines} lines"
    )
    return 0


# -- summary -----------------------------------------------------------------


def _cmd_summary(args: argparse.Namespace) -> int:
    log = read_jsonl(args.trace)
    meta = log.meta
    print(f"trace {args.trace} (schema {log.schema})")
    if meta:
        interesting = [
            "generator", "nodes", "seed", "loss_rate", "algorithm",
            "result_matches", "response_time_s", "total_energy_joules",
        ]
        parts = [f"{k}={meta[k]}" for k in interesting if k in meta]
        if parts:
            print("  " + ", ".join(parts))
    print(f"{len(log.events)} events, {len(log.metrics)} metric samples", end="")
    print(f", {log.dropped} dropped (ring overflow)" if log.dropped else "")
    if log.dropped:
        print(
            f"WARNING: tracer ring overflowed — {log.dropped} oldest events "
            "are missing; re-record with a larger --ring for a full trace"
        )
    series_dropped = log.series_dropped()
    if series_dropped:
        print(
            f"WARNING: sampler rings overflowed — {series_dropped} oldest "
            "points dropped across series; lower the cadence or raise capacity"
        )

    counts = Counter(event.kind for event in log.events)
    if counts:
        print("\nevents by kind:")
        from ..bench.ascii_viz import render_histogram

        entries = [(kind, float(count)) for kind, count in counts.most_common()]
        print(render_histogram(entries, width=40))
        lanes = Counter(_kind_lane(kind) for kind in counts.elements())
        if len(lanes) > 1:
            parts = [
                f"{lane}={lanes[lane]}"
                for lane, _ in _KIND_LANES if lanes.get(lane)
            ]
            parts.insert(0, f"protocol={lanes.get('protocol', 0)}")
            print("lanes: " + ", ".join(parts))

    if log.series:
        print(f"\ntime series ({len(log.series)}):")
        by_name: Dict[str, List[Any]] = {}
        for sample in log.series:
            by_name.setdefault(sample.name, []).append(sample)
        rows = []
        for name in sorted(by_name):
            group = by_name[name]
            points = sum(len(s.points) for s in group)
            dropped = sum(s.dropped for s in group)
            last_values = [s.last[1] for s in group if s.points]
            rows.append([
                name,
                str(len(group)),
                str(points),
                f"{max(last_values):.3f}" if last_values else "-",
                str(dropped) if dropped else "0",
            ])
        print(_format_table(
            ["series", "instances", "points", "max last", "dropped"], rows
        ))

    spans = [e for e in log.events if e.kind == "span-end"]
    if spans:
        print("\nphase spans:")
        rows = []
        for event in spans:
            detail = event.detail
            rows.append([
                str(detail.get("span", "?")),
                str(event.node_id),
                f"{event.time - float(detail.get('duration_s', 0.0)):.3f}",
                f"{event.time:.3f}",
                f"{float(detail.get('duration_s', 0.0)):.3f}",
                "yes" if detail.get("ok", True) else "NO",
            ])
        print(_format_table(["span", "node", "start", "end", "duration_s", "ok"], rows))

    reg = log.registry()
    phases = _phases_in(reg)
    if phases:
        print("\nper-phase traffic:")
        rows = []
        for phase in phases:
            rows.append([
                phase,
                f"{reg.total('tx_packets_total', phase=phase):.0f}",
                f"{reg.total('tx_bytes_total', phase=phase):.0f}",
                f"{reg.total('retx_packets_total', phase=phase):.0f}",
                f"{reg.total('energy_joules_total', phase=phase):.3f}",
            ])
        print(_format_table(
            ["phase", "tx pkts", "tx bytes", "retx pkts", "energy J"], rows
        ))
    return 0


# -- grep --------------------------------------------------------------------


def _cmd_grep(args: argparse.Namespace) -> int:
    log = read_jsonl(args.trace)
    shown = 0
    for event in log.events:
        if args.kind is not None and event.kind != args.kind:
            continue
        if args.node is not None and event.node_id != args.node:
            continue
        if args.since is not None and event.time < args.since:
            continue
        if args.until is not None and event.time > args.until:
            continue
        print(event)
        shown += 1
        if args.limit is not None and shown >= args.limit:
            print(f"... (limit {args.limit} reached)")
            break
    if shown == 0:
        print("(no matching events)")
    return 0


# -- timeline ----------------------------------------------------------------


def _cmd_timeline(args: argparse.Namespace) -> int:
    from ..bench.ascii_viz import render_sparkline, render_timeline

    log = read_jsonl(args.trace)
    events = log.events
    if args.kind is not None:
        events = [e for e in events if e.kind == args.kind]
    label = args.kind or "all kinds"
    if args.by == "kind":
        # One density lane per service layer: protocol chatter, broker
        # admission, tree maintenance and SLO breaches each get their own
        # sparkline over a shared time axis.
        if not events:
            print("(no events)")
            return 0
        t_lo = min(e.time for e in events)
        t_hi = max(e.time for e in events)
        span = max(t_hi - t_lo, 1e-12)
        lanes: Dict[str, List[float]] = {}
        for event in events:
            lanes.setdefault(_kind_lane(event.kind), []).append(event.time)
        print(
            f"event lanes ({label}, {len(events)} events, "
            f"t=[{t_lo:.3f}, {t_hi:.3f}]s):"
        )
        width = max(args.width, 8)
        name_w = max(len(name) for name in lanes)
        for lane_name, _ in _KIND_LANES + [("protocol", None)]:
            times = lanes.get(lane_name)
            if not times:
                continue
            bins = [0.0] * width
            for t in times:
                index = min(int((t - t_lo) / span * width), width - 1)
                bins[index] += 1.0
            print(
                f"{lane_name.rjust(name_w)} |{render_sparkline(bins)}| "
                f"{len(times)} events"
            )
        return 0
    print(f"node activity ({label}, {len(events)} events):")
    print(render_timeline(
        [(e.time, e.node_id) for e in events], width=args.width, height=args.height
    ))
    return 0


# -- energy-breakdown --------------------------------------------------------


#: Shared with the differential harness — see :mod:`repro.obs.reconcile`.
_derived_phase_energy = reconcile.derived_phase_energy


def _cmd_energy_breakdown(args: argparse.Namespace) -> int:
    log = read_jsonl(args.trace)
    reg = log.registry()
    phases = _phases_in(reg)
    if not phases:
        print("trace has no per-phase counters (was it recorded with telemetry?)")
        return 1
    model = log.meta.get("energy_model")
    rows = []
    total_measured = 0.0
    worst_delta = 0.0
    for phase in phases:
        measured = reg.total("energy_joules_total", phase=phase)
        total_measured += measured
        row = [
            phase,
            f"{reg.total('tx_packets_total', phase=phase):.0f}",
            f"{reg.total('tx_bytes_total', phase=phase):.0f}",
            f"{reg.total('rx_bytes_total', phase=phase):.0f}",
            f"{reg.total('retx_packets_total', phase=phase):.0f}",
            f"{measured:.6f}",
        ]
        if model is not None:
            derived = _derived_phase_energy(reg, phase, model)
            delta = abs(measured - derived)
            worst_delta = max(worst_delta, delta)
            row.append(f"{derived:.6f}")
            row.append(f"{delta:.2e}")
        rows.append(row)
    header = ["phase", "tx pkts", "tx bytes", "rx bytes", "retx pkts", "energy J"]
    if model is not None:
        header += ["derived J", "|delta|"]
    print(_format_table(header, rows))
    print(f"\ntotal measured energy: {total_measured:.6f} J")
    if "total_energy_joules" in log.meta:
        ledger_total = float(log.meta["total_energy_joules"])
        print(f"ledger total (from meta): {ledger_total:.6f} J "
              f"(|delta| {abs(ledger_total - total_measured):.2e})")
    if model is not None:
        tolerance = reconcile.reconciliation_tolerance(total_measured)
        if worst_delta > tolerance:
            print(
                f"RECONCILIATION FAILED: worst per-phase |delta| {worst_delta:.2e} "
                f"exceeds {tolerance:.2e}",
                file=sys.stderr,
            )
            return 1
        print(f"reconciled: worst per-phase |delta| {worst_delta:.2e}")
    else:
        print("(no energy_model in trace meta; derivation check skipped)")
    from ..bench.ascii_viz import render_histogram

    print("\nenergy by phase:")
    entries = [
        (phase, reg.total("energy_joules_total", phase=phase)) for phase in phases
    ]
    print(render_histogram(entries, width=40))
    return 0


# -- compare -----------------------------------------------------------------


def _relative_change(before: float, after: float) -> Optional[float]:
    """Fractional change, or ``None`` when a zero baseline makes it moot."""
    if before == 0.0:
        return None if after == 0.0 else float("inf")
    return (after - before) / abs(before)


def _format_change(change: Optional[float]) -> str:
    if change is None:
        return "-"
    if change == float("inf"):
        return "new"
    return f"{change * 100.0:+.2f}%"


def _counter_totals(reg: MetricsRegistry) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for sample in reg.samples():
        if sample.kind == "histogram":
            continue
        totals[sample.name] = totals.get(sample.name, 0.0) + float(sample.value)
    return totals


def _last_series_values(log: TraceLog) -> Dict[str, float]:
    """Final value of every *unlabeled* series (rolling broker aggregates)."""
    values: Dict[str, float] = {}
    for sample in log.series:
        if not dict(sample.labels) and sample.points:
            values[sample.name] = sample.last[1]
    return values


def _cmd_compare(args: argparse.Namespace) -> int:
    log_a = read_jsonl(args.trace_a)
    log_b = read_jsonl(args.trace_b)
    reg_a, reg_b = log_a.registry(), log_b.registry()
    print(f"compare {args.trace_a} (A) -> {args.trace_b} (B)")

    # Counter deltas (informational): every counter/gauge family by name.
    totals_a = _counter_totals(reg_a)
    totals_b = _counter_totals(reg_b)
    names = sorted(set(totals_a) | set(totals_b))
    changed = [
        name for name in names
        if totals_a.get(name, 0.0) != totals_b.get(name, 0.0)
    ]
    if changed:
        print("\ncounter shifts:")
        rows = []
        for name in changed:
            before = totals_a.get(name, 0.0)
            after = totals_b.get(name, 0.0)
            rows.append([
                name, f"{before:.3f}", f"{after:.3f}",
                _format_change(_relative_change(before, after)),
            ])
        print(_format_table(["counter", "A", "B", "shift"], rows))
    else:
        print("\ncounter shifts: none")

    # Rolling-aggregate shifts (informational): final value per series.
    series_a = _last_series_values(log_a)
    series_b = _last_series_values(log_b)
    shared = sorted(set(series_a) & set(series_b))
    moved = [name for name in shared if series_a[name] != series_b[name]]
    if moved:
        print("\nseries shifts (final values):")
        rows = [
            [
                name, f"{series_a[name]:.4f}", f"{series_b[name]:.4f}",
                _format_change(_relative_change(series_a[name], series_b[name])),
            ]
            for name in moved
        ]
        print(_format_table(["series", "A", "B", "shift"], rows))

    # The gate: per-phase energy regression beyond --tolerance fails.
    phases = sorted(
        set(_phases_in(reg_a)) | set(_phases_in(reg_b)), key=_phase_sort_key
    )
    regressions = []
    if phases:
        print("\nper-phase energy:")
        rows = []
        for phase in phases:
            before = reg_a.total("energy_joules_total", phase=phase)
            after = reg_b.total("energy_joules_total", phase=phase)
            change = _relative_change(before, after)
            regressed = (
                change == float("inf")
                or (change is not None and change > args.tolerance)
            )
            if regressed:
                regressions.append((phase, before, after))
            rows.append([
                phase, f"{before:.6f}", f"{after:.6f}",
                _format_change(change), "REGRESSED" if regressed else "ok",
            ])
        print(_format_table(["phase", "A (J)", "B (J)", "shift", "verdict"], rows))
    else:
        print("\nper-phase energy: no per-phase counters in either trace")

    if regressions:
        worst = max(regressions, key=lambda r: r[2] - r[1])
        print(
            f"\nENERGY REGRESSION: {len(regressions)} phase(s) exceed "
            f"+{args.tolerance * 100.0:.1f}% (worst: {worst[0]} "
            f"{worst[1]:.6f} J -> {worst[2]:.6f} J)",
            file=sys.stderr,
        )
        return 1
    print(f"\nno energy regression (tolerance +{args.tolerance * 100.0:.1f}%)")
    return 0


# -- hotspots ----------------------------------------------------------------


def _gini(values: List[float]) -> float:
    """Gini index of a non-negative sample; 0 = perfectly even load."""
    if not values:
        return 0.0
    ordered = sorted(values)
    total = sum(ordered)
    if total <= 0.0:
        return 0.0
    n = len(ordered)
    # Mean absolute difference formulation via the sorted prefix weights.
    weighted = sum((2 * (i + 1) - n - 1) * v for i, v in enumerate(ordered))
    return weighted / (n * total)


def _cmd_hotspots(args: argparse.Namespace) -> int:
    from ..sim.node import BASE_STATION_ID

    log = read_jsonl(args.trace)
    source = "series node_energy_j"
    energies: Dict[int, float] = {}
    for sample in log.series_named("node_energy_j"):
        node = dict(sample.labels).get("node")
        if node is not None and sample.points:
            energies[int(node)] = sample.last[1]
    if not energies:
        # Sampler-free traces still carry per-node energy counters.
        source = "counter energy_joules_total{node=...}"
        for sample in log.registry().samples():
            if sample.kind == "histogram" or sample.name != "energy_joules_total":
                continue
            node = dict(sample.labels).get("node")
            if node is not None:
                energies[int(node)] = energies.get(int(node), 0.0) + float(
                    sample.value
                )
    if not energies:
        print(
            "trace has no per-node energy (record with --sample-period or "
            "telemetry enabled)",
            file=sys.stderr,
        )
        return 2
    depths: Dict[int, float] = {}
    for sample in log.series_named("node_tree_depth"):
        node = dict(sample.labels).get("node")
        if node is not None and sample.points:
            depths[int(node)] = sample.last[1]

    sensors = {n: e for n, e in energies.items() if n != BASE_STATION_ID}
    pool = sensors if sensors else energies
    total = sum(pool.values())
    mean = total / len(pool)
    peak = max(pool.values())
    ranked = sorted(pool.items(), key=lambda item: (-item[1], item[0]))
    top = ranked[: args.top]
    print(f"energy hotspots ({source}, {len(pool)} sensor nodes):")
    rows = []
    for node, energy in top:
        row = [
            str(node),
            f"{energy:.6f}",
            f"{(energy / total * 100.0) if total else 0.0:.1f}%",
            f"{energy / mean:.2f}x" if mean else "-",
        ]
        row.append(f"{depths[node]:.0f}" if node in depths else "-")
        rows.append(row)
    print(_format_table(["node", "energy J", "share", "vs mean", "depth"], rows))
    imbalance = peak / mean if mean else 0.0
    print(
        f"\nimbalance: max/mean {imbalance:.2f}, "
        f"Gini {_gini(list(pool.values())):.3f}"
    )
    if depths:
        shallow = sum(1 for node, _ in top if depths.get(node, 99.0) <= 2.0)
        print(
            f"top-{len(top)} within 2 hops of the base station: "
            f"{shallow}/{len(top)} (the collection funnel)"
        )
    return 0


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect exported telemetry traces (JSONL).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser("record", help="run one traced snapshot and export it")
    p_record.add_argument("--nodes", type=int, default=50)
    p_record.add_argument("--seed", type=int, default=0)
    p_record.add_argument("--loss", type=float, default=0.0,
                          help="per-link loss rate (0 disables the ARQ path)")
    p_record.add_argument("--algorithm", default="sens-join",
                          choices=["sens-join", "external-join", "des-sensjoin"])
    p_record.add_argument("--threshold", type=float, default=6.0,
                          help="tail threshold of the Q1-style join condition")
    p_record.add_argument("--ring", type=int, default=None,
                          help="bound the tracer to the most recent N events")
    p_record.add_argument("--sample-period", type=float, default=None,
                          help="sample gauges every N simulated seconds "
                               "(des-sensjoin only; off by default)")
    p_record.add_argument("--out", default="trace.jsonl")
    p_record.set_defaults(func=_cmd_record)

    p_summary = sub.add_parser("summary", help="header, event and span overview")
    p_summary.add_argument("trace")
    p_summary.set_defaults(func=_cmd_summary)

    p_grep = sub.add_parser("grep", help="filter events by kind/node/time")
    p_grep.add_argument("trace")
    p_grep.add_argument("--kind")
    p_grep.add_argument("--node", type=int)
    p_grep.add_argument("--since", type=float)
    p_grep.add_argument("--until", type=float)
    p_grep.add_argument("--limit", type=int)
    p_grep.set_defaults(func=_cmd_grep)

    p_timeline = sub.add_parser("timeline", help="ASCII node-activity timeline")
    p_timeline.add_argument("trace")
    p_timeline.add_argument("--kind")
    p_timeline.add_argument("--by", choices=["node", "kind"], default="node",
                            help="node: per-node scatter; kind: one density "
                                 "lane per event family (broker/tree/slo)")
    p_timeline.add_argument("--width", type=int, default=72)
    p_timeline.add_argument("--height", type=int, default=20)
    p_timeline.set_defaults(func=_cmd_timeline)

    p_energy = sub.add_parser(
        "energy-breakdown",
        help="per-phase byte/energy table with model reconciliation",
    )
    p_energy.add_argument("trace")
    p_energy.set_defaults(func=_cmd_energy_breakdown)

    p_compare = sub.add_parser(
        "compare",
        help="diff two traces; non-zero exit on per-phase energy regression",
    )
    p_compare.add_argument("trace_a", help="baseline export (A)")
    p_compare.add_argument("trace_b", help="candidate export (B)")
    p_compare.add_argument("--tolerance", type=float, default=0.05,
                           help="allowed fractional per-phase energy growth "
                                "before the compare fails (default 0.05)")
    p_compare.set_defaults(func=_cmd_compare)

    p_hotspots = sub.add_parser(
        "hotspots",
        help="top-K per-node energy with imbalance indices (max/mean, Gini)",
    )
    p_hotspots.add_argument("trace")
    p_hotspots.add_argument("--top", type=int, default=10)
    p_hotspots.set_defaults(func=_cmd_hotspots)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as error:
        if isinstance(error, BrokenPipeError):
            # Output was piped into something that stopped reading (`| head`).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 0
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
