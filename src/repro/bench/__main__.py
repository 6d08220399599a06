"""Bench CLI: ``python -m repro.bench <command>``.

Three subcommands (full guide: ``docs/benchmarking.md``):

``run``
    Execute experiments as parallel cells and write tables + CSVs +
    a machine-readable run manifest::

        python -m repro.bench run --all --jobs 4
        python -m repro.bench run 'fig1*' loss --jobs 2 --scale paper
        python -m repro.bench run fig10_33 --nodes 150

``list``
    Show every experiment with its cell count at the chosen scale.

``report``
    Re-render the tables of the last ``run`` from its saved series bundle
    without re-running anything.

``perf`` / ``trend``
    Time the codec/kernel/scale/query micro kernels against the latest
    committed ``BENCH_<n>.json`` snapshot, and render the whole snapshot history as
    per-kernel sparklines (``trend --check`` validates the history).
    End-to-end timing is the repo's benchmark (``BENCHMARK.json``,
    ``benchmarks/e2e/run.py``), not a subcommand here.

Results land under ``--results-dir`` (default ``benchmarks/results``):
``<experiment>.csv`` per experiment, ``series.json`` (the lossless bundle
``report`` reads) and ``run_manifest.json`` (per-cell timings).  Every
``run`` computes every selected cell.  The rendered report goes to
``--out`` (default ``experiment_report_<scale>.txt``).  The figure suite
(``pytest benchmarks``) runs the same registry cells and writes the same
CSV names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from ..errors import ReproError
from .harness import experiment_specs, run_experiments, run_sharded_deployment
from .reporting import ExperimentSeries, render_table, save_csv
from .workloads import SCALE_NODE_COUNTS

DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"
SERIES_BUNDLE = "series.json"
MANIFEST_NAME = "run_manifest.json"
SHARD_MANIFEST_NAME = "shard_manifest.json"


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=list(SCALE_NODE_COUNTS),
        default="bench",
        help="bench = 600 nodes (CI default), paper = 1500 nodes",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="override the node count (takes precedence over --scale)",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    results_dir = Path(args.results_dir)
    if not args.patterns and not args.all:
        print(
            "error: select experiments by name/glob or pass --all "
            "(see `python -m repro.bench list`)",
            file=sys.stderr,
        )
        return 2

    node_count = args.nodes if args.nodes is not None else SCALE_NODE_COUNTS[args.scale]
    started = time.perf_counter()
    run = run_experiments(
        args.patterns or None,
        node_count=node_count,
        jobs=args.jobs,
        progress=lambda line: print(line, flush=True),
    )
    wall = time.perf_counter() - started

    out_path = Path(args.out or f"experiment_report_{args.scale}.txt")
    lines = [f"# Experiment report ({args.scale} scale, {node_count} nodes)\n"]
    for series in run.series:
        save_csv(series, results_dir)
        lines.append(render_table(series))
        lines.append("")
    out_path.write_text("\n".join(lines))

    run.manifest.update(
        {
            "scale": args.scale,
            "node_count": node_count,
            "wall_seconds": round(wall, 3),
            "report": str(out_path),
            "results_dir": str(results_dir),
        }
    )
    (results_dir / MANIFEST_NAME).write_text(
        json.dumps(run.manifest, indent=2, sort_keys=True) + "\n"
    )
    (results_dir / SERIES_BUNDLE).write_text(
        json.dumps([series.to_dict() for series in run.series], sort_keys=True)
        + "\n"
    )

    print(
        f"{len(run.series)} experiment(s), {run.manifest['total_cells']} cell(s) "
        f"in {wall:.1f}s wall "
        f"({run.manifest['total_cell_seconds']:.1f}s of cell time); "
        f"report: {out_path}; manifest: {results_dir / MANIFEST_NAME}"
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    node_count = args.nodes if args.nodes is not None else SCALE_NODE_COUNTS[args.scale]
    specs = experiment_specs(node_count)
    width = max(len(name) for name in specs)
    print(f"# experiments at {node_count} nodes (cells run in parallel)")
    for name, spec in specs.items():
        cells = f"{len(spec.cells)} cell{'s' if len(spec.cells) != 1 else ''}"
        print(f"{name.ljust(width)}  {cells:>9}  {spec.title}")
    return 0


def _render_profile(manifest_path: Path) -> Optional[str]:
    """The slowest-cells line of a run manifest, or None if absent."""
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError):
        return None
    profile = manifest.get("profile")
    if not isinstance(profile, dict) or not profile.get("slowest_cells"):
        return None
    cells = ", ".join(
        f"{entry['label']} {entry['elapsed_s']:.1f}s"
        for entry in profile["slowest_cells"]
    )
    return f"# slowest cells: {cells}"


def _cmd_report(args: argparse.Namespace) -> int:
    bundle = Path(args.results_dir) / SERIES_BUNDLE
    if not bundle.exists():
        print(
            f"error: {bundle} not found — run `python -m repro.bench run` first",
            file=sys.stderr,
        )
        return 2
    try:
        payloads = json.loads(bundle.read_text())
    except OSError as error:
        print(f"error: cannot read {bundle}: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(
            f"error: {bundle} is not valid JSON ({error}) — "
            "re-run `python -m repro.bench run` to regenerate it",
            file=sys.stderr,
        )
        return 2
    if not isinstance(payloads, list):
        print(
            f"error: {bundle} does not hold a series list — "
            "re-run `python -m repro.bench run` to regenerate it",
            file=sys.stderr,
        )
        return 2
    for payload in payloads:
        try:
            series = ExperimentSeries.from_dict(payload)
        except (KeyError, TypeError, AttributeError):
            print(
                f"error: {bundle} holds a malformed series entry — "
                "re-run `python -m repro.bench run` to regenerate it",
                file=sys.stderr,
            )
            return 2
        print(render_table(series))
        print()
    profile = _render_profile(Path(args.results_dir) / MANIFEST_NAME)
    if profile is not None:
        print(profile)
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    if args.nodes < 2:
        raise ValueError(f"--nodes must be >= 2: {args.nodes}")
    results_dir = Path(args.results_dir)
    started = time.perf_counter()
    run = run_sharded_deployment(
        args.nodes,
        args.shards,
        seed=args.seed,
        routing=args.routing,
        deployment=args.deployment,
        jobs=args.jobs,
        progress=lambda line: print(line, flush=True),
    )
    wall = time.perf_counter() - started
    series = run.series[0]
    save_csv(series, results_dir)
    print(render_table(series))
    run.manifest.update(
        {
            "node_count": args.nodes,
            "shard_count": args.shards,
            "wall_seconds": round(wall, 3),
            "results_dir": str(results_dir),
        }
    )
    (results_dir / SHARD_MANIFEST_NAME).write_text(
        json.dumps(run.manifest, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"{args.nodes} nodes over {args.shards} shard(s) in {wall:.1f}s wall; "
        f"csv: {results_dir / 'shard.csv'}; "
        f"manifest: {results_dir / SHARD_MANIFEST_NAME}"
    )
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from .perf import cmd_perf  # deferred: keeps `list`/`report` startup light

    return cmd_perf(args)


def _cmd_trend(args: argparse.Namespace) -> int:
    from .ascii_viz import render_sparkline
    from .perf import snapshot_entries, snapshot_history

    history = snapshot_history(
        Path(args.results_dir) if args.results_dir else None
    )
    if not history:
        print(
            "no BENCH_<n>.json snapshots found — run "
            "`python -m repro.bench perf` to start a history",
            file=sys.stderr,
        )
        return 2 if args.check else 0
    loaded = []
    for path in history:
        try:
            loaded.append((path, snapshot_entries(path)))
        except ValueError as error:
            if args.check:
                # The CI gate: a corrupt or schema-drifted snapshot in the
                # committed history is an error, not something to paper over.
                raise
            print(f"warning: skipping {path.name}: {error}", file=sys.stderr)
    if args.check:
        print(f"snapshot history ok: {len(loaded)} snapshot(s) readable")
    if len(loaded) < 2:
        print(
            f"{len(loaded)} readable snapshot(s) — a trend needs at least 2; "
            "run `python -m repro.bench perf` to add a point"
        )
        return 0

    # Per-kernel trajectory of the spin-loop-normalized score.  A missing
    # kernel in one snapshot renders as a gap, not a zero.
    keys = sorted({key for _, entries in loaded for key in entries})
    names = [path.name for path, _ in loaded]
    print(
        f"perf trajectory over {len(loaded)} snapshots "
        f"({names[0]} .. {names[-1]}, lower is better):"
    )
    key_width = max(len(key) for key in keys)
    for key in keys:
        scores = [
            float(entries[key]["score"]) if key in entries else float("nan")
            for _, entries in loaded
        ]
        finite = [s for s in scores if s == s]
        first, last = finite[0], finite[-1]
        change = (last - first) / first * 100.0 if first else 0.0
        print(
            f"{key.rjust(key_width)} |{render_sparkline(scores)}| "
            f"{first:.2f} -> {last:.2f} ({change:+.1f}%)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The bench CLI parser (exposed for testing and shell completion)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's §VI evaluation as parallel "
        "experiment cells.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run experiments (parallel cells)")
    run.add_argument(
        "patterns",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names or globs, e.g. fig10_33 'fig1*' loss",
    )
    run.add_argument("--all", action="store_true", help="run every experiment")
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = in-process; output is identical)",
    )
    _add_scale_arguments(run)
    run.add_argument(
        "--results-dir",
        default=str(DEFAULT_RESULTS_DIR),
        help="where CSVs, series.json and the manifest live",
    )
    run.add_argument("--out", default=None, help="report file (default: experiment_report_<scale>.txt)")
    run.set_defaults(handler=_cmd_run)

    lister = commands.add_parser("list", help="list experiments and cell counts")
    _add_scale_arguments(lister)
    lister.set_defaults(handler=_cmd_list)

    report = commands.add_parser(
        "report", help="re-render tables from the last run's series.json"
    )
    report.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR))
    report.set_defaults(handler=_cmd_report)

    shard = commands.add_parser(
        "shard",
        help="fan a giant deployment out over per-subtree shard workers",
    )
    shard.add_argument(
        "--nodes", type=int, default=10000, help="deployment size (default 10000)"
    )
    shard.add_argument(
        "--shards", type=int, default=4, help="shard cells to partition into"
    )
    shard.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process)"
    )
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--routing", choices=["flat", "cluster"], default="flat")
    shard.add_argument(
        "--deployment",
        choices=["grid", "uniform"],
        default="grid",
        help="grid stays connected at any size; uniform is the paper's draw",
    )
    shard.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR))
    shard.set_defaults(handler=_cmd_shard)

    perf = commands.add_parser(
        "perf",
        help="time codec/kernel/scale/query micro kernels; write BENCH_<n>.json snapshots",
    )
    from .perf import add_perf_arguments

    add_perf_arguments(perf)
    perf.set_defaults(handler=_cmd_perf)

    trend = commands.add_parser(
        "trend",
        help="per-kernel sparklines over the committed BENCH_<n>.json history",
    )
    trend.add_argument(
        "--results-dir",
        default=None,
        help="snapshot directory (default: benchmarks/results, repo-anchored)",
    )
    trend.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 2) when any snapshot in the history is malformed",
    )
    trend.set_defaults(handler=_cmd_trend)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into something that stopped reading (`| head`).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
