"""Parallel experiment harness: cells, fan-out, assembly.

The §VI evaluation is an embarrassingly parallel matrix — every
(experiment, ratio, sweep point, seed) combination is an independent
simulation.  This module decomposes each experiment function of
:mod:`repro.bench.experiments` into picklable **cells**, fans them out over
a :class:`concurrent.futures.ProcessPoolExecutor`, and reassembles the
exact :class:`~repro.bench.reporting.ExperimentSeries` the serial call
would have produced — byte-identical tables and CSVs regardless of worker
count or completion order.

How that identity is achieved:

* a cell re-invokes the *same* experiment function with a single-point
  sweep (e.g. ``fig10_overall("33", fractions=[0.05], ...)``), so each row
  is computed by exactly the code that computes it serially;
* every cell is fully pinned — :func:`experiment_specs` is the one place
  that declares each experiment's sweep points and node count, the
  functions require both, and workers never consult environment variables;
* assembly concatenates the single-point series in sweep order (never in
  completion order) and deduplicates notes; experiments whose summary
  note spans the whole sweep (``variance``) or that cross-check rows
  against each other (``loss``) get a custom assembler.

Every run computes every selected cell; ``python -m repro.bench report``
re-renders the last run without computing anything.  See
``docs/benchmarking.md`` for the determinism contract, and
:mod:`repro.bench.__main__` for the CLI (``python -m repro.bench``).
"""

from __future__ import annotations

import fnmatch
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .. import constants
from ..errors import ProtocolError
from .experiments import scale_node_counts, variance_summary_note
from .reporting import ExperimentSeries
from .workloads import default_node_count

__all__ = [
    "Cell",
    "CellResult",
    "ExperimentSpec",
    "RunResult",
    "deployment_shard_spec",
    "experiment_specs",
    "run_experiments",
    "run_sharded_deployment",
]

#: Manifest layout version (see :attr:`RunResult.manifest`).
MANIFEST_SCHEMA = 2


@dataclass(frozen=True)
class Cell:
    """One independent unit of work: a pinned experiment-function call.

    ``kwargs`` must be JSON-clean (numbers, strings, lists) — they are both
    the pickled payload sent to workers and the manifest's record of the
    call.  ``index`` is the cell's position in its experiment's sweep;
    assembly orders by it, never by completion time.
    """

    experiment: str
    func: str
    kwargs: Dict[str, Any]
    index: int

    @property
    def label(self) -> str:
        """Human-readable progress label, e.g. ``fig10_33[3]``."""
        return f"{self.experiment}[{self.index}]"


@dataclass
class CellResult:
    """A finished cell: its single-point series plus its wall time."""

    cell: Cell
    series: ExperimentSeries
    elapsed_s: float


Assembler = Callable[[List[ExperimentSeries]], ExperimentSeries]


@dataclass
class ExperimentSpec:
    """One named experiment: its cells and how to reassemble them."""

    name: str
    title: str
    cells: List[Cell]
    assemble: Assembler = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.assemble is None:
            self.assemble = _assemble_concat


def _assemble_concat(series_list: List[ExperimentSeries]) -> ExperimentSeries:
    """Default assembly: concatenate rows in cell order, dedupe notes.

    Exactly reproduces a serial run for experiments whose notes are
    constant across sweep points (the per-point series all carry the same
    note, which deduplicates to the single note the serial loop appends).
    """
    if not series_list:
        raise ValueError("cannot assemble an experiment from zero cell series")
    first = series_list[0]
    out = ExperimentSeries(first.experiment, first.title, list(first.columns))
    for part in series_list:
        if part.columns != first.columns:
            raise ProtocolError(
                f"{first.experiment}: cell columns diverged "
                f"({part.columns} vs {first.columns})"
            )
        out.rows.extend(list(row) for row in part.rows)
        for note in part.notes:
            if note not in out.notes:
                out.notes.append(note)
    return out


def _assemble_variance(series_list: List[ExperimentSeries]) -> ExperimentSeries:
    """Variance study: recompute the whole-sweep mean/spread note.

    Per-seed cells each carry a one-seed note; the serial function computes
    the note from the rounded per-row savings, so regenerating it from the
    concatenated ``savings_pct`` column restores byte identity.
    """
    out = _assemble_concat(series_list)
    out.notes = [variance_summary_note([float(v) for v in out.column("savings_pct")])]
    return out


def _assemble_loss(series_list: List[ExperimentSeries]) -> ExperimentSeries:
    """Loss study: re-apply the cross-rate exactness check.

    The serial loop asserts SENS-Join's match count is identical at every
    loss rate; per-rate cells cannot see each other, so the check moves
    here.
    """
    out = _assemble_concat(series_list)
    algorithm = out.columns.index("algorithm")
    matches = out.columns.index("matches")
    sens = {row[matches] for row in out.rows if row[algorithm] == "sens-join"}
    if len(sens) > 1:
        raise ProtocolError(
            f"SENS-Join result changed under loss: match counts {sorted(sens)}"
        )
    return out


def _assemble_shards(series_list: List[ExperimentSeries]) -> ExperimentSeries:
    """Sharded deployment: gate completeness, then append the merge row.

    Each shard cell reports its own slice of the partition; the merge is
    only valid when the slices tile the whole deployment.  Two checks catch
    every partition bug at once: the shard node counts must sum to the
    deployment size, and the shard id-sums must total ``n(n+1)/2`` (sensor
    ids are ``1..n``), which rules out overlap-plus-gap combinations that
    keep the count right.  The appended ``shard == -1`` row is the merged
    view: sums for work columns, maxima for the parallel wall-clock ones.
    """
    out = _assemble_concat(series_list)
    col = {name: out.columns.index(name) for name in out.columns}
    totals = {int(row[col["total_nodes"]]) for row in out.rows}
    shard_counts = {int(row[col["shards"]]) for row in out.rows}
    if len(totals) != 1 or shard_counts != {len(out.rows)}:
        raise ProtocolError(
            f"shard cells disagree on the deployment: total_nodes {sorted(totals)}, "
            f"shards {sorted(shard_counts)} for {len(out.rows)} cell(s)"
        )
    total = totals.pop()
    covered = sum(int(row[col["nodes"]]) for row in out.rows)
    id_sum = sum(int(row[col["id_sum"]]) for row in out.rows)
    expected_ids = total * (total + 1) // 2
    if covered != total or id_sum != expected_ids:
        raise ProtocolError(
            f"sharded deployment merge incomplete: {covered}/{total} node(s), "
            f"id checksum {id_sum} != {expected_ids}"
        )
    out.rows.append([
        -1,
        len(out.rows),
        covered,
        sum(int(row[col["subtrees"]]) for row in out.rows),
        max(int(row[col["max_depth"]]) for row in out.rows),
        sum(int(row[col["tx_packets"]]) for row in out.rows),
        round(sum(float(row[col["energy"]]) for row in out.rows), 1),
        id_sum,
        total,
        max(float(row[col["build_s"]]) for row in out.rows),
        max(float(row[col["tree_s"]]) for row in out.rows),
    ])
    out.notes.append(
        "shard -1 = deterministic merge of all shards (sums; build_s/tree_s "
        "are maxima — shards rebuild in parallel); completeness gated on "
        "node count and id checksum"
    )
    return out


def deployment_shard_spec(
    node_count: int,
    shard_count: int = 4,
    seed: int = 0,
    routing: str = "flat",
    deployment: str = "grid",
) -> ExperimentSpec:
    """A synthetic experiment spec: one cell per shard of a giant deployment.

    The cells are ordinary harness cells (picklable, one
    :func:`repro.bench.experiments.scale_shard` call each), so the existing
    fan-out and progress machinery applies unchanged; only the assembler
    differs — it verifies the shards tile the deployment before appending
    the merged totals row.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1: {shard_count}")
    name = "shard"
    cells = [
        Cell(
            name,
            "scale_shard",
            {
                "node_count": node_count,
                "seed": seed,
                "routing": routing,
                "shard_index": index,
                "shard_count": shard_count,
                "deployment": deployment,
            },
            index,
        )
        for index in range(shard_count)
    ]
    return ExperimentSpec(
        name,
        f"sharded deployment: {node_count} nodes over {shard_count} shard(s)",
        cells,
        _assemble_shards,
    )


def run_sharded_deployment(
    node_count: int,
    shard_count: int = 4,
    *,
    seed: int = 0,
    routing: str = "flat",
    deployment: str = "grid",
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> RunResult:
    """Partition a giant deployment into per-subtree shards and fan them out.

    The sharded counterpart of :func:`run_experiments` for deployments too
    large to want in one process: each shard worker rebuilds the topology,
    derives the same deterministic subtree partition, and accounts its own
    slice; the results merge through the completeness-gated assembler
    regardless of worker count or completion order.  Returns a
    single-series :class:`RunResult`.
    """
    spec = deployment_shard_spec(
        node_count, shard_count, seed=seed, routing=routing, deployment=deployment
    )
    return _run_specs([spec], jobs, progress)


def experiment_specs(node_count: Optional[int] = None) -> Dict[str, ExperimentSpec]:
    """The full experiment registry at one scale, in canonical order.

    This is the one declaration of every experiment's sweep points and node
    count: the bench CLI and the figure suite (``benchmarks/test_*.py``)
    both run these cells.  Every cell is fully pinned to ``node_count``
    (default: :func:`repro.bench.workloads.default_node_count`, i.e. 600 or
    the paper's 1500 under ``REPRO_SCALE=paper``), so the returned specs are
    environment-independent from here on.  Five studies run at capped sizes
    to keep their cells fast: ``bs_position``, ``continuous`` and
    ``failure`` at 300 nodes, ``concurrency`` and ``churn`` at 150.
    """
    n = node_count if node_count is not None else default_node_count()
    if n < 2:
        raise ValueError(f"node_count must be >= 2: {n}")
    specs: Dict[str, ExperimentSpec] = {}

    def add(
        name: str,
        title: str,
        func: str,
        sweep: Sequence[Dict[str, Any]],
        assemble: Optional[Assembler] = None,
    ) -> None:
        cells = [Cell(name, func, kwargs, i) for i, kwargs in enumerate(sweep)]
        spec = ExperimentSpec(name, title, cells)
        if assemble is not None:
            spec.assemble = assemble
        specs[name] = spec

    for ratio in ("33", "60"):
        add(
            f"fig10_{ratio}",
            f"overall transmissions vs result fraction ({ratio}% ratio)",
            "fig10_overall",
            [
                {"ratio": ratio, "fractions": [f], "node_count": n, "seed": 0}
                for f in (0.01, 0.03, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80)
            ],
        )
    for ratio in ("33", "60"):
        add(
            f"fig11_{ratio}",
            f"per-node transmissions vs descendants ({ratio}% ratio)",
            "fig11_per_node",
            [{"ratio": ratio, "node_count": n, "seed": 0}],
        )
    add(
        "fig12",
        "3 join attributes / x attributes overall",
        "fig12_ratio3",
        [{"totals": [t], "node_count": n, "seed": 0} for t in (5, 4, 3)],
    )
    add(
        "fig13",
        "1 join attribute / x attributes overall",
        "fig13_ratio1",
        [{"totals": [t], "node_count": n, "seed": 0} for t in (1, 2, 3, 4, 5)],
    )
    # The paper's sizes, scaled at constant density by the run's scale.
    fig14_scale = n / constants.PAPER_NODE_COUNT
    add(
        "fig14",
        "influence of the network size (constant density)",
        "fig14_network_size",
        [
            {"node_counts": [int(round(c * fig14_scale))], "seed": 0}
            for c in (1000, 1500, 2000, 2500)
        ],
    )
    add(
        "fig15",
        "SENS-Join cost per step vs result fraction",
        "fig15_step_breakdown",
        [
            {"fractions": [f], "node_count": n, "seed": 0}
            for f in (0.03, 0.05, 0.09, 0.25)
        ],
    )
    add(
        "fig16",
        "influence of the quadtree representation",
        "fig16_quadtree_influence",
        [{"node_count": n, "seed": 0}],
    )
    add(
        "compression_table",
        "general-purpose compressors vs the quadtree (§VI-B)",
        "compression_table",
        [{"node_count": n, "seed": 0}],
    )
    add(
        "packet_size",
        "influence of the maximum packet size (§VI-A)",
        "packet_size_study",
        [
            {"packet_sizes": [p], "node_count": n, "seed": 0}
            for p in (
                constants.DEFAULT_MAX_PACKET_BYTES,
                constants.LARGE_MAX_PACKET_BYTES,
            )
        ],
    )
    add(
        "response_time",
        "response time: SENS-Join vs external join (§VII)",
        "response_time_study",
        [
            {"fractions": [f], "node_count": n, "seed": 0}
            for f in (0.05, 0.20, 0.40)
        ],
    )
    add(
        "ablation",
        "ablation of SENS-Join design choices",
        "ablation_study",
        [{"node_count": n, "seed": 0}],
    )
    add(
        "placement",
        "join location after filtering (§IV-E)",
        "placement_study",
        [
            {"fractions": [f], "node_count": n, "seed": 0}
            for f in (0.05, 0.20, 0.60)
        ],
    )
    add(
        "memory",
        "Selective Filter Forwarding memory by depth (§IV-C)",
        "memory_study",
        [{"node_count": n, "seed": 0}],
    )
    add(
        "generality",
        "Requirement 1/2 battery: arbitrary conditions and placements",
        "generality_study",
        [{"node_count": n, "seed": 0}],
    )
    add(
        "related_work",
        "specialised joins: their niche vs the general setting (§II)",
        "related_work_study",
        [{"seed": 3}],
    )
    add(
        "continuous",
        "continuous queries: incremental vs snapshot (E12)",
        "continuous_study",
        [
            {"drift_rates": [d], "node_count": min(n, 300), "seed": 9}
            for d in (0.0001, 0.0005, 0.002)
        ],
    )
    add(
        "variance",
        "savings across deployment/data seeds",
        "variance_study",
        [{"seeds": [s], "node_count": n} for s in (0, 1, 2, 3, 4)],
        assemble=_assemble_variance,
    )
    add(
        "resolution",
        "quantization resolution sweep (§V-B)",
        "resolution_study",
        [
            {"resolutions": [r], "node_count": n, "seed": 0}
            for r in (0.02, 0.05, 0.1, 0.5, 1.0, 2.0, 4.0)
        ],
    )
    add(
        "bs_position",
        "savings vs base-station placement",
        "bs_position_study",
        [{"node_count": min(n, 300), "seed": 0}],
    )
    add(
        "loss",
        "join methods under lossy links with ARQ (§IV-F)",
        "loss_study",
        [
            {"loss_rates": [r], "node_count": n, "seed": 0}
            for r in (0.0, 0.05, 0.1, 0.2, 0.3)
        ],
        assemble=_assemble_loss,
    )
    add(
        "failure",
        "mid-query crashes: repair cost and completeness (§IV-F)",
        "failure_study",
        [
            {"crash_fractions": [f], "node_count": min(n, 300), "seed": 0}
            for f in (0.0, 0.02, 0.05, 0.1)
        ],
    )
    add(
        "concurrency",
        "multi-query broker: shared-work amortization vs serial",
        "concurrency_study",
        [
            {
                "workloads": [w],
                "concurrency_levels": [c],
                "node_count": min(n, 150),
                "seed": 0,
            }
            for w in ("poisson", "bursty")
            for c in (1, 2, 4, 8)
        ],
    )
    add(
        "churn",
        "continuous churn: self-healing trees and broker degradation",
        "churn_study",
        [
            {
                "churn_rates": [r],
                "concurrency_levels": [c],
                "node_count": min(n, 150),
                "seed": 0,
            }
            for r in (0.0, 0.1, 0.2)
            for c in (1, 8)
        ],
    )
    add(
        "scale",
        "scale ladder: build, tree formation and join cost vs network size",
        "scale_study",
        [
            {"node_counts": [c], "routings": [r], "seed": 0}
            for c in scale_node_counts(n)
            for r in ("flat", "cluster")
        ],
    )
    return specs


def select_specs(
    specs: Dict[str, ExperimentSpec], patterns: Optional[Sequence[str]]
) -> List[ExperimentSpec]:
    """Experiments matching any name/glob pattern, in registry order.

    ``None`` (or an empty selection) means *all* experiments.  A pattern
    that matches nothing raises :class:`ValueError` naming the choices.
    """
    if not patterns:
        return list(specs.values())
    for pattern in patterns:
        if not fnmatch.filter(specs, pattern):
            raise ValueError(
                f"no experiment matches {pattern!r}; "
                f"choices: {', '.join(specs)}"
            )
    return [
        spec
        for name, spec in specs.items()
        if any(fnmatch.fnmatch(name, pattern) for pattern in patterns)
    ]


def _execute_cell(func: str, kwargs: Dict[str, Any]):
    """Worker entry point: run one pinned experiment-function call."""
    from . import experiments

    started = time.perf_counter()
    series = getattr(experiments, func)(**kwargs)
    return series, time.perf_counter() - started


@dataclass
class RunResult:
    """Everything one harness run produced."""

    series: List[ExperimentSeries]
    results: List[CellResult] = field(default_factory=list)
    manifest: Dict[str, Any] = field(default_factory=dict)


def run_experiments(
    patterns: Optional[Sequence[str]] = None,
    *,
    node_count: Optional[int] = None,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> RunResult:
    """Run the selected experiments as parallel cells; reassemble in order.

    Parameters
    ----------
    patterns:
        Experiment names or globs (``fig10*``); None/empty selects all.
    node_count:
        Pin every experiment to this scale; None uses the default scale
        (600 nodes, or the paper's 1500 under ``REPRO_SCALE=paper``).
    jobs:
        Worker processes.  ``1`` runs the cells in-process — the output is
        byte-identical either way, only the wall time changes.
    progress:
        Optional sink for per-cell progress/ETA lines.

    Returns a :class:`RunResult` whose ``series`` list is in registry
    order and whose ``manifest`` is the machine-readable run record.
    """
    selected = select_specs(experiment_specs(node_count), patterns)
    empty = [spec.name for spec in selected if not spec.cells]
    if empty:
        raise ValueError(
            f"experiment(s) selected with zero cells: {', '.join(empty)}"
        )
    return _run_specs(selected, jobs, progress)


def _run_specs(
    selected: List[ExperimentSpec],
    jobs: int,
    progress: Optional[Callable[[str], None]],
) -> RunResult:
    """The run body of :func:`run_experiments` and
    :func:`run_sharded_deployment`: fan the cells out, then assemble each
    spec in cell order and record the manifest."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    cells = [cell for spec in selected for cell in spec.cells]
    by_cell = {id(result.cell): result for result in _run_cells(cells, jobs, progress)}
    ordered = [by_cell[id(cell)] for cell in cells]
    series = [
        spec.assemble([by_cell[id(cell)].series for cell in spec.cells])
        for spec in selected
    ]
    manifest = _build_manifest(selected, ordered, jobs)
    return RunResult(series=series, results=ordered, manifest=manifest)


def _run_cells(
    cells: List[Cell],
    jobs: int,
    progress: Optional[Callable[[str], None]],
) -> List[CellResult]:
    """Compute every cell, in-process or on ``jobs`` workers; the results
    come back in completion order."""
    total = len(cells)
    started = time.perf_counter()
    results: List[CellResult] = []

    def finish(cell: Cell, series: ExperimentSeries, elapsed: float) -> None:
        results.append(CellResult(cell, series, elapsed))
        if progress is None:
            return
        done = len(results)
        remaining = total - done
        wall = time.perf_counter() - started
        eta = f", eta {wall / done * remaining:.0f}s" if remaining else ""
        progress(f"[{done}/{total}] {cell.label} {elapsed:.1f}s{eta}")

    if jobs == 1 or total <= 1:
        for cell in cells:
            finish(cell, *_execute_cell(cell.func, cell.kwargs))
        return results
    with ProcessPoolExecutor(max_workers=min(jobs, total)) as pool:
        futures = {
            pool.submit(_execute_cell, cell.func, cell.kwargs): cell
            for cell in cells
        }
        for future in as_completed(futures):
            cell = futures[future]
            try:
                series, elapsed = future.result()
            except Exception as error:
                raise RuntimeError(
                    f"experiment cell {cell.label} "
                    f"({cell.func}{cell.kwargs}) failed"
                ) from error
            finish(cell, series, elapsed)
    return results


def _build_manifest(
    selected: List[ExperimentSpec],
    results: List[CellResult],
    jobs: int,
) -> Dict[str, Any]:
    by_experiment: Dict[str, List[CellResult]] = {}
    for result in results:
        by_experiment.setdefault(result.cell.experiment, []).append(result)
    slowest = sorted(results, key=lambda r: r.elapsed_s, reverse=True)[:5]
    return {
        "schema": MANIFEST_SCHEMA,
        "created_unix": time.time(),
        "jobs": jobs,
        "total_cells": len(results),
        "total_cell_seconds": round(sum(r.elapsed_s for r in results), 3),
        "profile": {
            "slowest_cells": [
                {"label": r.cell.label, "elapsed_s": round(r.elapsed_s, 3)}
                for r in slowest
            ],
        },
        "experiments": [
            {
                "name": spec.name,
                "title": spec.title,
                "cells": len(spec.cells),
                "cell_seconds": round(
                    sum(r.elapsed_s for r in by_experiment.get(spec.name, [])), 3
                ),
            }
            for spec in selected
        ],
        "cells": [
            {
                "experiment": r.cell.experiment,
                "func": r.cell.func,
                "kwargs": r.cell.kwargs,
                "elapsed_s": round(r.elapsed_s, 3),
            }
            for r in results
        ],
    }
