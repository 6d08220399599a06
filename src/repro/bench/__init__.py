"""Experiment harness: workloads, calibration, experiments, parallel runs.

The package splits into five layers (see ``docs/benchmarking.md``):

* :mod:`~repro.bench.workloads` — deployed, data-bound scenarios and the
  paper's calibrated query templates;
* :mod:`~repro.bench.calibrate` — the selectivity-knob bisection;
* :mod:`~repro.bench.experiments` — one function per §VI figure/table,
  each returning an :class:`~repro.bench.reporting.ExperimentSeries`;
* :mod:`~repro.bench.harness` + :mod:`~repro.bench.cache` — decomposition
  into parallel cells, the content-addressed result cache, and
  deterministic reassembly;
* :mod:`~repro.bench.reporting` / :mod:`~repro.bench.ascii_viz` — tables,
  CSVs and terminal visualisation.

Command line: ``python -m repro.bench run --all --jobs 4``.
"""

from .ascii_viz import render_field, render_histogram, render_node_load, render_tree_depths
from .cache import ResultCache, cache_key, code_fingerprint
from .calibrate import calibrate_threshold, measure_result_fraction
from .experiments import (
    RATIO_SETTINGS,
    ablation_study,
    bs_position_study,
    compression_table,
    continuous_study,
    loss_study,
    memory_study,
    generality_study,
    related_work_study,
    resolution_study,
    fig10_overall,
    fig11_per_node,
    fig12_ratio3,
    fig13_ratio1,
    fig14_network_size,
    fig15_step_breakdown,
    fig16_quadtree_influence,
    packet_size_study,
    placement_study,
    response_time_study,
    variance_study,
)
from .harness import (
    Cell,
    CellResult,
    ExperimentSpec,
    RunResult,
    experiment_specs,
    run_experiments,
)
from .reporting import ExperimentSeries, render_table, save_csv
from .workloads import (
    Scenario,
    build_scenario,
    calibrated_query,
    default_node_count,
    ratio_query_builder,
)

__all__ = [
    "Cell",
    "CellResult",
    "ExperimentSeries",
    "ExperimentSpec",
    "RATIO_SETTINGS",
    "ResultCache",
    "RunResult",
    "Scenario",
    "ablation_study",
    "bs_position_study",
    "build_scenario",
    "cache_key",
    "calibrate_threshold",
    "calibrated_query",
    "code_fingerprint",
    "compression_table",
    "continuous_study",
    "default_node_count",
    "experiment_specs",
    "fig10_overall",
    "fig11_per_node",
    "fig12_ratio3",
    "fig13_ratio1",
    "fig14_network_size",
    "fig15_step_breakdown",
    "fig16_quadtree_influence",
    "loss_study",
    "measure_result_fraction",
    "memory_study",
    "generality_study",
    "related_work_study",
    "resolution_study",
    "packet_size_study",
    "placement_study",
    "ratio_query_builder",
    "render_field",
    "render_histogram",
    "render_node_load",
    "render_tree_depths",
    "render_table",
    "response_time_study",
    "run_experiments",
    "save_csv",
    "variance_study",
]
