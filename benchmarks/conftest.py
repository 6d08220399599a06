"""Benchmark-suite plumbing.

Each benchmark module takes its experiment series from :func:`run_series`
(module-scoped fixtures), which runs the experiment's cells from the harness
registry (:func:`repro.bench.harness.experiment_specs`) — the same cells
``python -m repro.bench run`` runs.  Each module also times one
representative protocol execution with pytest-benchmark.  The series' tables
are printed in the terminal summary (so they survive output capture) and
saved as CSV under ``benchmarks/results/``, under the names the bench CLI
writes.

Scale: the suite runs at 600 nodes by default (same node density as the
paper's 1500-node setting); set ``REPRO_SCALE=paper`` for full size.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from repro.bench.harness import run_experiments
from repro.bench.reporting import ExperimentSeries, render_table, save_csv
from repro.bench.workloads import default_node_count

RESULTS_DIR = Path(__file__).parent / "results"

_TABLES: List[str] = []


def run_series(name: str, expectation: str) -> ExperimentSeries:
    """Run one registry experiment at the suite's scale; save its CSV and
    record its table for the terminal summary."""
    (series,) = run_experiments([name], node_count=default_node_count(), jobs=1).series
    save_csv(series, RESULTS_DIR)
    _TABLES.append(render_table(series) + f"\n   paper expectation: {expectation}\n")
    return series


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "paper reproduction tables")
    for table in _TABLES:
        for line in table.splitlines():
            terminalreporter.write_line(line)
        terminalreporter.write_line("")
