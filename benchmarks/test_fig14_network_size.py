"""E5 — Fig. 14: influence of the network size (constant density).

Paper: absolute savings grow slightly superlinearly with the network size
(the Treecut start-up region weighs less in larger networks).
"""

import pytest

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "fig14",
        "absolute saved transmissions grow (slightly superlinearly) with size",
    )


def test_absolute_savings_grow_with_size(series):
    saved = series.column("saved_tx")
    assert saved == sorted(saved)
    assert saved[-1] > saved[0]


def test_relative_savings_do_not_collapse(series):
    pct = series.column("savings_pct")
    assert min(pct) > 0
    # Slightly superlinear: the relative savings must not shrink much.
    assert pct[-1] >= pct[0] - 5.0


def test_fig14_benchmark(benchmark, series):
    """Time the full size sweep's smallest configuration end-to-end."""
    from repro.bench.workloads import build_scenario, calibrated_query
    from repro.joins.sensjoin import SensJoin

    smallest = series.column("nodes")[0]
    scenario = build_scenario(int(smallest))
    query = calibrated_query(scenario, 1, 3, 0.05)
    benchmark(lambda: scenario.run(query, SensJoin()))
