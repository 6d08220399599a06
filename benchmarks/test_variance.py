"""Robustness — the headline savings across independent deployments.

The paper's plots are single simulation runs; this bench repeats the
default-setting comparison over several seeds and checks the conclusion is
topology-independent: SENS-Join wins at the 5% fraction for *every* seed,
and the most loaded node is relieved everywhere.
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.sensjoin import SensJoin

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series("variance", "positive savings for every seed; modest spread")


def test_sens_wins_for_every_seed(series):
    for row in series.as_dicts():
        assert row["savings_pct"] > 0, row


def test_max_node_relieved_for_every_seed(series):
    for row in series.as_dicts():
        assert row["max_node_reduction_x"] > 1.0, row


def test_spread_is_modest(series):
    savings = series.column("savings_pct")
    mean = sum(savings) / len(savings)
    spread = max(savings) - min(savings)
    assert spread < mean  # the effect dwarfs the topology noise


def test_variance_benchmark(benchmark, series):
    scenario = build_scenario(seed=1)
    query = calibrated_query(scenario, 1, 3, 0.05)
    benchmark(lambda: scenario.run(query, SensJoin()))
