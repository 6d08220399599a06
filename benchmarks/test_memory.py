"""§IV-C — Selective Filter Forwarding memory audit.

The paper caps SubtreeJoinAtts at 500 bytes and claims the cap only binds
"close to the root" while "the mechanism has its main benefit towards the
leaves".  This bench records every node's stored size by tree depth.
"""

import pytest

from repro.bench.experiments import memory_study
from repro.bench.workloads import build_scenario, calibrated_query
from repro.obs.telemetry import Telemetry
from repro.sim.trace import ListTracer

from conftest import register_series


@pytest.fixture(scope="module")
def series():
    result = memory_study()
    register_series(
        result,
        "stored bytes fall with depth; the 500 B cap binds near the root only",
    )
    return result


def test_memory_falls_with_depth(series):
    means = series.column("mean_bytes")
    assert means[0] > means[-1]


def test_overflows_only_near_root(series):
    """The cap binds in the upper part of the tree only: no overflow in the
    deeper half of the depth buckets (towards the leaves)."""
    rows = series.as_dicts()
    deeper_half = rows[(len(rows) + 1) // 2:]
    for row in deeper_half:
        assert row["overflows"] == 0, row
    # And the leafmost bucket is always clean.
    assert rows[-1]["overflows"] == 0


def test_all_stored_sizes_within_cap(series):
    for row in series.as_dicts():
        assert row["max_bytes"] <= 500


def test_memory_benchmark(benchmark, series):
    scenario = build_scenario()
    query = calibrated_query(scenario, 3, 5, 0.05)

    def run_traced():
        tracer = ListTracer()
        scenario.run(query, "sens-join", telemetry=Telemetry(tracer=tracer))
        return len(tracer)

    benchmark(run_traced)
