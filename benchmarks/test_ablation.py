"""A1 — ablation study of SENS-Join's design choices (DESIGN.md).

Not a paper figure: quantifies each mechanism's individual contribution
(Treecut, Selective Filter Forwarding, quadtree representation, D_max).
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.sensjoin import SensJoin, SensJoinConfig

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "ablation",
        "every disabled mechanism costs transmissions; D_max=30 close to best",
    )


def rows_by_variant(series):
    return {row[0]: dict(zip(series.columns, row)) for row in series.rows}


def test_default_beats_every_single_ablation(series):
    rows = rows_by_variant(series)
    default = rows["default(dmax=30)"]["total_tx"]
    assert default <= rows["no-treecut"]["total_tx"]
    assert default <= rows["no-selective-fwd"]["total_tx"]
    assert default <= rows["raw-representation"]["total_tx"]


def test_all_variants_beat_external(series):
    rows = rows_by_variant(series)
    external = rows["external-join"]["total_tx"]
    for variant, row in rows.items():
        if variant == "external-join":
            continue
        assert row["total_tx"] < external, variant


def test_paper_dmax_choice_is_reasonable(series):
    rows = rows_by_variant(series)
    default = rows["default(dmax=30)"]["total_tx"]
    best = min(
        rows[v]["total_tx"] for v in ("dmax=10", "dmax=20", "default(dmax=30)", "dmax=40")
    )
    assert default <= best * 1.10  # within 10% of the best D_max tried


def test_ablation_benchmark(benchmark, series):
    scenario = build_scenario()
    query = calibrated_query(scenario, 1, 3, 0.05)
    benchmark(lambda: scenario.run(query, SensJoin(SensJoinConfig(dmax_bytes=0))))
