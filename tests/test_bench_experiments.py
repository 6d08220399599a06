"""Smoke tests for every experiment function, at a tiny scale.

These assert the *shape* each figure is supposed to show, on a 150-node
deployment so the whole file runs in seconds.  The full-scale numbers live
in benchmarks/ and EXPERIMENTS.md.
"""

import pytest

from repro.bench.experiments import (
    ablation_study,
    compression_table,
    failure_study,
    fig10_overall,
    fig11_per_node,
    fig12_ratio3,
    fig13_ratio1,
    fig14_network_size,
    fig15_step_breakdown,
    fig16_quadtree_influence,
    packet_size_study,
    response_time_study,
)
from repro.bench.reporting import render_table, save_csv

NODES = 150


def test_fig10_savings_decrease_with_fraction():
    series = fig10_overall("33", fractions=(0.05, 0.4, 0.8), node_count=NODES)
    savings = series.column("savings_pct")
    assert savings[0] > savings[-1]
    assert savings[0] > 0  # SENS-Join wins at 5%
    external = series.column("external_tx")
    assert len(set(external)) == 1  # external cost independent of fraction


def test_fig11_most_loaded_node_relieved():
    series = fig11_per_node("33", node_count=NODES)
    last = series.rows[-1]
    assert last[0] == "most-loaded"
    external_max, sens_max = last[2], last[3]
    assert external_max > sens_max


def test_fig12_savings_grow_as_ratio_falls():
    series = fig12_ratio3(totals=(5, 4, 3), node_count=NODES)
    ratios = series.column("ratio_pct")
    savings = series.column("savings_pct")
    assert ratios == sorted(ratios)  # 60, 75, 100
    # Smaller ratio (first row) must save at least as much as 100%.
    assert savings[0] >= savings[-1]


def test_fig13_worst_case_still_saves():
    series = fig13_ratio1(totals=(1, 2, 3, 4, 5), node_count=NODES)
    by_total = dict(zip(series.column("total_attrs"), series.column("savings_pct")))
    # Even at 100% join attributes the quadtree keeps SENS-Join competitive.
    assert by_total[1] > -20.0
    # And more attributes overall -> more savings.
    assert by_total[5] > by_total[1]


def test_fig14_larger_networks_save_more_absolute():
    series = fig14_network_size(node_counts=(100, 200), seed=0)
    saved = series.column("saved_tx")
    assert saved[1] > saved[0]


def test_fig15_collection_constant_final_grows():
    series = fig15_step_breakdown(node_count=NODES, fractions=(0.05, 0.25))
    collection = series.column("collection_tx")
    final = series.column("final_tx")
    assert collection[0] == collection[1]
    assert final[1] > final[0]


def test_fig16_quadtree_halves_collection():
    series = fig16_quadtree_influence(node_count=NODES)
    rows = {row[0]: row for row in series.rows}
    external = rows["external-join"][1]
    no_quad = rows["sens-no-quad"][1]
    quad = rows["sens-join"][1]
    assert no_quad <= external  # join attrs only: <= full tuples
    assert quad <= no_quad  # quadtree helps further (bytes-wise at least)


def test_compression_table_ordering():
    series = compression_table(node_count=NODES)
    by_repr = dict(zip(series.column("representation"), series.column("collection_bytes")))
    assert by_repr["quadtree"] < by_repr["none"]
    assert by_repr["bzip2"] >= by_repr["none"] * 0.9  # bzip2 useless or worse
    # At this tiny scale zlib's stream header can even inflate the per-hop
    # payloads (the paper's point about small data volumes); it must at
    # least stay close to raw and beat bzip2.
    assert by_repr["zlib"] <= by_repr["bzip2"]
    assert by_repr["zlib"] <= by_repr["none"] * 1.15


def test_packet_size_study_reports_both_sizes():
    series = packet_size_study(packet_sizes=(48, 124), node_count=NODES)
    assert series.column("packet_bytes") == [48, 124]
    for row in series.as_dicts():
        assert row["sens_max_node"] <= row["external_max_node"]


def test_response_time_within_paper_bound():
    series = response_time_study(node_count=NODES, fractions=(0.05,))
    for row in series.as_dicts():
        # 2.25: the epoch-scheduling model's small-scale overshoot envelope.
        assert row["ratio"] <= 2.25


def test_ablation_default_beats_no_treecut_on_collection():
    series = ablation_study(node_count=NODES)
    rows = {row[0]: dict(zip(series.columns, row)) for row in series.rows}
    assert rows["default(dmax=30)"]["total_tx"] <= rows["no-treecut"]["total_tx"]
    assert rows["default(dmax=30)"]["total_tx"] <= rows["raw-representation"]["total_tx"]


def test_render_and_save(tmp_path):
    series = fig10_overall("33", fractions=(0.05,), node_count=NODES)
    text = render_table(series)
    assert "fig10_33" in text and "savings_pct" in text
    path = save_csv(series, tmp_path)
    assert path.exists()
    content = path.read_text().splitlines()
    assert content[0].startswith("fraction,")
    assert len(content) == 2


def test_series_row_validation():
    from repro.bench.reporting import ExperimentSeries

    series = ExperimentSeries("x", "t", ["a", "b"])
    with pytest.raises(ValueError):
        series.add_row(1)


def test_failure_study_recall_and_retry_accounting():
    series = failure_study(crash_fractions=(0.0, 0.05), node_count=100, seed=0)
    assert series.columns == [
        "crash_fraction", "algorithm", "total_tx", "retries",
        "recall", "aborted_tx", "aborted_energy",
    ]
    assert len(series.rows) == 6  # 2 fractions x 3 recovery models
    clean = [row for row in series.rows if row[0] == 0.0]
    for row in clean:
        assert row[3] == 0  # no faults, no retries
        assert row[4] == 1.0  # full recall
        assert row[5] == 0  # nothing aborted
    faulty = [row for row in series.rows if row[0] == 0.05]
    des_row = next(row for row in faulty if row[1] == "sens-join[des]")
    # Mid-collection crashes force at least one in-flight retry, whose
    # partially spent cost is broken out in the aborted columns.
    assert des_row[3] >= 1
    assert des_row[5] > 0
    assert des_row[6] > 0
    assert all(0.0 <= row[4] <= 1.0 for row in faulty)


def test_failure_study_deterministic():
    a = failure_study(crash_fractions=(0.05,), node_count=100, seed=0)
    b = failure_study(crash_fractions=(0.05,), node_count=100, seed=0)
    assert a.rows == b.rows
