"""Reporting-layer tests: table rendering, CSV round-trips, row validation,
and the parallel-equals-serial contract of the bench harness."""

import csv
import math

import pytest

from repro.bench.experiments import fig12_ratio3, variance_study
from repro.bench.harness import run_experiments
from repro.bench.reporting import ExperimentSeries, render_table, save_csv

NODES = 60


def make_series():
    series = ExperimentSeries(
        experiment="demo",
        title="A demo",
        columns=["name", "count", "ratio"],
    )
    series.add_row("tiny", 3, 0.5)
    series.add_row("much-longer-name", 12345, 2.0)
    series.notes.append("a note")
    return series


class TestRenderTable:
    def test_exact_layout(self):
        text = render_table(make_series())
        assert text.splitlines() == [
            "== demo: A demo ==",
            "            name  count  ratio",
            "----------------  -----  -----",
            "            tiny      3  0.500",
            "much-longer-name  12345      2",
            "   note: a note",
        ]

    def test_column_widths_cover_header_and_cells(self):
        text = render_table(make_series())
        header, rule = text.splitlines()[1:3]
        # The rule mirrors the final column widths: 16, 5, 5.
        assert [len(part) for part in rule.split("  ")] == [16, 5, 5]
        assert len(header) == len(rule)

    def test_float_formatting(self):
        series = ExperimentSeries("f", "floats", ["value"])
        for value in (1.0, 0.12345, 1e15, 22.5):
            series.add_row(value)
        rendered = [line.strip() for line in render_table(series).splitlines()[3:]]
        # Integral floats collapse to ints; others get three decimals; at
        # 1e15 and beyond the int collapse is disabled to avoid precision
        # artefacts, so the value keeps its decimals.
        assert rendered == ["1", "0.123", "1000000000000000.000", "22.500"]


class TestSaveCsv:
    def test_round_trip(self, tmp_path):
        series = make_series()
        path = save_csv(series, tmp_path)
        assert path == tmp_path / "demo.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == series.columns
        assert rows[1:] == [[str(v) for v in row] for row in series.rows]

    def test_creates_missing_parent_directories(self, tmp_path):
        nested = tmp_path / "fresh" / "checkout" / "results"
        assert not nested.exists()
        path = save_csv(make_series(), nested)
        assert path.exists()


class TestAddRowValidation:
    def test_arity_error(self):
        series = ExperimentSeries("x", "t", ["a", "b"])
        with pytest.raises(ValueError, match="2 columns"):
            series.add_row(1)
        with pytest.raises(ValueError, match="2 columns"):
            series.add_row(1, 2, 3)
        assert series.rows == []

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), math.inf]
    )
    def test_non_finite_rejected(self, bad):
        series = ExperimentSeries("x", "t", ["a", "b"])
        with pytest.raises(ValueError, match="non-finite"):
            series.add_row(1, bad)
        assert series.rows == []

    def test_string_inf_is_fine(self):
        series = ExperimentSeries("x", "t", ["a"])
        series.add_row("inf")
        assert series.rows == [["inf"]]


class TestSeriesDictRoundTrip:
    def test_lossless(self):
        series = make_series()
        rebuilt = ExperimentSeries.from_dict(series.to_dict())
        assert rebuilt == series
        assert render_table(rebuilt) == render_table(series)


def test_parallel_matches_serial():
    """Harness cells on 2 workers reproduce direct serial calls exactly."""
    serial = [
        fig12_ratio3(totals=(5, 4, 3), node_count=NODES),
        variance_study(seeds=(0, 1, 2, 3, 4), node_count=NODES),
    ]
    run = run_experiments(["fig12", "variance"], node_count=NODES, jobs=2)
    assert [s.experiment for s in run.series] == ["fig12", "variance"]
    for parallel_series, serial_series in zip(run.series, serial):
        assert parallel_series == serial_series
        assert render_table(parallel_series) == render_table(serial_series)


def test_jobs_one_matches_jobs_two(tmp_path):
    one = run_experiments(["fig12"], node_count=NODES, jobs=1)
    two = run_experiments(["fig12"], node_count=NODES, jobs=2)
    assert one.series == two.series
    csv_one = save_csv(one.series[0], tmp_path / "one").read_bytes()
    csv_two = save_csv(two.series[0], tmp_path / "two").read_bytes()
    assert csv_one == csv_two
