"""Harness tests: cell registry, runs and manifests, assembly checks, and
the ``python -m repro.bench`` CLI."""

import json
import pickle

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.harness import (
    _assemble_loss,
    _assemble_shards,
    _assemble_variance,
    deployment_shard_spec,
    experiment_specs,
    run_experiments,
    run_sharded_deployment,
    select_specs,
)
from repro.bench.reporting import ExperimentSeries
from repro.errors import ProtocolError

NODES = 60


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_covers_every_figure_and_study(self):
        specs = experiment_specs(NODES)
        names = set(specs)
        for required in (
            "fig10_33", "fig10_60", "fig11_33", "fig11_60", "fig12", "fig13",
            "fig14", "fig15", "fig16", "compression_table", "packet_size",
            "response_time", "ablation", "placement", "memory", "generality",
            "related_work", "continuous", "variance", "resolution",
            "bs_position", "loss", "failure", "concurrency", "churn",
            "scale",
        ):
            assert required in names

    def test_cells_are_pinned_picklable_and_json_clean(self):
        import repro.bench.experiments as experiments

        for spec in experiment_specs(NODES).values():
            assert spec.cells, spec.name
            for cell in spec.cells:
                assert cell.experiment == spec.name
                assert callable(getattr(experiments, cell.func))
                pickle.loads(pickle.dumps(cell))
                # The manifest records the kwargs as JSON, unchanged.
                assert json.loads(json.dumps(cell.kwargs)) == cell.kwargs

    def test_sweep_experiments_have_one_cell_per_point(self):
        specs = experiment_specs(NODES)
        assert len(specs["fig10_33"].cells) == 8
        assert len(specs["fig13"].cells) == 5
        assert len(specs["variance"].cells) == 5
        assert len(specs["loss"].cells) == 5
        assert len(specs["fig16"].cells) == 1

    def test_select_by_glob(self):
        specs = experiment_specs(NODES)
        names = [spec.name for spec in select_specs(specs, ["fig10*", "loss"])]
        assert names == ["fig10_33", "fig10_60", "loss"]
        assert len(select_specs(specs, None)) == len(specs)

    def test_unknown_pattern_raises(self):
        specs = experiment_specs(NODES)
        with pytest.raises(ValueError, match="no experiment matches"):
            select_specs(specs, ["fig99*"])

    def test_one_declaration(self):
        """Sweep points and node counts are written once, in the registry.

        The figure suite takes every series from the registry's cells, so no
        ``benchmarks/test_*.py`` module calls an experiment function itself,
        and no experiment function falls back to the environment's scale.
        """
        import ast
        from pathlib import Path

        import repro.bench.experiments as experiments

        defined = {
            name
            for name, value in vars(experiments).items()
            if getattr(value, "__module__", None) == experiments.__name__
        }
        offenders = []
        for path in sorted(Path(__file__).resolve().parents[1].glob("benchmarks/test_*.py")):
            tree = ast.parse(path.read_text(), str(path))
            functions, modules = set(), set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        bound = alias.asname or alias.name
                        if node.module == "repro.bench.experiments":
                            functions.add(bound)
                        elif node.module == "repro.bench" and alias.name in defined:
                            functions.add(bound)
                        elif node.module == "repro.bench" and alias.name == "experiments":
                            modules.add(bound)
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name == "repro.bench.experiments":
                            modules.add(alias.asname or alias.name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name) and node.func.id in functions)
                    or (
                        isinstance(node.func, ast.Attribute)
                        and ast.unparse(node.func.value) in modules
                    )
                ):
                    offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}")
        source = Path(experiments.__file__)
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1] == "default_node_count"
            ):
                offenders.append(f"{source.name}:{node.lineno} default_node_count")
        assert not offenders, offenders


# ---------------------------------------------------------------------------
# Runs + manifests
# ---------------------------------------------------------------------------


class TestRunExperiments:
    def test_manifest_records_cells_in_sweep_order(self):
        run = run_experiments(["fig12"], node_count=NODES, jobs=1)
        manifest = run.manifest
        assert manifest["schema"] == 2
        assert manifest["total_cells"] == 3
        assert [c["experiment"] for c in manifest["cells"]] == ["fig12"] * 3
        assert [c["kwargs"]["totals"] for c in manifest["cells"]] == [[5], [4], [3]]
        for cell in manifest["cells"]:
            assert set(cell) == {"experiment", "func", "kwargs", "elapsed_s"}

    def test_progress_reports_every_cell(self):
        lines = []
        run_experiments(["fig12"], node_count=NODES, jobs=1, progress=lines.append)
        assert len(lines) == 3
        assert lines[0].startswith("[1/3] fig12[")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_experiments(["fig12"], node_count=NODES, jobs=0)


# ---------------------------------------------------------------------------
# Assemblers
# ---------------------------------------------------------------------------


def _loss_part(loss_rate, matches):
    series = ExperimentSeries(
        "loss", "t", ["loss_rate", "algorithm", "matches"]
    )
    series.add_row(loss_rate, "sens-join", matches)
    series.add_row(loss_rate, "external-join", matches)
    return series


class TestAssemblers:
    def test_loss_assembler_checks_cross_rate_exactness(self):
        good = _assemble_loss([_loss_part(0.0, 10), _loss_part(0.1, 10)])
        assert len(good.rows) == 4
        with pytest.raises(ProtocolError, match="changed under loss"):
            _assemble_loss([_loss_part(0.0, 10), _loss_part(0.1, 11)])

    def test_variance_assembler_recomputes_summary_note(self):
        parts = []
        for seed, savings in ((0, 50.0), (1, 60.0)):
            part = ExperimentSeries("variance", "t", ["seed", "savings_pct"])
            part.add_row(seed, savings)
            part.notes.append(f"savings mean {savings:.1f}% +- 0.0% over 1 seeds")
            parts.append(part)
        merged = _assemble_variance(parts)
        assert merged.notes == ["savings mean 55.0% +- 5.0% over 2 seeds"]

    def test_concat_rejects_diverging_columns(self):
        from repro.bench.harness import _assemble_concat

        a = ExperimentSeries("x", "t", ["col"])
        b = ExperimentSeries("x", "t", ["other"])
        with pytest.raises(ProtocolError, match="diverged"):
            _assemble_concat([a, b])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_list(self, capsys):
        assert bench_main(["list", "--nodes", "100"]) == 0
        out = capsys.readouterr().out
        assert "fig10_33" in out and "loss" in out and "cells" in out

    def test_run_requires_selection(self, capsys):
        assert bench_main(["run"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_run_report_rerun_cycle(self, tmp_path, capsys, monkeypatch):
        import repro.bench.experiments as experiments

        results = tmp_path / "results"
        out = tmp_path / "report.txt"
        argv = [
            "run", "fig12", "--nodes", str(NODES), "--jobs", "1",
            "--results-dir", str(results), "--out", str(out),
        ]
        assert bench_main(argv) == 0
        assert (results / "fig12.csv").exists()
        assert "== fig12:" in out.read_text()

        manifest = json.loads((results / "run_manifest.json").read_text())
        assert manifest["node_count"] == NODES
        assert manifest["total_cells"] == 3

        capsys.readouterr()
        assert bench_main(["report", "--results-dir", str(results)]) == 0
        assert "== fig12:" in capsys.readouterr().out

        # A re-run into the same directory computes every cell again, so an
        # edit to an experiment shows up in its CSV at once.
        def edited_fig12(*, totals, node_count, seed):
            series = ExperimentSeries("fig12", "edited", ["total_attrs", "marker"])
            series.add_row(totals[0], 4242)
            return series

        monkeypatch.setattr(experiments, "fig12_ratio3", edited_fig12)
        assert bench_main(argv) == 0
        assert (results / "fig12.csv").read_text().splitlines() == [
            "total_attrs,marker", "5,4242", "4,4242", "3,4242",
        ]

    @pytest.mark.parametrize("flag", ["--no-cache", "--clear-cache"])
    def test_cache_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_main(["run", "fig12", flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_without_run_fails_cleanly(self, tmp_path, capsys):
        assert bench_main(["report", "--results-dir", str(tmp_path)]) == 2
        assert "run" in capsys.readouterr().err

    def test_unknown_experiment_is_an_error(self, tmp_path, capsys):
        code = bench_main([
            "run", "nope*", "--results-dir", str(tmp_path), "--nodes", "60",
        ])
        assert code == 2
        assert "no experiment matches" in capsys.readouterr().err

    def test_report_on_corrupt_bundle_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "series.json").write_text("{truncated by a cleared dir")
        assert bench_main(["report", "--results-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err

    def test_report_on_non_list_bundle_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "series.json").write_text('{"experiment": "x"}')
        assert bench_main(["report", "--results-dir", str(tmp_path)]) == 2
        assert "series list" in capsys.readouterr().err

    def test_report_on_malformed_entry_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "series.json").write_text(json.dumps([{"bogus": 1}]))
        assert bench_main(["report", "--results-dir", str(tmp_path)]) == 2
        assert "malformed series entry" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Zero-cell guards
# ---------------------------------------------------------------------------


class TestZeroCellGuards:
    def test_assemble_concat_rejects_zero_series(self):
        from repro.bench.harness import _assemble_concat

        with pytest.raises(ValueError, match="zero cell series"):
            _assemble_concat([])

    def test_run_experiments_names_zero_cell_experiments(self, monkeypatch):
        import repro.bench.harness as harness
        from repro.bench.harness import ExperimentSpec

        def fake_specs(node_count=None):
            return {"hollow": ExperimentSpec("hollow", "no cells", [])}

        monkeypatch.setattr(harness, "experiment_specs", fake_specs)
        with pytest.raises(ValueError, match="zero cells: hollow"):
            run_experiments(None, node_count=NODES)


class TestSharding:
    """Sharded deployments: deterministic partition, gated merge."""

    def test_scale_experiment_registered_with_ladder_cells(self):
        from repro.bench.experiments import scale_node_counts

        specs = experiment_specs(600)
        scale = specs["scale"]
        assert len(scale.cells) == len(scale_node_counts(600)) * 2
        counts = [cell.kwargs["node_counts"][0] for cell in scale.cells]
        assert sorted(set(counts)) == [1000, 5000, 10000]
        routings = {cell.kwargs["routings"][0] for cell in scale.cells}
        assert routings == {"flat", "cluster"}

    def test_shard_spec_cells_are_pinned_and_picklable(self):
        spec = deployment_shard_spec(400, shard_count=3, seed=2, routing="cluster")
        assert len(spec.cells) == 3
        for index, cell in enumerate(spec.cells):
            kwargs = cell.kwargs
            assert kwargs["shard_index"] == index
            assert kwargs["shard_count"] == 3
            assert kwargs["node_count"] == 400
            assert kwargs["routing"] == "cluster"
            pickle.dumps(cell)
            json.dumps(kwargs)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match="shard_count"):
            deployment_shard_spec(400, shard_count=0)

    def test_merge_invariant_under_shard_count(self):
        """Totals are identical however the deployment is partitioned."""
        from repro.bench.experiments import scale_shard

        merged = {}
        for shard_count in (1, 3):
            parts = [
                scale_shard(300, seed=0, shard_index=i, shard_count=shard_count)
                for i in range(shard_count)
            ]
            series = _assemble_shards(parts)
            totals = series.rows[-1]
            col = series.columns.index
            assert totals[col("shard")] == -1
            merged[shard_count] = (
                totals[col("nodes")],
                totals[col("subtrees")],
                totals[col("max_depth")],
                totals[col("tx_packets")],
                totals[col("energy")],
                totals[col("id_sum")],
            )
        assert merged[1] == merged[3]
        assert merged[1][0] == 300
        assert merged[1][5] == 300 * 301 // 2

    def test_merge_gate_catches_missing_shard(self):
        from repro.bench.experiments import scale_shard

        parts = [
            scale_shard(300, seed=0, shard_index=i, shard_count=3)
            for i in range(3)
        ]
        with pytest.raises(ProtocolError, match="shard cells disagree"):
            _assemble_shards(parts[:2])

    def test_merge_gate_catches_duplicated_shard(self):
        from repro.bench.experiments import scale_shard

        parts = [
            scale_shard(300, seed=0, shard_index=i, shard_count=3)
            for i in range(3)
        ]
        parts[1] = parts[0]  # same slice twice, one slice lost
        with pytest.raises(ProtocolError, match="merge incomplete"):
            _assemble_shards(parts)

    def test_scale_shard_validation(self):
        from repro.bench.experiments import scale_shard

        with pytest.raises(ValueError, match="shard_index"):
            scale_shard(100, shard_index=4, shard_count=4)
        with pytest.raises(ValueError, match="deployment"):
            scale_shard(100, deployment="ring")

    def test_run_sharded_deployment_merges(self):
        run = run_sharded_deployment(300, 2, seed=0, jobs=1)
        (series,) = run.series
        col = series.columns.index
        assert run.manifest["total_cells"] == 2
        # 2 shard rows + the merge row, which covers the whole deployment.
        assert len(series.rows) == 3
        assert series.rows[-1][col("shard")] == -1
        assert series.rows[-1][col("nodes")] == 300

    def test_shard_cli_smoke(self, tmp_path, capsys):
        code = bench_main(
            [
                "shard", "--nodes", "200", "--shards", "2",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "200 nodes over 2 shard(s)" in out
        assert (tmp_path / "shard.csv").exists()
        assert (tmp_path / "shard_manifest.json").exists()
        manifest = json.loads((tmp_path / "shard_manifest.json").read_text())
        assert manifest["shard_count"] == 2
