"""Harness tests: cell registry, cache keys, on-disk caching, assembly
checks, and the ``python -m repro.bench`` CLI."""

import json
import pickle

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    cache_key,
    code_fingerprint,
)
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
                # Canonical JSON must round-trip the kwargs unchanged.
                kwargs = cell.call_kwargs
                assert json.loads(json.dumps(kwargs)) == kwargs

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
# Cache keys + store
# ---------------------------------------------------------------------------


class TestCache:
    def test_key_is_deterministic_and_parameter_sensitive(self):
        fingerprint = code_fingerprint()
        a = cache_key({"func": "f", "kwargs": {"x": 1}}, fingerprint)
        b = cache_key({"func": "f", "kwargs": {"x": 1}}, fingerprint)
        c = cache_key({"func": "f", "kwargs": {"x": 2}}, fingerprint)
        d = cache_key({"func": "f", "kwargs": {"x": 1}}, "other-fingerprint")
        assert a == b
        assert len({a, c, d}) == 3

    def test_fingerprint_tracks_version_and_constants(self, monkeypatch):
        import repro
        import repro.constants

        base = code_fingerprint()
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert code_fingerprint() != base
        monkeypatch.undo()
        monkeypatch.setattr(repro.constants, "PAPER_NODE_COUNT", 7)
        assert code_fingerprint() != base

    def test_fingerprint_tracks_interpreter(self, monkeypatch):
        import repro.bench.cache as cache_mod

        base = code_fingerprint()
        monkeypatch.setattr(
            cache_mod,
            "_interpreter_fingerprint",
            lambda: {"python": [9, 99], "implementation": "other",
                     "platform": "plan9", "machine": "pdp11"},
        )
        assert code_fingerprint() != base

    def test_interpreter_fingerprint_names_this_runtime(self):
        import sys

        from repro.bench.cache import _interpreter_fingerprint

        fingerprint = _interpreter_fingerprint()
        assert fingerprint["python"] == list(sys.version_info[:2])
        assert fingerprint["implementation"] == sys.implementation.name
        assert fingerprint["platform"] == sys.platform

    def test_store_round_trip_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"value": 1})
        assert cache.get("ab" * 32) == {"value": 1}
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get("ab" * 32) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("cd" * 32, {"value": 1})
        path.write_text("{not json")
        assert cache.get("cd" * 32) is None

    def test_empty_cache_is_still_truthy(self, tmp_path):
        # Regression guard: __len__ == 0 must never disable `if cache:` paths.
        assert bool(ResultCache(tmp_path / "nothing-here"))


# ---------------------------------------------------------------------------
# Runs + caching behaviour
# ---------------------------------------------------------------------------


class TestRunExperiments:
    def test_warm_cache_skips_all_cells(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_experiments(
            ["fig12"], node_count=NODES, jobs=1, cache_dir=cache_dir
        )
        assert cold.manifest["cached_cells"] == 0
        warm = run_experiments(
            ["fig12"], node_count=NODES, jobs=1, cache_dir=cache_dir
        )
        assert warm.manifest["cached_cells"] == warm.manifest["total_cells"] == 3
        assert warm.series == cold.series

    def test_calibration_results_are_cached_cells(self, tmp_path):
        from repro.bench.workloads import _cached_calibration

        # Drop the in-process memo so the run has to consult the disk layer.
        _cached_calibration.cache_clear()
        cache_dir = tmp_path / "cache"
        run_experiments(["fig12"], node_count=NODES, jobs=1, cache_dir=cache_dir)
        entries = [
            json.loads(path.read_text()) for path in cache_dir.glob("*/*.json")
        ]
        thresholds = [e for e in entries if "threshold" in e]
        assert thresholds, "calibrations should be cached alongside cells"
        # The env hook must be restored after the run.
        import os

        assert CACHE_DIR_ENV not in os.environ or os.environ[
            CACHE_DIR_ENV
        ] != str(cache_dir)

    def test_manifest_records_cells_in_sweep_order(self, tmp_path):
        run = run_experiments(
            ["fig12"], node_count=NODES, jobs=1, cache_dir=None
        )
        manifest = run.manifest
        assert manifest["schema"] == 1
        assert manifest["total_cells"] == 3
        assert [c["experiment"] for c in manifest["cells"]] == ["fig12"] * 3
        assert [c["kwargs"]["totals"] for c in manifest["cells"]] == [[5], [4], [3]]
        for cell in manifest["cells"]:
            assert set(cell) >= {"func", "kwargs", "key", "cached", "elapsed_s"}

    def test_progress_reports_every_cell(self):
        lines = []
        run_experiments(
            ["fig12"], node_count=NODES, jobs=1, cache_dir=None,
            progress=lines.append,
        )
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

    def test_run_report_clear_cache_cycle(self, tmp_path, capsys):
        results = tmp_path / "results"
        out = tmp_path / "report.txt"
        code = bench_main([
            "run", "fig12", "--nodes", str(NODES), "--jobs", "1",
            "--results-dir", str(results), "--out", str(out),
        ])
        assert code == 0
        assert (results / "fig12.csv").exists()
        assert "== fig12:" in out.read_text()

        manifest = json.loads((results / "run_manifest.json").read_text())
        assert manifest["node_count"] == NODES
        assert manifest["total_cells"] == 3

        capsys.readouterr()
        assert bench_main(["report", "--results-dir", str(results)]) == 0
        assert "== fig12:" in capsys.readouterr().out

        assert bench_main([
            "run", "--clear-cache", "--results-dir", str(results),
        ]) == 0
        assert "cache cleared" in capsys.readouterr().out
        assert len(ResultCache(results / ".cache")) == 0

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
        counts = [cell.call_kwargs["node_counts"][0] for cell in scale.cells]
        assert sorted(set(counts)) == [1000, 5000, 10000]
        routings = {cell.call_kwargs["routings"][0] for cell in scale.cells}
        assert routings == {"flat", "cluster"}

    def test_shard_spec_cells_are_pinned_and_picklable(self):
        spec = deployment_shard_spec(400, shard_count=3, seed=2, routing="cluster")
        assert len(spec.cells) == 3
        for index, cell in enumerate(spec.cells):
            kwargs = cell.call_kwargs
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

    def test_run_sharded_deployment_caches_and_merges(self, tmp_path):
        cold = run_sharded_deployment(
            300, 2, seed=0, jobs=1, cache_dir=tmp_path / "cache"
        )
        warm = run_sharded_deployment(
            300, 2, seed=0, jobs=1, cache_dir=tmp_path / "cache"
        )
        assert cold.manifest["cached_cells"] == 0
        assert warm.manifest["cached_cells"] == 2
        assert cold.series[0].rows == warm.series[0].rows
        # 2 shard rows + the merge row.
        assert len(cold.series[0].rows) == 3

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
