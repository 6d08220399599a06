"""Perf suite tests: selection, snapshots, scoring, the gate, the CLI.

The timed runs here use tiny ``--only`` selections and one repeat — the
point is the plumbing (snapshot schema, numbering, deltas, regression
gate, exit codes), not the measurements themselves.
"""

import json
import re
import shlex

import pytest

from repro.bench.__main__ import build_parser
from repro.bench.__main__ import main as bench_main
from repro.bench.perf import (
    SCHEMA,
    Bench,
    _interpreter_fingerprint,
    build_suite,
    compare_snapshots,
    default_results_dir,
    latest_snapshot,
    next_snapshot_path,
    snapshot_entries,
    snapshot_history,
)
from repro.bench.perf import DEFAULT_RESULTS_DIR as DEFAULT_RESULTS_DIR_LOCAL

FAST_ONLY = ["kernel.events_depth64"]


def _perf(tmp_path, *extra):
    argv = ["perf", "--repeats", "1", "--results-dir", str(tmp_path)]
    for pattern in FAST_ONLY:
        argv += ["--only", pattern]
    return bench_main(argv + list(extra))


# ---------------------------------------------------------------------------
# Suite construction / selection
# ---------------------------------------------------------------------------


class TestSuite:
    def test_covers_all_three_layers(self):
        suite = build_suite()
        groups = {bench.group for bench in suite}
        assert {"codec", "kernel", "scale", "query"} <= groups
        keys = [bench.key for bench in suite]
        for required in (
            "codec.quantize_encode",
            "codec.zcurve_interleave",
            "codec.zcurve_deinterleave",
            "codec.quadtree_size",
            "kernel.events_depth64",
            "query.expand_exact_n1000",
            "query.semijoin_n600",
        ):
            assert required in keys

    def test_optimized_kernels_carry_reference_twins(self):
        by_key = {bench.key: bench for bench in build_suite()}
        for key in (
            "codec.zcurve_interleave",
            "codec.zcurve_deinterleave",
            "codec.quadtree_size",
            "scale.adjacency_build_n2000",
            "query.expand_exact_n1000",
            "query.semijoin_n600",
        ):
            assert by_key[key].reference is not None, key

    def test_setops_are_untracked(self):
        """Tracking follows the group: a setops entry, as older snapshots
        hold, is outside the gate, and every kernel of the suite is in it."""
        assert not Bench("setops", "union_encoded", 1, lambda: None).tracked
        assert all(bench.tracked for bench in build_suite())

    def test_only_filters_by_glob(self):
        keys = [bench.key for bench in build_suite(["codec.zcurve_*"])]
        assert keys == ["codec.zcurve_interleave", "codec.zcurve_deinterleave"]

    def test_only_without_match_raises(self):
        with pytest.raises(ValueError, match="no perf bench matches"):
            build_suite(["nope*"])


# ---------------------------------------------------------------------------
# Snapshot files
# ---------------------------------------------------------------------------


class TestSnapshots:
    def test_numbering_starts_at_one_and_increments(self, tmp_path):
        assert latest_snapshot(tmp_path) is None
        assert next_snapshot_path(tmp_path).name == "BENCH_1.json"
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_7.json").write_text("{}")
        assert latest_snapshot(tmp_path).name == "BENCH_7.json"
        assert next_snapshot_path(tmp_path).name == "BENCH_8.json"

    def test_corrupt_baseline_is_a_value_error(self, tmp_path):
        bad = tmp_path / "BENCH_1.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            snapshot_entries(bad)
        bad.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ValueError, match="schema"):
            snapshot_entries(bad)

    def test_entries_key_by_group_and_name(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "entries": [
                        {"group": "codec", "name": "x", "score": 1.0, "tracked": True}
                    ],
                }
            )
        )
        assert set(snapshot_entries(path)) == {"codec.x"}

    def test_interpreter_fingerprint_names_this_runtime(self):
        import sys

        fingerprint = _interpreter_fingerprint()
        assert fingerprint["python"] == list(sys.version_info[:2])
        assert fingerprint["implementation"] == sys.implementation.name
        assert fingerprint["platform"] == sys.platform


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------


def _entry(score, tracked=True):
    return {"group": "codec", "name": "k", "score": score, "tracked": tracked}


class TestGate:
    def test_flags_only_past_threshold(self):
        baseline = {"codec.k": _entry(10.0)}
        assert compare_snapshots(baseline, {"codec.k": _entry(12.0)}, 0.25) == []
        regressions = compare_snapshots(baseline, {"codec.k": _entry(13.0)}, 0.25)
        assert [r.key for r in regressions] == ["codec.k"]
        assert regressions[0].ratio == pytest.approx(1.3)

    def test_untracked_and_new_entries_are_ignored(self):
        baseline = {"codec.k": _entry(10.0, tracked=False)}
        assert compare_snapshots(baseline, {"codec.k": _entry(99.0, tracked=False)}) == []
        assert compare_snapshots({}, {"codec.k": _entry(99.0)}) == []

    def test_improvements_pass(self):
        baseline = {"codec.k": _entry(10.0)}
        assert compare_snapshots(baseline, {"codec.k": _entry(1.0)}) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_run_writes_schema_stamped_snapshot(self, tmp_path, capsys):
        assert _perf(tmp_path) == 0
        out = capsys.readouterr().out
        assert "BENCH_1.json" in out
        payload = json.loads((tmp_path / "BENCH_1.json").read_text())
        assert payload["schema"] == SCHEMA
        assert payload["calibration_ns_per_op"] > 0
        entry = payload["entries"][0]
        assert entry["group"] == "kernel"
        assert entry["ns_per_op"] > 0 and entry["score"] > 0

    def test_second_run_prints_baseline_delta(self, tmp_path, capsys):
        assert _perf(tmp_path) == 0
        capsys.readouterr()
        assert _perf(tmp_path) == 0
        out = capsys.readouterr().out
        assert "vs baseline" in out
        assert "BENCH_2.json" in out
        assert json.loads((tmp_path / "BENCH_2.json").read_text())["baseline"].endswith(
            "BENCH_1.json"
        )

    def test_no_write_leaves_results_dir_untouched(self, tmp_path):
        assert _perf(tmp_path, "--no-write") == 0
        assert latest_snapshot(tmp_path) is None

    def test_check_without_baseline_passes(self, tmp_path, capsys):
        assert _perf(tmp_path, "--check") == 0
        assert "nothing to gate against" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        # A fabricated baseline with impossibly good scores forces the gate.
        baseline = tmp_path / "BENCH_1.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "entries": [
                        {
                            "group": "kernel",
                            "name": "events_depth64",
                            "score": 1e-9,
                            "tracked": True,
                        }
                    ],
                }
            )
        )
        code = _perf(tmp_path, "--check", "--baseline", str(baseline), "--no-write")
        assert code == 1
        assert "REGRESSION kernel.events_depth64" in capsys.readouterr().err

    def test_unknown_only_pattern_exits_2(self, tmp_path, capsys):
        code = bench_main(
            ["perf", "--only", "nope*", "--results-dir", str(tmp_path)]
        )
        assert code == 2
        assert "no perf bench matches" in capsys.readouterr().err

    def test_bad_repeats_exits_2(self, tmp_path, capsys):
        code = bench_main(
            ["perf", "--repeats", "0", "--results-dir", str(tmp_path)]
        )
        assert code == 2
        assert "--repeats" in capsys.readouterr().err

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        code = _perf(tmp_path, "--baseline", str(tmp_path / "BENCH_9.json"))
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_measured_speedup_recorded_for_reference_twins(self, tmp_path):
        argv = [
            "perf", "--repeats", "1", "--results-dir", str(tmp_path),
            "--only", "codec.zcurve_interleave",
        ]
        assert bench_main(argv) == 0
        payload = json.loads((tmp_path / "BENCH_1.json").read_text())
        entry = payload["entries"][0]
        assert entry["reference_ns_per_op"] > 0
        assert entry["speedup"] > 1.0


# ---------------------------------------------------------------------------
# Snapshot history / trend
# ---------------------------------------------------------------------------


def _write_snapshot(path, score):
    path.write_text(
        json.dumps(
            {
                "schema": SCHEMA,
                "entries": [
                    {"group": "kernel", "name": "k", "score": score, "tracked": True}
                ],
            }
        )
    )


class TestSnapshotHistory:
    def test_history_is_in_snapshot_order(self, tmp_path):
        for number in (3, 1, 10):
            _write_snapshot(tmp_path / f"BENCH_{number}.json", float(number))
        names = [path.name for path in snapshot_history(tmp_path)]
        assert names == ["BENCH_1.json", "BENCH_3.json", "BENCH_10.json"]

    def test_default_results_dir_is_cwd_independent(self, tmp_path, monkeypatch):
        # The committed history must be visible from any working directory
        # (this is what made the perf trajectory read as empty before):
        # with no local snapshots, the repo-anchored directory wins.
        monkeypatch.chdir(tmp_path)
        resolved = default_results_dir()
        assert resolved.is_absolute()
        assert snapshot_history(resolved)

    def test_local_snapshots_win_over_anchored(self, tmp_path, monkeypatch):
        local = tmp_path / DEFAULT_RESULTS_DIR_LOCAL
        local.mkdir(parents=True)
        _write_snapshot(local / "BENCH_1.json", 1.0)
        monkeypatch.chdir(tmp_path)
        assert default_results_dir() == DEFAULT_RESULTS_DIR_LOCAL


class TestTrendCli:
    def test_trend_renders_sparklines(self, tmp_path, capsys):
        _write_snapshot(tmp_path / "BENCH_1.json", 10.0)
        _write_snapshot(tmp_path / "BENCH_2.json", 5.0)
        assert bench_main(["trend", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "perf trajectory over 2 snapshots" in out
        assert "kernel.k" in out and "-50.0%" in out

    def test_single_snapshot_is_not_a_trend(self, tmp_path, capsys):
        _write_snapshot(tmp_path / "BENCH_1.json", 10.0)
        assert bench_main(["trend", "--results-dir", str(tmp_path)]) == 0
        assert "at least 2" in capsys.readouterr().out

    def test_empty_history_exits_2_only_under_check(self, tmp_path, capsys):
        assert bench_main(["trend", "--results-dir", str(tmp_path)]) == 0
        assert bench_main(["trend", "--results-dir", str(tmp_path), "--check"]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_check_fails_on_malformed_snapshot(self, tmp_path, capsys):
        _write_snapshot(tmp_path / "BENCH_1.json", 10.0)
        (tmp_path / "BENCH_2.json").write_text("{nope")
        code = bench_main(["trend", "--results-dir", str(tmp_path), "--check"])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_malformed_snapshot_skipped_without_check(self, tmp_path, capsys):
        _write_snapshot(tmp_path / "BENCH_1.json", 10.0)
        (tmp_path / "BENCH_2.json").write_text("{nope")
        _write_snapshot(tmp_path / "BENCH_3.json", 20.0)
        assert bench_main(["trend", "--results-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "skipping BENCH_2.json" in captured.err
        assert "+100.0%" in captured.out

    def test_hint_commands_parse(self, tmp_path, capsys):
        # Both hints (no history, a single snapshot) name a command; each
        # must be one the CLI accepts.
        bench_main(["trend", "--results-dir", str(tmp_path)])
        _write_snapshot(tmp_path / "BENCH_1.json", 10.0)
        bench_main(["trend", "--results-dir", str(tmp_path)])
        captured = capsys.readouterr()
        hints = captured.out + captured.err
        commands = re.findall(r"`python -m repro\.bench ([^`]*)`", hints)
        assert len(commands) == 2
        for command in commands:
            build_parser().parse_args(shlex.split(command))

    def test_committed_history_passes_check(self, capsys):
        # The repo ships >= 2 snapshots so `trend` has a real trajectory.
        assert bench_main(["trend", "--check"]) == 0
        out = capsys.readouterr().out
        assert "snapshot history ok" in out
        assert "perf trajectory over" in out
