"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import compare
import layers
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(list(reversed(values)), 90) == 90
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([1, 2, 3], 50) == 2
    assert run.rank(10, 90) == 9
    assert run.rank(11, 90) == 10


def test_ten_samples_beyond_p90():
    assert run.MIN_SAMPLES == 100
    assert 100 - run.rank(100, 90) == 10
    assert 99 - run.rank(99, 90) < 10
    for n in range(run.MIN_SAMPLES, 400):
        assert n - run.rank(n, 90) >= 10


def test_self_time_of_nested_and_back_to_back_spans():
    # root [0, 100] holds back-to-back children [10, 40] and [40, 70];
    # the first child holds a grandchild [15, 25].
    starts = [0, 10, 40, 15]
    ends = [100, 40, 70, 25]
    parents = [-1, 0, 0, 1]
    assert layers.self_times(starts, ends, parents) == [40, 20, 30, 10]
    assert sum(layers.self_times(starts, ends, parents)) == 100


def test_self_time_counts_overlapping_children_once():
    assert layers.union_length([(0, 10), (5, 15), (20, 30), (30, 32)]) == 27
    assert layers.self_times([0, 10, 20], [50, 30, 40], [-1, 0, 0]) == [20, 20, 20]


def _bindings():
    """Every place a layer target is bound: (owner, name, object)."""
    found = []
    for _, module, attribute in layers.LAYERS + layers.COUNTED:
        owner, leaf, original = layers._resolve(module, attribute)
        found.append((owner, leaf, original))
        if not isinstance(owner, type):
            for other in list(sys.modules.values()):
                for key, value in list(getattr(other, "__dict__", {}).items()):
                    if value is original:
                        found.append((other, key, original))
    return found


def _stray_wrappers():
    """Every module global or layer class attribute still holding a wrapper."""
    found = [
        f"{module.__name__}.{key}"
        for module in list(sys.modules.values())
        for key, value in list(getattr(module, "__dict__", {}).items())
        if isinstance(getattr(value, "_e2e_span", None), str)
    ]
    for _, module, attribute in layers.LAYERS + layers.COUNTED:
        if isinstance(getattr(layers._resolve(module, attribute)[2], "_e2e_span", None), str):
            found.append(f"{module}.{attribute}")
    return found


def test_traced_run_restores_every_binding(tmp_path):
    import workloads  # noqa: F401  (binds the program's names before the snapshot)

    before = _bindings()
    args = run.parse_args([
        "--child", "--workload", "paper-600", "--smoke", "--trace", "1", "--out", str(tmp_path),
    ])
    result = run.run_workload(args)
    assert result["correct"], result["error"]
    assert result["layers"]["joins.node_tuple_calls"] > 0
    assert result["layers"]["sim.kernel_calls"] > 0
    assert (tmp_path / "trace-paper-600.jsonl").is_file()
    for owner, key, original in before:
        assert getattr(owner, key) is original, f"{owner}.{key} still patched"
    assert _stray_wrappers() == []


def _smoke(tmp_path, *extra):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()


def test_smoke_prints_every_benchmark_metric_with_its_unit(tmp_path):
    lines = _smoke(tmp_path, "--trace", "1")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4:
            printed[(parts[0], parts[1])] = parts[3]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    for workload in BENCHMARK["workloads"]:
        for metric in metrics:
            key = (workload["name"], metric["name"])
            assert printed.get(key) == metric["unit"], key
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for workload in BENCHMARK["workloads"]:
        names = {key.split(":", 1)[1] for key in summary["metrics"] if key.startswith(workload["name"] + ":")}
        assert names == per_layer


def test_untraced_run_reports_exactly_the_end_to_end_metrics(tmp_path):
    lines = _smoke(tmp_path, "--workload", "broker-churn")
    summary = json.loads(lines[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in summary["metrics"].values())


def test_benchmark_json_lists_the_printed_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.E2E_UNITS)
    for metric in BENCHMARK["end_to_end"]:
        assert metric["unit"] == run.E2E_UNITS[metric["name"]]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.layer_units()
    import workloads

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "paper-600", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_compare_verdicts():
    assert compare.verdict([10, 10.1, 9.9], [10.2, 10.1, 10.3], "lower", 0.1)[0] == "agree"
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.1)[0] == "worse"
    assert compare.verdict([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", 0.1)[0] == "better"
    assert compare.verdict([10, 10.1, 9.9], [8, 8.1, 7.9], "higher", 0.1)[0] == "worse"
    assert compare.verdict([10, 15, 20, 8], [10, 11, 10.5, 9], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict([5.0, 5.0], [5.0, 5.0], "lower", 0)[0] == "agree"
    assert compare.verdict([5.0, 5.0], [5.5, 5.5], "lower", 0)[0] == "worse"


def test_spread_table_gives_reported_and_raw_spread():
    runs = [
        {"e2e": {"wall_p50_ms": scaled, "energy_per_query": 3.0}, "raw": {"wall_p50_ms": raw}}
        for scaled, raw in [(10.0, 10.0), (10.0, 14.0), (10.5, 9.0), (10.0, 12.0), (10.0, 11.0)]
    ]
    metrics = [
        {"name": "wall_p50_ms", "better": "lower", "bound": 0.1},
        {"name": "energy_per_query", "better": "lower", "bound": 0},
    ]
    rows = compare.spreads({"w": runs}, metrics)
    assert rows == [["w", "wall_p50_ms", "5", "10", "2.5%", "31.8%", "10%"]]


def test_probe_scaling_uses_the_mean_of_both_probes():
    assert run.at_reference(100.0, run.REFERENCE_PROBE_NS, run.REFERENCE_PROBE_NS) == 100.0
    assert run.at_reference(100.0, 2 * run.REFERENCE_PROBE_NS, 2 * run.REFERENCE_PROBE_NS) == 50.0
    assert run.at_reference(90.0, 40.0, 80.0) == 90.0 * 40.0 / 60.0
