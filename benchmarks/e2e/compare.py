#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results, metric by metric.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...
    python3 benchmarks/e2e/compare.py --spread R1.json R2.json ...

Each file is a result written by ``run.py`` (one workload or all of them);
traced results are skipped.  For every workload and end-to-end metric the
table gives each side's median and quartiles, the change of B's median
against A's (positive = worse), the metric's bound from ``BENCHMARK.json``
and a verdict:

``agree``       the medians differ by no more than the bound;
``worse``       B's median is worse than A's by more than the bound;
``better``      B's median is better by more than the bound;
``unresolved``  a side's run-to-run spread (quartile distance over median)
                exceeds the bound, and not every B run beats every A run.

A metric with bound 0 is simulated and must repeat exactly: any change is
``worse`` or ``better``.  The simulated-stats digests are compared per
workload too.  Exits 1 when any verdict is ``worse``.

``--spread`` reads one set of results and gives, for every workload and
host metric, the run-to-run spread of the reported (probe-scaled) values and
of the raw ones, against the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(paths: Sequence[str]) -> Dict[str, List[dict]]:
    """Untraced per-workload results from result files, by workload."""
    by_workload: Dict[str, List[dict]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        results = data["workloads"].values() if "workloads" in data else [data]
        for result in results:
            if result.get("trace") or "e2e" not in result:
                print(f"skipping {path} ({result.get('workload')}): traced or failed", file=sys.stderr)
                continue
            by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """The verdict for one metric and B's change against A (positive = worse)."""
    a_median, b_median = quartiles(a)[1], quartiles(b)[1]
    sign = 1.0 if better == "lower" else -1.0
    change = (sign * (b_median - a_median) / a_median if a_median else sign * (b_median - a_median)) + 0.0
    b_wins = all(sign * (y - x) < 0 for x in a for y in b)
    if bound == 0:
        if change == 0 and len(set(a) | set(b)) == 1:
            return "agree", change
        if len(set(a)) > 1 or len(set(b)) > 1:
            return "unresolved", change
        return ("worse" if change > 0 else "better"), change
    if max(spread(a), spread(b)) > bound:
        return ("better" if b_wins else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "agree", change


def compare(
    before: Dict[str, List[dict]], after: Dict[str, List[dict]], metrics: Sequence[dict]
) -> Tuple[List[List[str]], bool]:
    """Table rows and whether any metric got worse."""
    rows = []
    any_worse = False
    for workload in sorted(set(before) & set(after)):
        for metric in metrics:
            name = metric["name"]
            a = [r["e2e"][name] for r in before[workload]]
            b = [r["e2e"][name] for r in after[workload]]
            result, change = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            rows.append([
                workload, name, f"{len(a)}/{len(b)}",
                f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]",
                f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]",
                f"{100 * change:+.2f}%", f"{100 * metric['bound']:.0f}%", result,
            ])
        digests_a = {r["digest"] for r in before[workload]}
        digests_b = {r["digest"] for r in after[workload]}
        same = len(digests_a | digests_b) == 1
        rows.append([workload, "digest", "", f"{len(digests_a)} distinct",
                     f"{len(digests_b)} distinct", "", "", "agree" if same else "differ"])
    return rows, any_worse


def spreads(results: Dict[str, List[dict]], metrics: Sequence[dict]) -> List[List[str]]:
    """Table rows: each host metric's spread, reported and raw, per workload."""
    rows = []
    for workload in sorted(results):
        runs = results[workload]
        for metric in metrics:
            name = metric["name"]
            if metric["bound"] == 0:
                continue
            values = [r["e2e"][name] for r in runs]
            raw = [r["raw"][name] for r in runs if name in r["raw"]]
            rows.append([
                workload, name, str(len(values)), f"{quartiles(values)[1]:.6g}",
                f"{100 * spread(values):.1f}%",
                f"{100 * spread(raw):.1f}%" if raw else "-",
                f"{100 * metric['bound']:.0f}%",
            ])
    return rows


COMPARE_HEADER = ["workload", "metric", "runs A/B", "A median [q1, q3]",
                  "B median [q1, q3]", "B vs A", "bound", "verdict"]
SPREAD_HEADER = ["workload", "metric", "runs", "median", "spread", "raw spread", "bound"]


def render(rows: List[List[str]], header: Sequence[str]) -> str:
    widths = [max(len(str(row[i])) for row in rows + [header]) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(header, widths))]
    lines.append("  ".join("-" * width for width in widths))
    lines += ["  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)) for row in rows]
    return "\n".join(line.rstrip() for line in lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if argv[:1] == ["--spread"] and len(argv) > 1:
        print(render(spreads(load(argv[1:]), metrics), SPREAD_HEADER))
        return 0
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    before, after = load(argv[:split]), load(argv[split + 1:])
    if not set(before) & set(after):
        print("no workload appears on both sides", file=sys.stderr)
        return 2
    rows, any_worse = compare(before, after, metrics)
    print(render(rows, COMPARE_HEADER))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
