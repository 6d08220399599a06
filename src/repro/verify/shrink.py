"""Greedy spec shrinking: minimise a failing trial while keeping the failure.

Property-based shrinking without a framework: a :class:`TrialSpec` is a small
value object, so instead of shrinking a choice sequence we shrink the spec
itself along domain axes — fewer nodes, zero loss, no faults, the regular
grid instead of a random deployment, the simplest query template.  Each
candidate re-executes from scratch (:func:`repro.verify.runner.run_trial`)
and is accepted only if the *same invariant* still fails, so the shrunk
repro pins the original bug rather than a different one.

Greedy first-accept iteration converges quickly because the axes are nearly
independent; the attempt budget bounds worst-case work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, Optional, Tuple

from .generators import NODE_LADDER, TrialSpec, templates_for
from .runner import TrialReport, run_trial

__all__ = ["ShrinkResult", "shrink"]

#: Upper bound on candidate executions during one shrink.
DEFAULT_ATTEMPT_BUDGET = 64


@dataclass
class ShrinkResult:
    """The minimised spec plus the trail that led there."""

    original: TrialSpec
    spec: TrialSpec
    invariant: str
    message: str
    steps: List[str] = field(default_factory=list)
    attempts: int = 0


def _candidates(spec: TrialSpec, invariant: str) -> Iterator[Tuple[str, TrialSpec]]:
    """Simpler specs to try, most aggressive first."""
    lower = [n for n in NODE_LADDER if n < spec.node_count]
    for node_count in lower:  # smallest first
        yield f"node_count {spec.node_count} -> {node_count}", replace(
            spec, node_count=node_count
        )
    # Bisection towards the bottom of the ladder: a failure found on the
    # large-deployment axis (up to 2k nodes) walks down in O(log n) steps
    # instead of crawling the ladder, and lands on counts the ladder never
    # enumerated.
    floor = NODE_LADDER[0]
    mid = (spec.node_count + floor) // 2
    if floor < mid < spec.node_count and mid not in lower:
        yield f"node_count bisect {spec.node_count} -> {mid}", replace(
            spec, node_count=mid
        )
    if spec.fault_count:
        yield "drop all faults", replace(
            spec, crash_count=0, link_drop_count=0, burst_count=0
        )
        if spec.crash_count:
            yield "crash_count -> 0", replace(spec, crash_count=0)
        if spec.link_drop_count:
            yield "link_drop_count -> 0", replace(spec, link_drop_count=0)
        if spec.burst_count:
            yield "burst_count -> 0", replace(spec, burst_count=0)
    if spec.churn_rate:
        yield f"churn_rate {spec.churn_rate} -> 0", replace(spec, churn_rate=0.0)
    if spec.loss_rate:
        yield f"loss_rate {spec.loss_rate} -> 0", replace(spec, loss_rate=0.0)
    if spec.deployment != "grid":
        yield f"deployment {spec.deployment} -> grid", replace(spec, deployment="grid")
    if spec.relations != "self":
        template = templates_for("self")[0]
        yield "relations two -> self", replace(
            spec, relations="self", template=0, threshold=template.default_threshold
        )
    if spec.template > 0:
        template = templates_for(spec.relations)[spec.template - 1]
        yield f"template {spec.template} -> {spec.template - 1}", replace(
            spec,
            template=spec.template - 1,
            threshold=template.default_threshold,
        )
    if spec.routing != "flat":
        yield f"routing {spec.routing} -> flat", replace(spec, routing="flat")
    if spec.treecut:
        yield "treecut -> off", replace(spec, treecut=False)
    if spec.drift_rate:
        yield "drift_rate -> 0", replace(spec, drift_rate=0.0)
    if spec.check_determinism and invariant != "deterministic-replay":
        yield "drop determinism double-run", replace(spec, check_determinism=False)


def shrink(
    report: TrialReport,
    attempt_budget: int = DEFAULT_ATTEMPT_BUDGET,
    execute: Callable[[TrialSpec], TrialReport] = run_trial,
) -> ShrinkResult:
    """Minimise ``report.spec`` while its first violation keeps failing."""
    violation = report.first
    if violation is None:
        raise ValueError("cannot shrink a passing trial")
    result = ShrinkResult(
        original=report.spec,
        spec=report.spec,
        invariant=violation.invariant,
        message=violation.message,
    )
    improved = True
    while improved and result.attempts < attempt_budget:
        improved = False
        for description, candidate in _candidates(result.spec, result.invariant):
            if result.attempts >= attempt_budget:
                break
            result.attempts += 1
            try:
                candidate_report = execute(candidate)
            except Exception:
                continue  # an invalid candidate is simply not a simplification
            failure = candidate_report.first
            if failure is not None and failure.invariant == result.invariant:
                result.spec = candidate
                result.message = failure.message
                result.steps.append(description)
                improved = True
                break
    return result
