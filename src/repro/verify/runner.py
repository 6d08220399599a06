"""Trial execution for the differential harness.

:func:`execute_trial` rebuilds a trial's world from its spec, runs the chosen
engine, and packages everything the invariants need: per-round outcomes, the
matching lossless oracle (computed centrally, before any fault lands), the
raw per-node records, live telemetry for single-shot engines, and an
exact-float *fingerprint* of the observable outcome.

:func:`run_trial` is the harness entry point: execute, optionally re-execute
from scratch to cross-check determinism, then evaluate the invariant
catalogue.  It never raises on an engine bug — an unexpected exception is
reported as an ``engine-matches-oracle`` violation so the fuzz loop can
shrink it like any other failure.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..joins.adaptive import AdaptiveJoin
from ..joins.base import (
    FullTupleRecord,
    JoinOutcome,
    TupleFormat,
    acquire,
    evaluate_arrived,
)
from ..joins.des_sensjoin import DesSensJoin, RecoveryPolicy
from ..joins.incremental import IncrementalSensJoin
from ..joins.runner import make_algorithm, run_snapshot
from ..joins.sensjoin import SensJoinConfig
from ..obs.telemetry import Telemetry
from ..query.evaluate import JoinResult
from .generators import ROUND_TIMES, TrialSetup, TrialSpec, build_trial
from .invariants import Violation, all_violations

__all__ = [
    "RoundObservation",
    "TrialExecution",
    "TrialReport",
    "execute_trial",
    "run_trial",
]


@dataclass
class RoundObservation:
    """One engine execution with its matching ground truth."""

    round_index: int
    engine_label: str
    outcome: JoinOutcome
    oracle: JoinResult
    records: List[FullTupleRecord]
    tuple_format: TupleFormat


@dataclass
class TrialExecution:
    """Everything the invariant catalogue inspects for one trial."""

    spec: TrialSpec
    setup: TrialSetup
    rounds: List[RoundObservation]
    registry: object = None  # MetricsRegistry for single-shot engines
    fingerprint: Dict[str, object] = field(default_factory=dict)
    #: Fingerprint of an independent re-execution (determinism cross-check);
    #: ``None`` when the spec did not request one.
    replay_fingerprint: Optional[Dict[str, object]] = None


@dataclass
class TrialReport:
    """Outcome of one fuzz trial: the execution plus its violations."""

    spec: TrialSpec
    violations: List[Violation]
    execution: Optional[TrialExecution] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def first(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None


def _outcome_fingerprint(obs: RoundObservation) -> Dict[str, object]:
    """Exact-float fingerprint of one round's observable outcome."""
    outcome = obs.outcome
    result = outcome.result
    return {
        "engine": obs.engine_label,
        "combinations": tuple(sorted(result.combinations)),
        "rows": tuple(
            sorted(tuple(sorted(row.items())) for row in result.rows)
        ),
        "details": tuple(sorted(outcome.details.items())),
        "response_time_s": outcome.response_time_s,
        "tx_packets": tuple(sorted(outcome.stats.tx_packets_by_phase().items())),
        "retx_packets": tuple(sorted(outcome.stats.retx_packets_by_phase().items())),
        "oracle_combinations": tuple(sorted(obs.oracle.combinations)),
    }


def execute_trial(setup: TrialSetup) -> TrialExecution:
    """Run the spec's engine over its freshly built world."""
    spec = setup.spec
    if spec.uses_rounds:
        rounds = _execute_rounds(setup)
        registry = None
    else:
        rounds, registry = _execute_single_shot(setup)
    fingerprint: Dict[str, object] = {
        f"round{obs.round_index}": _outcome_fingerprint(obs) for obs in rounds
    }
    fingerprint["total_energy"] = setup.network.total_energy()
    return TrialExecution(
        spec=spec,
        setup=setup,
        rounds=rounds,
        registry=registry,
        fingerprint=fingerprint,
    )


def _execute_single_shot(
    setup: TrialSetup,
) -> Tuple[List[RoundObservation], object]:
    spec = setup.spec
    if spec.engine == "des-sensjoin":
        # Churn trials exercise the incremental self-healing path; the
        # fixed-fault trials keep the historical full-rebuild repair.
        recovery = (
            RecoveryPolicy(repair="reattach")
            if spec.churn_rate > 0
            else RecoveryPolicy()
        )
        algorithm = DesSensJoin(
            fault_plan=setup.fault_plan,
            recovery=recovery,
            repair_seed=spec.seed,
        )
    else:
        algorithm = make_algorithm(spec.engine)
    # The oracle and the record capture reflect the pre-fault population:
    # take the same snapshot the engine will re-take (drift is zero for
    # single-shot specs, so the readings are identical).
    setup.world.take_snapshot(0.0)
    fmt = TupleFormat(setup.query, setup.world)
    records = list(acquire(fmt, setup.network.sensor_node_ids).values())
    oracle = evaluate_arrived(setup.query, fmt, records)
    telemetry = Telemetry.capture()
    outcome = run_snapshot(
        setup.network,
        setup.world,
        setup.query,
        algorithm,
        tree=setup.tree,
        snapshot_time=0.0,
        tree_seed=spec.seed,
        telemetry=telemetry,
    )
    obs = RoundObservation(
        round_index=0,
        engine_label=outcome.algorithm,
        outcome=outcome,
        oracle=oracle,
        records=records,
        tuple_format=fmt,
    )
    return [obs], telemetry.registry


def _execute_rounds(setup: TrialSetup) -> List[RoundObservation]:
    """Drive a stateful executor (adaptive / incremental) for two rounds.

    The oracle is captured *after* each round: ``run_round`` takes its own
    snapshot, and the link-layer ARQ makes delivery exact under loss, so
    the post-round world state is exactly what the engine saw.
    """
    spec = setup.spec
    if spec.engine == "adaptive":
        executor = AdaptiveJoin(
            setup.network,
            setup.world,
            setup.query,
            tree=setup.tree,
            tree_seed=spec.seed,
        )
    else:
        executor = IncrementalSensJoin(
            setup.network,
            setup.world,
            setup.query,
            config=SensJoinConfig() if spec.treecut else None,
            tree=setup.tree,
            tree_seed=spec.seed,
        )
    rounds: List[RoundObservation] = []
    for index, t in enumerate(ROUND_TIMES):
        if spec.engine == "adaptive":
            outcome, chosen = executor.run_round(t)
            label = f"adaptive->{chosen}"
        else:
            outcome = executor.run_round(t)
            label = outcome.algorithm
        fmt = TupleFormat(setup.query, setup.world)
        records = list(acquire(fmt, setup.network.sensor_node_ids).values())
        rounds.append(
            RoundObservation(
                round_index=index,
                engine_label=label,
                outcome=outcome,
                oracle=evaluate_arrived(setup.query, fmt, records),
                records=records,
                tuple_format=fmt,
            )
        )
    return rounds


def run_trial(spec: TrialSpec) -> TrialReport:
    """Build, execute and check one trial; crashes become violations."""
    try:
        execution = execute_trial(build_trial(spec))
        if spec.check_determinism:
            execution.replay_fingerprint = execute_trial(build_trial(spec)).fingerprint
    except Exception:
        return TrialReport(
            spec=spec,
            violations=[
                Violation(
                    "engine-matches-oracle",
                    "engine raised instead of producing a result:\n"
                    + traceback.format_exc(limit=8),
                )
            ],
        )
    return TrialReport(
        spec=spec, violations=all_violations(execution), execution=execution
    )
