"""Differential correctness harness (cross-engine fuzzing + invariants).

``python -m repro.verify fuzz --trials 100 --seed 0`` runs seeded trials
across the engine x workload x fault matrix, checks the invariant catalogue
after each one, shrinks failures to minimal specs and writes replayable JSON
artifacts; ``python -m repro.verify replay <artifact>`` re-triggers one.

See ``docs/testing.md`` for the invariant catalogue and the workflow.
"""

from .artifact import ReproArtifact, ReplayOutcome, replay
from .fuzz import FuzzFailure, FuzzReport, fuzz
from .generators import (
    DEPLOYMENTS,
    ENGINES,
    TrialSpec,
    build_trial,
    generate_fault_plan,
    plan_trials,
)
from .invariants import INVARIANTS, Invariant, Violation, all_violations
from .runner import RoundObservation, TrialExecution, TrialReport, execute_trial, run_trial
from .shrink import ShrinkResult, shrink

__all__ = [
    "DEPLOYMENTS",
    "ENGINES",
    "INVARIANTS",
    "FuzzFailure",
    "FuzzReport",
    "Invariant",
    "ReplayOutcome",
    "ReproArtifact",
    "RoundObservation",
    "ShrinkResult",
    "TrialExecution",
    "TrialReport",
    "TrialSpec",
    "Violation",
    "all_violations",
    "build_trial",
    "execute_trial",
    "fuzz",
    "generate_fault_plan",
    "plan_trials",
    "replay",
    "run_trial",
    "shrink",
]
