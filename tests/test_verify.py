"""Differential harness tests: planning, invariants, shrinking, replay.

The centrepiece is the mutation smoke test: an intentionally injected
quantization bug (cell bounds narrowed so they no longer contain the raw
value) must be *caught* by the fuzz loop, *shrunk* to a minimal spec,
written as a replayable artifact, and *reproduced* by ``replay`` while the
bug is present — and not reproduced once the mutation is reverted.
"""

import json
from dataclasses import replace

import pytest

from repro.codec.quantize import QuantizedDimension
from repro.errors import TraceFormatError
from repro.sim.faults import Fault, FaultPlan, LINK_DROP, LOSS_BURST, NODE_CRASH
from repro.verify import (
    ENGINES,
    INVARIANTS,
    ReproArtifact,
    TrialReport,
    TrialSpec,
    Violation,
    build_trial,
    fuzz,
    plan_trials,
    replay,
    run_trial,
    shrink,
)
from repro.verify.__main__ import main as verify_main


class TestPlanning:
    def test_same_seed_same_trials(self):
        assert plan_trials(20, 0) == plan_trials(20, 0)
        assert plan_trials(20, 0) != plan_trials(20, 1)

    def test_small_run_covers_every_engine(self):
        specs = plan_trials(len(ENGINES), 0)
        assert {spec.engine for spec in specs} == set(ENGINES)

    def test_faults_only_for_des_engine(self):
        for spec in plan_trials(60, 0):
            if spec.fault_count:
                assert spec.engine == "des-sensjoin"

    def test_spec_json_round_trip(self):
        for spec in plan_trials(10, 5):
            rebuilt = TrialSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert rebuilt == spec

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown engine"):
            TrialSpec(seed=0, engine="bogus")
        with pytest.raises(ValueError, match="des-sensjoin"):
            TrialSpec(seed=0, engine="sens-join", crash_count=1)
        with pytest.raises(ValueError, match="loss_rate"):
            TrialSpec(seed=0, engine="sens-join", loss_rate=1.5)
        with pytest.raises(ValueError, match="template"):
            TrialSpec(seed=0, engine="sens-join", relations="two", template=3)

    def test_fault_plan_round_trip(self):
        plan = FaultPlan(
            (
                Fault(time_s=0.01, kind=NODE_CRASH, node_a=3),
                Fault(time_s=0.002, kind=LINK_DROP, node_a=1, node_b=2),
                Fault(time_s=0.005, kind=LOSS_BURST, duration_s=1.0, loss_rate=0.4),
            )
        )
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt == plan

    def test_build_trial_is_deterministic(self):
        spec = plan_trials(1, 7)[0]
        a, b = build_trial(spec), build_trial(spec)
        positions_a = {n: (node.x, node.y) for n, node in a.network.nodes.items()}
        positions_b = {n: (node.x, node.y) for n, node in b.network.nodes.items()}
        assert positions_a == positions_b
        assert a.query.sql() == b.query.sql()
        assert a.fault_plan == b.fault_plan


class TestTrials:
    def test_clean_trial_passes_all_invariants(self):
        report = run_trial(TrialSpec(seed=5, engine="sens-join", node_count=16))
        assert report.passed, report.violations

    def test_determinism_double_run_passes(self):
        report = run_trial(
            TrialSpec(seed=5, engine="sens-join", node_count=12, check_determinism=True)
        )
        assert report.passed, report.violations
        assert report.execution.replay_fingerprint is not None

    def test_faulted_des_trial_passes_subset_invariant(self):
        report = run_trial(
            TrialSpec(
                seed=9,
                engine="des-sensjoin",
                node_count=16,
                crash_count=2,
                link_drop_count=1,
            )
        )
        assert report.passed, report.violations

    # Regression pins for the stateful executors: the fuzzer found no
    # engine-vs-oracle mismatch under loss, so these keep it that way —
    # the link-layer ARQ must make every round exact even at 30% loss.
    @pytest.mark.parametrize("engine", ["adaptive", "incremental"])
    def test_stateful_engines_exact_under_loss(self, engine):
        report = run_trial(
            TrialSpec(seed=11, engine=engine, node_count=24, loss_rate=0.3)
        )
        assert report.passed, report.violations
        retx = sum(
            obs.outcome.stats.total_retx_packets() for obs in report.execution.rounds
        )
        assert retx > 0, "30% loss must cause ARQ retransmissions"


class TestShrinker:
    def test_shrinks_along_axes_with_fake_executor(self):
        """A failure that only depends on loss>0 shrinks everything else."""

        def execute(spec):
            violations = (
                [Violation("engine-matches-oracle", "boom")] if spec.loss_rate else []
            )
            return TrialReport(spec=spec, violations=violations)

        original = TrialSpec(
            seed=1,
            engine="sens-join",
            deployment="uniform",
            node_count=48,
            relations="two",
            template=1,
            threshold=2.0,
            loss_rate=0.3,
            check_determinism=True,
        )
        result = shrink(execute(original), execute=execute)
        assert result.spec.loss_rate == 0.3  # the failure's cause survives
        assert result.spec.node_count == 12
        assert result.spec.deployment == "grid"
        assert result.spec.relations == "self"
        assert result.spec.check_determinism is False
        assert result.steps

    def test_different_invariant_not_accepted(self):
        """A candidate failing a *different* invariant is not a shrink."""

        def execute(spec):
            name = (
                "engine-matches-oracle" if spec.node_count > 12 else "zcurve-roundtrip"
            )
            return TrialReport(spec=spec, violations=[Violation(name, "x")])

        original = TrialSpec(seed=1, engine="sens-join", node_count=48)
        result = shrink(execute(original), execute=execute)
        assert result.invariant == "engine-matches-oracle"
        assert result.spec.node_count > 12


class TestMutationSmoke:
    """Inject a quantization bug; the harness must catch/shrink/replay it."""

    @staticmethod
    def _narrowed_bounds(self, cell):
        # Deliberately wrong: the interval no longer covers the whole cell
        # (nor the boundary sentinels), so raw values escape their bounds
        # and the conservative semi-join dismisses real matches.
        lo = self.min_value + cell * self.resolution + 0.75 * self.resolution
        return lo, lo + 0.1 * self.resolution

    def test_injected_bug_is_caught_shrunk_and_replayed(self, tmp_path, monkeypatch):
        artifact_dir = tmp_path / "artifacts"
        with monkeypatch.context() as m:
            m.setattr(QuantizedDimension, "bounds_of", self._narrowed_bounds)
            report = fuzz(
                trials=1,
                seed=0,
                engines=("sens-join",),
                artifact_dir=artifact_dir,
            )
            assert not report.ok
            failure = report.failures[0]
            assert failure.artifact_path is not None
            assert failure.artifact_path.exists()
            # Shrinking reached the smallest deployment on the ladder.
            assert failure.minimal_spec.node_count == 12
            # The artifact replays: the violation reproduces under the bug.
            artifact = ReproArtifact.load(failure.artifact_path)
            assert artifact.invariant == failure.violation.invariant
            assert replay(artifact).reproduced
        # Mutation reverted: the same artifact no longer reproduces.
        outcome = replay(ReproArtifact.load(failure.artifact_path))
        assert not outcome.reproduced
        assert outcome.report.passed


class TestArtifacts:
    def test_artifact_json_round_trip(self, tmp_path):
        artifact = ReproArtifact(
            invariant="zcurve-roundtrip",
            message="it broke",
            spec=TrialSpec(seed=3, engine="external-join"),
            original_spec=TrialSpec(seed=3, engine="external-join", node_count=48),
            shrink_steps=["node_count 48 -> 16"],
            meta={"master_seed": 0, "trial_index": 4},
        )
        path = artifact.save(tmp_path / "a.json")
        loaded = ReproArtifact.load(path)
        assert loaded.spec == artifact.spec
        assert loaded.original_spec == artifact.original_spec
        assert loaded.invariant == artifact.invariant
        assert loaded.meta["trial_index"] == 4

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope/9", "invariant": "x", "spec": {}}))
        with pytest.raises(TraceFormatError, match="format"):
            ReproArtifact.load(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(TraceFormatError, match="JSON"):
            ReproArtifact.load(path)


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert verify_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in INVARIANTS:
            assert name in out

    def test_fuzz_smoke_exits_zero(self, capsys):
        assert verify_main(["fuzz", "--trials", "2", "--seed", "0"]) == 0
        assert "2/2 trial(s) passed" in capsys.readouterr().out

    def test_fuzz_rejects_unknown_engine(self):
        assert verify_main(["fuzz", "--trials", "1", "--engines", "warp-join"]) == 2

    def test_replay_stale_artifact_exits_one(self, tmp_path, capsys):
        artifact = ReproArtifact(
            invariant="engine-matches-oracle",
            message="was a bug once",
            spec=TrialSpec(seed=5, engine="sens-join", node_count=12),
        )
        path = artifact.save(tmp_path / "stale.json")
        assert verify_main(["replay", str(path)]) == 1
        assert "stale" in capsys.readouterr().out


class TestInvariantCatalogue:
    def test_catalogue_is_documented(self):
        for invariant in INVARIANTS.values():
            assert invariant.description
        assert list(INVARIANTS)[0] == "engine-matches-oracle"


class TestScaleAxes:
    """The large-deployment ladder and the routing-mode trial axis."""

    def test_routing_derived_from_seed_without_rng_consumption(self):
        specs = plan_trials(40, 0)
        for spec in specs:
            expected = "cluster" if spec.seed % 4 == 0 else "flat"
            assert spec.routing == expected
        assert {spec.routing for spec in specs} == {"flat", "cluster"}

    def test_routing_pin_applies_to_every_trial(self):
        for mode in ("flat", "cluster"):
            specs = plan_trials(12, 3, routing=mode)
            assert {spec.routing for spec in specs} == {mode}

    def test_routing_axis_does_not_reshuffle_other_fields(self):
        """Turning the axis on must not have consumed the rng stream."""
        derived = plan_trials(15, 7)
        pinned = plan_trials(15, 7, routing="flat")
        for a, b in zip(derived, pinned):
            assert replace(a, routing="flat") == b

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError, match="unknown routing mode"):
            TrialSpec(seed=0, engine="sens-join", routing="mesh")
        with pytest.raises(ValueError, match="unknown routing"):
            plan_trials(4, 0, routing="mesh")

    def test_large_ladder_swaps_node_counts(self):
        from repro.verify.generators import LARGE_NODE_LADDER, NODE_LADDER

        small = plan_trials(30, 0)
        large = plan_trials(30, 0, large=True)
        assert {s.node_count for s in small} <= set(NODE_LADDER)
        assert {s.node_count for s in large} <= set(LARGE_NODE_LADDER)
        assert max(s.node_count for s in large) > max(NODE_LADDER)
        # The determinism double-run is skipped on the large ladder.
        assert not any(s.check_determinism for s in large)

    def test_describe_mentions_cluster_routing(self):
        spec = TrialSpec(seed=0, engine="sens-join", routing="cluster")
        assert "cluster" in spec.describe()
        assert "cluster" not in TrialSpec(seed=0, engine="sens-join").describe()

    def test_cluster_trial_passes_invariants(self):
        spec = TrialSpec(
            seed=5, engine="sens-join", node_count=24, routing="cluster"
        )
        report = run_trial(spec)
        assert report.passed, report.violations


class TestTreecutAxis:
    """The incremental executor with Treecut on, derived from the seed."""

    def test_treecut_derived_from_seed_on_incremental_only(self):
        specs = plan_trials(70, 0)
        for spec in specs:
            assert spec.treecut == (spec.engine == "incremental" and (spec.seed >> 2) % 2 == 1)
        assert {spec.treecut for spec in specs if spec.engine == "incremental"} == {
            False, True,
        }

    def test_treecut_needs_the_incremental_engine(self):
        with pytest.raises(ValueError, match="incremental engine"):
            TrialSpec(seed=0, engine="sens-join", treecut=True)

    def test_describe_mentions_treecut(self):
        spec = TrialSpec(seed=0, engine="incremental", treecut=True)
        assert "treecut" in spec.describe()
        assert "treecut" not in TrialSpec(seed=0, engine="incremental").describe()

    def test_treecut_trial_passes_invariants(self):
        spec = TrialSpec(
            seed=3, engine="incremental", node_count=24, drift_rate=0.001,
            treecut=True, check_determinism=True,
        )
        report = run_trial(spec)
        assert report.passed, report.violations
        for observation in report.execution.rounds:
            assert observation.outcome.details["treecut_exited"] > 0

    def test_shrink_turns_treecut_off_when_irrelevant(self):
        def execute(spec):
            violations = (
                [Violation("engine-matches-oracle", "boom")] if spec.loss_rate else []
            )
            return TrialReport(spec=spec, violations=violations)

        original = TrialSpec(
            seed=1, engine="incremental", node_count=12, loss_rate=0.1, treecut=True
        )
        result = shrink(execute(original), execute=execute)
        assert not result.spec.treecut
        assert "treecut -> off" in result.steps


class TestScaleShrinking:
    def test_shrink_bisects_node_count(self):
        """A count-threshold failure walks down in O(log n), not ladder steps."""

        def execute(spec):
            violations = (
                [Violation("engine-matches-oracle", "boom")]
                if spec.node_count >= 100
                else []
            )
            return TrialReport(spec=spec, violations=violations)

        original = TrialSpec(seed=1, engine="sens-join", node_count=2048)
        result = shrink(execute(original), execute=execute)
        assert result.spec.node_count < 2048
        assert result.spec.node_count >= 100
        assert any("bisect" in step for step in result.steps)
        # Logarithmic convergence: far fewer attempts than a walk from 2k.
        assert result.attempts <= 30

    def test_shrink_drops_cluster_routing_when_irrelevant(self):
        def execute(spec):
            violations = (
                [Violation("engine-matches-oracle", "boom")] if spec.loss_rate else []
            )
            return TrialReport(spec=spec, violations=violations)

        original = TrialSpec(
            seed=1,
            engine="sens-join",
            node_count=48,
            loss_rate=0.2,
            routing="cluster",
        )
        result = shrink(execute(original), execute=execute)
        assert result.spec.routing == "flat"
        assert result.spec.loss_rate == 0.2

    def test_shrink_keeps_cluster_routing_when_load_bearing(self):
        def execute(spec):
            violations = (
                [Violation("engine-matches-oracle", "boom")]
                if spec.routing == "cluster"
                else []
            )
            return TrialReport(spec=spec, violations=violations)

        original = TrialSpec(
            seed=1, engine="sens-join", node_count=48, routing="cluster"
        )
        result = shrink(execute(original), execute=execute)
        assert result.spec.routing == "cluster"
