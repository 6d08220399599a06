"""Runner tests: snapshots, continuous queries, §IV-F failure recovery."""

import pytest

from repro.data.relations import SensorWorld
from repro.errors import ExecutionAborted
from repro.joins.runner import (
    list_engines,
    make_algorithm,
    run_continuous,
    run_snapshot,
    run_with_failures,
    snapshot_engine_names,
)
from repro.query.parser import parse_query
from repro.routing.dissemination import QUERY_DISSEMINATION_PHASE
from repro.sim.faults import LINK_DROP, LOSS_BURST, NODE_CRASH, Fault
from repro.sim.network import DeploymentConfig, deploy_uniform


def test_make_algorithm_resolution():
    assert make_algorithm("sens-join").name == "sens-join"
    assert make_algorithm("external-join").name == "external-join"
    instance = make_algorithm("sens-join")
    assert make_algorithm(instance) is instance
    with pytest.raises(ValueError, match="unknown algorithm"):
        make_algorithm("hash-join")


def test_engine_listing_matches_differential_registry():
    """Every engine the differential harness can drive must be listed.

    ``repro.verify.generators.ENGINES`` is the authoritative roster (it is
    what cross-engine fuzzing exercises); the runner's listing — which feeds
    ``python -m repro --help`` — must name exactly the same engines, split
    into snapshot vs stateful kinds.
    """
    from repro.verify.generators import ENGINES

    listing = list_engines()
    assert set(listing) == set(ENGINES)
    assert set(snapshot_engine_names()) == {
        name for name, kind in listing.items() if kind == "snapshot"
    }
    assert {name for name, kind in listing.items() if kind == "stateful"} == {
        "adaptive",
        "incremental",
    }


def test_snapshot_engines_all_constructible():
    # Display names may decorate the registry name (sens-join[des]), so
    # only require that every listed snapshot engine actually constructs.
    for name in snapshot_engine_names():
        algorithm = make_algorithm(name)
        assert callable(algorithm.execute)
        assert algorithm.name


def test_stateful_engine_names_raise_targeted_error():
    for name in ("adaptive", "incremental"):
        with pytest.raises(ValueError, match="stateful continuous executor"):
            make_algorithm(name)
        with pytest.raises(ValueError, match="run_round"):
            make_algorithm(name)


def test_run_snapshot_resets_accounting(small_network, small_world, tail_query):
    first = run_snapshot(small_network, small_world, tail_query(1.5), tree_seed=11)
    second = run_snapshot(small_network, small_world, tail_query(1.5), tree_seed=11)
    assert first.total_transmissions == second.total_transmissions


def test_query_dissemination_phase_separate(small_network, small_world, tail_query):
    outcome = run_snapshot(
        small_network, small_world, tail_query(1.5),
        disseminate_query=True, tree_seed=11,
    )
    phases = outcome.stats.tx_packets_by_phase()
    assert QUERY_DISSEMINATION_PHASE in phases
    # The comparison metric excludes it.
    assert outcome.total_transmissions == sum(
        count for phase, count in phases.items() if phase != QUERY_DISSEMINATION_PHASE
    )


def test_run_continuous_yields_independent_rounds(small_network):
    world = SensorWorld.homogeneous(small_network, seed=11, drift_rate=0.05)
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 1.2 SAMPLE PERIOD 60"
    )
    outcomes = run_continuous(small_network, world, query, executions=3, tree_seed=11)
    assert len(outcomes) == 3
    # Drifting fields: the result changes between rounds (almost surely).
    counts = [outcome.result.match_count for outcome in outcomes]
    assert len(set(counts)) > 1 or counts[0] == 0


def test_run_continuous_requires_sample_period(small_network, small_world, tail_query):
    with pytest.raises(ValueError, match="SAMPLE PERIOD"):
        run_continuous(small_network, small_world, tail_query(1.0))


def test_run_continuous_requires_positive_rounds(small_network, small_world):
    query = parse_query(
        "SELECT A.temp FROM sensors A, sensors B WHERE A.temp - B.temp > 1 SAMPLE PERIOD 5"
    )
    with pytest.raises(ValueError):
        run_continuous(small_network, small_world, query, executions=0)


class TestFailureRecovery:
    @pytest.fixture()
    def fresh_network(self):
        config = DeploymentConfig(node_count=150, area_side_m=332.0, seed=21)
        return deploy_uniform(config)

    @pytest.fixture()
    def fresh_world(self, fresh_network):
        return SensorWorld.homogeneous(fresh_network, seed=21, area_side_m=332.0)

    def test_no_failures_zero_retries(self, fresh_network, fresh_world, tail_query):
        outcome = run_with_failures(fresh_network, fresh_world, tail_query(1.0))
        assert outcome.details["retries"] == 0.0

    def test_node_failure_triggers_reexecution(self, fresh_network, fresh_world, tail_query):
        victim = fresh_network.sensor_node_ids[10]
        faults = [Fault(time_s=0.0, kind=NODE_CRASH, node_a=victim)]
        outcome = run_with_failures(
            fresh_network, fresh_world, tail_query(1.0), faults=faults
        )
        assert outcome.details["retries"] == 1.0
        # The dead node contributes nothing.
        assert victim not in outcome.result.all_contributing_nodes()

    def test_link_failure_triggers_reexecution(self, fresh_network, fresh_world, tail_query):
        node = fresh_network.sensor_node_ids[0]
        neighbour = sorted(fresh_network.neighbours(node))[0]
        faults = [Fault(time_s=0.0, kind=LINK_DROP, node_a=node, node_b=neighbour)]
        outcome = run_with_failures(
            fresh_network, fresh_world, tail_query(1.0), faults=faults
        )
        assert outcome.details["retries"] == 1.0

    def test_result_still_exact_after_recovery(self, fresh_network, fresh_world, tail_query):
        victim = fresh_network.sensor_node_ids[5]
        faults = [Fault(time_s=0.0, kind=NODE_CRASH, node_a=victim)]
        query = tail_query(1.0)
        sens = run_with_failures(
            fresh_network, fresh_world, query, "sens-join", faults=faults
        )
        external = run_snapshot(
            fresh_network, fresh_world, query, "external-join",
            snapshot_time=1.0,  # same snapshot time as the retry
        )
        assert sens.result.signature() == external.result.signature()

    def test_failures_exhaust_retries(self, fresh_network, fresh_world, tail_query):
        faults = [
            Fault(time_s=float(i), kind=NODE_CRASH, node_a=fresh_network.sensor_node_ids[i])
            for i in range(3)
        ]
        with pytest.raises(ExecutionAborted):
            run_with_failures(
                fresh_network, fresh_world, tail_query(1.0),
                faults=faults, max_retries=1,
            )

    def test_faults_strike_the_attempt_of_their_time_slot(
        self, fresh_network, fresh_world, tail_query
    ):
        # Attempt k runs at simulated time k: the crash at 0.2 s aborts
        # attempt 0, the one at 1.5 s attempt 1, and attempt 2 completes.
        faults = [
            Fault(time_s=0.2, kind=NODE_CRASH, node_a=fresh_network.sensor_node_ids[3]),
            Fault(time_s=1.5, kind=NODE_CRASH, node_a=fresh_network.sensor_node_ids[7]),
        ]
        outcome = run_with_failures(
            fresh_network, fresh_world, tail_query(1.0), faults=faults
        )
        assert outcome.details["retries"] == 2.0

    def test_loss_burst_rejected(self, fresh_network, fresh_world, tail_query):
        burst = Fault(time_s=0.0, kind=LOSS_BURST, duration_s=0.5, loss_rate=0.3)
        with pytest.raises(ValueError, match="loss bursts"):
            run_with_failures(
                fresh_network, fresh_world, tail_query(1.0), faults=[burst]
            )

    def test_aborted_attempt_cost_is_charged(self, fresh_network, fresh_world, tail_query):
        victim = fresh_network.sensor_node_ids[10]
        faults = [Fault(time_s=0.0, kind=NODE_CRASH, node_a=victim)]
        outcome = run_with_failures(
            fresh_network, fresh_world, tail_query(1.0), faults=faults
        )
        # The aborted attempt ran to completion before the failure voided
        # it, so its full cost appears in the details and in the ledgers.
        assert outcome.details["aborted_tx_packets"] > 0
        assert outcome.details["aborted_energy"] > 0.0
        assert fresh_network.total_energy() >= outcome.details["aborted_energy"]
        assert outcome.stats.total_tx_packets() > outcome.details["aborted_tx_packets"]

    def test_no_failures_no_aborted_cost(self, fresh_network, fresh_world, tail_query):
        outcome = run_with_failures(fresh_network, fresh_world, tail_query(1.0))
        assert outcome.details["aborted_tx_packets"] == 0.0
        assert outcome.details["aborted_energy"] == 0.0
