"""Fault schedule construction, validation, and injection (§IV-F)."""

import pytest

from repro.errors import SimulationError
from repro.obs.telemetry import Telemetry, instrumented
from repro.sim.faults import (
    LINK_DROP,
    LOSS_BURST,
    NODE_CRASH,
    Fault,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    random_crash_plan,
)
from repro.sim.kernel import Environment
from repro.sim.network import DeploymentConfig, deploy_uniform
from repro.sim.node import BASE_STATION_ID
from repro.sim.trace import FAULT_INJECT, ListTracer


@pytest.fixture()
def network():
    config = DeploymentConfig(node_count=60, area_side_m=210.0, seed=2)
    return deploy_uniform(config)


class TestFaultValidation:
    def test_crash_needs_target(self):
        with pytest.raises(ValueError, match="target"):
            Fault(0.0, NODE_CRASH)

    def test_crash_rejects_base_station(self):
        with pytest.raises(ValueError, match="base station"):
            Fault(0.0, NODE_CRASH, node_a=BASE_STATION_ID)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(0.0, "meteor", node_a=1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Fault(-1.0, NODE_CRASH, node_a=1)

    def test_link_drop_needs_both_endpoints(self):
        with pytest.raises(ValueError, match="both"):
            Fault(0.0, LINK_DROP, node_a=1)
        with pytest.raises(ValueError):
            Fault(0.0, LINK_DROP, node_b=1)

    def test_link_drop_rejects_self_link(self):
        with pytest.raises(ValueError, match="itself"):
            Fault(0.0, LINK_DROP, node_a=3, node_b=3)

    def test_burst_needs_duration_and_rate(self):
        with pytest.raises(ValueError, match="duration"):
            Fault(0.0, LOSS_BURST, loss_rate=0.5)
        with pytest.raises(ValueError, match="loss_rate"):
            Fault(0.0, LOSS_BURST, duration_s=1.0, loss_rate=0.0)
        with pytest.raises(ValueError):
            Fault(0.0, LOSS_BURST, duration_s=1.0, loss_rate=1.5)


class TestFaultPlan:
    def test_sorted_by_time(self):
        plan = FaultPlan((
            Fault(2.0, NODE_CRASH, node_a=5),
            Fault(0.5, NODE_CRASH, node_a=3),
            Fault(1.0, LINK_DROP, node_a=1, node_b=2),
        ))
        assert [f.time_s for f in plan] == [0.5, 1.0, 2.0]

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.empty()
        assert len(FaultPlan.empty()) == 0
        assert FaultPlan((Fault(0.0, NODE_CRASH, node_a=1),))

    def test_crashed_nodes_in_injection_order(self):
        plan = FaultPlan((
            Fault(2.0, NODE_CRASH, node_a=5),
            Fault(1.0, LINK_DROP, node_a=1, node_b=2),
            Fault(0.5, NODE_CRASH, node_a=3),
        ))
        assert plan.crashed_nodes == (3, 5)


class TestRandomCrashPlan:
    def test_deterministic_for_seed(self):
        ids = list(range(1, 40))
        a = random_crash_plan(ids, 5, horizon_s=2.0, seed=9)
        b = random_crash_plan(ids, 5, horizon_s=2.0, seed=9)
        assert a == b
        c = random_crash_plan(ids, 5, horizon_s=2.0, seed=10)
        assert a != c

    def test_never_targets_base_station(self):
        ids = [BASE_STATION_ID] + list(range(1, 10))
        plan = random_crash_plan(ids, 9, seed=0)
        assert BASE_STATION_ID not in plan.crashed_nodes
        assert len(set(plan.crashed_nodes)) == 9

    def test_times_within_horizon(self):
        plan = random_crash_plan(range(1, 30), 10, horizon_s=0.25, seed=4)
        assert all(0.0 <= f.time_s <= 0.25 for f in plan)

    def test_too_many_crashes_rejected(self):
        with pytest.raises(ValueError, match="cannot crash"):
            random_crash_plan([1, 2, 3], 4)
        with pytest.raises(ValueError):
            random_crash_plan([1, 2, 3], -1)


class TestRetryPolicy:
    def test_schedule_multiplies_backoff_and_ends_with_none(self):
        policy = RetryPolicy(max_retries=2, backoff_s=0.05, backoff_factor=3.0)
        assert list(policy.schedule()) == [(0, 0.05), (1, 0.05 * 3.0), (2, None)]
        assert list(RetryPolicy(max_retries=0, backoff_s=1.0).schedule()) == [(0, None)]


class TestFaultInjector:
    def test_crash_applied_at_scheduled_time(self, network):
        victim = network.sensor_node_ids[7]
        killed = []
        env = Environment()
        tracer = ListTracer()
        injector = FaultInjector(
            env, network,
            FaultPlan((Fault(1.5, NODE_CRASH, node_a=victim),)),
            on_node_crash=killed.append,
        )
        injector.start()
        # The injector records into the run's telemetry on the channel.
        with instrumented(network, Telemetry(tracer=tracer)):
            env.run()
        assert env.now == 1.5
        assert not network.nodes[victim].alive
        assert killed == [victim]
        events = tracer.filter(kind=FAULT_INJECT)
        assert len(events) == 1
        assert events[0].node_id == victim
        assert events[0].detail["fault"] == NODE_CRASH

    def test_crash_on_dead_node_is_noop(self, network):
        victim = network.sensor_node_ids[7]
        network.fail_node(victim)
        env = Environment()
        killed = []
        injector = FaultInjector(
            env, network,
            FaultPlan((Fault(0.5, NODE_CRASH, node_a=victim),)),
            on_node_crash=killed.append,
        )
        injector.start()
        env.run()
        # Applied (recorded) but nothing to interrupt: the node was dead.
        assert killed == []
        assert len(injector.applied) == 1

    def test_crash_on_unknown_node_raises(self, network):
        env = Environment()
        injector = FaultInjector(
            env, network, FaultPlan((Fault(0.0, NODE_CRASH, node_a=99999),))
        )
        injector.start()
        with pytest.raises(SimulationError, match="unknown node"):
            env.run()

    def test_link_drop_severs_connectivity(self, network):
        node = network.sensor_node_ids[0]
        neighbour = sorted(network.neighbours(node))[0]
        env = Environment()
        injector = FaultInjector(
            env, network,
            FaultPlan((Fault(0.25, LINK_DROP, node_a=node, node_b=neighbour),)),
        )
        injector.start()
        env.run()
        assert neighbour not in network.neighbours(node)
        assert not network.link_up(node, neighbour)

    def test_burst_swaps_and_restores_loss_probability(self, network):
        channel = network.channel
        assert channel.loss_probability is None
        env = Environment()
        injector = FaultInjector(
            env, network,
            FaultPlan((
                Fault(1.0, LOSS_BURST, duration_s=2.0, loss_rate=0.4),
                Fault(2.0, LOSS_BURST, duration_s=0.5, loss_rate=0.7),
            )),
        )
        injector.start()
        env.run(until=1.5)
        assert channel.loss_probability is not None
        assert channel.loss_probability(1, 2) == 0.4
        env.run(until=2.2)
        # Overlapping bursts: the highest active rate floors every link.
        assert channel.loss_probability(1, 2) == 0.7
        env.run(until=2.8)
        assert channel.loss_probability(1, 2) == 0.4
        env.run()
        # Last burst expired: the original callable (None) is restored.
        assert channel.loss_probability is None
