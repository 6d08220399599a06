"""Network lifetime: per-node load, energy, and failure recovery (§VI/§IV-F).

Two studies on one deployment:

1. **Lifetime** — the nodes near the routing-tree root forward everyone
   else's traffic; when their batteries die, the network is cut off.  We run
   the same query under both join methods and compare the energy drawn by
   the most loaded node — the inverse of network lifetime.
2. **Failure recovery** — a relay node dies mid-query; the §IV-F strategy
   (let CTP repair the tree, then re-execute) completes the query over the
   surviving topology.
"""

from repro.data.relations import SensorWorld
from repro.joins.runner import run_snapshot, run_with_failures
from repro.query.parser import parse_query
from repro.routing.ctp import build_tree
from repro.sim.faults import NODE_CRASH, Fault
from repro.sim.network import DeploymentConfig, deploy_uniform

QUERY = """
    SELECT A.hum, A.pres, B.hum, B.pres
    FROM sensors A, sensors B
    WHERE A.temp - B.temp > 9.0
    ONCE
"""


def lifetime_study() -> None:
    side = 542.0
    config = DeploymentConfig(node_count=400, area_side_m=side, seed=5)
    network = deploy_uniform(config)
    world = SensorWorld.homogeneous(network, seed=5, area_side_m=side)
    query = parse_query(QUERY, catalog=world.catalog)

    print("=== Lifetime study (400 nodes) ===")
    results = {}
    for algorithm in ("external-join", "sens-join"):
        outcome = run_snapshot(network, world, query, algorithm, tree_seed=5)
        spent = network.energy_by_node()
        worst = max((spent[n], n) for n in network.sensor_node_ids)
        results[algorithm] = (outcome, worst)
        print(
            f"{algorithm:14s}: {outcome.total_transmissions:5d} tx total, "
            f"most loaded node {worst[1]} spent {worst[0]:8.0f} energy units, "
            f"max {outcome.max_node_transmissions()} packets"
        )
    ext_energy = results["external-join"][1][0]
    sens_energy = results["sens-join"][1][0]
    print(
        f"-> per-execution bottleneck energy reduced {ext_energy / sens_energy:.1f}x;"
        " with a fixed battery the network survives that many times more"
        " query executions.\n"
    )


def failure_study() -> None:
    side = 383.0
    config = DeploymentConfig(node_count=200, area_side_m=side, seed=13)
    network = deploy_uniform(config)
    world = SensorWorld.homogeneous(network, seed=13, area_side_m=side)
    query = parse_query(QUERY, catalog=world.catalog)

    # Pick a relay close to the base station (lots of descendants).
    tree = build_tree(network, seed=13)
    victim = max(network.sensor_node_ids, key=lambda n: tree.descendant_counts()[n])
    print("=== Failure recovery (Section IV-F) ===")
    print(f"killing relay node {victim} "
          f"({tree.descendant_counts()[victim]} descendants) during execution...")

    outcome = run_with_failures(
        network, world, query, "sens-join",
        faults=[Fault(time_s=0.5, kind=NODE_CRASH, node_a=victim)],
    )
    print(
        f"query completed after {int(outcome.details['retries'])} aborted "
        f"attempt(s): {outcome.result.match_count} matches, "
        f"{outcome.total_transmissions} transmissions over the repaired tree"
    )
    assert victim not in outcome.result.all_contributing_nodes()
    print(f"node {victim} no longer contributes (it is dead), "
          "all other readings were collected.")


if __name__ == "__main__":
    lifetime_study()
    failure_study()
