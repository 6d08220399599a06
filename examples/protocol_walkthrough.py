"""A microscope on SENS-Join: trace every protocol decision on a tiny grid.

Runs the protocol on a 5x5 grid network (hand-checkable topology) with the
protocol tracer attached and prints the decisions in simulated-time order:
which leaves Treecut removed, who became a proxy, how the filter was pruned
on its way down, and who shipped a complete tuple at the end.  Then the
same story as numbers: the per-phase cost and the final result.
"""

from repro.data.relations import SensorWorld
from repro.joins.runner import run_snapshot
from repro.obs.telemetry import Telemetry
from repro.query.parser import parse_query
from repro.routing.ctp import build_tree
from repro.sim.network import DeploymentConfig, deploy_grid
from repro.sim.trace import ListTracer

QUERY = """
    SELECT A.hum, B.hum
    FROM sensors A, sensors B
    WHERE A.temp - B.temp > 1.2
    ONCE
"""


def main() -> None:
    config = DeploymentConfig(node_count=25, area_side_m=200.0, radio_range_m=50.0, seed=2)
    network = deploy_grid(config)
    world = SensorWorld.homogeneous(network, seed=2, area_side_m=200.0, length_scale=80.0)
    tree = build_tree(network, tie_break="lowest_id")
    query = parse_query(QUERY, catalog=world.catalog)

    print("5x5 grid, 40 m pitch; routing tree (node: parent):")
    parents = tree.as_parent_map()
    for node_id in sorted(parents):
        print(f"  {node_id:2d} -> {parents[node_id]:2d} (depth {tree.depth(node_id)})")

    tracer = ListTracer()
    outcome = run_snapshot(
        network, world, query, "sens-join", tree=tree,
        telemetry=Telemetry(tracer=tracer),
    )

    print("\nprotocol trace (simulated time order):")
    for event in sorted(tracer.events, key=lambda e: (e.time, e.node_id)):
        print("  ", event)

    print("\nper-phase transmissions:", outcome.per_phase_transmissions())
    print("details:", {k: round(v, 2) for k, v in sorted(outcome.details.items())})
    print(f"result: {outcome.result.row_count} row(s), "
          f"{len(outcome.result.all_contributing_nodes())} contributing node(s)")


if __name__ == "__main__":
    main()
