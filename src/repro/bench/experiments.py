"""Experiment functions: one per figure/table of the paper's §VI.

Every function builds (or reuses, via caching) a scenario at the paper's
node density, calibrates the workload's selectivity knob, runs the join
methods, and returns an :class:`~repro.bench.reporting.ExperimentSeries`
whose rows mirror the corresponding figure's data series.  The benchmark
suite (``benchmarks/``) wraps these functions with pytest-benchmark timers
and prints the rendered tables; EXPERIMENTS.md records paper-vs-measured.

Each function is written so every sweep iteration is independent of the
others: :mod:`repro.bench.harness` re-invokes the same function once per
sweep point (a *cell*) and concatenates the single-point series, which must
reproduce the serial output byte for byte.  Keep it that way — no state may
leak from one loop iteration into the next, and summary notes must be
recomputable from the emitted rows alone.

Scale note: absolute packet counts depend on the network size (default 600
nodes, ``REPRO_SCALE=paper`` for 1500) — the comparisons are ratios and
orderings, which is what the reproduction targets.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .. import constants
from ..joins.external import ExternalJoin
from ..joins.sensjoin import (
    PHASE_COLLECTION,
    PHASE_FILTER,
    PHASE_FINAL,
    SensJoin,
    SensJoinConfig,
)
from ..errors import ProtocolError
from .calibrate import measure_result_fraction
from .reporting import ExperimentSeries
from .workloads import (
    Scenario,
    build_scenario,
    calibrated_query,
    default_node_count,
    ratio_query_builder,
)

__all__ = [
    "RATIO_SETTINGS",
    "fig10_overall",
    "fig11_per_node",
    "fig12_ratio3",
    "fig13_ratio1",
    "fig14_network_size",
    "fig15_step_breakdown",
    "fig16_quadtree_influence",
    "compression_table",
    "packet_size_study",
    "response_time_study",
    "ablation_study",
    "continuous_study",
    "placement_study",
    "memory_study",
    "generality_study",
    "related_work_study",
    "variance_study",
    "resolution_study",
    "bs_position_study",
    "loss_study",
    "failure_study",
    "concurrency_study",
    "churn_study",
    "scale_study",
    "scale_shard",
    "scale_node_counts",
    "SCALE_LADDER",
]

#: The paper's two default join-attribute ratios (§VI "Default setting").
RATIO_SETTINGS = {
    "33": (1, 3),  # one join attribute, three attributes overall
    "60": (3, 5),  # three join attributes, five attributes overall
}

#: Result fractions swept in Fig. 10 (the paper plots roughly 0-80 %).
DEFAULT_FRACTIONS = (0.01, 0.03, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80)


def _ratio_counts(ratio: str) -> tuple[int, int]:
    try:
        return RATIO_SETTINGS[ratio]
    except KeyError:
        raise ValueError(f"ratio must be one of {sorted(RATIO_SETTINGS)}") from None


def _run_pair(scenario: Scenario, query, sens_config: Optional[SensJoinConfig] = None):
    """Run external + SENS-Join on the same snapshot; sanity-check equality."""
    external = scenario.run(query, ExternalJoin())
    sens = scenario.run(query, SensJoin(sens_config or SensJoinConfig()))
    if external.result.match_count != sens.result.match_count:
        raise ProtocolError(
            "SENS-Join and the external join disagree: "
            f"{sens.result.match_count} vs {external.result.match_count} matches"
        )
    return external, sens


# ---------------------------------------------------------------------------
# Fig. 10 — overall savings vs fraction of nodes in the result
# ---------------------------------------------------------------------------


def fig10_overall(
    ratio: str = "33",
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    node_count: Optional[int] = None,
    seed: int = 0,
) -> ExperimentSeries:
    """Total transmissions of both methods as the result fraction grows.

    Expected shape (paper Fig. 10): SENS-Join far below the external join at
    small fractions (savings up to ~80 % for the 33 % ratio, ~two-thirds for
    60 %), with a break-even once 60-80 % of the nodes join.
    """
    join_attrs, total_attrs = _ratio_counts(ratio)
    scenario = build_scenario(node_count, seed)
    series = ExperimentSeries(
        experiment=f"fig10_{ratio}",
        title=f"Overall transmissions vs result fraction ({ratio}% join attributes)",
        columns=["fraction", "achieved", "external_tx", "sens_tx", "savings_pct"],
    )
    for fraction in fractions:
        query = calibrated_query(scenario, join_attrs, total_attrs, fraction)
        achieved = measure_result_fraction(scenario.world, query)
        external, sens = _run_pair(scenario, query)
        savings = 100.0 * (1.0 - sens.total_transmissions / external.total_transmissions)
        series.add_row(
            fraction,
            round(achieved, 4),
            external.total_transmissions,
            sens.total_transmissions,
            round(savings, 1),
        )
    series.notes.append(f"{scenario.node_count} nodes, seed {seed}")
    return series


# ---------------------------------------------------------------------------
# Fig. 11 — per-node load vs number of descendants
# ---------------------------------------------------------------------------


def fig11_per_node(
    ratio: str = "33",
    fraction: float = constants.PAPER_RESULT_FRACTION,
    node_count: Optional[int] = None,
    seed: int = 0,
    bins: int = 8,
) -> ExperimentSeries:
    """Per-node transmissions against routing-tree descendants.

    The paper's headline: the most loaded nodes (many descendants, near the
    root — they determine network lifetime) are relieved by more than an
    order of magnitude at the 33 % ratio and by >75 % at 60 %.
    The scatter is summarised into descendant-count bins; the last row
    reports the most-loaded node of each method.
    """
    join_attrs, total_attrs = _ratio_counts(ratio)
    scenario = build_scenario(node_count, seed)
    query = calibrated_query(scenario, join_attrs, total_attrs, fraction)
    external, sens = _run_pair(scenario, query)

    descendants = scenario.tree.descendant_counts()
    ext_loads = {r.node_id: r.tx_packets for r in external.stats.per_node_loads(descendants)}
    sens_loads = {r.node_id: r.tx_packets for r in sens.stats.per_node_loads(descendants)}

    series = ExperimentSeries(
        experiment=f"fig11_{ratio}",
        title=f"Per-node transmissions vs descendants ({ratio}% join attributes)",
        columns=["descendants_bin", "nodes", "external_tx_mean", "sens_tx_mean", "reduction_x"],
    )
    max_desc = max(descendants.values()) or 1
    edges = [0] + [
        int(math.ceil(max_desc ** (i / bins))) for i in range(1, bins + 1)
    ]
    edges = sorted(set(edges))
    sensor_ids = [n for n in scenario.tree.node_ids if n != scenario.tree.root]
    for lo, hi in zip(edges, edges[1:]):
        members = [n for n in sensor_ids if lo <= descendants[n] < hi]
        if not members:
            continue
        ext_mean = sum(ext_loads.get(n, 0) for n in members) / len(members)
        sens_mean = sum(sens_loads.get(n, 0) for n in members) / len(members)
        reduction = round(ext_mean / sens_mean, 1) if sens_mean else "inf"
        series.add_row(
            f"[{lo},{hi})", len(members), round(ext_mean, 2), round(sens_mean, 2),
            reduction,
        )
    ext_max = max(ext_loads.get(n, 0) for n in sensor_ids)
    sens_max = max(sens_loads.get(n, 0) for n in sensor_ids)
    series.add_row(
        "most-loaded", 1, ext_max, sens_max,
        round(ext_max / sens_max, 1) if sens_max else "inf",
    )
    series.notes.append(
        f"most-loaded node relieved {ext_max}/{sens_max} = "
        f"{ext_max / max(sens_max, 1):.1f}x"
    )
    return series


# ---------------------------------------------------------------------------
# Figs. 12/13 — ratio of join attributes to attributes overall
# ---------------------------------------------------------------------------


def _ratio_sweep(
    experiment: str,
    title: str,
    join_attrs: int,
    totals: Sequence[int],
    fraction: float,
    node_count: Optional[int],
    seed: int,
) -> ExperimentSeries:
    scenario = build_scenario(node_count, seed)
    series = ExperimentSeries(
        experiment=experiment,
        title=title,
        columns=["total_attrs", "ratio_pct", "external_tx", "sens_tx", "savings_pct"],
    )
    for total in totals:
        query = calibrated_query(scenario, join_attrs, total, fraction)
        external, sens = _run_pair(scenario, query)
        savings = 100.0 * (1.0 - sens.total_transmissions / external.total_transmissions)
        series.add_row(
            total,
            round(100.0 * join_attrs / total, 1),
            external.total_transmissions,
            sens.total_transmissions,
            round(savings, 1),
        )
    series.notes.append(f"{scenario.node_count} nodes, {fraction:.0%} result fraction")
    return series


def fig12_ratio3(
    fraction: float = constants.PAPER_RESULT_FRACTION,
    node_count: Optional[int] = None,
    seed: int = 0,
    totals: Sequence[int] = (5, 4, 3),
) -> ExperimentSeries:
    """Three join attributes; attributes overall swept 5 -> 3 (Fig. 12).

    Savings grow as the ratio falls; even at the 100 % ratio SENS-Join still
    saves transmissions thanks to the quadtree representation.  ``totals``
    is the sweep axis (one value per row; exposed for the cell harness).
    """
    return _ratio_sweep(
        "fig12", "3 join attributes / x attributes overall", 3, tuple(totals),
        fraction, node_count, seed,
    )


def fig13_ratio1(
    fraction: float = constants.PAPER_RESULT_FRACTION,
    node_count: Optional[int] = None,
    seed: int = 0,
    totals: Sequence[int] = (1, 2, 3, 4, 5),
) -> ExperimentSeries:
    """One join attribute; attributes overall swept 1 -> 5 (Fig. 13)."""
    return _ratio_sweep(
        "fig13", "1 join attribute / x attributes overall", 1, tuple(totals),
        fraction, node_count, seed,
    )


# ---------------------------------------------------------------------------
# Fig. 14 — network size
# ---------------------------------------------------------------------------


def fig14_network_size(
    ratio: str = "33",
    fraction: float = constants.PAPER_RESULT_FRACTION,
    node_counts: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> ExperimentSeries:
    """Savings across network sizes at constant density (Fig. 14).

    The paper sweeps 1000-2500 nodes and finds the savings slightly
    superlinear in the network size (the Treecut start-up region matters
    less in larger networks).  The default sweep scales the paper's sizes by
    the bench scale factor.
    """
    join_attrs, total_attrs = _ratio_counts(ratio)
    if node_counts is None:
        scale = default_node_count() / constants.PAPER_NODE_COUNT
        node_counts = [int(round(n * scale)) for n in (1000, 1500, 2000, 2500)]
    series = ExperimentSeries(
        experiment="fig14",
        title="Influence of the network size (constant density)",
        columns=["nodes", "external_tx", "sens_tx", "savings_pct", "saved_tx"],
    )
    for count in node_counts:
        scenario = build_scenario(count, seed)
        query = calibrated_query(scenario, join_attrs, total_attrs, fraction)
        external, sens = _run_pair(scenario, query)
        saved = external.total_transmissions - sens.total_transmissions
        series.add_row(
            count,
            external.total_transmissions,
            sens.total_transmissions,
            round(100.0 * saved / external.total_transmissions, 1),
            saved,
        )
    return series


# ---------------------------------------------------------------------------
# Fig. 15 — cost breakdown over the protocol steps
# ---------------------------------------------------------------------------


def fig15_step_breakdown(
    ratio: str = "60",
    fractions: Sequence[float] = (0.03, 0.05, 0.09, 0.25),
    node_count: Optional[int] = None,
    seed: int = 0,
) -> ExperimentSeries:
    """Per-step transmissions of SENS-Join at several result fractions.

    Expected shape (Fig. 15): the Join-Attribute-Collection cost is constant
    across fractions (it depends only on the join attributes), forming a
    lower bound; Filter-Dissemination and Final-Result grow with the
    fraction.  The external join's total is included for reference.
    """
    join_attrs, total_attrs = _ratio_counts(ratio)
    scenario = build_scenario(node_count, seed)
    series = ExperimentSeries(
        experiment="fig15",
        title="SENS-Join cost per step vs result fraction",
        columns=[
            "fraction", "collection_tx", "filter_tx", "final_tx", "sens_total",
            "external_total",
        ],
    )
    for fraction in fractions:
        query = calibrated_query(scenario, join_attrs, total_attrs, fraction)
        external, sens = _run_pair(scenario, query)
        phases = sens.per_phase_transmissions()
        series.add_row(
            fraction,
            phases.get(PHASE_COLLECTION, 0),
            phases.get(PHASE_FILTER, 0),
            phases.get(PHASE_FINAL, 0),
            sens.total_transmissions,
            external.total_transmissions,
        )
    series.notes.append("collection cost should be ~constant across fractions")
    return series


# ---------------------------------------------------------------------------
# Fig. 16 + §VI-B — the compact representation's contribution
# ---------------------------------------------------------------------------


def fig16_quadtree_influence(
    fraction: float = 0.04,
    node_count: Optional[int] = None,
    seed: int = 0,
) -> ExperimentSeries:
    """External join vs SENS-Join without/with the quadtree (Fig. 16).

    The paper (4 % of nodes in the result, Q2-style query): sending only
    join attributes cuts the collection step by ~38 % vs the external join;
    the quadtree representation roughly halves the remaining volume.
    """
    scenario = build_scenario(node_count, seed)
    join_attrs, total_attrs = RATIO_SETTINGS["60"]
    query = calibrated_query(scenario, join_attrs, total_attrs, fraction)
    external = scenario.run(query, ExternalJoin())
    sens_raw = scenario.run(query, SensJoin(SensJoinConfig(representation="raw")))
    sens_quad = scenario.run(query, SensJoin(SensJoinConfig()))
    series = ExperimentSeries(
        experiment="fig16",
        title="Influence of the quadtree representation (collection step)",
        columns=["variant", "collection_tx", "total_tx"],
    )
    series.add_row("external-join", external.total_transmissions, external.total_transmissions)
    for label, outcome in (("sens-no-quad", sens_raw), ("sens-join", sens_quad)):
        phases = outcome.per_phase_transmissions()
        series.add_row(label, phases.get(PHASE_COLLECTION, 0), outcome.total_transmissions)
    return series


def compression_table(
    node_count: Optional[int] = None,
    seed: int = 0,
) -> ExperimentSeries:
    """General-purpose compressors vs the quadtree (§VI-B text table).

    The paper (1500 nodes, three join attributes: temperature + X/Y):
    no compression 5619 packets, bzip2 5666 (inflates!), zlib 4571, quadtree
    2762 (halves).  The expected ordering is
    ``quadtree < zlib <= none <= bzip2``.
    """
    scenario = build_scenario(node_count, seed)
    join_attrs, total_attrs = RATIO_SETTINGS["60"]
    query = calibrated_query(scenario, join_attrs, total_attrs, 0.05)
    series = ExperimentSeries(
        experiment="compression_table",
        title="Join-Attribute-Collection cost under different representations",
        columns=["representation", "collection_tx", "collection_bytes"],
    )
    for representation in ("raw", "bzip2", "zlib", "quadtree"):
        outcome = scenario.run(
            query, SensJoin(SensJoinConfig(representation=representation))
        )
        label = "none" if representation == "raw" else representation
        phases = outcome.per_phase_transmissions()
        bytes_by_phase = {
            p: outcome.stats.total_tx_bytes([p]) for p in (PHASE_COLLECTION,)
        }
        series.add_row(
            label, phases.get(PHASE_COLLECTION, 0), bytes_by_phase[PHASE_COLLECTION]
        )
    series.notes.append("expected ordering: quadtree < zlib <= none <= bzip2")
    return series


# ---------------------------------------------------------------------------
# §VI-A packet size + §VII response time + ablations
# ---------------------------------------------------------------------------


def packet_size_study(
    ratio: str = "33",
    fraction: float = constants.PAPER_RESULT_FRACTION,
    packet_sizes: Sequence[int] = (
        constants.DEFAULT_MAX_PACKET_BYTES,
        constants.LARGE_MAX_PACKET_BYTES,
    ),
    node_count: Optional[int] = None,
    seed: int = 0,
) -> ExperimentSeries:
    """Influence of the maximum packet size (§VI-A, last paragraph).

    With larger packets the external join gains more in overall packet
    count (it ships more data per packet), but the most loaded nodes remain
    roughly an order of magnitude better off under SENS-Join.
    """
    join_attrs, total_attrs = _ratio_counts(ratio)
    series = ExperimentSeries(
        experiment="packet_size",
        title="Influence of the maximum packet size",
        columns=[
            "packet_bytes", "external_tx", "sens_tx", "savings_pct",
            "external_max_node", "sens_max_node", "max_node_reduction_x",
        ],
    )
    for packet_bytes in packet_sizes:
        scenario = build_scenario(node_count, seed, packet_bytes=packet_bytes)
        query = calibrated_query(scenario, join_attrs, total_attrs, fraction)
        external, sens = _run_pair(scenario, query)
        ext_max = external.max_node_transmissions()
        sens_max = sens.max_node_transmissions()
        series.add_row(
            packet_bytes,
            external.total_transmissions,
            sens.total_transmissions,
            round(100.0 * (1 - sens.total_transmissions / external.total_transmissions), 1),
            ext_max,
            sens_max,
            round(ext_max / max(sens_max, 1), 1),
        )
    return series


def response_time_study(
    ratio: str = "33",
    fractions: Sequence[float] = (0.05, 0.20, 0.40),
    node_count: Optional[int] = None,
    seed: int = 0,
) -> ExperimentSeries:
    """Response time tradeoff (§VII).

    SENS-Join adds the pre-computation round-trips, but its response time
    "is upper bounded by at most twice the duration of the external join".
    """
    join_attrs, total_attrs = _ratio_counts(ratio)
    scenario = build_scenario(node_count, seed)
    series = ExperimentSeries(
        experiment="response_time",
        title="Response time: SENS-Join vs external join",
        columns=["fraction", "external_s", "sens_s", "ratio"],
    )
    for fraction in fractions:
        query = calibrated_query(scenario, join_attrs, total_attrs, fraction)
        external, sens = _run_pair(scenario, query)
        series.add_row(
            fraction,
            round(external.response_time_s, 3),
            round(sens.response_time_s, 3),
            round(sens.response_time_s / max(external.response_time_s, 1e-9), 2),
        )
    series.notes.append("paper bound: ratio <= 2")
    return series


def ablation_study(
    ratio: str = "33",
    fraction: float = constants.PAPER_RESULT_FRACTION,
    node_count: Optional[int] = None,
    seed: int = 0,
) -> ExperimentSeries:
    """Ablate the paper's design choices (DESIGN.md experiment A1).

    Variants: Treecut disabled (``dmax=0``), Selective Filter Forwarding
    disabled (``limit=0``), raw representation, and a D_max sweep around the
    paper's 30 bytes.
    """
    join_attrs, total_attrs = _ratio_counts(ratio)
    scenario = build_scenario(node_count, seed)
    query = calibrated_query(scenario, join_attrs, total_attrs, fraction)
    external = scenario.run(query, ExternalJoin())
    variants = [
        ("default(dmax=30)", SensJoinConfig()),
        ("no-treecut", SensJoinConfig(dmax_bytes=0)),
        ("no-selective-fwd", SensJoinConfig(subtree_limit_bytes=0)),
        ("raw-representation", SensJoinConfig(representation="raw")),
        ("dmax=10", SensJoinConfig(dmax_bytes=10)),
        ("dmax=20", SensJoinConfig(dmax_bytes=20)),
        ("dmax=40", SensJoinConfig(dmax_bytes=40)),
    ]
    series = ExperimentSeries(
        experiment="ablation",
        title="Ablation of SENS-Join design choices",
        columns=["variant", "collection_tx", "filter_tx", "final_tx", "total_tx"],
    )
    series.add_row("external-join", 0, 0, 0, external.total_transmissions)
    for label, config in variants:
        outcome = scenario.run(query, SensJoin(config))
        phases = outcome.per_phase_transmissions()
        series.add_row(
            label,
            phases.get(PHASE_COLLECTION, 0),
            phases.get(PHASE_FILTER, 0),
            phases.get(PHASE_FINAL, 0),
            outcome.total_transmissions,
        )
    return series


# ---------------------------------------------------------------------------
# E12 — continuous queries with temporal suppression (paper's future work)
# ---------------------------------------------------------------------------


def continuous_study(
    drift_rates: Sequence[float] = (0.0001, 0.0005, 0.002),
    rounds: int = 6,
    node_count: Optional[int] = None,
    seed: int = 9,
    fraction: float = constants.PAPER_RESULT_FRACTION,
):
    """Per-round cost of the incremental executor vs repeated snapshots.

    Implements §VIII's future work ("exploiting temporal correlations"):
    under slow drift the quantized join-attribute points rarely change, so
    delta collection and filter-change suppression shrink the steady-state
    pre-computation.  The first round always pays the full snapshot cost.
    """
    from ..data.relations import SensorWorld
    from ..joins.incremental import IncrementalSensJoin
    from ..joins.runner import run_snapshot
    from ..query.parser import parse_query
    from ..query.query import JoinQuery, Once
    from ..sim.network import DeploymentConfig, deploy_uniform
    from .calibrate import calibrate_threshold

    if node_count is None:
        node_count = min(default_node_count(), 600)
    config = DeploymentConfig().scaled(node_count)
    config = DeploymentConfig(
        node_count=config.node_count, area_side_m=config.area_side_m, seed=seed
    )
    network = deploy_uniform(config)
    series = ExperimentSeries(
        experiment="continuous",
        title="Continuous queries: incremental vs snapshot SENS-Join (per round)",
        columns=[
            "drift_rate", "round0_tx", "steady_tx", "snapshot_sens_tx",
            "snapshot_external_tx", "steady_saving_pct",
        ],
    )
    for drift in drift_rates:
        world = SensorWorld.homogeneous(
            network, seed=seed, area_side_m=config.area_side_m, drift_rate=drift
        )

        def query_for(threshold: float):
            return parse_query(
                "SELECT A.hum, B.hum FROM sensors A, sensors B "
                f"WHERE A.temp - B.temp > {threshold:.9f} ONCE"
            )

        threshold, _ = calibrate_threshold(
            world, query_for, fraction, 0.0, 40.0, increasing=False
        )
        continuous = parse_query(
            "SELECT A.hum, B.hum FROM sensors A, sensors B "
            f"WHERE A.temp - B.temp > {threshold:.9f} SAMPLE PERIOD 60"
        )
        executor = IncrementalSensJoin(network, world, continuous, tree_seed=seed)
        per_round = [executor.run_round(r * 60.0).total_transmissions for r in range(rounds)]
        steady = sum(per_round[1:]) / max(len(per_round) - 1, 1)
        once = JoinQuery(continuous.select, continuous.relations, continuous.where, Once())
        snapshot = run_snapshot(network, world, once, "sens-join", tree_seed=seed)
        external = run_snapshot(network, world, once, "external-join", tree_seed=seed)
        saving = 100.0 * (1.0 - steady / snapshot.total_transmissions)
        series.add_row(
            drift,
            per_round[0],
            round(steady, 1),
            snapshot.total_transmissions,
            external.total_transmissions,
            round(saving, 1),
        )
    series.notes.append("steady = mean of rounds 1..n (round 0 pays full cost)")
    return series


# ---------------------------------------------------------------------------
# §IV-E — join-location analysis (the design-decision check)
# ---------------------------------------------------------------------------


def placement_study(
    ratio: str = "33",
    fractions: Sequence[float] = (0.05, 0.20, 0.60),
    node_count: Optional[int] = None,
    seed: int = 0,
):
    """Validate §IV-E: post-filtering, the base station is the right place.

    For each result fraction we take the *filtered* input (the nodes the
    join filter keeps) and the actual result size, and ask the byte-hops
    model of :mod:`repro.joins.placement` whether any in-network location
    beats the base station.  The paper's claim: with the filter applied the
    join's output exceeds its input, so shipping the result is never worth
    it — "For the final result, the base station is the optimal join
    location".
    """
    from ..joins.placement import analyze_join_location
    from ..joins.sensjoin import SensJoin

    join_attrs, total_attrs = _ratio_counts(ratio)
    scenario = build_scenario(node_count, seed)
    fmt_bytes = 2 * total_attrs
    series = ExperimentSeries(
        experiment="placement",
        title="Join location after filtering: base station vs best in-network",
        columns=[
            "fraction", "filtered_inputs", "result_rows", "bs_byte_hops",
            "best_in_network_byte_hops", "bs_optimal",
        ],
    )
    for fraction in fractions:
        query = calibrated_query(scenario, join_attrs, total_attrs, fraction)
        outcome = scenario.run(query, SensJoin())
        contributors = sorted(
            {record for record in outcome.result.all_contributing_nodes()}
        )
        report = analyze_join_location(
            scenario.network,
            contributors,
            tuple_bytes=fmt_bytes,
            result_rows=outcome.result.match_count,
            result_row_bytes=2 * len(query.select),
        )
        series.add_row(
            fraction,
            len(contributors),
            outcome.result.match_count,
            round(report.base_station.total, 0),
            round(report.best_in_network.total, 0),
            str(report.base_station_is_optimal),
        )
    series.notes.append(
        "post-filter result rows >= inputs, so shipping the result loses"
    )
    return series


# ---------------------------------------------------------------------------
# §IV-C — Selective Filter Forwarding memory audit
# ---------------------------------------------------------------------------


def memory_study(
    ratio: str = "60",
    fraction: float = constants.PAPER_RESULT_FRACTION,
    node_count: Optional[int] = None,
    seed: int = 0,
    depth_buckets: int = 5,
):
    """Audit the SubtreeJoinAtts memory against the paper's §IV-C claims.

    The paper bounds Selective Filter Forwarding's memory with a 500-byte
    cap and argues "the amount of data exceeds a few hundred bytes close to
    the root only" while "the mechanism has its main benefit towards the
    leaves".  This experiment records every node's stored subtree size via
    the protocol tracer and buckets it by tree depth.
    """
    from ..obs.telemetry import Telemetry
    from ..sim.trace import ListTracer

    join_attrs, total_attrs = _ratio_counts(ratio)
    scenario = build_scenario(node_count, seed)
    query = calibrated_query(scenario, join_attrs, total_attrs, fraction)
    tracer = ListTracer()
    scenario.run(query, "sens-join", telemetry=Telemetry(tracer=tracer))

    stored = tracer.filter(kind="subtree-store")
    overflow = tracer.filter(kind="subtree-overflow")
    depth_of = {n: scenario.tree.depth(n) for n in scenario.tree.node_ids}
    height = scenario.tree.height or 1

    series = ExperimentSeries(
        experiment="memory",
        title="Selective Filter Forwarding memory by tree depth",
        columns=["depth_bucket", "nodes_storing", "mean_bytes", "max_bytes", "overflows"],
    )
    bucket_span = max(1, (height + depth_buckets - 1) // depth_buckets)
    for bucket_start in range(0, height + 1, bucket_span):
        bucket_end = bucket_start + bucket_span
        in_bucket = [
            event for event in stored
            if bucket_start <= depth_of[event.node_id] < bucket_end
        ]
        over_bucket = [
            event for event in overflow
            if bucket_start <= depth_of[event.node_id] < bucket_end
        ]
        if not in_bucket and not over_bucket:
            continue
        sizes = [event.detail["bytes"] for event in in_bucket]
        series.add_row(
            f"[{bucket_start},{bucket_end})",
            len(in_bucket),
            round(sum(sizes) / len(sizes), 1) if sizes else 0,
            max(sizes) if sizes else 0,
            len(over_bucket),
        )
    series.notes.append(
        f"500-byte cap exceeded by {len(overflow)} node(s) network-wide "
        "(expected: only close to the root)"
    )
    return series


# ---------------------------------------------------------------------------
# Requirements 1 & 2 — the "general-purpose" battery
# ---------------------------------------------------------------------------


def generality_study(
    node_count: Optional[int] = None,
    seed: int = 0,
):
    """Exercise the paper's Requirements 1 and 2 across query shapes.

    Requirement 1: "any number and any kind of join conditions and join
    attributes"; Requirement 2: "arbitrary placements of the tuples".  Each
    row runs one query shape through SENS-Join and the external join,
    asserts identical results, and reports both costs.  Shapes: theta,
    similarity + distance, disjunction, aggregate, three-way self-join, and
    a heterogeneous two-relation join.
    """
    from ..data.relations import SensorWorld
    from ..joins.external import ExternalJoin
    from ..joins.sensjoin import SensJoin
    from ..joins.runner import run_snapshot
    from ..query.parser import parse_query

    scenario = build_scenario(node_count, seed)
    network, world, tree = scenario.network, scenario.world, scenario.tree

    shapes = [
        ("theta", "SELECT A.hum, B.hum FROM sensors A, sensors B "
                  "WHERE A.temp - B.temp > 21.0 ONCE"),
        ("similarity+distance",
         "SELECT A.hum, B.hum FROM sensors A, sensors B "
         "WHERE A.temp - B.temp > 20.0 AND distance(A.x, A.y, B.x, B.y) > 200 ONCE"),
        ("disjunction",
         "SELECT A.hum, B.hum FROM sensors A, sensors B "
         "WHERE A.temp - B.temp > 21.0 OR B.light - A.light > 1300 ONCE"),
        ("aggregate",
         "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM sensors A, sensors B "
         "WHERE A.temp - B.temp > 20.0 ONCE"),
        ("three-way",
         "SELECT A.hum FROM sensors A, sensors B, sensors C "
         "WHERE A.temp - B.temp > 11.0 AND B.temp - C.temp > 11.0 ONCE"),
    ]

    series = ExperimentSeries(
        experiment="generality",
        title="Requirement 1/2 battery: arbitrary conditions and placements",
        columns=["shape", "matches", "external_tx", "sens_tx", "identical"],
    )
    for label, sql in shapes:
        query = parse_query(sql, catalog=world.catalog)
        external = run_snapshot(network, world, query, ExternalJoin(), tree=tree,
                                tree_seed=seed)
        sens = run_snapshot(network, world, query, SensJoin(), tree=tree,
                            tree_seed=seed)
        series.add_row(
            label,
            sens.result.match_count,
            external.total_transmissions,
            sens.total_transmissions,
            str(external.result.match_count == sens.result.match_count),
        )

    # Heterogeneous two-relation join over the same deployment.
    hetero_world = SensorWorld.two_relations(
        network, split=0.5, seed=seed, area_side_m=scenario.config.area_side_m
    )
    query = parse_query(
        "SELECT A.hum, B.hum FROM rel_a A, rel_b B WHERE A.temp - B.temp > 20.0 ONCE"
    )
    external = run_snapshot(network, hetero_world, query, ExternalJoin(), tree=tree,
                            tree_seed=seed)
    sens = run_snapshot(network, hetero_world, query, SensJoin(), tree=tree,
                        tree_seed=seed)
    series.add_row(
        "heterogeneous",
        sens.result.match_count,
        external.total_transmissions,
        sens.total_transmissions,
        str(external.result.match_count == sens.result.match_count),
    )
    # Restore the homogeneous membership for other users of the cached scenario.
    scenario.world._apply_memberships()
    return series


# ---------------------------------------------------------------------------
# §II — where the specialised related-work joins actually win
# ---------------------------------------------------------------------------


def related_work_study(seed: int = 3):
    """Reproduce §II's applicability claim for the specialised joins.

    "While their performance is very good when they are applicable, the
    underlying assumptions are strict": two small input regions close to
    each other, far from the base station, and a highly selective join.
    In that niche the mediated join beats the external join; on the paper's
    general workload it loses badly.  Both regimes in one table.
    """
    from ..data.relations import SensorWorld
    from ..joins.external import ExternalJoin
    from ..joins.mediated import MediatedJoin
    from ..joins.sensjoin import SensJoin
    from ..joins.runner import run_snapshot
    from ..query.parser import parse_query
    from ..sim.network import DeploymentConfig, deploy_uniform

    series = ExperimentSeries(
        experiment="related_work",
        title="Specialised joins: their niche vs the general setting",
        columns=["setting", "algorithm", "total_tx", "matches"],
    )

    # Niche setting: two small regions in the far corner of the area.
    config = DeploymentConfig(node_count=300, area_side_m=470.0, seed=seed)
    network = deploy_uniform(config)

    def region(node, cx, cy, radius=90.0):
        return (node.x - cx) ** 2 + (node.y - cy) ** 2 < radius**2

    members_a = [n for n in network.sensor_node_ids
                 if region(network.nodes[n], 120.0, 400.0)]
    members_b = [n for n in network.sensor_node_ids
                 if region(network.nodes[n], 330.0, 400.0)]
    world = SensorWorld(
        network,
        __import__("repro.data.relations", fromlist=["default_fields"]).default_fields(
            470.0, seed=seed
        ),
        relations={"rel_a": members_a, "rel_b": [n for n in members_b
                                                 if n not in set(members_a)]},
    )
    niche_query = parse_query(
        "SELECT A.hum, B.hum FROM rel_a A, rel_b B WHERE A.temp - B.temp > 4.5 ONCE"
    )
    for algorithm in (ExternalJoin(), SensJoin(), MediatedJoin()):
        outcome = run_snapshot(network, world, niche_query, algorithm, tree_seed=seed)
        series.add_row("niche(two-regions)", outcome.algorithm,
                       outcome.total_transmissions, outcome.result.match_count)

    # General setting: the paper's homogeneous self-join at 5%.
    scenario = build_scenario(300, seed)
    general_query = calibrated_query(scenario, 1, 3, 0.05)
    for algorithm in (ExternalJoin(), SensJoin(), MediatedJoin()):
        outcome = scenario.run(general_query, algorithm)
        series.add_row("general(self-join)", outcome.algorithm,
                       outcome.total_transmissions, outcome.result.match_count)
    series.notes.append(
        "niche: mediated competitive; general: external/SENS dominate"
    )
    return series


# ---------------------------------------------------------------------------
# Robustness — variance across deployment/data seeds
# ---------------------------------------------------------------------------


def variance_study(
    ratio: str = "33",
    fraction: float = constants.PAPER_RESULT_FRACTION,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    node_count: Optional[int] = None,
):
    """The headline comparison across independent deployments.

    The paper reports single simulation runs; this study repeats the
    default-setting comparison over several deployment/data seeds and
    reports the spread — the savings must not be an artefact of one
    topology.  The mean/spread note is computed from the *rounded* per-row
    savings so the parallel harness can recompute it from rows alone.
    """
    join_attrs, total_attrs = _ratio_counts(ratio)
    series = ExperimentSeries(
        experiment="variance",
        title=f"Savings across seeds ({ratio}% ratio, {fraction:.0%} fraction)",
        columns=["seed", "external_tx", "sens_tx", "savings_pct", "max_node_reduction_x"],
    )
    savings_values = []
    for seed in seeds:
        scenario = build_scenario(node_count, seed)
        query = calibrated_query(scenario, join_attrs, total_attrs, fraction)
        external, sens = _run_pair(scenario, query)
        savings = 100.0 * (1.0 - sens.total_transmissions / external.total_transmissions)
        savings_values.append(round(savings, 1))
        reduction = external.max_node_transmissions() / max(sens.max_node_transmissions(), 1)
        series.add_row(
            seed,
            external.total_transmissions,
            sens.total_transmissions,
            round(savings, 1),
            round(reduction, 1),
        )
    series.notes.append(variance_summary_note(savings_values))
    return series


def variance_summary_note(savings_values: Sequence[float]) -> str:
    """The mean/spread note of :func:`variance_study`.

    Shared with :mod:`repro.bench.harness`, which must regenerate the note
    from concatenated per-seed rows when the study runs as parallel cells.
    """
    mean = sum(savings_values) / len(savings_values)
    spread = (
        sum((value - mean) ** 2 for value in savings_values) / len(savings_values)
    ) ** 0.5
    return (
        f"savings mean {mean:.1f}% +- {spread:.1f}% over "
        f"{len(savings_values)} seeds"
    )


# ---------------------------------------------------------------------------
# §V-B — sensitivity to the quantization resolution
# ---------------------------------------------------------------------------


def resolution_study(
    resolutions: Sequence[float] = (0.02, 0.05, 0.1, 0.5, 1.0, 2.0, 4.0),
    fraction: float = constants.PAPER_RESULT_FRACTION,
    node_count: Optional[int] = None,
    seed: int = 0,
):
    """Sweep the temperature quantization resolution (§V-B).

    The paper: "the performance of SENS-Join is insensitive to the
    resolution used for the pre-computation as long as it is not too
    coarse" — finer steps cost more bits per point, coarser steps cost
    false positives (footnote 2), and 0.1 °C sits on a wide plateau.
    The result stays exact at every resolution (conservative evaluation).
    """
    from ..data.relations import SensorWorld, default_fields
    from ..data.sensors import SensorCatalog, SensorSpec, standard_catalog
    from ..joins.external import ExternalJoin
    from ..joins.sensjoin import SensJoin
    from ..joins.runner import run_snapshot

    scenario = build_scenario(node_count, seed)
    network = scenario.network
    side = scenario.config.area_side_m
    query = calibrated_query(scenario, 1, 3, fraction)

    series = ExperimentSeries(
        experiment="resolution",
        title="Quantization resolution sweep (temperature)",
        columns=[
            "resolution_degC", "temp_bits", "sens_tx", "false_positives",
            "external_tx", "identical",
        ],
    )
    for resolution in resolutions:
        specs = []
        for spec in standard_catalog(side):
            if spec.name == "temp":
                specs.append(
                    SensorSpec("temp", spec.unit, spec.min_value, spec.max_value,
                               resolution)
                )
            else:
                specs.append(spec)
        catalog = SensorCatalog(specs)
        world = SensorWorld(
            network,
            default_fields(side, seed=seed),
            catalog=catalog,
        )
        external = run_snapshot(network, world, query, ExternalJoin(),
                                tree=scenario.tree, tree_seed=seed)
        sens = run_snapshot(network, world, query, SensJoin(),
                            tree=scenario.tree, tree_seed=seed)
        from ..codec.quantize import QuantizedDimension

        bits = QuantizedDimension.from_spec(catalog["temp"]).bits
        series.add_row(
            resolution,
            bits,
            sens.total_transmissions,
            int(sens.details["false_positives"]),
            external.total_transmissions,
            str(external.result.match_count == sens.result.match_count),
        )
    # Restore the cached scenario's own world/membership.
    scenario.world._apply_memberships()
    series.notes.append(
        "expect a plateau around 0.1 degC; false positives rise once the "
        "resolution exceeds the calibrated condition's scale"
    )
    return series


# ---------------------------------------------------------------------------
# §IV-F — lossy links: retransmission cost across join methods
# ---------------------------------------------------------------------------


def loss_study(
    loss_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3),
    fraction: float = constants.PAPER_RESULT_FRACTION,
    node_count: Optional[int] = None,
    seed: int = 0,
) -> ExperimentSeries:
    """Every join method under increasing worst-link packet loss (§IV-F).

    The link layer absorbs loss through bounded ARQ, so every method still
    returns its exact result; what changes is the retransmission load on top
    of the paper's transmission metric.  The first transmissions themselves
    are loss-invariant (same data, same tree) and the ARQ draws share one
    seeded stream, so ``retransmissions`` grows monotonically with the loss
    rate per (algorithm, phase).
    """
    from ..joins.mediated import MediatedJoin
    from ..joins.semijoin import SemiJoinBroadcast

    series = ExperimentSeries(
        experiment="loss",
        title="Join methods under lossy links with link-layer ARQ",
        columns=[
            "loss_rate", "algorithm", "total_tx", "retransmissions",
            "retx_overhead_pct", "matches",
        ],
    )
    reference_matches: Optional[int] = None
    for loss_rate in loss_rates:
        scenario = build_scenario(node_count, seed, loss_rate=loss_rate)
        query = calibrated_query(scenario, *RATIO_SETTINGS["33"], fraction)
        for algorithm in (ExternalJoin(), SensJoin(), SemiJoinBroadcast(), MediatedJoin()):
            outcome = scenario.run(query, algorithm)
            if algorithm.name == "sens-join":
                if reference_matches is None:
                    reference_matches = outcome.result.match_count
                elif outcome.result.match_count != reference_matches:
                    raise ProtocolError(
                        "SENS-Join result changed under loss: "
                        f"{outcome.result.match_count} vs {reference_matches} matches"
                    )
            retx = outcome.total_retransmissions
            series.add_row(
                loss_rate,
                outcome.algorithm,
                outcome.total_transmissions,
                retx,
                round(100.0 * retx / max(outcome.total_transmissions, 1), 1),
                outcome.result.match_count,
            )
    series.notes.append(
        "results are exact at every loss rate; retransmissions grow "
        "monotonically with the loss rate per algorithm"
    )
    return series


# ---------------------------------------------------------------------------
# Robustness — base-station placement
# ---------------------------------------------------------------------------


def bs_position_study(
    fraction: float = constants.PAPER_RESULT_FRACTION,
    node_count: Optional[int] = None,
    seed: int = 0,
):
    """The headline comparison for different base-station placements.

    The paper does not pin the access point's position; the savings should
    not depend on it.  Edge-centre (our default, deepest tree), corner
    (deeper still) and area-centre (shallowest) are compared.
    """
    from ..data.relations import SensorWorld
    from ..joins.external import ExternalJoin
    from ..joins.sensjoin import SensJoin
    from ..joins.runner import run_snapshot
    from ..routing.ctp import build_tree
    from ..sim.network import DeploymentConfig, deploy_uniform
    from ..sim.radio import PacketFormat
    from .calibrate import calibrate_threshold

    if node_count is None:
        node_count = default_node_count()
    base = DeploymentConfig().scaled(node_count)
    side = base.area_side_m
    placements = [
        ("edge-centre", (side / 2.0, 0.0)),
        ("corner", (0.0, 0.0)),
        ("area-centre", (side / 2.0, side / 2.0)),
    ]
    series = ExperimentSeries(
        experiment="bs_position",
        title="Savings vs base-station placement",
        columns=["placement", "tree_height", "external_tx", "sens_tx", "savings_pct"],
    )
    builder = ratio_query_builder(1, 3)
    for label, position in placements:
        config = DeploymentConfig(
            node_count=node_count, area_side_m=side, seed=seed,
            base_station_position=position,
        )
        network = deploy_uniform(config, packet_format=PacketFormat())
        world = SensorWorld.homogeneous(network, seed=seed, area_side_m=side)
        tree = build_tree(network, seed=seed)
        threshold, _ = calibrate_threshold(
            world, builder, fraction, 0.0, 40.0, increasing=False
        )
        query = builder(threshold)
        external = run_snapshot(network, world, query, ExternalJoin(), tree=tree,
                                tree_seed=seed)
        sens = run_snapshot(network, world, query, SensJoin(), tree=tree,
                            tree_seed=seed)
        savings = 100.0 * (1.0 - sens.total_transmissions / external.total_transmissions)
        series.add_row(
            label, tree.height, external.total_transmissions,
            sens.total_transmissions, round(savings, 1),
        )
    series.notes.append("SENS-Join wins for every placement; deeper trees save more")
    return series


# ---------------------------------------------------------------------------
# Robustness — in-flight faults, recovery and completeness (§IV-F)
# ---------------------------------------------------------------------------


def failure_study(
    crash_fractions: Sequence[float] = (0.0, 0.02, 0.05, 0.1),
    fraction: float = constants.PAPER_RESULT_FRACTION,
    node_count: Optional[int] = None,
    seed: int = 0,
    max_retries: int = 6,
) -> ExperimentSeries:
    """Mid-query node crashes: detection, repair, cost and completeness.

    For each crash fraction a deterministic :class:`FaultPlan` kills that
    share of the nodes at random times during the first execution.  Three
    recovery models are compared on total cost (including every aborted
    attempt), retries and recall against the pre-failure oracle:

    * ``sens-join[des]`` — the in-flight §IV-F loop: the DES engine detects
      the stall at the base station, repairs the tree mid-query, backs off
      and re-executes on the same kernel timeline;
    * ``sens-join`` / ``external-join`` — the abstract model of
      :func:`~repro.joins.runner.run_with_failures` replaying the same plan:
      every crash falls in the first attempt's one-second slot, so the whole
      batch voids that attempt (charged in full), then the repaired tree
      re-executes.

    Faults mutate the topology, so every row runs on a *fresh* deployment
    (the shared cached scenario is used read-only, for calibration).
    """
    from ..data.relations import SensorWorld
    from ..joins.base import ExecutionContext, oracle_result
    from ..joins.des_sensjoin import DesSensJoin, RecoveryPolicy
    from ..joins.runner import run_snapshot, run_with_failures
    from ..routing.ctp import build_tree
    from ..sim.faults import random_crash_plan

    if node_count is None:
        node_count = min(default_node_count(), 300)
    scenario = build_scenario(node_count, seed)
    query = calibrated_query(scenario, *RATIO_SETTINGS["33"], fraction)
    config = scenario.config

    def fresh_deployment():
        from ..sim.network import deploy_uniform

        network = deploy_uniform(config)
        world = SensorWorld.homogeneous(
            network, seed=seed, area_side_m=config.area_side_m
        )
        tree = build_tree(network, seed=seed)
        return network, world, tree

    series = ExperimentSeries(
        experiment="failure",
        title="Mid-query node crashes: repair cost and completeness (§IV-F)",
        columns=[
            "crash_fraction", "algorithm", "total_tx", "retries",
            "recall", "aborted_tx", "aborted_energy",
        ],
    )
    for crash_fraction in crash_fractions:
        network, world, tree = fresh_deployment()
        crash_count = int(round(crash_fraction * len(network.sensor_node_ids)))
        # Crash times are spread over the first execution's collection
        # phase, whose simulated span scales with the tree depth — so the
        # faults genuinely strike mid-query.
        horizon_s = tree.height * constants.DEFAULT_HOP_LATENCY_S
        plan = random_crash_plan(
            network.sensor_node_ids, crash_count, horizon_s=horizon_s, seed=seed
        )
        engine = DesSensJoin(
            fault_plan=plan,
            recovery=RecoveryPolicy(max_retries=max_retries),
            repair_seed=seed,
        )
        outcome = run_snapshot(
            network, world, query, engine, tree=tree, tree_seed=seed
        )
        series.add_row(
            crash_fraction,
            outcome.algorithm,
            outcome.total_transmissions,
            int(outcome.details.get("retries", 0)),
            round(outcome.details.get("recall", 1.0), 3),
            int(outcome.details.get("aborted_tx_packets", 0)),
            round(outcome.details.get("aborted_energy", 0.0), 1),
        )
        for algorithm in ("sens-join", "external-join"):
            network, world, tree = fresh_deployment()
            world.take_snapshot(0.0)
            oracle = oracle_result(
                ExecutionContext(network=network, tree=tree, world=world, query=query)
            )
            outcome = run_with_failures(
                network, world, query, algorithm,
                faults=plan, max_retries=max_retries, tree_seed=seed,
            )
            recall = (
                outcome.result.match_count / oracle.match_count
                if oracle.match_count
                else 1.0
            )
            series.add_row(
                crash_fraction,
                outcome.algorithm,
                outcome.total_transmissions,
                int(outcome.details.get("retries", 0)),
                round(recall, 3),
                int(outcome.details.get("aborted_tx_packets", 0)),
                round(outcome.details.get("aborted_energy", 0.0), 1),
            )
    series.notes.append(
        "aborted_tx/aborted_energy = cost of attempts that delivered "
        "nothing; recall is measured against the pre-failure oracle"
    )
    return series


def concurrency_study(
    workloads: Sequence[str] = ("poisson", "bursty"),
    concurrency_levels: Sequence[int] = (1, 2, 4, 8),
    query_count: int = 16,
    rate_hz: float = 2.0,
    node_count: Optional[int] = None,
    seed: int = 0,
) -> ExperimentSeries:
    """Concurrent multi-query broker: shared-work amortization vs serial.

    Beyond the paper (§III runs one query at a time): a seeded workload of
    ``query_count`` queries — Poisson or bursty arrivals, Zipf-popular over
    a pool of calibrated templates — is driven through the
    :class:`~repro.service.broker.QueryBroker` at each concurrency limit,
    and compared against the serial single-query reference (concurrency 1,
    sharing off) *on the same workload*.  Reported per sweep point: batch
    and share-group counts, piggybacked filter broadcasts, per-query
    latency percentiles, and the total energy/transmission savings.

    Every cell recomputes its own serial baseline so sweep points stay
    independent (the harness cell contract); the baseline work is cheap
    next to the sweep point itself and is what makes ``savings_pct``
    self-contained.  Each broker query's result set is checked against its
    serial counterpart — a mismatch raises, so the table can only ever
    show numbers from exact executions.
    """
    from ..service.broker import BrokerConfig, QueryBroker
    from ..service.workloads import WorkloadSpec, generate_workload

    if node_count is None:
        node_count = min(default_node_count(), 300)
    scenario = build_scenario(node_count, seed)
    # Template pool, hottest first: three selectivities of the 1/3-ratio
    # family (share one quantized domain -> filters compose) plus one
    # 3/5-ratio template (separate domain -> exercises piggybacking).  The
    # second family sits at Zipf rank 2 so realistic workloads actually
    # mix the two domains within a batch.
    templates = [
        calibrated_query(scenario, *RATIO_SETTINGS["33"], 0.05),
        calibrated_query(scenario, *RATIO_SETTINGS["60"], 0.05),
        calibrated_query(scenario, *RATIO_SETTINGS["33"], 0.02),
        calibrated_query(scenario, *RATIO_SETTINGS["33"], 0.08),
    ]

    series = ExperimentSeries(
        experiment="concurrency",
        title="Concurrent multi-query broker: work sharing vs serial execution",
        columns=[
            "workload", "concurrency", "queries", "batches", "share_groups",
            "piggybacked", "total_tx", "p50_latency_s", "p95_latency_s",
            "energy_savings_pct", "tx_savings_pct",
        ],
    )
    for workload in workloads:
        for concurrency in concurrency_levels:
            spec = WorkloadSpec(
                kind=workload, rate_hz=rate_hz, count=query_count, seed=seed
            )
            requests = generate_workload(spec, templates)
            serial = QueryBroker(
                scenario.network,
                scenario.world,
                BrokerConfig(concurrency=1, share_work=False),
                tree=scenario.tree,
            ).run(requests)
            broker = QueryBroker(
                scenario.network,
                scenario.world,
                BrokerConfig(concurrency=concurrency, share_work=True),
                tree=scenario.tree,
            ).run(requests)
            for ref, out in zip(serial.outcomes, broker.outcomes):
                if ref.result_set() != out.result_set():
                    raise ProtocolError(
                        f"shared execution changed query {ref.request.query_id}"
                        f" at concurrency {concurrency}"
                    )
            series.add_row(
                workload,
                concurrency,
                len(broker.outcomes),
                broker.batch_count,
                int(broker.details["share_groups"]),
                int(broker.details["piggybacked_broadcasts"]),
                broker.total_tx_packets,
                round(broker.latency_percentile(0.5), 3),
                round(broker.latency_percentile(0.95), 3),
                round(
                    100.0 * (1.0 - broker.total_energy_j / serial.total_energy_j), 1
                ),
                round(
                    100.0
                    * (1.0 - broker.total_tx_packets / max(serial.total_tx_packets, 1)),
                    1,
                ),
            )
    series.notes.append(
        "savings vs a serial single-query baseline on the same workload; "
        "every broker result set verified identical to its serial run"
    )
    return series


def churn_study(
    churn_rates: Sequence[float] = (0.0, 0.1, 0.2),
    concurrency_levels: Sequence[int] = (1, 8),
    query_count: int = 12,
    rate_hz: float = 2.0,
    node_count: Optional[int] = None,
    seed: int = 0,
    churn_horizon_s: float = 4.0,
) -> ExperimentSeries:
    """Broker degradation ladder under continuous churn: recall vs cost.

    Beyond the paper's one-shot fault batches (§IV-F): a seeded
    :class:`~repro.sim.faults.ChurnModel` keeps departing and rejoining
    nodes for the whole workload while the
    :class:`~repro.service.broker.QueryBroker` runs its resilient ladder
    (shared retries with backoff -> group split -> per-query fallback) and
    the routing tree self-heals incrementally via
    :func:`~repro.routing.ctp.reattach_tree`.  Reported per sweep point:
    terminal status counts, recall against the pre-churn lossless oracle,
    latency percentiles, and the repair overhead (beacons plus energy)
    recorded in the statistics store.

    Churn mutates the topology, so every cell runs on a *fresh*
    deployment (the cached scenario is used read-only, for calibration).
    Every cell — including ``churn_rate=0.0`` — runs with a
    :class:`~repro.service.broker.DeadlinePolicy` so the resilient code
    path and the report's detail keys are uniform across rows; there is
    deliberately *no* serial cross-check here, because churn legitimately
    changes result sets (that property is checked by the zero-churn
    byte-identity of ``concurrency_study``).
    """
    from ..data.relations import SensorWorld
    from ..routing.ctp import build_tree
    from ..service.broker import BrokerConfig, DeadlinePolicy, QueryBroker
    from ..service.workloads import WorkloadSpec, generate_workload
    from ..sim.faults import ChurnModel
    from ..sim.network import deploy_uniform

    if node_count is None:
        node_count = min(default_node_count(), 300)
    scenario = build_scenario(node_count, seed)
    # Same template pool as concurrency_study, so the zero-churn rows are
    # directly comparable with that experiment's workload.
    templates = [
        calibrated_query(scenario, *RATIO_SETTINGS["33"], 0.05),
        calibrated_query(scenario, *RATIO_SETTINGS["60"], 0.05),
        calibrated_query(scenario, *RATIO_SETTINGS["33"], 0.02),
        calibrated_query(scenario, *RATIO_SETTINGS["33"], 0.08),
    ]
    config = scenario.config

    def fresh_deployment():
        network = deploy_uniform(config)
        world = SensorWorld.homogeneous(
            network, seed=seed, area_side_m=config.area_side_m
        )
        tree = build_tree(network, seed=seed)
        return network, world, tree

    series = ExperimentSeries(
        experiment="churn",
        title="Continuous churn: self-healing trees and broker degradation",
        columns=[
            "churn_rate", "concurrency", "queries", "completed", "degraded",
            "shed", "mean_recall", "min_recall", "p50_latency_s",
            "p95_latency_s", "total_tx", "total_energy", "faults",
            "repairs", "repair_beacons", "repair_energy",
        ],
    )
    for churn_rate in churn_rates:
        for concurrency in concurrency_levels:
            network, world, tree = fresh_deployment()
            spec = WorkloadSpec(
                kind="poisson", rate_hz=rate_hz, count=query_count, seed=seed
            )
            requests = generate_workload(spec, templates)
            churn = ChurnModel.from_departure_fraction(
                churn_rate,
                horizon_s=churn_horizon_s,
                seed=seed,
                rejoin_delay_s=churn_horizon_s / 4.0,
                rejoin_jitter_m=10.0,
            )
            report = QueryBroker(
                network,
                world,
                BrokerConfig(
                    concurrency=concurrency,
                    share_work=concurrency > 1,
                    deadline=DeadlinePolicy(seed=seed),
                ),
                tree=tree,
                tree_seed=seed,
                churn=churn,
            ).run(requests)
            details = report.details
            series.add_row(
                churn_rate,
                concurrency,
                len(report.outcomes),
                int(details["completed"]),
                int(details["degraded"]),
                int(details["shed"]),
                round(details["mean_recall"], 3),
                round(details["min_recall"], 3),
                round(report.latency_percentile(0.5), 3),
                round(report.latency_percentile(0.95), 3),
                report.total_tx_packets,
                round(report.total_energy_j, 1),
                int(details["churn_faults_applied"]),
                int(details["repairs"]),
                int(details["repair_beacons"]),
                round(details["repair_energy_j"], 1),
            )
    series.notes.append(
        "recall measured against the pre-churn lossless oracle; "
        "repair_* = incremental tree re-attach overhead charged to the "
        "energy ledger; no serial cross-check — churn changes result sets"
    )
    return series

# ---------------------------------------------------------------------------
# Scale studies — beyond the paper's 1500 nodes (E13)
# ---------------------------------------------------------------------------

#: Node-count ladder of the scale study, defined at the default bench scale.
#: ``scale_node_counts`` rescales it linearly, so ``--nodes`` pins the whole
#: ladder the same way ``fig14_network_size`` pins its sweep: the default 600
#: runs exactly 1k/5k/10k, a ``--nodes 100`` smoke runs 167/833/1667.
SCALE_LADDER = (1000, 5000, 10000)

#: The bench default the ladder is calibrated against (not
#: :func:`default_node_count`, which moves under ``REPRO_SCALE=paper``).
SCALE_BASE_NODE_COUNT = 600


def scale_node_counts(node_count: int) -> List[int]:
    """The scale-study sweep sizes at the requested harness scale."""
    scale = node_count / SCALE_BASE_NODE_COUNT
    return [max(8, int(round(c * scale))) for c in SCALE_LADDER]


def scale_study(
    node_counts: Optional[Sequence[int]] = None,
    routings: Sequence[str] = ("flat", "cluster"),
    node_count: Optional[int] = None,
    seed: int = 0,
    threshold: float = 6.0,
) -> ExperimentSeries:
    """Scale ladder: topology build, tree formation and one join at 1k-10k.

    Beyond the paper (§VI stops at 1500 nodes): each sweep point deploys a
    *fresh* uniform network at the paper's density — the spatial grid index
    makes the adjacency build O(n) — forms the routing tree in the requested
    mode, and runs one fixed-threshold 33%-ratio SENS-Join snapshot.  The
    query threshold is pinned (no calibration bisection: at 10k nodes each
    probe join is itself seconds of work) so rows across scales share one
    selectivity semantics rather than one result fraction.

    Reported per point: wall-clock build/tree-formation time, topology shape
    (mean degree, tree height, cluster-head count), and the join's
    transmissions, total energy, hottest-node energy (via the array-backed
    :meth:`~repro.sim.network.Network.residual_energy_columns` view) and
    response time.  The cluster rows quantify the grid-head tradeoff: fewer
    interior forwarders, but head fan-in raises response time.
    """
    import time

    from ..data.relations import SensorWorld
    from ..joins.runner import run_snapshot
    from ..routing.cluster import build_cluster_tree
    from ..routing.ctp import build_tree
    from ..sim.network import DeploymentConfig, deploy_uniform

    if node_count is None:
        node_count = default_node_count()
    if node_counts is None:
        node_counts = scale_node_counts(node_count)
    query = ratio_query_builder(*RATIO_SETTINGS["33"])(threshold)
    series = ExperimentSeries(
        experiment="scale",
        title="Scale ladder: build, tree formation and join cost vs network size",
        columns=[
            "nodes", "routing", "build_s", "tree_s", "avg_degree", "height",
            "heads", "join_tx", "join_energy", "hot_node_energy",
            "response_time_s", "matches",
        ],
    )
    for count in node_counts:
        for routing in routings:
            base = DeploymentConfig().scaled(count)
            config = DeploymentConfig(
                node_count=base.node_count,
                area_side_m=base.area_side_m,
                radio_range_m=base.radio_range_m,
                seed=seed,
                routing=routing,
            )
            started = time.perf_counter()
            network = deploy_uniform(config)
            build_s = time.perf_counter() - started
            started = time.perf_counter()
            if routing == "cluster":
                layout = build_cluster_tree(network, seed=seed)
                tree, heads = layout.tree, layout.head_count
            else:
                tree, heads = build_tree(network, seed=seed), 0
            tree_s = time.perf_counter() - started
            sensors = network.sensor_node_ids
            avg_degree = sum(
                len(network.neighbours(node_id)) for node_id in sensors
            ) / len(sensors)
            world = SensorWorld.homogeneous(
                network, seed=seed, area_side_m=config.area_side_m
            )
            outcome = run_snapshot(network, world, query, "sens-join", tree=tree)
            _ids, spent = network.residual_energy_columns()
            series.add_row(
                count,
                routing,
                round(build_s, 3),
                round(tree_s, 3),
                round(avg_degree, 2),
                tree.height,
                heads,
                outcome.total_transmissions,
                round(network.total_energy(), 1),
                round(float(spent.max()), 2),
                round(outcome.response_time_s, 2),
                outcome.result.match_count,
            )
    series.notes.append(
        "fresh deployment per row; build_s/tree_s are wall-clock and vary "
        "run to run — every other column is deterministic per seed; "
        "fixed query threshold (no per-scale calibration), so compare "
        "costs across rows, not result fractions"
    )
    return series


def scale_shard(
    node_count: int,
    seed: int = 0,
    routing: str = "flat",
    shard_index: int = 0,
    shard_count: int = 4,
    deployment: str = "grid",
) -> ExperimentSeries:
    """One shard of a sharded giant deployment (see ``bench shard``).

    Every shard worker rebuilds the *same* deployment and routing tree from
    ``(node_count, seed, routing, deployment)``, computes the *same*
    deterministic partition of the base station's depth-1 subtrees — largest
    subtree first, greedily assigned to the lightest shard bin, ties broken
    by root id and bin index — and then accounts the collection phase for
    its own shard only: every shard node forwards its subtree's tuples one
    hop towards the base station through
    :meth:`~repro.sim.radio.Channel.unicast`.

    Because the partition is a pure function of the cell parameters, the
    merge is deterministic regardless of worker count or completion order,
    and the assembler can gate completeness with a node-count and an id
    checksum (sensor ids are ``1..node_count``, so the shard id-sums must
    total ``n(n+1)/2``).  Grid deployment is the default: at 50k-100k nodes
    a uniform draw at the paper's density is disconnected with high
    probability (mean degree ~10.5 < ln n), while the grid stays connected
    at any size.
    """
    import time

    from ..routing.cluster import build_routing_tree
    from ..sim.network import DeploymentConfig, deploy_grid, deploy_uniform
    from ..sim.node import BASE_STATION_ID

    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1: {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index {shard_index} outside [0, {shard_count})"
        )
    deployers = {"grid": deploy_grid, "uniform": deploy_uniform}
    if deployment not in deployers:
        raise ValueError(
            f"deployment must be one of {sorted(deployers)}: {deployment!r}"
        )

    base = DeploymentConfig().scaled(node_count)
    config = DeploymentConfig(
        node_count=base.node_count,
        area_side_m=base.area_side_m,
        radio_range_m=base.radio_range_m,
        seed=seed,
        routing=routing,
    )
    started = time.perf_counter()
    network = deployers[deployment](config)
    build_s = time.perf_counter() - started
    started = time.perf_counter()
    tree = build_routing_tree(network, routing=routing, seed=seed)
    tree_s = time.perf_counter() - started

    # Deterministic partition: identical in every worker by construction.
    subtrees = [
        (root, list(tree.subtree(root)))
        for root in sorted(tree.children(BASE_STATION_ID))
    ]
    order = sorted(subtrees, key=lambda item: (-len(item[1]), item[0]))
    loads = [0] * shard_count
    mine: List[List[int]] = []
    for root, members in order:
        target = min(range(shard_count), key=lambda i: (loads[i], i))
        loads[target] += len(members)
        if target == shard_index:
            mine.append(members)

    # Collection-phase accounting for this shard's nodes only: a converge
    # cast where each node relays its proper descendants' tuples plus its
    # own one hop upward (the paper's default three attributes per tuple).
    tuple_bytes = 3 * constants.BYTES_PER_ATTRIBUTE
    descendants = tree.descendant_counts()
    network.reset_accounting()
    tx_packets = 0
    max_depth = 0
    for members in mine:
        for node_id in members:
            tuples = 1 + descendants[node_id]
            tx_packets += network.channel.unicast(
                node_id, tree.parent(node_id), tuples * tuple_bytes,
                "shard-collection",
            )
            depth = tree.depth(node_id)
            if depth > max_depth:
                max_depth = depth

    shard_nodes = sum(len(members) for members in mine)
    id_sum = sum(sum(members) for members in mine)
    series = ExperimentSeries(
        experiment="shard",
        title=f"sharded deployment: {node_count} nodes over {shard_count} shard(s)",
        columns=[
            "shard", "shards", "nodes", "subtrees", "max_depth", "tx_packets",
            "energy", "id_sum", "total_nodes", "build_s", "tree_s",
        ],
    )
    series.add_row(
        shard_index,
        shard_count,
        shard_nodes,
        len(mine),
        max_depth,
        tx_packets,
        round(network.total_energy(), 1),
        id_sum,
        node_count,
        round(build_s, 3),
        round(tree_s, 3),
    )
    return series
