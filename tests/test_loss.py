"""End-to-end tests of the lossy link layer (§IV-F).

Three properties are pinned down here:

1. **Strict no-op at loss 0** — a lossless deployment behaves exactly as
   before the loss layer existed: no random draws, no retransmission
   counters, no extra outcome keys, the classic random tie-break tree.
2. **Exactness under loss** — the ARQ delivers persistently, so every join
   method returns the same result at every loss rate.
3. **Monotonicity** — with the seeded single-draw-per-packet sampling, the
   per-phase retransmission counts grow monotonically with the loss rate.
"""

import pytest

from repro.api import SensorNetworkDB
from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.external import ExternalJoin
from repro.joins.mediated import MediatedJoin
from repro.joins.semijoin import SemiJoinBroadcast
from repro.joins.sensjoin import SensJoin
from repro.routing.ctp import build_tree

NODES = 120
SEED = 3
LOSS_RATES = (0.05, 0.1, 0.2, 0.3)


@pytest.fixture(scope="module")
def loss_outcomes():
    """SENS-Join + external-join outcomes per loss rate (0 included)."""
    outcomes = {}
    for loss_rate in (0.0,) + LOSS_RATES:
        scenario = build_scenario(NODES, SEED, loss_rate=loss_rate)
        query = calibrated_query(scenario, 1, 3, 0.05)
        outcomes[loss_rate] = {
            "sens": scenario.run(query, SensJoin()),
            "external": scenario.run(query, ExternalJoin()),
        }
    return outcomes


# -- strict no-op at loss 0 ----------------------------------------------------


def test_lossless_outcome_has_no_loss_artifacts(loss_outcomes):
    outcome = loss_outcomes[0.0]["sens"]
    assert outcome.total_retransmissions == 0
    assert outcome.per_phase_retransmissions() == {}
    assert "retransmissions" not in outcome.details


def test_lossless_channel_rng_never_advances():
    scenario = build_scenario(NODES, SEED, loss_rate=0.0)
    channel = scenario.network.channel
    state_before = channel._rng.getstate()
    query = calibrated_query(scenario, 1, 3, 0.05)
    scenario.run(query, SensJoin())
    assert channel._rng.getstate() == state_before


def test_lossless_tree_uses_classic_random_tie_break():
    scenario = build_scenario(NODES, SEED, loss_rate=0.0)
    classic = build_tree(scenario.network, tie_break="random", seed=SEED)
    assert scenario.tree.as_parent_map() == classic.as_parent_map()


def test_lossless_run_is_deterministic(loss_outcomes):
    scenario = build_scenario(NODES, SEED, loss_rate=0.0)
    query = calibrated_query(scenario, 1, 3, 0.05)
    again = scenario.run(query, SensJoin())
    reference = loss_outcomes[0.0]["sens"]
    assert again.total_transmissions == reference.total_transmissions
    assert again.result.match_count == reference.result.match_count
    assert again.response_time_s == reference.response_time_s


# -- exactness under loss ------------------------------------------------------


def test_results_exact_at_every_loss_rate(loss_outcomes):
    reference = loss_outcomes[0.0]["sens"].result.match_count
    for loss_rate in LOSS_RATES:
        sens = loss_outcomes[loss_rate]["sens"]
        external = loss_outcomes[loss_rate]["external"]
        assert sens.result.match_count == reference
        assert external.result.match_count == reference


def test_all_four_methods_agree_under_loss():
    scenario = build_scenario(NODES, SEED, loss_rate=0.2)
    query = calibrated_query(scenario, 1, 3, 0.05)
    matches = {
        algorithm.name: scenario.run(query, algorithm).result.match_count
        for algorithm in (ExternalJoin(), SensJoin(), SemiJoinBroadcast(), MediatedJoin())
    }
    assert len(set(matches.values())) == 1, matches


# -- retransmission accounting under loss --------------------------------------


def test_lossy_runs_report_retransmissions(loss_outcomes):
    for loss_rate in LOSS_RATES:
        outcome = loss_outcomes[loss_rate]["sens"]
        assert outcome.total_retransmissions > 0
        assert outcome.details["retransmissions"] == float(outcome.total_retransmissions)


def test_first_transmissions_invariant_across_positive_loss(loss_outcomes):
    counts = {
        loss_rate: loss_outcomes[loss_rate]["sens"].total_transmissions
        for loss_rate in LOSS_RATES
    }
    assert len(set(counts.values())) == 1, counts


def test_per_phase_retx_monotone_in_loss_rate(loss_outcomes):
    previous = {}
    for loss_rate in LOSS_RATES:
        by_phase = loss_outcomes[loss_rate]["sens"].per_phase_retransmissions()
        for phase, count in previous.items():
            assert by_phase.get(phase, 0) >= count, (
                f"phase {phase} shrank from {count} at the previous rate to "
                f"{by_phase.get(phase, 0)} at {loss_rate}"
            )
        previous = by_phase


def test_total_retx_monotone_for_external_join(loss_outcomes):
    totals = [
        loss_outcomes[loss_rate]["external"].total_retransmissions
        for loss_rate in LOSS_RATES
    ]
    assert totals == sorted(totals)
    assert totals[0] > 0


def test_retx_energy_charged(loss_outcomes):
    scenario = build_scenario(NODES, SEED, loss_rate=0.3)
    query = calibrated_query(scenario, 1, 3, 0.05)
    scenario.run(query, SensJoin())
    network = scenario.network
    model = network.energy_model
    spent = network.energy_by_node()
    loads = network.stats.per_node_loads({})
    assert sum(load.retx_packets for load in loads) > 0
    for load in loads:
        # Energy without the retransmissions; a node that retried pays more.
        first_sends = model.tx_energy(load.tx_packets, load.tx_bytes) + model.rx_energy(
            load.rx_packets, load.rx_bytes
        )
        if load.retx_packets:
            assert spent[load.node_id] > first_sends
        else:
            assert spent[load.node_id] == first_sends


# -- api front door ------------------------------------------------------------


def test_api_loss_knob():
    db = SensorNetworkDB(node_count=80, seed=5, loss_rate=0.25)
    assert db.network.link_quality is not None
    report = db.execute(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 18.0 ONCE"
    )
    assert report.retransmissions > 0
    assert "retransmissions" in report.summary()


def test_api_lossless_summary_unchanged():
    db = SensorNetworkDB(node_count=80, seed=5)
    report = db.execute(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 18.0 ONCE"
    )
    assert report.retransmissions == 0
    assert "retransmissions" not in report.summary()


# -- loss-sweep smoke (mirrors the CI workflow's fast check) -------------------


def test_loss_sweep_smoke():
    from repro.bench.experiments import loss_study

    series = loss_study(loss_rates=(0.0, 0.2), node_count=100, seed=1)
    rows = {(row[0], row[1]): row for row in series.rows}
    seen = {row[1] for row in series.rows}
    assert seen == {"external-join", "sens-join", "semijoin-broadcast", "mediated-join"}
    for (loss_rate, _algorithm), row in rows.items():
        retx = row[3]
        assert (retx == 0) == (loss_rate == 0.0)
    matches = {row[5] for row in series.rows}
    assert len(matches) == 1  # every method, every rate: the exact result
