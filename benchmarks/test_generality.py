"""Requirements 1 & 2 — the "general-purpose" claims, plus §II's niche.

Requirement 1: any number and kind of join conditions and attributes.
Requirement 2: arbitrary tuple placements.  The battery runs theta /
similarity+distance / disjunction / aggregate / three-way / heterogeneous
query shapes through both joins; every row must be exact and (at these
selectivities) cheaper under SENS-Join.

The related-work table reproduces §II: the specialised mediated join wins
only in its niche (two small regions, far from the base station, tiny
result) and loses on the general workload.
"""

import pytest

from repro.bench.workloads import build_scenario
from repro.joins.sensjoin import SensJoin
from repro.query.parser import parse_query

from conftest import run_series


@pytest.fixture(scope="module")
def battery():
    return run_series(
        "generality", "every shape exact; SENS-Join cheaper at ~5-10% fractions"
    )


@pytest.fixture(scope="module")
def niche():
    return run_series(
        "related_work",
        "mediated join wins only in its two-region niche (§II)",
    )


def test_every_shape_exact(battery):
    for row in battery.as_dicts():
        assert row["identical"] == "True", row


def test_sens_wins_on_every_selective_shape(battery):
    for row in battery.as_dicts():
        assert row["sens_tx"] < row["external_tx"], row


def test_mediated_wins_its_niche(niche):
    rows = {(r[0], r[1]): r[2] for r in niche.rows}
    assert rows[("niche(two-regions)", "mediated-join")] < rows[
        ("niche(two-regions)", "external-join")
    ]


def test_mediated_loses_general_setting(niche):
    rows = {(r[0], r[1]): r[2] for r in niche.rows}
    assert rows[("general(self-join)", "sens-join")] < rows[
        ("general(self-join)", "mediated-join")
    ]


def test_all_algorithms_agree_in_both_settings(niche):
    by_setting = {}
    for setting, _algo, _tx, matches in niche.rows:
        by_setting.setdefault(setting, set()).add(matches)
    for setting, match_counts in by_setting.items():
        assert len(match_counts) == 1, setting


def test_generality_benchmark(benchmark, battery):
    scenario = build_scenario()
    query = parse_query(
        "SELECT A.hum FROM sensors A, sensors B, sensors C "
        "WHERE A.temp - B.temp > 11.0 AND B.temp - C.temp > 11.0 ONCE"
    )
    benchmark(lambda: scenario.run(query, SensJoin()))
