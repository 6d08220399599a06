"""Shared fixtures: small deterministic deployments and query helpers.

The grid deployment gives hand-checkable topology; the uniform one gives the
paper's setting at a test-friendly scale.  Everything is seeded, so failures
reproduce exactly.
"""

from __future__ import annotations

import pytest

from repro.codec.quantize import Quantizer
from repro.data.relations import SensorWorld
from repro.query.parser import parse_query
from repro.routing.ctp import build_tree
from repro.sim.network import DeploymentConfig, deploy_grid, deploy_uniform

#: Area side that keeps the paper's density for a 200-node network.
SMALL_SIDE = 383.0


@pytest.fixture(scope="session")
def make_deployment():
    """Factory for seeded ``(network, world)`` pairs at the paper's density.

    Replaces per-module copies of the same deployment boilerplate: tests ask
    for exactly the knobs they vary (``node_count``, ``seed``, ``drift_rate``,
    ``loss_rate``) and get a uniform deployment whose area follows the
    paper's node density unless pinned with ``area_side_m``.  Session-scoped
    because the factory itself is stateless — every call builds fresh
    objects, so mutation in one test cannot leak into another.
    """

    def make(
        node_count: int,
        seed: int,
        drift_rate: float = 0.0,
        loss_rate: float = 0.0,
        area_side_m: float | None = None,
    ):
        if area_side_m is None:
            area_side_m = DeploymentConfig().scaled(node_count).area_side_m
        config = DeploymentConfig(
            node_count=node_count,
            area_side_m=area_side_m,
            seed=seed,
            loss_rate=loss_rate,
        )
        network = deploy_uniform(config)
        world = SensorWorld.homogeneous(
            network, seed=seed, area_side_m=area_side_m, drift_rate=drift_rate
        )
        return network, world

    return make


@pytest.fixture()
def grid_network():
    """7x7 grid, 40 m pitch, 50 m range: 4-neighbour connectivity."""
    config = DeploymentConfig(node_count=49, area_side_m=280.0, radio_range_m=50.0, seed=1)
    return deploy_grid(config)


@pytest.fixture()
def small_network():
    """200 nodes, paper density, seeded uniform deployment."""
    config = DeploymentConfig(node_count=200, area_side_m=SMALL_SIDE, seed=11)
    return deploy_uniform(config)


@pytest.fixture()
def small_world(small_network):
    """Homogeneous world over the small network, snapshot already taken."""
    world = SensorWorld.homogeneous(small_network, seed=11, area_side_m=SMALL_SIDE)
    world.take_snapshot(0.0)
    return world


@pytest.fixture()
def small_tree(small_network):
    """Converged routing tree for the small network."""
    return build_tree(small_network, seed=11)


@pytest.fixture()
def q1_style():
    """Q1-flavoured query: one join attribute, aggregate select."""
    return parse_query(
        "SELECT MIN(distance(A.x, A.y, B.x, B.y)) "
        "FROM sensors A, sensors B WHERE A.temp - B.temp > 10.0 ONCE"
    )


@pytest.fixture()
def q2_style():
    """Q2-flavoured query: three join attributes, similarity + distance."""
    return parse_query(
        "SELECT |A.hum - B.hum|, |A.pres - B.pres| "
        "FROM sensors A, sensors B "
        "WHERE |A.temp - B.temp| < 0.3 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE"
    )


@pytest.fixture()
def tail_query():
    """Range-condition query whose threshold controls selectivity."""

    def make(threshold: float, select: str = "A.hum, B.hum"):
        return parse_query(
            f"SELECT {select} FROM sensors A, sensors B "
            f"WHERE A.temp - B.temp > {threshold} ONCE"
        )

    return make


@pytest.fixture()
def encode_calls(monkeypatch):
    """Every ``Quantizer.encode`` argument of the test, in call order."""
    calls = []
    encode = Quantizer.encode

    def counted(self, values):
        calls.append(values)
        return encode(self, values)

    monkeypatch.setattr(Quantizer, "encode", counted)
    return calls
