"""Seeded, shrinkable trial generation for the differential harness.

Everything here is pure stdlib (``random.Random`` + dataclasses): a
:class:`TrialSpec` is a small, JSON-round-trippable value object that fully
determines one fuzz trial — deployment, data, query, engine, loss rate and
fault schedule all derive deterministically from its fields.  That gives the
harness the two properties property-based testing needs without heavy
dependencies:

* **replayability** — a spec saved to a repro artifact rebuilds the exact
  failing world (``same seed -> byte-identical outcome``);
* **shrinkability** — the shrinker (:mod:`repro.verify.shrink`) walks specs
  towards simpler ones (fewer nodes, no loss, no faults, grid topology,
  simplest query template) and re-runs each candidate.

:func:`plan_trials` derives a whole trial matrix from one master seed,
cycling engines so even a 10-trial smoke covers every engine at least once.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..codec.quadtree import FlaggedPoint, QuadtreeCodec
from ..data.relations import SensorWorld
from ..query.parser import parse_query
from ..query.query import JoinQuery
from ..routing.cluster import ROUTING_MODES, build_routing_tree
from ..routing.tree import RoutingTree
from ..sim.faults import ChurnModel, Fault, FaultPlan, LINK_DROP, LOSS_BURST, NODE_CRASH
from ..sim.network import DeploymentConfig, Network, deploy_grid, deploy_uniform

__all__ = [
    "ENGINES",
    "DEPLOYMENTS",
    "LARGE_NODE_LADDER",
    "NODE_LADDER",
    "TrialSpec",
    "TrialSetup",
    "QueryTemplate",
    "templates_for",
    "plan_trials",
    "build_trial",
    "generate_fault_plan",
    "random_flagged_points",
    "random_coordinates",
    "random_values",
]

#: Every engine the harness can drive.  The first five resolve through
#: ``joins.runner.make_algorithm``; the last two are the stateful executors
#: driven through ``run_round``.
ENGINES: Tuple[str, ...] = (
    "sens-join",
    "external-join",
    "semijoin-broadcast",
    "mediated-join",
    "des-sensjoin",
    "adaptive",
    "incremental",
)

DEPLOYMENTS: Tuple[str, ...] = ("grid", "uniform")

#: Node counts the generator draws from; also the shrinker's ladder.
NODE_LADDER: Tuple[int, ...] = (12, 16, 24, 32, 48)

#: The large-deployment axis (``plan_trials(..., large=True)``): a node
#: ladder up to 2k that drives the grid spatial index and the cluster
#: routing mode through deployment sizes the dense O(n²) build never saw.
#: The shrinker bisects failures from here back down towards NODE_LADDER.
LARGE_NODE_LADDER: Tuple[int, ...] = (128, 256, 512, 1024, 2048)

#: Grid pitch in metres (below the 50 m radio range -> always connected).
GRID_PITCH_M = 40.0

#: Simulated-time window faults land in (the DES protocol completes within
#: tens of milliseconds at fuzz scale, so this spans the whole execution).
FAULT_HORIZON_S = 0.02

#: Round times for the stateful executors (matches SAMPLE PERIOD 60).
ROUND_TIMES: Tuple[float, ...] = (0.0, 60.0)


@dataclass(frozen=True)
class QueryTemplate:
    """One workload shape: a SQL skeleton plus its threshold bracket."""

    sql: str
    lo: float
    hi: float

    @property
    def default_threshold(self) -> float:
        return round((self.lo + self.hi) / 2.0, 3)

    def render(self, threshold: float, mode: str) -> str:
        return self.sql.format(t=threshold, mode=mode)


#: Self-join templates (homogeneous ``sensors`` relation), simplest first —
#: the shrinker walks the index towards 0.
_SELF_TEMPLATES: Tuple[QueryTemplate, ...] = (
    QueryTemplate(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > {t:.3f} {mode}",
        lo=0.5, hi=8.0,
    ),
    QueryTemplate(
        "SELECT A.temp, A.hum, B.temp, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > {t:.3f} AND |A.hum - B.hum| < 40.0 {mode}",
        lo=0.5, hi=8.0,
    ),
    QueryTemplate(
        "SELECT |A.hum - B.hum| FROM sensors A, sensors B "
        "WHERE |A.temp - B.temp| < {t:.3f} "
        "AND distance(A.x, A.y, B.x, B.y) > 60.0 {mode}",
        lo=0.5, hi=4.0,
    ),
    QueryTemplate(
        "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > {t:.3f} {mode}",
        lo=0.5, hi=8.0,
    ),
    # NOT and OR in the join predicate, so every engine's filter meets the
    # pushed-down negation against the oracle.  No division: the exact
    # evaluator raises on a zero denominator.
    QueryTemplate(
        "SELECT A.temp, B.temp FROM sensors A, sensors B "
        "WHERE NOT (A.temp - B.temp <= {t:.3f}) "
        "AND (|A.hum - B.hum| < 20.0 OR NOT (distance(A.x, A.y, B.x, B.y) <= 80.0)) {mode}",
        lo=0.5, hi=8.0,
    ),
    # ``distance < d`` reads the distance's lower bound; every template
    # above reads only its upper bound.
    QueryTemplate(
        "SELECT A.temp, B.temp FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > {t:.3f} AND distance(A.x, A.y, B.x, B.y) < 80.0 {mode}",
        lo=0.5, hi=8.0,
    ),
)

#: Heterogeneous templates over the ``two_relations`` split.
_TWO_TEMPLATES: Tuple[QueryTemplate, ...] = (
    QueryTemplate(
        "SELECT A.temp, B.temp FROM rel_a A, rel_b B "
        "WHERE A.temp - B.temp > {t:.3f} {mode}",
        lo=0.5, hi=8.0,
    ),
    QueryTemplate(
        "SELECT A.hum, B.light FROM rel_a A, rel_b B "
        "WHERE |A.temp - B.temp| < {t:.3f} {mode}",
        lo=0.5, hi=4.0,
    ),
)


def templates_for(relations: str) -> Tuple[QueryTemplate, ...]:
    """The template table for a relation layout (``self`` or ``two``)."""
    if relations == "self":
        return _SELF_TEMPLATES
    if relations == "two":
        return _TWO_TEMPLATES
    raise ValueError(f"unknown relation layout {relations!r}; known: self, two")


@dataclass(frozen=True)
class TrialSpec:
    """A fully deterministic fuzz trial, JSON-round-trippable.

    Every derived object (deployment, fields, tree, fault plan, ARQ draws)
    is seeded from these fields, so two executions of the same spec are
    byte-identical — that is itself one of the invariants under test.
    """

    seed: int
    engine: str
    deployment: str = "grid"
    node_count: int = 16
    relations: str = "self"
    template: int = 0
    threshold: float = 2.0
    loss_rate: float = 0.0
    crash_count: int = 0
    link_drop_count: int = 0
    burst_count: int = 0
    #: Expected fraction of nodes departing over the fault horizon; expands
    #: into a :class:`~repro.sim.faults.ChurnModel` plan (departures plus
    #: rejoins at jittered positions) merged into the trial's fault schedule.
    churn_rate: float = 0.0
    drift_rate: float = 0.0
    #: Routing-tree construction mode; ``"cluster"`` layers grid-cell heads
    #: over the CTP backbone (every engine runs on either tree shape, and
    #: the oracle is tree-independent — so the full invariant catalogue
    #: fuzzes the cluster mode for free).
    routing: str = "flat"
    #: Incremental trials only: run with Treecut on (``SensJoinConfig()``).
    treecut: bool = False
    check_determinism: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; known: {ENGINES}")
        if self.deployment not in DEPLOYMENTS:
            raise ValueError(f"unknown deployment {self.deployment!r}")
        if self.routing not in ROUTING_MODES:
            raise ValueError(
                f"unknown routing mode {self.routing!r}; known: {ROUTING_MODES}"
            )
        templates = templates_for(self.relations)
        if not 0 <= self.template < len(templates):
            raise ValueError(
                f"template {self.template} out of range for {self.relations!r}"
            )
        if self.node_count < 4:
            raise ValueError(f"node_count too small: {self.node_count}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1): {self.loss_rate}")
        if min(self.crash_count, self.link_drop_count, self.burst_count) < 0:
            raise ValueError("fault counts must be non-negative")
        if not 0.0 <= self.churn_rate < 1.0:
            raise ValueError(f"churn_rate must be in [0, 1): {self.churn_rate}")
        if (self.fault_count or self.churn_rate) and self.engine != "des-sensjoin":
            raise ValueError(
                f"in-flight faults need the des-sensjoin engine, not {self.engine!r}"
            )
        if self.treecut and self.engine != "incremental":
            raise ValueError(f"treecut needs the incremental engine, not {self.engine!r}")

    # -- derived ---------------------------------------------------------------

    @property
    def fault_count(self) -> int:
        return self.crash_count + self.link_drop_count + self.burst_count

    @property
    def uses_rounds(self) -> bool:
        """True for the stateful executors driven through ``run_round``."""
        return self.engine in ("adaptive", "incremental")

    def query_sql(self) -> str:
        mode = "SAMPLE PERIOD 60" if self.uses_rounds else "ONCE"
        template = templates_for(self.relations)[self.template]
        return template.render(self.threshold, mode)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrialSpec":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in data.items() if k in known})

    def describe(self) -> str:
        """One-line summary for progress output."""
        parts = [
            f"{self.engine}",
            f"{self.deployment}",
            f"n={self.node_count}",
            f"{self.relations}/t{self.template}",
            f"thr={self.threshold:g}",
        ]
        if self.loss_rate:
            parts.append(f"loss={self.loss_rate:g}")
        if self.fault_count:
            parts.append(
                f"faults={self.crash_count}c/{self.link_drop_count}l/{self.burst_count}b"
            )
        if self.churn_rate:
            parts.append(f"churn={self.churn_rate:g}")
        if self.drift_rate:
            parts.append(f"drift={self.drift_rate:g}")
        if self.routing != "flat":
            parts.append(self.routing)
        if self.treecut:
            parts.append("treecut")
        if self.check_determinism:
            parts.append("det")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Trial planning (the engine x workload x fault matrix)
# ---------------------------------------------------------------------------


def plan_trials(
    count: int,
    master_seed: int,
    engines: Sequence[str] = ENGINES,
    churn_rate: Optional[float] = None,
    routing: Optional[str] = None,
    large: bool = False,
) -> List[TrialSpec]:
    """Derive ``count`` specs from one master seed — pure and stable.

    Engines cycle round-robin (so small runs still cover all of them);
    every other axis is drawn from a single ``random.Random(master_seed)``
    stream, which makes the full trial list a deterministic function of
    ``(count, master_seed, engines, churn_rate, routing, large)``.

    ``churn_rate`` pins the churn axis: ``None`` draws it randomly for
    ``des-sensjoin`` trials (the only engine that replays in-flight churn);
    a number forces exactly that rate onto every ``des-sensjoin`` spec —
    pair it with ``engines=("des-sensjoin",)`` for a churn-only smoke.

    ``routing`` pins the routing-mode axis; ``None`` derives it from the
    per-trial seed (~1 in 4 trials run on the cluster tree) *without*
    consuming the rng stream, so turning the axis on did not reshuffle the
    historical trial matrix.  ``large=True`` swaps the node ladder for
    :data:`LARGE_NODE_LADDER` (up to 2k nodes) — the deployment axis that
    drives the spatial grid index at scales the dense build never ran; the
    determinism double-run is skipped there to keep the smoke affordable.
    Treecut, on ``incremental`` trials only, is derived like the routing mode.
    """
    if count < 0:
        raise ValueError(f"negative trial count: {count}")
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    if routing is not None and routing not in ROUTING_MODES:
        raise ValueError(f"unknown routing mode {routing!r}; known: {ROUTING_MODES}")
    ladder = LARGE_NODE_LADDER if large else NODE_LADDER
    rng = random.Random(master_seed)
    specs: List[TrialSpec] = []
    for index in range(count):
        engine = engines[index % len(engines)]
        deployment = rng.choice(DEPLOYMENTS)
        node_count = rng.choice(ladder)
        relations = "two" if rng.random() < 0.3 else "self"
        templates = templates_for(relations)
        template = rng.randrange(len(templates))
        threshold = round(rng.uniform(templates[template].lo, templates[template].hi), 3)
        loss_rate = rng.choice((0.0, 0.0, 0.0, 0.1, 0.3))
        crash = drops = bursts = 0
        churn = 0.0
        if engine == "des-sensjoin":
            profile = rng.choice(("none", "none", "crash", "link", "burst", "mixed"))
            if profile == "crash":
                crash = rng.randint(1, 2)
            elif profile == "link":
                drops = rng.randint(1, 2)
            elif profile == "burst":
                bursts = 1
            elif profile == "mixed":
                crash, drops, bursts = 1, 1, 1
            churn = (
                rng.choice((0.0, 0.0, 0.1, 0.2))
                if churn_rate is None
                else churn_rate
            )
        drift = 0.0
        if engine in ("adaptive", "incremental") and relations == "self":
            drift = rng.choice((0.0, 0.001))
        check_det = rng.random() < 0.25 and not large
        seed = rng.randrange(1 << 30)
        # Derived from the seed rather than drawn, so adding this axis kept
        # every pre-existing trial's other fields byte-identical.
        trial_routing = (
            routing if routing is not None else ("cluster" if seed % 4 == 0 else "flat")
        )
        # From a seed bit the routing mode does not read: ~1 in 2 incremental.
        treecut = engine == "incremental" and (seed >> 2) % 2 == 1
        specs.append(
            TrialSpec(
                seed=seed,
                engine=engine,
                deployment=deployment,
                node_count=node_count,
                relations=relations,
                template=template,
                threshold=threshold,
                loss_rate=loss_rate,
                crash_count=crash,
                link_drop_count=drops,
                burst_count=bursts,
                churn_rate=churn,
                drift_rate=drift,
                routing=trial_routing,
                treecut=treecut,
                check_determinism=check_det,
            )
        )
    return specs


# ---------------------------------------------------------------------------
# World construction from a spec
# ---------------------------------------------------------------------------


@dataclass
class TrialSetup:
    """Everything :func:`repro.verify.runner.execute_trial` needs."""

    spec: TrialSpec
    network: Network
    world: SensorWorld
    tree: RoutingTree
    query: JoinQuery
    fault_plan: Optional[FaultPlan]


def _deployment_config(spec: TrialSpec) -> DeploymentConfig:
    if spec.deployment == "grid":
        side = math.ceil(math.sqrt(spec.node_count)) * GRID_PITCH_M
        return DeploymentConfig(
            node_count=spec.node_count,
            area_side_m=side,
            radio_range_m=50.0,
            seed=spec.seed,
            loss_rate=spec.loss_rate,
        )
    # Uniform random at the paper's density.
    return DeploymentConfig(seed=spec.seed, loss_rate=spec.loss_rate).scaled(
        spec.node_count
    )


def build_trial(spec: TrialSpec) -> TrialSetup:
    """Deterministically rebuild the trial's world from its spec."""
    config = _deployment_config(spec)
    if spec.deployment == "grid":
        network = deploy_grid(config)
    else:
        network = deploy_uniform(config)
    if spec.relations == "self":
        world = SensorWorld.homogeneous(
            network,
            seed=spec.seed,
            area_side_m=config.area_side_m,
            drift_rate=spec.drift_rate,
        )
    else:
        world = SensorWorld.two_relations(
            network, split=0.5, seed=spec.seed, area_side_m=config.area_side_m
        )
    tree = build_routing_tree(network, routing=spec.routing, seed=spec.seed)
    query = parse_query(spec.query_sql(), world.catalog)
    return TrialSetup(
        spec=spec,
        network=network,
        world=world,
        tree=tree,
        query=query,
        fault_plan=generate_fault_plan(spec, network),
    )


def generate_fault_plan(spec: TrialSpec, network: Network) -> Optional[FaultPlan]:
    """A mixed-kind :class:`FaultPlan` derived from the spec (or ``None``).

    Crash victims and dropped links come from the actual topology, so the
    plan is deterministic given ``(spec, deployment)`` — which the spec
    itself determines.  A non-zero ``churn_rate`` additionally expands a
    :class:`~repro.sim.faults.ChurnModel` (hazard-rate departures plus
    rejoins at jittered positions) against the topology and merges its
    faults into the schedule.
    """
    if spec.fault_count == 0 and spec.churn_rate == 0.0:
        return None
    rng = random.Random(spec.seed ^ 0x5FA17)
    faults: List[Fault] = []
    candidates = sorted(network.sensor_node_ids)
    victims = rng.sample(candidates, k=min(spec.crash_count, len(candidates)))
    for victim in victims:
        faults.append(
            Fault(
                time_s=round(rng.uniform(0.0, FAULT_HORIZON_S), 9),
                kind=NODE_CRASH,
                node_a=victim,
            )
        )
    edges = sorted(
        {
            tuple(sorted((node_id, neighbour)))
            for node_id in candidates
            for neighbour in network.neighbours(node_id)
        }
    )
    for _ in range(min(spec.link_drop_count, len(edges))):
        a, b = edges[rng.randrange(len(edges))]
        faults.append(
            Fault(
                time_s=round(rng.uniform(0.0, FAULT_HORIZON_S), 9),
                kind=LINK_DROP,
                node_a=a,
                node_b=b,
            )
        )
    for _ in range(spec.burst_count):
        faults.append(
            Fault(
                time_s=round(rng.uniform(0.0, FAULT_HORIZON_S), 9),
                kind=LOSS_BURST,
                duration_s=round(rng.uniform(0.5, 5.0), 6),
                loss_rate=round(rng.uniform(0.2, 0.6), 6),
            )
        )
    if spec.churn_rate > 0:
        model = ChurnModel.from_departure_fraction(
            spec.churn_rate,
            horizon_s=FAULT_HORIZON_S,
            seed=spec.seed ^ 0xC4A2,
            rejoin_delay_s=FAULT_HORIZON_S / 4.0,
            rejoin_jitter_m=5.0,
        )
        faults.extend(model.materialize(network))
    return FaultPlan(tuple(faults))


# ---------------------------------------------------------------------------
# Synthetic codec inputs (pure-codec invariants and property tests)
# ---------------------------------------------------------------------------


def random_flagged_points(
    rng: random.Random, codec: QuadtreeCodec, max_points: int = 24
) -> List[FlaggedPoint]:
    """A random flagged point set valid for ``codec``."""
    count = rng.randrange(max_points + 1)
    points: List[FlaggedPoint] = []
    for _ in range(count):
        z = rng.randrange(1 << codec.z_bits)
        if codec.flag_bits:
            flags = rng.randrange(1, 1 << codec.flag_bits)
        else:
            flags = 0
        points.append((flags, z))
    return points


def random_coordinates(rng: random.Random, bits_per_dim: Sequence[int]) -> List[int]:
    """One random coordinate tuple for a Z-curve interleave schedule."""
    return [rng.randrange(1 << bits) for bits in bits_per_dim]


def random_values(rng: random.Random, quantizer) -> Dict[str, float]:
    """A raw join-attribute tuple; ~10% of draws land out of range to
    exercise the boundary-cell clamping path."""
    values: Dict[str, float] = {}
    for dim in quantizer.dimensions:
        span = dim.size * dim.resolution
        if rng.random() < 0.1:
            value = dim.min_value + rng.uniform(-2.0 * span, 3.0 * span)
        else:
            value = dim.min_value + rng.uniform(0.0, span)
        values[dim.name] = value
    return values
