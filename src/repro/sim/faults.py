"""Deterministic in-flight fault injection for the DES engine (§IV-F).

The paper's error-tolerance design is reactive: "If a link goes down during
the execution of a query, we rely upon the tree protocol to re-establish the
routing structure.  Afterwards, we simply re-execute the query."  To exercise
that path *inside* the simulation (rather than between abstract attempts, as
:func:`repro.joins.runner.run_with_failures` does), this module schedules
topology changes at simulated times on the DES kernel:

``node-crash``
    The node dies mid-query: it vanishes from the connectivity graph and its
    protocol process is interrupted, so anything it had buffered (proxied
    Treecut tuples, subtree filters) is lost with it.
``link-drop``
    A bidirectional link goes down permanently; sends across it exhaust the
    link-layer ARQ budget and fail.
``loss-burst``
    A transient interference burst: for ``duration_s`` every link loses each
    packet with at least ``loss_rate`` probability.  The ARQ absorbs the
    burst (extra retransmissions, no protocol failure) unless it exceeds the
    retry bound.
``node-rejoin``
    A departed node comes back, optionally at a perturbed position (battery
    swap, reboot after transient failure).  Its links are rewired from the
    unit-disk rule at the new coordinates.
``node-move``
    One waypoint mobility step: the node relocates and the unit-disk
    adjacency is rebuilt around it (links appear and disappear).

A :class:`FaultPlan` is an immutable, time-sorted schedule; building one from
a seed (:func:`random_crash_plan`) is deterministic, so a fixed plan yields
identical retries, energy and recall on every run.  :class:`FaultInjector`
replays the plan as a kernel process sharing the engine's
:class:`~repro.sim.kernel.Environment`, emitting one
:data:`~repro.sim.trace.FAULT_INJECT` trace event per applied fault.

:class:`ChurnModel` generalizes the fixed schedule into a seeded *process*
description — hazard-rate departures, timed rejoins at perturbed positions,
and waypoint mobility steps — that :meth:`ChurnModel.materialize` expands
into a concrete, replayable :class:`FaultPlan` against a given topology.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .kernel import Environment, Process
from .network import Network
from .node import BASE_STATION_ID
from .trace import FAULT_INJECT, NullTracer, Tracer

__all__ = [
    "NODE_CRASH",
    "LINK_DROP",
    "LOSS_BURST",
    "NODE_REJOIN",
    "NODE_MOVE",
    "Fault",
    "FaultPlan",
    "ChurnModel",
    "FaultInjector",
    "random_crash_plan",
]

NODE_CRASH = "node-crash"
LINK_DROP = "link-drop"
LOSS_BURST = "loss-burst"
NODE_REJOIN = "node-rejoin"
NODE_MOVE = "node-move"

_KINDS = (NODE_CRASH, LINK_DROP, LOSS_BURST, NODE_REJOIN, NODE_MOVE)

#: Kinds whose application reads the optional ``x``/``y`` position payload.
_POSITIONED_KINDS = (NODE_REJOIN, NODE_MOVE)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault; validated at construction, applied at ``time_s``."""

    time_s: float
    kind: str
    node_a: int = -1
    node_b: int = -1
    #: ``loss-burst`` only: how long the burst lasts.
    duration_s: float = 0.0
    #: ``loss-burst`` only: per-packet loss probability floor during the burst.
    loss_rate: float = 0.0
    #: ``node-rejoin``/``node-move`` only: target position.  A rejoin with
    #: both left ``None`` revives the node where it died.
    x: Optional[float] = None
    y: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"fault time must be non-negative, got {self.time_s}")
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(_KINDS)}"
            )
        if self.kind == NODE_CRASH:
            if self.node_a < 0:
                raise ValueError("node-crash needs a target node_a")
            if self.node_a == BASE_STATION_ID:
                raise ValueError("the base station is mains powered and does not crash")
        elif self.kind == LINK_DROP:
            if self.node_a < 0 or self.node_b < 0:
                raise ValueError("link-drop needs both node_a and node_b")
            if self.node_a == self.node_b:
                raise ValueError(f"a node has no link to itself: {self.node_a}")
        elif self.kind == LOSS_BURST:
            if self.duration_s <= 0:
                raise ValueError("loss-burst needs a positive duration_s")
            if not 0.0 < self.loss_rate <= 1.0:
                raise ValueError(
                    f"loss-burst loss_rate must be in (0, 1], got {self.loss_rate}"
                )
        else:  # NODE_REJOIN / NODE_MOVE
            if self.node_a < 0:
                raise ValueError(f"{self.kind} needs a target node_a")
            if self.node_a == BASE_STATION_ID:
                raise ValueError("the base station neither departs nor moves")
            if (self.x is None) != (self.y is None):
                raise ValueError(f"{self.kind} needs both x and y (or neither)")
            if self.kind == NODE_MOVE and self.x is None:
                raise ValueError("node-move needs a destination (x, y)")

    def _sort_key(self) -> Tuple[float, str, int, int]:
        return (self.time_s, self.kind, self.node_a, self.node_b)

    def to_dict(self) -> dict:
        """JSON-ready representation (for repro artifacts and traces).

        The position payload is emitted only for the positioned kinds, so
        pre-churn plans serialize exactly as they always did.
        """
        data = {
            "time_s": self.time_s,
            "kind": self.kind,
            "node_a": self.node_a,
            "node_b": self.node_b,
            "duration_s": self.duration_s,
            "loss_rate": self.loss_rate,
        }
        if self.x is not None:
            data["x"] = self.x
            data["y"] = self.y
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Fault":
        """Inverse of :meth:`to_dict`; re-runs construction validation."""
        x = data.get("x")
        y = data.get("y")
        return cls(
            time_s=float(data["time_s"]),
            kind=str(data["kind"]),
            node_a=int(data.get("node_a", -1)),
            node_b=int(data.get("node_b", -1)),
            duration_s=float(data.get("duration_s", 0.0)),
            loss_rate=float(data.get("loss_rate", 0.0)),
            x=float(x) if x is not None else None,
            y=float(y) if y is not None else None,
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults, sorted by injection time."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.faults, key=Fault._sort_key))
        object.__setattr__(self, "faults", ordered)

    @classmethod
    def empty(cls) -> "FaultPlan":
        """A plan that injects nothing (the engine treats it as no plan)."""
        return cls(())

    def to_dict(self) -> dict:
        """JSON-ready representation; round-trips through :meth:`from_dict`."""
        return {"faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (order-insensitive)."""
        return cls(tuple(Fault.from_dict(entry) for entry in data.get("faults", ())))

    @property
    def crashed_nodes(self) -> Tuple[int, ...]:
        """Targets of the plan's node crashes, in injection order."""
        return tuple(f.node_a for f in self.faults if f.kind == NODE_CRASH)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)


def random_crash_plan(
    node_ids: Sequence[int],
    crash_count: int,
    horizon_s: float = 1.0,
    seed: int = 0,
) -> FaultPlan:
    """Crash ``crash_count`` distinct nodes at uniform times in ``[0, horizon_s]``.

    Deterministic for a fixed ``seed``: the same victims crash at the same
    simulated times on every run.  The base station is never a victim.
    """
    if crash_count < 0:
        raise ValueError(f"negative crash count: {crash_count}")
    if horizon_s < 0:
        raise ValueError(f"negative horizon: {horizon_s}")
    candidates = sorted(n for n in node_ids if n != BASE_STATION_ID)
    if crash_count > len(candidates):
        raise ValueError(
            f"cannot crash {crash_count} of {len(candidates)} candidate nodes"
        )
    rng = random.Random(seed)
    victims = rng.sample(candidates, k=crash_count)
    faults = tuple(
        Fault(time_s=rng.uniform(0.0, horizon_s), kind=NODE_CRASH, node_a=victim)
        for victim in victims
    )
    return FaultPlan(faults)


@dataclass(frozen=True)
class ChurnModel:
    """A seeded continuous-churn process over a deployment.

    Where :class:`FaultPlan` is a fixed schedule, a churn model is a
    *distribution* over schedules: per-node hazard-rate departures (each
    alive node departs after an exponential holding time), timed rejoins at
    positions perturbed from the departure point, and Poisson waypoint
    mobility steps that relocate nodes and rewire their unit-disk links.

    The model is pure data; :meth:`materialize` expands it against a
    concrete topology into an ordinary :class:`FaultPlan` using only
    ``random.Random(seed)`` state, so a (model, network) pair always yields
    the same plan — churn runs replay deterministically and round-trip
    through repro artifacts like any other fault schedule.

    A model with zero ``departure_rate`` and zero ``move_rate`` is falsy and
    materializes to the empty plan: engines and the broker treat it exactly
    as "no churn", preserving byte-identity of churn-free runs.
    """

    #: Per-node departure hazard (departures per node-second); the holding
    #: time before a node departs is ``Exp(departure_rate)``.
    departure_rate: float = 0.0
    #: Mean downtime before a departed node rejoins; ``0`` makes departures
    #: permanent.  Actual downtime is uniform in ``[0.5, 1.5] * mean``.
    rejoin_delay_s: float = 0.0
    #: Per-axis uniform perturbation of the rejoin position (battery-swapped
    #: nodes rarely land on the exact same spot); ``0`` rejoins in place.
    rejoin_jitter_m: float = 0.0
    #: Per-node waypoint-step hazard (steps per node-second).
    move_rate: float = 0.0
    #: Per-axis uniform displacement bound of one waypoint step.
    move_step_m: float = 0.0
    #: Churn is generated for simulated times in ``[0, horizon_s)``.
    horizon_s: float = 1.0
    seed: int = 0
    #: Cap on the fraction of sensor nodes that may depart over the horizon
    #: (earliest departures win); keeps heavy-tailed draws from emptying the
    #: deployment.
    max_departed_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.departure_rate < 0 or self.move_rate < 0:
            raise ValueError("churn rates must be non-negative")
        if self.rejoin_delay_s < 0 or self.rejoin_jitter_m < 0 or self.move_step_m < 0:
            raise ValueError("churn delays and distances must be non-negative")
        if self.horizon_s <= 0:
            raise ValueError(f"churn horizon must be positive, got {self.horizon_s}")
        if not 0.0 <= self.max_departed_fraction <= 1.0:
            raise ValueError(
                f"max_departed_fraction must be in [0, 1], got {self.max_departed_fraction}"
            )
        if self.move_rate > 0 and self.move_step_m <= 0:
            raise ValueError("mobility needs a positive move_step_m")

    def __bool__(self) -> bool:
        """True iff the model can generate any fault at all."""
        return self.departure_rate > 0 or self.move_rate > 0

    @classmethod
    def from_departure_fraction(
        cls,
        fraction: float,
        horizon_s: float = 1.0,
        seed: int = 0,
        **kwargs,
    ) -> "ChurnModel":
        """Model whose *expected* departed fraction over the horizon is ``fraction``.

        Inverts the exponential survival function: ``P(depart before H) =
        1 - exp(-rate * H) = fraction``.  Extra keyword arguments (rejoin,
        mobility) pass through to the constructor.
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"departure fraction must be in [0, 1), got {fraction}")
        rate = -math.log(1.0 - fraction) / horizon_s if fraction > 0 else 0.0
        return cls(departure_rate=rate, horizon_s=horizon_s, seed=seed, **kwargs)

    def to_dict(self) -> dict:
        """JSON-ready representation; round-trips through :meth:`from_dict`."""
        return {
            "departure_rate": self.departure_rate,
            "rejoin_delay_s": self.rejoin_delay_s,
            "rejoin_jitter_m": self.rejoin_jitter_m,
            "move_rate": self.move_rate,
            "move_step_m": self.move_step_m,
            "horizon_s": self.horizon_s,
            "seed": self.seed,
            "max_departed_fraction": self.max_departed_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChurnModel":
        """Inverse of :meth:`to_dict`; re-runs construction validation."""
        return cls(
            departure_rate=float(data.get("departure_rate", 0.0)),
            rejoin_delay_s=float(data.get("rejoin_delay_s", 0.0)),
            rejoin_jitter_m=float(data.get("rejoin_jitter_m", 0.0)),
            move_rate=float(data.get("move_rate", 0.0)),
            move_step_m=float(data.get("move_step_m", 0.0)),
            horizon_s=float(data.get("horizon_s", 1.0)),
            seed=int(data.get("seed", 0)),
            max_departed_fraction=float(data.get("max_departed_fraction", 0.5)),
        )

    def materialize(self, network: Network) -> FaultPlan:
        """Expand the model into a concrete plan for ``network``'s topology.

        Deterministic: node ids are visited in sorted order and every draw
        comes from one ``random.Random`` stream keyed on ``seed``, so the
        same (model, deployment) pair replays identically.  Rejoin positions
        perturb the node's *pre-churn* coordinates.
        """
        if not self:
            return FaultPlan.empty()
        rng = random.Random(f"churn-{self.seed}")
        candidates = sorted(
            node_id
            for node_id, node in network.nodes.items()
            if node_id != BASE_STATION_ID and node.alive
        )
        faults: List[Fault] = []
        if self.departure_rate > 0:
            departures = []
            for node_id in candidates:
                holding = rng.expovariate(self.departure_rate)
                if holding < self.horizon_s:
                    departures.append((holding, node_id))
            departures.sort()
            cap = int(len(candidates) * self.max_departed_fraction)
            departures = departures[:cap]
            for time_s, node_id in departures:
                faults.append(Fault(time_s=time_s, kind=NODE_CRASH, node_a=node_id))
                if self.rejoin_delay_s > 0:
                    downtime = rng.uniform(0.5, 1.5) * self.rejoin_delay_s
                    back_at = time_s + downtime
                    jitter = self.rejoin_jitter_m
                    # Draw the perturbation unconditionally so the stream
                    # advances identically whether or not the rejoin lands
                    # inside the horizon.
                    dx = rng.uniform(-jitter, jitter)
                    dy = rng.uniform(-jitter, jitter)
                    if back_at < self.horizon_s:
                        node = network.nodes[node_id]
                        position = (
                            {"x": node.x + dx, "y": node.y + dy}
                            if jitter > 0
                            else {}
                        )
                        faults.append(
                            Fault(
                                time_s=back_at,
                                kind=NODE_REJOIN,
                                node_a=node_id,
                                **position,
                            )
                        )
        if self.move_rate > 0:
            for node_id in candidates:
                node = network.nodes[node_id]
                cur_x, cur_y = node.x, node.y
                time_s = rng.expovariate(self.move_rate)
                while time_s < self.horizon_s:
                    cur_x += rng.uniform(-self.move_step_m, self.move_step_m)
                    cur_y += rng.uniform(-self.move_step_m, self.move_step_m)
                    faults.append(
                        Fault(
                            time_s=time_s,
                            kind=NODE_MOVE,
                            node_a=node_id,
                            x=cur_x,
                            y=cur_y,
                        )
                    )
                    time_s += rng.expovariate(self.move_rate)
        return FaultPlan(tuple(faults))


class FaultInjector:
    """Replays a :class:`FaultPlan` on a live simulation.

    Runs as a kernel process on the engine's environment; each fault is
    applied at its scheduled simulated time.  ``on_node_crash`` lets the
    engine interrupt the dead node's protocol process the instant the crash
    lands (the process must not keep sending from beyond the grave);
    ``on_node_rejoin`` symmetrically lets it spawn a protocol process for a
    node that came back mid-run (or mark the topology dirty for the next
    repair pass).

    Loss bursts are implemented by swapping the channel's
    ``loss_probability`` for a wrapper that floors every link at the highest
    active burst rate; the original callable (possibly ``None``) is restored
    when the last burst expires.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        plan: FaultPlan,
        tracer: Optional[Tracer] = None,
        on_node_crash: Optional[Callable[[int], None]] = None,
        telemetry: Optional[Telemetry] = None,
        on_node_rejoin: Optional[Callable[[int], None]] = None,
    ):
        self.env = env
        self.network = network
        self.plan = plan
        self.tracer = tracer if tracer is not None else NullTracer()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.on_node_crash = on_node_crash
        self.on_node_rejoin = on_node_rejoin
        self.applied: List[Fault] = []
        self._active_bursts: List[float] = []
        self._base_loss: Optional[Callable[[int, int], float]] = None

    def start(self) -> Process:
        """Register the injection process; call once, before ``env.run``."""
        return self.env.process(self._run())

    # -- internals -----------------------------------------------------------

    def _run(self):
        for fault in self.plan:
            delay = fault.time_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._apply(fault)

    def _apply(self, fault: Fault) -> None:
        if fault.kind == NODE_CRASH:
            node = self.network.nodes.get(fault.node_a)
            if node is None:
                raise SimulationError(f"fault targets unknown node {fault.node_a}")
            if node.alive:
                self.network.fail_node(fault.node_a)
                if self.on_node_crash is not None:
                    self.on_node_crash(fault.node_a)
        elif fault.kind == LINK_DROP:
            self.network.fail_link(fault.node_a, fault.node_b)
        elif fault.kind == NODE_REJOIN:
            self.network.revive_node(fault.node_a, fault.x, fault.y)
            if self.on_node_rejoin is not None:
                self.on_node_rejoin(fault.node_a)
        elif fault.kind == NODE_MOVE:
            self.network.move_node(fault.node_a, fault.x, fault.y)
        else:
            self._start_burst(fault)
        self.applied.append(fault)
        reg = self.telemetry.registry
        if reg.enabled:
            reg.counter("faults_injected_total", kind=fault.kind).inc()
        detail = {
            "fault": fault.kind,
            "node_b": fault.node_b,
            "duration_s": fault.duration_s,
            "loss_rate": fault.loss_rate,
        }
        if fault.kind in _POSITIONED_KINDS:
            # Position payload only for the churn kinds: pre-churn traces
            # keep their exact historical shape.
            detail["x"] = fault.x
            detail["y"] = fault.y
        self.tracer.emit(self.env.now, fault.node_a, FAULT_INJECT, **detail)

    def _burst_loss(self, sender: int, receiver: int) -> float:
        base = self._base_loss(sender, receiver) if self._base_loss is not None else 0.0
        if not self._active_bursts:
            return base
        return max(base, max(self._active_bursts))

    def _start_burst(self, fault: Fault) -> None:
        channel = self.network.channel
        if not self._active_bursts:
            self._base_loss = channel.loss_probability
            channel.loss_probability = self._burst_loss
        self._active_bursts.append(fault.loss_rate)
        self.env.process(self._end_burst(fault.loss_rate, fault.duration_s))

    def _end_burst(self, loss_rate: float, duration_s: float):
        yield self.env.timeout(duration_s)
        self._active_bursts.remove(loss_rate)
        if not self._active_bursts:
            self.network.channel.loss_probability = self._base_loss
            self._base_loss = None
