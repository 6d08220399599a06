"""Simulated-time series: ring-bounded samples, rolling windows, SLOs.

The registry (:mod:`repro.obs.metrics`) answers *how much* a run cost; this
module answers *when* and *where* the cost accrued.  Three pieces:

:class:`Series`
    A named, labelled sequence of ``(time, value)`` points with bounded
    (ring) storage — evictions are counted in ``dropped``, mirroring
    :class:`~repro.sim.trace.RingTracer`, so exports stay honest about
    truncation.
:class:`WindowedAggregate`
    A rolling window over simulated seconds with count/sum/mean/min/max,
    nearest-rank percentiles and an events-per-second rate — the arithmetic
    behind the broker's latency/throughput/deadline-miss monitors.
:class:`MetricsSampler`
    The actual sampler: probes (per-node network gauges, routing-tree
    depth/churn, registry counter snapshots, or anything a caller
    registers) are evaluated every ``period_s`` simulated seconds and the
    readings appended to series.  Declarative :class:`SloPolicy` bounds are
    checked at every tick; a breach emits an ``slo-violation`` trace event
    and increments ``slo_violations_total{policy=...}``.

Three drive modes cover every engine in the repo:

* ``sampler.attach(env)`` registers a periodic kernel process
  (:meth:`repro.sim.kernel.Environment.every`) — the DES engine's mode;
* ``sampler.advance_to(now)`` emits every tick due up to ``now`` — the
  broker's mode (its synchronous clock jumps batch to batch);
* ``sampler.sample(now)`` takes one snapshot explicitly.

Sampling is **off by default** everywhere: no protocol constructs a
sampler on its own, and a run without one is byte-identical to a build
without this module.  A sampler over :data:`~repro.obs.telemetry.NULL_TELEMETRY`
is safe — series still record; only the SLO counter and trace event sinks
are no-ops.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ReproError
from ..sim.node import BASE_STATION_ID
from ..sim.trace import SLO_VIOLATION
from .telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "Series",
    "WindowedAggregate",
    "SloPolicy",
    "MetricsSampler",
    "DEFAULT_SERIES_CAPACITY",
]

#: Ring bound per series: at a 1 s cadence this is ~17 simulated minutes of
#: history per gauge, and a 150-node run stays well under 1 MB of points.
DEFAULT_SERIES_CAPACITY = 1024

#: One probe reading: ``(series_name, labels, value)``.
Reading = Tuple[str, Mapping[str, Any], float]


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


class Series:
    """A named, labelled, ring-bounded sequence of ``(time, value)`` points."""

    __slots__ = ("name", "labels", "capacity", "_points", "dropped")

    def __init__(
        self,
        name: str,
        labels: Optional[Mapping[str, Any]] = None,
        capacity: int = DEFAULT_SERIES_CAPACITY,
    ):
        if not name or not isinstance(name, str):
            raise ValueError(f"series name must be a non-empty string, got {name!r}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.name = name
        self.labels: Dict[str, Any] = dict(labels or {})
        self.capacity = capacity
        self._points: deque[Tuple[float, float]] = deque(maxlen=capacity)
        #: Points discarded because the ring was full (oldest-first).
        self.dropped = 0

    def append(self, time_s: float, value: float) -> None:
        """Record one sample; evicts the oldest point when the ring is full."""
        time_s = _require_finite(time_s, "sample time")
        value = _require_finite(value, f"series {self.name!r} value")
        if self._points and time_s < self._points[-1][0]:
            raise ValueError(
                f"series {self.name!r} sampled backwards in time: "
                f"{time_s} after {self._points[-1][0]}"
            )
        if len(self._points) == self.capacity:
            self.dropped += 1
        self._points.append((time_s, value))

    @property
    def points(self) -> List[Tuple[float, float]]:
        """The retained ``(time, value)`` points, oldest first."""
        return list(self._points)

    def times(self) -> List[float]:
        return [t for t, _ in self._points]

    def values(self) -> List[float]:
        return [v for _, v in self._points]

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        """The most recent point, or None if nothing was sampled yet."""
        return self._points[-1] if self._points else None

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(self._points)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Series({self.name!r}, labels={self.labels!r}, "
            f"points={len(self._points)}, dropped={self.dropped})"
        )


class WindowedAggregate:
    """Rolling statistics over the last ``window_s`` simulated seconds.

    ``observe(t, v)`` appends and evicts everything older than
    ``t - window_s``; observations must arrive in non-decreasing time order
    (simulated clocks never run backwards).  Percentiles are nearest-rank
    over the retained values — the same convention as
    :meth:`repro.service.broker.BrokerReport.latency_percentile` — computed
    against a sorted mirror kept incrementally, so a tick that reads p50,
    p95 and p99 sorts nothing.
    """

    __slots__ = ("window_s", "_points", "_sorted", "_sum")

    def __init__(self, window_s: float):
        if window_s <= 0:
            raise ValueError(f"window must be positive, got {window_s!r}")
        self.window_s = float(window_s)
        self._points: deque[Tuple[float, float]] = deque()
        self._sorted: List[float] = []
        self._sum = 0.0

    def observe(self, time_s: float, value: float) -> None:
        time_s = _require_finite(time_s, "observation time")
        value = _require_finite(value, "observation value")
        if self._points and time_s < self._points[-1][0]:
            raise ValueError(
                f"window observed backwards in time: {time_s} "
                f"after {self._points[-1][0]}"
            )
        self._points.append((time_s, value))
        insort(self._sorted, value)
        self._sum += value
        self._evict(time_s)

    def advance(self, now: float) -> None:
        """Evict expired points without adding one (an idle tick)."""
        self._evict(float(now))

    def _evict(self, now: float) -> None:
        horizon = now - self.window_s
        points = self._points
        while points and points[0][0] < horizon:
            _, old = points.popleft()
            # Remove one occurrence from the sorted mirror (bisect gives the
            # leftmost index of an equal run; any occurrence is equivalent).
            index = bisect_left(self._sorted, old)
            del self._sorted[index]
            self._sum -= old

    @property
    def count(self) -> int:
        return len(self._points)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / len(self._points) if self._points else 0.0

    @property
    def minimum(self) -> float:
        return self._sorted[0] if self._sorted else 0.0

    @property
    def maximum(self) -> float:
        return self._sorted[-1] if self._sorted else 0.0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of the windowed values (0 when empty)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        if not self._sorted:
            return 0.0
        rank = int(round(fraction * (len(self._sorted) - 1)))
        return self._sorted[max(0, min(rank, len(self._sorted) - 1))]

    def rate(self) -> float:
        """Observations per simulated second over the window."""
        return len(self._points) / self.window_s


@dataclass(frozen=True)
class SloPolicy:
    """A declarative bound on one sampled series.

    At every sampling tick the monitor reads the named (unlabelled) series'
    current value; a value above ``max_value`` or below ``min_value`` is a
    violation — an ``slo-violation`` trace event is emitted and
    ``slo_violations_total{policy=...}`` incremented.  A policy with
    neither bound is rejected (it could never fire).
    """

    name: str
    series: str
    max_value: Optional[float] = None
    min_value: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SloPolicy needs a non-empty name")
        if not self.series:
            raise ValueError(f"SloPolicy {self.name!r} needs a series name")
        if self.max_value is None and self.min_value is None:
            raise ValueError(
                f"SloPolicy {self.name!r} needs max_value and/or min_value"
            )

    def ok(self, value: float) -> bool:
        """True when ``value`` satisfies the bound(s)."""
        if self.max_value is not None and value > self.max_value:
            return False
        if self.min_value is not None and value < self.min_value:
            return False
        return True

    def bound_text(self) -> str:
        parts = []
        if self.max_value is not None:
            parts.append(f"<= {self.max_value:g}")
        if self.min_value is not None:
            parts.append(f">= {self.min_value:g}")
        return " and ".join(parts)


class _NetworkWatch:
    """Per-node gauge probe over a live :class:`~repro.sim.network.Network`.

    ``reset_accounting`` swaps in a fresh statistics store between broker
    epochs, so raw reads would saw-tooth.  The watch keeps a banked base per
    node and exposes *cumulative* spend/traffic: the driver calls
    :meth:`bank` immediately before each reset (see
    ``QueryBroker._reset_accounting``), and a read that is smaller than the
    previous one (a reset the driver could not announce) banks defensively.
    """

    def __init__(self, network, battery_j: Optional[float] = None):
        self.network = network
        self.battery_j = battery_j
        self._energy_base: Dict[int, float] = {}
        self._energy_last: Dict[int, float] = {}
        self._tx_base: Dict[int, float] = {}
        self._tx_last: Dict[int, float] = {}
        self._rx_base: Dict[int, float] = {}
        self._rx_last: Dict[int, float] = {}

    def bank(self) -> None:
        """Fold the current readings into the per-node base offsets."""
        for node_id, energy in self.network.energy_by_node().items():
            self._energy_base[node_id] = self._energy_base.get(node_id, 0.0) + energy
            self._energy_last[node_id] = 0.0
        stats = self.network.stats
        for node_id in self.network.nodes:
            self._tx_base[node_id] = self._tx_base.get(node_id, 0.0) + float(
                stats.node_tx_packets(node_id)
            )
            self._tx_last[node_id] = 0.0
            self._rx_base[node_id] = self._rx_base.get(node_id, 0.0) + float(
                stats.node_rx_packets(node_id)
            )
            self._rx_last[node_id] = 0.0

    def _cumulative(
        self,
        node_id: int,
        raw: float,
        base: Dict[int, float],
        last: Dict[int, float],
    ) -> float:
        previous = last.get(node_id, 0.0)
        if raw < previous:  # an unannounced reset: bank the finished epoch
            base[node_id] = base.get(node_id, 0.0) + previous
        last[node_id] = raw
        return base.get(node_id, 0.0) + raw

    def __call__(self, now: float) -> Iterable[Reading]:
        stats = self.network.stats
        spent = self.network.energy_by_node()
        for node_id in sorted(spent):
            labels = {"node": node_id}
            energy = self._cumulative(
                node_id, spent[node_id], self._energy_base, self._energy_last
            )
            yield "node_energy_j", labels, energy
            if self.battery_j is not None:
                yield "node_residual_j", labels, self.battery_j - energy
            yield "node_tx_packets", labels, self._cumulative(
                node_id, float(stats.node_tx_packets(node_id)),
                self._tx_base, self._tx_last,
            )
            yield "node_rx_packets", labels, self._cumulative(
                node_id, float(stats.node_rx_packets(node_id)),
                self._rx_base, self._rx_last,
            )


class _TreeWatch:
    """Tree-depth gauges plus a parent-churn counter between ticks."""

    def __init__(self, provider: Callable[[], Any]):
        self.provider = provider
        self._previous_parents: Optional[Dict[int, Optional[int]]] = None
        self._churn_total = 0

    def __call__(self, now: float) -> Iterable[Reading]:
        tree = self.provider()
        parents = dict(tree.as_parent_map())
        if self._previous_parents is not None:
            changed = sum(
                1
                for node_id, parent in parents.items()
                if self._previous_parents.get(node_id, parent) != parent
            )
            changed += sum(
                1 for node_id in self._previous_parents if node_id not in parents
            )
            self._churn_total += changed
        self._previous_parents = parents
        yield "tree_parent_churn_total", {}, float(self._churn_total)
        yield "tree_height", {}, float(tree.height)
        for node_id in sorted(parents):
            yield "node_tree_depth", {"node": node_id}, float(tree.depth(node_id))


class MetricsSampler:
    """Snapshot probes into ring-bounded series every N simulated seconds.

    Construction is cheap and side-effect free; the sampler only runs when
    a driver ticks it (kernel process, ``advance_to``, or ``sample``).
    """

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        period_s: float = 1.0,
        capacity: int = DEFAULT_SERIES_CAPACITY,
        policies: Sequence[SloPolicy] = (),
    ):
        if period_s <= 0:
            raise ValueError(f"sampling period must be positive, got {period_s!r}")
        if capacity <= 0:
            raise ValueError(f"series capacity must be positive, got {capacity}")
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.period_s = float(period_s)
        self.capacity = capacity
        self.policies: Tuple[SloPolicy, ...] = tuple(policies)
        names = [p.name for p in self.policies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SloPolicy names: {names}")
        self._series: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], Series] = {}
        self._probes: List[Callable[[float], Iterable[Reading]]] = []
        self._network_watch: Optional[_NetworkWatch] = None
        self._counter_names: Tuple[str, ...] = ()
        #: Number of samples taken so far (ticks across all drive modes).
        self.samples_taken = 0
        #: Time of the most recent sample; ``advance_to`` continues from here.
        self.last_sample_s: Optional[float] = None
        #: Violations recorded per policy name (also counted in the registry).
        self.violations: Dict[str, int] = {}

    # -- series storage ------------------------------------------------------

    def series(self, name: str, **labels: Any) -> Series:
        """The series for ``name`` + ``labels``, created on first use."""
        key = (name, tuple(sorted(labels.items())))
        found = self._series.get(key)
        if found is None:
            found = Series(name, labels, capacity=self.capacity)
            self._series[key] = found
        return found

    def all_series(self) -> List[Series]:
        """Every series, deterministically ordered (name, then labels)."""
        return [
            self._series[key]
            for key in sorted(self._series, key=lambda k: (k[0], repr(k[1])))
        ]

    @property
    def dropped(self) -> int:
        """Total ring evictions across all series (sampler overflow)."""
        return sum(series.dropped for series in self._series.values())

    def __len__(self) -> int:
        return len(self._series)

    # -- probes --------------------------------------------------------------

    def add_probe(self, probe: Callable[[float], Iterable[Reading]]) -> None:
        """Register ``probe(now) -> iterable of (name, labels, value)``."""
        self._probes.append(probe)

    def watch_network(self, network, battery_j: Optional[float] = None) -> None:
        """Sample per-node energy and tx/rx traffic gauges from ``network``.

        ``battery_j`` additionally derives ``node_residual_j`` (initial
        budget minus cumulative spend) — the lifetime view power-aware
        routing optimizes for.
        """
        if self._network_watch is not None:
            raise ReproError("sampler already watches a network")
        self._network_watch = _NetworkWatch(network, battery_j)
        self._probes.append(self._network_watch)

    def watch_tree(self, provider: Callable[[], Any]) -> None:
        """Sample tree depth/height and parent churn; ``provider`` returns
        the *current* :class:`~repro.routing.tree.RoutingTree` (it changes
        when a broker heals after churn)."""
        self._probes.append(_TreeWatch(provider))

    def watch_counters(self, names: Sequence[str]) -> None:
        """Snapshot ``registry.total(name)`` for each name at every tick."""
        self._counter_names = tuple(names)

    def note_network_reset(self) -> None:
        """Bank per-node readings before a ``reset_accounting`` wipe."""
        if self._network_watch is not None:
            self._network_watch.bank()

    # -- drive modes ---------------------------------------------------------

    def sample(self, now: float) -> None:
        """Take one snapshot at simulated time ``now``."""
        now = _require_finite(now, "sample time")
        tick_values: Dict[str, float] = {}
        for probe in self._probes:
            for name, labels, value in probe(now):
                self.series(name, **labels).append(now, value)
                if not labels:
                    tick_values[name] = value
        registry = self.telemetry.registry
        if self._counter_names and registry.enabled:
            for name in self._counter_names:
                value = registry.total(name)
                self.series(name).append(now, value)
                tick_values[name] = value
        self.samples_taken += 1
        self.last_sample_s = now
        self._check_policies(now, tick_values)

    def advance_to(self, now: float) -> int:
        """Emit every tick due in ``(last_sample, now]``; returns the count.

        Ticks land on multiples of ``period_s`` from time zero, so two runs
        that reach the same clock the same way produce identical series
        regardless of how often the driver calls this.
        """
        now = _require_finite(now, "advance time")
        emitted = 0
        last = self.last_sample_s if self.last_sample_s is not None else 0.0
        next_tick = (math.floor(last / self.period_s) + 1) * self.period_s
        while next_tick <= now:
            self.sample(next_tick)
            emitted += 1
            next_tick += self.period_s
        return emitted

    def flush(self, now: float) -> bool:
        """One final off-grid sample at ``now`` (end of run), if it is newer
        than the last tick.  Returns True when a sample was taken."""
        if self.last_sample_s is not None and now <= self.last_sample_s:
            return False
        self.sample(now)
        return True

    def attach(self, env) -> Any:
        """Register the sampler as a periodic kernel process on ``env``.

        Returns the :class:`~repro.sim.kernel.Process` so callers can
        interrupt it; see :meth:`repro.sim.kernel.Environment.every`.
        """
        return env.every(self.period_s, self.sample)

    # -- SLO monitoring ------------------------------------------------------

    def _check_policies(self, now: float, values: Mapping[str, float]) -> None:
        if not self.policies:
            return
        registry = self.telemetry.registry
        for policy in self.policies:
            value = values.get(policy.series)
            if value is None or policy.ok(value):
                continue
            self.violations[policy.name] = self.violations.get(policy.name, 0) + 1
            self.telemetry.tracer.emit(
                now,
                BASE_STATION_ID,
                SLO_VIOLATION,
                policy=policy.name,
                series=policy.series,
                value=round(value, 9),
                bound=policy.bound_text(),
            )
            if registry.enabled:
                registry.counter("slo_violations_total", policy=policy.name).inc()
