"""The telemetry handle threaded through the simulation.

A :class:`Telemetry` bundles the two halves of observability — a
:class:`~repro.sim.trace.Tracer` for narrative events and a
:class:`~repro.obs.metrics.MetricsRegistry` for numbers — behind one object
that protocol code can hold unconditionally.  The module-level
:data:`NULL_TELEMETRY` is the default everywhere: both halves are no-ops and
``enabled`` is ``False``, so instrumented code paths stay byte-identical to
their uninstrumented behaviour (no extra RNG draws, no extra allocation on
the packet hot path).

Phase spans
-----------

:meth:`Telemetry.span` is a context manager that brackets a protocol phase:

.. code-block:: python

    with telemetry.span("filter-dissemination", node_id=0, start=t0) as sp:
        ...
        sp.end = last_arrival   # analytic protocols set the end explicitly

On entry it emits a :data:`~repro.sim.trace.SPAN_START` event; on exit a
:data:`~repro.sim.trace.SPAN_END` event carrying ``duration_s``, and the
duration is observed into the ``span_seconds`` histogram labelled with the
span name.  Simulated time comes either from an explicit ``start=``/
``sp.end`` (the synchronous :class:`~repro.joins.sensjoin.SensJoin` computes
its phase boundaries analytically) or from the ``clock`` callable (the DES
engine passes ``lambda: env.now``).  Spans nest and are exception-safe: a
span abandoned by a phase timeout still closes, flagged ``ok=False``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from ..sim.trace import (
    ListTracer,
    NullTracer,
    RingTracer,
    SPAN_END,
    SPAN_START,
    Tracer,
)
from .metrics import MetricsRegistry, NULL_REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.network import Network

__all__ = ["Telemetry", "Span", "NULL_TELEMETRY", "instrumented"]


class Span:
    """A live phase span; mutate :attr:`end` to override the close time."""

    __slots__ = ("name", "node_id", "labels", "start", "end", "ok")

    def __init__(self, name: str, node_id: int, start: float, labels: dict[str, Any]):
        self.name = name
        self.node_id = node_id
        self.labels = labels
        self.start = start
        #: Close time; defaults to the clock (or :attr:`start`) at exit.
        self.end: Optional[float] = None
        self.ok = True

    @property
    def duration_s(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Telemetry:
    """Tracer + registry + clock, with a cheap disabled default.

    ``clock`` supplies "now" in simulated seconds for spans that do not pass
    explicit times; it defaults to a constant 0.0 (fine for analytic
    protocols, which always pass explicit times).
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NullTracer()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.clock = clock if clock is not None else (lambda: 0.0)

    @property
    def enabled(self) -> bool:
        """True when any half of the telemetry does real work."""
        return self.registry.enabled or not isinstance(self.tracer, NullTracer)

    @classmethod
    def capture(
        cls,
        capacity: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> "Telemetry":
        """A live telemetry: recording tracer + real registry.

        ``capacity`` bounds the tracer (:class:`RingTracer`); ``None`` keeps
        everything (:class:`ListTracer`).
        """
        tracer: Tracer = ListTracer() if capacity is None else RingTracer(capacity)
        return cls(tracer=tracer, registry=MetricsRegistry(), clock=clock)

    def with_clock(self, clock: Callable[[], float]) -> "Telemetry":
        """This telemetry's sinks under a different clock (shared state)."""
        return Telemetry(tracer=self.tracer, registry=self.registry, clock=clock)

    @contextmanager
    def span(
        self,
        name: str,
        node_id: int = -1,
        start: Optional[float] = None,
        **labels: Any,
    ) -> Iterator[Span]:
        """Bracket a protocol phase with start/end events and a histogram.

        See the module docstring for semantics.  With telemetry disabled
        this still yields a :class:`Span` (so callers can set ``sp.end``
        unconditionally) but emits and observes nothing.
        """
        t0 = self.clock() if start is None else start
        sp = Span(name, node_id, t0, labels)
        if not self.enabled:
            yield sp
            return
        self.tracer.emit(t0, node_id, SPAN_START, span=name, **labels)
        try:
            yield sp
        except BaseException:
            sp.ok = False
            raise
        finally:
            t1 = sp.end if sp.end is not None else self.clock()
            if t1 < t0:
                t1 = t0
            self.tracer.emit(
                t1,
                node_id,
                SPAN_END,
                span=name,
                duration_s=t1 - t0,
                ok=sp.ok,
                **labels,
            )
            self.registry.histogram("span_seconds", span=name, **labels).observe(t1 - t0)


#: The disabled default: no tracer, no registry, zero-duration clock.
NULL_TELEMETRY = Telemetry(tracer=NullTracer(), registry=NULL_REGISTRY)


@contextmanager
def instrumented(network: "Network", telemetry: Optional[Telemetry]):
    """Install ``telemetry`` as the network's run telemetry for the duration.

    ``network.channel.telemetry`` is the one place a run's telemetry lives:
    the channel, the engines, the fault injector and tree repair all read
    their tracer, registry and clock from it.  The previous telemetry is
    restored on exit, so one network can serve both traced and untraced
    executions.  ``None`` leaves the channel exactly as it is (a telemetry
    someone attached directly stays in charge).
    """
    if telemetry is None:
        yield network
        return
    channel = network.channel
    saved = channel.telemetry
    channel.telemetry = telemetry
    try:
        yield network
    finally:
        channel.telemetry = saved
