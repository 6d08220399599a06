"""High-level query execution: snapshots, continuous queries, failure recovery.

The runner ties the substrates together the way the modelled system does
(§III "Query Processing"):

1. the query is flooded from the base station (both join methods pay this
   identically; it is recorded under its own phase label and excluded from
   the comparison metrics);
2. a snapshot is taken (each node reads its sensors exactly once, §IV-D);
3. the join algorithm runs over the converged routing tree;
4. for ``SAMPLE PERIOD x`` queries, steps 2-3 repeat every x seconds on a
   fresh snapshot ("independent executions of the query", §III).

Error tolerance (§IV-F): "If a link goes down during the execution of a
query, we rely upon the tree protocol to re-establish the routing structure.
Afterwards, we simply re-execute the query."  :func:`run_with_failures`
models exactly that: scheduled failures abort the in-flight execution, the
tree repairs over the surviving topology (orphaned nodes drop out), and the
query re-executes from a fresh snapshot.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from ..data.relations import SensorWorld
from ..errors import ExecutionAborted
from ..obs.telemetry import Telemetry
from ..query.query import JoinQuery, SamplePeriod
from ..routing.ctp import build_tree, repair_tree
from ..routing.dissemination import flood_query
from ..routing.tree import RoutingTree
from ..sim.network import Network
from .base import ExecutionContext, JoinAlgorithm, JoinOutcome
from .des_sensjoin import DesSensJoin
from .external import ExternalJoin
from .mediated import MediatedJoin
from .semijoin import SemiJoinBroadcast
from .sensjoin import SensJoin, SensJoinConfig

__all__ = [
    "run_snapshot",
    "run_continuous",
    "run_with_failures",
    "NetworkFailure",
    "make_algorithm",
    "list_engines",
    "snapshot_engine_names",
    "instrumented",
]

#: Default-constructible snapshot engines resolvable by name through
#: :func:`make_algorithm` (each implements ``execute``).
_ALGORITHMS: dict[str, Callable[[], JoinAlgorithm]] = {
    "sens-join": SensJoin,
    "external-join": ExternalJoin,
    "semijoin-broadcast": SemiJoinBroadcast,
    "mediated-join": MediatedJoin,
    "des-sensjoin": DesSensJoin,
}

#: Stateful continuous executors.  They hold per-round state and are driven
#: through ``run_round`` instead of ``execute`` (see ``repro.joins.adaptive``
#: and ``repro.joins.incremental``), so :func:`make_algorithm` cannot build
#: them — but every engine listing must still name them (the differential
#: harness drives them under these names, ``repro.verify.generators.ENGINES``).
_STATEFUL_ENGINES: dict[str, str] = {
    "adaptive": "repro.joins.adaptive.AdaptiveJoin",
    "incremental": "repro.joins.incremental.IncrementalSensJoin",
}


def snapshot_engine_names() -> list[str]:
    """Sorted names of every engine :func:`make_algorithm` can construct."""
    return sorted(_ALGORITHMS)


def list_engines() -> dict[str, str]:
    """Every registered engine, mapped to how it is driven.

    ``"snapshot"`` engines resolve through :func:`make_algorithm` and run
    one ``execute`` per query; ``"stateful"`` engines keep per-round state
    and are constructed directly, then driven via ``run_round``.  This is
    the single source of truth for user-facing engine listings (the
    ``python -m repro`` CLI help text is generated from it, and a test
    greps the two against each other).
    """
    engines = {name: "snapshot" for name in _ALGORITHMS}
    engines.update({name: "stateful" for name in _STATEFUL_ENGINES})
    return dict(sorted(engines.items()))


def make_algorithm(
    name: Union[str, JoinAlgorithm], config: Optional[SensJoinConfig] = None
) -> JoinAlgorithm:
    """Resolve an algorithm name (or pass an instance through)."""
    if isinstance(name, JoinAlgorithm):
        return name
    if name == "sens-join" and config is not None:
        return SensJoin(config)
    try:
        return _ALGORITHMS[name]()
    except KeyError:
        if name in _STATEFUL_ENGINES:
            raise ValueError(
                f"{name!r} is a stateful continuous executor "
                f"({_STATEFUL_ENGINES[name]}); construct it directly and "
                "drive it through run_round instead of execute"
            ) from None
        known = ", ".join(sorted(_ALGORITHMS))
        raise ValueError(f"unknown algorithm {name!r}; known: {known}") from None


@contextmanager
def instrumented(network: Network, telemetry: Optional[Telemetry]):
    """Attach ``telemetry`` to the network's channel for the duration.

    The channel's metrics sink and tracer are swapped in on entry and the
    previous ones restored on exit, so one network can serve both traced and
    untraced executions.  ``None`` leaves the channel exactly as it is (a
    tracer someone attached directly stays in charge).
    """
    if telemetry is None:
        yield network
        return
    channel = network.channel
    saved_telemetry = channel.telemetry
    saved_tracer = channel.tracer
    channel.telemetry = telemetry
    channel.tracer = telemetry.tracer
    try:
        yield network
    finally:
        channel.telemetry = saved_telemetry
        channel.tracer = saved_tracer


def run_snapshot(
    network: Network,
    world: SensorWorld,
    query: JoinQuery,
    algorithm: Union[str, JoinAlgorithm] = "sens-join",
    tree: Optional[RoutingTree] = None,
    snapshot_time: float = 0.0,
    disseminate_query: bool = False,
    tree_seed: int = 0,
    reset_accounting: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> JoinOutcome:
    """Execute one snapshot ("ONCE") query and return the outcome.

    Accounting starts fresh by default: the network's statistics store is
    swapped for an empty one, so the outcome reflects exactly one execution.
    ``reset_accounting=False`` lets multi-attempt drivers
    (:func:`run_with_failures`) accumulate the cost of aborted attempts
    into the final outcome's store.

    ``telemetry`` (optional) observes the execution: the channel charges
    per-node/per-phase counters into its registry, and the algorithm — if it
    supports :meth:`~repro.joins.base.JoinAlgorithm.instrument` — emits
    phase spans and protocol-decision events into its tracer.  Passing
    ``None`` (the default) leaves every accounting code path untouched.
    """
    algo = make_algorithm(algorithm)
    if telemetry is not None:
        algo.instrument(telemetry)
    if tree is None:
        tree = build_tree(network, seed=tree_seed)
    if reset_accounting:
        network.reset_accounting()
    with instrumented(network, telemetry):
        if disseminate_query:
            flood_query(network, len(query.sql().encode()))
        world.take_snapshot(snapshot_time)
        context = ExecutionContext(network=network, tree=tree, world=world, query=query)
        outcome = algo.execute(context)
    if network.link_quality is not None:
        outcome.details["retransmissions"] = float(outcome.total_retransmissions)
    return outcome


def run_continuous(
    network: Network,
    world: SensorWorld,
    query: JoinQuery,
    algorithm: Union[str, JoinAlgorithm] = "sens-join",
    executions: int = 5,
    tree: Optional[RoutingTree] = None,
    tree_seed: int = 0,
) -> List[JoinOutcome]:
    """Execute a ``SAMPLE PERIOD`` query for ``executions`` rounds.

    Each round is an independent execution over the most recent snapshot
    (§III); the world's fields evolve between rounds when built with a
    non-zero ``drift_rate``.
    """
    if not isinstance(query.mode, SamplePeriod):
        raise ValueError("run_continuous expects a SAMPLE PERIOD query")
    if executions < 1:
        raise ValueError("need at least one execution")
    algo = make_algorithm(algorithm)
    if tree is None:
        tree = build_tree(network, seed=tree_seed)
    outcomes = []
    for round_index in range(executions):
        network.reset_accounting()
        world.take_snapshot(round_index * query.mode.seconds)
        context = ExecutionContext(network=network, tree=tree, world=world, query=query)
        outcomes.append(algo.execute(context))
    return outcomes


@dataclass(frozen=True)
class NetworkFailure:
    """A scheduled topology change for the §IV-F recovery experiments.

    ``kind`` is ``"node"`` (node dies) or ``"link"`` (link goes down);
    ``node_a``/``node_b`` identify the target.  The failure strikes during
    the given execution ``attempt`` (0 = the first), aborting it.
    """

    kind: str
    node_a: int
    node_b: int = -1
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("node", "link"):
            raise ValueError(
                f"unknown failure kind {self.kind!r}; known: node, link"
            )
        if self.kind == "link" and self.node_b < 0:
            raise ValueError(
                "kind='link' needs an explicit node_b (got the default -1)"
            )
        if self.attempt < 0:
            raise ValueError(f"negative attempt index: {self.attempt}")

    def apply(self, network: Network) -> None:
        """Mutate the network topology."""
        if self.kind == "node":
            network.fail_node(self.node_a)
        else:
            network.fail_link(self.node_a, self.node_b)


def run_with_failures(
    network: Network,
    world: SensorWorld,
    query: JoinQuery,
    algorithm: Union[str, JoinAlgorithm] = "sens-join",
    failures: Sequence[NetworkFailure] = (),
    max_retries: int = 5,
    tree_seed: int = 0,
) -> JoinOutcome:
    """Execute with §IV-F semantics: abort on failure, repair, re-execute.

    Returns the outcome of the first execution that completes without a
    scheduled failure; its ``details["retries"]`` records how many attempts
    were aborted.  Raises :class:`~repro.errors.ExecutionAborted` if failures
    outlast ``max_retries``.

    Aborted attempts are not free: each one executes and spends its full
    transmission/energy budget before the failure voids it (a conservative
    model — the abort is only detected at the base station, after the
    protocol has run its course).  That cost stays in the network's
    statistics store, which accumulates across attempts into the returned
    outcome; ``details["aborted_tx_packets"]`` / ``details["aborted_energy"]``
    break out the share spent on attempts that delivered nothing.
    """
    algo = make_algorithm(algorithm)
    tree = build_tree(network, seed=tree_seed)
    pending = list(failures)
    network.reset_accounting()
    aborted_tx = 0
    aborted_energy = 0.0
    for attempt in range(max_retries + 1):
        struck = [f for f in pending if f.attempt == attempt]
        if struck:
            # The failure hits mid-execution: the attempt's cost is spent,
            # but nothing usable reaches the base station.  CTP repairs the
            # tree and the query re-executes (§IV-F).
            tx_before = network.stats.total_tx_packets()
            energy_before = network.total_energy()
            run_snapshot(
                network, world, query, algo, tree=tree,
                snapshot_time=float(attempt), reset_accounting=False,
            )
            aborted_tx += network.stats.total_tx_packets() - tx_before
            aborted_energy += network.total_energy() - energy_before
            for failure in struck:
                failure.apply(network)
                pending.remove(failure)
            report = repair_tree(network, tree, seed=tree_seed)
            tree = report.tree
            continue
        outcome = run_snapshot(
            network, world, query, algo, tree=tree,
            snapshot_time=float(attempt), reset_accounting=False,
        )
        outcome.details["retries"] = float(attempt)
        outcome.details["aborted_tx_packets"] = float(aborted_tx)
        outcome.details["aborted_energy"] = aborted_energy
        return outcome
    raise ExecutionAborted(
        f"query did not complete within {max_retries} retries; "
        f"{len(pending)} failure(s) still pending"
    )
