"""The invariant catalogue the differential harness checks after every trial.

Each invariant is a pure function over a
:class:`~repro.verify.runner.TrialExecution` returning ``None`` on success or
a human-readable violation message.  The catalogue (:data:`INVARIANTS`) is an
ordered mapping; when several invariants fail the *first* in catalogue order
names the failure, and the shrinker minimises against that name.

The invariants, in catalogue order:

``engine-matches-oracle``
    On fault-free runs (any loss rate — the link-layer ARQ makes delivery
    exact) every engine's result set-equals the central lossless oracle.
    Under injected node crashes, link drops, or continuous churn the result
    must be a *subset* of the oracle and the reported recall must equal the
    delivered fraction.
``quantization-conservative``
    Quantization never causes false dismissals: every raw value lies inside
    its cell's decoded bounds, and every oracle match survives the
    conservative cell-level semi-join.
``quadtree-setops-algebra``
    Union/intersection computed directly on the wire format agree with
    brute-force flag algebra on the underlying point sets, and obey the
    usual laws (idempotence, commutativity, identity/annihilator).
``zcurve-roundtrip``
    Z-order interleaving and the quadtree pack/encode paths are lossless
    round trips.
``energy-reconciles``
    Per-phase telemetry counters, the affine radio model, and the network's
    energy total tell the same story (to float-rounding tolerance).
``deterministic-replay``
    Re-executing the same spec from scratch yields an identical outcome
    fingerprint (results, costs, timings — exact floats, no rounding).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..codec import setops
from ..codec import zcurve
from ..obs import reconcile
from ..query.evaluate import conservative_semijoin
from .generators import random_coordinates, random_flagged_points, random_values

__all__ = ["Invariant", "INVARIANTS", "first_violation", "all_violations"]


@dataclass(frozen=True)
class Invariant:
    """One checkable property: a name, a description, and a checker."""

    name: str
    description: str
    check: Callable[["TrialExecution"], Optional[str]]  # noqa: F821


_ROUNDING_DIGITS = 9
_RECALL_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# engine-matches-oracle
# ---------------------------------------------------------------------------


def check_engine_matches_oracle(execution) -> Optional[str]:
    spec = execution.spec
    faulted = (spec.crash_count + spec.link_drop_count) > 0 or spec.churn_rate > 0
    for obs in execution.rounds:
        result = obs.outcome.result
        oracle = obs.oracle
        label = f"round {obs.round_index} ({obs.engine_label})"
        if not faulted:
            if result.result_set(_ROUNDING_DIGITS) != oracle.result_set(_ROUNDING_DIGITS):
                return (
                    f"{label}: engine result != oracle "
                    f"(engine {result.match_count} matches, "
                    f"oracle {oracle.match_count})"
                )
            continue
        # Crashes / permanent link drops may orphan subtrees: the result is
        # allowed to be partial, but never to invent matches.
        engine_combos = set(result.combinations)
        oracle_combos = set(oracle.combinations)
        extra = engine_combos - oracle_combos
        if extra:
            sample = sorted(extra)[:3]
            return f"{label}: engine invented {len(extra)} combination(s): {sample}"
        if not execution.setup.query.is_aggregate:
            if not result.result_set() <= oracle.result_set():
                return f"{label}: partial result rows disagree with oracle rows"
        recall = obs.outcome.details.get("recall")
        if recall is not None:
            if not -_RECALL_TOLERANCE <= recall <= 1.0 + _RECALL_TOLERANCE:
                return f"{label}: recall {recall} outside [0, 1]"
            if oracle.match_count:
                expected = result.match_count / oracle.match_count
                if abs(recall - expected) > _RECALL_TOLERANCE:
                    return (
                        f"{label}: reported recall {recall} != delivered "
                        f"fraction {expected}"
                    )
    return None


# ---------------------------------------------------------------------------
# quantization-conservative
# ---------------------------------------------------------------------------


def check_quantization_conservative(execution) -> Optional[str]:
    query = execution.setup.query
    for obs in execution.rounds:
        fmt = obs.tuple_format
        quantizer = fmt.quantizer
        label = f"round {obs.round_index}"
        # 1. Cell bounds contain the raw value (boundary cells are widened).
        for record in obs.records:
            values = {name: record.values[name] for name in fmt.join_attributes}
            z = quantizer.encode(values)
            bounds = quantizer.cell_bounds(z)
            for name, value in values.items():
                if not bounds.lo[name] <= value <= bounds.hi[name]:
                    return (
                        f"{label}: node {record.node_id} attr {name!r}: value "
                        f"{value} outside cell bounds "
                        f"[{bounds.lo[name]}, {bounds.hi[name]}]"
                    )
        # 2. No false dismissals: every oracle contributor survives the
        # conservative cell-level semi-join.
        cells_by_alias: Dict[str, list] = {alias: [] for alias in fmt.aliases}
        nodes_by_alias: Dict[str, list] = {alias: [] for alias in fmt.aliases}
        for record in obs.records:
            values = {name: record.values[name] for name in fmt.join_attributes}
            bounds = quantizer.cell_bounds(quantizer.encode(values))
            for alias in fmt.aliases_of_flags(record.flags):
                cells_by_alias[alias].append(bounds)
                nodes_by_alias[alias].append(record.node_id)
        survivors = conservative_semijoin(query, cells_by_alias)
        for combo in obs.oracle.combinations:
            for position, alias in enumerate(obs.oracle.aliases):
                node_id = combo[position]
                try:
                    index = nodes_by_alias[alias].index(node_id)
                except ValueError:
                    return (
                        f"{label}: oracle match uses node {node_id} under "
                        f"alias {alias!r} but no record carries that alias"
                    )
                if index not in survivors[alias]:
                    return (
                        f"{label}: false dismissal — node {node_id} "
                        f"(alias {alias!r}) joins in the oracle but its cell "
                        f"was pruned by the conservative semi-join"
                    )
    return None


# ---------------------------------------------------------------------------
# quadtree-setops-algebra
# ---------------------------------------------------------------------------


def _merge(points) -> FrozenSet[Tuple[int, int]]:
    """Brute-force reference semantics: OR flags per Z-number."""
    merged: Dict[int, int] = {}
    for flags, z in points:
        merged[z] = merged.get(z, 0) | flags
    return frozenset((flags, z) for z, flags in merged.items())


def _brute_intersect(a, b) -> FrozenSet[Tuple[int, int]]:
    """Brute-force reference: AND flags per shared Z-number, drop flagless."""
    left = {z: flags for flags, z in _merge(a)}
    out: Dict[int, int] = {}
    for flags, z in _merge(b):
        combined = left.get(z, 0) & flags
        if combined:
            out[z] = combined
    return frozenset((flags, z) for z, flags in out.items())


def check_quadtree_setops(execution) -> Optional[str]:
    codec = execution.rounds[0].tuple_format.codec
    rng = random.Random(execution.spec.seed ^ 0x5E705)
    for trial in range(4):
        a = random_flagged_points(rng, codec)
        b = random_flagged_points(rng, codec)
        canonical_a, canonical_b = _merge(a), _merge(b)
        # Round trip through the wire format.  The codec is flag-agnostic:
        # two points sharing a Z-number but carrying different flags are
        # distinct wire entries, so the round trip preserves the *plain*
        # set (flag merging is union_points' job, not the codec's).
        if codec.decode(codec.encode(a)) != frozenset(a):
            return f"setops[{trial}]: encode/decode round trip lost points"
        # Wire-format set ops match brute-force flag algebra.
        union = codec.decode(setops.union_encoded(codec, codec.encode(a), codec.encode(b)))
        if union != _merge(list(canonical_a) + list(canonical_b)):
            return f"setops[{trial}]: union_encoded != brute-force union"
        inter = codec.decode(
            setops.intersect_encoded(codec, codec.encode(a), codec.encode(b))
        )
        if inter != _brute_intersect(a, b):
            return f"setops[{trial}]: intersect_encoded != brute-force intersection"
        # Algebraic laws on the point-set primitives.
        if setops.union_points(canonical_a, canonical_a) != canonical_a:
            return f"setops[{trial}]: union is not idempotent"
        if setops.union_points(a, b) != setops.union_points(b, a):
            return f"setops[{trial}]: union is not commutative"
        if setops.intersect_points(a, b) != setops.intersect_points(b, a):
            return f"setops[{trial}]: intersection is not commutative"
        if setops.union_points(canonical_a, ()) != canonical_a:
            return f"setops[{trial}]: empty set is not a union identity"
        if setops.intersect_points(canonical_a, ()) != frozenset():
            return f"setops[{trial}]: empty set is not an intersection annihilator"
        if canonical_a:
            point = rng.choice(sorted(canonical_a))
            if setops.insert_point(canonical_a, point) != canonical_a:
                return f"setops[{trial}]: re-inserting a member changed the set"
    return None


# ---------------------------------------------------------------------------
# zcurve-roundtrip
# ---------------------------------------------------------------------------


def check_zcurve_roundtrip(execution) -> Optional[str]:
    fmt = execution.rounds[0].tuple_format
    quantizer, codec = fmt.quantizer, fmt.codec
    rng = random.Random(execution.spec.seed ^ 0x2C04E)
    for trial in range(8):
        # interleave/deinterleave is exact.
        coords = random_coordinates(rng, quantizer.bits_per_dim)
        z = zcurve.interleave(coords, quantizer.bits_per_dim)
        if zcurve.deinterleave(z, quantizer.bits_per_dim) != coords:
            return f"zcurve[{trial}]: deinterleave(interleave(c)) != c for {coords}"
        if not 0 <= z < (1 << quantizer.total_bits):
            return f"zcurve[{trial}]: Z-number {z} exceeds {quantizer.total_bits} bits"
        # encode agrees with per-dimension cell mapping.
        values = random_values(rng, quantizer)
        cells = quantizer.decode_cells(quantizer.encode(values))
        for dim in quantizer.dimensions:
            if cells[dim.name] != dim.cell_of(values[dim.name]):
                return (
                    f"zcurve[{trial}]: dim {dim.name!r} decoded to cell "
                    f"{cells[dim.name]} but cell_of gives "
                    f"{dim.cell_of(values[dim.name])}"
                )
        # pack/unpack is exact.
        flags = rng.randrange(1, 1 << codec.flag_bits) if codec.flag_bits else 0
        point = (flags, rng.randrange(1 << codec.z_bits))
        if codec.unpack(codec.pack(point)) != point:
            return f"zcurve[{trial}]: pack/unpack round trip broke {point}"
    return None


# ---------------------------------------------------------------------------
# energy-reconciles
# ---------------------------------------------------------------------------


def check_energy_reconciles(execution) -> Optional[str]:
    reg = execution.registry
    if reg is None:
        return None
    network = execution.setup.network
    model = reconcile.energy_model_map(network.energy_model)
    total_measured, worst_delta, deltas = reconcile.reconcile_phase_energy(reg, model)
    tolerance = reconcile.reconciliation_tolerance(total_measured)
    if worst_delta > tolerance:
        phase = max(deltas, key=lambda p: deltas[p])
        return (
            f"phase {phase!r}: counter-vs-model energy delta "
            f"{deltas[phase]:.3e} J exceeds tolerance {tolerance:.3e} J"
        )
    ledger_total = network.total_energy()
    if abs(total_measured - ledger_total) > tolerance:
        return (
            f"telemetry total {total_measured!r} J != ledger total "
            f"{ledger_total!r} J (tolerance {tolerance:.3e})"
        )
    return None


# ---------------------------------------------------------------------------
# deterministic-replay
# ---------------------------------------------------------------------------


def check_deterministic_replay(execution) -> Optional[str]:
    if execution.replay_fingerprint is None:
        return None
    if execution.fingerprint != execution.replay_fingerprint:
        keys = sorted(
            set(execution.fingerprint) | set(execution.replay_fingerprint)
        )
        diverged = [
            key
            for key in keys
            if execution.fingerprint.get(key) != execution.replay_fingerprint.get(key)
        ]
        return f"identical spec produced different outcomes; diverged: {diverged}"
    return None


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

INVARIANTS: Dict[str, Invariant] = {
    inv.name: inv
    for inv in (
        Invariant(
            "engine-matches-oracle",
            "Fault-free runs set-equal the lossless oracle; faulted runs are "
            "subsets with exact recall accounting.",
            check_engine_matches_oracle,
        ),
        Invariant(
            "quantization-conservative",
            "Raw values lie inside decoded cell bounds and no oracle match "
            "is dismissed by the conservative cell-level semi-join.",
            check_quantization_conservative,
        ),
        Invariant(
            "quadtree-setops-algebra",
            "Wire-format union/intersection match brute-force flag algebra "
            "and obey idempotence/commutativity/identity laws.",
            check_quadtree_setops,
        ),
        Invariant(
            "zcurve-roundtrip",
            "Z-order interleaving, quantizer encode, and quadtree pack are "
            "lossless round trips.",
            check_zcurve_roundtrip,
        ),
        Invariant(
            "energy-reconciles",
            "Per-phase telemetry counters, the affine radio model, and the "
            "network's energy total agree to rounding tolerance.",
            check_energy_reconciles,
        ),
        Invariant(
            "deterministic-replay",
            "Re-executing the same spec from scratch yields an identical "
            "outcome fingerprint.",
            check_deterministic_replay,
        ),
    )
}


@dataclass(frozen=True)
class Violation:
    """One failed invariant for one trial."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


def all_violations(execution) -> List[Violation]:
    """Every invariant violation for a trial, in catalogue order."""
    found = []
    for invariant in INVARIANTS.values():
        message = invariant.check(execution)
        if message is not None:
            found.append(Violation(invariant.name, message))
    return found


def first_violation(execution) -> Optional[Violation]:
    """The catalogue-first violation (what the shrinker minimises against)."""
    for invariant in INVARIANTS.values():
        message = invariant.check(execution)
        if message is not None:
            return Violation(invariant.name, message)
    return None
