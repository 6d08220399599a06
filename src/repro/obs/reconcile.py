"""Energy reconciliation between telemetry counters and the affine model.

With telemetry attached, the channel records every transmission twice
over: once into the :class:`~repro.sim.stats.TransmissionStats` store, whose
counts priced by the network's energy model are the ground truth the
benchmarks report, and once into per-phase telemetry counters
(``tx_packets_total``, ``energy_joules_total{op=...}``, ...).  The two must
agree *exactly* — any drift means a code path wrote one book and not the
other.

This module holds the shared arithmetic: the ``repro.obs`` CLI's
``energy-breakdown`` command reconciles recorded traces with it, and the
differential harness (:mod:`repro.verify.invariants`) applies the same
check live after every fuzz trial.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from .metrics import MetricsRegistry

__all__ = [
    "phases_in",
    "derived_phase_energy",
    "energy_model_map",
    "reconcile_phase_energy",
    "reconciliation_tolerance",
]


def phases_in(reg: MetricsRegistry) -> List[str]:
    """Every distinct ``phase`` label present in the registry, sorted."""
    phases = set()
    for inst in reg:
        labels = dict(inst.labels)
        if "phase" in labels:
            phases.add(labels["phase"])
    return sorted(phases)


def energy_model_map(model) -> Dict[str, float]:
    """An :class:`~repro.sim.energy.EnergyModel` as the plain mapping the
    trace meta carries (and :func:`derived_phase_energy` consumes)."""
    return {
        "tx_per_packet": model.tx_per_packet,
        "tx_per_byte": model.tx_per_byte,
        "rx_per_packet": model.rx_per_packet,
        "rx_per_byte": model.rx_per_byte,
    }


def derived_phase_energy(
    reg: MetricsRegistry, phase: str, model: Mapping[str, float]
) -> float:
    """Energy a phase *should* have cost under the affine radio model.

    Retransmissions are charged at transmit rates — the ARQ resends the
    same packet, so the per-packet/per-byte transmit costs apply.
    """
    tx_pk = reg.total("tx_packets_total", phase=phase)
    tx_by = reg.total("tx_bytes_total", phase=phase)
    rx_pk = reg.total("rx_packets_total", phase=phase)
    rx_by = reg.total("rx_bytes_total", phase=phase)
    retx_pk = reg.total("retx_packets_total", phase=phase)
    retx_by = reg.total("retx_bytes_total", phase=phase)
    return (
        tx_pk * model["tx_per_packet"]
        + tx_by * model["tx_per_byte"]
        + rx_pk * model["rx_per_packet"]
        + rx_by * model["rx_per_byte"]
        + retx_pk * model["tx_per_packet"]
        + retx_by * model["tx_per_byte"]
    )


def reconciliation_tolerance(total_energy: float) -> float:
    """Accumulated float rounding allowance: 1e-9 relative, 1e-9 floor."""
    return max(1e-9, 1e-9 * max(total_energy, 1.0))


def reconcile_phase_energy(
    reg: MetricsRegistry,
    model: Mapping[str, float],
    phases: Iterable[str] | None = None,
) -> Tuple[float, float, Dict[str, float]]:
    """Compare measured vs derived energy for every phase.

    Returns ``(total_measured, worst_delta, per_phase_delta)`` where
    ``worst_delta`` is the largest absolute per-phase disagreement between
    the ``energy_joules_total`` counter and the counter-derived cost.
    """
    if phases is None:
        phases = phases_in(reg)
    total_measured = 0.0
    worst_delta = 0.0
    deltas: Dict[str, float] = {}
    for phase in phases:
        measured = reg.total("energy_joules_total", phase=phase)
        total_measured += measured
        delta = abs(measured - derived_phase_energy(reg, phase, model))
        deltas[phase] = delta
        worst_delta = max(worst_delta, delta)
    return total_measured, worst_delta, deltas
