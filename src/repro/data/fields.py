"""Synthetic physical fields with controllable spatial correlation.

The paper evaluates on "a fixed distribution of the physical quantities,
emulating real sensor data" (§VI) and motivates the quadtree representation
with the spatial autocorrelation of real deployments (§V-A, Fig. 4: readings
from nearby nodes are similar).  We do not have the Intel Lab data here, so
this module generates fields with exactly that property from scratch:

:class:`GaussianProcessField`
    A stationary Gaussian process with squared-exponential covariance,
    realised through random Fourier features (Rahimi & Recht 2007): smooth,
    spatially correlated, O(K) per evaluation, deterministic per seed.  The
    ``length_scale`` knob dials the correlation radius — large values give
    the plateau-like structure of Fig. 4, small values approach noise.
:class:`GradientField`
    A linear ramp plus GP residue — e.g. temperature falling with latitude.
:class:`PatchyField`
    Piecewise-constant plateaus around random centres, softened by a GP —
    mimics micro-climates (sun/shade patches).
:class:`UncorrelatedField`
    I.i.d. noise; the adversarial case for the quadtree encoding.
:class:`ConstantField`
    Degenerate but useful in tests.

All fields implement the tiny :class:`Field` protocol: ``value(x, y, t)``
for one point and ``sample(xs, ys, t)`` vectorised.  The time argument
enables continuous queries (``SAMPLE PERIOD``): fields drift smoothly via a
temporal phase in the Fourier features.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol, Sequence, Tuple

import numpy as np

__all__ = [
    "Field",
    "GaussianProcessField",
    "GradientField",
    "PatchyField",
    "UncorrelatedField",
    "ConstantField",
]


class Field(Protocol):
    """Anything that yields a scalar reading at a position and time."""

    def value(self, x: float, y: float, t: float = 0.0) -> float:
        """Field value at one point."""
        ...

    def sample(self, xs: np.ndarray, ys: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Field values at many points (vectorised)."""
        ...


class GaussianProcessField:
    """Stationary GP with RBF covariance via random Fourier features.

    ``f(p) = mean + std * sqrt(2/K) * sum_k cos(w_k . p + omega_k t + b_k)``
    with ``w_k ~ N(0, I / length_scale^2)``.  The sum of K cosines converges
    to a GP with unit variance and squared-exponential kernel
    ``exp(-|d|^2 / (2 length_scale^2))`` as K grows; K = 256 is plenty for
    our purposes.

    Parameters
    ----------
    mean, std:
        Output distribution scale.
    length_scale:
        Correlation length in metres.  Readings of nodes much closer than
        this are nearly equal; much farther apart, independent.
    drift_rate:
        Temporal angular velocity (rad/s) of each feature; 0 freezes the
        field (snapshot queries).

    A frozen field (every ``omega_k`` is 0) keeps its last evaluation and
    returns a copy of it when sampled again at element-wise equal
    positions and a finite ``t``.  The reuse is exact: ``t * 0.0`` adds
    ±0.0 to every phase and ``cos(+0.0) == cos(-0.0)``, so the value does
    not depend on ``t``.  Stationary nodes queried again and again thus pay
    for the n × K cosines once per node layout.  A drifting field, a
    non-finite ``t`` or new positions evaluate afresh.
    """

    def __init__(
        self,
        mean: float,
        std: float,
        length_scale: float,
        seed: int = 0,
        features: int = 256,
        drift_rate: float = 0.0,
    ):
        if std < 0:
            raise ValueError(f"negative std: {std}")
        if length_scale <= 0:
            raise ValueError(f"length_scale must be positive: {length_scale}")
        if features < 1:
            raise ValueError(f"need at least one feature: {features}")
        if not (math.isfinite(drift_rate) and drift_rate >= 0):
            raise ValueError(f"drift_rate must be finite and non-negative: {drift_rate}")
        self.mean = mean
        self.std = std
        self.length_scale = length_scale
        rng = np.random.default_rng(seed)
        self._w = rng.normal(0.0, 1.0 / length_scale, size=(features, 2))
        self._b = rng.uniform(0.0, 2.0 * math.pi, size=features)
        self._omega = (
            rng.normal(0.0, drift_rate, size=features) if drift_rate > 0 else np.zeros(features)
        )
        self._amplitude = std * math.sqrt(2.0 / features)
        self._frozen = not self._omega.any()
        #: ``(xs, ys, values)`` of the last frozen evaluation, all copies.
        self._last: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def sample(self, xs: np.ndarray, ys: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Vectorised evaluation at points ``(xs[i], ys[i])``."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        reuse = self._frozen and math.isfinite(t)
        last = self._last
        if (
            reuse
            and last is not None
            and np.array_equal(last[0], xs)
            and np.array_equal(last[1], ys)
        ):
            return last[2].copy()
        phases = (
            np.outer(xs, self._w[:, 0])
            + np.outer(ys, self._w[:, 1])
            + self._b[None, :]
            + t * self._omega[None, :]
        )
        values = self.mean + self._amplitude * np.cos(phases).sum(axis=1)
        if reuse:
            self._last = (xs.copy(), ys.copy(), values.copy())
        return values

    def value(self, x: float, y: float, t: float = 0.0) -> float:
        """Scalar evaluation at one point."""
        return float(self.sample(np.array([x]), np.array([y]), t)[0])


class GradientField:
    """Linear ramp plus an optional GP residue.

    ``f(x, y) = base + gx*x + gy*y + residue(x, y)``.  With a pure gradient
    the level sets are straight lines, which gives a well-understood
    selectivity structure for calibration tests.
    """

    def __init__(
        self,
        base: float,
        gx: float,
        gy: float,
        noise_std: float = 0.0,
        length_scale: float = 100.0,
        seed: int = 0,
    ):
        self.base = base
        self.gx = gx
        self.gy = gy
        self._residue = (
            GaussianProcessField(0.0, noise_std, length_scale, seed=seed)
            if noise_std > 0
            else None
        )

    def sample(self, xs: np.ndarray, ys: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Vectorised evaluation."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        values = self.base + self.gx * xs + self.gy * ys
        if self._residue is not None:
            values = values + self._residue.sample(xs, ys, t)
        return values

    def value(self, x: float, y: float, t: float = 0.0) -> float:
        """Scalar evaluation."""
        return float(self.sample(np.array([x]), np.array([y]), t)[0])


class PatchyField:
    """Plateaus around random centres, softened by a small GP.

    Each of ``patches`` centres carries a level drawn from
    ``N(mean, patch_std)``; a point takes the level of its nearest centre
    (a Voronoi tessellation) plus smooth small-scale variation.  This is the
    structure under which Selective Filter Forwarding shines: whole regions
    share (quantized) values and whole subtrees get pruned.
    """

    def __init__(
        self,
        mean: float,
        patch_std: float,
        area_side: float,
        patches: int = 12,
        smooth_std: float = 0.3,
        smooth_scale: float = 40.0,
        seed: int = 0,
    ):
        if patches < 1:
            raise ValueError(f"need at least one patch: {patches}")
        rng = np.random.default_rng(seed)
        self._centres = rng.uniform(0.0, area_side, size=(patches, 2))
        self._levels = rng.normal(mean, patch_std, size=patches)
        self._smooth = (
            GaussianProcessField(0.0, smooth_std, smooth_scale, seed=seed + 1)
            if smooth_std > 0
            else None
        )

    def sample(self, xs: np.ndarray, ys: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Vectorised evaluation."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        points = np.stack([xs, ys], axis=1)
        deltas = points[:, None, :] - self._centres[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", deltas, deltas)
        values = self._levels[np.argmin(dist2, axis=1)]
        if self._smooth is not None:
            values = values + self._smooth.sample(xs, ys, t)
        return values

    def value(self, x: float, y: float, t: float = 0.0) -> float:
        """Scalar evaluation."""
        return float(self.sample(np.array([x]), np.array([y]), t)[0])


class UncorrelatedField:
    """I.i.d. noise per (position, time) — the spatial-correlation-free case.

    Values are derived from a hash of the position so that repeated
    evaluation at the same point is stable within a snapshot.
    """

    def __init__(self, mean: float, std: float, seed: int = 0):
        self.mean = mean
        self.std = std
        self.seed = seed

    def _draw(self, x: float, y: float, t: float) -> float:
        key = hash((round(x, 6), round(y, 6), round(t, 6), self.seed)) & 0xFFFFFFFF
        rng = np.random.default_rng(key)
        return float(rng.normal(self.mean, self.std))

    def sample(self, xs: np.ndarray, ys: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Vectorised evaluation (per-point independent draws)."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return np.array([self._draw(x, y, t) for x, y in zip(xs, ys)])

    def value(self, x: float, y: float, t: float = 0.0) -> float:
        """Scalar evaluation."""
        return self._draw(x, y, t)


class ConstantField:
    """Every point reads the same value; degenerate case for tests."""

    def __init__(self, value: float):
        self._value = float(value)

    def sample(self, xs: np.ndarray, ys: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Vectorised evaluation."""
        return np.full(len(np.asarray(xs)), self._value)

    def value(self, x: float, y: float, t: float = 0.0) -> float:
        """Scalar evaluation."""
        return self._value


def empirical_correlation(
    field: Field,
    area_side: float,
    distances: Sequence[float],
    pairs_per_distance: int = 400,
    seed: int = 0,
) -> list[float]:
    """Estimate the field's spatial autocorrelation at given distances.

    Used by tests to assert that :class:`GaussianProcessField` really decays
    with distance while :class:`UncorrelatedField` does not correlate at all.
    Returns one Pearson correlation per requested distance.
    """
    rng = np.random.default_rng(seed)
    result = []
    for distance in distances:
        margin = min(distance, area_side / 4)
        origin = rng.uniform(margin, area_side - margin, size=(pairs_per_distance, 2))
        angles = rng.uniform(0, 2 * math.pi, size=pairs_per_distance)
        other = origin + distance * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        other = np.clip(other, 0.0, area_side)
        a = field.sample(origin[:, 0], origin[:, 1])
        b = field.sample(other[:, 0], other[:, 1])
        if np.std(a) == 0 or np.std(b) == 0:
            result.append(1.0)
        else:
            result.append(float(np.corrcoef(a, b)[0, 1]))
    return result
