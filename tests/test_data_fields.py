"""Synthetic field generator tests."""

import numpy as np
import pytest

from repro.data.fields import (
    ConstantField,
    GaussianProcessField,
    GradientField,
    PatchyField,
    UncorrelatedField,
    empirical_correlation,
)


def test_gp_field_deterministic_per_seed():
    a = GaussianProcessField(20.0, 3.0, 100.0, seed=1)
    b = GaussianProcessField(20.0, 3.0, 100.0, seed=1)
    c = GaussianProcessField(20.0, 3.0, 100.0, seed=2)
    assert a.value(10, 20) == b.value(10, 20)
    assert a.value(10, 20) != c.value(10, 20)


def test_gp_field_scalar_matches_vectorised():
    field = GaussianProcessField(20.0, 3.0, 100.0, seed=1)
    xs = np.array([1.0, 50.0, 200.0])
    ys = np.array([2.0, 60.0, 300.0])
    sampled = field.sample(xs, ys)
    for i in range(3):
        assert field.value(xs[i], ys[i]) == pytest.approx(sampled[i])


def test_gp_field_statistics_roughly_match():
    field = GaussianProcessField(22.0, 4.0, 50.0, seed=3)
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, 2000, 4000)
    ys = rng.uniform(0, 2000, 4000)
    values = field.sample(xs, ys)
    assert abs(values.mean() - 22.0) < 0.8
    assert 2.5 < values.std() < 5.5


def test_gp_spatial_correlation_decays_with_distance():
    field = GaussianProcessField(0.0, 1.0, 80.0, seed=5)
    near, far = empirical_correlation(field, 1000.0, [10.0, 500.0], seed=1)
    assert near > 0.7
    assert far < 0.5
    assert near > far


def test_gp_field_drift_changes_values_over_time():
    frozen = GaussianProcessField(0.0, 1.0, 100.0, seed=1, drift_rate=0.0)
    drifting = GaussianProcessField(0.0, 1.0, 100.0, seed=1, drift_rate=0.5)
    assert frozen.value(5, 5, t=0.0) == frozen.value(5, 5, t=100.0)
    assert drifting.value(5, 5, t=0.0) != drifting.value(5, 5, t=100.0)


def test_gp_field_validation():
    with pytest.raises(ValueError):
        GaussianProcessField(0.0, -1.0, 10.0)
    with pytest.raises(ValueError):
        GaussianProcessField(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        GaussianProcessField(0.0, 1.0, 10.0, features=0)
    with pytest.raises(ValueError, match="drift_rate"):
        GaussianProcessField(0.0, 1.0, 10.0, drift_rate=-0.5)
    with pytest.raises(ValueError, match="drift_rate"):
        GaussianProcessField(0.0, 1.0, 10.0, drift_rate=float("nan"))


def _points(count=50, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 500, count), rng.uniform(0, 500, count)


def _fresh(xs, ys, t=0.0, drift_rate=0.0):
    """The reference: a new instance has no stored evaluation to reuse."""
    return GaussianProcessField(20.0, 3.0, 100.0, seed=1, drift_rate=drift_rate).sample(xs, ys, t)


def test_frozen_gp_field_reuse_is_bitwise_exact():
    xs, ys = _points()
    field = GaussianProcessField(20.0, 3.0, 100.0, seed=1)
    reference = _fresh(xs, ys).tobytes()
    for t in (0.0, 42.0, -3.5):
        assert field.sample(xs, ys, t).tobytes() == reference
    # Equal positions in new arrays reuse the stored values as well.
    assert field.sample(xs.copy(), ys.copy()).tobytes() == reference


def test_frozen_gp_field_new_positions_evaluate_afresh():
    xs, ys = _points()
    field = GaussianProcessField(20.0, 3.0, 100.0, seed=1)
    field.sample(xs, ys)
    moved = xs.copy()
    moved[7] += 1.0
    for new_xs, new_ys in ((moved, ys), (xs[:-1], ys[:-1]), _points(seed=1), (xs, ys)):
        assert field.sample(new_xs, new_ys).tobytes() == _fresh(new_xs, new_ys).tobytes()


def test_drifting_gp_field_follows_time():
    xs, ys = _points()
    field = GaussianProcessField(20.0, 3.0, 100.0, seed=1, drift_rate=0.5)
    at_zero = field.sample(xs, ys, 0.0)
    later = field.sample(xs, ys, 100.0)
    assert later.tobytes() == _fresh(xs, ys, 100.0, drift_rate=0.5).tobytes()
    assert not np.array_equal(later, at_zero)


def test_gp_field_non_finite_time_is_not_reused():
    xs, ys = _points()
    field = GaussianProcessField(20.0, 3.0, 100.0, seed=1)
    field.sample(xs, ys)
    with np.errstate(invalid="ignore"):  # inf * 0.0 is NaN, as without reuse
        assert np.isnan(field.sample(xs, ys, float("inf"))).all()
    assert field.sample(xs, ys).tobytes() == _fresh(xs, ys).tobytes()


def test_gp_field_result_is_the_callers_copy():
    xs, ys = _points()
    field = GaussianProcessField(20.0, 3.0, 100.0, seed=1)
    reference = _fresh(xs, ys).tobytes()
    for _ in range(3):  # cold, then reused twice
        result = field.sample(xs, ys)
        assert result.tobytes() == reference
        result[:] = 0.0
    # The stored positions are copies too: moving the caller's array in
    # place must not make the old values look current.
    xs[0] += 5.0
    assert field.sample(xs, ys).tobytes() == _fresh(xs, ys).tobytes()


def test_gradient_field_exact_without_noise():
    field = GradientField(10.0, 0.01, -0.02)
    assert field.value(100.0, 50.0) == pytest.approx(10.0 + 1.0 - 1.0)
    values = field.sample(np.array([0.0, 100.0]), np.array([0.0, 0.0]))
    assert values[1] - values[0] == pytest.approx(1.0)


def test_gradient_field_with_noise_keeps_trend():
    field = GradientField(0.0, 0.1, 0.0, noise_std=0.5, seed=2)
    left = field.sample(np.full(200, 0.0), np.linspace(0, 1000, 200)).mean()
    right = field.sample(np.full(200, 1000.0), np.linspace(0, 1000, 200)).mean()
    assert right - left > 50.0


def test_patchy_field_has_plateaus():
    field = PatchyField(20.0, 5.0, area_side=500.0, patches=5, smooth_std=0.0, seed=7)
    # Two points very close together share a patch -> identical values.
    assert field.value(100.0, 100.0) == field.value(100.5, 100.2)
    # Across the whole area there are at most `patches` distinct levels.
    rng = np.random.default_rng(1)
    values = field.sample(rng.uniform(0, 500, 300), rng.uniform(0, 500, 300))
    assert len(np.unique(np.round(values, 9))) <= 5


def test_patchy_field_validation():
    with pytest.raises(ValueError):
        PatchyField(0.0, 1.0, 100.0, patches=0)


def test_uncorrelated_field_is_stable_per_point():
    field = UncorrelatedField(0.0, 1.0, seed=3)
    assert field.value(10.0, 20.0) == field.value(10.0, 20.0)
    assert field.value(10.0, 20.0) != field.value(10.0, 20.000001) or True  # may collide


def test_uncorrelated_field_has_no_spatial_structure():
    field = UncorrelatedField(0.0, 1.0, seed=3)
    correlations = empirical_correlation(field, 1000.0, [5.0], pairs_per_distance=500)
    assert abs(correlations[0]) < 0.2


def test_constant_field():
    field = ConstantField(7.5)
    assert field.value(0, 0) == 7.5
    assert np.all(field.sample(np.zeros(4), np.ones(4)) == 7.5)
