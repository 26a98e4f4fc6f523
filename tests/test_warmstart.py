"""Blend schedule, clip-gap measurement, and warm-start interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares

from clipcodec import detmath
from clipcodec.errors import ConfigError, DataError
from clipcodec.params import ParamVector
from clipcodec.tensor import Tensor
from clipcodec.warmstart import (EpsilonSchedule, epsilon_for, fit_schedule,
                                 gop_gap_mse, interpolate_init)


def test_gap_of_identical_clips_is_zero():
    frames = np.random.default_rng(0).uniform(0, 1, (4, 3, 8, 8))
    assert gop_gap_mse(frames, frames.copy()) == 0.0


def test_gap_of_constant_offset():
    a = np.zeros((3, 3, 4, 4))
    b = np.full((3, 3, 4, 4), 0.5)
    assert gop_gap_mse(a, b) == pytest.approx(0.25)


def test_gap_truncates_to_shorter_clip():
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 1, (4, 3, 4, 4))
    b = rng.uniform(0, 1, (3, 3, 4, 4))
    # the mse of the overlap, whichever clip is the shorter
    manual = float(np.mean((a[:3] - b) ** 2))
    assert gop_gap_mse(a, b) == pytest.approx(manual)
    assert gop_gap_mse(b, a) == pytest.approx(manual)


def test_gap_rejects_resolution_mismatch():
    with pytest.raises(DataError, match="resolution"):
        gop_gap_mse(np.zeros((2, 3, 4, 4)), np.zeros((2, 3, 8, 8)))


def test_epsilon_zero_gap_is_zero_under_constraint():
    sched = EpsilonSchedule(a=1.0, b=3.0)
    assert epsilon_for(0.0, sched) == 0.0


def test_epsilon_formula_value():
    sched = EpsilonSchedule(a=1.0, b=0.5)
    value = epsilon_for(2.0, sched)
    assert value == pytest.approx(1.0 - float(detmath.exp(-1.0)), abs=1e-12)
    assert value == pytest.approx(0.6321, abs=1e-4)


def test_epsilon_saturates_toward_one():
    sched = EpsilonSchedule(a=1.0, b=2.0)
    assert epsilon_for(1e6, sched) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 50.0), st.lists(st.floats(0.0, 10.0),
                                       min_size=2, max_size=20))
def test_epsilon_monotone_in_mse(b, mses):
    sched = EpsilonSchedule(a=1.0, b=b)
    mses = sorted(mses)
    values = [epsilon_for(m, sched) for m in mses]
    assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def _pv(values):
    data = np.asarray(values, dtype=np.float32)
    return ParamVector([("w", data.shape)], Tensor(data))


def test_interpolate_endpoints_exact():
    rand = _pv([1.0, -2.0, 3.0])
    trained = _pv([10.0, 20.0, 30.0])
    assert np.array_equal(interpolate_init(rand, trained, 0.0)["w"].data,
                          trained["w"].data)
    assert np.array_equal(interpolate_init(rand, trained, 1.0)["w"].data,
                          rand["w"].data)


def test_interpolate_quarter():
    rand = _pv([0.0])
    trained = _pv([4.0])
    assert interpolate_init(rand, trained, 0.25)["w"].data[0] == \
        pytest.approx(3.0)


def test_interpolate_convexity_elementwise():
    rng = np.random.default_rng(2)
    rand = _pv(rng.standard_normal(64))
    trained = _pv(rng.standard_normal(64))
    for eps in (0.1, 0.5, 0.9):
        out = interpolate_init(rand, trained, eps)["w"].data
        lo = np.minimum(rand["w"].data, trained["w"].data)
        hi = np.maximum(rand["w"].data, trained["w"].data)
        assert np.all(out >= lo - 1e-6) and np.all(out <= hi + 1e-6)


def test_interpolate_rejects_bad_epsilon():
    pv = _pv([1.0])
    with pytest.raises(ConfigError):
        interpolate_init(pv, pv, 1.5)


def test_fit_recovers_planted_parameters():
    planted_b = 0.5
    points = [(m, float(1.0 - detmath.exp(-planted_b * m)))
              for m in (0.05, 0.2, 0.7, 1.3, 2.4, 4.0)]
    sched, resid = fit_schedule(points)
    assert abs(sched.b - planted_b) < 1e-6
    assert resid < 1e-10


def _least_squares_fit(points):
    """The fit by scipy's trust-region solver, from the same start and
    bounds; returns the residual norm."""
    mse = np.asarray([p[0] for p in points])
    eps = np.asarray([p[1] for p in points])
    sol = least_squares(lambda x: 1.0 - np.exp(-x[0] * mse) - eps,
                        x0=[1.0 / np.ptp(mse)], bounds=([1e-12], [np.inf]),
                        xtol=2.5e-16, ftol=2.5e-16, gtol=1e-15)
    return float(np.linalg.norm(sol.fun))


def _noisy_points(seed):
    rng = np.random.default_rng(seed)
    mse = np.sort(rng.uniform(0.0, 0.1, 8))
    eps = np.clip(1.0 - np.exp(-30.0 * mse) + rng.normal(0.0, 0.05, 8),
                  0.0, 1.0)
    return list(zip(mse, eps))


@pytest.mark.parametrize("points", [
    *(_noisy_points(seed) for seed in range(4)),
    # epsilon falling with mse: the best b is small
    [(0.01, 0.9), (0.5, 0.6), (5.0, 0.3), (50.0, 0.0)],
    # epsilon highest at mse 0: the best b is the lower bound
    [(0.0, 0.5), (1.0, 0.0), (2.0, 0.0)],
    # a plateau: every epsilon at 1 but one, so any large b fits as well
    [(0.01, 1.0), (0.05, 1.0), (0.1, 1.0), (0.2, 0.99)],
], ids=["noisy-0", "noisy-1", "noisy-2", "noisy-3", "falling",
        "lower-bound", "plateau"])
def test_fit_residual_no_worse_than_least_squares(points):
    # compare residuals, not b: on a plateau many b fit equally well
    sched, resid = fit_schedule(points)
    assert sched.a == 1.0 and sched.b >= 1e-12
    assert resid <= _least_squares_fit(points) + 1e-9
    mse = np.asarray([p[0] for p in points])
    eps = np.asarray([p[1] for p in points])
    assert resid == pytest.approx(
        np.linalg.norm(1.0 - np.exp(-sched.b * mse) - eps), abs=1e-12)


def test_fit_degenerate_constant_points():
    sched, _ = fit_schedule([(0.1, 0.0), (0.5, 0.0), (1.0, 0.0)])
    assert (sched.a, sched.b) == (1.0, 0.0)
    for m in (0.0, 0.5, 10.0):
        assert epsilon_for(m, sched) == pytest.approx(0.0)


def test_fit_rejects_too_few_points():
    with pytest.raises(DataError):
        fit_schedule([(0.1, 0.2), (0.5, 0.3)])


def test_fit_rejects_duplicate_mse():
    with pytest.raises(DataError):
        fit_schedule([(0.1, 0.2), (0.1, 0.3), (0.5, 0.4)])


def test_schedule_validation():
    with pytest.raises(ConfigError):
        EpsilonSchedule(a=0.0, b=1.0)
    with pytest.raises(ConfigError):
        EpsilonSchedule(a=1.0, b=-1.0)
    # b == 0 is the constant epsilon = 1 - a, clamped into [0, 1]
    for a, eps in ((0.25, 0.75), (1.0, 0.0), (2.0, 0.0)):
        for m in (0.0, 0.5, 10.0):
            assert epsilon_for(m, EpsilonSchedule(a=a, b=0.0)) == eps


@pytest.mark.parametrize("field", ["a", "b"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_schedule_refuses_non_finite(field, value):
    # refused at construction, not at the first P model's epsilon_for
    with pytest.raises(ConfigError, match=f"{field}={value}"):
        EpsilonSchedule(**{field: value})
