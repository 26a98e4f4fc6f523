"""Warm-starting a clip model from its predecessor.

A new clip's model is initialized as a convex blend of a fresh seeded
random draw and the previous clip's trained parameters.  The blend
fraction ``epsilon`` grows with the mean-squared gap between the two
clips: near-identical clips reuse the predecessor almost verbatim, while
dissimilar clips fall back toward a random start.  The mapping is

    epsilon(mse) = 1 - a * exp(-b * mse),        a > 0, b >= 0,

clamped into [0, 1].  With ``a = 1``, the default and what every fit of
varying data returns, the schedule passes through epsilon(0) = 0.
``b = 0`` is the constant epsilon = 1 - a, clamped, which is what a fit
of constant data returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import detmath
from .errors import ConfigError, DataError
from .params import ParamVector


@dataclass(frozen=True)
class EpsilonSchedule:
    a: float = 1.0
    # calibrated by scripts/calibrate_epsilon.py on the bundled synthetic
    # set (see that script for the procedure)
    b: float = 60.0

    def __post_init__(self):
        if self.a <= 0:
            raise ConfigError(f"schedule needs a > 0, got a={self.a}")
        if self.b < 0:
            raise ConfigError(f"schedule needs b >= 0, got b={self.b}")


def gop_gap_mse(prev_frames: np.ndarray, cur_frames: np.ndarray) -> float:
    """Average per-pixel squared difference over aligned frame pairs.

    Clips of unequal length are truncated to the shorter one.  Frames are
    expected normalized to [0, 1].
    """
    if len(prev_frames) == 0 or len(cur_frames) == 0:
        raise DataError("cannot measure the gap of an empty clip")
    if prev_frames.shape[1:] != cur_frames.shape[1:]:
        raise DataError(f"frame resolution mismatch: "
                        f"{prev_frames.shape[1:]} vs {cur_frames.shape[1:]}")
    pairs = min(len(prev_frames), len(cur_frames))
    diff = (prev_frames[:pairs].astype(np.float64)
            - cur_frames[:pairs].astype(np.float64))
    return float(np.mean(diff * diff))


def epsilon_for(mse: float, schedule: EpsilonSchedule) -> float:
    """Blend fraction for a measured clip gap mse, clamped into [0, 1]."""
    raw = 1.0 - schedule.a * float(detmath.exp(-schedule.b * mse))
    return min(max(raw, 0.0), 1.0)


def interpolate_init(rand_params: ParamVector, trained_prev: ParamVector,
                     epsilon: float) -> ParamVector:
    """Elementwise convex combination eps*random + (1-eps)*trained."""
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"epsilon {epsilon} outside [0, 1]")
    rand_params.check_same_layout(trained_prev)
    dtype = trained_prev.dtype
    eps = dtype.type(epsilon)
    one_minus = dtype.type(1.0) - eps
    return rand_params.with_flat(rand_params.flat.data * eps
                                 + trained_prev.flat.data * one_minus)


def _eval_raw(mse: np.ndarray, a: float, b: float) -> np.ndarray:
    return 1.0 - a * np.asarray(detmath.exp(-b * mse))


def fit_schedule(points: list[tuple[float, float]]
                 ) -> tuple[EpsilonSchedule, float]:
    """Least-squares fit of the schedule to (gap mse, best epsilon) pairs.

    The fit holds a = 1 (so epsilon(0) = 0) and is a one-dimensional
    problem over b.  Returns the schedule and the residual norm.
    All-equal epsilon values yield the constant schedule ``b = 0``.
    """
    if len(points) < 3:
        raise DataError(f"need at least 3 calibration points, got "
                        f"{len(points)}")
    mse = np.asarray([p[0] for p in points], dtype=np.float64)
    eps = np.asarray([p[1] for p in points], dtype=np.float64)
    if len(np.unique(mse)) != len(mse):
        raise DataError("calibration mse values must be distinct")
    if np.any(mse < 0) or np.any((eps < 0) | (eps > 1)):
        raise DataError("calibration points outside their valid ranges")

    if np.allclose(eps, eps[0], atol=1e-12):
        # constant target: epsilon == eps0 for every mse
        amp = max(1.0 - float(eps[0]), 1e-12)
        sched = EpsilonSchedule(a=amp, b=0.0)
        resid = float(np.linalg.norm(_eval_raw(mse, amp, 0.0) - eps))
        return sched, resid

    def slope(b):  # half the derivative of the squared residual over b
        decay = detmath.exp(-b * mse)
        return float(np.sum((1.0 - decay - eps) * mse * decay))

    # grow [lo, hi] from the lower bound b = 1e-12 until the slope turns
    # non-negative, then bisect on its sign down to adjacent floats
    lo = hi = 1e-12
    step = 1.0 / float(np.ptp(mse))
    while slope(hi) < 0.0:
        lo, hi, step = hi, hi + step, 2.0 * step
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
    resid = float(np.linalg.norm(_eval_raw(mse, 1.0, hi) - eps))
    return EpsilonSchedule(b=hi), resid
