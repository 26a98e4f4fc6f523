"""Deterministic elementwise math kernels.

Everything here is assembled from IEEE-754 operations that are exactly
rounded (+, -, *, /, sqrt) plus exact exponent/integer manipulation
(``ldexp``, ``frexp``, ``floor``, ``trunc``, ``rint``).  Given the same
inputs, the outputs are bit-identical on any IEEE-754 platform.  libm
transcendentals (``np.exp``, ``np.sin``, ``math.erf``, ...) carry no such
guarantee, so they must never touch a code path that feeds the bitstream:
trained parameters, quantization scales, epsilon values and entropy-coder
frequency tables all come through these kernels.

Recipes are the classic ones:

* ``exp``    -- Cody-Waite reduction ``x = k*ln2 + r`` with a split
  ``ln2`` constant, Taylor kernel of degree 13 on ``|r| <= ln2/2``.
* ``log``    -- ``frexp`` plus the ``atanh``-series kernel on
  ``m in [sqrt(1/2), sqrt(2))``.
* ``sin/cos``-- Cody-Waite reduction modulo ``pi/2`` (two-part constant,
  exact for quotients below ``2**20``), Taylor kernels on ``|r| <= pi/4``.
* ``erf/erfc`` -- W. J. Cody's rational approximations (the SPECFUN
  ``CALERF`` coefficient sets), with the ``exp(-x*x)`` factor evaluated
  via the split-argument trick and the deterministic ``exp`` above (its
  ``exp(-ysq*ysq)`` half takes 425 values, tabulated by that ``exp``).
  Each element is routed once to its region (near, mid or far) and only
  that region's kernel runs on it, on the gathered subset.  Every step is
  elementwise and exactly rounded, so an element's bits do not depend on
  which other elements share its call, nor on the input's shape: the
  result equals evaluating every kernel everywhere and selecting.

Accuracy is a few ulp everywhere (ample for rate estimation and
training); determinism, not last-bit accuracy, is the contract.
"""

from __future__ import annotations

import math

import numpy as np

_LN2_HI = 6.93147180369123816490e-01  # high 33 bits of ln 2
_LN2_LO = 1.90821492927058770002e-10  # ln 2 - _LN2_HI
_INV_LN2 = 1.44269504088896338700e+00
_EXP_OVERFLOW = 709.782712893384
_EXP_UNDERFLOW = -745.133219101941

# Taylor coefficients 1/13!, ..., 1/1!, 1 (Horner order, highest degree
# first).  Generated from exact integer factorials: one exactly-rounded
# division each, so the constants are bit-identical everywhere.
_EXP_POLY = tuple(1.0 / math.factorial(k) for k in range(13, -1, -1))


def _horner(z: np.ndarray, coeffs) -> np.ndarray:
    acc = z * coeffs[0]
    for c in coeffs[1:-1]:
        acc += c
        acc *= z
    acc += coeffs[-1]
    return acc


def exp(x) -> np.ndarray:
    """Deterministic ``e**x`` (float64)."""
    x = np.asarray(x, dtype=np.float64)
    ok = (x >= _EXP_UNDERFLOW) & (x <= _EXP_OVERFLOW)  # False for NaN
    fix = not ok.all()
    xc = np.where(ok, x, 0.0) if fix else x
    k = np.rint(xc * _INV_LN2)
    r = (xc - k * _LN2_HI) - k * _LN2_LO
    out = np.ldexp(_horner(r, _EXP_POLY), k.astype(np.int32))
    if fix:
        out = np.where(x > _EXP_OVERFLOW, np.inf, out)
        out = np.where(x < _EXP_UNDERFLOW, 0.0, out)
        out = np.where(np.isnan(x), np.nan, out)
    return np.asarray(out)


_SQRT_HALF = 0.7071067811865476
# atanh-series coefficients 1/21, 1/19, ..., 1/3 (Horner order).
_LOG_POLY = tuple(1.0 / k for k in range(21, 2, -2))


def log(x) -> np.ndarray:
    """Deterministic natural logarithm (float64)."""
    x = np.asarray(x, dtype=np.float64)
    safe = np.where((x > 0.0) & (x < np.inf), x, 1.0)
    m, e = np.frexp(safe)
    shift = m < _SQRT_HALF
    m = np.where(shift, m * 2.0, m)
    e = np.where(shift, e - 1, e).astype(np.float64)
    s = (m - 1.0) / (m + 1.0)
    z = s * s
    logm = 2.0 * s + 2.0 * s * z * _horner(z, _LOG_POLY)
    out = e * _LN2_HI + (logm + e * _LN2_LO)
    out = np.where(x == 0.0, -np.inf, out)
    out = np.where(x < 0.0, np.nan, out)
    out = np.where(np.isposinf(x), np.inf, out)
    out = np.where(np.isnan(x), np.nan, out)
    return out


def log2(x) -> np.ndarray:
    return log(x) * _INV_LN2


_TWO_OVER_PI = 6.36619772367581382433e-01
_PIO2_HI = 1.57079632673412561417e+00  # first 33 bits of pi/2
_PIO2_LO = 6.07710050650619224932e-11  # pi/2 - _PIO2_HI (to double precision)
_PIO2_TAIL = 2.02226624879595063154e-21
_TRIG_MAX = 1.0e6  # quotient stays below 2**20, keeping k*_PIO2_HI exact

# sin kernel: r * (1 + z*(-1/3! + z*(1/5! - ...))) through r**15/15!.
_SIN_POLY = tuple((-1.0) ** k / math.factorial(2 * k + 1)
                  for k in range(7, 0, -1))
# cos kernel: 1 + z*(-1/2! + z*(1/4! - ...)) through r**16/16!.
_COS_POLY = tuple((-1.0) ** k / math.factorial(2 * k)
                  for k in range(8, 0, -1))


def _trig_reduce(x: np.ndarray):
    k = np.rint(x * _TWO_OVER_PI)
    r = (x - k * _PIO2_HI) - k * _PIO2_LO
    r = r - k * _PIO2_TAIL
    return r, k.astype(np.int64) & 3


def _sin_kernel(r: np.ndarray) -> np.ndarray:
    z = r * r
    return r + r * z * _horner(z, _SIN_POLY)


def _cos_kernel(r: np.ndarray) -> np.ndarray:
    z = r * r
    return 1.0 + z * _horner(z, _COS_POLY)


def sin(x) -> np.ndarray:
    """Deterministic sine; accurate for ``|x| <= 1e6``."""
    x = np.asarray(x, dtype=np.float64)
    xc = np.where(np.isfinite(x), np.clip(x, -_TRIG_MAX, _TRIG_MAX), 0.0)
    r, q = _trig_reduce(xc)
    s, c = _sin_kernel(r), _cos_kernel(r)
    out = np.choose(q, (s, c, -s, -c))
    return np.where(np.isfinite(x), out, np.nan)


def cos(x) -> np.ndarray:
    """Deterministic cosine; accurate for ``|x| <= 1e6``."""
    x = np.asarray(x, dtype=np.float64)
    xc = np.where(np.isfinite(x), np.clip(x, -_TRIG_MAX, _TRIG_MAX), 0.0)
    r, q = _trig_reduce(xc)
    s, c = _sin_kernel(r), _cos_kernel(r)
    out = np.choose(q, (c, -s, -c, s))
    return np.where(np.isfinite(x), out, np.nan)


# Cody's CALERF coefficient sets (netlib SPECFUN).  Region 1: |x| <= 0.46875,
# region 2: 0.46875 < |x| <= 4, region 3: |x| > 4.
_ERF_A = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
_ERF_C = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERF_D = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
_ERF_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERF_Q = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)
_INV_SQRT_PI = 5.6418958354775628695e-1
_ERFC_ZERO = 26.543  # erfc underflows to 0 beyond this
_SQ16 = np.arange(int(_ERFC_ZERO * 16.0) + 1) / 16.0
_EXP_NEG_SQ16 = exp(-_SQ16 * _SQ16)


# The rational functions below in _horner order (highest degree first);
# a leading 1.0 is a monic denominator.
_ERFC_MID_NUM = (_ERF_C[8],) + _ERF_C[:8]
_ERFC_MID_DEN = (1.0,) + _ERF_D
_ERFC_FAR_NUM = (_ERF_P[5],) + _ERF_P[:5]
_ERFC_FAR_DEN = (1.0,) + _ERF_Q
_ERF_NEAR_NUM = (_ERF_A[4],) + _ERF_A[:4]
_ERF_NEAR_DEN = (1.0,) + _ERF_B


def _exp_neg_square(y: np.ndarray):
    """``(exp(-ysq*ysq), y^2 - ysq^2)`` for ``ysq`` = y cut to 1/16ths.

    Splitting ``y*y`` keeps ``exp``'s argument exact.  ``ysq`` is k/16
    with k <= 16 * _ERFC_ZERO, so ``exp(-ysq*ysq)`` is read from a table
    of those values, computed by ``exp`` itself: the same bits.
    """
    k = np.trunc(y * 16.0)
    ysq = k / 16.0
    return _EXP_NEG_SQ16[k.astype(np.intp)], (y - ysq) * (y + ysq)


def _erfc_mid(y: np.ndarray) -> np.ndarray:
    # 0.46875 < y <= 4
    ratio = _horner(y, _ERFC_MID_NUM) / _horner(y, _ERFC_MID_DEN)
    head, delta = _exp_neg_square(y)
    return head * exp(-delta) * ratio


def _erfc_far(y: np.ndarray) -> np.ndarray:
    # y > 4; the value is 0 from _ERFC_ZERO on, so the kernel runs on y
    # clipped there: y * y cannot overflow, nor y - ysq be inf - inf
    yc = np.minimum(y, _ERFC_ZERO)
    z = 1.0 / (yc * yc)
    r = z * _horner(z, _ERFC_FAR_NUM) / _horner(z, _ERFC_FAR_DEN)
    head, delta = _exp_neg_square(yc)
    out = head * exp(-delta) * (_INV_SQRT_PI - r) / yc
    return np.where(y >= _ERFC_ZERO, 0.0, out)


def _erf_near(x: np.ndarray) -> np.ndarray:
    # |x| <= 0.46875
    z = x * x
    return x * _horner(z, _ERF_NEAR_NUM) / _horner(z, _ERF_NEAR_DEN)


def _by_region(x, near, tail) -> np.ndarray:
    """``near(x)`` where ``|x| <= 0.46875``, else ``tail(x, erfc(|x|))``.

    ``erfc(|x|)`` comes from the mid kernel up to 4 and the far kernel
    beyond; each kernel sees only its own elements, and a region with no
    elements runs nothing.  NaN stays NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    y = np.abs(flat)
    out = np.full(flat.shape, np.nan)
    idx = np.flatnonzero(y <= 0.46875)
    if idx.size:
        out[idx] = near(flat[idx])
    for idx, kernel in ((np.flatnonzero((y > 0.46875) & (y <= 4.0)),
                         _erfc_mid),
                        (np.flatnonzero(y > 4.0), _erfc_far)):
        if idx.size:
            out[idx] = tail(flat[idx], kernel(y[idx]))
    return out.reshape(x.shape)


def erf(x) -> np.ndarray:
    """Deterministic error function (float64)."""
    return _by_region(x, _erf_near, lambda v, t: np.sign(v) * (1.0 - t))


def erfc(x) -> np.ndarray:
    """Deterministic complementary error function (float64)."""
    return _by_region(x, lambda v: 1.0 - _erf_near(v),
                      lambda v, t: np.where(v < 0.0, 2.0 - t, t))


_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


def norm_cdf(x) -> np.ndarray:
    """Standard normal CDF via ``erfc`` (accurate in both tails)."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * erfc(-x * _INV_SQRT2)


_PDF_ZERO = 64.0  # exp(-x*x/2) is 0 from |x| ~ 38.6 on


def norm_pdf(x) -> np.ndarray:
    # |x| is capped so that x*x cannot overflow; the cap changes no value
    h = np.minimum(np.abs(np.asarray(x, dtype=np.float64)), _PDF_ZERO)
    return _INV_SQRT_2PI * exp(-0.5 * h * h)


def norm_cdf_diff(lo, hi) -> np.ndarray:
    """Mass of the standard normal on ``(lo, hi]``.

    Reflects right-sided intervals onto the left tail so the difference is
    taken between two small, relatively-accurate ``erfc`` values instead of
    two values near 1.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    # lo > -hi has the sign of lo + hi without the sum, which can overflow
    flip = lo > -hi
    a = np.where(flip, -hi, lo)
    b = np.where(flip, -lo, hi)
    mass = norm_cdf(b) - norm_cdf(a)
    return np.maximum(mass, 0.0)


def sigmoid(x) -> np.ndarray:
    """Deterministic logistic function (float64)."""
    x = np.asarray(x, dtype=np.float64)
    ez = exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def round_half_away(x) -> np.ndarray:
    """Round to nearest with halves away from zero (the codec's tie rule)."""
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)
