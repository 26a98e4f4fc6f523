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
  ``cos`` is ``sin`` one quadrant on; each element runs only the kernel
  its quadrant needs (sin for even quadrants, cos for odd ones).
* ``erf/erfc`` -- W. J. Cody's rational approximations (the SPECFUN
  ``CALERF`` coefficient sets), with the ``exp(-x*x)`` factor evaluated
  via the split-argument trick and the deterministic ``exp`` above (its
  ``exp(-ysq*ysq)`` half takes 425 values, tabulated by that ``exp``).
  Each element is routed once, by ``|x|``, to the near region or beyond
  it, and each route runs on its gathered subset.  Beyond it, the mid
  (up to 4) and far kernels are both ``exp(-x*x)`` times a rational
  factor: one ``exp`` pass serves both, the mid factor runs on every
  element of the route, and the far factor's results replace it on the
  far elements.

In both routed pairs (sin/cos, erf/erfc) every step is elementwise and
exactly rounded, so an element's bits do not depend on which other
elements share its call, nor on the input's shape: the result equals
evaluating every kernel everywhere and selecting.

The same holds for every kernel, so the ones that take tensor-sized
inputs (``exp``, ``log``, ``erf``, ``erfc``, ``norm_cdf``, ``norm_pdf``,
``norm_cdf_diff``, ``sigmoid``) run on consecutive blocks of at most
``_BLOCK_ELEMENTS`` (16,384) elements of their flattened input, each
block's result written into one float64 output, and give the bits of
one call on the whole input.  A float64 temporary then takes at most
128 KiB, below glibc's default mmap threshold, whatever the tensor's
size, and a call of at most one block runs its kernel once, with no
copy.  ``ops.gelu`` does its float64 arithmetic on the same blocks.

Fast paths skip passes that do no arithmetic when the input allows it:
``exp`` with every element in range and ``log`` with every element
finite and positive run no select and no special-value fix; ``erf`` and
``erfc`` with every ``|x| <= 4`` (so no NaN) build no far mask; the
erfc kernels call ``exp``'s core without its range check, as their
argument is in range by construction.  Selects that are exact as
arithmetic are written so (``log``'s mantissa shift, ``erf``'s sign,
``norm_cdf_diff``'s reflection), and the kernels write into the memory
of their own temporaries (``out=``, in-place operators), which keeps
each operation and its order.  A fast path must give every element
the bits the general path gives it, and each has a test in
``tests/test_detmath.py`` that feeds it only inputs that take it and
compares the bits with the full grid's; a new one needs such a test.

Accuracy is a few ulp everywhere (ample for rate estimation and
training); determinism, not last-bit accuracy, is the contract.
"""

from __future__ import annotations

import math

import numpy as np

# 128 KiB per float64 temporary, below glibc's default mmap threshold
_BLOCK_ELEMENTS = 16_384


def _blocked(body, x, y=None, dtype=np.float64) -> np.ndarray:
    """``body`` of ``x`` (and ``y``, broadcast to one shape), flattened
    and cast to float64, run on consecutive slices of at most
    ``_BLOCK_ELEMENTS`` elements; the result has that shape and
    ``dtype``.

    A call of at most one block runs ``body`` once on the whole input,
    with no copy a direct call would not make; a larger one casts each
    slice and writes each slice's result into one output, so no float64
    temporary is larger than a block.  ``body`` is elementwise, so the
    bits do not depend on the slicing.
    """
    x = np.asarray(x)
    if y is not None:
        y = np.asarray(y)
        if y.shape != x.shape:
            x, y = np.broadcast_arrays(x, y)
    shape, n = x.shape, x.size
    if n <= _BLOCK_ELEMENTS:
        x = x.reshape(-1).astype(np.float64, copy=False)
        out = body(x) if y is None else body(
            x, y.reshape(-1).astype(np.float64, copy=False))
        return out.astype(dtype, copy=False).reshape(shape)
    flats = (x.reshape(-1),) if y is None else (x.reshape(-1), y.reshape(-1))
    out = np.empty(n, dtype)
    for start in range(0, n, _BLOCK_ELEMENTS):
        piece = slice(start, start + _BLOCK_ELEMENTS)
        out[piece] = body(*[f[piece].astype(np.float64, copy=False)
                            for f in flats])
    return out.reshape(shape)


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
    if coeffs[0] == 1.0:  # monic: z * 1.0 is exactly z
        acc = z + coeffs[1]
    else:
        acc = z * coeffs[0]
        acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= z
        acc += c
    return acc


def _exp_core(x: np.ndarray) -> np.ndarray:
    """``e**x`` for 1-d ``x`` inside ``[_EXP_UNDERFLOW, _EXP_OVERFLOW]``."""
    k = x * _INV_LN2
    np.rint(k, out=k)
    r = k * _LN2_HI
    np.subtract(x, r, out=r)
    ki = k.astype(np.int32)
    k *= _LN2_LO
    r -= k
    del k  # its memory serves the polynomial
    p = _horner(r, _EXP_POLY)
    return np.ldexp(p, ki, out=p)


def exp(x) -> np.ndarray:
    """Deterministic ``e**x`` (float64)."""
    return _blocked(_exp, x)


def _exp(flat: np.ndarray) -> np.ndarray:
    ok = (flat >= _EXP_UNDERFLOW) & (flat <= _EXP_OVERFLOW)  # False for NaN
    if ok.all():
        return _exp_core(flat)
    out = _exp_core(np.where(ok, flat, 0.0))
    bad = np.flatnonzero(~ok)
    xb = flat[bad]
    out[bad] = np.where(xb > 0.0, np.inf, np.where(xb < 0.0, 0.0, np.nan))
    return out


_SQRT_HALF = 0.7071067811865476
# atanh-series coefficients 1/21, 1/19, ..., 1/3 (Horner order).
_LOG_POLY = tuple(1.0 / k for k in range(21, 2, -2))


def log(x) -> np.ndarray:
    """Deterministic natural logarithm (float64)."""
    return _blocked(_log, x)


def _log(flat: np.ndarray) -> np.ndarray:
    ok = (flat > 0.0) & (flat < np.inf)  # False for NaN
    fix = not ok.all()
    m, e = np.frexp(np.where(ok, flat, 1.0) if fix else flat)
    # m < sqrt(1/2) moves to 2m and e - 1: exact, and no select
    shift = m < _SQRT_HALF
    np.ldexp(m, shift, out=m)
    e -= shift
    e = e.astype(np.float64)
    # e*ln2_hi + (log(m) + e*ln2_lo), log(m) = 2s + 2s*z*P(z) with
    # s = (m - 1) / (m + 1) and z = s*s, each in a buffer done with
    s = m - 1.0
    m += 1.0
    s /= m
    z = np.multiply(s, s, out=m)
    s *= 2.0
    t = s * z
    t *= _horner(z, _LOG_POLY)
    s += t
    s += np.multiply(e, _LN2_LO, out=t)
    out = np.multiply(e, _LN2_HI, out=z)
    out += s
    if fix:
        out = np.where(flat == 0.0, -np.inf, out)
        out = np.where(flat < 0.0, np.nan, out)
        out = np.where(np.isposinf(flat), np.inf, out)
        out = np.where(np.isnan(flat), np.nan, out)
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


def _trig_reduce(x: np.ndarray, quarter_turns: int):
    """``x = k*pi/2 + r``; returns ``r`` and the quadrant of ``x`` plus
    ``quarter_turns`` quarter turns, ``(k + quarter_turns) mod 4``."""
    k = np.rint(x * _TWO_OVER_PI)
    r = (x - k * _PIO2_HI) - k * _PIO2_LO
    r = r - k * _PIO2_TAIL
    return r, (k.astype(np.int64) + quarter_turns) & 3


def _sin_kernel(r: np.ndarray) -> np.ndarray:
    z = r * r
    out = r * z
    out *= _horner(z, _SIN_POLY)
    out += r
    return out


def _cos_kernel(r: np.ndarray) -> np.ndarray:
    z = r * r
    out = _horner(z, _COS_POLY)
    out *= z
    out += 1.0
    return out


_QUADRANT_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


def _sine(x, quarter_turns: int) -> np.ndarray:
    """``sin(x + quarter_turns*pi/2)``, NaN where ``x`` is not finite.

    In quadrant q the value is the sin kernel for even q and the cos
    kernel for odd q, negated for q >= 2.  Each element is routed once by
    the parity of q and only that kernel runs on it, on the gathered
    subset; the negation is a multiply by -1, which is exact.
    """
    x = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(x)
    all_finite = finite.all()
    xc = np.minimum(np.maximum(x, -_TRIG_MAX), _TRIG_MAX)
    if not all_finite:
        xc = np.where(finite, xc, 0.0)
    r, q = _trig_reduce(xc.reshape(-1), quarter_turns)
    out = np.empty(r.shape)
    odd = (q & 1).astype(bool)
    for idx, kernel in ((np.flatnonzero(~odd), _sin_kernel),
                        (np.flatnonzero(odd), _cos_kernel)):
        if idx.size:
            out[idx] = kernel(r[idx])
    out *= _QUADRANT_SIGN[q]
    out = out.reshape(x.shape)
    if not all_finite:
        out[~finite] = np.nan
    return out


def sin(x) -> np.ndarray:
    """Deterministic sine; accurate for ``|x| <= 1e6``."""
    return _sine(x, 0)


def cos(x) -> np.ndarray:
    """Deterministic cosine; accurate for ``|x| <= 1e6``."""
    return _sine(x, 1)


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
    """``(exp(-ysq*ysq), ysq^2 - y^2)`` for ``ysq`` = y cut to 1/16ths.

    Splitting ``y*y`` keeps ``exp``'s argument exact; ``exp(-y*y)`` is
    the first times ``exp`` of the second, an argument in
    ``(-2*y/16, 0]``, well inside ``exp``'s range.  ``ysq`` is k/16 with
    k <= 16 * _ERFC_ZERO, so ``exp(-ysq*ysq)`` is read from a table of
    those values, computed by ``exp`` itself: the same bits.
    """
    k = y * 16.0
    np.trunc(k, out=k)
    head = _EXP_NEG_SQ16[k.astype(np.intp)]
    ysq = k
    ysq /= 16.0
    rest = ysq - y
    ysq += y
    rest *= ysq
    return head, rest


def _erfc_above_near(y: np.ndarray, any_far: bool) -> np.ndarray:
    """``erfc(y)`` for 1-d ``y > 0.46875``, none NaN: the mid kernel up
    to 4, the far kernel beyond (if ``any_far``); ``y`` is overwritten.

    Both kernels are ``exp(-y*y)`` times a rational factor, and one
    ``exp(-y*y)`` pass serves every element.  A far element is first
    cut at _ERFC_ZERO, where the value is 0 (the far kernel's result is
    set to 0 there), so y * y cannot overflow, nor y - ysq be inf - inf.
    The mid factor runs on every element and the far elements' results
    are then written over theirs.
    """
    far = np.flatnonzero(y > 4.0) if any_far else ()
    if len(far):
        yf = np.minimum(y[far], _ERFC_ZERO)
        y[far] = yf
    out, rest = _exp_neg_square(y)
    out *= _exp_core(rest)
    del rest  # freed before the ratio's buffers are taken
    if len(far):
        z = 1.0 / (yf * yf)
        r = z * _horner(z, _ERFC_FAR_NUM) / _horner(z, _ERFC_FAR_DEN)
        tail = out[far] * (_INV_SQRT_PI - r) / yf
        tail[yf == _ERFC_ZERO] = 0.0
    ratio = _horner(y, _ERFC_MID_NUM)
    ratio /= _horner(y, _ERFC_MID_DEN)
    out *= ratio
    if len(far):
        out[far] = tail
    return out


def _erf_near(x: np.ndarray) -> np.ndarray:
    # |x| <= 0.46875
    z = x * x
    out = _horner(z, _ERF_NEAR_NUM)
    out *= x
    out /= _horner(z, _ERF_NEAR_DEN)
    return out


def _erfc_near(x: np.ndarray) -> np.ndarray:
    out = _erf_near(x)
    return np.subtract(1.0, out, out=out)


def _erf_tail(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    # 1 - t > 0 here, so copysign gives sign(v) * (1 - t)
    np.subtract(1.0, t, out=t)
    return np.copysign(t, v, out=t)


def _by_region(flat, near, tail) -> np.ndarray:
    """``near(x)`` where ``|x| <= 0.46875``, else ``tail(x, erfc(|x|))``.

    ``erfc(|x|)`` comes from :func:`_erfc_above_near`; a route with no
    elements runs nothing.  NaN stays NaN.
    """
    y = np.abs(flat)
    is_near = y <= 0.46875
    above = np.flatnonzero(y > 0.46875)  # NaN is in neither route
    any_far = not (flat.size and y.max() <= 4.0)  # or a NaN
    if any_far:
        y[np.isnan(y)] = np.nan  # the one NaN, whatever the input's
    # |x| of the mid and far elements is gathered first; then the output
    # is written over y, where every element but NaN lies in a route
    y_above = y[above]
    out = y
    idx = np.flatnonzero(is_near)
    if idx.size:
        out[idx] = near(flat[idx])
    if above.size:
        out[above] = tail(flat[above], _erfc_above_near(y_above, any_far))
    return out


def erf(x) -> np.ndarray:
    """Deterministic error function (float64)."""
    return _blocked(_erf, x)


def _erf(flat: np.ndarray) -> np.ndarray:
    return _by_region(flat, _erf_near, _erf_tail)


def erfc(x) -> np.ndarray:
    """Deterministic complementary error function (float64)."""
    return _blocked(_erfc, x)


def _erfc(flat: np.ndarray) -> np.ndarray:
    return _by_region(flat, _erfc_near,
                      lambda v, t: np.where(v < 0.0, 2.0 - t, t))


_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


def norm_cdf(x) -> np.ndarray:
    """Standard normal CDF via ``erfc`` (accurate in both tails)."""
    return _blocked(_norm_cdf, x)


def _norm_cdf(flat: np.ndarray) -> np.ndarray:
    out = erfc(flat * -_INV_SQRT2)
    out *= 0.5
    return out


_PDF_ZERO = 64.0  # exp(-x*x/2) is 0 from |x| ~ 38.6 on


def norm_pdf(x) -> np.ndarray:
    return _blocked(_norm_pdf, x)


def _norm_pdf(flat: np.ndarray) -> np.ndarray:
    # |x| is capped so that x*x cannot overflow; the cap changes no value
    h = np.abs(flat)
    np.minimum(h, _PDF_ZERO, out=h)
    h *= -0.5 * h
    out = exp(h)
    out *= _INV_SQRT_2PI
    return out


def norm_cdf_diff(lo, hi) -> np.ndarray:
    """Mass of the standard normal on ``(lo, hi]``.

    Reflects right-sided intervals onto the left tail so the difference is
    taken between two small, relatively-accurate ``erfc`` values instead of
    two values near 1.
    """
    return _blocked(_norm_cdf_diff, lo, hi)


def _norm_cdf_diff(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # where lo > -hi (the sign of lo + hi without the sum, which can
    # overflow) the interval flips to (-hi, -lo]; minimum picks the same
    # ends without a select, and at lo == -hi differs only in the sign of
    # a zero, which norm_cdf maps to the same value
    mass = norm_cdf(np.minimum(hi, -lo))
    mass -= norm_cdf(np.minimum(lo, -hi))
    return np.maximum(mass, 0.0, out=mass)


def sigmoid(x) -> np.ndarray:
    """Deterministic logistic function (float64)."""
    return _blocked(_sigmoid, x)


def _sigmoid(flat: np.ndarray) -> np.ndarray:
    ez = exp(-np.abs(flat))
    return np.where(flat >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def round_half_away(x) -> np.ndarray:
    """Round to nearest with halves away from zero (the codec's tie rule)."""
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)
