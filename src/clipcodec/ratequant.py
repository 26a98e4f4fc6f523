"""Residual quantization and the Gaussian-convolved-uniform rate model.

The coding target for a model is the difference between its trained
parameters and its warm-start initialization.  Each layer gets a
trainable positive step size (stored as log-scale during training) and a
symmetric scalar quantizer with round-half-away-from-zero ties.  The
probability of a quantized value is modelled per layer as a Gaussian,
fitted to the scaled residual, convolved with a unit uniform:

* train mode adds uniform(-1/2, 1/2) noise to the scaled residual and
  scores it under the continuous density, with its gradient,
* eval mode scores the hard integer symbols via interval masses of the
  same Gaussian, which is what the entropy coder's tables discretize.

Layer statistics live in the scaled domain, so the stored (mu, sd) pairs
directly parameterize the integer-symbol models used by the coder.  Steps,
statistics and bit estimates are (L,) arrays in layout order; only the
:class:`ParamVector` they meet names the layers.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import detmath
from .errors import ConfigError, LayoutError, NumericError
from .params import ParamVector

SIGMA_FLOOR = 1e-6
# Train-mode floor is far gentler: the residual starts at exactly zero, and
# scoring the +-1/2 uniform noise under a near-delta Gaussian would put an
# effectively infinite gradient wall at the first lattice boundary (and
# poison Adam's second moments).  Stored/eval statistics keep SIGMA_FLOOR.
SIGMA_TRAIN_FLOOR = 0.5
# Likelihood floor in train mode; keeps log finite when noise lands far
# outside the fitted Gaussian early in training.
TRAIN_PROB_FLOOR = 2.0 ** -40
EVAL_PROB_FLOOR = 2.0 ** -60
# Widest symbol the coder's 16-bit frequency tables can host: [-B, B] with
# one frequency grain each needs 2B+1 <= 2^16.
MAX_SYMBOL = 32767
# Initial step size targets max |symbol| around 2^7 once the residual grows
# to the magnitude of the initialization itself.
INIT_SYMBOL_SPAN = 128.0
_INV_LN2 = 1.4426950408889634


def residual(theta_star: ParamVector, theta_prime: ParamVector) -> ParamVector:
    """Elementwise coding target: trained minus warm-start parameters."""
    theta_star.check_same_layout(theta_prime)
    return theta_star.with_flat(theta_star.flat.data - theta_prime.flat.data)


def initial_scales(init: ParamVector) -> np.ndarray:
    """(L,) float32 step sizes proportional to each layer's initialization
    magnitude."""
    values = []
    for segment in init.split(init.flat.data):
        span = float(np.max(np.abs(segment)))
        if span == 0.0:
            span = 1.0
        values.append(span / INIT_SYMBOL_SPAN)
    return np.asarray(values, dtype=np.float32)


def scaled_residual(delta: ParamVector, scales: np.ndarray) -> ParamVector:
    """``delta / scale`` per layer: what :func:`quantize` rounds and
    :func:`layer_stats` describes."""
    return delta.with_flat(delta.flat.data / delta.spread(scales))


def quantize(scaled: ParamVector) -> list[np.ndarray]:
    """Integer symbols per layer: round-half-away of the scaled residual.

    Raises :class:`ConfigError` naming the layer when a symbol's magnitude
    exceeds ``MAX_SYMBOL``, the range coder's alphabet bound.
    """
    symbols = scaled.split(detmath.round_half_away(scaled.flat.data))
    for name, sym in zip(scaled.names, symbols):
        peak = float(np.max(np.abs(sym))) if sym.size else 0.0
        if peak > MAX_SYMBOL:
            raise ConfigError(f"layer {name!r}: symbol magnitude {peak:.0f} "
                              f"exceeds the coder bound {MAX_SYMBOL}")
    return [sym.astype(np.int32) for sym in symbols]


def widen_steps(delta: ParamVector, scales: np.ndarray) -> np.ndarray:
    """(L,) float32 steps that keep every symbol of ``delta`` inside
    ``MAX_SYMBOL``.

    A layer whose peak symbol would pass the bound gets the smallest
    float32 step whose peak is ``MAX_SYMBOL``; every other layer keeps its
    step.  The quotient is monotone in the step, so only the layer's
    largest magnitude matters, and the search uses only exactly rounded
    operations (division, ``nextafter``), so every IEEE host finds the
    same step.
    """
    values = np.array(scales, dtype=np.float32)
    if len(values) != len(delta.names):
        raise LayoutError(f"{len(values)} steps for {len(delta.names)} layers")
    limit = MAX_SYMBOL + 0.5  # round-half-away sends this up to MAX + 1
    for i, (name, segment) in enumerate(zip(delta.names,
                                            delta.split(delta.flat.data))):
        if segment.size == 0:
            continue
        dt = segment.dtype.type
        top = np.max(np.abs(segment))

        def fits(step):
            with np.errstate(over="ignore"):  # an inf quotient does not fit
                return top / dt(step) < limit

        if not np.isfinite(top) or fits(values[i]):
            continue  # no step fits a non-finite residual
        step = np.float32(top / dt(limit))
        while not fits(step):
            step = np.nextafter(step, np.float32(np.inf))
        while fits(np.nextafter(step, np.float32(0.0))):
            step = np.nextafter(step, np.float32(0.0))
        if not np.isfinite(step):
            raise NumericError(f"layer {name!r}: residual peak {top} needs "
                               f"a step past float32")
        values[i] = step
    return values


def apply_residual(theta_prime: ParamVector, symbols: list[np.ndarray],
                   scales: np.ndarray) -> ParamVector:
    """Lattice snap shared by encoder and decoder: prime + symbol * scale.

    Both sides run this exact arithmetic, so the resulting parameters are
    bit-identical whether the symbols came from training or the stream.
    """
    sym = np.concatenate([s.reshape(-1) for s in symbols])
    return theta_prime.with_flat(
        theta_prime.flat.data
        + sym.astype(theta_prime.dtype) * theta_prime.spread(scales))


def layer_stats(scaled: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sd): mean/std of each layer's scaled residual, floored and
    frozen to (L,) float32 arrays.

    ``scaled`` holds every layer's values, flattened and joined in layout
    order, with ``sizes`` giving each layer's element count.  The bits are
    those of ``np.mean`` and ``np.std(dtype=float64)`` per layer: each sum
    is one ``np.add.reduce`` (what ``np.sum`` calls) over the layer's own
    contiguous values, and every other step is elementwise, so it is taken
    once over all layers.
    """
    sizes = list(sizes)
    if sum(sizes) != scaled.size:
        raise LayoutError(f"stats got {len(sizes)} layers of {sum(sizes)} "
                          f"values in all for {scaled.size} values")
    ends = list(itertools.accumulate(sizes))
    spans = list(zip([0] + ends[:-1], ends))
    mean = np.array([np.add.reduce(scaled[a:b], dtype=np.float64)
                     for a, b in spans]) / sizes
    dev = scaled.astype(np.float64)
    dev -= np.repeat(mean, sizes)
    dev *= dev
    var = np.array([np.add.reduce(dev[a:b]) for a, b in spans]) / sizes
    return (mean.astype(np.float32),
            np.maximum(np.sqrt(var), SIGMA_FLOOR).astype(np.float32))


def rate_bits_train(unit: np.ndarray, noise: np.ndarray, mu: np.ndarray,
                    sd: np.ndarray, sizes):
    """Bit estimate at (scaled residual + uniform noise) and its gradient:
    ``(bits, d bits / d unit)``.

    ``unit`` holds every layer's scaled residual, flattened and joined in
    layout order, with ``sizes`` giving each layer's element count;
    ``noise`` holds every layer's noise in the same order.  (mu, sd) are
    per-step constants, so the gradient is the one the scaled residual
    (and through it the parameters and log-scales) receives.  ``bits`` is
    a 0-d array of ``unit``'s dtype and the gradient a flat array of it;
    a rate that is not finite has no gradient (None).

    One pass over blocks of at most ``detmath._BLOCK_ELEMENTS`` values
    scores the rate and differentiates it at once, so nothing of it
    outlives the call but the gradient.  Every value is the one the chain
    of ``ops`` gives when each layer is scored on its own and walked
    backward: ``0.5 - mu`` and ``-0.5 - mu`` are taken in float32 and
    ``1 / max(sd, SIGMA_TRAIN_FLOOR)`` in float64, then rounded to the
    dtype; each layer's nats are one ``np.sum`` over its own contiguous
    values, scaled to bits per layer; and the layer bits are added left
    to right in layout order.  The gradient's arithmetic raises no
    floating-point warning: where a unit or a noise value is infinite,
    the chain's backward pass multiplied it by a zero gradient that
    nothing read, which warned, and gave the same gradient.
    """
    sizes = list(sizes)
    unit, u = unit.reshape(-1), noise.reshape(-1)
    if not (len(sizes) == len(mu) == len(sd)
            and sum(sizes) == u.size == unit.size):
        raise LayoutError(f"rate term got {len(sizes)} layers of "
                          f"{unit.size} values, {u.size} noise values and "
                          f"{len(mu)}/{len(sd)} layer stats")
    dtype = unit.dtype
    inv_sd = np.array([1.0 / max(float(s), SIGMA_TRAIN_FLOOR) for s in sd],
                      dtype)
    hi_shift = np.array([float(0.5 - m) for m in mu], dtype)
    lo_shift = np.array([float(-0.5 - m) for m in mu], dtype)
    floor, slope = dtype.type(TRAIN_PROB_FLOOR), dtype.type(-_INV_LN2)
    bounds = np.cumsum([0] + sizes)
    nats = np.empty(unit.size, dtype)  # each value's -log p
    grad = np.empty(unit.size, dtype)
    for start in range(0, unit.size, detmath._BLOCK_ELEMENTS):
        piece = slice(start, start + detmath._BLOCK_ELEMENTS)
        # each layer's count in the block spreads its constants over it
        counts = np.diff(np.clip(bounds, start, piece.stop))
        scale = np.repeat(inv_sd, counts)
        y = unit[piece] + u[piece].astype(dtype)
        hi = y + np.repeat(hi_shift, counts)
        hi *= scale
        lo = np.add(y, np.repeat(lo_shift, counts), out=y)
        lo *= scale
        mass = detmath.norm_cdf_diff(lo, hi).astype(dtype)
        p = np.maximum(mass, floor)
        np.negative(detmath.log(p).astype(dtype), out=nats[piece])
        with np.errstate(all="ignore"):
            g = np.divide(slope, p, out=p)
            g *= mass > floor
            up = g * detmath.norm_pdf(hi).astype(dtype)
            np.negative(g, out=g)
            g *= detmath.norm_pdf(lo).astype(dtype)
            g *= scale
            up *= scale
            np.add(g, up, out=grad[piece])
    layer_nats = np.array([np.sum(nats[a:b]) for a, b
                           in zip(bounds[:-1], bounds[1:])], dtype)
    terms = layer_nats * dtype.type(_INV_LN2)
    bits = np.asarray(np.add.accumulate(terms)[-1] if terms.size else 0.0,
                      dtype)
    return bits, grad if np.isfinite(bits) else None


def rate_bits_eval(symbols: list[np.ndarray], mu: np.ndarray,
                   sd: np.ndarray) -> np.ndarray:
    """(L,) float64 bit estimates at hard symbols via Gaussian interval
    masses, one per layer."""
    per_layer = np.empty(len(symbols), dtype=np.float64)
    for i, (sym, m, s) in enumerate(zip(symbols, mu, sd)):
        if sym.size == 0:
            per_layer[i] = 0.0
            continue
        k = sym.astype(np.float64)
        inv_sd = 1.0 / float(s)
        mass = detmath.norm_cdf_diff((k - 0.5 - m) * inv_sd,
                                     (k + 0.5 - m) * inv_sd)
        bits = -detmath.log2(np.maximum(mass, EVAL_PROB_FLOOR))
        per_layer[i] = float(np.sum(bits))
    return per_layer
