"""Residual quantization and the Gaussian-convolved-uniform rate model.

The coding target for a model is the difference between its trained
parameters and its warm-start initialization.  Each layer gets a
trainable positive step size (stored as log-scale during training) and a
symmetric scalar quantizer with round-half-away-from-zero ties.  The
probability of a quantized value is modelled per layer as a Gaussian,
fitted to the scaled residual, convolved with a unit uniform:

* train mode adds uniform(-1/2, 1/2) noise to the scaled residual and
  scores it under the continuous density (differentiable),
* eval mode scores the hard integer symbols via interval masses of the
  same Gaussian, which is what the entropy coder's tables discretize.

Layer statistics live in the scaled domain, so the stored (mu, sd) pairs
directly parameterize the integer-symbol models used by the coder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detmath, ops
from .errors import ConfigError, LayoutError, NumericError
from .params import ParamVector
from .tensor import Tensor

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


@dataclass(frozen=True)
class QuantScale:
    """Per-layer quantization step (frozen, float32)."""

    names: tuple[str, ...]
    values: np.ndarray  # (L,) float32, > 0

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise LayoutError("scale count does not match layer count")
        if not np.all(self.values > 0):
            bad = self.names[int(np.argmin(self.values))]
            raise ConfigError(f"non-positive quantization scale for {bad!r}")


@dataclass(frozen=True)
class LayerStats:
    """Per-layer mean/std of the scaled residual (frozen, float32)."""

    names: tuple[str, ...]
    mu: np.ndarray  # (L,) float32
    sd: np.ndarray  # (L,) float32, >= SIGMA_FLOOR

    def __post_init__(self):
        if not (len(self.names) == len(self.mu) == len(self.sd)):
            raise LayoutError("stats arrays do not match layer count")
        if not np.all(self.sd >= np.float32(SIGMA_FLOOR) * np.float32(0.5)):
            raise ConfigError("standard deviation below floor")


@dataclass(frozen=True)
class RateEstimate:
    """Total and per-layer bit estimates (non-negative)."""

    total_bits: float
    per_layer: np.ndarray

    def __post_init__(self):
        if np.any(self.per_layer < 0):
            raise NumericError("negative per-layer bit estimate")
        if not math.isclose(self.total_bits, float(self.per_layer.sum()),
                            rel_tol=1e-9, abs_tol=1e-6):
            raise NumericError("total bits != sum of per-layer bits")


def residual(theta_star: ParamVector, theta_prime: ParamVector) -> ParamVector:
    """Elementwise coding target: trained minus warm-start parameters."""
    theta_star.check_same_layout(theta_prime)
    return ParamVector([
        (name, Tensor(theta_star[name].data - theta_prime[name].data))
        for name in theta_star.names])


def initial_scales(init: ParamVector) -> QuantScale:
    """Step sizes proportional to each layer's initialization magnitude."""
    values = []
    for name, tensor in init.items():
        span = float(np.max(np.abs(tensor.data)))
        if span == 0.0:
            span = 1.0
        values.append(span / INIT_SYMBOL_SPAN)
    return QuantScale(tuple(init.names),
                      np.asarray(values, dtype=np.float32))


def quantize(delta: ParamVector, scales: QuantScale) -> list[np.ndarray]:
    """Integer symbols per layer: round-half-away(delta / scale).

    Raises :class:`ConfigError` naming the layer when a symbol's magnitude
    exceeds ``MAX_SYMBOL``, the range coder's alphabet bound.
    """
    if tuple(delta.names) != scales.names:
        raise LayoutError("scale layout does not match parameter layout")
    symbols = []
    for value, (name, tensor) in zip(scales.values, delta.items()):
        step = tensor.data.dtype.type(value)
        sym = detmath.round_half_away(tensor.data / step)
        peak = float(np.max(np.abs(sym))) if sym.size else 0.0
        if peak > MAX_SYMBOL:
            raise ConfigError(f"layer {name!r}: symbol magnitude {peak:.0f} "
                              f"exceeds the coder bound {MAX_SYMBOL}")
        symbols.append(sym.astype(np.int32))
    return symbols


def dequantize(symbols: list[np.ndarray], scales: QuantScale,
               layout, dtype) -> ParamVector:
    """Reconstruct the lattice points symbol * scale."""
    if len(symbols) != len(scales.names):
        raise LayoutError("symbol stream count does not match layout")
    dtype = np.dtype(dtype)
    segments = []
    for sym, value, (name, shape) in zip(symbols, scales.values, layout):
        step = dtype.type(value)
        segments.append((name, Tensor((sym.astype(dtype) * step)
                                      .reshape(shape))))
    return ParamVector(segments)


def apply_residual(theta_prime: ParamVector, symbols: list[np.ndarray],
                   scales: QuantScale) -> ParamVector:
    """Lattice snap shared by encoder and decoder: prime + symbol * scale.

    Both sides run this exact arithmetic, so the resulting parameters are
    bit-identical whether the symbols came from training or the stream.
    """
    if tuple(theta_prime.names) != scales.names:
        raise LayoutError("scale layout does not match parameter layout")
    dtype = theta_prime.dtype
    segments = []
    for sym, value, (name, tensor) in zip(symbols, scales.values,
                                          theta_prime.items()):
        step = dtype.type(value)
        data = tensor.data + (sym.astype(dtype) * step).reshape(tensor.shape)
        segments.append((name, Tensor(data)))
    return ParamVector(segments)


def layer_stats(scaled: list[np.ndarray], names: tuple[str, ...]) -> LayerStats:
    """Mean/std of each scaled residual, floored and frozen to float32."""
    mu = np.empty(len(scaled), dtype=np.float32)
    sd = np.empty(len(scaled), dtype=np.float32)
    for i, arr in enumerate(scaled):
        mu[i] = np.float32(np.mean(arr, dtype=np.float64))
        sd[i] = np.float32(max(float(np.std(arr, dtype=np.float64)),
                               SIGMA_FLOOR))
    return LayerStats(tuple(names), mu, sd)


def rate_bits_train(scaled, noise, stats: LayerStats,
                    sizes=None) -> Tensor:
    """Differentiable bit estimate at (scaled residual + uniform noise).

    ``scaled`` is one tensor per layer, or all layers already flattened
    and joined in layout order as one 1-d tensor with ``sizes`` giving
    each layer's element count.  ``noise`` holds one array per layer or
    one array with every layer's noise in layout order.  (mu, sd) are
    treated as per-step constants; gradients flow through the scaled
    residual (and hence through parameters and log-scales).

    All layers are scored by one op chain: every element carries its
    layer's offsets and inverse sd, and the per-element bits are summed
    per layer.  The bits equal scoring each layer on its own, because
    every rounding step is kept: ``0.5 - mu`` and ``-0.5 - mu`` are taken
    in float32 and ``1 / max(sd, SIGMA_TRAIN_FLOOR)`` in float64, then
    rounded to the tensor dtype; each layer's sum is one ``np.sum`` over
    its own contiguous elements, scaled to bits per layer; and the layer
    bits are added left to right in layout order.
    """
    if isinstance(scaled, Tensor):
        flat = scaled
        sizes = list(sizes)
    else:
        flat = ops.concat_flat(scaled)
        sizes = [t.size for t in scaled]
    if isinstance(noise, np.ndarray):
        u = noise.reshape(-1)
    else:
        u = np.concatenate([a.reshape(-1) for a in noise])
    if not (len(sizes) == len(stats.names)
            and sum(sizes) == u.size == flat.size):
        raise LayoutError(f"rate term got {len(sizes)} layers of "
                          f"{flat.size} values, {u.size} noise values and "
                          f"{len(stats.names)} layer stats")

    def per_element(values) -> Tensor:
        return ops.constant(np.repeat(np.asarray(values, dtype=flat.dtype),
                                      sizes))

    inv_sd = per_element([1.0 / max(float(sd), SIGMA_TRAIN_FLOOR)
                          for sd in stats.sd])
    y = ops.add(flat, ops.constant(u.astype(flat.dtype)))
    hi = ops.mul(ops.add(y, per_element([float(0.5 - mu)
                                         for mu in stats.mu])), inv_sd)
    lo = ops.mul(ops.add(y, per_element([float(-0.5 - mu)
                                         for mu in stats.mu])), inv_sd)
    p = ops.clamp_min(ops.gauss_mass(lo, hi), TRAIN_PROB_FLOOR)
    nats = ops.segment_sum(ops.neg(ops.log(p)), sizes)
    return ops.sum_ordered(ops.mul(nats, _INV_LN2))


def rate_bits_eval(symbols: list[np.ndarray], stats: LayerStats) -> RateEstimate:
    """Bit estimate at hard symbols via Gaussian interval masses."""
    per_layer = np.empty(len(symbols), dtype=np.float64)
    for i, (sym, mu, sd) in enumerate(zip(symbols, stats.mu, stats.sd)):
        if sym.size == 0:
            per_layer[i] = 0.0
            continue
        k = sym.astype(np.float64)
        inv_sd = 1.0 / float(sd)
        mass = detmath.norm_cdf_diff((k - 0.5 - mu) * inv_sd,
                                     (k + 0.5 - mu) * inv_sd)
        bits = -detmath.log2(np.maximum(mass, EVAL_PROB_FLOOR))
        per_layer[i] = float(np.sum(bits))
    return RateEstimate(float(per_layer.sum()), per_layer)


def combined_loss(frame_mse: float, rate: RateEstimate, lam: float) -> float:
    """Training objective: estimated bits plus lam times distortion."""
    if lam <= 0:
        raise ConfigError(f"distortion weight must be positive, got {lam}")
    return rate.total_bits + lam * frame_mse


# Re-exported here because straight-through rounding is part of this
# module's contract; the kernel lives with the other tensor ops.
ste_round = ops.ste_round
