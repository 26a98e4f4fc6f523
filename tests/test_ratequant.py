"""Quantization and the rate model."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import norm

from clipcodec import detmath, ops
from clipcodec.errors import ConfigError, LayoutError
from clipcodec.params import ParamVector
from clipcodec.ratequant import (MAX_SYMBOL, SIGMA_FLOOR, SIGMA_TRAIN_FLOOR,
                                 TRAIN_PROB_FLOOR, apply_residual, initial_scales, layer_stats,
                                 quantize, rate_bits_eval, rate_bits_train,
                                 residual, scaled_residual, widen_steps)
from clipcodec.tensor import Tape, Tensor
from conftest import (clamp_min, fd_gradient, gauss_mass, layer_stats_of,
                      log, neg, rate_bits_layers, rel_error, sum_all)


def _pv(values, name="w"):
    data = np.asarray(values, dtype=np.float32)
    return ParamVector([(name, data.shape)], Tensor(data))


def _lattice(symbols, scales, like):
    """symbol * step: the residual applied to a zero warm start."""
    zero = like.with_flat(np.zeros_like(like.flat.data))
    return apply_residual(zero, symbols, scales)


def test_residual_elementwise():
    a = _pv([1.0, 2.0, 3.0])
    b = _pv([1.0, 1.0, 1.0])
    out = residual(a, b)
    assert np.allclose(out["w"].data, [0.0, 1.0, 2.0])


def test_residual_zero_and_constant():
    a = _pv([0.5, -1.5])
    assert np.all(residual(a, a)["w"].data == 0.0)
    shifted = _pv(np.asarray([0.5, -1.5]) + 2.0)
    assert np.allclose(residual(shifted, a)["w"].data, 2.0)


def test_residual_layout_mismatch_names_segment():
    a = ParamVector([("x", (2,)), ("y", (3,))],
                    Tensor(np.zeros(5, dtype=np.float32)))
    b = ParamVector([("x", (2,)), ("y", (4,))],
                    Tensor(np.zeros(6, dtype=np.float32)))
    with pytest.raises(LayoutError, match="y"):
        residual(a, b)


def test_quantize_example_values():
    delta = _pv([0.4, -1.3])
    scales = np.asarray([0.5], dtype=np.float32)
    symbols = quantize(scaled_residual(delta, scales))
    assert np.array_equal(symbols[0], [1, -3])
    back = _lattice(symbols, scales, delta)
    assert np.allclose(back["w"].data, [0.5, -1.5])


def test_quantize_identity_on_integer_lattice():
    delta = _pv([3.0, -7.0, 0.0])
    scales = np.asarray([1.0], dtype=np.float32)
    symbols = quantize(scaled_residual(delta, scales))
    assert np.array_equal(symbols[0], [3, -7, 0])


def test_zero_delta_quantizes_to_zero():
    delta = _pv(np.zeros(16))
    scales = np.asarray([0.25], dtype=np.float32)
    symbols = quantize(scaled_residual(delta, scales))
    assert not symbols[0].any()
    back = _lattice(symbols, scales, delta)
    assert np.all(back["w"].data == 0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0, allow_nan=False, width=32),
                min_size=1, max_size=40),
       st.floats(1e-3, 8.0))
@example([100.0], 0.02705261629397754)  # past a bound of half a step alone
def test_quantize_round_trip_error_bounded(values, scale):
    delta = _pv(values)
    scales = np.asarray([scale], dtype=np.float32)
    # the peak symbol, computed in float32 as quantize does
    peak = np.max(np.abs(detmath.round_half_away(
        delta["w"].data / np.float32(scale))))
    if peak > MAX_SYMBOL:
        # past the coder's alphabet: refused, naming the layer
        with pytest.raises(ConfigError, match="'w'"):
            quantize(scaled_residual(delta, scales))
        return
    symbols = quantize(scaled_residual(delta, scales))
    back = _lattice(symbols, scales, delta)
    # Half a step, plus the float32 rounding (relative error at most
    # u = 2^-24) of value / step, which moves the symbol by at most
    # u * |value| / step, and of symbol * step, whose exact value lies
    # within |value| + step / 2 + u * |value|.  A quotient too small for
    # a normal float32 rounds to symbol 0, well inside the bound.  The
    # difference of two float32 values is exact in float64.
    step = float(np.float32(scale))
    value = np.abs(delta["w"].data.astype(np.float64))
    u = 2.0 ** -24
    bound = 0.5 * step + u * value + u * (value + 0.5 * step + u * value)
    err = np.abs(back["w"].data.astype(np.float64)
                 - delta["w"].data.astype(np.float64))
    assert np.all(err <= bound)
    # idempotence on the lattice
    again = quantize(scaled_residual(back, scales))
    assert np.array_equal(again[0], symbols[0])


def test_quantize_rejects_oversized_symbols():
    delta = _pv([1e9])
    scales = np.asarray([1.0], dtype=np.float32)
    with pytest.raises(ConfigError, match="'w'"):
        quantize(scaled_residual(delta, scales))


def test_apply_residual_matches_manual():
    prime = _pv([1.0, 2.0])
    scales = np.asarray([0.5], dtype=np.float32)
    out = apply_residual(prime, [np.asarray([2, -1], dtype=np.int32)],
                         scales)
    assert np.allclose(out["w"].data, [2.0, 1.5])


def _peak(values, step, dtype):
    """Peak |symbol| as quantize computes it, in the residual's dtype."""
    data = np.asarray(values, dtype=dtype)
    return float(np.max(np.abs(detmath.round_half_away(
        data / data.dtype.type(step)))))


@settings(max_examples=80, deadline=None)
@given(st.floats(2.0 ** -64, 2.0 ** 64, width=32), st.floats(1e-3, 1e9),
       st.sampled_from([np.float32, np.float64]))
@example(1.0, 1e6, np.float32)  # about a million steps wide
def test_widen_steps_picks_smallest_step_inside_alphabet(top, width, dtype):
    values = [top, -top / 3, 0.0]
    step = np.float32(top / width)
    delta = ParamVector([("w", (3,)), ("b", (1,))],
                        Tensor(np.asarray(values + [0.25], dtype=dtype)))
    given_steps = np.asarray([step, 0.5], dtype=np.float32)
    scales = widen_steps(delta, given_steps)
    assert scales.dtype == np.float32
    assert scales[1] == given_steps[1]  # a fitting layer is untouched
    widened = scales[0]
    assert _peak(values, widened, dtype) <= MAX_SYMBOL
    if _peak(values, step, dtype) <= MAX_SYMBOL:
        assert widened == step
    else:
        # the next float32 step down would pass the bound
        below = np.nextafter(widened, np.float32(0.0))
        assert _peak(values, below, dtype) > MAX_SYMBOL
    quantize(scaled_residual(delta, scales))  # no ConfigError


def test_widen_steps_rejects_a_wrong_step_count():
    delta = ParamVector([("w", (3,)), ("b", (1,))],
                        Tensor(np.zeros(4, dtype=np.float32)))
    with pytest.raises(LayoutError, match="3 steps for 2 layers"):
        widen_steps(delta, np.ones(3, dtype=np.float32))


def test_initial_scales_target_symbol_span():
    rng = np.random.default_rng(0)
    init = _pv(rng.standard_normal(500) * 0.2)
    scales = initial_scales(init)
    peak = float(np.max(np.abs(init["w"].data)))
    assert scales.dtype == np.float32 and scales.shape == (1,)
    assert scales[0] == pytest.approx(peak / 128.0, rel=1e-6)


def test_layer_stats_floor():
    mu, sd = layer_stats_of([np.zeros(32)])
    assert sd[0] == pytest.approx(1e-6)
    assert mu[0] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_stats_match_per_layer_mean_and_std(dtype):
    # one pass over the joined layers gives each layer the bits of its own
    # np.mean and np.std(dtype=float64), at uneven offsets and past one
    # 8192-element cast buffer
    rng = np.random.default_rng(6)
    sizes = [1, 3, 7, 129, 1000, 9001]
    layers = [(rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
               + rng.uniform(-5, 5)).astype(dtype) for n in sizes]
    mus, sds = layer_stats(np.concatenate(layers), sizes)
    assert mus.dtype == sds.dtype == np.float32
    for i, arr in enumerate(layers):
        mu = np.float32(np.mean(arr, dtype=np.float64))
        sd = np.float32(max(float(np.std(arr, dtype=np.float64)),
                            SIGMA_FLOOR))
        assert mus[i].tobytes() == mu.tobytes()
        assert sds[i].tobytes() == sd.tobytes()
    with pytest.raises(LayoutError):
        layer_stats(np.concatenate(layers), sizes[:-1])


def test_eval_bits_symbol_zero_frozen_oracle():
    # independent oracle via scipy's normal CDF
    oracle = -math.log2(norm.cdf(0.5) - norm.cdf(-0.5))
    bits = rate_bits_eval([np.zeros(1, dtype=np.int32)],
                          np.asarray([0.0], np.float32),
                          np.asarray([1.0], np.float32))
    assert bits.dtype == np.float64 and bits.shape == (1,)
    assert bits[0] == pytest.approx(oracle, abs=1e-6)
    assert bits[0] == pytest.approx(1.3849, abs=5e-4)


def test_eval_bits_zero_delta_monotone_in_sd():
    symbols = [np.zeros(64, dtype=np.int32)]
    previous = None
    for sd in (2.0, 1.0, 0.5, 0.1, 1e-3, 1e-6):
        bits = float(rate_bits_eval(symbols, np.asarray([0.0], np.float32),
                                    np.asarray([sd], np.float32)).sum())
        if previous is not None:
            assert bits <= previous + 1e-12
        previous = bits
    assert previous == pytest.approx(0.0, abs=1e-9)


def test_eval_bits_nonnegative_per_layer():
    rng = np.random.default_rng(1)
    symbols = [rng.integers(-5, 6, 100).astype(np.int32),
               rng.integers(-2, 3, 50).astype(np.int32)]
    mu, sd = layer_stats_of([s.astype(np.float64) for s in symbols])
    bits = rate_bits_eval(symbols, mu, sd)
    assert bits.shape == (2,)
    assert np.all(bits >= 0.0)


def test_train_rate_gradients_match_fd_with_fixed_noise():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(24) * 3.0
    noise = rng.uniform(-0.5, 0.5, 24)
    mu, sd = layer_stats_of([x])
    bits, analytic = rate_bits_train(x, noise, mu, sd, [24])
    assert bits.dtype == analytic.dtype == np.float64
    numeric = fd_gradient(
        lambda: float(rate_bits_train(x, noise, mu, sd, [24])[0]), x)
    assert rel_error(analytic, numeric) < 1e-6


def _rate_bits_train_per_layer(scaled, noise, stats):
    """Reference: the rate term scored one layer at a time (one op chain
    per layer, layer bits added in layout order).  The fused
    ``rate_bits_train`` must reproduce it bit for bit."""
    total = None
    for tensor, u, mu, sd in zip(scaled, noise, *stats):
        inv_sd = 1.0 / max(float(sd), SIGMA_TRAIN_FLOOR)
        y = ops.add(tensor, ops.constant(u.astype(tensor.dtype)))
        hi = ops.mul(ops.add(y, float(0.5 - mu)), inv_sd)
        lo = ops.mul(ops.add(y, float(-0.5 - mu)), inv_sd)
        p = clamp_min(gauss_mass(lo, hi), TRAIN_PROB_FLOOR)
        bits = ops.mul(sum_all(neg(log(p))), 1.4426950408889634)
        total = bits if total is None else ops.add(total, bits)
    return total


_MIXED_SHAPES = ((5, 3, 3, 3), (5,), (1,), (37, 11), (200,), (2, 1, 3),
                 (4, 4, 3, 3), (1, 1))


def _run_rate(fn, dtype, seed):
    """One training-like graph: leaves -> scaled residuals -> rate term plus
    a straight-through-rounded second use of each residual.  Returns the
    loss bits and every leaf gradient."""
    rng = np.random.default_rng(seed)
    weights, log_steps, noise = [], [], []
    for shape in _MIXED_SHAPES:
        spread = 10.0 ** rng.uniform(-2.0, 1.0)
        weights.append(Tensor(rng.standard_normal(shape) * spread
                              + rng.uniform(-1, 1),
                              requires_grad=True, dtype=dtype))
        log_steps.append(Tensor(np.asarray(rng.uniform(-3.0, 0.0)),
                                requires_grad=True, dtype=dtype))
        noise.append(rng.uniform(-0.5, 0.5, shape))
    stats = layer_stats_of([w.data.reshape(-1) / np.exp(s.data)
                            for w, s in zip(weights, log_steps)])
    with Tape() as tape:
        scaled, snapped = [], []
        for w, s in zip(weights, log_steps):
            step = ops.exp(s)
            unit = ops.div(w, step)
            scaled.append(unit)
            snapped.append(sum_all(ops.mul(ops.ste_round(unit), step)))
        loss = fn(scaled, noise, stats)
        for term in snapped:
            loss = ops.add(loss, term)
    tape.backward(loss)
    return loss.data, [t.grad for t in weights + log_steps], stats


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_train_rate_matches_per_layer_reference_bitwise(dtype, seed):
    got, got_grads, (_, sd) = _run_rate(rate_bits_layers, dtype, seed)
    want, want_grads, _ = _run_rate(_rate_bits_train_per_layer, dtype, seed)
    # both floors of the train-mode sd are in play
    assert (sd < SIGMA_TRAIN_FLOOR).any()
    assert (sd > SIGMA_TRAIN_FLOOR).any()
    assert got.dtype == want.dtype == dtype and got.shape == ()
    assert got.tobytes() == want.tobytes()
    for g, w in zip(got_grads, want_grads):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_train_rate_rejects_layer_count_mismatch():
    rng = np.random.default_rng(5)
    scaled = [rng.standard_normal(4) for _ in range(2)]
    mu, sd = layer_stats_of(scaled)
    with pytest.raises(LayoutError):
        rate_bits_train(np.concatenate(scaled), np.zeros(4), mu, sd, [4, 4])


def _layer_sizes(n):
    """Uneven layers covering ``n`` values: one-value layers, and layers
    that cross a block's end, longer than a block where ``n`` passes two
    blocks."""
    sizes = [1, 3, 1, 129, n // 3, 1]
    return sizes + [n - sum(sizes)]


def _per_layer_bits_and_grad(unit, noise, stats, sizes):
    """The per-layer reference's bits and ``d bits / d unit``, joined;
    the gradient is None where the bits are not finite."""
    cuts = np.cumsum(sizes)[:-1]
    layers = [Tensor(piece, requires_grad=True)
              for piece in np.split(unit, cuts)]
    # where a unit or a noise value is infinite, the chain's backward
    # pass multiplies it by a zero gradient, which warns
    with np.errstate(all="ignore"):
        with Tape() as tape:
            bits = _rate_bits_train_per_layer(layers, np.split(noise, cuts),
                                              stats)
        if not np.isfinite(bits.data):
            return bits.data, None
        tape.backward(bits)
    return bits.data, np.concatenate([t.grad.reshape(-1) for t in layers])


# a block's edges, several blocks, and the parameter counts of tiny@32
# and small@64
KERNEL_SIZES = (detmath._BLOCK_ELEMENTS - 1, detmath._BLOCK_ELEMENTS,
                detmath._BLOCK_ELEMENTS + 1, 3 * detmath._BLOCK_ELEMENTS + 17,
                10_225, 38_103)


@pytest.mark.parametrize("special", ["none", "zero-inf", "nan"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_train_rate_kernel_matches_per_layer_reference(n, dtype, special):
    # one blocked pass gives the bits and the gradient of scoring each
    # layer on a tape of its own and walking it backward, past every
    # block edge and with 0, +-inf or NaN among the units and the noise
    rng = np.random.default_rng(n)
    sizes = _layer_sizes(n)
    unit = (rng.standard_normal(n)
            * 10.0 ** rng.uniform(-3.0, 2.0, n)).astype(dtype)
    noise = rng.uniform(-0.5, 0.5, n)
    stats = layer_stats(unit, sizes)
    spots = rng.choice(n, 6, replace=False)
    if special == "zero-inf":
        unit[spots[:3]] = [0.0, np.inf, -np.inf]
        noise[spots[3:5]] = [np.inf, -np.inf]
        noise[spots[5]] = 0.0
    elif special == "nan":
        unit[spots[0]] = np.nan
        noise[spots[1]] = np.nan
    bits, grad = rate_bits_train(unit, noise, *stats, sizes)
    want_bits, want_grad = _per_layer_bits_and_grad(unit, noise, stats,
                                                    sizes)
    assert bits.dtype == dtype and bits.shape == ()
    if special == "nan":
        assert np.isnan(bits) and np.isnan(want_bits) and grad is None
        return
    assert np.isfinite(bits) and bits.tobytes() == want_bits.tobytes()
    assert grad.dtype == dtype and grad.shape == (n,)
    assert grad.tobytes() == want_grad.tobytes()
    if special == "zero-inf":
        assert (grad[spots[1:5]] == 0.0).all()


def test_train_and_eval_rate_agree_in_direction():
    # larger residual spread must cost more bits in both modes
    rng = np.random.default_rng(3)
    small = rng.standard_normal(400) * 1.0
    large = rng.standard_normal(400) * 20.0
    bits = {}
    for name, data in (("small", small), ("large", large)):
        mu, sd = layer_stats_of([data])
        sym = np.asarray(np.round(data), dtype=np.int32)
        bits[name] = float(rate_bits_eval([sym], mu, sd).sum())
    assert bits["large"] > bits["small"]
