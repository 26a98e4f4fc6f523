"""Quantization, the rate model, and the combined loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from clipcodec import detmath, ops
from clipcodec.errors import ConfigError, LayoutError
from clipcodec.params import ParamVector
from clipcodec.ratequant import (MAX_SYMBOL, SIGMA_TRAIN_FLOOR,
                                 TRAIN_PROB_FLOOR, LayerStats, QuantScale,
                                 apply_residual, combined_loss, dequantize,
                                 initial_scales, layer_stats, quantize,
                                 rate_bits_eval, rate_bits_train, residual)
from clipcodec.tensor import Tape, Tensor
from conftest import fd_gradient, rel_error


def _pv(values, name="w"):
    return ParamVector([(name, Tensor(np.asarray(values, dtype=np.float32)))])


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
    a = ParamVector([("x", Tensor(np.zeros(2, dtype=np.float32))),
                     ("y", Tensor(np.zeros(3, dtype=np.float32)))])
    b = ParamVector([("x", Tensor(np.zeros(2, dtype=np.float32))),
                     ("y", Tensor(np.zeros(4, dtype=np.float32)))])
    with pytest.raises(LayoutError, match="y"):
        residual(a, b)


def test_quantize_example_values():
    delta = _pv([0.4, -1.3])
    scales = QuantScale(("w",), np.asarray([0.5], dtype=np.float32))
    symbols = quantize(delta, scales)
    assert np.array_equal(symbols[0], [1, -3])
    back = dequantize(symbols, scales, delta.layout(), np.float32)
    assert np.allclose(back["w"].data, [0.5, -1.5])


def test_quantize_identity_on_integer_lattice():
    delta = _pv([3.0, -7.0, 0.0])
    scales = QuantScale(("w",), np.asarray([1.0], dtype=np.float32))
    assert np.array_equal(quantize(delta, scales)[0], [3, -7, 0])


def test_zero_delta_quantizes_to_zero():
    delta = _pv(np.zeros(16))
    scales = QuantScale(("w",), np.asarray([0.25], dtype=np.float32))
    symbols = quantize(delta, scales)
    assert not symbols[0].any()
    back = dequantize(symbols, scales, delta.layout(), np.float32)
    assert np.all(back["w"].data == 0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0, allow_nan=False, width=32),
                min_size=1, max_size=40),
       st.floats(1e-3, 8.0))
def test_quantize_round_trip_error_bounded(values, scale):
    delta = _pv(values)
    scales = QuantScale(("w",), np.asarray([scale], dtype=np.float32))
    # the peak symbol, computed in float32 as quantize does
    peak = np.max(np.abs(detmath.round_half_away(
        delta["w"].data / np.float32(scale))))
    if peak > MAX_SYMBOL:
        # past the coder's alphabet: refused, naming the layer
        with pytest.raises(ConfigError, match="'w'"):
            quantize(delta, scales)
        return
    symbols = quantize(delta, scales)
    back = dequantize(symbols, scales, delta.layout(), np.float32)
    err = np.max(np.abs(back["w"].data - delta["w"].data))
    assert err <= scale * 0.5 * (1.0 + 1e-5)
    # idempotence on the lattice
    again = quantize(back, scales)
    assert np.array_equal(again[0], symbols[0])


def test_quantize_rejects_oversized_symbols():
    delta = _pv([1e9])
    scales = QuantScale(("w",), np.asarray([1.0], dtype=np.float32))
    with pytest.raises(ConfigError, match="'w'"):
        quantize(delta, scales)


def test_scale_positivity_enforced():
    with pytest.raises(ConfigError):
        QuantScale(("w",), np.asarray([0.0], dtype=np.float32))


def test_apply_residual_matches_manual():
    prime = _pv([1.0, 2.0])
    scales = QuantScale(("w",), np.asarray([0.5], dtype=np.float32))
    out = apply_residual(prime, [np.asarray([2, -1], dtype=np.int32)],
                         scales)
    assert np.allclose(out["w"].data, [2.0, 1.5])


def test_initial_scales_target_symbol_span():
    rng = np.random.default_rng(0)
    init = _pv(rng.standard_normal(500) * 0.2)
    scales = initial_scales(init)
    peak = float(np.max(np.abs(init["w"].data)))
    assert scales.values[0] == pytest.approx(peak / 128.0, rel=1e-6)


def test_layer_stats_floor():
    stats = layer_stats([np.zeros(32)], ("w",))
    assert stats.sd[0] == pytest.approx(1e-6)
    assert stats.mu[0] == 0.0


def test_eval_bits_symbol_zero_frozen_oracle():
    # independent oracle via scipy's normal CDF
    oracle = -math.log2(norm.cdf(0.5) - norm.cdf(-0.5))
    stats = LayerStats(("w",), np.asarray([0.0], np.float32),
                       np.asarray([1.0], np.float32))
    est = rate_bits_eval([np.zeros(1, dtype=np.int32)], stats)
    assert est.total_bits == pytest.approx(oracle, abs=1e-6)
    assert est.total_bits == pytest.approx(1.3849, abs=5e-4)


def test_eval_bits_zero_delta_monotone_in_sd():
    symbols = [np.zeros(64, dtype=np.int32)]
    previous = None
    for sd in (2.0, 1.0, 0.5, 0.1, 1e-3, 1e-6):
        stats = LayerStats(("w",), np.asarray([0.0], np.float32),
                           np.asarray([sd], np.float32))
        bits = rate_bits_eval(symbols, stats).total_bits
        if previous is not None:
            assert bits <= previous + 1e-12
        previous = bits
    assert previous == pytest.approx(0.0, abs=1e-9)


def test_eval_bits_nonnegative_per_layer():
    rng = np.random.default_rng(1)
    symbols = [rng.integers(-5, 6, 100).astype(np.int32),
               rng.integers(-2, 3, 50).astype(np.int32)]
    stats = layer_stats([s.astype(np.float64) for s in symbols],
                        ("a", "b"))
    est = rate_bits_eval(symbols, stats)
    assert np.all(est.per_layer >= 0.0)
    assert est.total_bits == pytest.approx(float(est.per_layer.sum()))


def test_train_rate_gradients_match_fd_with_fixed_noise():
    rng = np.random.default_rng(2)
    scaled_data = rng.standard_normal(24) * 3.0
    noise = [rng.uniform(-0.5, 0.5, 24)]
    stats = layer_stats([scaled_data], ("w",))
    x = Tensor(scaled_data.copy(), requires_grad=True, dtype=np.float64)

    def run():
        with Tape() as tape:
            bits = rate_bits_train([x], noise, stats)
        return bits, tape

    bits, tape = run()
    tape.backward(bits)
    analytic = x.grad.copy()
    numeric = fd_gradient(lambda: run()[0].item(), x.data)
    assert rel_error(analytic, numeric) < 1e-6


def _rate_bits_train_per_layer(scaled, noise, stats):
    """Reference: the rate term scored one layer at a time (one op chain
    per layer, layer bits added in layout order).  The fused
    ``rate_bits_train`` must reproduce it bit for bit."""
    total = None
    for tensor, u, mu, sd in zip(scaled, noise, stats.mu, stats.sd):
        inv_sd = 1.0 / max(float(sd), SIGMA_TRAIN_FLOOR)
        y = ops.add(tensor, ops.constant(u.astype(tensor.dtype)))
        hi = ops.mul(ops.add(y, float(0.5 - mu)), inv_sd)
        lo = ops.mul(ops.add(y, float(-0.5 - mu)), inv_sd)
        p = ops.clamp_min(ops.gauss_mass(lo, hi), TRAIN_PROB_FLOOR)
        bits = ops.mul(ops.sum_all(ops.neg(ops.log(p))), 1.4426950408889634)
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
    names = tuple(f"layer{i}" for i in range(len(_MIXED_SHAPES)))
    stats = layer_stats([w.data.reshape(-1) / np.exp(s.data)
                         for w, s in zip(weights, log_steps)], names)
    with Tape() as tape:
        scaled, snapped = [], []
        for w, s in zip(weights, log_steps):
            step = ops.exp(s)
            unit = ops.div(w, step)
            scaled.append(unit)
            snapped.append(ops.sum_all(ops.mul(ops.ste_round(unit), step)))
        loss = fn(scaled, noise, stats)
        for term in snapped:
            loss = ops.add(loss, term)
    tape.backward(loss)
    return loss.data, [t.grad for t in weights + log_steps], stats


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_train_rate_matches_per_layer_reference_bitwise(dtype, seed):
    got, got_grads, stats = _run_rate(rate_bits_train, dtype, seed)
    want, want_grads, _ = _run_rate(_rate_bits_train_per_layer, dtype, seed)
    # both floors of the train-mode sd are in play
    assert (stats.sd < SIGMA_TRAIN_FLOOR).any()
    assert (stats.sd > SIGMA_TRAIN_FLOOR).any()
    assert got.dtype == want.dtype == dtype and got.shape == ()
    assert got.tobytes() == want.tobytes()
    for g, w in zip(got_grads, want_grads):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_fused_train_rate_records_one_chain():
    rng = np.random.default_rng(4)
    scaled = [Tensor(rng.standard_normal(shape), requires_grad=True,
                     dtype=np.float32) for shape in _MIXED_SHAPES]
    noise = [rng.uniform(-0.5, 0.5, shape) for shape in _MIXED_SHAPES]
    stats = layer_stats([t.data.reshape(-1) for t in scaled],
                        tuple(str(i) for i in range(len(scaled))))
    with Tape() as tape:
        rate_bits_train(scaled, noise, stats)
    # one gauss_mass chain for all layers, independent of the layer count
    assert len(tape) == 13


def test_train_rate_rejects_layer_count_mismatch():
    rng = np.random.default_rng(5)
    scaled = [Tensor(rng.standard_normal(4)) for _ in range(2)]
    stats = layer_stats([t.data for t in scaled], ("a", "b"))
    with pytest.raises(LayoutError):
        rate_bits_train(scaled, [np.zeros(4)], stats)


def test_train_and_eval_rate_agree_in_direction():
    # larger residual spread must cost more bits in both modes
    rng = np.random.default_rng(3)
    small = rng.standard_normal(400) * 1.0
    large = rng.standard_normal(400) * 20.0
    bits = {}
    for name, data in (("small", small), ("large", large)):
        stats = layer_stats([data], ("w",))
        sym = np.asarray(np.round(data), dtype=np.int32)
        bits[name] = rate_bits_eval([sym], stats).total_bits
    assert bits["large"] > bits["small"]


def test_combined_loss_formula():
    est = rate_bits_eval([np.zeros(0, dtype=np.int32)],
                         LayerStats(("w",), np.zeros(1, np.float32),
                                    np.ones(1, np.float32)))
    base = combined_loss(0.5, _fixed_rate(10.0), 5.0)
    assert base == pytest.approx(12.5)
    assert combined_loss(0.0, _fixed_rate(7.0), 2.0) == pytest.approx(7.0)
    with pytest.raises(ConfigError):
        combined_loss(0.1, est, 0.0)


def _fixed_rate(total):
    from clipcodec.ratequant import RateEstimate
    return RateEstimate(total, np.asarray([total]))


def test_lambda_presets_exist():
    from clipcodec.presets import LAMBDA_PRESETS
    assert 5.0 in LAMBDA_PRESETS.values()
    assert 0.5 in LAMBDA_PRESETS.values()
