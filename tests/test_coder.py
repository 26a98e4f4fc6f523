"""Range coder: lossless round trips, table properties, rate agreement."""

import math
import signal
from bisect import bisect_right
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import norm

from clipcodec import detmath
from clipcodec.coder import (FLUSH_BYTES, FREQ_TOTAL, SymbolModel,
                             build_models, decode_symbols, encode_symbols)
from clipcodec.coder import _BOTTOM, _MASK, _TOP
from clipcodec.errors import BitstreamError, ConfigError, DataError
from clipcodec.ratequant import MAX_SYMBOL, SIGMA_FLOOR, rate_bits_eval
from clipcodec.seeds import make_rng
from conftest import build_model


def model_entropy_bits(model: SymbolModel) -> float:
    """Shannon entropy of the renormalized table, in bits per symbol."""
    p = model.freqs.astype(np.float64) / FREQ_TOTAL
    return float(-np.sum(p * detmath.log2(p)))


def sample_symbols(model: SymbolModel, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw symbols from the renormalized table."""
    p = model.freqs.astype(np.float64) / FREQ_TOTAL
    return rng.choice(np.arange(-model.bound, model.bound + 1), size=count,
                      p=p).astype(np.int32)


def test_table_sums_to_total_with_floor():
    model = build_model(0.0, 1.5, 8)
    assert model.freqs.sum() == FREQ_TOTAL
    assert model.freqs.min() >= 1
    assert model.cum[0] == 0 and model.cum[-1] == FREQ_TOTAL


def test_table_symmetric_for_zero_mean():
    model = build_model(0.0, 2.0, 12)
    assert np.array_equal(model.freqs, model.freqs[::-1])


def test_degenerate_sd_concentrates_mass():
    bound = 4
    model = build_model(0.0, 1e-6, bound)
    assert model.freqs[bound] >= FREQ_TOTAL - 2 * bound


def test_symbol_zero_cost_close_to_oracle():
    # oracle: independent erf-based evaluation before renormalization
    oracle_bits = -math.log2(norm.cdf(0.5) - norm.cdf(-0.5))
    model = build_model(0.0, 1.0, 8)
    table_bits = -math.log2(model.freqs[8] / FREQ_TOTAL)
    assert table_bits == pytest.approx(oracle_bits, abs=1e-3)
    assert oracle_bits == pytest.approx(1.3849, abs=5e-4)


def test_bound_validation():
    with pytest.raises(ConfigError):
        build_model(0.0, 1.0, 0)
    with pytest.raises(ConfigError):
        build_model(0.0, 1.0, 40000)


def test_empty_stream_round_trip():
    model = build_model(0.0, 1.0, 4)
    payload = encode_symbols([np.empty(0, dtype=np.int32)], [model])
    assert len(payload) <= FLUSH_BYTES
    back = decode_symbols(payload, [model], [0])
    assert back[0].size == 0


def test_out_of_bound_symbol_names_layer():
    model = build_model(0.0, 1.0, 2)
    with pytest.raises(DataError, match="stem.fc0"):
        encode_symbols([np.asarray([5], dtype=np.int32)], [model],
                       names=("stem.fc0",))


def test_sampled_streams_hit_model_entropy():
    model = build_model(0.4, 2.5, 16)
    symbols = sample_symbols(model, 10000, make_rng(5))
    payload = encode_symbols([symbols], [model])
    back = decode_symbols(payload, [model], [len(symbols)])
    assert np.array_equal(back[0], symbols)
    measured = len(payload) * 8 / len(symbols)
    entropy = model_entropy_bits(model)
    assert measured <= entropy * 1.02 + 64 / len(symbols)
    assert measured >= entropy * 0.95  # sanity: can't beat entropy by much


def test_all_zero_symbols_near_free():
    count = 20000
    model = build_model(0.0, 1e-6, 1)
    payload = encode_symbols([np.zeros(count, dtype=np.int32)], [model])
    assert len(payload) * 8 < 0.1 * count
    back = decode_symbols(payload, [model], [count])
    assert not back[0].any()


def test_multi_layer_payload_single_flush():
    rng = make_rng(1)
    models = [build_model(0.0, s, 6) for s in (0.8, 2.0, 4.0)]
    streams = [sample_symbols(m, 500, rng) for m in models]
    payload = encode_symbols(streams, models)
    est = float(rate_bits_eval(
        streams, np.asarray([m.mu for m in models], np.float32),
        np.asarray([m.sd for m in models], np.float32)).sum())
    assert len(payload) * 8 <= est * 1.02 + 64
    back = decode_symbols(payload, models, [500, 500, 500])
    for a, b in zip(streams, back):
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-5.0, 5.0),
       st.floats(1e-4, 10.0), st.integers(1, 60),
       st.integers(0, 800))
def test_round_trip_random_models_and_streams(seed, mu, sd, bound, count):
    rng = make_rng(seed)
    model = build_model(mu, sd, bound)
    symbols = rng.integers(-bound, bound + 1, count).astype(np.int32)
    payload = encode_symbols([symbols], [model])
    back = decode_symbols(payload, [model], [count])
    assert np.array_equal(back[0], symbols)


_layer_specs = st.tuples(
    st.floats(-50.0, 50.0),
    st.one_of(st.just(SIGMA_FLOOR), st.just(SIGMA_FLOOR * 0.5),
              st.floats(SIGMA_FLOOR, 1e4)),
    st.one_of(st.just(1), st.just(MAX_SYMBOL), st.integers(1, 3000)))


@settings(max_examples=30, deadline=None)
@given(st.lists(_layer_specs, min_size=1, max_size=14))
@example([(0.0, SIGMA_FLOOR, 1), (0.3, 2.0, MAX_SYMBOL),
          (-1.5, SIGMA_FLOOR * 0.5, MAX_SYMBOL), (0.25, 1.75, 5)])
def test_build_models_equals_per_layer_build_model(specs):
    mus, sds, bounds = zip(*specs)
    models = build_models(mus, sds, bounds)
    assert len(models) == len(specs)
    for model, (mu, sd, bound) in zip(models, specs):
        alone = build_model(mu, sd, bound)
        assert (model.mu, model.sd, model.bound) == (mu, sd, bound)
        assert model.freqs.dtype == alone.freqs.dtype
        assert np.array_equal(model.freqs, alone.freqs)
        assert model.cum.dtype == alone.cum.dtype
        assert np.array_equal(model.cum, alone.cum)


def test_build_models_groups_layers_into_bounded_calls(monkeypatch):
    # one interval-mass call per group of consecutive layers, none wider
    # than the widest single table
    sizes = []
    original = detmath.norm_cdf_diff

    def spy(lo, hi):
        sizes.append(np.size(lo))
        return original(lo, hi)

    monkeypatch.setattr(detmath, "norm_cdf_diff", spy)
    build_models([0.0] * 12, [1.0] * 12, [40] * 12)
    assert sizes == [12 * 81]
    sizes.clear()
    build_models([0.0] * 5, [1.0] * 5, [MAX_SYMBOL, 3, 4, MAX_SYMBOL, 2])
    assert sizes == [2 * MAX_SYMBOL + 1, 7 + 9, 2 * MAX_SYMBOL + 1, 5]


def test_build_models_checks_every_layer_first(monkeypatch):
    monkeypatch.setattr(detmath, "norm_cdf_diff", None)  # never reached
    with pytest.raises(ConfigError, match="bound"):
        build_models([0.0, 0.0], [1.0, 1.0], [5, MAX_SYMBOL + 1])
    with pytest.raises(ConfigError, match="floor"):
        build_models([0.0, 0.0], [1.0, SIGMA_FLOOR * 0.4], [5, 5])


@contextmanager
def time_budget(seconds: float):
    """Fail the test, instead of hanging the suite, past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _decode_or_reject(payload, models, counts):
    try:
        layers = decode_symbols(payload, models, counts)
    except BitstreamError:
        return None
    for layer, model, count in zip(layers, models, counts):
        assert layer.shape == (count,)
        assert np.all(np.abs(layer) <= model.bound)
    return layers


def test_hostile_payload_raises_instead_of_hanging():
    # this payload drives the code value below the interval at symbol 37;
    # the range then went negative and renormalization never ended
    payload = np.random.default_rng(0).bytes(16)
    with time_budget(5.0), pytest.raises(BitstreamError):
        decode_symbols(payload, [build_model(0, 3, 40)], [200])


def test_random_payloads_decode_or_raise_within_budget():
    rng = np.random.default_rng(1)
    rejected = 0
    with time_budget(20.0):
        for _ in range(300):
            models = [build_model(float(rng.uniform(-3, 3)),
                                  float(10.0 ** rng.uniform(-3, 1.5)),
                                  int(rng.integers(1, 200)))
                      for _ in range(int(rng.integers(1, 4)))]
            counts = [int(n) for n in rng.integers(0, 300, len(models))]
            payload = rng.bytes(int(rng.integers(0, 64)))
            if _decode_or_reject(payload, models, counts) is None:
                rejected += 1
    assert rejected > 0


def test_payload_platform_stable_snapshot():
    """Frozen payload bytes: any platform must reproduce them exactly."""
    model = build_model(0.25, 1.75, 5)
    symbols = np.asarray([0, 1, -1, 2, -5, 5, 0, 0, 3, -2], dtype=np.int32)
    payload = encode_symbols([symbols], [model])
    assert payload.hex() == _FROZEN_PAYLOAD_HEX
    assert np.array_equal(decode_symbols(payload, [model], [10])[0], symbols)


# Captured once from this implementation; guards against any platform- or
# refactor-induced drift in table construction or coder arithmetic.
_FROZEN_PAYLOAD_HEX = "78d5e13d9b157af0"


def test_payload_length_must_match_bytes_read():
    rng = make_rng(14)
    models = [build_model(0.0, 2.0, 12), build_model(0.5, 0.3, 3)]
    streams = [rng.integers(-12, 13, 300).astype(np.int32),
               rng.integers(-3, 4, 40).astype(np.int32)]
    payload = encode_symbols(streams, models)
    back = decode_symbols(payload, models, [300, 40])
    assert all(np.array_equal(a, b) for a, b in zip(streams, back))
    for bad in (payload + b"\x00", payload + payload[-2:], payload[:-1]):
        with pytest.raises(BitstreamError, match="consumed"):
            decode_symbols(bad, models, [300, 40])


def test_cut_payload_refused_at_its_end():
    # the decoder stops where it would read past the payload, rather
    # than decode on from zeros
    rng = make_rng(15)
    models = [build_model(0.0, 3.0, 40), build_model(0.2, 0.5, 4)]
    streams = [rng.integers(-40, 41, 2000).astype(np.int32),
               rng.integers(-4, 5, 500).astype(np.int32)]
    payload = encode_symbols(streams, models)
    for cut in (payload[:len(payload) // 2], payload[:FLUSH_BYTES - 1],
                b""):
        size = len(cut)
        with pytest.raises(BitstreamError,
                           match=f"consumed {size + 1} bytes of a "
                                 f"{size}-byte payload"):
            decode_symbols(cut, models, [2000, 500])


# ---------------------------------------------------------------------------
# Per-symbol references: the coder as it was before the per-layer loops.
# ``encode_symbols``/``decode_symbols`` must match them byte for byte,
# symbol for symbol and error for error.

class PerSymbolEncoder:
    def __init__(self):
        self._low = 0
        self._range = _MASK
        self._out = bytearray()

    def encode(self, cum_lo: int, cum_hi: int) -> None:
        r = self._range // FREQ_TOTAL
        self._low += r * cum_lo
        self._range = r * (cum_hi - cum_lo)
        low, rng = self._low, self._range
        out = self._out
        while (low ^ (low + rng)) < _TOP or rng < _BOTTOM:
            if (low ^ (low + rng)) >= _TOP:
                rng = ((_MASK + 1) - low) & (_BOTTOM - 1)
            out.append(low >> 24)
            low = (low << 8) & _MASK
            rng = rng << 8
        self._low, self._range = low, rng

    def finish(self) -> bytes:
        low = self._low
        for _ in range(FLUSH_BYTES):
            self._out.append(low >> 24)
            low = (low << 8) & _MASK
        return bytes(self._out)


class PerSymbolDecoder:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._low = 0
        self._range = _MASK
        self._code = 0
        for _ in range(FLUSH_BYTES):
            self._code = (self._code << 8) | self._next_byte()

    @property
    def consumed(self) -> int:
        return self._pos

    def _next_byte(self) -> int:
        size = len(self._data)
        if self._pos == size:
            raise BitstreamError(f"range decoder consumed {size + 1} bytes "
                                 f"of a {size}-byte payload")
        byte = self._data[self._pos]
        self._pos += 1
        return byte

    def decode_cum(self, cum: list[int]) -> int:
        offset = self._code - self._low
        if not 0 <= offset < self._range:
            raise BitstreamError(f"range-coded payload disagrees with its "
                                 f"symbol tables at payload byte {self._pos}")
        r = self._range // FREQ_TOTAL
        target = offset // r
        if target >= FREQ_TOTAL:
            target = FREQ_TOTAL - 1
        idx = bisect_right(cum, target) - 1
        self._low += r * cum[idx]
        self._range = r * (cum[idx + 1] - cum[idx])
        low, rng, code = self._low, self._range, self._code
        while (low ^ (low + rng)) < _TOP or rng < _BOTTOM:
            if (low ^ (low + rng)) >= _TOP:
                rng = ((_MASK + 1) - low) & (_BOTTOM - 1)
            code = ((code << 8) | self._next_byte()) & _MASK
            low = (low << 8) & _MASK
            rng = rng << 8
        self._low, self._range, self._code = low, rng, code
        return idx


def per_symbol_encode(symbols, models) -> bytes:
    enc = PerSymbolEncoder()
    for sym, model in zip(symbols, models):
        cum = model.cum
        for s in sym.tolist():
            idx = s + model.bound
            enc.encode(int(cum[idx]), int(cum[idx + 1]))
    return enc.finish()


def per_symbol_decode(payload, models, counts):
    dec = PerSymbolDecoder(payload)
    out = []
    for model, count in zip(models, counts):
        cum = model.cum.tolist()
        layer = np.empty(count, dtype=np.int32)
        for i in range(count):
            layer[i] = dec.decode_cum(cum) - model.bound
        out.append(layer)
    if dec.consumed != len(payload):
        raise BitstreamError(f"range decoder consumed {dec.consumed} bytes "
                             f"of a {len(payload)}-byte payload")
    return out


def _outcome(decode, payload, models, counts):
    """Decoded layers as (dtype, values) pairs, or the error message."""
    try:
        layers = decode(payload, models, counts)
    except BitstreamError as exc:
        return str(exc)
    return [(layer.dtype.str, layer.tolist()) for layer in layers]


_models = st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(1e-4, 40.0),
                             st.integers(1, 300), st.integers(0, 400)),
                   min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), _models, st.integers(0, 2 ** 16))
# Long, low-entropy layers: thousands of consecutive symbols leave the
# range at 2^24 or more and skip renormalization, and it falls below 2^24
# again and again.  Seed 7 samples both layers from their models; seed 6
# samples the first and last and draws the middle one uniformly.
@example(7, [(0.33, 0.05, 3, 20000), (0.36, 0.05, 1, 20000)], 12345)
@example(6, [(0.4, 0.03, 2, 12000), (-0.36, 0.05, 1, 2000),
             (0.0, 0.01, 3, 20000)], 777)
def test_layer_loops_match_per_symbol_coder(seed, specs, where):
    rng = make_rng(seed)
    models = [build_model(mu, sd, bound) for mu, sd, bound, _ in specs]
    counts = [count for *_, count in specs]
    streams = []
    for model, count in zip(models, counts):
        if rng.random() < 0.5:
            streams.append(sample_symbols(model, count, rng))
        else:
            streams.append(rng.integers(-model.bound, model.bound + 1,
                                        count).astype(np.int32))
    payload = encode_symbols(streams, models)
    assert payload == per_symbol_encode(streams, models)
    got = _outcome(decode_symbols, payload, models, counts)
    assert got == _outcome(per_symbol_decode, payload, models, counts)
    assert got == [("<i4", s.tolist()) for s in streams]
    # the same payload damaged: one byte flipped, then cut short
    if payload:
        flipped = bytearray(payload)
        flipped[where % len(payload)] ^= 1 + where % 255
        for bad in (bytes(flipped), payload[:where % len(payload)]):
            assert (_outcome(decode_symbols, bad, models, counts)
                    == _outcome(per_symbol_decode, bad, models, counts))


def test_layer_loops_match_per_symbol_coder_on_random_payloads():
    # the 300 hostile payloads of the budget test above
    rng = np.random.default_rng(1)
    errors = 0
    for _ in range(300):
        models = [build_model(float(rng.uniform(-3, 3)),
                              float(10.0 ** rng.uniform(-3, 1.5)),
                              int(rng.integers(1, 200)))
                  for _ in range(int(rng.integers(1, 4)))]
        counts = [int(n) for n in rng.integers(0, 300, len(models))]
        payload = rng.bytes(int(rng.integers(0, 64)))
        got = _outcome(decode_symbols, payload, models, counts)
        assert got == _outcome(per_symbol_decode, payload, models, counts)
        errors += isinstance(got, str)
    assert errors > 0
