"""Bit-exact range coder over discretized-Gaussian symbol models.

A 32-bit carry-less range coder (byte-wise renormalization, the classic
"Russian" variant: ``low + range`` never overflows 2^32, so no carry
propagation is needed) with 16-bit frequency totals.  Frequency tables
discretize a Gaussian over the finite alphabet [-B, B] via interval
masses of the deterministic :func:`~clipcodec.detmath.norm_cdf_diff`,
apportioned to a total of 2^16 by largest remainder with a floor of one
grain per symbol.  Table construction uses only exactly-rounded float64
arithmetic, so payload bytes are identical across platforms.

One payload holds every layer of one model, concatenated in layout order
through a single coder state; the stream is flushed once (4 bytes).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import detmath
from .errors import BitstreamError, ConfigError, DataError
from .ratequant import MAX_SYMBOL, SIGMA_FLOOR

FREQ_BITS = 16
FREQ_TOTAL = 1 << FREQ_BITS

_TOP = 1 << 24
_BOTTOM = 1 << 16
_MASK = (1 << 32) - 1
FLUSH_BYTES = 4


@dataclass(frozen=True)
class SymbolModel:
    """Frozen frequency table for symbols in [-bound, bound]."""

    mu: float
    sd: float
    bound: int
    freqs: np.ndarray  # (2*bound+1,) uint32, all >= 1, sum == FREQ_TOTAL
    cum: np.ndarray    # (2*bound+2,) uint64 cumulative, cum[-1] == FREQ_TOTAL

    @property
    def alphabet_size(self) -> int:
        return 2 * self.bound + 1


def build_model(mu: float, sd: float, bound: int) -> SymbolModel:
    """Discretize N(mu, sd^2) over [-bound, bound] into coder frequencies."""
    if bound < 1 or bound > MAX_SYMBOL:
        raise ConfigError(f"alphabet bound {bound} outside [1, {MAX_SYMBOL}]")
    if sd < SIGMA_FLOOR * 0.5:
        raise ConfigError(f"model sd {sd} below floor")
    size = 2 * bound + 1
    ks = np.arange(-bound, bound + 1, dtype=np.float64)
    inv_sd = 1.0 / float(sd)
    mass = detmath.norm_cdf_diff((ks - 0.5 - mu) * inv_sd,
                                 (ks + 0.5 - mu) * inv_sd)
    total_mass = float(mass.sum())
    if total_mass <= 0.0:
        weights = np.full(size, 1.0 / size)
    else:
        weights = mass / total_mass

    # Largest-remainder apportionment of (FREQ_TOTAL - size) grains on top
    # of the guaranteed one grain per symbol; ties break on lower index.
    spare = FREQ_TOTAL - size
    ideal = weights * spare
    base = np.floor(ideal).astype(np.int64)
    remainder = ideal - base
    missing = spare - int(base.sum())
    if missing > 0:
        order = np.argsort(-remainder, kind="stable")
        base[order[:missing]] += 1
    freqs = (base + 1).astype(np.uint32)
    cum = np.zeros(size + 1, dtype=np.uint64)
    np.cumsum(freqs, out=cum[1:])
    return SymbolModel(mu=float(mu), sd=float(sd), bound=int(bound),
                       freqs=freqs, cum=cum)


def model_entropy_bits(model: SymbolModel) -> float:
    """Shannon entropy of the renormalized table, in bits per symbol."""
    p = model.freqs.astype(np.float64) / FREQ_TOTAL
    return float(-np.sum(p * detmath.log2(p)))


def sample_symbols(model: SymbolModel, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw symbols from the renormalized table (test/calibration helper)."""
    p = model.freqs.astype(np.float64) / FREQ_TOTAL
    return rng.choice(np.arange(-model.bound, model.bound + 1), size=count,
                      p=p).astype(np.int32)


class RangeEncoder:
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
                # underflow: clip the range down to the byte boundary
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


class RangeDecoder:
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
        """Bytes read so far, counting reads past the end."""
        return self._pos

    def _next_byte(self) -> int:
        # Reads past the end yield zeros: truncation surfaces as a payload
        # length/CRC failure in the container, never as a crash here.
        if self._pos < len(self._data):
            byte = self._data[self._pos]
            self._pos += 1
            return byte
        self._pos += 1
        return 0

    def decode_cum(self, cum: list[int]) -> int:
        """Decode one symbol index given a cumulative frequency list.

        A valid payload keeps the code value inside the coder's interval
        ``[low, low + range)``; one that leaves it was not written with
        these tables, and decoding on would spin forever, so it raises
        :class:`BitstreamError`.
        """
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

    def decode(self, model: SymbolModel) -> int:
        return self.decode_cum(model.cum.tolist()) - model.bound


def encode_symbols(symbols: list[np.ndarray],
                   models: list[SymbolModel],
                   names: tuple[str, ...] | None = None) -> bytes:
    """Range-code per-layer symbol arrays into one payload."""
    if len(symbols) != len(models):
        raise ConfigError("one model per symbol layer required")
    enc = RangeEncoder()
    for i, (sym, model) in enumerate(zip(symbols, models)):
        if sym.size:
            peak = int(np.max(np.abs(sym)))
            if peak > model.bound:
                label = names[i] if names else f"layer {i}"
                raise DataError(f"{label}: symbol magnitude {peak} exceeds "
                                f"alphabet bound {model.bound}")
        cum = model.cum
        bound = model.bound
        for s in sym.tolist():
            idx = s + bound
            enc.encode(int(cum[idx]), int(cum[idx + 1]))
    return enc.finish()


def decode_symbols(payload: bytes, models: list[SymbolModel],
                   counts: list[int]) -> list[np.ndarray]:
    """Inverse of :func:`encode_symbols`; exact for every valid stream.

    A valid payload is read to its last byte and no further, so a
    payload of any other length raises :class:`BitstreamError`.
    """
    if len(models) != len(counts):
        raise ConfigError("one model per layer count required")
    dec = RangeDecoder(payload)
    out = []
    for model, count in zip(models, counts):
        cum = model.cum.tolist()
        bound = model.bound
        decode_one = dec.decode_cum
        layer = np.empty(count, dtype=np.int32)
        for i in range(count):
            layer[i] = decode_one(cum) - bound
        out.append(layer)
    if dec.consumed != len(payload):
        raise BitstreamError(f"range decoder consumed {dec.consumed} bytes "
                             f"of a {len(payload)}-byte payload")
    return out
