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

The coder is two functions and no coder object: each keeps the coder
state and constants in locals for the whole payload, one loop per layer.
The loop reads a symbol's width from ``freqs`` and its start from
``cum``; the decoder finds the symbol with one ``bisect_right`` over
``cum[1:-1]``, the symbol ends but the last (a target past
``FREQ_TOTAL - 1`` maps to the last symbol), fills a preallocated index
list and shifts the indices by the bound once per layer, in numpy.

Both loops keep ``low + range <= 2^32`` on every input, valid or hostile:
a symbol narrows the interval inside itself, a shift keeps it inside 2^32
once the top bytes agree, and an underflow clip ends it on a multiple of
2^24.  So a range of 2^24 or more spans two top bytes and never
renormalizes, and both loops run the renormalization test only when the
new range is below 2^24.  Most symbols of a low-entropy layer skip it.
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


# The widest single table; one norm_cdf_diff call never holds more entries.
_GROUP_ENTRIES = 2 * MAX_SYMBOL + 1


def build_models(mus, sds, bounds) -> list[SymbolModel]:
    """Discretize N(mu, sd^2) over [-bound, bound] for each layer, in order.

    Every alphabet is checked before anything is built.  Consecutive
    layers share one :func:`~clipcodec.detmath.norm_cdf_diff` call as long
    as their tables hold at most ``_GROUP_ENTRIES`` entries together.  The
    kernel is elementwise, so each table has the bits it has when built
    alone; the sum and apportionment run per layer.
    """
    mus = [float(mu) for mu in mus]
    sds = [float(sd) for sd in sds]
    bounds = [int(bound) for bound in bounds]
    for bound, sd in zip(bounds, sds):
        if bound < 1 or bound > MAX_SYMBOL:
            raise ConfigError(f"alphabet bound {bound} outside "
                              f"[1, {MAX_SYMBOL}]")
        if sd < SIGMA_FLOOR * 0.5:
            raise ConfigError(f"model sd {sd} below floor")
    sizes = [2 * bound + 1 for bound in bounds]
    models: list[SymbolModel] = []
    first = 0
    while first < len(sizes):
        end, entries = first + 1, sizes[first]
        while end < len(sizes) and entries + sizes[end] <= _GROUP_ENTRIES:
            entries += sizes[end]
            end += 1
        group = range(first, end)

        def edges(half):
            return np.concatenate([
                (np.arange(-bounds[i], bounds[i] + 1, dtype=np.float64)
                 + half - mus[i]) * (1.0 / sds[i]) for i in group])

        mass = detmath.norm_cdf_diff(edges(-0.5), edges(0.5))
        ends = np.cumsum(sizes[first:end])
        models += [_apportion(mus[i], sds[i], bounds[i],
                              mass[stop - sizes[i]:stop])
                   for i, stop in zip(group, ends)]
        first = end
    return models


def _apportion(mu: float, sd: float, bound: int,
               mass: np.ndarray) -> SymbolModel:
    """One layer's table from the interval masses of its symbols."""
    size = 2 * bound + 1
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
    return SymbolModel(mu=mu, sd=sd, bound=bound, freqs=freqs, cum=cum)


def encode_symbols(symbols: list[np.ndarray],
                   models: list[SymbolModel],
                   names: tuple[str, ...] | None = None) -> bytes:
    """Range-code per-layer symbol arrays into one payload."""
    if len(symbols) != len(models):
        raise ConfigError("one model per symbol layer required")
    low, rng = 0, _MASK
    out = bytearray()
    for i, (sym, model) in enumerate(zip(symbols, models)):
        if sym.size:
            peak = int(np.max(np.abs(sym)))
            if peak > model.bound:
                label = names[i] if names else f"layer {i}"
                raise DataError(f"{label}: symbol magnitude {peak} exceeds "
                                f"alphabet bound {model.bound}")
        cum = model.cum.tolist()
        freqs = model.freqs.tolist()
        for idx in (sym.astype(np.int64) + model.bound).tolist():
            r = rng >> FREQ_BITS
            low += r * cum[idx]
            rng = r * freqs[idx]
            if rng < _TOP:  # a wider range never renormalizes
                while (low ^ (low + rng)) < _TOP or rng < _BOTTOM:
                    if (low ^ (low + rng)) >= _TOP:
                        # underflow: clip the range down to the byte boundary
                        rng = ((_MASK + 1) - low) & (_BOTTOM - 1)
                    out.append(low >> 24)
                    low = (low << 8) & _MASK
                    rng = rng << 8
    for _ in range(FLUSH_BYTES):
        out.append(low >> 24)
        low = (low << 8) & _MASK
    return bytes(out)


def decode_symbols(payload: bytes, models: list[SymbolModel],
                   counts: list[int]) -> list[np.ndarray]:
    """Inverse of :func:`encode_symbols`; exact for every valid stream.

    A valid payload keeps the code value inside the coder's interval
    ``[low, low + range)`` and is read to its last byte and no further.
    One that leaves the interval (decoding on would spin forever), would
    be read past its end or has any other length raises BitstreamError.
    """
    if len(models) != len(counts):
        raise ConfigError("one model per layer count required")
    size = len(payload)
    past_end = BitstreamError(f"range decoder consumed {size + 1} bytes of "
                              f"a {size}-byte payload")
    if size < FLUSH_BYTES:
        raise past_end
    pos, low, rng = FLUSH_BYTES, 0, _MASK
    code = int.from_bytes(payload[:FLUSH_BYTES], "big")
    top, bottom, mask, shift = _TOP, _BOTTOM, _MASK, FREQ_BITS
    out = []
    try:
        for model, count in zip(models, counts):
            cum = model.cum.tolist()
            freqs = model.freqs.tolist()
            # the symbol ends but the last: a target past FREQ_TOTAL - 1
            # maps to the last symbol
            ends = cum[1:-1]
            indices = [0] * count
            for i in range(count):
                offset = code - low
                if not 0 <= offset < rng:
                    raise BitstreamError(f"range-coded payload disagrees "
                                         f"with its symbol tables at "
                                         f"payload byte {pos}")
                r = rng >> shift
                idx = bisect_right(ends, offset // r)
                low += r * cum[idx]
                rng = r * freqs[idx]
                if rng < top:  # a wider range never renormalizes
                    while (low ^ (low + rng)) < top or rng < bottom:
                        if (low ^ (low + rng)) >= top:
                            rng = ((mask + 1) - low) & (bottom - 1)
                        code = ((code << 8) | payload[pos]) & mask
                        pos += 1
                        low = (low << 8) & mask
                        rng = rng << 8
                indices[i] = idx
            out.append(np.asarray(indices, dtype=np.int32)
                       - np.int32(model.bound))
    except IndexError:  # the payload is the one index that can run out
        raise past_end from None
    if pos != size:
        raise BitstreamError(f"range decoder consumed {pos} bytes of a "
                             f"{size}-byte payload")
    return out
