"""Quality and rate metrics: PSNR and rate-curve comparison.

PSNR is computed in RGB over 8-bit samples (MAX = 255); reports state
this so the numbers are not confused with luma-only PSNR.  Rate curves
are compared by interpolating log-rate against quality with a natural
cubic spline and integrating the gap over the overlapping quality range.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, unreadable
from .video import RawVideo

PSNR_CAP_DB = 100.0  # stands in for infinity in CSV output


@dataclass(frozen=True)
class PsnrResult:
    per_frame: np.ndarray  # dB, +inf where frames match exactly
    mean: float            # mean of per-frame values capped at PSNR_CAP_DB

    def capped(self) -> np.ndarray:
        return np.minimum(self.per_frame, PSNR_CAP_DB)


def frame_mse(ref: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Per-frame 8-bit MSE of two equally-shaped (n, 3, H, W) uint8 arrays.
    A frame's squared-error sum is exact in int64, so its value does not
    depend on which frames it is scored with."""
    sse = np.square(ref.astype(np.int32) - test).sum(axis=(1, 2, 3),
                                                     dtype=np.int64)
    return sse / math.prod(ref.shape[1:])


def psnr_of_mse(mse: np.ndarray) -> PsnrResult:
    """Per-frame and mean PSNR of per-frame 8-bit MSE values."""
    with np.errstate(divide="ignore"):
        per_frame = 10.0 * np.log10(255.0 * 255.0 / mse)
    return PsnrResult(per_frame=per_frame, mean=float(
        np.mean(np.minimum(per_frame, PSNR_CAP_DB))))


def psnr(ref: RawVideo, test: RawVideo) -> PsnrResult:
    """Per-frame and mean PSNR between two equally-sized videos."""
    if (ref.width, ref.height, ref.frame_count) != \
            (test.width, test.height, test.frame_count):
        raise DataError(
            f"dimension mismatch: {ref.width}x{ref.height}x{ref.frame_count}"
            f" vs {test.width}x{test.height}x{test.frame_count}")
    return psnr_of_mse(frame_mse(ref.frames, test.frames))


@dataclass(frozen=True)
class RDPoint:
    bpp: float
    quality: float  # PSNR dB

    def __post_init__(self):
        if self.bpp <= 0:
            raise DataError(f"bpp must be positive, got {self.bpp}")


def _curve_arrays(points: list[RDPoint], label: str):
    if len(points) < 4:
        raise DataError(f"{label}: need at least 4 rate points, got "
                        f"{len(points)}")
    quality = np.asarray([p.quality for p in points], dtype=np.float64)
    rate = np.asarray([p.bpp for p in points], dtype=np.float64)
    order = np.argsort(quality)
    quality, rate = quality[order], rate[order]
    if np.any(np.diff(quality) <= 0):
        raise DataError(f"{label}: quality values must be distinct")
    return quality, np.log(rate)


def _natural_spline_integral(x, y, lo: float, hi: float) -> float:
    """Integral over [lo, hi] (inside [x[0], x[-1]]) of the natural cubic
    spline through the knots (x, y)."""
    h = np.diff(x)
    slope = np.diff(y) / h
    # second derivatives m at the knots, zero at both ends
    system = (np.diag(2.0 * (h[:-1] + h[1:])) + np.diag(h[1:-1], 1)
              + np.diag(h[1:-1], -1))
    m = np.zeros_like(x)
    m[1:-1] = np.linalg.solve(system, 6.0 * np.diff(slope))
    m0, m1 = m[:-1], m[1:]
    c1 = slope - h * (2.0 * m0 + m1) / 6.0

    def antiderivative(t):  # of each segment, t measured from its left knot
        return (y[:-1] * t + c1 * t**2 / 2.0 + m0 * t**3 / 6.0
                + (m1 - m0) * t**4 / (24.0 * h))

    left, right = x[:-1], x[1:]
    return float(np.sum(antiderivative(np.clip(hi, left, right) - left)
                        - antiderivative(np.clip(lo, left, right) - left)))


def bd_rate(anchor: list[RDPoint], test: list[RDPoint]) -> float:
    """Average rate difference of ``test`` vs ``anchor`` at equal quality,
    in percent; negative means the test curve spends fewer bits."""
    q_a, lr_a = _curve_arrays(anchor, "anchor")
    q_t, lr_t = _curve_arrays(test, "test")
    lo = max(q_a.min(), q_t.min())
    hi = min(q_a.max(), q_t.max())
    if hi <= lo:
        raise DataError(f"no quality overlap: [{q_a.min():.3f}, "
                        f"{q_a.max():.3f}] vs [{q_t.min():.3f}, "
                        f"{q_t.max():.3f}]")
    int_a = _natural_spline_integral(q_a, lr_a, lo, hi)
    int_t = _natural_spline_integral(q_t, lr_t, lo, hi)
    avg_log_diff = (int_t - int_a) / (hi - lo)
    return (math.exp(avg_log_diff) - 1.0) * 100.0


RD_CSV_FIELDS = ("sequence", "gop_size", "gom_size", "lambda", "bpp",
                 "psnr_db", "wall_seconds")


def append_rd_row(path, sequence: str, gop_size: int, gom_size: int,
                  lam: float, bpp: float, psnr_db: float,
                  wall_seconds: float) -> None:
    """Append one encode summary row, writing the header on first use."""
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(RD_CSV_FIELDS)
        writer.writerow([sequence, gop_size, gom_size, f"{lam:g}",
                         f"{bpp:.8f}", f"{min(psnr_db, PSNR_CAP_DB):.6f}",
                         f"{wall_seconds:.3f}"])


def read_csv_columns(path, columns) -> list[tuple[float, ...]]:
    """One tuple of floats per data row of a CSV with named columns.

    Each entry of ``columns`` is a tuple of accepted header names, matched
    without case or surrounding space; the first one present is read.  An
    unreadable file, a missing column, a short row or a cell that is not a
    finite number (``nan`` and ``inf`` included) raises :class:`DataError`
    naming the file (and the line).
    """
    try:
        with Path(path).open(newline="") as fh:
            reader = csv.reader(fh)
            header = [name.strip().lower() for name in next(reader, [])]
            if not header:
                raise DataError(f"{path}: empty CSV")
            index = []
            for names in columns:
                found = [header.index(name) for name in names
                         if name in header]
                if not found:
                    raise DataError(f"{path}: no "
                                    f"{' or '.join(map(repr, names))} column")
                index.append(found[0])
            rows = []
            for row in filter(None, reader):  # a blank line reads as []
                try:
                    values = tuple(float(row[i]) for i in index)
                    if not all(map(math.isfinite, values)):
                        raise ValueError
                except (IndexError, ValueError):
                    raise DataError(f"{path} line {reader.line_num}: not a "
                                    f"finite number in every column") from None
                rows.append(values)
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable(path, exc) from None
    return rows


def read_rd_curve(path) -> list[RDPoint]:
    """Read (bpp, psnr) points from a CSV with named columns."""
    rows = read_csv_columns(path, [("bpp",), ("psnr_db", "psnr")])
    if not rows:
        raise DataError(f"{path}: no rate points")
    return [RDPoint(bpp=bpp, quality=quality) for bpp, quality in rows]
