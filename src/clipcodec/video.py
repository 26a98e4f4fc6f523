"""Raw planar RGB video: file I/O and deterministic synthetic sequences.

The on-disk format is headerless planar RGB8: per frame, the full red
plane, then green, then blue, row-major; frames concatenated.  Dimensions
travel out of band (CLI flags).  Internally frames live in a (T, 3, H, W)
uint8 array; training code views them normalized to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import detmath
from .errors import DataError, unreadable
from .seeds import make_rng

SYNTH_KINDS = ("static", "moving-blob", "moving-rect", "noise-texture-pan")


@dataclass
class RawVideo:
    width: int
    height: int
    frames: np.ndarray  # (T, 3, H, W) uint8

    def __post_init__(self):
        expect = (len(self.frames), 3, self.height, self.width)
        if self.frames.shape != expect or self.frames.dtype != np.uint8:
            raise DataError(f"frame buffer {self.frames.shape} "
                            f"{self.frames.dtype} != {expect} uint8")

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    @property
    def pixel_count(self) -> int:
        return self.frame_count * self.height * self.width

    def normalized(self, dtype=np.float32) -> np.ndarray:
        """Frames as (T, 3, H, W) reals in [0, 1]."""
        return self.frames.astype(dtype) / np.dtype(dtype).type(255.0)

    def to_bytes(self) -> bytes:
        return self.frames.tobytes()


def denormalize(frames: np.ndarray) -> np.ndarray:
    """[0, 1] reals back to uint8: round half away, clamp to [0, 255]."""
    scaled = detmath.round_half_away(frames.astype(np.float64) * 255.0)
    return np.clip(scaled, 0.0, 255.0).astype(np.uint8)


def load_raw(path, width: int, height: int) -> RawVideo:
    """Read planar RGB8; the frame count is inferred from the file size."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise unreadable(path, exc) from None
    frame_bytes = 3 * width * height
    if frame_bytes <= 0:
        raise DataError(f"bad dimensions {width}x{height}")
    if len(raw) == 0 or len(raw) % frame_bytes != 0:
        raise DataError(f"{path}: size {len(raw)} not a positive multiple of "
                        f"{frame_bytes} (3*{width}*{height})")
    frames = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3, height, width)
    return RawVideo(width=width, height=height, frames=frames.copy())


def save_raw(video: RawVideo, path) -> None:
    Path(path).write_bytes(video.to_bytes())


# Frames are synthesized in batches along time of at most this many
# pixels per plane, so each float64 temporary stays at 64 KB, below
# glibc's default 128 KB mmap threshold.  A whole 64x64x20 clip in one
# batch is slower than one frame at a time (docs/resources.md).
_BATCH_ELEMENTS = 8192


def _periodic_background(xs: np.ndarray, ys: np.ndarray, width: int,
                         height: int, coeff: np.ndarray):
    """Smooth texture, periodic in x, at (possibly shifted) xs; yields
    one plane per row ``(a1, a2, p1, p2)`` of ``coeff``.

    Horizontal frequencies are integer multiples of 2*pi/width, so shifting
    xs by the frame velocity translates the whole texture exactly.
    """
    two_pi = 2.0 * math.pi
    wave1 = two_pi * xs / width + two_pi * ys / height
    wave2 = 2.0 * two_pi * xs / width - two_pi * ys / height
    for a1, a2, p1, p2 in coeff:
        yield (0.5 + 0.18 * a1 * detmath.sin(wave1 + p1)
               + 0.12 * a2 * detmath.sin(wave2 + p2))


def _wrap_delta(pos: np.ndarray, center, span: int) -> np.ndarray:
    """Signed distance on a periodic axis, in [-span/2, span/2)."""
    return (pos - center + span / 2.0) % span - span / 2.0


def synth_video(kind: str, width: int, height: int, frame_count: int,
                velocity: float = 0.0, seed: int = 0) -> RawVideo:
    """Deterministic synthetic sequences for desk-scale experiments.

    Moving kinds translate the whole frame on a periodic canvas at
    ``velocity`` pixels per frame: frame t is frame 0 shifted by t*v, so
    an integer velocity makes frame t+1 an exact roll of frame t.

    Frames are computed in batches along time, each of at most
    ``_BATCH_ELEMENTS`` pixels per plane (at least one frame); every step
    is elementwise, so the bytes do not depend on the batching.
    ``static`` computes its one frame and copies it, and
    ``noise-texture-pan`` rolls its one quantized texture.
    """
    if kind not in SYNTH_KINDS:
        raise DataError(f"unknown synthetic kind {kind!r} "
                        f"(have {', '.join(SYNTH_KINDS)})")
    if width < 1 or height < 1 or frame_count < 1:
        raise DataError("synthetic video needs positive dimensions")
    if not math.isfinite(velocity):
        raise DataError(f"synthetic video needs a finite velocity, got "
                        f"{velocity}")
    rng = make_rng(seed)
    coeff = np.stack([np.concatenate([rng.uniform(0.5, 1.0, 2),
                                      rng.uniform(0.0, 2.0 * math.pi, 2)])
                      for _ in range(3)])
    color = rng.uniform(0.6, 1.0, size=3)
    frames = np.empty((frame_count, 3, height, width), dtype=np.uint8)

    if kind == "noise-texture-pan":
        texture = denormalize(rng.uniform(0.0, 1.0, size=(3, height, width)))
        shifts = detmath.round_half_away(
            velocity * np.arange(frame_count, dtype=np.float64))
        for t, shift in enumerate(shifts):
            frames[t] = np.roll(texture, int(shift), axis=2)
        return RawVideo(width=width, height=height, frames=frames)

    if kind == "static":
        velocity = 0.0
    xs = np.arange(width, dtype=np.float64)[None, None, :]
    ys = np.arange(height, dtype=np.float64)[None, :, None]
    dy = _wrap_delta(ys, height * 0.5, height)
    radius = 0.16 * min(width, height)
    half_w = max(width // 8, 1)
    half_h = max(height // 8, 1)
    computed = 1 if kind == "static" else frame_count
    batch = max(_BATCH_ELEMENTS // (width * height), 1)
    for t0 in range(0, computed, batch):
        t1 = min(t0 + batch, computed)
        # (t1 - t0, 1, 1): the horizontal shift of each frame
        shift = velocity * np.arange(t0, t1, dtype=np.float64)[:, None, None]
        dx = _wrap_delta(xs, (width * 0.5 + shift) % width, width)
        if kind == "moving-blob":
            amplitude = 0.8 * color
            overlay = detmath.exp(-(dx * dx + dy * dy)
                                  / (2.0 * radius * radius))
        elif kind == "moving-rect":
            amplitude = 0.7 * color
            overlay = ((np.abs(dx) <= half_w)
                       & (np.abs(dy) <= half_h)).astype(np.float64)
        planes = _periodic_background(xs - shift, ys, width, height, coeff)
        for c, plane in enumerate(planes):
            if kind != "static":
                plane = plane + amplitude[c] * overlay
            frames[t0:t1, c] = denormalize(np.clip(plane, 0.0, 1.0))
    if kind == "static":
        frames[1:] = frames[0]
    return RawVideo(width=width, height=height, frames=frames)
