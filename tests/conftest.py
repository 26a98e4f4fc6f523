"""Shared fixtures: tiny backbones and a finite-difference oracle."""

from __future__ import annotations

import dataclasses
import struct
import zlib

import numpy as np
import pytest

from clipcodec.backbone import BackboneConfig, UpsampleStage
from clipcodec.bitstream import _FIXED, _pack_header, read_bitstream


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. the array x.

    Mutates x in place around each element; f must re-run the forward
    pass from the current x contents.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray,
              floor: float = 1e-6) -> float:
    scale = np.maximum(np.abs(numeric), np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric)
                        / np.maximum(scale, floor)))


class PerSegmentAdam:
    """Reference: Adam updated one segment at a time, as before the flat
    update.  ``adam_step`` must match it bit for bit."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0
        self.beta1_pow = self.beta2_pow = 1.0

    def update(self, params, lr):
        self.step += 1
        self.beta1_pow *= self.beta1
        self.beta2_pow *= self.beta2
        for name, tensor in params.items():
            grad = tensor.grad
            if grad is None:
                grad = np.zeros_like(tensor.data)
            dt = tensor.data.dtype.type
            m = self.m[name]
            v = self.v[name]
            m += (grad - m) * dt(1.0 - self.beta1)
            v += (grad * grad - v) * dt(1.0 - self.beta2)
            mhat = m / dt(1.0 - self.beta1_pow)
            vhat = v / dt(1.0 - self.beta2_pow)
            tensor.data -= dt(lr) * mhat / (np.sqrt(vhat) + dt(self.eps))


@pytest.fixture
def tiny_nerv() -> BackboneConfig:
    """~2.6k parameters, 16x16 frames, fast enough for direct gradchecks."""
    return BackboneConfig(
        kind="nerv-lite", pe_frequencies=4, stem_width=12, base_channels=6,
        base_height=4, base_width=4,
        stages=(UpsampleStage(2, 6), UpsampleStage(2, 5)),
        frame_height=16, frame_width=16, activation="gelu",
        upsample="nearest", precision="f64")


@pytest.fixture
def tiny_subpel() -> BackboneConfig:
    return BackboneConfig(
        kind="nerv-lite", pe_frequencies=4, stem_width=10, base_channels=6,
        base_height=4, base_width=4,
        stages=(UpsampleStage(2, 5), UpsampleStage(2, 4)),
        frame_height=16, frame_width=16, activation="sin",
        upsample="subpel", precision="f64")


@pytest.fixture
def tiny_mlp() -> BackboneConfig:
    return BackboneConfig(
        kind="coord-mlp", pe_frequencies=3, hidden=(14, 12),
        frame_height=12, frame_width=12, activation="gelu",
        precision="f64")


def repack(data: bytes, model: int = 0, config_text: str | None = None,
           payload_tail: bytes = b"", **fields) -> bytes:
    """Rewrite a valid stream with header CRC (and payload length and CRC)
    recomputed, so only the change itself can make it fail: ``fields``
    replaced in record ``model``, ``payload_tail`` appended to its payload
    and, if given, another backbone config text.  The writer's record
    checks are bypassed on purpose."""
    header, payloads = read_bitstream(data)
    payloads[model] += payload_tail
    records = list(header.records)
    for name in ("scale", "mu", "sd", "bound"):
        if name in fields and np.ndim(fields[name]) == 0:
            values = getattr(records[model], name).copy()
            values[0] = fields[name]
            fields[name] = values
    records[model] = dataclasses.replace(
        records[model], payload_len=len(payloads[model]),
        payload_crc=zlib.crc32(payloads[model]), **fields)
    head = _pack_header(header.width, header.height, header.frame_count,
                        header.gop_size, header.gom_size, header.seed,
                        header.precision,
                        header.config_text if config_text is None
                        else config_text, header.n_layers, records)
    return head + b"".join(payloads)


def set_config_byte(data: bytes, index: int, value: int) -> bytes:
    """Overwrite byte ``index`` of the config text; header CRC recomputed."""
    size = read_bitstream(data)[0].header_size
    blob = bytearray(data)
    blob[_FIXED.size + index] = value
    blob[size - 4:size] = struct.pack("<I", zlib.crc32(bytes(blob[:size - 4])))
    return bytes(blob)


# Header edits that leave every CRC valid and the stream undecodable:
# (id, repack keyword arguments).  A scalar array field edits layer 0.
HOSTILE_HEADERS = [
    ("bound-0", dict(bound=0)),
    ("bound-past-max", dict(bound=32768)),
    ("sd-inf", dict(sd=np.inf)),
    ("sd-nan", dict(sd=np.nan)),
    ("sd-below-floor", dict(sd=1e-7)),
    ("scale-negative", dict(scale=-1.0)),
    ("scale-zero", dict(scale=0.0)),
    ("scale-inf", dict(scale=np.inf)),
    ("epsilon-above-1", dict(model=1, epsilon=1.5)),
    ("epsilon-negative", dict(model=1, epsilon=-0.25)),
    ("epsilon-nan", dict(model=1, epsilon=float("nan"))),
    ("epsilon-on-I", dict(epsilon=0.5)),
    ("config-unknown-key", dict(config_text="kind = nerv-lite\nbogus = 1\n")),
    ("config-not-a-number",
     dict(config_text="kind = nerv-lite\npe_frequencies = many\n")),
]
