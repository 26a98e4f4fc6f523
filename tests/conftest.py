"""Shared fixtures: tiny backbones, a finite-difference oracle and the
taped ops only the oracles use."""

from __future__ import annotations

import dataclasses
import struct
import zlib

import numpy as np
import pytest

from clipcodec import detmath, ops, worker
from clipcodec.backbone import BackboneConfig, UpsampleStage
from clipcodec.bitstream import _FIXED, BitstreamReader, _pack_header
from clipcodec.coder import SymbolModel, build_models
from clipcodec.errors import ShapeError
from clipcodec.params import ParamVector
from clipcodec.ratequant import layer_stats, rate_bits_train
from clipcodec.tensor import Tape, Tensor


@pytest.fixture(autouse=True)
def no_worker():
    """Each test starts and ends with no worker: one that a test forks
    sees the test's own patches, and none outlives the test."""
    worker.stop()
    yield
    worker.stop()


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


class CaptureTape(Tape):
    """A tape that keeps the backward closure of the last recorded op."""

    def record(self, out, inputs, backward):
        super().record(out, inputs, backward)
        self.last_backward = backward


def op_and_grads(op, g, *inputs) -> tuple:
    """``op``'s output data and the gradients its backward pass gives the
    upstream gradient ``g``."""
    with CaptureTape() as tape:
        out = op(*(Tensor(a, requires_grad=True) for a in inputs))
    return (out.data,) + tuple(tape.last_backward(g))


def concat_flat(xs) -> Tensor:
    """Flatten each tensor and join them end to end, as one tape node.

    The references below train one leaf per layer; this joins them into
    the flat form the codec works on, with the gradient cut back per
    layer.
    """
    xs = tuple(xs)
    if not xs:
        raise ShapeError("concat_flat: no tensors to join")
    shapes = [x.shape for x in xs]
    out = ops._result(np.concatenate([x.data.reshape(-1) for x in xs]), xs)
    cuts = np.cumsum([x.size for x in xs])[:-1]
    ops._record(out, xs,
                lambda g: tuple(part.reshape(shape) for part, shape
                                in zip(np.split(g, cuts), shapes)))
    return out


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element of ``x``, one ``np.sum``, as one tape node."""
    out = ops._result(np.asarray(np.sum(x.data), dtype=x.dtype), (x,))
    shape = x.shape
    ops._record(out, (x,),
                lambda g: (np.broadcast_to(g, shape).astype(x.dtype),))
    return out


def upsample_nearest(x: Tensor, r: int) -> Tensor:
    """(N, C, H, W) -> (N, C, H*r, W*r) by pixel repetition, as one tape
    node: the reference that ``ops.conv2d(x, w, b, r)`` must match as
    ``ops.conv2d(upsample_nearest(x, r), w, b)``."""
    if x.data.ndim != 4 or r < 1:
        raise ShapeError(f"upsample_nearest: bad input {x.shape} or "
                         f"factor {r}")
    n, c, h, w = x.shape
    data = np.repeat(np.repeat(x.data, r, axis=2), r, axis=3)
    out = ops._result(data, (x,))
    ops._record(out, (x,),
                lambda g: (g.reshape(n, c, h, r, w, r).sum(axis=(3, 5)),))
    return out


def neg(a: Tensor) -> Tensor:
    """``-a`` as one tape node."""
    out = ops._result(-a.data, (a,))
    ops._record(out, (a,), lambda g: (-g,))
    return out


def log(x: Tensor) -> Tensor:
    """``detmath.log`` of ``x`` as one tape node."""
    out = ops._result(detmath.log(x.data).astype(x.dtype), (x,))
    xd = x.data
    ops._record(out, (x,), lambda g: (g / xd,))
    return out


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """``x`` raised to at least ``floor`` as one tape node, passing no
    gradient where it is at or below ``floor``."""
    out = ops._result(np.maximum(x.data, x.dtype.type(floor)), (x,))
    mask = x.data > floor
    ops._record(out, (x,), lambda g: (g * mask,))
    return out


def gauss_mass(lo: Tensor, hi: Tensor) -> Tensor:
    """Standard-normal mass on ``(lo, hi]`` with analytic endpoint grads,
    as one tape node: the taped form of the rate term's probability."""
    if lo.shape != hi.shape:
        raise ShapeError(f"gauss_mass: bounds {lo.shape} vs {hi.shape}")
    mass = detmath.norm_cdf_diff(lo.data, hi.data).astype(lo.dtype)
    out = ops._result(mass, (lo, hi))
    lod, hid = lo.data, hi.data
    ops._record(out, (lo, hi),
                lambda g: (-g * detmath.norm_pdf(lod).astype(lo.dtype),
                           g * detmath.norm_pdf(hid).astype(hi.dtype)))
    return out


def build_model(mu: float, sd: float, bound: int) -> SymbolModel:
    """Discretize N(mu, sd^2) over [-bound, bound] into coder frequencies:
    the one-layer case of :func:`build_models`."""
    (model,) = build_models([mu], [sd], [bound])
    return model


def segment_leaves(params) -> dict:
    """One requires-grad leaf per segment of ``params``, copied: the
    per-layer form the references train."""
    return {name: Tensor(params[name].data.copy(), requires_grad=True)
            for name in params.names}


def joined(leaves: dict) -> np.ndarray:
    """The values of per-segment ``leaves`` joined in order."""
    return np.concatenate([t.data.reshape(-1) for t in leaves.values()])


def rate_bits_layers(scaled, noise, stats):
    """``rate_bits_train`` of one tensor and one noise array per layer,
    joined in layout order as the training step joins them, as one tape
    node whose backward pass scales the kernel's gradient, as the
    training step's rate node does; ``stats`` is ``(mu, sd)``."""
    flat = concat_flat(scaled)
    bits, grad = rate_bits_train(
        flat.data, np.concatenate([u.reshape(-1) for u in noise]), *stats,
        [t.size for t in scaled])
    out = ops._result(bits, (flat,))
    ops._record(out, (flat,), lambda g: (grad * g,))
    return out


def layer_stats_of(scaled):
    """``layer_stats`` of one array per layer, joined in layout order as
    the training step joins them: ``(mu, sd)``."""
    return layer_stats(np.concatenate([a.reshape(-1) for a in scaled]),
                       [a.size for a in scaled])


class PerSegmentAdam:
    """Reference: Adam updated one segment at a time, as before the flat
    update, over a dict of per-segment leaves.  ``adam_step`` must match
    it bit for bit."""

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
        frame_height=16, frame_width=16)


@pytest.fixture
def tiny_mlp() -> BackboneConfig:
    return BackboneConfig(
        kind="coord-mlp", pe_frequencies=3, hidden=(14, 12),
        frame_height=12, frame_width=12)


def as_f64(params: ParamVector) -> ParamVector:
    """``params`` cast to float64: the network and the training step
    follow their parameters' dtype, so a check in float64 passes these."""
    return params.with_flat(params.flat.data.astype(np.float64))


def edit_stream(fields: dict, model: int = 0, **edit) -> dict:
    """``fields`` (header fields by name, and ``records``) with ``edit``
    applied: a name in ``fields`` replaces that field, any other name that
    field of record ``model``, where a scalar array field edits layer 0."""
    fields = {**fields, **{name: edit.pop(name) for name in list(edit)
                           if name in fields}}
    records = list(fields["records"])
    for name in ("scale", "mu", "sd", "bound"):
        if name in edit and np.ndim(edit[name]) == 0:
            values = getattr(records[model], name).copy()
            values[0] = edit[name]
            edit[name] = values
    records[model] = dataclasses.replace(records[model], **edit)
    return {**fields, "records": records}


def repack(data: bytes, model: int = 0, payload_tail: bytes = b"",
           payload: bytes | None = None, **edit) -> bytes:
    """Rewrite a valid stream with header CRC (and payload length and CRC)
    recomputed, so only the change itself can make it fail: ``edit`` as
    :func:`edit_stream` applies it (header fields such as ``frame_count``
    or ``config_text``, or fields of record ``model``), and
    that record's payload replaced by ``payload`` if given and then
    ``payload_tail`` appended.  The writer's checks are bypassed on
    purpose."""
    reader = BitstreamReader.from_bytes(data)
    header = reader.header
    payloads = [reader.read_payload(i) for i in range(len(header.records))]
    if payload is not None:
        payloads[model] = payload
    payloads[model] += payload_tail
    fields = {name: getattr(header, name)
              for name in ("width", "height", "frame_count", "gop_size",
                           "gom_size", "seed", "config_text",
                           "n_layers", "records")}
    fields = edit_stream(fields, model, payload_len=len(payloads[model]),
                         payload_crc=zlib.crc32(payloads[model]), **edit)
    return _pack_header(**fields) + b"".join(payloads)


def set_header_byte(data: bytes, offset: int, value: int) -> bytes:
    """Overwrite the header byte at ``offset``; header CRC recomputed."""
    size = BitstreamReader.from_bytes(data).header.header_size
    blob = bytearray(data)
    blob[offset] = value
    blob[size - 4:size] = struct.pack("<I", zlib.crc32(bytes(blob[:size - 4])))
    return bytes(blob)


# Header edits that leave every CRC valid and the stream undecodable:
# (id, repack or edit_stream keyword arguments).  A scalar array field
# edits layer 0.  The cases assume 8 frames of 16x16 in 4 clips of 2, two
# clips per group, and other than 6 layers per model.
HOSTILE_HEADERS = [
    ("frame-count-max", dict(frame_count=2 ** 32 - 1, gop_size=1)),
    ("frame-count-0", dict(frame_count=0)),
    ("gop-size-0", dict(gop_size=0)),
    ("gom-size-0", dict(gom_size=0)),
    ("width-0", dict(width=0)),
    ("clip-count-mismatch", dict(frame_count=9)),
    ("pixels-past-limit", dict(frame_count=2 ** 32 - 1, gop_size=2 ** 30)),
    ("frame-size-640x480", dict(width=640, height=480)),
    ("bound-0", dict(bound=0)),
    ("bound-past-max", dict(bound=32768)),
    ("mu-nan", dict(mu=np.nan)),
    ("mu-inf", dict(mu=-np.inf)),
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
    ("record-index-wrong", dict(model=1, index=2)),
    ("role-P-on-I", dict(model=2, role="P")),
    ("role-I-on-P", dict(model=1, role="I", epsilon=0.0)),
    ("config-precision-f64",
     dict(config_text="kind = coord-mlp\nframe_height = 16\n"
                      "frame_width = 16\nprecision = f64\n")),
    ("config-upsample-subpel",
     dict(config_text="kind = nerv-lite\nstages = 2x4, 2x4\n"
                      "upsample = subpel\nframe_height = 16\n"
                      "frame_width = 16\n")),
    ("config-activation-sin",
     dict(config_text="kind = nerv-lite\nstages = 2x4, 2x4\n"
                      "activation = sin\nframe_height = 16\n"
                      "frame_width = 16\n")),
    ("config-6-layers",
     dict(config_text="kind = coord-mlp\nframe_height = 16\n"
                      "frame_width = 16\n")),
]

# Header bytes no writer can be asked for, each set with the header CRC
# recomputed: (id, (offset, value)) for :func:`set_header_byte`.
HOSTILE_BYTES = [
    ("precision-f64", (6, 1)),
    ("config-not-utf8", (_FIXED.size, 0xFF)),
]


def hostile_stream(data: bytes, edit) -> bytes:
    """``data`` with one edit of HOSTILE_HEADERS or HOSTILE_BYTES."""
    if isinstance(edit, dict):
        return repack(data, **edit)
    return set_header_byte(data, *edit)
