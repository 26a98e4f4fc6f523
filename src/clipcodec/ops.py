"""Differentiable operations over :class:`~clipcodec.tensor.Tensor`.

Kernels deliberately avoid BLAS (``einsum`` instead of ``dot``) and libm
transcendentals (:mod:`~clipcodec.detmath` instead), so a forward pass is
bit-reproducible for a fixed thread count on any IEEE-754 platform.
Convolution is computed directly as nine shifted channel contractions;
performance is secondary to reproducibility at the scales this codec
targets.

Every op validates shapes up front and raises
:class:`~clipcodec.errors.ShapeError` naming the op and offending shapes.
"""

from __future__ import annotations

import math

import numpy as np

from . import detmath
from .errors import ShapeError
from .tensor import Tensor, active_tape


def _record(out: Tensor, inputs, backward) -> None:
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, inputs, backward)


def _result(data, inputs) -> Tensor:
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs),
                 dtype=data.dtype)
    return out


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def constant(value, dtype=None) -> Tensor:
    return Tensor(np.asarray(value, dtype=dtype), requires_grad=False)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _broadcast_ok(a: Tensor, b: Tensor, op: str):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not "
                         f"broadcast") from None


# ---------------------------------------------------------------- arithmetic

def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    _broadcast_ok(a, b, "add")
    out = _result(a.data + b.data, (a, b))
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape),
                                    _unbroadcast(g, b.shape)))
    return out


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    _broadcast_ok(a, b, "sub")
    out = _result(a.data - b.data, (a, b))
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape),
                                    _unbroadcast(-g, b.shape)))
    return out


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    _broadcast_ok(a, b, "mul")
    out = _result(a.data * b.data, (a, b))
    ad, bd = a.data, b.data
    _record(out, (a, b), lambda g: (_unbroadcast(g * bd, a.shape),
                                    _unbroadcast(g * ad, b.shape)))
    return out


def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    _broadcast_ok(a, b, "div")
    out = _result(a.data / b.data, (a, b))
    ad, bd = a.data, b.data
    _record(out, (a, b),
            lambda g: (_unbroadcast(g / bd, a.shape),
                       _unbroadcast(-g * ad / (bd * bd), b.shape)))
    return out


def neg(a: Tensor) -> Tensor:
    out = _result(-a.data, (a,))
    _record(out, (a,), lambda g: (-g,))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = _result(np.einsum("ij,jk->ik", a.data, b.data), (a, b))
    ad, bd = a.data, b.data
    _record(out, (a, b),
            lambda g: (np.einsum("ik,jk->ij", g, bd),
                       np.einsum("ij,ik->jk", ad, g)))
    return out


# -------------------------------------------------------------- convolution

def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """2-D convolution, stride 1, odd kernel, same padding (NCHW)."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d input and weight, got "
                         f"{x.shape} and {w.shape}")
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w or kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d: weight {w.shape} incompatible with input "
                         f"{x.shape} (odd square kernel, matching channels)")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({cout},)")
    pad = kh // 2
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + wd] = x.data
    acc = np.zeros((n, cout, h, wd), dtype=x.dtype)
    for di in range(kh):
        for dj in range(kw):
            acc += np.einsum("nchw,oc->nohw",
                             xp[:, :, di:di + h, dj:dj + wd],
                             w.data[:, :, di, dj])
    if b is not None:
        acc += b.data[None, :, None, None]

    inputs = (x, w) if b is None else (x, w, b)
    out = _result(acc, inputs)
    wdat = w.data

    def backward(g):
        gx_pad = np.zeros_like(xp)
        gw = np.zeros_like(wdat)
        for di in range(kh):
            for dj in range(kw):
                gw[:, :, di, dj] = np.einsum(
                    "nohw,nchw->oc", g, xp[:, :, di:di + h, dj:dj + wd])
                gx_pad[:, :, di:di + h, dj:dj + wd] += np.einsum(
                    "nohw,oc->nchw", g, wdat[:, :, di, dj])
        gx = gx_pad[:, :, pad:pad + h, pad:pad + wd]
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    _record(out, inputs, backward)
    return out


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """(N, C*r*r, H, W) -> (N, C, H*r, W*r), channel-major sub-pixel order."""
    if x.data.ndim != 4 or x.shape[1] % (r * r) != 0:
        raise ShapeError(f"pixel_shuffle: input {x.shape} not divisible by "
                         f"r*r={r * r} in channels")
    n, crr, h, w = x.shape
    c = crr // (r * r)
    data = (x.data.reshape(n, c, r, r, h, w)
            .transpose(0, 1, 4, 2, 5, 3)
            .reshape(n, c, h * r, w * r))
    out = _result(data, (x,))

    def backward(g):
        gi = (g.reshape(n, c, h, r, w, r)
              .transpose(0, 1, 3, 5, 2, 4)
              .reshape(n, crr, h, w))
        return (gi,)

    _record(out, (x,), backward)
    return out


def upsample_nearest(x: Tensor, r: int) -> Tensor:
    """(N, C, H, W) -> (N, C, H*r, W*r) by pixel repetition."""
    if x.data.ndim != 4 or r < 1:
        raise ShapeError(f"upsample_nearest: bad input {x.shape} or factor {r}")
    n, c, h, w = x.shape
    data = np.repeat(np.repeat(x.data, r, axis=2), r, axis=3)
    out = _result(data, (x,))
    _record(out, (x,),
            lambda g: (g.reshape(n, c, h, r, w, r).sum(axis=(3, 5)),))
    return out


# ------------------------------------------------------------------ reshape

def concat_flat(xs) -> Tensor:
    """Flatten each tensor and join them end to end, in order."""
    xs = tuple(xs)
    if not xs:
        raise ShapeError("concat_flat: no tensors to join")
    shapes = [x.shape for x in xs]
    out = _result(np.concatenate([x.data.reshape(-1) for x in xs]), xs)
    cuts = np.cumsum([x.size for x in xs])[:-1]
    _record(out, xs,
            lambda g: tuple(part.reshape(shape) for part, shape
                            in zip(np.split(g, cuts), shapes)))
    return out


def split_flat(x: Tensor, shapes) -> tuple[Tensor, ...]:
    """Cut the 1-d ``x`` into consecutive pieces of the given shapes.

    The inverse of :func:`concat_flat`.  The pieces are views of ``x``;
    the split is one tape node with one output per piece.
    """
    shapes = [tuple(shape) for shape in shapes]
    sizes = [math.prod(shape) for shape in shapes]
    if x.data.ndim != 1 or sum(sizes) != x.size:
        raise ShapeError(f"split_flat: pieces {shapes} do not cover "
                         f"{x.shape}")
    ends = np.cumsum(sizes)
    pieces = tuple(_result(x.data[end - n:end].reshape(shape), (x,))
                   for n, end, shape in zip(sizes, ends, shapes))

    def backward(gs):
        return (np.concatenate([
            np.zeros(n, dtype=x.dtype) if g is None else g.reshape(-1)
            for g, n in zip(gs, sizes)]),)

    tape = active_tape()
    if tape is not None and x.requires_grad:
        tape.record(pieces, (x,), backward)
    return pieces


def broadcast_segments(x: Tensor, shapes) -> Tensor:
    """Element i of the 1-d ``x`` spread over ``shapes[i]``, all joined flat.

    Equals :func:`concat_flat` of each element broadcast to its shape, and
    so is its gradient: each segment is reduced in its own shape exactly
    as broadcasting a scalar reduces it, which need not give the bits of a
    flat ``np.sum`` over the segment.
    """
    shapes = [tuple(shape) for shape in shapes]
    if x.data.ndim != 1 or x.size != len(shapes):
        raise ShapeError(f"broadcast_segments: {x.shape} does not give one "
                         f"value per shape in {shapes}")
    sizes = [math.prod(shape) for shape in shapes]
    out = _result(np.repeat(x.data, sizes), (x,))
    ends = np.cumsum(sizes)

    def backward(g):
        return (np.array([_unbroadcast(g[end - n:end].reshape(shape), ())
                          for n, end, shape in zip(sizes, ends, shapes)],
                         dtype=g.dtype),)

    _record(out, (x,), backward)
    return out


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    old = x.shape
    out = _result(x.data.reshape(shape), (x,))
    _record(out, (x,), lambda g: (g.reshape(old),))
    return out


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for {x.shape}")
    inv = tuple(np.argsort(axes))
    out = _result(x.data.transpose(axes), (x,))
    _record(out, (x,), lambda g: (g.transpose(inv),))
    return out


# -------------------------------------------------------------- activations

_INV_SQRT2 = 0.7071067811865476


def gelu(x: Tensor) -> Tensor:
    xd = x.data
    cdf = 0.5 * (1.0 + detmath.erf(xd.astype(np.float64) * _INV_SQRT2))
    out = _result((xd * cdf).astype(x.dtype), (x,))

    def backward(g):
        pdf = detmath.norm_pdf(xd.astype(np.float64))
        return ((g * (cdf + xd * pdf).astype(x.dtype)),)

    _record(out, (x,), backward)
    return out


def sin(x: Tensor) -> Tensor:
    xd = x.data
    out = _result(detmath.sin(xd).astype(x.dtype), (x,))
    _record(out, (x,),
            lambda g: ((g * detmath.cos(xd).astype(x.dtype)),))
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = detmath.sigmoid(x.data).astype(x.dtype)
    out = _result(s, (x,))
    _record(out, (x,), lambda g: (g * s * (1.0 - s),))
    return out


def exp(x: Tensor) -> Tensor:
    e = detmath.exp(x.data).astype(x.dtype)
    out = _result(e, (x,))
    _record(out, (x,), lambda g: (g * e,))
    return out


def log(x: Tensor) -> Tensor:
    out = _result(detmath.log(x.data).astype(x.dtype), (x,))
    xd = x.data
    _record(out, (x,), lambda g: (g / xd,))
    return out


def clamp_min(x: Tensor, floor: float) -> Tensor:
    out = _result(np.maximum(x.data, x.dtype.type(floor)), (x,))
    mask = x.data > floor
    _record(out, (x,), lambda g: (g * mask,))
    return out


def gauss_mass(lo: Tensor, hi: Tensor) -> Tensor:
    """Standard-normal mass on ``(lo, hi]`` with analytic endpoint grads."""
    if lo.shape != hi.shape:
        raise ShapeError(f"gauss_mass: bounds {lo.shape} vs {hi.shape}")
    mass = detmath.norm_cdf_diff(lo.data, hi.data).astype(lo.dtype)
    out = _result(mass, (lo, hi))
    lod, hid = lo.data, hi.data
    _record(out, (lo, hi),
            lambda g: (-g * detmath.norm_pdf(lod).astype(lo.dtype),
                       g * detmath.norm_pdf(hid).astype(hi.dtype)))
    return out


def ste_round(x: Tensor) -> Tensor:
    """Round half away from zero; backward passes gradients unchanged."""
    out = _result(detmath.round_half_away(x.data).astype(x.dtype), (x,))
    _record(out, (x,), lambda g: (g,))
    return out


# -------------------------------------------------------------- reductions

def mean_square(x: Tensor) -> Tensor:
    out = _result(np.asarray(np.mean(x.data * x.data), dtype=x.dtype), (x,))
    n = x.size
    xd = x.data
    _record(out, (x,), lambda g: (g * xd * x.dtype.type(2.0 / n),))
    return out


def sum_all(x: Tensor) -> Tensor:
    out = _result(np.asarray(np.sum(x.data), dtype=x.dtype), (x,))
    shape = x.shape
    _record(out, (x,),
            lambda g: (np.broadcast_to(g, shape).astype(x.dtype),))
    return out


def segment_sum(x: Tensor, sizes) -> Tensor:
    """Sums of consecutive runs of the 1-d ``x``, one per entry of ``sizes``.

    Each run is reduced by its own ``np.sum``, so a run sums to the same
    bits as ``sum_all`` over that run alone.
    """
    sizes = list(sizes)
    if x.data.ndim != 1 or sum(sizes) != x.size:
        raise ShapeError(f"segment_sum: runs {sizes} do not cover {x.shape}")
    ends = np.cumsum(sizes)
    data = np.array([np.sum(x.data[end - n:end])
                     for n, end in zip(sizes, ends)], dtype=x.dtype)
    out = _result(data, (x,))
    _record(out, (x,), lambda g: (np.repeat(g, sizes),))
    return out


def sum_ordered(x: Tensor) -> Tensor:
    """Sum of a 1-d ``x`` added strictly left to right.

    ``np.sum`` adds pairwise; this matches a chain of scalar ``add`` ops.
    """
    if x.data.ndim != 1:
        raise ShapeError(f"sum_ordered: need a 1-d input, got {x.shape}")
    total = np.add.accumulate(x.data)[-1] if x.size else 0.0
    out = _result(np.asarray(total, dtype=x.dtype), (x,))
    shape = x.shape
    _record(out, (x,),
            lambda g: (np.broadcast_to(g, shape).astype(x.dtype),))
    return out


# Registry for dispatch-by-name (diagnostics, generic tests).
OPS = {
    "matmul": matmul,
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": div,
    "neg": neg,
    "conv2d": conv2d,
    "pixel-shuffle": pixel_shuffle,
    "upsample-nearest": upsample_nearest,
    "reshape": reshape,
    "permute": permute,
    "gelu": gelu,
    "sin": sin,
    "sigmoid": sigmoid,
    "exp": exp,
    "log": log,
    "clamp-min": clamp_min,
    "gauss-mass": gauss_mass,
    "ste-round": ste_round,
    "mean-square": mean_square,
    "sum": sum_all,
}


def apply(kind: str, *args, **kwargs) -> Tensor:
    """Dispatch an op by registry name."""
    try:
        fn = OPS[kind]
    except KeyError:
        raise ShapeError(f"unknown op kind {kind!r}") from None
    return fn(*args, **kwargs)
