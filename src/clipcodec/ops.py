"""Differentiable operations over :class:`~clipcodec.tensor.Tensor`.

Kernels deliberately avoid BLAS (``einsum`` instead of ``dot``) and libm
transcendentals (:mod:`~clipcodec.detmath` instead), so a forward pass is
bit-reproducible for a fixed thread count on any IEEE-754 platform.
Convolution is computed directly as nine shifted channel contractions.
The forward pass contracts, for each kernel row, the slab of whole padded
rows (contiguous along height and width, which ``einsum`` runs about
twice as fast as a strided tap) and crops each tap's result to the output
columns; the weight gradient contracts a contiguous copy of each tap.  A
convolution of a nearest-upsampled input contracts each tap once at input
resolution, where each output phase (sub-pixel position) reads one cell
per tap (Shi et al. 2016, arXiv:1609.05158).  No form changes a bit:
every output element sums the same products in the same order (channels,
then taps in row-major order; batch and pixels for the weight gradient),
as tests check against the per-tap form and an upsample.

Every op validates shapes up front and raises
:class:`~clipcodec.errors.ShapeError` naming the op and offending shapes.
"""

from __future__ import annotations

import functools
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
    if a.shape == b.shape:
        return a.shape
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

def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           scale: int = 1) -> Tensor:
    """2-D convolution, stride 1, odd kernel, same padding (NCHW), of ``x``
    nearest-upsampled ``scale`` times: (N, C, H, W) -> (N, O, H*s, W*s)."""
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
    if scale < 1:
        raise ShapeError(f"conv2d: upsample factor {scale} below 1")
    pad, xd, wdat = kh // 2, x.data, w.data
    # at scale > 1 the backward pass builds the upsampled, padded input
    xp = _padded(xd, pad) if scale == 1 else None
    if xp is not None:
        acc = np.zeros((n, cout, h, wd), dtype=x.dtype)
        for di in range(kh):
            # full padded rows keep the einsum operand contiguous along h
            # and w; the columns each tap does not need are cropped after
            slab = xp[:, :, di:di + h]
            for dj in range(kw):
                acc += np.einsum("nchw,oc->nohw", slab,
                                 wdat[:, :, di, dj])[..., dj:dj + wd]
    else:
        acc = _phase_conv(xd, wdat, scale)
    if b is not None:
        acc += b.data[None, :, None, None]

    inputs = (x, w) if b is None else (x, w, b)
    out = _result(acc, inputs)
    hs, ws = h * scale, wd * scale

    def backward(g):  # a plain conv's on the upsampled input, then upsample's
        xq = xp if xp is not None else _padded(
            np.repeat(np.repeat(xd, scale, axis=2), scale, axis=3), pad)
        gx_pad = np.zeros_like(xq)
        gw = np.zeros_like(wdat)
        for di in range(kh):
            for dj in range(kw):
                # a transient contiguous copy of the tap, dropped at once
                gw[:, :, di, dj] = np.einsum(
                    "nohw,nchw->oc", g,
                    np.ascontiguousarray(xq[:, :, di:di + hs, dj:dj + ws]))
                gx_pad[:, :, di:di + hs, dj:dj + ws] += np.einsum(
                    "nohw,oc->nchw", g, wdat[:, :, di, dj])
        gx = gx_pad[:, :, pad:pad + hs, pad:pad + ws]
        if scale > 1:
            gx = gx.reshape(n, cin, h, scale, wd, scale).sum(axis=(3, 5))
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    _record(out, inputs, backward)
    return out


def _padded(x: np.ndarray, pad: int) -> np.ndarray:  # zeros on all sides
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp


@functools.cache
def _phase_runs(scale: int, d: int, pad: int):
    """Runs ``(first, stop, cell, step)``: through kernel offset d, output
    phase a in [first, stop) reads input cell ``cell + step*(a - first)``."""
    cells = [(a + d - pad) // scale for a in range(scale)]
    if scale == 2 or cells[0] == cells[-1]:
        return ((0, scale, cells[0], cells[-1] - cells[0]),)
    mid = cells.index(cells[-1])  # the cell steps up by one, once
    return ((0, mid, cells[0], 0), (mid, scale, cells[-1], 0))


def _phase_conv(x: np.ndarray, w: np.ndarray, scale: int) -> np.ndarray:
    """:func:`conv2d`'s forward at ``scale`` > 1: one ``einsum`` contracts
    all taps on the channel-major input grid, padded by one cell at least
    (on a one-cell grid ``einsum`` sums the channels in another order)."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    p = max(1, -(-(k // 2) // scale))
    xq = np.zeros((cin, n, h + 2 * p, wd + 2 * p), dtype=x.dtype)
    xq[:, :, p:p + h, p:p + wd] = x.transpose(1, 0, 2, 3)
    # a row-major buffer, so np.ndarray (cheaper than as_strided) views it
    taps = np.empty((k * k, cout) + xq.shape[1:], np.result_type(x, w))
    np.einsum("cm,toc->tom", xq.reshape(cin, -1),
              w.transpose(2, 3, 0, 1).reshape(k * k, cout, cin),
              out=taps.reshape(k * k, cout, -1))
    tap, so, sn, row, item = taps.strides
    acc = np.zeros((n, cout, scale, scale, h, wd), dtype=x.dtype)
    runs = [_phase_runs(scale, d, k // 2) for d in range(k)]
    for t in range(k * k):  # tap by tap, each run of phases adds a view
        for a0, a1, ri, rs in runs[t // k]:
            for b0, b1, ci, cs in runs[t % k]:
                part = (acc if a1 - a0 == b1 - b0 == scale  # no slice
                        else acc[:, :, a0:a1, b0:b1])
                part += np.ndarray(
                    (n, cout, a1 - a0, b1 - b0, h, wd), taps.dtype, taps,
                    t * tap + (p + ri) * row + (p + ci) * item,
                    (sn, so, rs * row, cs * item, row, item))
    out = np.empty((n, cout, h, scale, wd, scale), dtype=x.dtype)
    for a in range(scale):
        for b in range(scale):
            out[:, :, :, a, :, b] = acc[:, :, a, b]
    return out.reshape(n, cout, h * scale, wd * scale)


# ------------------------------------------------------------------ reshape

def split_flat(x: Tensor, shapes) -> tuple[Tensor, ...]:
    """Cut the 1-d ``x`` into consecutive pieces of the given shapes.

    The pieces are views of ``x``; the split is one tape node with one
    output per piece.
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

    Equals each element broadcast to its shape, flattened and joined, and
    so does its gradient: each segment is reduced in its own shape exactly
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
    """``x * cdf(x)``, its float64 work on detmath's blocks, each block's
    product cast to ``x``'s dtype in ufunc buffers.  Under a tape the
    forward pass also writes the slope ``cdf(x) + x * pdf(x)`` in that
    dtype, all that the backward pass keeps; with none, nothing is kept."""
    xd = x.data
    flat = xd.reshape(-1)
    out = np.empty(flat.shape, xd.dtype)
    taped = active_tape() is not None and x.requires_grad
    slope = np.empty(flat.shape, xd.dtype) if taped else None
    for start in range(0, flat.size, detmath._BLOCK_ELEMENTS):
        piece = slice(start, start + detmath._BLOCK_ELEMENTS)
        block = flat[piece].astype(np.float64, copy=False)
        cdf = _gelu_cdf(block)
        np.multiply(block, cdf, out=out[piece], casting="same_kind")
        if taped:
            slope[piece] = _gelu_slope(block, cdf)
    result = _result(out.reshape(xd.shape), (x,))
    if taped:
        slope = slope.reshape(xd.shape)
        _record(result, (x,), lambda g: (g * slope,))
    return result


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    cdf = detmath.erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    slope = detmath.norm_pdf(x)
    slope *= x
    slope += cdf
    return slope


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
