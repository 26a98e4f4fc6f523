"""Tensor engine: op contracts, tape semantics, gradient correctness."""

import numpy as np
import pytest

from clipcodec import detmath, ops
from clipcodec.backbone import forward_clip, init_random
from clipcodec.errors import ShapeError, TapeError
from clipcodec.presets import nerv_lite_preset
from clipcodec.tensor import Tape, Tensor
from conftest import (CaptureTape, concat_flat, fd_gradient, gauss_mass,
                      op_and_grads, rel_error, sum_all, upsample_nearest)
from test_detmath import BLOCK_SIZES, golden_grid, pieces, tiled


def test_matmul_shape_contract():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 4)))
    assert ops.matmul(a, b).shape == (2, 4)
    with pytest.raises(ShapeError, match="matmul"):
        ops.matmul(a, Tensor(np.ones((2, 4))))


def test_mean_square_zero():
    assert ops.mean_square(Tensor(np.zeros((3, 4)))).item() == 0.0


def test_upsample_nearest_values():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    out = upsample_nearest(x, 2)
    assert out.shape == (1, 1, 4, 4)
    assert np.array_equal(out.data[0, 0],
                          np.array([[1, 1, 2, 2], [1, 1, 2, 2],
                                    [3, 3, 4, 4], [3, 3, 4, 4]]))


def test_simple_gradient():
    x = Tensor(3.0, requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = ops.mul(x, x)
    tape.backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_unreachable_parameter_gets_no_gradient():
    x = Tensor(2.0, requires_grad=True, dtype=np.float64)
    w = Tensor(5.0, requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = ops.mul(x, x)
    tape.backward(loss)
    assert w.grad is None  # callers treat missing gradients as zero


def test_linear_system_gradient_matches_fd():
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    x = ops.constant(rng.standard_normal((4, 4)))
    y = ops.constant(rng.standard_normal((4, 4)))

    def run():
        with Tape() as tape:
            loss = ops.mean_square(ops.sub(ops.matmul(ops.constant(
                x.data), w), y))
        return loss, tape

    loss, tape = run()
    tape.backward(loss)
    analytic = w.grad.copy()
    numeric = fd_gradient(lambda: run()[0].item(), w.data, h=1e-4)
    assert rel_error(analytic, numeric) < 1e-4


def test_conv2d_gradients_match_fd():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((1, 3, 5, 5))
    w = Tensor(rng.standard_normal((2, 3, 3, 3)) * 0.5,
               requires_grad=True)
    b = Tensor(rng.standard_normal(2) * 0.1, requires_grad=True)

    def run():
        with Tape() as tape:
            out = ops.conv2d(ops.constant(x0), w, b)
            loss = ops.mean_square(out)
        return loss, tape

    loss, tape = run()
    tape.backward(loss)
    for tensor in (w, b):
        analytic = tensor.grad.copy()
        tensor.grad = None
        numeric = fd_gradient(lambda: run()[0].item(), tensor.data)
        assert rel_error(analytic, numeric) < 1e-6


def per_tap_conv2d(x, w, b, g):
    """Reference: conv2d as nine strided tap contractions, the form before
    the row-slab forward and the contiguous weight-gradient taps.  Returns
    the output and the gradients of x, w and b for upstream gradient g.
    ``ops.conv2d`` must match it bit for bit."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    pad = kh // 2
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    out = np.zeros((n, cout, h, wd), dtype=x.dtype)
    for di in range(kh):
        for dj in range(kw):
            out += np.einsum("nchw,oc->nohw",
                             xp[:, :, di:di + h, dj:dj + wd], w[:, :, di, dj])
    if b is not None:
        out += b[None, :, None, None]
    gx_pad = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for di in range(kh):
        for dj in range(kw):
            gw[:, :, di, dj] = np.einsum(
                "nohw,nchw->oc", g, xp[:, :, di:di + h, dj:dj + wd])
            gx_pad[:, :, di:di + h, dj:dj + wd] += np.einsum(
                "nohw,oc->nchw", g, w[:, :, di, dj])
    gx = gx_pad[:, :, pad:pad + h, pad:pad + wd]
    gb = None if b is None else g.sum(axis=(0, 2, 3))
    return out, gx, gw, gb


def _nerv_conv_shapes(config):
    """(input, weight) shapes of each conv2d in a nearest-upsample
    nerv-lite forward pass, in call order."""
    h, w, cin = config.base_height, config.base_width, config.base_channels
    shapes = []
    for stage in config.stages:
        h, w = h * stage.scale, w * stage.scale
        shapes.append(((1, cin, h, w), (stage.channels, cin, 3, 3)))
        cin = stage.channels
    shapes.append(((1, cin, h, w), (3, cin, 3, 3)))
    return shapes


# The benchmark's tiers: tiny at 32x32 and small at 64x64.
TIER_CONFIGS = [nerv_lite_preset(32, 32, "tiny"),
                nerv_lite_preset(64, 64, "small")]
TIER_CONV_SHAPES = [shape for config in TIER_CONFIGS
                    for shape in _nerv_conv_shapes(config)]


def test_tier_conv_shapes_are_the_forward_pass(monkeypatch):
    seen = []
    original = ops.conv2d

    def spy(x, w, b=None, scale=1):
        # the input as the conv sees it, nearest-upsampled
        n, c, h, wd = x.shape
        seen.append(((n, c, h * scale, wd * scale), w.shape))
        return original(x, w, b, scale)

    monkeypatch.setattr(ops, "conv2d", spy)
    for config in TIER_CONFIGS:
        list(forward_clip(config, init_random(config, 0), [0.5]))
    assert seen == TIER_CONV_SHAPES and len(seen) == 9


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,w_shape", TIER_CONV_SHAPES,
                         ids=[f"{x[1]}to{w[0]}@{x[2]}"
                              for x, w in TIER_CONV_SHAPES])
def test_conv2d_bitwise_equal_to_per_tap_reference(x_shape, w_shape, dtype,
                                                   bias):
    rng = np.random.default_rng(hash((x_shape, w_shape)) % 2 ** 32)
    for _ in range(4):
        x = rng.standard_normal(x_shape).astype(dtype)
        w = (rng.standard_normal(w_shape) / 3.0).astype(dtype)
        b = rng.standard_normal(w_shape[0]).astype(dtype) if bias else None
        g = rng.standard_normal((x_shape[0], w_shape[0])
                                + x_shape[2:]).astype(dtype)
        with CaptureTape() as tape:
            out = ops.conv2d(Tensor(x, requires_grad=True),
                             Tensor(w, requires_grad=True),
                             None if b is None else Tensor(b,
                                                           requires_grad=True))
        grads = tape.last_backward(g)
        expect = per_tap_conv2d(x, w, b, g)
        assert len(grads) == (3 if bias else 2)
        for got, want in zip((out.data,) + tuple(grads), expect):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _conv_and_grads(x, w, b, g, scale, two_ops):
    """Output and gradients of x, w and b for upstream gradient g of
    ``ops.conv2d(x, w, b, scale)``, or with ``two_ops`` of
    ``ops.conv2d(upsample_nearest(x, scale), w, b)``."""
    leaves = [Tensor(a.copy(), requires_grad=True)
              for a in (x, w, b) if a is not None]
    with Tape() as tape:
        if two_ops:
            out = ops.conv2d(upsample_nearest(leaves[0], scale), *leaves[1:])
        else:
            out = ops.conv2d(*leaves, scale=scale)
        loss = sum_all(ops.mul(out, ops.constant(g)))
    tape.backward(loss)
    return [out.data] + [leaf.grad for leaf in leaves]


# (input, output channels) of each nearest stage of the benchmark's
# tiers, at the stage's input resolution; every stage upsamples 2x.
TIER_STAGE_SHAPES = [((config.base_channels if i == 0
                       else config.stages[i - 1].channels,
                       config.base_height << i, config.base_width << i),
                      stage.channels)
                     for config in TIER_CONFIGS
                     for i, stage in enumerate(config.stages)]


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_upsample_bitwise_equal_to_two_op_chain(dtype, batch):
    # the nearest stage at input resolution against the upsample it
    # replaces: output and every gradient, bit for bit
    assert len(TIER_STAGE_SHAPES) == 7
    rng = np.random.default_rng(batch)
    # 8 input channels: on a one-cell grid einsum would sum them in
    # another order, which 3 channels do not show
    cases = [((8, h, wd), 4, scale, kernel, True)
             for scale in (1, 2, 3, 4) for kernel in (1, 3, 5)
             for h, wd in ((1, 1), (1, 6), (5, 1), (3, 4))]
    cases += [(shape, cout, 2, 3, bias) for shape, cout in TIER_STAGE_SHAPES
              for bias in (True, False)]
    for (cin, h, wd), cout, scale, kernel, bias in cases:
        x = rng.standard_normal((batch, cin, h, wd)).astype(dtype)
        w = (rng.standard_normal((cout, cin, kernel, kernel))
             / 3.0).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype) if bias else None
        g = rng.standard_normal((batch, cout, h * scale,
                                 wd * scale)).astype(dtype)
        got = _conv_and_grads(x, w, b, g, scale, two_ops=False)
        want = _conv_and_grads(x, w, b, g, scale, two_ops=True)
        for a, e in zip(got, want):
            assert a.dtype == e.dtype and a.shape == e.shape
            assert a.tobytes() == e.tobytes(), (x.shape, w.shape, scale)


def test_conv2d_rejects_upsample_below_one():
    with pytest.raises(ShapeError, match="upsample factor 0"):
        ops.conv2d(Tensor(np.ones((1, 2, 3, 3))),
                   Tensor(np.ones((2, 2, 3, 3))), scale=0)


@pytest.mark.parametrize("op_name", ["gelu", "sigmoid", "exp"])
def test_elementwise_gradients_match_fd(op_name):
    rng = np.random.default_rng(2)
    fn = getattr(ops, op_name)
    x = Tensor(rng.uniform(-2, 2, size=12), requires_grad=True)

    def run():
        with Tape() as tape:
            loss = sum_all(fn(x))
        return loss, tape

    loss, tape = run()
    tape.backward(loss)
    analytic = x.grad.copy()
    numeric = fd_gradient(lambda: run()[0].item(), x.data)
    assert rel_error(analytic, numeric) < 1e-7


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_ops_equal_their_pieces(n, dtype):
    # GELU's float64 work and gauss_mass's kernels run block by block on
    # more than a block: forward and backward give the bits of the same
    # op on pieces within one block, on inputs tiling the golden grid
    x = golden_grid()
    g = np.random.default_rng(n).standard_normal(n).astype(dtype)
    with np.errstate(over="ignore"):  # beyond float32's range: inf
        cases = [(ops.gelu, tiled(x, n).astype(dtype)),
                 (gauss_mass,
                  tiled(np.concatenate([x, x - 1.0]), n).astype(dtype),
                  tiled(np.concatenate([x[::-1], x + 1.0]), n).astype(dtype))]
    for op, *inputs in cases:
        with np.errstate(invalid="ignore"):  # -inf * 0 is NaN
            got = op_and_grads(op, g, *inputs)
            want = [np.concatenate(parts) for parts in zip(*(
                op_and_grads(op, g[piece], *(a[piece] for a in inputs))
                for piece in pieces(n)))]
        assert len(got) == len(inputs) + 1
        for a, e in zip(got, want):
            assert a.dtype == dtype and a.shape == (n,), op.__name__
            assert a.tobytes() == e.tobytes(), op.__name__


def _gelu_whole(x):
    """GELU's output and slope computed on the whole of ``x`` at once, in
    float64, each cast to ``x``'s dtype: ``x * cdf`` and
    ``cdf + x * pdf``, with ``cdf = (erf(x / sqrt 2) + 1) / 2``."""
    x64 = x.astype(np.float64)
    cdf = detmath.erf(x64 * 0.7071067811865476)
    cdf += 1.0
    cdf *= 0.5
    slope = detmath.norm_pdf(x64)
    slope *= x64
    slope += cdf
    return (x64 * cdf).astype(x.dtype), slope.astype(x.dtype)


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_with_and_without_tape_gives_the_whole_input_bits(n, dtype):
    # block by block, with the slope kept under a tape or nothing kept
    # without one, GELU gives the bits of its math on the whole input
    with np.errstate(over="ignore"):  # beyond float32's range: inf
        x = tiled(golden_grid(), n).astype(dtype)
    g = np.random.default_rng(n).standard_normal(n).astype(dtype)
    with np.errstate(invalid="ignore"):  # -inf * 0 is NaN
        want, slope = _gelu_whole(x)
        want_grad = g * slope
        with Tape() as tape:
            untaped = ops.gelu(Tensor(x)).data
        out, grad = op_and_grads(ops.gelu, g, x)
    assert len(tape) == 0
    for got, expected in ((untaped, want), (out, want), (grad, want_grad)):
        assert got.dtype == dtype and got.shape == (n,)
        assert got.tobytes() == expected.tobytes()


def test_div_and_broadcast_gradients():
    rng = np.random.default_rng(3)
    a = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
    s = Tensor(1.7, requires_grad=True, dtype=np.float64)

    def run():
        with Tape() as tape:
            loss = ops.mean_square(ops.div(a, s))
        return loss, tape

    loss, tape = run()
    tape.backward(loss)
    for tensor in (a, s):
        analytic = np.asarray(tensor.grad).copy()
        tensor.grad = None
        numeric = fd_gradient(lambda: run()[0].item(),
                              tensor.data.reshape(tensor.data.shape))
        assert rel_error(analytic, numeric) < 1e-7


def _leaf_gradients_match_fd(leaves, loss_fn, tol=1e-7):
    def run():
        with Tape() as tape:
            loss = loss_fn()
        return loss, tape

    loss, tape = run()
    tape.backward(loss)
    for tensor in leaves:
        analytic = np.asarray(tensor.grad).copy()
        tensor.grad = None
        numeric = fd_gradient(lambda: run()[0].item(), tensor.data)
        assert analytic.shape == tensor.shape
        assert rel_error(analytic, numeric) < tol


def test_concat_flat_forward_and_gradient():
    rng = np.random.default_rng(4)
    parts = [Tensor(rng.standard_normal(shape), requires_grad=True)
             for shape in ((2, 3), (1,), (4, 1), (2, 1, 2))]
    joined = concat_flat(parts)
    assert np.array_equal(joined.data, np.concatenate(
        [p.data.reshape(-1) for p in parts]))
    w = ops.constant(rng.uniform(0.5, 2.0, joined.shape))
    _leaf_gradients_match_fd(
        parts, lambda: ops.mean_square(ops.mul(concat_flat(parts), w)))
    with pytest.raises(ShapeError):
        concat_flat([])


def test_split_flat_views_one_node_and_gradient():
    rng = np.random.default_rng(6)
    shapes = [(2, 3), (), (1,), (4, 1), (2, 1, 2)]
    x = Tensor(rng.standard_normal(16), requires_grad=True)
    with Tape() as tape:
        pieces = ops.split_flat(x, shapes)
    assert len(tape) == 1
    assert [p.shape for p in pieces] == shapes
    assert all(np.shares_memory(p.data, x.data) for p in pieces)
    assert np.array_equal(
        np.concatenate([p.data.reshape(-1) for p in pieces]), x.data)
    w = ops.constant(rng.uniform(0.5, 2.0, (4, 1)))

    def loss():
        # piece 3 enters twice and piece 2 not at all (zero gradient)
        a, b, _, d, e = ops.split_flat(x, shapes)
        return ops.add(ops.add(ops.mean_square(a), ops.mul(b, 3.0)),
                       ops.add(sum_all(ops.mul(d, w)),
                               ops.mean_square(ops.add(d, sum_all(
                                   e)))))

    _leaf_gradients_match_fd([x], loss)
    with Tape() as tape:
        out = loss()
    tape.backward(out)
    assert x.grad[7] == 0.0
    with pytest.raises(ShapeError):
        ops.split_flat(x, [(3, 5)])
    with pytest.raises(ShapeError):
        ops.split_flat(ops.reshape(x, (4, 4)), [(4, 4)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_broadcast_segments_reduces_each_segment_as_broadcasting(dtype):
    # the gradient of each element is its segment reduced in the segment's
    # own shape, as broadcasting a scalar over that shape reduces it
    rng = np.random.default_rng(7)
    shapes = [(5, 3, 3, 3), (), (1,), (37, 11), (2, 1, 3), (0,), (200,)]
    x = Tensor(rng.standard_normal(len(shapes)), requires_grad=True,
               dtype=dtype)
    spread = ops.broadcast_segments(x, shapes)
    assert spread.dtype == dtype
    assert np.array_equal(spread.data, np.concatenate(
        [np.broadcast_to(v, shape).reshape(-1)
         for v, shape in zip(x.data, shapes)]))
    g = rng.standard_normal(spread.size).astype(dtype) * 10.0
    with Tape() as tape:
        loss = sum_all(ops.mul(ops.broadcast_segments(x, shapes),
                                   ops.constant(g)))
    tape.backward(loss)
    start, want = 0, []
    for shape in shapes:
        n = int(np.prod(shape))
        want.append(ops._unbroadcast(g[start:start + n].reshape(shape), ()))
        start += n
    assert x.grad.dtype == dtype
    assert x.grad.tobytes() == np.array(want, dtype=dtype).tobytes()
    with pytest.raises(ShapeError):
        ops.broadcast_segments(x, shapes[1:])


def test_ste_round_forward_and_gradient():
    x = Tensor(np.array([0.6, -0.5, 0.4, 2.5]), requires_grad=True,
               dtype=np.float64)
    with Tape() as tape:
        out = ops.ste_round(x)
        loss = sum_all(out)
    assert np.array_equal(out.data, [1.0, -1.0, 0.0, 3.0])
    tape.backward(loss)
    assert np.array_equal(x.grad, np.ones(4))  # identity pass-through


def test_tape_rejects_double_backward():
    x = Tensor(1.0, requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = ops.mul(x, x)
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_tape_rejects_non_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        out = ops.mul(x, x)
    with pytest.raises(TapeError):
        tape.backward(out)


def test_tape_rejects_foreign_loss():
    x = Tensor(1.0, requires_grad=True, dtype=np.float64)
    with Tape():
        ops.mul(x, x)
    with Tape() as other:
        pass
    with pytest.raises(TapeError):
        other.backward(ops.mul(x, x))


def test_no_tape_means_no_recording():
    x = Tensor(2.0, requires_grad=True, dtype=np.float64)
    out = ops.mul(x, x)  # inference mode
    assert out.data == 4.0
    assert x.grad is None


def test_gradient_accumulates_across_shared_use():
    x = Tensor(2.0, requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = ops.add(ops.mul(x, x), ops.mul(x, ops.constant(3.0)))
    tape.backward(loss)
    assert x.grad == pytest.approx(7.0)  # 2x + 3
