"""Tensor engine: op contracts, tape semantics, gradient correctness."""

import numpy as np
import pytest

from clipcodec import ops
from clipcodec.errors import ShapeError, TapeError
from clipcodec.tensor import Tape, Tensor, precision
from conftest import fd_gradient, rel_error


def test_matmul_shape_contract():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 4)))
    assert ops.matmul(a, b).shape == (2, 4)
    with pytest.raises(ShapeError, match="matmul"):
        ops.matmul(a, Tensor(np.ones((2, 4))))


def test_pixel_shuffle_shape():
    r = 2
    x = Tensor(np.arange(1 * 4 * r * r * 3 * 5, dtype=np.float32)
               .reshape(1, 4 * r * r, 3, 5))
    out = ops.pixel_shuffle(x, r)
    assert out.shape == (1, 4, 6, 10)
    # channel-major sub-pixel placement
    assert out.data[0, 0, 0, 0] == x.data[0, 0, 0, 0]
    assert out.data[0, 0, 0, 1] == x.data[0, 1, 0, 0]
    assert out.data[0, 0, 1, 0] == x.data[0, 2, 0, 0]


def test_pixel_shuffle_rejects_bad_channels():
    with pytest.raises(ShapeError):
        ops.pixel_shuffle(Tensor(np.ones((1, 5, 2, 2))), 2)


def test_mean_square_zero():
    assert ops.mean_square(Tensor(np.zeros((3, 4)))).item() == 0.0


def test_upsample_nearest_values():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    out = ops.upsample_nearest(x, 2)
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
    with precision("f64"):
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
    with precision("f64"):
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


@pytest.mark.parametrize("op_name", ["gelu", "sin", "sigmoid", "exp"])
def test_elementwise_gradients_match_fd(op_name):
    rng = np.random.default_rng(2)
    fn = ops.OPS[op_name]
    with precision("f64"):
        x = Tensor(rng.uniform(-2, 2, size=12), requires_grad=True)

        def run():
            with Tape() as tape:
                loss = ops.sum_all(fn(x))
            return loss, tape

        loss, tape = run()
        tape.backward(loss)
        analytic = x.grad.copy()
        numeric = fd_gradient(lambda: run()[0].item(), x.data)
        assert rel_error(analytic, numeric) < 1e-7


def test_div_and_broadcast_gradients():
    rng = np.random.default_rng(3)
    with precision("f64"):
        a = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
        s = Tensor(1.7, requires_grad=True)

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
    with precision("f64"):
        parts = [Tensor(rng.standard_normal(shape), requires_grad=True)
                 for shape in ((2, 3), (1,), (4, 1), (2, 1, 2))]
        joined = ops.concat_flat(parts)
        assert np.array_equal(joined.data, np.concatenate(
            [p.data.reshape(-1) for p in parts]))
        w = ops.constant(rng.uniform(0.5, 2.0, joined.shape))
        _leaf_gradients_match_fd(
            parts, lambda: ops.mean_square(ops.mul(ops.concat_flat(parts),
                                                   w)))
    with pytest.raises(ShapeError):
        ops.concat_flat([])


def test_split_flat_views_one_node_and_gradient():
    rng = np.random.default_rng(6)
    shapes = [(2, 3), (), (1,), (4, 1), (2, 1, 2)]
    with precision("f64"):
        x = Tensor(rng.standard_normal(16), requires_grad=True)
        with Tape() as tape:
            pieces = ops.split_flat(x, shapes)
        assert len(tape) == 1
        assert [p.shape for p in pieces] == shapes
        assert all(np.shares_memory(p.data, x.data) for p in pieces)
        assert np.array_equal(ops.concat_flat(pieces).data, x.data)
        w = ops.constant(rng.uniform(0.5, 2.0, (4, 1)))

        def loss():
            # piece 3 enters twice and piece 2 not at all (zero gradient)
            a, b, _, d, e = ops.split_flat(x, shapes)
            return ops.add(ops.add(ops.mean_square(a), ops.mul(b, 3.0)),
                           ops.add(ops.sum_all(ops.mul(d, w)),
                                   ops.mean_square(ops.add(d, ops.sum_all(
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
        loss = ops.sum_all(ops.mul(ops.broadcast_segments(x, shapes),
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


def test_segment_sum_forward_and_gradient():
    rng = np.random.default_rng(5)
    sizes = [3, 0, 1, 6]
    with precision("f64"):
        x = Tensor(rng.standard_normal(10), requires_grad=True)
        sums = ops.segment_sum(x, sizes)
        assert np.array_equal(sums.data, [x.data[:3].sum(), 0.0, x.data[3],
                                          x.data[4:].sum()])
        w = ops.constant(rng.uniform(0.5, 2.0, len(sizes)))
        _leaf_gradients_match_fd(
            [x], lambda: ops.mean_square(ops.mul(ops.segment_sum(x, sizes),
                                                 w)))
        with pytest.raises(ShapeError):
            ops.segment_sum(x, [3, 6])
        with pytest.raises(ShapeError):
            ops.segment_sum(ops.reshape(x, (2, 5)), [5, 5])


def test_sum_ordered_adds_left_to_right_and_gradient():
    # each +1 vanishes next to 1e8 in float32; np.sum's pairwise partial
    # sums keep some of them, so the two orders differ
    x = Tensor(np.array([1e8] + [1.0] * 15, dtype=np.float32))
    chained = x.data[0]
    for v in x.data[1:]:
        chained = chained + v
    assert chained != np.sum(x.data)
    out = ops.sum_ordered(x)
    assert out.shape == () and out.dtype == np.float32
    assert out.data.tobytes() == np.float32(chained).tobytes()
    assert ops.sum_ordered(Tensor(np.zeros(0))).item() == 0.0
    rng = np.random.default_rng(6)
    with precision("f64"):
        y = Tensor(rng.standard_normal(7), requires_grad=True)
        w = ops.constant(rng.uniform(0.5, 2.0, 7))
        _leaf_gradients_match_fd(
            [y], lambda: ops.mean_square(ops.sum_ordered(ops.mul(y, w))))
        with pytest.raises(ShapeError):
            ops.sum_ordered(Tensor(np.ones((2, 2))))


def test_ste_round_forward_and_gradient():
    x = Tensor(np.array([0.6, -0.5, 0.4, 2.5]), requires_grad=True,
               dtype=np.float64)
    with Tape() as tape:
        out = ops.ste_round(x)
        loss = ops.sum_all(out)
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


def test_apply_dispatch_and_unknown_kind():
    out = ops.apply("add", Tensor(1.0), Tensor(2.0))
    assert out.item() == 3.0
    with pytest.raises(ShapeError, match="unknown op"):
        ops.apply("definitely-not-an-op", Tensor(1.0))
