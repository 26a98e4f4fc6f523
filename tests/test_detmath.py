"""Deterministic math kernels vs libm/scipy oracles."""

import hashlib
import math

import numpy as np
import pytest
from scipy.stats import norm

from clipcodec import detmath


def test_exp_matches_libm():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(-700, 700, 3000),
                        rng.uniform(-2, 2, 3000),
                        [0.0, 1.0, -1.0, 709.0, -745.0]])
    ref = np.exp(x)
    rel = np.abs(detmath.exp(x) - ref) / np.maximum(ref, 1e-300)
    assert rel.max() < 1e-14


def test_exp_edges():
    assert detmath.exp(800.0) == np.inf
    assert detmath.exp(-800.0) == 0.0
    assert np.isnan(detmath.exp(np.nan))


def test_log_matches_libm():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.uniform(1e-12, 1e12, 3000),
                        rng.uniform(0.5, 2.0, 3000), [1.0]])
    ref = np.log(x)
    err = np.abs(detmath.log(x) - ref) / np.maximum(np.abs(ref), 1.0)
    assert err.max() < 1e-14
    assert detmath.log(0.0) == -np.inf
    assert np.isnan(detmath.log(-1.0))


def test_trig_matches_libm():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.uniform(-1e4, 1e4, 4000),
                        rng.uniform(-np.pi, np.pi, 2000),
                        [0.0, np.pi / 2, np.pi, 2 ** 8 * np.pi]])
    assert np.abs(detmath.sin(x) - np.sin(x)).max() < 1e-12
    assert np.abs(detmath.cos(x) - np.cos(x)).max() < 1e-12


def test_erf_matches_libm():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-6, 6, 4000),
                        [0.0, 0.46875, -0.46875, 4.0, -4.0, 10.0, 27.0]])
    ref = np.array([math.erf(v) for v in x])
    assert np.abs(detmath.erf(x) - ref).max() < 5e-15


def test_erfc_relative_accuracy_in_tail():
    x = np.linspace(0.5, 25.0, 500)
    ref = np.array([math.erfc(v) for v in x])
    rel = np.abs(detmath.erfc(x) - ref) / ref
    assert rel.max() < 1e-12


def test_norm_cdf_vs_scipy():
    rng = np.random.default_rng(4)
    z = rng.uniform(-8, 8, 3000)
    rel = np.abs(detmath.norm_cdf(z) - norm.cdf(z)) \
        / np.maximum(norm.cdf(z), 1e-300)
    assert rel.max() < 1e-12


def test_norm_cdf_diff_reflection():
    # mass must be identical for mirrored intervals and never negative
    lo, hi = 3.0, 4.5
    a = detmath.norm_cdf_diff(lo, hi)
    b = detmath.norm_cdf_diff(-hi, -lo)
    assert a == b
    assert detmath.norm_cdf_diff(5.0, 5.0) == 0.0


def test_symbol_zero_mass_bits():
    # frozen oracle: -log2(Phi(0.5) - Phi(-0.5)) computed with scipy
    oracle = -math.log2(norm.cdf(0.5) - norm.cdf(-0.5))
    ours = float(-detmath.log2(detmath.norm_cdf_diff(-0.5, 0.5)))
    assert oracle == pytest.approx(1.3848665342909896, abs=1e-12)
    assert ours == pytest.approx(oracle, abs=1e-12)


def test_sigmoid_stable_both_tails():
    assert detmath.sigmoid(0.0) == 0.5
    assert detmath.sigmoid(50.0) == pytest.approx(1.0)
    assert detmath.sigmoid(-50.0) == pytest.approx(1.928749847963918e-22,
                                                   rel=1e-12)


def test_round_half_away():
    x = np.array([0.5, -0.5, 1.5, -1.5, 0.49999, -0.49999, 2.5, 0.6, -1.3])
    expect = np.array([1.0, -1.0, 2.0, -2.0, 0.0, -0.0, 3.0, 1.0, -1.0])
    assert np.array_equal(detmath.round_half_away(x), expect)


def test_kernels_are_reproducible():
    # identical inputs -> identical bits, twice in one process
    rng = np.random.default_rng(5)
    x = rng.uniform(-30, 30, 1000)
    for fn in (detmath.exp, detmath.sin, detmath.cos, detmath.erf,
               detmath.erfc, detmath.sigmoid):
        a, b = fn(x), fn(x)
        assert np.array_equal(a, b)
    y = rng.uniform(1e-6, 1e6, 1000)
    assert np.array_equal(detmath.log(y), detmath.log(y))


# ------------------------------------------------------------ golden bits
#
# sha256 of each kernel's float64 output bytes on a fixed grid.  The
# kernels are the codec's interoperability contract: any change in one
# output bit (a reordered operation, a different branch for an edge
# value, a new NaN) changes a hash.  A kernel change re-pins them only on
# purpose, with a bitstream version bump.

_EXP_EDGES = (709.782712893384, -745.133219101941)
_ERF_EDGES = (0.46875, 4.0, 26.543)


def _around(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf),
                           np.nextafter(values, -np.inf)])


def edge_values() -> np.ndarray:
    """Branch edges (also as ``norm_cdf`` arguments, scaled by sqrt 2),
    exp thresholds, the values either side of each, and specials."""
    tiny = np.finfo(np.float64).tiny
    edges = np.array(_ERF_EDGES + _EXP_EDGES)
    edges = np.concatenate([edges, -edges, edges * math.sqrt(2.0),
                            -edges * math.sqrt(2.0), [0.5, -0.5, 1.0]])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                        -5e-324, tiny, -tiny, tiny / 2, -tiny / 2,
                        1e308, -1e308, 1e-300, -1e-300])
    return np.concatenate([_around(edges), special])


def golden_grid() -> np.ndarray:
    rng = np.random.default_rng(20250304)
    wide = np.concatenate([
        rng.standard_normal(2000),
        rng.uniform(-8.0, 8.0, 2000),
        rng.uniform(-30.0, 30.0, 1000),
        rng.uniform(-800.0, 800.0, 1000),
        # every magnitude from subnormal to near-max, built with exact
        # operations: np.power's SIMD loops are not correctly rounded and
        # change with the dispatch level, np.ldexp and a sign flip do not
        rng.choice([-1.0, 1.0], 1000) * np.ldexp(rng.uniform(1.0, 2.0, 1000),
                                                 rng.integers(-1074, 1024,
                                                              1000)),
    ])
    return np.concatenate([edge_values(), wide])


def _digest(out) -> str:
    out = np.asarray(out)
    assert out.dtype == np.float64
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


def _golden_outputs():
    x = golden_grid()
    pos = np.abs(x)
    yield "exp", detmath.exp(x)
    yield "log", detmath.log(np.concatenate([x, pos]))
    yield "erf", detmath.erf(x)
    yield "erfc", detmath.erfc(x)
    yield "norm_cdf", detmath.norm_cdf(x)
    yield "norm_pdf", detmath.norm_pdf(x)
    yield "norm_cdf_diff", detmath.norm_cdf_diff(
        np.concatenate([x, x - 1.0, x]),
        np.concatenate([x[::-1], x + 1.0, x]))
    yield "sigmoid", detmath.sigmoid(x)
    yield "sin", detmath.sin(x)
    yield "cos", detmath.cos(x)


GOLDEN_KERNEL_SHA256 = {
    "exp": "0251deed10ba7dffbe7faf09e851a3d6d5eba65d3bd58997e762c2d670fdda91",
    "log": "2b8c9da1ee624d6d9a6465ff3c798dfac9fc700bfa66a13eccd2474b0bf5fb3e",
    "erf": "691945399d1ecc969dd153d4433539e7b8569faefc728acb59f34cacc9726b0a",
    "erfc": "b3cff55f6bc56003302991c56e75e53354a61c7f552b817c6fd33a442cacf361",
    "norm_cdf":
        "e9f04b1e14e61affb22d6fd1cc499e61637008e147fd1cc09ac854cba85c06ac",
    "norm_pdf":
        "0202c72955846f923701d2189994b6f068bc2f66b2e3828f45150dedfb13b04d",
    "norm_cdf_diff":
        "18ed74fa4070c95c8617ff248392e929ee3213c847eeee80bdee1f125386a68a",
    "sigmoid":
        "69456720a9c73e256a374029ad953feca36c127a0f53330f10358ff1649ac6c8",
    "sin": "b2e84ec4d15d5a608e720b9b256580dc1ffe1f948bbe02420ac77e8174b35543",
    "cos": "89e2870fb21ba07b98f7e16c985e9be0ccfb2ee45e1895a5201ce13e2e6507e6",
}


def test_kernels_match_golden_hashes():
    got = dict(_golden_outputs())
    assert set(got) == set(GOLDEN_KERNEL_SHA256)
    for name, out in got.items():
        assert _digest(out) == GOLDEN_KERNEL_SHA256[name], name


_SCALAR_KERNELS = (detmath.exp, detmath.log, detmath.erf, detmath.erfc,
                   detmath.norm_cdf, detmath.norm_pdf, detmath.sigmoid,
                   detmath.sin, detmath.cos)


@pytest.mark.parametrize("fn", _SCALAR_KERNELS, ids=lambda f: f.__name__)
def test_kernels_are_shape_independent(fn):
    # a 0-d input, an empty input and any slice or reshape of the grid
    # give the same bits per element as the flat grid
    x = golden_grid()
    flat = fn(x)
    edges = edge_values().size
    picks = np.concatenate([np.arange(edges), np.arange(edges, x.size, 97)])
    for v, want in zip(x[picks], flat[picks]):
        got = fn(np.asarray(v))
        assert np.asarray(got).shape == ()
        assert np.asarray(got, dtype=np.float64).tobytes() == want.tobytes()
        assert np.asarray(fn(float(v))).tobytes() == want.tobytes()
    empty = fn(np.empty((0, 3)))
    assert np.asarray(empty).shape == (0, 3)
    n = x.size - x.size % 6
    assert fn(x[:n].reshape(2, 3, -1)).tobytes() == flat[:n].tobytes()
    assert fn(x[1::3]).tobytes() == flat[1::3].tobytes()


def test_norm_cdf_diff_is_shape_independent():
    x = golden_grid()
    flat = detmath.norm_cdf_diff(x, x[::-1])
    edges = edge_values().size
    for i in [*range(edges), *range(x.size - edges, x.size),
              *range(edges, x.size, 97)]:
        got = detmath.norm_cdf_diff(x[i], x[::-1][i])
        assert np.asarray(got).shape == ()
        assert np.asarray(got).tobytes() == flat[i].tobytes()
    assert detmath.norm_cdf_diff(np.empty(0), np.empty(0)).shape == (0,)


@pytest.mark.parametrize("fn", (detmath.erf, detmath.erfc),
                         ids=lambda f: f.__name__)
def test_erf_inputs_missing_a_region_keep_their_bits(fn):
    # an input with no element in the near, mid or far region, or in two
    # of them, gives each element the bits it has on the full grid
    x = golden_grid()
    full = fn(x)
    y = np.abs(x)
    regions = (y <= 0.46875, (y > 0.46875) & (y <= 4.0), y > 4.0)
    for keep in (*(~r for r in regions), *regions):
        assert fn(x[keep]).tobytes() == full[keep].tobytes()


# Each fast path below skips passes that the general path runs; an input
# that takes it gives each element the bits it has on the full grid.

def test_log_of_finite_positive_inputs_keeps_its_bits():
    # no zero, negative, inf or NaN element: no special-value fixups
    x = np.concatenate([golden_grid(), np.abs(golden_grid())])
    full = detmath.log(x)
    keep = (x > 0.0) & (x < np.inf)
    assert 0 < keep.sum() < x.size
    assert detmath.log(x[keep]).tobytes() == full[keep].tobytes()


def test_exp_of_in_range_inputs_keeps_its_bits():
    # no element outside [underflow, overflow] and no NaN: no fixups
    x = golden_grid()
    full = detmath.exp(x)
    keep = (x >= _EXP_EDGES[1]) & (x <= _EXP_EDGES[0])
    assert 0 < keep.sum() < x.size
    assert detmath.exp(x[keep]).tobytes() == full[keep].tobytes()


@pytest.mark.parametrize("fn", (detmath.erf, detmath.erfc),
                         ids=lambda f: f.__name__)
def test_erf_inputs_without_far_or_nan_keep_their_bits(fn):
    # every |x| <= 4 and no NaN: two routes, no far mask
    x = golden_grid()
    full = fn(x)
    keep = np.abs(x) <= 4.0
    assert 0 < keep.sum() < x.size
    assert fn(x[keep]).tobytes() == full[keep].tobytes()


def _norm_cdf_diff_by_select(lo, hi):
    """The reflection written as a select: where lo > -hi, (-hi, -lo]."""
    flip = lo > -hi
    a = np.where(flip, -hi, lo)
    b = np.where(flip, -lo, hi)
    return np.maximum(detmath.norm_cdf(b) - detmath.norm_cdf(a), 0.0)


def test_norm_cdf_diff_equals_the_select_form():
    # every pair of ends from the branch edges, +-0, +-inf and NaN
    ends = edge_values()
    lo, hi = (a.reshape(-1) for a in np.meshgrid(ends, ends))
    want = _norm_cdf_diff_by_select(lo, hi)
    assert detmath.norm_cdf_diff(lo, hi).tobytes() == want.tobytes()


@pytest.mark.parametrize("fn", (detmath.sin, detmath.cos),
                         ids=lambda f: f.__name__)
def test_trig_inputs_missing_a_quadrant_keep_their_bits(fn):
    # an input whose elements all take one kernel (one parity of the
    # quadrant q), or that lacks one quadrant, gives each element the
    # bits it has on the full grid
    x = golden_grid()
    full = fn(x)
    finite = np.isfinite(x)
    q = np.zeros(x.shape, dtype=np.int64)
    xc = np.clip(x[finite], -1.0e6, 1.0e6)
    q[finite] = np.rint(xc * (2.0 / math.pi)).astype(np.int64) & 3
    groups = [q % 2 == 0, q % 2 == 1] + [q != k for k in range(4)]
    for keep in groups:
        assert 0 < keep.sum() < x.size
        assert fn(x[keep]).tobytes() == full[keep].tobytes()


# Kernels of more than _BLOCK_ELEMENTS elements run block by block.  An
# input tiling the golden grid puts NaN, +-inf and every Cody region in
# every full block; each size gives the bits of the same call made on
# pieces of at most a block, which take the one-block path, cut where
# the blocks are not.

_BLOCK = detmath._BLOCK_ELEMENTS
BLOCK_SIZES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17)
_PIECE = 6007


def tiled(values, n: int) -> np.ndarray:
    """``values`` repeated end to end, cut to ``n`` elements."""
    return np.resize(np.asarray(values), n)


def pieces(n: int) -> list[slice]:
    """Consecutive slices of at most _PIECE elements covering ``n``."""
    assert _PIECE <= _BLOCK
    return [slice(i, i + _PIECE) for i in range(0, n, _PIECE)]


def by_pieces(fn, *arrays) -> np.ndarray:
    return np.concatenate([fn(*(a[piece] for a in arrays))
                           for piece in pieces(arrays[0].size)])


def _routed_inputs(n: int):
    x = golden_grid()
    yield "exp", detmath.exp, (tiled(x, n),)
    yield "log", detmath.log, (tiled(np.concatenate([x, np.abs(x)]), n),)
    for fn in (detmath.erf, detmath.erfc, detmath.norm_cdf,
               detmath.norm_pdf, detmath.sigmoid):
        yield fn.__name__, fn, (tiled(x, n),)
    yield "norm_cdf_diff", detmath.norm_cdf_diff, (
        tiled(np.concatenate([x, x - 1.0, x]), n),
        tiled(np.concatenate([x[::-1], x + 1.0, x]), n))


def test_tiled_blocks_hold_every_region():
    x = tiled(golden_grid(), 3 * _BLOCK)
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        y = np.abs(block)
        assert np.isnan(block).any()
        assert np.isposinf(block).any() and np.isneginf(block).any()
        assert (y <= 0.46875).any() and (y > 26.543).any()
        assert ((y > 0.46875) & (y <= 4.0)).any()
        assert ((y > 4.0) & (y <= 26.543)).any()


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_blocked_kernels_equal_their_pieces(n, dtype):
    for name, fn, args in _routed_inputs(n):
        with np.errstate(over="ignore"):  # beyond float32's range: inf
            args = [a.astype(dtype) for a in args]
        got = fn(*args)
        assert got.dtype == np.float64 and got.shape == (n,), name
        assert got.tobytes() == by_pieces(fn, *args).tobytes(), name


def test_blocked_kernels_keep_the_input_shape():
    # a strided 4-d view of three blocks and more, flattened in C order
    n = 2 * 3 * 96 * 96
    for name, fn, args in _routed_inputs(n):
        views = [a.reshape(2, 3, 96, 96).transpose(0, 1, 3, 2)
                 for a in args]
        got = fn(*views)
        assert got.shape == (2, 3, 96, 96), name
        flat = [np.ascontiguousarray(v).reshape(-1) for v in views]
        assert got.reshape(-1).tobytes() == fn(*flat).tobytes(), name
