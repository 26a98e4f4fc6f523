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
# value, a new NaN) changes a hash.  Re-pin only on purpose, with a
# bitstream version bump.

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
        rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-320, 308, 1000),
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


GOLDEN_KERNEL_SHA256 = {
    "exp": "691435ac018dd79174b51e7c5957c9031367aab28893d70655e4cab5c9be6d12",
    "log": "7bc794b1c82ddedcad7f3aaecf81880d18953b7cd0bfcc2a216e1b6c31f5d096",
    "erf": "549b2ef43858156ccb75b39919c60f67416c80f121d165380ea26823d313459c",
    "erfc": "ebd98080e066a6ff21d00b2453341a8ab7fa59c01ae441b6c54958609491bf50",
    "norm_cdf":
        "964a5a96d018b23c7de3d69359f309bc72cebbabc717625e5bbb804db76dd516",
    "norm_pdf":
        "c6a559e1ede3fa92732f094a0f72925cf408a6f1f02cc3f75da948c73e0c0d90",
    "norm_cdf_diff":
        "f80e6e81ebc12177b14415c6d562fa5559e114f8b289a7a5b34135c8d58e6ef1",
    "sigmoid":
        "0ba76611a3ab3ed7487083903c0a09a5d2a4ed0a037b78e67bd010cc822182bc",
}


def test_kernels_match_golden_hashes():
    got = dict(_golden_outputs())
    assert set(got) == set(GOLDEN_KERNEL_SHA256)
    for name, out in got.items():
        assert _digest(out) == GOLDEN_KERNEL_SHA256[name], name


_SCALAR_KERNELS = (detmath.exp, detmath.log, detmath.erf, detmath.erfc,
                   detmath.norm_cdf, detmath.norm_pdf, detmath.sigmoid)


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
