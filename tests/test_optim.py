"""Optimizer and learning-rate schedule contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clipcodec.errors import ConfigError, NumericError
from clipcodec.optim import adam_init, adam_step, lr_at
from clipcodec.params import ParamVector
from clipcodec.tensor import Tensor
from conftest import PerSegmentAdam


def _scalar_pv(value: float) -> ParamVector:
    return ParamVector([("w", Tensor(np.asarray(value, dtype=np.float64),
                                     requires_grad=True))])


def test_first_adam_step_closed_form():
    pv = _scalar_pv(0.0)
    state = adam_init(pv)
    pv["w"].grad = np.asarray(1.0)
    adam_step(pv, state, lr=1e-3)
    # bias-corrected first step is -lr/(1 + eps) for any gradient scale
    assert abs(float(pv["w"].data) - (-1e-3)) < 1e-8
    assert state.step == 1


def test_zero_gradient_leaves_parameters_unchanged():
    pv = _scalar_pv(0.25)
    state = adam_init(pv)
    pv["w"].grad = np.asarray(0.0)
    adam_step(pv, state, lr=1e-2)
    assert float(pv["w"].data) == 0.25


def test_missing_gradient_counts_as_zero():
    pv = _scalar_pv(1.5)
    state = adam_init(pv)
    adam_step(pv, state, lr=1e-2)
    assert float(pv["w"].data) == 1.5


def test_nonfinite_gradient_aborts_with_segment_name():
    pv = _scalar_pv(0.0)
    state = adam_init(pv)
    pv["w"].grad = np.asarray(np.nan)
    with pytest.raises(NumericError, match="'w'"):
        adam_step(pv, state, lr=1e-3)


def test_identical_runs_are_bit_identical():
    def run():
        rng = np.random.default_rng(9)
        pv = ParamVector([("w", Tensor(rng.standard_normal(16),
                                       requires_grad=True))])
        state = adam_init(pv)
        for _ in range(25):
            pv["w"].grad = rng.standard_normal(16)
            adam_step(pv, state, lr=3e-3)
            pv.clear_grads()
        return pv["w"].data.copy()

    assert np.array_equal(run(), run())


def test_flat_update_matches_per_segment_reference_bitwise():
    # mixed shapes with a 1-element and a 0-d segment; one segment has no
    # gradient on every third step
    shapes = ((5, 3, 3, 3), (1,), (), (37, 11), (200,))
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(12)
        init = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
        pv = ParamVector([(f"s{i}", Tensor(a.copy(), requires_grad=True))
                          for i, a in enumerate(init)])
        ref = pv.clone(requires_grad=True)
        state, ref_state = adam_init(pv), PerSegmentAdam(ref)
        for step in range(8):
            for i, shape in enumerate(shapes):
                if i == 3 and step % 3 == 0:
                    continue
                grad = (rng.standard_normal(shape) * 10.0 ** (i - 2)
                        ).astype(dtype)
                pv[f"s{i}"].grad = grad
                ref[f"s{i}"].grad = grad.copy()
            adam_step(pv, state, lr=3e-3 * (step + 1))
            ref_state.update(ref, lr=3e-3 * (step + 1))
            pv.clear_grads()
            ref.clear_grads()
        assert pv.to_bytes() == ref.to_bytes()
        for got, want in ((state.m, ref_state.m), (state.v, ref_state.v)):
            assert got.dtype == dtype
            assert got.tobytes() == np.concatenate(
                [a.reshape(-1) for a in want.values()]).tobytes()


def test_nonfinite_gradient_names_its_segment_among_many():
    pv = ParamVector([(name, Tensor(np.zeros(shape), requires_grad=True))
                      for name, shape in (("a", (3,)), ("b", (2, 2)),
                                          ("c", (4,)))])
    state = adam_init(pv)
    pv["a"].grad = np.ones(3)
    bad = np.ones((2, 2))
    bad[1, 0] = np.inf
    pv["b"].grad = bad
    pv["c"].grad = np.full(4, np.nan)
    with pytest.raises(NumericError, match="'b'"):
        adam_step(pv, state, lr=1e-3)
    assert not pv.flatten().any()


def test_lr_schedule_shape():
    base = 5e-3
    total = 102
    warm = 11  # ceil(0.1 * 102); decay span [11, 101] has even length
    assert lr_at(0, total, base) == 0.0
    assert lr_at(warm, total, base) == base  # peak at warmup end
    assert lr_at(total - 1, total, base) == pytest.approx(0.0, abs=1e-12)
    mid = warm + (total - 1 - warm) // 2  # midpoint of the decay span
    assert lr_at(mid, total, base) == pytest.approx(base / 2, rel=1e-9)


def test_lr_schedule_preconditions():
    with pytest.raises(ConfigError):
        lr_at(10, 10, 1e-3)
    with pytest.raises(ConfigError):
        lr_at(0, 10, 1e-3, warmup_frac=1.5)


@given(st.integers(min_value=2, max_value=500),
       st.floats(min_value=0.01, max_value=0.9))
def test_lr_bounded_and_warmup_monotone(total, warmup_frac):
    base = 2e-3
    values = [lr_at(e, total, base, warmup_frac) for e in range(total)]
    assert all(0.0 <= v <= base + 1e-15 for v in values)
    warm = min(math.ceil(warmup_frac * total), total - 1)
    ramp = values[:warm + 1]
    assert all(ramp[i] <= ramp[i + 1] + 1e-15 for i in range(len(ramp) - 1))
