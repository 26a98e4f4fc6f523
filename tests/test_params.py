"""ParamVector layout and serialization contracts."""

import numpy as np
import pytest

from clipcodec.errors import LayoutError
from clipcodec.params import ParamVector
from clipcodec.tensor import Tensor


def _pv():
    return ParamVector([
        ("a.weight", Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))),
        ("a.bias", Tensor(np.array([1.0, -2.0], dtype=np.float32))),
    ])


def test_total_count_and_order():
    pv = _pv()
    assert pv.total_count == 8
    assert pv.names == ("a.weight", "a.bias")


def test_duplicate_names_rejected():
    with pytest.raises(LayoutError):
        ParamVector([("x", Tensor(np.zeros(1))), ("x", Tensor(np.zeros(1)))])


def test_layout_mismatch_names_offending_segment():
    pv = _pv()
    other = ParamVector([
        ("a.weight", Tensor(np.zeros((2, 3), dtype=np.float32))),
        ("a.bias", Tensor(np.zeros(3, dtype=np.float32))),  # wrong shape
    ])
    with pytest.raises(LayoutError, match="a.bias"):
        pv.check_same_layout(other)


def test_serialize_round_trip_is_identical():
    pv = _pv()
    raw = pv.to_bytes()
    assert len(raw) == 4 * pv.total_count
    back = np.frombuffer(raw, dtype="<f4")
    assert np.array_equal(back, np.concatenate(
        [pv[name].data.reshape(-1) for name in pv.names]))


def test_clone_is_deep():
    pv = _pv()
    dup = pv.clone()
    dup["a.bias"].data[0] = 99.0
    assert pv["a.bias"].data[0] == 1.0
