"""ParamVector layout and serialization contracts."""

import numpy as np
import pytest

from clipcodec.errors import LayoutError
from clipcodec.params import ParamVector
from clipcodec.tensor import Tensor


def _pv():
    return ParamVector(
        [("a.weight", (2, 3)), ("a.bias", (2,))],
        Tensor(np.array([0, 1, 2, 3, 4, 5, 1.0, -2.0], dtype=np.float32)))


def test_total_count_and_order():
    pv = _pv()
    assert pv.flat.size == 8
    assert pv.names == ("a.weight", "a.bias")
    assert np.array_equal(pv["a.weight"].data,
                          np.arange(6, dtype=np.float32).reshape(2, 3))


def test_duplicate_names_rejected():
    with pytest.raises(LayoutError):
        ParamVector([("x", (1,)), ("x", (1,))], Tensor(np.zeros(2)))


def test_layout_mismatch_names_offending_segment():
    pv = _pv()
    other = ParamVector([("a.weight", (2, 3)), ("a.bias", (3,))],  # wrong
                        Tensor(np.zeros(9, dtype=np.float32)))
    with pytest.raises(LayoutError, match="a.bias"):
        pv.check_same_layout(other)


def test_serialize_round_trip_is_identical():
    pv = _pv()
    raw = pv.to_bytes()
    assert len(raw) == 4 * pv.flat.size
    back = np.frombuffer(raw, dtype="<f4")
    assert np.array_equal(back, np.concatenate(
        [pv[name].data.reshape(-1) for name in pv.names]))


def test_clone_is_deep():
    pv = _pv()
    dup = pv.clone()
    dup["a.bias"].data[0] = 99.0
    assert pv["a.bias"].data[0] == 1.0


def test_flat_vector_must_cover_the_layout():
    with pytest.raises(LayoutError, match="7 parameters"):
        ParamVector([("w", (2, 3)), ("b", (1,))],
                    Tensor(np.zeros(8, dtype=np.float32)))


def test_segments_are_views_and_spread_repeats_per_segment():
    pv = _pv()
    pv["a.bias"].data[1] = 5.0
    assert pv.flat.data[7] == 5.0
    assert [part.tolist() for part in pv.split(pv.flat.data)] == \
        [[0, 1, 2, 3, 4, 5], [1.0, 5.0]]
    spread = pv.spread([0.5, 2.0])
    assert spread.dtype == np.float32
    assert spread.tolist() == [0.5] * 6 + [2.0] * 2
    for wrong in ([0.5], [0.5, 2.0, 1.0]):  # one value per segment
        with pytest.raises(LayoutError, match=f"{len(wrong)} values for 2"):
            pv.spread(wrong)
