"""PSNR and rate-curve comparison, with an independent integration oracle."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from clipcodec.errors import DataError
from clipcodec.metrics import (PSNR_CAP_DB, RDPoint, append_rd_row, bd_rate,
                               frame_mse, psnr, psnr_of_mse, read_rd_curve)
from clipcodec.video import RawVideo, synth_video


def _video_from(frames):
    return RawVideo(width=frames.shape[3], height=frames.shape[2],
                    frames=frames)


def test_identical_videos_hit_cap():
    vid = synth_video("static", 8, 8, 3, seed=0)
    result = psnr(vid, vid)
    assert np.all(np.isinf(result.per_frame))
    assert result.mean == PSNR_CAP_DB


def test_uniform_unit_mse_closed_form():
    a = np.zeros((2, 3, 4, 4), dtype=np.uint8)
    b = np.ones((2, 3, 4, 4), dtype=np.uint8)
    result = psnr(_video_from(a), _video_from(b))
    expect = 20 * math.log10(255.0)
    assert result.mean == pytest.approx(expect)
    assert expect == pytest.approx(48.1308, abs=1e-4)


def test_single_differing_frame_localized():
    frames = np.zeros((3, 3, 4, 4), dtype=np.uint8)
    test = frames.copy()
    test[1] += 5
    result = psnr(_video_from(frames), _video_from(test))
    assert np.isinf(result.per_frame[0]) and np.isinf(result.per_frame[2])
    assert np.isfinite(result.per_frame[1])


def test_psnr_symmetry():
    a = synth_video("moving-blob", 8, 8, 4, velocity=1, seed=1)
    b = synth_video("moving-blob", 8, 8, 4, velocity=1, seed=2)
    assert psnr(a, b).mean == psnr(b, a).mean


def test_frame_mse_is_the_float64_mean_and_exact_per_group():
    # every frame's value has the bits of the float64 mean over its own
    # frame, so scoring a video group by group and joining the values
    # gives the whole-video mean PSNR to the last bit
    rng = np.random.default_rng(3)
    a, b = (rng.integers(0, 256, (7, 3, 16, 16), dtype=np.uint8)
            for _ in range(2))
    diff = a.astype(np.float64) - b.astype(np.float64)
    whole = frame_mse(a, b)
    assert whole.tobytes() == np.mean(diff * diff, axis=(1, 2, 3)).tobytes()
    parts = np.concatenate([frame_mse(a[:3], b[:3]), frame_mse(a[3:], b[3:])])
    assert parts.tobytes() == whole.tobytes()
    assert psnr_of_mse(parts).mean == psnr(_video_from(a),
                                           _video_from(b)).mean


def test_psnr_rejects_dim_mismatch():
    a = synth_video("static", 8, 8, 3, seed=0)
    b = synth_video("static", 8, 4, 3, seed=0)
    with pytest.raises(DataError, match="mismatch"):
        psnr(a, b)


def _curve(bpps, quals):
    return [RDPoint(bpp=b, quality=q) for b, q in zip(bpps, quals)]


def test_bd_rate_identical_curves_zero():
    curve = _curve([0.1, 0.2, 0.4, 0.8], [30, 33, 36, 39])
    assert bd_rate(curve, curve) == 0.0


def test_bd_rate_halved_rate_is_minus_fifty():
    anchor = _curve([0.1, 0.2, 0.4, 0.8], [30, 33, 36, 39])
    test = _curve([0.05, 0.1, 0.2, 0.4], [30, 33, 36, 39])
    assert bd_rate(anchor, test) == pytest.approx(-50.0, abs=0.01)


def test_bd_rate_requires_overlap_and_enough_points():
    low = _curve([0.1, 0.2, 0.3, 0.4], [20, 21, 22, 23])
    high = _curve([0.1, 0.2, 0.3, 0.4], [30, 31, 32, 33])
    with pytest.raises(DataError, match="overlap"):
        bd_rate(low, high)
    with pytest.raises(DataError, match="at least 4"):
        bd_rate(low[:3], low)


def _bd_rate_oracle(anchor, test, grid=20001):
    """Dense-trapezoid integration of the same natural splines."""
    qa = np.array([p.quality for p in anchor])
    ra = np.log([p.bpp for p in anchor])
    qt = np.array([p.quality for p in test])
    rt = np.log([p.bpp for p in test])
    sa = CubicSpline(np.sort(qa), ra[np.argsort(qa)], bc_type="natural")
    st = CubicSpline(np.sort(qt), rt[np.argsort(qt)], bc_type="natural")
    lo = max(qa.min(), qt.min())
    hi = min(qa.max(), qt.max())
    qs = np.linspace(lo, hi, grid)
    avg = np.trapezoid(st(qs) - sa(qs), qs) / (hi - lo)
    return (math.exp(avg) - 1.0) * 100.0


def test_bd_rate_matches_dense_integration_oracle():
    rng = np.random.default_rng(7)
    for trial in range(50):
        n_a = int(rng.integers(4, 8))
        n_t = int(rng.integers(4, 8))
        qa = np.sort(rng.uniform(28, 44, n_a))
        qt = np.sort(rng.uniform(28, 44, n_t))
        while np.any(np.diff(qa) < 0.3) or np.any(np.diff(qt) < 0.3) \
                or min(qa.max(), qt.max()) - max(qa.min(), qt.min()) < 2.0:
            qa = np.sort(rng.uniform(28, 44, n_a))
            qt = np.sort(rng.uniform(28, 44, n_t))
        anchor = _curve(np.exp(rng.uniform(-3, 1, n_a)), qa)
        test = _curve(np.exp(rng.uniform(-3, 1, n_t)), qt)
        ours = bd_rate(anchor, test)
        oracle = _bd_rate_oracle(anchor, test)
        assert ours == pytest.approx(oracle, abs=0.1), f"trial {trial}"


def test_rd_csv_round_trip(tmp_path):
    path = tmp_path / "curve.csv"
    rows = [(0.1, 30.0), (0.2, 33.0), (0.4, 36.0), (0.8, 39.0)]
    for i, (bpp, q) in enumerate(rows):
        append_rd_row(path, "seq", 10, 3, 1e6, bpp, q, 1.0 + i)
    points = read_rd_curve(path)
    assert [(p.bpp, p.quality) for p in points] == rows
