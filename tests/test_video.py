"""Raw video I/O and synthetic sequence generation."""

import hashlib

import numpy as np
import pytest

from clipcodec import video
from clipcodec.errors import DataError
from clipcodec.video import (SYNTH_KINDS, RawVideo, denormalize, load_raw,
                             save_raw, synth_video)


def test_save_load_identity(tmp_path):
    vid = synth_video("static", 8, 6, 4, seed=1)
    path = tmp_path / "clip.rgb"
    save_raw(vid, path)
    back = load_raw(path, 8, 6)
    assert back.frame_count == 4
    assert np.array_equal(back.frames, vid.frames)


def test_frame_count_inferred_from_size(tmp_path):
    path = tmp_path / "x.rgb"
    path.write_bytes(bytes(3 * 4 * 4 * 7))
    assert load_raw(path, 4, 4).frame_count == 7


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.rgb"
    path.write_bytes(bytes(3 * 4 * 4 * 2 - 1))
    with pytest.raises(DataError, match="multiple"):
        load_raw(path, 4, 4)


def test_static_frames_identical():
    vid = synth_video("static", 16, 16, 5, seed=9)
    for frame in vid.frames[1:]:
        assert np.array_equal(frame, vid.frames[0])


def test_synth_deterministic():
    a = synth_video("moving-blob", 12, 12, 6, velocity=1.0, seed=4)
    b = synth_video("moving-blob", 12, 12, 6, velocity=1.0, seed=4)
    assert a.to_bytes() == b.to_bytes()


def test_different_seed_changes_content():
    a = synth_video("noise-texture-pan", 8, 8, 2, velocity=1.0, seed=0)
    b = synth_video("noise-texture-pan", 8, 8, 2, velocity=1.0, seed=1)
    assert a.to_bytes() != b.to_bytes()


@pytest.mark.parametrize("kind", ["moving-blob", "moving-rect",
                                  "noise-texture-pan"])
def test_integer_velocity_translates_exactly(kind):
    v = 2
    vid = synth_video(kind, 16, 16, 5, velocity=v, seed=3)
    for t in range(4):
        rolled = np.roll(vid.frames[t], v, axis=2)
        assert np.array_equal(rolled, vid.frames[t + 1]), f"frame {t}"


def test_zero_velocity_reduces_to_static():
    for kind in ("moving-blob", "moving-rect", "noise-texture-pan"):
        vid = synth_video(kind, 8, 8, 4, velocity=0.0, seed=2)
        for frame in vid.frames[1:]:
            assert np.array_equal(frame, vid.frames[0])


@pytest.mark.parametrize("kind", SYNTH_KINDS)
@pytest.mark.parametrize("velocity", [float("nan"), float("inf"),
                                      -float("inf")])
def test_non_finite_velocity_rejected(kind, velocity):
    with pytest.raises(DataError, match="finite velocity"):
        synth_video(kind, 8, 8, 2, velocity=velocity)


def test_unknown_kind_rejected():
    with pytest.raises(DataError, match="unknown synthetic kind"):
        synth_video("sparkles", 8, 8, 2)


def test_normalization_round_trip():
    rng = np.random.default_rng(0)
    frames = rng.integers(0, 256, (3, 3, 5, 7), dtype=np.uint8)
    vid = RawVideo(width=7, height=5, frames=frames)
    for dtype in (np.float32, np.float64):
        normalized = vid.normalized(dtype)
        assert normalized.dtype == dtype
        assert normalized.min() >= 0.0 and normalized.max() <= 1.0
        assert np.array_equal(denormalize(normalized), frames)


def test_denormalize_clamps():
    arr = np.array([[-0.2, 0.0, 0.5, 1.0, 1.4]])
    out = denormalize(arr)
    assert out.tolist() == [[0, 0, 128, 255, 255]]


def test_expected_byte_count():
    vid = synth_video("static", 32, 32, 60, seed=0)
    assert len(vid.to_bytes()) == 3 * 32 * 32 * 60


# ------------------------------------------------------------ golden bits
#
# sha256 of each kind's frame bytes per geometry: (width, height, frames,
# velocity, seed).  The first two are the benchmark's clips; then a
# non-square odd size at a fractional velocity, a negative velocity, one
# frame, and a frame count that leaves a partial last batch (34 + 3
# frames at 8,192 pixels per batch; 32x32x10 leaves 8 + 2).
_SYNTH_CASES = (
    (32, 32, 10, 1.0, 0),
    (64, 64, 20, 1.0, 5),
    (17, 9, 7, 0.37, 3),
    (96, 64, 5, -1.5, 4),
    (8, 8, 1, 1.0, 2),
    (20, 12, 37, 2.0, 6),
)


def _synth_digests():
    for kind in SYNTH_KINDS:
        for width, height, frames, velocity, seed in _SYNTH_CASES:
            vid = synth_video(kind, width, height, frames, velocity, seed)
            key = f"{kind} {width}x{height}x{frames} v={velocity}"
            yield key, hashlib.sha256(vid.to_bytes()).hexdigest()


GOLDEN_SYNTH_SHA256 = {
    "static 32x32x10 v=1.0":
        "9ba0e7053ba882146991a87fc9247f16cb8b3b1596a840049e5d48770f3af018",
    "static 64x64x20 v=1.0":
        "9805ef19999bc3e5e25994cd05a62a133d22dd094a3cd2b7cd394efd669af8be",
    "static 17x9x7 v=0.37":
        "6ff68c21f847dd7cfbc0ed01c4cb00648e0c3c48cd9a4542a2723dab09228fb7",
    "static 96x64x5 v=-1.5":
        "b0d10fe135c98d2b9e4238821b046b63e56356a5157f33a33609aa8d2ea38c13",
    "static 8x8x1 v=1.0":
        "3a6a0c5d34aa57bc41fee49965ec48de3d48ac1e001186136b17c1a3277a3590",
    "static 20x12x37 v=2.0":
        "da7e684bc75fd8058abb7fa3e03e74b1a55dfc5c5ea1375fc2d6da5de8836e55",
    "moving-blob 32x32x10 v=1.0":
        "e7fc4b99a94ecd2045e6b51c5128181ef06b531ac8678bd170c6aed548a9075e",
    "moving-blob 64x64x20 v=1.0":
        "7862a613b1cbeabddd241d4d6955157720aac4133b8f8bb61e2b823a9c69d4e4",
    "moving-blob 17x9x7 v=0.37":
        "6a79b15b41a1b575e2f992bbd996aafe2cdda0d411d51ce66350ea962d4ffd15",
    "moving-blob 96x64x5 v=-1.5":
        "fecafca069b6d76699f2e0566b9277d193fe7ebd23b8352b2c085061d426bb44",
    "moving-blob 8x8x1 v=1.0":
        "97e18d13a276a201e251453182a7e44fbbf832d8201b892e187f2722100aa12c",
    "moving-blob 20x12x37 v=2.0":
        "5c36751187e353add6802c894b9d21eb2b25042b7bc964caad556c1a371040a8",
    "moving-rect 32x32x10 v=1.0":
        "ac1e9909e137cf3f2c2f6774e0c0a08c25d8d0ab4b0bf04c38ea555546dead0c",
    "moving-rect 64x64x20 v=1.0":
        "40e3b6e0fccb9d62f2f15979eceba6f676dedfcb6449fadf1cd0a670da0f90b9",
    "moving-rect 17x9x7 v=0.37":
        "2b73b2cffcf870039a3e94a414aad3557ad5a8f0abeb2d629980d4feb85414a1",
    "moving-rect 96x64x5 v=-1.5":
        "0b244447d8b3f30283f4490a7d111a1e4cf18c7522acc580f82d5364a71d4ffe",
    "moving-rect 8x8x1 v=1.0":
        "553bbca478be5377cf5496cef046f14b4e61f8224dc1b08085b2c14ae6c19bb3",
    "moving-rect 20x12x37 v=2.0":
        "0c5f66272168c84660d53113637ab6c91a23443cce66db9dd8ef9c7725099340",
    "noise-texture-pan 32x32x10 v=1.0":
        "036c16617a26b9fcbb93e2e02a4f7fb261df9394f93dd6ce86acd7d34897bcf2",
    "noise-texture-pan 64x64x20 v=1.0":
        "8f23b4d8b600cd632bb0bb73416a14c3481365ab32b3558d42fef83f11dc9037",
    "noise-texture-pan 17x9x7 v=0.37":
        "cb4ccc66109c4300d09e98f9b0187f83df891caee14120e7b0c91248395b1f87",
    "noise-texture-pan 96x64x5 v=-1.5":
        "d6dfb363bd5df1e0aa4b139bacd668559b4467252dfce2f25cdffb25dd1fda12",
    "noise-texture-pan 8x8x1 v=1.0":
        "f0624aef977e03300b1bdb35e07185a526a7d148499318c5c50b4a5c4ecc8bab",
    "noise-texture-pan 20x12x37 v=2.0":
        "f2247b08fdddc33212da38feafd634978fc4963926aed8cb8308550e5b782d5a",
}


def test_synth_matches_golden_hashes():
    got = dict(_synth_digests())
    assert set(got) == set(GOLDEN_SYNTH_SHA256)
    for key, digest in got.items():
        assert digest == GOLDEN_SYNTH_SHA256[key], key


@pytest.mark.parametrize("budget", (1, 10**9), ids=("one-frame", "whole-clip"))
def test_synth_does_not_depend_on_batch_budget(monkeypatch, budget):
    monkeypatch.setattr(video, "_BATCH_ELEMENTS", budget)
    test_synth_matches_golden_hashes()
