"""Working sets per model group: the codec's memory does not grow with the
frame count beyond the frames it is asked to hold, and a large tensor's
float64 math holds a few blocks of temporaries beside its outputs."""

import gc
import tracemalloc

import numpy as np
import pytest

from clipcodec import detmath, ops, pipeline
from clipcodec.backbone import param_layout
from clipcodec.bitstream import BitstreamReader
from clipcodec.cli import main
from clipcodec.pipeline import TrainConfig, decode_video, encode_video, \
    partition
from clipcodec.presets import nerv_lite_preset
from clipcodec.tensor import Tensor
from clipcodec.video import synth_video
from conftest import op_and_grads

# tiny@32, clips of 5 frames in groups of 2, one epoch per model
CONFIG = nerv_lite_preset(32, 32, "tiny")
CFG = TrainConfig(epochs_i=1, epochs_p=1, seed=0)
# LONG makes 16 groups and ODD 15, the last a window of its own
SHORT, LONG, ODD = 20, 160, 150


def _video(frames):
    return synth_video("moving-blob", 32, 32, frames, velocity=0.25, seed=0)


def _traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees while ``fn`` runs, after one warm-up.

    CPython keeps freed tuples, lists, dicts and floats on free lists,
    and an object taken from one is no allocation tracemalloc sees, while
    one freed onto it while tracing stays counted; so the peak depends
    on how full the lists are, that is, on what ran before.  A full
    collection empties them, and the warm-up refills them with ``fn``'s
    own frees, so that the peak is ``fn``'s alone.
    """
    gc.collect()
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    """frames -> (stream path, stream bytes) for the short, long and odd
    video."""
    path = tmp_path_factory.mktemp("memory")
    out = {}
    for frames in (SHORT, LONG, ODD):
        data = encode_video(_video(frames), partition(frames, 5, 2), CONFIG,
                            CFG).data
        (path / f"{frames}.bits").write_bytes(data)
        out[frames] = path / f"{frames}.bits", data
    return out


def test_encode_peak_flat_in_frame_count():
    # each group is scored as it is rendered and only its frames' squared
    # errors are kept, so 8x the frames is not 8x the peak (2.43 MB
    # against 2.28 MB on numpy 2.4, CPython 3.11)
    def peak(frames):
        video = _video(frames)
        return _traced_peak(lambda: encode_video(
            video, partition(frames, 5, 2), CONFIG, CFG))

    assert peak(LONG) <= 1.1 * peak(SHORT)


def test_cli_decode_peak_flat_in_frame_count(streams):
    # the CLI writes window by window, two groups at most, so 8x the
    # frames is not 8x the peak (0.83 MB against 0.79 MB on numpy 2.4,
    # CPython 3.11), an odd group count included
    def peak(frames):
        bits = streams[frames][0]
        return _traced_peak(lambda: main(["decode", str(bits),
                                          str(bits.with_suffix(".rgb"))]))

    short = peak(SHORT)
    assert peak(LONG) <= 1.1 * short
    assert peak(ODD) <= 1.1 * short


def test_decode_video_peak_grows_by_its_output_only(streams):
    # one window's parameters and frames are alive at a time; only the
    # returned video, and the header's record of each model, grow with
    # the frame count, on one CPU or two
    def peak(frames, fn):
        data = streams[frames][1]
        return _traced_peak(lambda: fn(data))

    output = _video(LONG).frames.nbytes
    header = (peak(LONG, BitstreamReader.from_bytes)
              - peak(SHORT, BitstreamReader.from_bytes))
    assert peak(LONG, decode_video) <= (peak(SHORT, decode_video) + output
                                        + header)


# one 12-channel 256x256 stage
STAGE = 12 * 256 * 256
BLOCK = detmath._BLOCK_ELEMENTS


def test_gelu_forward_and_backward_peak_is_its_outputs():
    # the float32 output, the slope the backward pass keeps and the
    # gradient, and temporaries of a few blocks: about 12 bytes per
    # element (keeping the float64 cdf instead of the slope took 20)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(STAGE).astype(np.float32)
    g = rng.standard_normal(STAGE).astype(np.float32)
    peak = _traced_peak(lambda: op_and_grads(ops.gelu, g, x))
    assert peak <= 14 * STAGE


def test_gelu_without_a_tape_peak_is_its_output():
    # a render keeps nothing for a backward pass: the float32 output and
    # temporaries of a few blocks, about 5.4 bytes per element (keeping
    # the float64 cdf took 12)
    x = Tensor(np.random.default_rng(0).standard_normal(STAGE)
               .astype(np.float32))
    peak = _traced_peak(lambda: ops.gelu(x))
    assert peak <= 6 * STAGE


def test_norm_cdf_diff_peak_is_its_output():
    # the float64 mass and temporaries of a few blocks: about 10 bytes
    # per element
    r = np.random.default_rng(1).standard_normal(STAGE) * 2.0
    lo, hi = r - 0.5, r + 0.5
    peak = _traced_peak(lambda: detmath.norm_cdf_diff(lo, hi))
    assert peak <= 12 * STAGE


def test_score_rate_peak_is_its_gradient_and_a_block():
    # a small@64 step's rate term (38,103 values) keeps its float32
    # gradient and each value's nats over all values, 8 bytes each, and
    # works on one block at a time: a few float32 arrays of a block and
    # one norm_cdf_diff call on a block (2.17 MB against a bound of
    # 2.29; the taped chain held 3.16 MB)
    sizes = [spec.count for spec in
             param_layout(nerv_lite_preset(64, 64, "small"))]
    n = sum(sizes)
    rng = np.random.default_rng(2)
    unit = (rng.standard_normal(n) * 3.0).astype(np.float32)
    noise = rng.uniform(-0.5, 0.5, n)
    lo = (rng.standard_normal(BLOCK) * 3.0).astype(np.float32)
    hi = lo + np.float32(0.5)
    block = _traced_peak(lambda: detmath.norm_cdf_diff(lo, hi))
    peak = _traced_peak(lambda: pipeline._score_rate(unit, noise, sizes))
    assert peak <= block + 8 * n + 8 * 4 * BLOCK
