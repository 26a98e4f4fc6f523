"""Working sets per model group: the codec's memory does not grow with the
frame count beyond the frames it is asked to hold."""

import concurrent.futures
import pickle
import tracemalloc

import pytest

from clipcodec.cli import main
from clipcodec.pipeline import TrainConfig, decode_video, encode_video, \
    partition
from clipcodec.presets import nerv_lite_preset
from clipcodec.video import synth_video

# tiny@32, clips of 5 frames in groups of 2, one epoch per model
CONFIG = nerv_lite_preset(32, 32, "tiny")
CFG = TrainConfig(epochs_i=1, epochs_p=1, seed=0)
SHORT, LONG = 20, 160


def _video(frames):
    return synth_video("moving-blob", 32, 32, frames, velocity=0.25, seed=0)


def _traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees while ``fn`` runs, after one warm-up."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    """frames -> (stream path, stream bytes) for the short and long video."""
    path = tmp_path_factory.mktemp("memory")
    out = {}
    for frames in (SHORT, LONG):
        data = encode_video(_video(frames), partition(frames, 5, 2), CONFIG,
                            CFG).data
        (path / f"{frames}.bits").write_bytes(data)
        out[frames] = path / f"{frames}.bits", data
    return out


def test_encode_peak_flat_in_frame_count():
    # each group is scored as it is rendered and only its frames' squared
    # errors are kept, so 8x the frames is not 8x the peak (2.35 MB
    # against 2.31 MB on numpy 2.4, CPython 3.11)
    def peak(frames):
        video = _video(frames)
        return _traced_peak(lambda: encode_video(
            video, partition(frames, 5, 2), CONFIG, CFG))

    assert peak(LONG) <= 1.1 * peak(SHORT)


def test_cli_decode_peak_flat_in_frame_count(streams):
    # the CLI writes group by group, so 8x the frames is not 8x the peak
    # (0.83 MB against 0.79 MB on numpy 2.4, CPython 3.11)
    def peak(frames):
        bits = streams[frames][0]
        return _traced_peak(lambda: main(["decode", str(bits),
                                          str(bits.with_suffix(".rgb"))]))

    assert peak(LONG) <= 1.1 * peak(SHORT)


def test_decode_video_peak_grows_by_its_output_only(streams):
    # one group's parameters and frames are alive at a time; only the
    # returned video grows with the frame count
    def peak(frames):
        data = streams[frames][1]
        return _traced_peak(lambda: decode_video(data))

    output = _video(LONG).frames.nbytes
    assert peak(LONG) <= peak(SHORT) + output


def test_jobs_tasks_carry_only_their_groups_frames(monkeypatch):
    # each task is pickled as a worker process would receive it; the
    # stand-in pool stops the encode there, so no process starts
    sizes = []

    class Pickled(Exception):
        pass

    class PicklingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            sizes.extend(len(pickle.dumps(task)) for task in tasks)
            raise Pickled

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        PicklingPool)
    video = _video(LONG)
    with pytest.raises(Pickled):
        encode_video(video, partition(LONG, 5, 2), CONFIG, CFG, jobs=2)
    assert len(sizes) == 16
    assert sum(sizes) <= 1.1 * video.frames.nbytes
