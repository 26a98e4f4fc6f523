"""Workloads, timed loops and per-operation checks of the clipcodec benchmark.

Every workload encodes synthetic ``moving-blob`` video (velocity 1.0) with
the ``nerv_lite_preset`` backbone, lr 1e-2, lambda 1e6 and the default
epsilon schedule, in one process with ``jobs=1``.  A run uses CLIPS
videos made from the run's seed; clip ``j`` gets seed ``CLIPS*seed + j``
for both ``synth_video`` and ``TrainConfig.seed``.  See README.md for why
each workload exists and what each metric means.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import clipcodec.pipeline as pipeline
from clipcodec.bitstream import BitstreamReader
from clipcodec.metrics import psnr
from clipcodec.presets import DEFAULT_SCHEDULE, nerv_lite_preset
from clipcodec.video import synth_video

import tracing
from run import THREAD_VARS

GOP_SIZE = 5
GOM_SIZE = 2
LEARNING_RATE = 1e-2
LAMBDA = 1e6
VELOCITY = 1.0
# Videos per run.  bpp and psnr_db are their means: one video's rate and
# quality vary with its content by 10-20% from seed to seed, five cut
# that spread by about sqrt(5).
CLIPS = 5
# Share of the measuring window an encode workload spends encoding; it
# decodes its streams for the rest.
ENCODE_SHARE = 0.75
# Typical calibration_seconds() on the reference host (see README.md).
CALIBRATION_REFERENCE_S = 0.06
WARMUP_CALIBRATIONS = 10
SRC_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clipcodec"


@dataclass(frozen=True)
class Workload:
    name: str
    size: int           # square frame edge in pixels
    tier: str           # nerv_lite_preset tier
    frames: int
    epochs_i: int
    epochs_p: int
    timed: str          # what the measured loop repeats: "encode" or "decode"
    setup_repeats: int  # set-ups per run; setup_s is their median


WORKLOADS = {w.name: w for w in (
    Workload("encode-tiny32", 32, "tiny", 10, 10, 8, "encode", 7),
    Workload("decode-small64", 64, "small", 20, 4, 3, "decode", CLIPS),
)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "encode_s": "s",
    "train_steps_per_s": "1/s",
    "decode_s": "s",
    "decode_gom_s": "s",
    "bpp": "bit/px",
    "psnr_db": "dB",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "frac",
}
PER_LAYER_UNITS = dict(tracing.LAYER_UNITS, **{
    "video.synth_video.s": "s",
    "trace.overhead_frac": "frac",
})


class CheckFailed(Exception):
    """An operation ran but its output was wrong."""


class Ledger:
    """Attempted and failed operations; a failure never ends the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def attempt(self, what: str):
        self.attempted += 1
        try:
            yield
        except CheckFailed as exc:
            self.failed += 1
            print(f"perfbench: {what} failed its check: {exc}",
                  file=sys.stderr)
        except Exception:  # any program error counts as a failed operation
            self.failed += 1
            print(f"perfbench: {what} raised:", file=sys.stderr)
            traceback.print_exc()

    @staticmethod
    def require(condition: bool, message: str) -> None:
        if not condition:
            raise CheckFailed(message)


def timing_summary(samples: list[float]) -> dict:
    """Median, count and, with 20+ samples, the highest whole percentile
    that still leaves ten samples above it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 20:
        pct = int(100 * (1 - 10 / len(samples)))
        out[f"p{pct}"] = float(np.percentile(samples, pct))
    return out


def calibration_seconds() -> float:
    """Time fixed work, unrelated to clipcodec, that tracks how fast the
    host runs at the moment: numpy calls on small arrays (dispatch-bound),
    elementwise math on a large one, and plain interpreter arithmetic."""
    small = np.ones(64)
    large = np.linspace(-4.0, 4.0, 40_000)
    tic = perf_counter()
    for _ in range(10_000):
        small = small * 0.5 + 0.5
    for _ in range(40):
        large = np.sin(large) * np.exp(-0.01 * large * large) + 0.5
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return perf_counter() - tic


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _repeat_for(seconds: float, step, enough, min_steps: int) -> None:
    """Call ``step`` until ``seconds`` have passed and ``enough()`` holds;
    past the time, give up on ``enough()`` after ``min_steps`` calls."""
    start = perf_counter()
    steps = 0
    while (perf_counter() - start < seconds
           or (not enough() and steps < min_steps)):
        step()
        steps += 1


class Session:
    """One workload at one seed: inputs, reference encodes and samples."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.ledger = Ledger()
        # Raw wall times, and the same scaled to the reference host speed
        # by the calibration samples taken around their operation.
        self.samples: dict[str, list[float]] = {
            name: [] for name in ("setup_s", "encode_s", "train_s",
                                  "decode_s", "decode_gom_s", "calibration_s",
                                  "video.synth_video.s")}
        self.scaled: dict[str, list[float]] = {
            name: [] for name in ("setup_s", "encode_s", "train_s",
                                  "decode_s", "decode_gom_s")}
        self._unscaled: list[tuple[str, float]] = []
        self.references: dict[int, pipeline.EncodeResult] = {}
        self._last_calibration: float | None = None
        self.traced_output_sha: str | None = None

    def make_inputs(self) -> None:
        w = self.workload
        self.config = nerv_lite_preset(w.size, w.size, w.tier)
        self.plan = pipeline.partition(w.frames, GOP_SIZE, GOM_SIZE)
        self.videos, self.cfgs = [], []
        for clip in range(CLIPS):
            seed = CLIPS * self.seed + clip
            tic = perf_counter()
            self.videos.append(synth_video("moving-blob", w.size, w.size,
                                           w.frames, velocity=VELOCITY,
                                           seed=seed))
            self.samples["video.synth_video.s"].append(perf_counter() - tic)
            self.cfgs.append(pipeline.TrainConfig(
                epochs_i=w.epochs_i, epochs_p=w.epochs_p,
                lr_i=LEARNING_RATE, lr_p=LEARNING_RATE, lam=LAMBDA,
                seed=seed, schedule=DEFAULT_SCHEDULE))

    def setup(self) -> None:
        """Build the inputs several times; to decode, each set-up also
        encodes the next clip's stream.  Calibration work first brings the
        process and the core up to speed."""
        for _ in range(WARMUP_CALIBRATIONS):
            self._last_calibration = calibration_seconds()
        for repeat in range(self.workload.setup_repeats):
            tic = perf_counter()
            self.make_inputs()
            if self.workload.timed == "decode":
                self.encode(repeat % CLIPS)
            self._record("setup_s", perf_counter() - tic)
            self.calibrate()

    def _record(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds)
        self._unscaled.append((name, seconds))

    def calibrate(self) -> None:
        """Take a calibration sample and scale the timings recorded since
        the previous one by the mean of the two samples around them."""
        seconds = calibration_seconds()
        around = 0.5 * (self._last_calibration or seconds) + 0.5 * seconds
        self.samples["calibration_s"].append(seconds)
        self._last_calibration = seconds
        for name, value in self._unscaled:
            self.scaled[name].append(value * CALIBRATION_REFERENCE_S
                                     / around)
        self._unscaled.clear()

    @staticmethod
    def _capture(tracer, op_id):
        return nullcontext() if tracer is None else tracer.capture(op_id)

    def encode(self, clip: int, tracer=None, op_id=0) -> float | None:
        """One checked ``encode_video`` of ``clip``; returns its seconds."""
        with self.ledger.attempt("encode_video"):
            tic = perf_counter()
            with self._capture(tracer, op_id):
                result = pipeline.encode_video(
                    self.videos[clip], self.plan, self.config,
                    self.cfgs[clip], keep_reference=True)
            seconds = perf_counter() - tic
            ref = self.references.setdefault(clip, result)
            self.ledger.require(_sha(result.data) == _sha(ref.data),
                                "repeated encode changed the bitstream")
            self.ledger.require(
                (result.bpp, result.psnr_mean) == (ref.bpp, ref.psnr_mean),
                "repeated encode changed bpp or psnr")
            if tracer is None:
                self._record("encode_s", seconds)
                self._record("train_s", sum(log.train_seconds
                                            for log in result.per_model))
            else:
                self.traced_output_sha = _sha(result.data)
            return seconds
        return None

    def train_steps(self) -> int:
        """Training steps of one encode: each frame once per epoch."""
        w = self.workload
        return sum((stop - start) * (w.epochs_i if self.plan.role_of(index)
                                     == "I" else w.epochs_p)
                   for index, (start, stop) in enumerate(self.plan.gops))

    def decode(self, clip: int, tracer=None, op_id=0) -> float | None:
        """``decode_video`` then every ``decode_gom`` of ``clip``'s stream,
        each checked against the encoder's reconstruction; returns the
        seconds spent inside the decoder calls."""
        result = self.references.get(clip)
        if result is None:
            return None
        spent = 0.0
        recon = result.recon
        with self.ledger.attempt("decode_video"):
            tic = perf_counter()
            with self._capture(tracer, op_id):
                decoded = pipeline.decode_video(result.data)
            seconds = perf_counter() - tic
            spent += seconds
            self.ledger.require(
                (decoded.width, decoded.height) == (recon.width, recon.height)
                and np.array_equal(decoded.frames, recon.frames),
                "decode_video differs from the encoder's reconstruction")
            self.ledger.require(
                psnr(self.videos[clip], decoded).mean == result.psnr_mean,
                "psnr of the decoded frames differs from psnr_mean")
            if tracer is None:
                self._record("decode_s", seconds)
            else:
                self.traced_output_sha = _sha(decoded.frames.tobytes())
        for gom_index in range(self.plan.gom_count):
            with self.ledger.attempt("decode_gom"):
                tic = perf_counter()
                with self._capture(tracer, op_id):
                    reader = BitstreamReader.from_bytes(result.data)
                    part, (start, stop) = pipeline.decode_gom(reader,
                                                              gom_index)
                seconds = perf_counter() - tic
                spent += seconds
                self.ledger.require(
                    (start, stop) == self.plan.gom_frame_range(gom_index),
                    f"decode_gom {gom_index} returned range {start}-{stop}")
                self.ledger.require(
                    np.array_equal(part.frames, recon.frames[start:stop]),
                    f"decode_gom {gom_index} differs from its slice of the "
                    f"reconstruction")
                if tracer is None:
                    self._record("decode_gom_s", seconds)
        return spent

    def operation(self, clip: int, tracer=None, op_id=0) -> float | None:
        """The workload's timed operation on ``clip``; returns seconds."""
        if self.workload.timed == "encode":
            return self.encode(clip, tracer, op_id)
        return self.decode(clip, tracer, op_id)

    def output_sha(self, clip: int) -> str | None:
        """sha256 of what the timed operation outputs for ``clip``."""
        ref = self.references.get(clip)
        if ref is None:
            return None
        if self.workload.timed == "decode":
            return _sha(ref.recon.frames.tobytes())
        return _sha(ref.data)


def measure(session: Session, seconds: float) -> dict[str, float]:
    """End-to-end metrics, tracing off.

    Operations cycle through the clips.  Encode workloads spend
    ENCODE_SHARE of the window encoding (at least once per clip) and the
    rest decoding their streams; the decode workload decodes throughout.
    The calibration samples around each operation scale its timings to
    the reference host speed; each metric is the median of those.
    """
    samples = session.samples
    window = seconds
    if session.workload.timed == "encode":
        def encode_step():
            session.encode(len(samples["encode_s"]) % CLIPS)
            session.calibrate()
        _repeat_for(ENCODE_SHARE * seconds, encode_step,
                    lambda: len(session.references) == CLIPS,
                    min_steps=CLIPS)
        window = seconds - ENCODE_SHARE * seconds

    def decode_step():
        session.decode(len(samples["decode_s"]) % CLIPS)
        session.calibrate()

    _repeat_for(window, decode_step, lambda: bool(samples["decode_s"]),
                min_steps=CLIPS)
    scaled = session.scaled
    metrics = {name: statistics.median(scaled[name])
               for name in ("setup_s", "encode_s", "decode_s",
                            "decode_gom_s") if scaled[name]}
    if scaled["train_s"]:
        metrics["train_steps_per_s"] = (session.train_steps()
                                        / statistics.median(scaled["train_s"]))
    refs = session.references
    if len(refs) == CLIPS:
        metrics["bpp"] = statistics.fmean(r.bpp for r in refs.values())
        metrics["psnr_db"] = statistics.fmean(r.psnr_mean
                                              for r in refs.values())
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    ledger = session.ledger
    metrics["ok_ops_frac"] = ((ledger.attempted - ledger.failed)
                              / max(ledger.attempted, 1))
    return metrics


def measure_traced(session: Session, seconds: float) -> dict[str, float]:
    """Per-layer metrics of clip 0: an untraced operation, then traced and
    untraced ones alternating, at least two traced."""
    tracer = tracing.Tracer()
    traced: list[float] = []
    untraced: list[float] = []

    def step():
        if untraced and len(traced) <= len(untraced):
            spent = session.operation(0, tracer, op_id=len(traced))
            if spent is not None:
                traced.append(spent)
        else:
            spent = session.operation(0)
            if spent is not None:
                untraced.append(spent)

    _repeat_for(seconds, step, lambda: len(traced) >= 2 and untraced,
                min_steps=4)
    session.samples["traced_op_s"] = traced
    session.samples["untraced_op_s"] = untraced
    if len(traced) < 2 or not untraced:
        return {}
    data = session.references[0].data
    payload = len(data) - BitstreamReader.from_bytes(data).header.header_size
    per_op = [tracing.operation_metrics(tracer, i, payload)
              for i in range(len(traced))]
    with session.ledger.attempt("exact counts"):
        for name in tracing.EXACT_COUNTS:
            values = {op[name] for op in per_op}
            session.ledger.require(len(values) == 1,
                                   f"{name} differs between traced "
                                   f"operations: {sorted(values)}")
    with session.ledger.attempt("traced output"):
        session.ledger.require(
            session.traced_output_sha == session.output_sha(0),
            "the traced run's output differs from the untraced run's")
    metrics = {name: (per_op[0][name] if name in tracing.EXACT_COUNTS
                      else statistics.median(op[name] for op in per_op))
               for name in per_op[0]}
    metrics["video.synth_video.s"] = statistics.median(
        session.samples["video.synth_video.s"])
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1.0)
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    src_lines = sum(len(path.read_text().splitlines())
                    for path in sorted(SRC_PACKAGE.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload; returns (result, detail)."""
    session = Session(workload, seed)
    session.setup()
    if trace:
        values = measure_traced(session, seconds)
        units = PER_LAYER_UNITS
    else:
        values = measure(session, seconds)
        units = END_TO_END_UNITS
    ledger = session.ledger
    result = {
        "correct": ledger.failed == 0 and set(values) == set(units),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    refs = session.references
    detail = {
        "workload": workload.name,
        "seed": seed,
        "clip_seeds": [CLIPS * seed + clip for clip in range(CLIPS)],
        "trace": int(trace),
        "environment": environment(),
        "stream_sha256": [_sha(refs[c].data) if c in refs else None
                          for c in range(CLIPS)],
        "output_sha256": session.output_sha(0),
        "output_sha256_traced": session.traced_output_sha,
        "timings": {name: timing_summary(samples)
                    for name, samples in session.scaled.items() if samples},
        "raw_timings": {name: timing_summary(samples)
                        for name, samples in session.samples.items()
                        if samples},
    }
    return result, detail


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    result, detail = run(WORKLOADS[workload_name], seed, seconds, trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    complete = len(result["metrics"]) == len(
        PER_LAYER_UNITS if trace else END_TO_END_UNITS)
    return 0 if complete else 1
