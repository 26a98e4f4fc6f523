"""Spans and counts recorded around clipcodec's public functions.

The wraps are installed from outside the package for the duration of one
traced call, and removed again afterwards.  Where they go follows how each
module looks its callees up:

* ``pipeline`` binds its imports by name, so the layer functions it calls
  (``forward_frame``, ``rate_bits_train``, ``adam_step``, ``encode_symbols``
  ...) are wrapped as attributes of ``clipcodec.pipeline``.
* ``ops`` and ``detmath`` are called through their module attribute, and
  detmath kernels call each other the same way (``erfc`` -> ``exp``), so
  those spans nest and the per-kernel figure is self time.
* An op's backward closure is wrapped when it is handed to
  ``Tape.record``, tagged with the op whose forward span is open.

Spans are ``[name, start, end, parent, op_id]`` rows kept in memory until
:func:`operation_metrics` folds them.  Self time is a span's duration minus
the durations of its direct children; spans nest strictly (one thread).
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import clipcodec.bitstream
import clipcodec.detmath
import clipcodec.metrics
import clipcodec.ops
import clipcodec.pipeline
import clipcodec.tensor

# Ops reported one by one; every other op is pooled into ``ops.other``.
NAMED_OPS = ("conv2d", "matmul", "gelu", "sigmoid", "gauss_mass",
             "upsample_nearest", "log", "exp", "add", "mul")
OTHER_OPS = ("sub", "div", "neg", "pixel_shuffle", "reshape", "permute",
             "sin", "clamp_min", "ste_round", "mean_square", "sum_all")
KERNELS = ("exp", "erfc", "erf", "log", "norm_cdf", "norm_pdf",
           "norm_cdf_diff", "sigmoid", "round_half_away")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _elements(args, kwargs):
    """Size of a detmath kernel's (first) array argument."""
    return int(np.size(args[0] if args else next(iter(kwargs.values()))))


# clipcodec.pipeline attribute -> (span name, work counter or None).  A
# counter maps the call's arguments to the amount of work it was handed.
_PIPELINE_WRAPS = {
    "training_step_loss": ("pipeline.training_step_loss", None),
    "render_video": ("pipeline.render_video", None),
    "decode_gom": ("pipeline.decode_gom", None),
    "forward_frame": ("backbone.forward_frame", None),
    "init_random": ("backbone.init_random", None),
    "rate_bits_train": ("ratequant.rate_bits_train", None),
    "layer_stats": ("ratequant.layer_stats", None),
    "quantize": ("ratequant.quantize", None),
    "apply_residual": ("ratequant.apply_residual", None),
    "rate_bits_eval": ("ratequant.rate_bits_eval", None),
    "adam_step": ("optim.adam_step", None),
    "build_model": ("coder.build_model",
                    lambda a, k: 2 * int(_arg(a, k, 2, "bound")) + 1),
    "encode_symbols": ("coder.encode_symbols",
                       lambda a, k: sum(int(np.size(s))
                                        for s in _arg(a, k, 0, "symbols"))),
    "decode_symbols": ("coder.decode_symbols",
                       lambda a, k: sum(int(c)
                                        for c in _arg(a, k, 2, "counts"))),
    "write_bitstream": ("bitstream.write_bitstream", None),
    "read_bitstream": ("bitstream.read_bitstream", None),
    "gop_gap_mse": ("warmstart.gop_gap_mse", None),
    "interpolate_init": ("warmstart.interpolate_init", None),
}


class Tracer:
    """In-memory span recorder with per-operation counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._op_id = -1

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        counts = self.counts.setdefault(self._op_id, {})
        counts[name] = counts.get(name, 0) + amount

    def timed(self, name: str, fn, counter=None):
        """``fn`` in a span; counts ``<name>.calls`` and ``counter``'s work."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(f"{name}.calls", 1)
            if counter is not None:
                self.count(f"{name}.work", counter(args, kwargs))
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    @contextmanager
    def capture(self, op_id: int):
        """Install every wrap for the body of the block, tagged ``op_id``."""
        patches = self._patches()
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _ in patches]
        self._op_id = op_id
        try:
            for owner, attr, wrapped in patches:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
            self._op_id = -1

    def _patches(self):
        ops, detmath = clipcodec.ops, clipcodec.detmath
        pipeline, metrics = clipcodec.pipeline, clipcodec.metrics
        tape = clipcodec.tensor.Tape
        reader = clipcodec.bitstream.BitstreamReader
        patches = []
        for op in NAMED_OPS + OTHER_OPS:
            if hasattr(ops, op):
                bucket = op if op in NAMED_OPS else "other"
                patches.append((ops, op, self.timed(f"ops.{bucket}.fwd",
                                                    getattr(ops, op))))
        for kernel in KERNELS:
            if hasattr(detmath, kernel):
                patches.append((detmath, kernel, self.timed(
                    f"detmath.{kernel}", getattr(detmath, kernel),
                    _elements)))
        for attr, (name, counter) in _PIPELINE_WRAPS.items():
            if hasattr(pipeline, attr):
                patches.append((pipeline, attr, self.timed(
                    name, getattr(pipeline, attr), counter)))
        if hasattr(pipeline, "train_model"):
            patches.append((pipeline, "train_model",
                            self._wrap_train_model(pipeline.train_model)))
        patches.append((metrics, "psnr",
                        self.timed("metrics.psnr", metrics.psnr)))
        patches.append((tape, "record", self._wrap_record(tape.record)))
        patches.append((tape, "backward",
                        self.timed("tensor.Tape.backward", tape.backward)))
        patches.append((reader, "read_payload",
                        self._wrap_read_payload(reader.read_payload)))
        return patches

    def _wrap_train_model(self, fn):
        @functools.wraps(fn)
        def wrapper(role, *args, **kwargs):
            index = self.open(f"pipeline.train_model.{role}")
            try:
                return fn(role, *args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def _wrap_record(self, fn):
        @functools.wraps(fn)
        def wrapper(tape, out, inputs, backward):
            self.count("tensor.Tape.nodes", 1)
            bucket = "ops.other"
            for index in reversed(self._stack):
                name = self.spans[index][0]
                if name.startswith("ops."):
                    bucket = name[:-len(".fwd")]
                    break
            return fn(tape, out, inputs,
                      self.timed(f"{bucket}.bwd", backward))
        return wrapper

    def _wrap_read_payload(self, fn):
        @functools.wraps(fn)
        def wrapper(reader, index):
            span = self.open("bitstream.read_payload")
            try:
                payload = fn(reader, index)
            finally:
                self.close(span)
            self.count("bitstream.read_payload.bytes", len(payload))
            return payload
        return wrapper

    def fold(self, op_id: int):
        """(total seconds, self seconds, counts) per name for one operation."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        rows = [(i, span) for i, span in enumerate(self.spans)
                if span[4] == op_id]
        for _, (name, start, end, parent, _) in rows:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        self_time: dict[str, float] = {}
        for index, (name, start, end, _, _) in rows:
            self_time[name] = (self_time.get(name, 0.0) + (end - start)
                               - child.get(index, 0.0))
        return total, self_time, self.counts.get(op_id, {})


def _total(key):
    return "s", lambda total, self_time, counts: total.get(key, 0.0)


def _self(key):
    return "s", lambda total, self_time, counts: self_time.get(key, 0.0)


def _count(key):
    return "count", lambda total, self_time, counts: counts.get(key, 0)


def _ns_per_symbol(total, self_time, counts):
    symbols = counts.get("coder.decode_symbols.work", 0)
    seconds = total.get("coder.decode_symbols", 0.0)
    return 1e9 * seconds / symbols if symbols else 0.0


# Per-layer metric name -> (unit, reader of one folded operation).
LAYER_METRICS = {}
for _k in KERNELS:
    LAYER_METRICS[f"detmath.{_k}.self_s"] = _self(f"detmath.{_k}")
    LAYER_METRICS[f"detmath.{_k}.elements"] = _count(f"detmath.{_k}.work")
for _name in ("rate_bits_train", "layer_stats", "quantize", "apply_residual",
              "rate_bits_eval"):
    LAYER_METRICS[f"ratequant.{_name}.s"] = _total(f"ratequant.{_name}")
for _op in NAMED_OPS + ("other",):
    LAYER_METRICS[f"ops.{_op}.fwd_s"] = _total(f"ops.{_op}.fwd")
    LAYER_METRICS[f"ops.{_op}.bwd_s"] = _total(f"ops.{_op}.bwd")
    LAYER_METRICS[f"ops.{_op}.calls"] = _count(f"ops.{_op}.fwd.calls")
LAYER_METRICS.update({
    "tensor.Tape.backward.self_s": _self("tensor.Tape.backward"),
    "tensor.Tape.nodes": _count("tensor.Tape.nodes"),
    "optim.adam_step.s": _total("optim.adam_step"),
    "backbone.forward_frame.s": _total("backbone.forward_frame"),
    "backbone.forward_frame.calls": _count("backbone.forward_frame.calls"),
    "backbone.init_random.s": _total("backbone.init_random"),
    "pipeline.train_model.I.s": _total("pipeline.train_model.I"),
    "pipeline.train_model.P.s": _total("pipeline.train_model.P"),
    "pipeline.training_step_loss.self_s":
        _self("pipeline.training_step_loss"),
    "pipeline.render_video.s": _total("pipeline.render_video"),
    "pipeline.train_steps": _count("pipeline.training_step_loss.calls"),
    "coder.build_model.s": _total("coder.build_model"),
    "coder.build_model.alphabet": _count("coder.build_model.work"),
    "coder.encode_symbols.s": _total("coder.encode_symbols"),
    "coder.decode_symbols.s": _total("coder.decode_symbols"),
    "coder.symbols": ("count", lambda total, self_time, counts:
                      counts.get("coder.encode_symbols.work", 0)
                      + counts.get("coder.decode_symbols.work", 0)),
    "coder.decode_symbols.ns_per_symbol": ("ns", _ns_per_symbol),
    "bitstream.write_bitstream.s": _total("bitstream.write_bitstream"),
    "bitstream.read_bitstream.s": _total("bitstream.read_bitstream"),
    "bitstream.read_payload.s": _total("bitstream.read_payload"),
    "warmstart.gop_gap_mse.s": _total("warmstart.gop_gap_mse"),
    "warmstart.interpolate_init.s": _total("warmstart.interpolate_init"),
    "metrics.psnr.s": _total("metrics.psnr"),
})

# Counts that must repeat exactly from one traced operation to the next,
# and from one run to the next at the same seed.
EXACT_COUNTS = tuple(name for name, (unit, _) in LAYER_METRICS.items()
                     if unit == "count")


def operation_metrics(tracer: Tracer, op_id: int,
                      payload_bytes: int) -> dict[str, float]:
    """Every per-layer value of one traced operation.

    ``payload_bytes`` is the stream's total payload size; it turns the
    bytes each ``decode_gom`` read into ``bitstream.read_payload.bytes_frac``.
    """
    total, self_time, counts = tracer.fold(op_id)
    out = {name: read(total, self_time, counts)
           for name, (_, read) in LAYER_METRICS.items()}
    gom_decodes = counts.get("pipeline.decode_gom.calls", 0)
    out["bitstream.read_payload.bytes_frac"] = (
        counts.get("bitstream.read_payload.bytes", 0)
        / (gom_decodes * payload_bytes) if gom_decodes else 0.0)
    return out


LAYER_UNITS = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
LAYER_UNITS["bitstream.read_payload.bytes_frac"] = "frac"
