"""Encode/decode orchestration.

A video is split into clips (GOPs); each clip gets its own model
instance.  Clips are grouped into model groups (GOMs): the first model of
a group trains and codes independently (I), every later model (P) is
warm-started from its predecessor and only the quantized difference
between its trained parameters and that warm start is entropy-coded.
Groups never reference each other, so they encode and decode
independently.  One group walk serves both sides: the encoder trains each
model and the decoder reads it from the stream, and each renders every
model's clip from the final parameters the walk yields into the group's
frames, so the encoder scores the frames a decoder gives.

Work uses a second CPU, where this process may use one, through one
worker process (:mod:`~clipcodec.worker`, which also says when work runs
serially and how a failed task hands its work back).  Both sides take
the groups in windows of two, the last group alone where their count is
odd; ``decode_gom`` decodes a window of one group.  A decode splits each
window's models at the middle one: each model's payload is its own
range-coded stream, so the worker, sent the header and the first half's
payload bytes, range-decodes, walks and renders that half, handing the
chain's state to this process first where the middle model is a P
model, while this process range-decodes the second half and walks on.
An encode's models stay serial, since a P model trains from its
predecessor: the worker trains a window's first group and this process
its second, and a lone group sends the worker each training step's
scaled residual, from which it draws the step's noise from the model's
own stream and scores the rate and its gradient while this process
renders the frame and walks the network backward, which reads the reply
only where it reaches the rate term.

Training follows a strict quantization-aware regime: every step renders
with the warm start plus the straight-through-rounded residual, so the
distortion seen during training equals the distortion after decoding by
construction.  The rate term scores the noisy scaled residual under
per-layer Gaussian statistics that are recomputed each step and frozen
into the header at the end.
"""

from __future__ import annotations

import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import detmath, metrics, ops, worker
from .backbone import (BackboneConfig, config_to_text, forward_clip,
                       frame_timestamps, init_random, param_layout)
# partition is also this module's, for callers that plan an encode
from .bitstream import (BitstreamReader, ModelRecord, PartitionPlan, ROLE_I,
                        check_payload, partition, write_bitstream)
from .coder import build_models, decode_symbols, encode_symbols
from .errors import BitstreamError, ConfigError, NumericError
from .optim import adam_init, adam_step, lr_at
from .params import ParamVector
from .ratequant import (apply_residual, initial_scales, layer_stats,
                        quantize, rate_bits_eval, rate_bits_train, residual,
                        scaled_residual, widen_steps)
from .seeds import STREAM_NOISE, make_rng, model_seed
from .tensor import Tape, Tensor, active_tape
from .video import RawVideo, denormalize
from .warmstart import (EpsilonSchedule, epsilon_for, gop_gap_mse,
                        interpolate_init)


@dataclass(frozen=True)
class TrainConfig:
    """Training settings.  The CLI's ``encode`` takes its defaults from
    here, so a library caller gets the same operating point."""

    epochs_i: int = 60
    epochs_p: int = 40
    lr_i: float = 1e-2
    lr_p: float = 1e-2
    lam: float = 1e6
    seed: int = 0
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)

    def __post_init__(self):
        if self.epochs_i < 0 or self.epochs_p < 0:
            raise ConfigError("epoch budgets must be >= 0")
        if not all(0 < value < np.inf
                   for value in (self.lr_i, self.lr_p, self.lam)):
            raise ConfigError("learning rates and lambda must be positive "
                              "and finite")
        if not 0 <= self.seed < 1 << 64:  # the header stores 64 bits
            raise ConfigError(f"seed {self.seed} outside [0, 2^64)")


def training_step_loss(config: BackboneConfig, theta_prime: ParamVector,
                       theta_star: ParamVector, log_scales: ParamVector,
                       targets: np.ndarray, t_norms, lam: float, noise,
                       rate_worker=None):
    """Build one training-step graph over a batch of frames, ``targets``
    (n, H, W, 3) at timestamps ``t_norms``; returns (loss, rate, mse).

    Rendering uses the warm start plus the straight-through-rounded
    residual on the trained lattice, so train-time distortion equals
    decode-time distortion.  The rate term scores the noisy scaled
    residual under per-layer (mu, sd) statistics that are per-step
    constants.  ``noise`` is one uniform(-1/2, 1/2) array with every
    layer's noise in layout order.

    The lattice is one op chain over the flat vectors: each layer's step
    size ``exp(log_scale)`` is spread over its elements,
    ``unit = (star - prime) / step`` is what the rate term scores, and
    ``prime + ste_round(unit) * step``, cut into layers, is what the
    network renders with.  Every value and gradient equals a chain per
    layer: the step sizes enter the division and the product as two
    separate spreads, so each path's log-scale gradient is reduced over
    its layer on its own, in the layer's shape, before the two are added.

    The rate term is one tape node over ``unit``, recorded after the
    lattice and before the network, whose value and gradient
    :func:`_score_rate` computes at once: here, or, where a
    :class:`_RateWorker` ``rate_worker`` takes the step, in that process
    while this one renders.  Then ``rate`` reads 0, and so ``loss`` the
    distortion term alone, until ``tape.backward(loss)`` reaches the node
    and reads the worker's reply.
    """
    shapes = [shape for _, shape in theta_star.layout()]
    steps = ops.exp(log_scales.flat)
    prime = ops.constant(theta_prime.flat.data)
    delta = ops.sub(theta_star.flat, prime)
    unit = ops.div(delta, ops.broadcast_segments(steps, shapes))
    snapped = ops.mul(ops.ste_round(unit),
                      ops.broadcast_segments(steps, shapes))
    effective = dict(zip(theta_star.names,
                         ops.split_flat(ops.add(prime, snapped), shapes)))
    rate = _rate_node(unit, noise, theta_star.sizes, rate_worker)
    (frames,) = forward_clip(config, effective, t_norms)
    mse = ops.mean_square(ops.sub(frames, ops.constant(targets)))
    loss = ops.add(rate, ops.mul(mse, lam))
    return loss, rate, mse


def _score_rate(unit: np.ndarray, noise: np.ndarray, sizes):
    """One step's rate term: ``(bits, d bits / d unit)`` for the
    scaled residual ``unit``, every layer's values joined in layout order
    with ``sizes`` giving each layer's element count, at ``noise``, under
    the layer statistics of ``unit``.  The gradient is the one the step's
    backward pass gives ``unit`` through the rate, whose own gradient is
    1; a rate that is not finite has none (None), and its step raises
    before any update."""
    mu, sd = layer_stats(unit, sizes)
    return rate_bits_train(unit, noise, mu, sd, sizes)


def _rate_node(unit: Tensor, noise: np.ndarray, sizes, rate_worker):
    """The rate term over ``unit`` as one node of the active tape, as
    :func:`training_step_loss` describes it.  Its backward pass multiplies
    the gradient of :func:`_score_rate` by the rate's own."""
    tape = active_tape()
    taped = tape is not None and unit.requires_grad
    rate = Tensor(np.zeros((), unit.dtype), requires_grad=unit.requires_grad)
    if (taped and rate_worker is not None
            and rate_worker.send(unit.data, noise)):
        def reply():
            rate.data, grad = rate_worker.receive()
            return grad
    else:
        rate.data, grad = _score_rate(unit.data, noise, sizes)

        def reply():
            return grad
    if taped:
        def backward(g):
            grad = reply()
            return (None if grad is None else grad * g,)
        tape.record(rate, (unit,), backward)
    return rate


def _step_noise(rng, size: int) -> np.ndarray:
    """One training step's uniform(-1/2, 1/2) rate noise, every layer's in
    layout order, as both the training loop and the rate worker draw it.
    PCG64 spends one word per double, so one draw for all layers equals
    one draw per layer, joined."""
    return rng.uniform(-0.5, 0.5, size=size)


@dataclass
class TrainedModel:
    theta_star: ParamVector          # lattice-snapped final parameters
    symbols: list[np.ndarray]        # per-layer integer residual symbols
    scale: np.ndarray                # (L,) float32 steps, layout order
    mu: np.ndarray                   # (L,) float32 scaled-residual mean
    sd: np.ndarray                   # (L,) float32 scaled-residual sd
    epoch_logs: list[dict]


def _freeze_lattice(theta_prime: ParamVector, theta_star: ParamVector,
                    log_scales: ParamVector):
    """Snap the live parameters to their float32 quantization lattice.

    A layer's trained step ``exp(log_scale)`` is widened where its peak
    symbol would pass the coder's alphabet, before anything uses it: the
    stats, the recorded scale and the reconstruction all see one step.
    Returns the fields of :class:`TrainedModel` in order, less the logs.
    """
    delta = residual(theta_star, theta_prime)
    scale = widen_steps(delta, detmath.exp(log_scales.flat.data))
    scaled = scaled_residual(delta, scale)
    symbols = quantize(scaled)
    mu, sd = layer_stats(scaled.flat.data, scaled.sizes)
    theta_final = apply_residual(theta_prime, symbols, scale)
    return theta_final, symbols, scale, mu, sd


def train_model(role: str, frames: np.ndarray, init: ParamVector,
                config: BackboneConfig, cfg: TrainConfig,
                seed: int) -> TrainedModel:
    """Fit one clip model and produce its codable residual.

    ``frames`` is the clip's (n, 3, H, W) normalized pixel data; ``init``
    is the warm start (random for I-models, blended for P-models).  Runs
    epochs * n steps, one frame per step in clip order, in float32.  The
    returned parameters are snapped to the quantization lattice, i.e.
    exactly what a decoder reconstructs from the symbols.
    """
    epochs = cfg.epochs_i if role == ROLE_I else cfg.epochs_p
    base_lr = cfg.lr_i if role == ROLE_I else cfg.lr_p

    theta_prime = init
    theta_star = init.clone(requires_grad=True)
    log_scales = ParamVector(
        [(name, ()) for name in init.names],
        Tensor(np.asarray(detmath.log(initial_scales(init)),
                          dtype=np.float32), requires_grad=True))
    opt_theta = adam_init(theta_star)
    opt_scales = adam_init(log_scales)
    # the rate worker draws the same noise; this draw replays its steps
    # where it ends
    noise_rng = make_rng(seed, STREAM_NOISE)

    targets = frames.transpose(0, 2, 3, 1).astype(np.float32)
    t_norms = frame_timestamps(len(frames))
    epoch_logs: list[dict] = []

    def diverged(epoch, step):
        return NumericError(f"loss diverged at epoch {epoch} step {step}")

    with _rate_worker(init, epochs * len(frames), seed) as rate_worker:
        for epoch in range(epochs):
            lr = lr_at(epoch, epochs, base_lr)
            rate_sum = 0.0
            mse_sum = 0.0
            for step in range(len(frames)):
                noise = _step_noise(noise_rng, init.flat.size)
                try:
                    with Tape() as tape:
                        loss, rate, mse = training_step_loss(
                            config, theta_prime, theta_star, log_scales,
                            targets[step:step + 1], t_norms[step:step + 1],
                            cfg.lam, noise, rate_worker)
                    if not np.isfinite(loss.data):
                        raise diverged(epoch, step)
                    tape.backward(loss)
                except Exception:
                    # the serial step scores its rate term first, so an
                    # error of the rate term comes before this one
                    if rate_worker is not None:
                        rate_worker.settle()
                    raise
                # with a worker, the rate's value came in the backward pass
                if not np.isfinite(ops.add(rate, ops.mul(mse, cfg.lam)).data):
                    raise diverged(epoch, step)
                adam_step(theta_star, opt_theta, lr)
                adam_step(log_scales, opt_scales, lr)
                theta_star.clear_grads()
                log_scales.clear_grads()
                rate_sum += float(rate.data)
                mse_sum += float(mse.data)
            epoch_logs.append({"epoch": epoch,
                               "loss_r": rate_sum / len(frames),
                               "loss_d": mse_sum / len(frames),
                               "lr": lr})
    # the last step's tape closes over every activation of that step;
    # each earlier one goes when the next is bound (freeing it before
    # the Adam step took 5x the page faults: docs/resources.md)
    tape = None

    return TrainedModel(*_freeze_lattice(theta_prime, theta_star, log_scales),
                        epoch_logs=epoch_logs)


@dataclass
class ModelLog:
    index: int
    role: str
    epsilon: float
    payload_bits: int
    estimate_bits: float
    train_seconds: float
    final_mse: float  # the decoded clip's per-frame MSE over 255**2
    epoch_logs: list[dict]


@dataclass
class EncodeResult:
    data: bytes
    per_model: list[ModelLog]
    bpp: float
    psnr_mean: float
    wall_seconds: float
    recon: RawVideo | None = None


def _walk(config: BackboneConfig, seed: int, plan: PartitionPlan, models,
          epsilon_of, finish, state=(None, None)):
    """The I/P warm-start chain of the models ``range(*models)``, shared by
    encoder and decoder; the range may span groups.

    Each I model starts from its seeded random init; every P model starts
    from ``interpolate_init`` of its predecessor's init and final
    parameters at ``epsilon_of(gop_index)``.  So a model draws its init
    only where it is read: every I model, and a P model followed by a P
    model.  Each draw depends on its model's seed alone, so skipping a
    group's last P draw changes no value of the chain, and another
    decoder that draws every init decodes the same frames.
    ``finish(gop_index, role, epsilon, theta_prime)`` turns the start into
    ``(final parameters, result)``.

    A walk that starts at a P model continues from ``state``, the
    ``(random init, final parameters)`` of the model before it.  Yields
    ``(gop_index, state, result)`` per model, its ``state`` the one the
    next model starts from, and renders nothing: the caller renders each
    clip from ``state[1]`` (:func:`_render_clip`).
    """
    prev_rand, prev_theta = state
    for gop_index in range(*models):
        role = plan.role_of(gop_index)
        rand = (init_random(config, model_seed(seed, gop_index))
                if role == ROLE_I or (gop_index + 1) % plan.gom_size
                and gop_index + 1 < plan.gop_count else None)
        if role == ROLE_I:
            epsilon, theta_prime = np.float32(0.0), rand
        else:
            epsilon = epsilon_of(gop_index)
            theta_prime = interpolate_init(prev_rand, prev_theta,
                                           float(epsilon))
        prev_rand, prev_theta = rand, None  # not kept alive in finish
        prev_theta, result = finish(gop_index, role, epsilon, theta_prime)
        yield gop_index, (rand, prev_theta), result


def _clip_frames(config: BackboneConfig, plan: PartitionPlan,
                 models) -> np.ndarray:
    """An empty (n, 3, H, W) uint8 buffer for the clips ``range(*models)``."""
    start, stop = plan.frame_range(models)
    return np.empty((stop - start, 3, config.frame_height,
                     config.frame_width), dtype=np.uint8)


def _render_clip(config: BackboneConfig, plan: PartitionPlan,
                 gop_index: int, params: ParamVector, frames: np.ndarray,
                 offset: int) -> None:
    """Render clip ``gop_index`` into ``frames``, the frames of its group
    from frame ``offset`` on; an overflow raises :class:`NumericError`
    naming the clip."""
    start, stop = (i - offset for i in plan.gops[gop_index])
    try:
        render_video(config, params, frames[start:stop])
    except NumericError as exc:
        raise NumericError(f"clip {gop_index}: {exc}") from None


def _encode_gom(frames: np.ndarray, plan: PartitionPlan,
                config: BackboneConfig, cfg: TrainConfig, gom_index: int):
    """Train, code and render one group's models.

    ``frames`` holds the group's (n, 3, H, W) uint8 frames only.  Returns
    the rendered frames, their per-frame MSE against ``frames`` and one
    ``(record, log, payload)`` row per model.
    """
    offset = plan.gom_frame_range(gom_index)[0]
    normalized = RawVideo(width=config.frame_width,
                          height=config.frame_height,
                          frames=frames).normalized()

    def clip(gop_index):
        start, stop = plan.gops[gop_index]
        return normalized[start - offset:stop - offset]

    def epsilon_of(gop_index):
        mse = gop_gap_mse(clip(gop_index - 1), clip(gop_index))
        return np.float32(epsilon_for(mse, cfg.schedule))

    def finish(gop_index, role, epsilon, theta_prime):
        tic = time.perf_counter()
        trained = train_model(role, clip(gop_index), theta_prime, config,
                              cfg, model_seed(cfg.seed, gop_index))
        seconds = time.perf_counter() - tic

        bounds = np.asarray(
            [max(1, int(np.max(np.abs(sym))) if sym.size else 1)
             for sym in trained.symbols], dtype=np.uint32)
        models = build_models(trained.mu, trained.sd, bounds)
        payload = encode_symbols(trained.symbols, models,
                                 names=tuple(theta_prime.names))
        estimate = rate_bits_eval(trained.symbols, trained.mu, trained.sd)
        record = ModelRecord(
            index=gop_index, role=role, epsilon=float(epsilon),
            scale=trained.scale, mu=trained.mu, sd=trained.sd,
            bound=bounds, payload_len=len(payload),
            payload_crc=zlib.crc32(payload))
        log = ModelLog(
            index=gop_index, role=role, epsilon=float(epsilon),
            payload_bits=8 * len(payload),
            estimate_bits=float(estimate.sum()), train_seconds=seconds,
            final_mse=float("nan"), epoch_logs=trained.epoch_logs)
        return trained.theta_star, (record, log, payload)

    models = plan.goms[gom_index]
    rendered, rows = _clip_frames(config, plan, models), []
    for gop_index, state, row in _walk(config, cfg.seed, plan, models,
                                       epsilon_of, finish):
        _render_clip(config, plan, gop_index, state[1], rendered, offset)
        rows.append(row)
        del state  # not kept while the next model trains
    mse = metrics.frame_mse(frames, rendered)
    for _, log, _ in rows:  # scored once the walk has rendered the clip
        start, stop = (i - offset for i in plan.gops[log.index])
        log.final_mse = float(np.mean(mse[start:stop])) / 255.0 ** 2
    return rendered, mse, rows


def _rate_replies(requests, sizes, dtype, seed: int, steps: int):
    """The rate task of a model with ``steps`` training steps: for each
    step, its ``unit`` in ``dtype`` read from ``requests`` as raw bytes,
    and the step's noise drawn here from the model's own stream, as the
    training loop draws it, give its :func:`_score_rate`."""
    count = sum(sizes)
    size = count * np.dtype(dtype).itemsize
    noise_rng = make_rng(seed, STREAM_NOISE)
    for _ in range(steps):
        request = requests.read(size)
        if len(request) != size:  # the parent has gone
            return
        yield _score_rate(np.frombuffer(request, dtype, count),
                          _step_noise(noise_rng, count), sizes)


class _RateWorker:
    """The worker's rate task for one model: it scores each training
    step's rate term (:func:`_score_rate`) while this process renders and
    walks the network backward.  :meth:`send` hands it one step, and
    :meth:`receive` reads its reply, once per step.  A worker that failed
    or died hands that step and every later one back to this process,
    which so raises the serial step's error."""

    def __init__(self, tasks: worker.Tasks, sizes):
        self.tasks, self.sizes = tasks, sizes
        self.pending = None

    def send(self, unit: np.ndarray, noise: np.ndarray) -> bool:
        """Hand the worker one step; False where it has none to take it.
        It draws the same ``noise`` itself, which is kept here to score
        the step where the worker ends."""
        if not self.tasks.send(unit):
            return False
        self.pending = unit, noise
        return True

    def receive(self):
        """The :func:`_score_rate` of the step last sent, from the worker
        or, where it sent none in full, scored here."""
        (unit, noise), self.pending = self.pending, None
        return self.tasks.receive(
            lambda: _score_rate(unit, noise, self.sizes))

    def settle(self) -> None:
        """Read the reply of a step sent but not yet received."""
        if self.pending is not None:
            self.receive()


@contextmanager
def _rate_worker(params: ParamVector, steps: int, seed: int):
    """A :class:`_RateWorker` for ``steps`` training steps of ``params``
    at the model seed ``seed``, or None where there are no steps or no
    second core (:func:`worker.usable`): the network and the rate term
    are its two units."""
    if steps == 0 or not worker.usable(2):
        yield None
        return
    with worker.tasks() as tasks:
        tasks.post(steps, _rate_replies, params.sizes, params.dtype, seed,
                   steps)
        with tasks.apart():
            yield _RateWorker(tasks, params.sizes)


def _encode_group(requests, frames: np.ndarray, plan: PartitionPlan,
                  config: BackboneConfig, cfg: TrainConfig, index: int,
                  keep_reference: bool):
    """The task of one group of an encode: :func:`_encode_gom` of its
    ``frames``, the rendered frames dropped unless ``keep_reference``
    asks for them."""
    rendered, mse, rows = _encode_gom(frames, plan, config, cfg, index)
    yield rendered if keep_reference else None, mse, rows


def encode_video(video: RawVideo, plan: PartitionPlan,
                 config: BackboneConfig, cfg: TrainConfig, *,
                 keep_reference: bool = False) -> EncodeResult:
    """Run the full encoder; returns the bitstream plus a report.

    The model groups are encoded in windows of two, one group per
    process, and a lone last group puts its rate term on the second core
    (see the module docstring).  The bytes equal a serial encode's, and a
    failing group raises the serial encode's error.  Each group is scored
    as it comes back; only its frames' squared errors are kept, and its
    frames too when ``keep_reference`` asks for the reconstruction.
    """
    if plan.frame_count != video.frame_count:
        raise ConfigError(f"plan covers {plan.frame_count} frames, video "
                          f"has {video.frame_count}")
    if (config.frame_height, config.frame_width) != (video.height,
                                                     video.width):
        raise ConfigError(f"backbone renders "
                          f"{config.frame_height}x{config.frame_width}, "
                          f"video is {video.height}x{video.width}")
    wall_start = time.perf_counter()

    def frames(index):
        return video.frames[slice(*plan.gom_frame_range(index))]

    def task(index):
        return (_encode_group, frames(index), plan, config, cfg, index,
                keep_reference)

    def run(index):  # the worker's task for the group, run here
        function, *args = task(index)
        return next(function(None, *args))

    def window(first):
        """Groups ``first`` and ``first + 1``, or the last group alone."""
        if first + 1 == plan.gom_count or not worker.usable(2):
            return map(run, range(first, min(first + 2, plan.gom_count)))
        with worker.tasks() as tasks:
            tasks.post(1, *task(first))
            try:
                second = run(first + 1)
            except Exception:
                # the first group comes first in the serial order, so an
                # error of its replaces this one
                tasks.receive(lambda: run(first))
                raise
            return tasks.receive(lambda: run(first)), second

    rows, mses, clips = [], [], []
    with worker.tasks():
        for first in range(0, plan.gom_count, 2):
            for rendered, mse, group_rows in window(first):
                rows += group_rows
                mses.append(mse)
                if keep_reference:
                    clips.append(rendered)
    records, per_model, payloads = map(list, zip(*rows))

    data = write_bitstream(video.width, video.height, video.frame_count,
                           plan.gop_size, plan.gom_size, cfg.seed,
                           config_to_text(config), records, payloads)
    return EncodeResult(
        data=data, per_model=per_model,
        bpp=len(data) * 8.0 / video.pixel_count,
        psnr_mean=metrics.psnr_of_mse(np.concatenate(mses)).mean,
        wall_seconds=time.perf_counter() - wall_start,
        recon=RawVideo(width=video.width, height=video.height,
                       frames=np.concatenate(clips))
        if keep_reference else None)


def render_video(config: BackboneConfig, params: ParamVector,
                 frames: np.ndarray) -> None:
    """Render one clip into ``frames``, its (n, 3, H, W) uint8 output, in
    one :func:`forward_clip` call, writing each batch it yields; parameters
    no encoder could have trained may overflow the network, which raises
    :class:`NumericError`.
    """
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for out in forward_clip(config, params,
                                frame_timestamps(len(frames))):
            stop = start + out.shape[0]
            frames[start:stop] = denormalize(out.data).transpose(0, 3, 1, 2)
            start = stop


class _Payloads:
    """What a worker's decode of some ``models`` reads of a stream, sent
    to it by value: the header, its records and payload offsets cut to
    those models (each keyed by model index, so that what a task carries
    does not grow with the stream), and their payload bytes as ``reader``
    read them, which :meth:`read_payload` checks as
    :meth:`BitstreamReader.read_payload` does."""

    def __init__(self, reader: BitstreamReader, models):
        header = reader.header
        records = {}
        for index in models:
            # arrays copied: pickling an array keeps a note of its buffer
            # as long as the array lives, and the reader's records live
            # as long as the whole decode
            rec = header.records[index]
            records[index] = replace(rec, scale=rec.scale.copy(),
                                     mu=rec.mu.copy(), sd=rec.sd.copy(),
                                     bound=rec.bound.copy())
        self.header = replace(
            header, records=records,
            offsets={index: header.offsets[index] for index in models})
        self.raw = {index: reader.raw_payload(index) for index in models}

    def read_payload(self, index: int) -> bytes:
        return check_payload(self.header, index, self.raw[index])


class _ModelsDecode:
    """The decode of the models ``range(*models)`` from ``reader`` (a
    :class:`BitstreamReader`, or the :class:`_Payloads` a worker gets)
    into ``frames``, the buffer of their clips' frames: walks of their
    warm-start chain that render each clip into it."""

    def __init__(self, reader, models, frames: np.ndarray):
        self.reader, self.frames = reader, frames
        self.header = reader.header
        self.config, self.plan = self.header.config, self.header.plan
        self.offset = self.plan.gops[models[0]][0]
        self.sizes = [spec.count for spec in param_layout(self.config)]
        self.decoded = {}  # symbols of models decoded ahead of the walk

    def symbols_of(self, gop_index: int):
        rec = self.header.records[gop_index]
        return decode_symbols(self.reader.read_payload(gop_index),
                              build_models(rec.mu, rec.sd, rec.bound),
                              self.sizes)

    def _finish(self, gop_index, role, epsilon, theta_prime):
        rec = self.header.records[gop_index]
        symbols = self.decoded.pop(gop_index, None)
        if symbols is None:
            symbols = self.symbols_of(gop_index)
        with np.errstate(over="ignore"):  # refused just below
            theta = apply_residual(theta_prime, symbols, rec.scale)
        del symbols
        if not np.isfinite(theta.flat.data).all():
            raise BitstreamError(f"model {gop_index}: scales and symbols "
                                 f"overflow the parameters")
        return theta, None

    def walk(self, models, state=(None, None)):
        return _walk(self.config, self.header.seed, self.plan, models,
                     lambda gop_index: self.header.records[gop_index].epsilon,
                     self._finish, state)

    def render(self, gop_index: int, params: ParamVector) -> None:
        _render_clip(self.config, self.plan, gop_index, params, self.frames,
                     self.offset)

    def here(self, models, state=(None, None)):
        """Walk ``models`` and render each clip as the walk reaches it, the
        serial order; returns the chain's state after the last model."""
        try:
            for gop_index, state, _ in self.walk(models, state):
                self.render(gop_index, state[1])
        except NumericError as exc:  # only the render raises it here
            raise BitstreamError(str(exc)) from None
        return state


def _first_half(requests, reader, models, handover: bool):
    """The worker's half of a split decode, the models ``range(*models)``:
    where ``handover`` asks for it, the chain's state after them (the last
    model's random init and final parameters), then their clips' frames,
    rendered once the state is sent."""
    header = reader.header
    half = _ModelsDecode(reader, models,
                         _clip_frames(header.config, header.plan, models))
    thetas = []
    for _, state, _ in half.walk(models):
        thetas.append(state[1])
    if handover:
        yield state
    for gop_index, theta in zip(range(*models), thetas):
        half.render(gop_index, theta)
    yield half.frames


def _decode_models(reader, models, frames: np.ndarray) -> None:
    """Decode the models ``range(*models)`` of ``reader``'s stream into
    ``frames``, the buffer of their clips' frames.  Two or more split at
    the middle model (see the module docstring): the worker decodes the
    first half (:func:`_first_half`) and this process the rest.  The
    frames, and the error of a bad model, are the serial walk's."""
    (first, end), decode = models, _ModelsDecode(reader, models, frames)
    if not worker.usable(end - first):
        decode.here(models)
        return
    middle = first + (end - first) // 2
    handover = decode.plan.role_of(middle) != ROLE_I
    with worker.tasks() as tasks:
        tasks.post(1 + handover, _first_half,
                   _Payloads(reader, range(first, middle)), (first, middle),
                   handover)
        for gop_index in range(middle, end):
            try:
                decode.decoded[gop_index] = decode.symbols_of(gop_index)
            except Exception:  # met again where the walk gets to it
                break
        state = tasks.receive(lambda: None) if handover else (None, None)
        handed = state is not None
        if not handed:  # the worker ended before its handover
            state = decode.here((first, middle))

        def copy_first_half():
            """The first half's frames from the worker, or, where it sent
            none, walked and rendered here, which raises the half's first
            error."""
            if not handed:  # rendered here already
                return
            sent = tasks.receive(lambda: None)
            if sent is None:
                decode.here((first, middle))
            else:
                decode.frames[:len(sent)] = sent

        try:
            decode.here((middle, end), state)
        except Exception:
            # the first half comes first in the serial order, so an error
            # of its replaces this one
            copy_first_half()
            raise
        copy_first_half()


def decode_gom(reader: BitstreamReader,
               gom_index: int) -> tuple[RawVideo, tuple[int, int]]:
    """Decode one group via random access; reads only its payload range.
    The group is a window of its own, split at its middle model over two
    processes (see the module docstring)."""
    header = reader.header
    plan = header.plan
    if not 0 <= gom_index < plan.gom_count:
        raise ConfigError(f"gom index {gom_index} outside "
                          f"[0, {plan.gom_count})")
    models = plan.goms[gom_index]
    frames = _clip_frames(header.config, plan, models)
    _decode_models(reader, models, frames)
    return (RawVideo(width=header.width, height=header.height,
                     frames=frames), plan.gom_frame_range(gom_index))


def _decode_windows(reader: BitstreamReader, frames=None):
    """Decode the stream of ``reader`` window by window, in order, each
    two consecutive groups, the last one alone where their count is odd,
    and yield each window's frames: its part of ``frames``, the whole
    video's buffer, where given, or else a buffer of its own.  A stream
    shorter than its header declares is refused first.  Close the
    iterator when done with it, so that the call ends."""
    header = reader.header
    plan = header.plan
    with worker.tasks():
        reader.check_complete()
        for first in range(0, plan.gom_count, 2):
            models = (plan.goms[first][0],
                      plan.goms[min(first + 2, plan.gom_count) - 1][1])
            window = (_clip_frames(header.config, plan, models)
                      if frames is None else
                      frames[slice(*plan.frame_range(models))])
            _decode_models(reader, models, window)
            yield window


def decode_video(data: bytes) -> RawVideo:
    """Reconstruct the full video from bitstream bytes (pure function).

    Each window of two groups, or a lone last group, decodes on two
    processes, split at its middle model (see the module docstring),
    straight into the output.  The frames equal a serial decode's, and an
    invalid stream raises the error of its first bad model, as a serial
    decode does."""
    reader = BitstreamReader.from_bytes(data)
    header = reader.header
    frames = np.empty((header.frame_count, 3, header.height, header.width),
                      dtype=np.uint8)
    for _ in _decode_windows(reader, frames):
        pass
    return RawVideo(width=header.width, height=header.height, frames=frames)
