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

Work fans out over the CPUs this process may use, two processes at most,
where worker 0 is the calling process and each other is a forked child
that pickles its results back down a pipe.  A whole-video encode or
decode of two or more groups makes the group the unit: group ``i`` runs
on worker ``i mod w``, so the work holds up to ``w`` groups at once, one
per process.  Decoding one group of two or more models (``decode_gom``,
or a one-group video) splits its warm-start chain at the middle model:
each model's payload is its own range-coded stream, so a child decodes
and walks the first half and hands the chain's state at the middle to
this process, which has decoded the second half's payloads meanwhile and
walks on from there; each process renders its own half's clips.  The two
never nest: a fan-out started inside a live one, in a forked child or in
a parent whose children are alive, runs serially.  The encoder's models
stay serial, since a P model trains from its predecessor, but a step's
rate term may run on the second core: where no fan-out is live, as in a
one-group encode, each model forks one rate worker.  Each training step
sends it the scaled residual and the noise, and it scores their rate and
its gradient while this process renders the frame and walks the network
backward, which reads the reply only where it reaches the rate term.  One
CPU (``taskset -c 0``), one unit, another live Python thread, or a host
with no process or descriptor to spare gives the serial walk, and a
worker that fails or dies hands its steps back to this process.

Training follows a strict quantization-aware regime: every step renders
with the warm start plus the straight-through-rounded residual, so the
distortion seen during training equals the distortion after decoding by
construction.  The rate term scores the noisy scaled residual under
per-layer Gaussian statistics that are recomputed each step and frozen
into the header at the end.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import zlib
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from . import detmath, metrics, ops
from .backbone import (BackboneConfig, config_to_text, forward_clip,
                       frame_timestamps, init_random, param_layout)
# partition is also this module's, for callers that plan an encode
from .bitstream import (BitstreamReader, ModelRecord, PartitionPlan, ROLE_I,
                        partition, write_bitstream)
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
                       worker=None):
    """Build one training-step graph over a batch of frames, ``targets``
    (n, H, W, 3) at timestamps ``t_norms``; returns (loss, rate, mse,
    (mu, sd)).

    Rendering uses the warm start plus the straight-through-rounded
    residual on the trained lattice, so train-time distortion equals
    decode-time distortion.  The rate term scores the noisy scaled
    residual; (mu, sd) statistics are per-step constants.  ``noise`` is
    one uniform(-1/2, 1/2) array with every layer's noise in layout order.

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
    :func:`_score_rate` computes on a tape of its own: here, or, where a
    :class:`_RateWorker` ``worker`` takes the step, in that process while
    this one renders.  Then ``rate`` reads 0, and so ``loss`` the
    distortion term alone, until ``tape.backward(loss)`` reaches the node
    and reads the worker's reply; (mu, sd) is None.
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
    rate, stats = _rate_node(unit, noise, theta_star.sizes, worker)
    (frames,) = forward_clip(config, effective, t_norms)
    mse = ops.mean_square(ops.sub(frames, ops.constant(targets)))
    loss = ops.add(rate, ops.mul(mse, lam))
    return loss, rate, mse, stats


def _score_rate(unit: np.ndarray, noise: np.ndarray, sizes):
    """One step's rate term on a tape of its own: ``(bits, grad, (mu,
    sd))`` for the scaled residual ``unit``, every layer's values joined
    in layout order with ``sizes`` giving each layer's element count, at
    ``noise``, under the layer statistics of ``unit``.

    ``grad()`` walks that tape backward and returns ``d bits / d unit``:
    the gradient the rate's ops give ``unit`` when they are recorded on
    the step's own tape, whose backward pass seeds the step's loss, and
    so its rate term, with 1.  Called where the step's backward pass
    reaches the rate, it keeps the rate's temporaries alive as long as
    the step's own tape would, which keeps malloc's heap, and the page
    faults of the step, as they are with one tape.  A rate that is not
    finite has no gradient (None): its step raises before any update.
    """
    flat = Tensor(unit, requires_grad=True)
    mu, sd = layer_stats(unit, sizes)
    with Tape() as tape:
        bits = rate_bits_train(flat, noise, mu, sd, sizes)

    def grad():
        if not np.isfinite(bits.data):
            return None
        tape.backward(bits)
        return flat.grad

    return bits.data, grad, (mu, sd)


def _rate_node(unit: Tensor, noise: np.ndarray, sizes, worker):
    """The rate term over ``unit`` as one node of the active tape;
    returns ``(rate, (mu, sd))``, both as :func:`training_step_loss`
    describes.  Its backward pass multiplies the gradient of
    :func:`_score_rate` by the rate's own."""
    tape = active_tape()
    taped = tape is not None and unit.requires_grad
    rate = Tensor(np.zeros((), unit.dtype), requires_grad=unit.requires_grad)
    if taped and worker is not None and worker.send(unit.data, noise):
        stats = None

        def reply():
            rate.data, grad = worker.receive()
            return grad
    else:
        rate.data, reply, stats = _score_rate(unit.data, noise, sizes)
    if taped:
        def backward(g):
            grad = reply()
            return (None if grad is None else grad * g,)
        tape.record(rate, (unit,), backward)
    return rate, stats


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
    noise_rng = make_rng(seed, STREAM_NOISE)

    targets = frames.transpose(0, 2, 3, 1).astype(np.float32)
    t_norms = frame_timestamps(len(frames))
    epoch_logs: list[dict] = []

    def diverged(epoch, step):
        return NumericError(f"loss diverged at epoch {epoch} step {step}")

    with _rate_worker(init, epochs * len(frames)) as worker:
        for epoch in range(epochs):
            lr = lr_at(epoch, epochs, base_lr)
            rate_sum = 0.0
            mse_sum = 0.0
            for step in range(len(frames)):
                # PCG64 spends one word per double, so one draw for all
                # layers equals one draw per layer, joined
                noise = noise_rng.uniform(-0.5, 0.5, size=init.flat.size)
                try:
                    with Tape() as tape:
                        loss, rate, mse, _ = training_step_loss(
                            config, theta_prime, theta_star, log_scales,
                            targets[step:step + 1], t_norms[step:step + 1],
                            cfg.lam, noise, worker)
                    if not np.isfinite(loss.data):
                        raise diverged(epoch, step)
                    tape.backward(loss)
                except Exception:
                    # the serial step scores its rate term first, so an
                    # error of the rate term comes before this one
                    if worker is not None:
                        worker.settle()
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


def _walk_gom(config: BackboneConfig, seed: int, plan: PartitionPlan,
              gom_index: int, epsilon_of, finish, models=None,
              state=(None, None)):
    """The I/P warm-start chain of one group, shared by encoder and decoder.

    The I model starts from its seeded random init; every P model starts
    from ``interpolate_init`` of its predecessor's init and final
    parameters at ``epsilon_of(gop_index)``.  So a model draws its init
    only where it is read: every I model, and a P model with a successor
    in the group.  Each draw depends on its model's seed alone, so skipping
    the group's last P draw changes no value of the chain, and another
    decoder that draws every init decodes the same frames.
    ``finish(gop_index, role, epsilon, theta_prime)`` turns the start into
    ``(final parameters, result)``.

    Walks the models ``range(*models)``, the whole group by default;
    a walk that starts after the group's first model continues from
    ``state``, the ``(random init, final parameters)`` of the model before
    it.  Yields ``(gop_index, state, result)`` per model, its ``state``
    the one the next model starts from, and renders nothing: the caller
    renders each clip from ``state[1]`` (:func:`_render_clip`).
    """
    end = plan.goms[gom_index][1]
    prev_rand, prev_theta = state
    for gop_index in range(*(models or plan.goms[gom_index])):
        role = plan.role_of(gop_index)
        rand = (init_random(config, model_seed(seed, gop_index))
                if role == ROLE_I or gop_index + 1 < end else None)
        if role == ROLE_I:
            epsilon, theta_prime = np.float32(0.0), rand
        else:
            epsilon = epsilon_of(gop_index)
            theta_prime = interpolate_init(prev_rand, prev_theta,
                                           float(epsilon))
        prev_rand, prev_theta = rand, None  # not kept alive in finish
        prev_theta, result = finish(gop_index, role, epsilon, theta_prime)
        yield gop_index, (rand, prev_theta), result


def _gom_frames(config: BackboneConfig, plan: PartitionPlan,
                gom_index: int) -> np.ndarray:
    """An empty (n, 3, H, W) uint8 buffer for the frames of one group."""
    start, stop = plan.gom_frame_range(gom_index)
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

    rendered, rows = _gom_frames(config, plan, gom_index), []
    for gop_index, state, row in _walk_gom(config, cfg.seed, plan,
                                           gom_index, epsilon_of, finish):
        _render_clip(config, plan, gop_index, state[1], rendered, offset)
        rows.append(row)
        del state  # not kept while the next model trains
    mse = metrics.frame_mse(frames, rendered)
    for _, log, _ in rows:  # scored once the walk has rendered the clip
        start, stop = (i - offset for i in plan.gops[log.index])
        log.final_mse = float(np.mean(mse[start:stop])) / 255.0 ** 2
    return rendered, mse, rows


# the most processes one encode or decode runs on; two is what has been
# measured (docs/resources.md), and each child adds its own dirty memory
_MAX_GROUP_WORKERS = 2

# true while this process runs a fan-out that forks, and in each child it
# forks: a fan-out started then runs serially, so groups and the models of
# one group never fan out at once
_fanned_out = False


def _workers(count: int) -> int:
    """Processes that run ``count`` units of work (groups, the models of
    one group, or the network and the rate term of a training step): one
    per CPU this process may use, at most one per unit and at most
    ``_MAX_GROUP_WORKERS``.  A fork copies only the calling thread, so
    there is one while another Python thread is alive, one inside a live
    fan-out, and one where the OS has no ``fork`` or no
    ``sched_getaffinity``."""
    if (_fanned_out or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    affinity = getattr(os, "sched_getaffinity", lambda pid: {0})
    return min(count, len(affinity(0)), _MAX_GROUP_WORKERS)


# a child's one send, a module name so that a test can cut it short
def _send(out, result) -> None:
    pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
    out.flush()  # not held back in the buffer until the next send


def _serve(messages, fd: int, inherited, requests=None) -> None:
    """A forked worker: pickle each item of the iterable ``messages`` to
    ``fd`` in order, stopping at the first error, which the parent meets
    again when it does that work itself; given the descriptor
    ``requests``, the items of ``messages(its reader)``.  It closes the
    pipe ends it ``inherited``, so that a parent that dies leaves it a
    broken pipe or an empty one, never a full or open one, and it leaves
    by ``os._exit``, so no buffer or handler of the parent runs twice."""
    try:
        for pipe in inherited:
            pipe.close()
        if requests is not None:
            messages = messages(os.fdopen(requests, "rb"))
        with os.fdopen(fd, "wb") as out:
            for message in messages:
                _send(out, message)
    finally:
        os._exit(0)


def _receive(pipe, otherwise):
    """The next message a child sent down ``pipe``, or ``otherwise()``
    where there is no child or it ended before it sent the message in
    full (a short or empty pickle)."""
    if pipe is not None:
        with suppress(EOFError, pickle.UnpicklingError):
            return pickle.load(pipe)
    return otherwise()


@contextmanager
def _children():
    """A fan-out's forks: yields ``spawn(messages)``, which forks a child
    that sends each item of ``messages`` (see :func:`_serve`) and returns
    the pipe to read them from, or ``None`` where no descriptor or process
    is to spare.  ``spawn(messages, requests=True)`` also opens a pipe to
    the child: the child sends each item of ``messages(its read end)``,
    and spawn returns ``(pipe to read, pipe to write)``.  The fan-out is
    live until the block ends, so a fan-out started in it, or in a child,
    runs serially; then every child is killed and reaped."""
    global _fanned_out
    ends, pids = [], []  # this process's end of every pipe, to close

    def spawn(messages, requests=False):
        fds = []
        try:
            for _ in range(1 + requests):
                fds += os.pipe()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        # fds: the pipe from the child (read, write), then the one to it;
        # this process keeps the first read end and the second write end,
        # and every child closes them (see _serve)
        mine = [os.fdopen(fds[0], "rb")]
        if requests:
            mine.append(os.fdopen(fds[3], "wb"))
        ends.extend(mine)
        try:
            pid = os.fork()
            if pid == 0:
                _serve(messages, fds[1], ends, fds[2] if requests else None)
            pids.append(pid)
        except OSError:
            return None
        finally:
            for fd in fds[1:3]:  # the child's ends
                os.close(fd)
        return tuple(mine) if requests else mine[0]

    # numpy loads numpy.random on first use; a child that draws an init
    # would otherwise load it on its own critical path, once per fork
    import numpy.random  # noqa: F401
    _fanned_out = True  # before any fork, so each child has it too
    try:
        yield spawn
    finally:
        for end in ends:
            # a request end whose worker has gone cannot flush
            with suppress(OSError):
                end.close()
        for pid in pids:
            # gone already where SIGCHLD is ignored, which reaps children
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        _fanned_out = False


def _rate_reply(unit: np.ndarray, noise: np.ndarray, sizes):
    """``(bits, d bits / d unit)`` of :func:`_score_rate`: a rate
    worker's reply to one step."""
    bits, grad, _ = _score_rate(unit, noise, sizes)
    return bits, grad()


def _rate_replies(requests, sizes, dtype):
    """A rate worker's messages: for each request read from ``requests``,
    one step's ``unit`` in ``dtype`` and its float64 noise as raw bytes,
    its :func:`_rate_reply`.  They end when the parent closes its end, or
    dies."""
    count = sum(sizes)
    size = count * (np.dtype(dtype).itemsize + 8)
    while len(request := requests.read(size)) == size:
        unit = np.frombuffer(request, dtype, count)
        noise = np.frombuffer(request, np.float64, count,
                              offset=size - 8 * count)
        yield _rate_reply(unit, noise, sizes)


class _RateWorker:
    """A forked process that scores each training step's rate term
    (:func:`_score_rate`) while this process renders and walks the network
    backward.  :meth:`send` hands it one step, and :meth:`receive` reads
    its reply, once per step.  A worker that could not start, failed or
    died hands that step and every later one back to this process, which
    so raises the serial step's error."""

    def __init__(self, spawn, params: ParamVector):
        self.sizes = params.sizes
        self.pipes = spawn(lambda requests: _rate_replies(
            requests, self.sizes, params.dtype), requests=True)
        self.pending = None

    def send(self, unit: np.ndarray, noise: np.ndarray) -> bool:
        """Hand the worker one step; False where it has none to take it."""
        if self.pipes is None:
            return False
        try:
            self.pipes[1].write(unit)
            self.pipes[1].write(noise)
            self.pipes[1].flush()
        except OSError:  # the worker has gone
            self.pipes = None
            return False
        self.pending = unit, noise
        return True

    def receive(self):
        """The :func:`_rate_reply` to the step last sent, from the worker
        or, where it sent none in full, scored here."""
        (unit, noise), self.pending = self.pending, None

        def here():
            self.pipes = None
            return _rate_reply(unit, noise, self.sizes)

        return _receive(self.pipes[0], here)

    def settle(self) -> None:
        """Read the reply of a step sent but not yet received."""
        if self.pending is not None:
            self.receive()


@contextmanager
def _rate_worker(params: ParamVector, steps: int):
    """A :class:`_RateWorker` for training ``params``, or None where there
    are no ``steps`` or no second core to run it (:func:`_workers`); it is
    killed and reaped when the block ends."""
    if steps == 0 or _workers(2) == 1:
        yield None
        return
    with _children() as spawn:
        yield _RateWorker(spawn, params)


def _fan_out(count: int, run):
    """``run(index)`` of every unit in ``range(count)``, yielded in order,
    on :func:`_workers` processes; unit ``i`` runs on worker
    ``i % workers``.  This process is worker 0 and runs its units as they
    are asked for; each other worker is a forked child that runs its units
    at once and pickles their results down a pipe.  A unit the child ended
    before it sent in full, and every unit whose child could not be
    started, runs here, so a failing unit raises the serial walk's error
    here.  One worker forks nothing.  However the walk ends, every child
    is killed and reaped."""
    workers = _workers(count)
    if workers == 1:
        yield from map(run, range(count))
        return
    with _children() as spawn:
        pipes = [None]
        for worker in range(1, workers):
            pipes.append(spawn(run(index)
                               for index in range(worker, count, workers)))
        for index in range(count):
            # not bound here, so that only the caller holds a unit past
            # its yield
            yield _receive(pipes[index % workers], lambda: run(index))


def encode_video(video: RawVideo, plan: PartitionPlan,
                 config: BackboneConfig, cfg: TrainConfig, *,
                 keep_reference: bool = False) -> EncodeResult:
    """Run the full encoder; returns the bitstream plus a report.

    The model groups are encoded on up to two processes (see the module
    docstring).  The bytes equal a serial encode's, and a failing group
    raises the serial encode's error.  Each group is scored as it comes
    back; only its frames' squared errors are kept, and its frames too
    when ``keep_reference`` asks for the reconstruction.
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

    def run(index):
        rendered, mse, rows = _encode_gom(
            video.frames[slice(*plan.gom_frame_range(index))], plan, config,
            cfg, index)
        return rendered if keep_reference else None, mse, rows

    rows, mses, clips = [], [], []
    with closing(_fan_out(plan.gom_count, run)) as groups:
        for rendered, mse, group_rows in groups:
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


def decode_gom(reader: BitstreamReader,
               gom_index: int) -> tuple[RawVideo, tuple[int, int]]:
    """Decode one group via random access; reads only its payload range.

    A group of two or more models splits at its middle model over two
    processes (see the module docstring).  A forked child takes the first
    half: it range-decodes and walks its models, pickles the chain's state
    at the boundary (the last model's final parameters and random init)
    down a pipe, then renders its clips and sends their frames.  This
    process meanwhile range-decodes the second half's payloads, continues
    the chain from the child's state, rendering each clip as the walk
    reaches it, and last copies in the child's frames.  A half the child
    did not finish runs here.  Inside a whole-video decode that already
    runs groups on two processes, the models decode serially.  The frames,
    and the error of a bad model, are the serial walk's.
    """
    header = reader.header
    config, plan = header.config, header.plan
    if not 0 <= gom_index < plan.gom_count:
        raise ConfigError(f"gom index {gom_index} outside "
                          f"[0, {plan.gom_count})")
    first, end = plan.goms[gom_index]
    middle = first + (end - first) // 2
    offset = plan.gom_frame_range(gom_index)[0]
    split = plan.gops[middle][0] - offset  # the second half's first frame
    frames = _gom_frames(config, plan, gom_index)
    sizes = [spec.count for spec in param_layout(config)]
    decoded = {}  # symbols of the second half, decoded ahead of its walk

    def symbols_of(gop_index):
        rec = header.records[gop_index]
        return decode_symbols(reader.read_payload(gop_index),
                              build_models(rec.mu, rec.sd, rec.bound), sizes)

    def finish(gop_index, role, epsilon, theta_prime):
        rec = header.records[gop_index]
        symbols = decoded.pop(gop_index, None)
        if symbols is None:
            symbols = symbols_of(gop_index)
        with np.errstate(over="ignore"):  # refused just below
            theta = apply_residual(theta_prime, symbols, rec.scale)
        del symbols
        if not np.isfinite(theta.flat.data).all():
            raise BitstreamError(f"model {gop_index}: scales and symbols "
                                 f"overflow the parameters")
        return theta, None

    def walk(models, state=(None, None)):
        return _walk_gom(config, header.seed, plan, gom_index,
                         lambda gop_index: header.records[gop_index].epsilon,
                         finish, models, state)

    def here(models, state=(None, None)):
        """Walk ``models`` and render each clip as the walk reaches it, the
        serial order; returns the chain's state after the last model."""
        for gop_index, state, _ in walk(models, state):
            _render_clip(config, plan, gop_index, state[1], frames, offset)
        return state

    def first_half():
        """The child's messages: the chain's state at the middle, then
        the frames of the first half's clips."""
        thetas = []
        for _, state, _ in walk((first, middle)):
            thetas.append(state[1])
        yield state
        for gop_index, theta in zip(range(first, middle), thetas):
            _render_clip(config, plan, gop_index, theta, frames, offset)
        yield frames[:split]

    def copy_first_half(pipe):
        """The first half's frames from the child at ``pipe``, or, where
        it sent none, walked and rendered here, which raises the half's
        first error."""
        if pipe is None:  # rendered here already
            return
        sent = _receive(pipe, lambda: None)
        if sent is None:
            here((first, middle))
        else:
            frames[:split] = sent

    try:
        if _workers(end - first) == 1:
            here((first, end))
        else:
            with _children() as spawn:
                pipe = spawn(first_half())
                for gop_index in range(middle, end):
                    try:
                        decoded[gop_index] = symbols_of(gop_index)
                    except Exception:  # met again where the walk gets to it
                        break
                state = _receive(pipe, lambda: None)
                if state is None:  # the child ended before its handover
                    state, pipe = here((first, middle)), None
                try:
                    here((middle, end), state)
                except Exception:
                    # the first half comes first in the serial order, so
                    # an error of its replaces this one
                    copy_first_half(pipe)
                    raise
                copy_first_half(pipe)
    except NumericError as exc:  # only the render raises it here
        raise BitstreamError(str(exc)) from None
    return (RawVideo(width=header.width, height=header.height,
                     frames=frames), plan.gom_frame_range(gom_index))


def _decode_groups(reader: BitstreamReader, gom_index: int | None = None):
    """:func:`decode_gom` of one group, or of every group in order, run
    lazily.  Every group is the whole stream, so the call itself first
    refuses a stream shorter than its header declares, and the groups, or
    a one-group stream's models, run on up to two processes (see the
    module docstring); close the iterator when done with it, so that no
    worker outlives it."""
    if gom_index is not None:
        return (decode_gom(reader, index) for index in [gom_index])
    reader.check_complete()
    return _fan_out(reader.header.plan.gom_count,
                    lambda index: decode_gom(reader, index))


def decode_video(data: bytes) -> RawVideo:
    """Reconstruct the full video from bitstream bytes (pure function).

    The groups decode in parallel, on up to two worker processes, or, in
    a one-group stream, the models do (see the module docstring); each
    group is copied into the output as it arrives in order.  The frames
    equal a serial decode's, and an invalid stream raises the error of
    its first bad group, as a serial decode does."""
    reader = BitstreamReader.from_bytes(data)
    header = reader.header
    with closing(_decode_groups(reader)) as groups:
        frames = np.empty((header.frame_count, 3, header.height,
                           header.width), dtype=np.uint8)
        for part, (start, stop) in groups:
            frames[start:stop] = part.frames
            del part  # not kept while the next group decodes
    return RawVideo(width=header.width, height=header.height, frames=frames)
