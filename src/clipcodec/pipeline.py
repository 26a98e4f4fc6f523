"""Encode/decode orchestration.

A video is split into clips (GOPs); each clip gets its own model
instance.  Clips are grouped into model groups (GOMs): the first model of
a group trains and codes independently (I), every later model (P) is
warm-started from its predecessor and only the quantized difference
between its trained parameters and that warm start is entropy-coded.
Groups never reference each other, so they decode independently and may
be encoded in parallel.

Training follows a strict quantization-aware regime: every step renders
with the warm start plus the straight-through-rounded residual, so the
distortion seen during training equals the distortion after decoding by
construction.  The rate term scores the noisy scaled residual under
per-layer Gaussian statistics that are recomputed each step and frozen
into the header at the end.
"""

from __future__ import annotations

import functools
import json
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import detmath, metrics, ops
from .backbone import (BackboneConfig, config_to_text, forward_clip,
                       forward_frame, frame_timestamps, init_random)
from .bitstream import (BitstreamReader, ModelRecord, ROLE_I, ROLE_P,
                        write_bitstream)
from .coder import build_models, decode_symbols, encode_symbols
from .errors import BitstreamError, ConfigError, NumericError
from .optim import adam_init, adam_step, lr_at
from .params import ParamVector
from .ratequant import (LayerStats, QuantScale, apply_residual,
                        initial_scales, layer_stats, quantize, rate_bits_eval,
                        rate_bits_train, residual, widen_steps)
from .seeds import STREAM_NOISE, make_rng, model_seed
from .tensor import Tape, Tensor
from .video import RawVideo, denormalize
from .warmstart import (EpsilonSchedule, epsilon_for, gop_gap_mse,
                        interpolate_init)


@dataclass(frozen=True)
class PartitionPlan:
    """GOP/GOM decomposition of a frame range."""

    frame_count: int
    gop_size: int
    gom_size: int
    gops: tuple[tuple[int, int], ...]   # frame index ranges [start, end)
    goms: tuple[tuple[int, int], ...]   # gop index ranges [start, end)

    @property
    def gop_count(self) -> int:
        return len(self.gops)

    @property
    def gom_count(self) -> int:
        return len(self.goms)

    def gom_frame_range(self, gom_index: int) -> tuple[int, int]:
        first, end = self.goms[gom_index]
        return self.gops[first][0], self.gops[end - 1][1]

    def role_of(self, gop_index: int) -> str:
        if not 0 <= gop_index < self.gop_count:
            raise ConfigError(f"gop index {gop_index} outside plan")
        return ROLE_I if gop_index % self.gom_size == 0 else ROLE_P


# decode_video asks for one stream's plan once per group
@functools.lru_cache(maxsize=1)
def partition(frame_count: int, gop_size: int, gom_size: int) -> PartitionPlan:
    """Contiguous, disjoint clips covering [0, T); short tails allowed.

    ``gop_size`` counts frames per clip (one model per clip) and
    ``gom_size`` counts clips, i.e. models, per group: 8 frames with
    ``gop_size=2, gom_size=2`` make four clips in two groups.  The first
    clip of a group is its I model and the rest are P models, so a group
    with a single clip has no P model.
    """
    if frame_count < 1 or gop_size < 1 or gom_size < 1:
        raise ConfigError(f"partition needs positive T/p/m, got "
                          f"{frame_count}/{gop_size}/{gom_size}")
    gops = tuple((start, min(start + gop_size, frame_count))
                 for start in range(0, frame_count, gop_size))
    goms = tuple((first, min(first + gom_size, len(gops)))
                 for first in range(0, len(gops), gom_size))
    return PartitionPlan(frame_count=frame_count, gop_size=gop_size,
                         gom_size=gom_size, gops=gops, goms=goms)


@dataclass(frozen=True)
class TrainConfig:
    """Training settings.  The CLI's ``encode`` takes its defaults from
    here, so a library caller gets the same operating point."""

    epochs_i: int = 60
    epochs_p: int = 40
    lr_i: float = 1e-2
    lr_p: float = 1e-2
    lam: float = 1e6
    warmup_frac: float = 0.1
    seed: int = 0
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)

    def __post_init__(self):
        if self.epochs_i < 0 or self.epochs_p < 0:
            raise ConfigError("epoch budgets must be >= 0")
        if self.lr_i <= 0 or self.lr_p <= 0 or self.lam <= 0:
            raise ConfigError("learning rates and lambda must be positive")
        if not 0.0 < self.warmup_frac < 1.0:
            raise ConfigError("warmup_frac must lie in (0, 1)")


def training_step_loss(config: BackboneConfig, theta_prime: ParamVector,
                       theta_star: ParamVector, log_scales: ParamVector,
                       target_hw3: np.ndarray, t_norm: float, lam: float,
                       noise):
    """Build one training-step graph; returns (loss, rate, mse, stats).

    Rendering uses the warm start plus the straight-through-rounded
    residual on the trained lattice, so train-time distortion equals
    decode-time distortion.  The rate term scores the noisy scaled
    residual; (mu, sd) statistics are per-step constants.  ``noise`` is
    one uniform(-1/2, 1/2) array with every layer's noise in layout order.

    The lattice is one op chain over all layers, flattened and joined in
    layout order: each layer's step size ``exp(log_scale)`` is spread over
    its elements, ``unit = (star - prime) / step`` is what the rate term
    scores, and ``prime + ste_round(unit) * step``, cut back into layers,
    is what the network renders with.  Every value and gradient equals a
    chain per layer: the step sizes enter the division and the product
    as two separate spreads, so each path's log-scale gradient is reduced
    over its layer on its own, in the layer's shape, before the two are
    added.
    """
    names = theta_star.names
    star = theta_star.tensors()
    shapes = [t.shape for t in star]
    sizes = [t.size for t in star]
    steps = ops.exp(ops.concat_flat([log_scales[name] for name in names]))
    prime = ops.constant(np.concatenate(
        [theta_prime[name].data.reshape(-1) for name in names]))
    delta = ops.sub(ops.concat_flat(star), prime)
    unit = ops.div(delta, ops.broadcast_segments(steps, shapes))
    snapped = ops.mul(ops.ste_round(unit),
                      ops.broadcast_segments(steps, shapes))
    effective = dict(zip(names, ops.split_flat(ops.add(prime, snapped),
                                               shapes)))
    ends = np.cumsum(sizes)
    stats = layer_stats([unit.data[end - n:end].reshape(shape)
                         for n, end, shape in zip(sizes, ends, shapes)],
                        names)
    rate = rate_bits_train(unit, noise, stats, sizes)
    frame = forward_frame(config, effective, t_norm)
    mse = ops.mean_square(ops.sub(frame, ops.constant(target_hw3)))
    loss = ops.add(rate, ops.mul(mse, lam))
    return loss, rate, mse, stats


@dataclass
class TrainedModel:
    theta_star: ParamVector          # lattice-snapped final parameters
    symbols: list[np.ndarray]        # per-layer integer residual symbols
    scales: QuantScale
    stats: LayerStats
    final_mse: float
    frames: np.ndarray               # (n, 3, H, W) uint8 rendered clip
    epoch_logs: list[dict]


def _freeze_lattice(theta_prime: ParamVector, theta_star: ParamVector,
                    log_scales: ParamVector, dtype):
    """Snap the live parameters to their float32 quantization lattice.

    A layer's trained step ``exp(log_scale)`` is widened where its peak
    symbol would pass the coder's alphabet, before anything uses it: the
    stats, the recorded scale and the reconstruction all see one step.
    """
    names = tuple(theta_prime.names)
    scale_values = np.asarray(
        [detmath.exp(float(log_scales[name].data)) for name in names],
        dtype=np.float32)
    delta = residual(theta_star, theta_prime)
    scales = widen_steps(delta, QuantScale(names, scale_values))
    symbols = quantize(delta, scales)
    scaled = [(tensor.data / dtype(value)).reshape(-1)
              for (name, tensor), value in zip(delta.items(), scales.values)]
    stats = layer_stats(scaled, names)
    theta_final = apply_residual(theta_prime, symbols, scales)
    return theta_final, symbols, scales, stats


def _render_clip(config: BackboneConfig, params: ParamVector,
                 targets: np.ndarray, t_norms):
    """Render a clip once; returns (mean frame MSE, (n, 3, H, W) uint8)."""
    frames = np.empty((len(targets), 3, config.frame_height,
                       config.frame_width), dtype=np.uint8)
    total = 0.0
    for i, (out, target) in enumerate(
            zip(forward_clip(config, params, t_norms), targets)):
        diff = out.astype(np.float64) - target.astype(np.float64)
        total += float(np.mean(diff * diff))
        frames[i] = denormalize(out).transpose(2, 0, 1)
    return total / max(len(targets), 1), frames


def train_model(role: str, frames: np.ndarray, init: ParamVector,
                config: BackboneConfig, cfg: TrainConfig,
                seed: int) -> TrainedModel:
    """Fit one clip model and produce its codable residual.

    ``frames`` is the clip's (n, 3, H, W) normalized pixel data; ``init``
    is the warm start (random for I-models, blended for P-models).  Runs
    epochs * n steps, one frame per step in clip order.  The returned
    parameters are snapped to the quantization lattice, i.e. exactly what
    a decoder reconstructs from the symbols.
    """
    epochs = cfg.epochs_i if role == ROLE_I else cfg.epochs_p
    base_lr = cfg.lr_i if role == ROLE_I else cfg.lr_p
    dtype = config.dtype

    theta_prime = init
    theta_star = init.clone(requires_grad=True)
    scales0 = initial_scales(init)
    log_scales = ParamVector([
        (name, Tensor(np.asarray(detmath.log(value), dtype=dtype),
                      requires_grad=True))
        for name, value in zip(init.names, scales0.values)])
    opt_theta = adam_init(theta_star)
    opt_scales = adam_init(log_scales)
    noise_rng = make_rng(seed, STREAM_NOISE)

    targets = frames.transpose(0, 2, 3, 1).astype(dtype)
    t_norms = frame_timestamps(len(frames))
    epoch_logs: list[dict] = []
    for epoch in range(epochs):
        lr = lr_at(epoch, epochs, base_lr, cfg.warmup_frac)
        rate_sum = 0.0
        mse_sum = 0.0
        for step, (t_norm, target) in enumerate(zip(t_norms, targets)):
            # PCG64 spends one word per double, so one draw for all layers
            # equals one draw per layer, joined
            noise = noise_rng.uniform(-0.5, 0.5, size=init.total_count)
            with Tape() as tape:
                loss, rate, mse, _ = training_step_loss(
                    config, theta_prime, theta_star, log_scales, target,
                    t_norm, cfg.lam, noise)
            if not np.isfinite(loss.data):
                raise NumericError(f"loss diverged at epoch {epoch} "
                                   f"step {step}")
            tape.backward(loss)
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

    theta_final, symbols, scales, stats = _freeze_lattice(
        theta_prime, theta_star, log_scales, dtype)
    final_mse, rendered = _render_clip(config, theta_final, targets, t_norms)
    return TrainedModel(theta_star=theta_final,
                        symbols=[s.reshape(-1) for s in symbols],
                        scales=scales, stats=stats,
                        final_mse=final_mse, frames=rendered,
                        epoch_logs=epoch_logs)


@dataclass
class ModelLog:
    index: int
    role: str
    epsilon: float
    payload_bits: int
    estimate_bits: float
    train_seconds: float
    final_mse: float
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
              gom_index: int, epsilon_of, finish) -> list:
    """The I/P warm-start chain of one group, shared by encoder and decoder.

    Each model draws its seeded random init.  The I model starts from that
    init; every P model starts from ``interpolate_init`` of its
    predecessor's init and final parameters at ``epsilon_of(gop_index)``.
    ``finish(gop_index, role, epsilon, theta_prime)`` turns the start into
    ``(final parameters, result)``; the results are returned in order.
    """
    first, end = plan.goms[gom_index]
    results = []
    prev_rand: ParamVector | None = None
    prev_theta: ParamVector | None = None
    for gop_index in range(first, end):
        rand = init_random(config, model_seed(seed, gop_index))
        if gop_index == first:
            role, epsilon, theta_prime = ROLE_I, np.float32(0.0), rand
        else:
            role, epsilon = ROLE_P, epsilon_of(gop_index)
            theta_prime = interpolate_init(prev_rand, prev_theta,
                                           float(epsilon))
        prev_rand, prev_theta = rand, None  # not kept alive in finish
        prev_theta, result = finish(gop_index, role, epsilon, theta_prime)
        results.append(result)
    return results


def _encode_gom(frames: np.ndarray, plan: PartitionPlan,
                config: BackboneConfig, cfg: TrainConfig, gom_index: int):
    """Train and code every model of one group (self-contained worker).

    ``frames`` holds the group's (n, 3, H, W) uint8 frames only.  Returns
    one ``(record, log, payload, rendered frames)`` row per model.
    """
    offset = plan.gom_frame_range(gom_index)[0]
    normalized = RawVideo(width=config.frame_width,
                          height=config.frame_height,
                          frames=frames).normalized(config.dtype)

    def clip(gop_index):
        start, stop = plan.gops[gop_index]
        return normalized[start - offset:stop - offset]

    def epsilon_of(gop_index):
        gap = gop_gap_mse(clip(gop_index - 1), clip(gop_index))
        return np.float32(epsilon_for(gap, cfg.schedule))

    def finish(gop_index, role, epsilon, theta_prime):
        tic = time.perf_counter()
        trained = train_model(role, clip(gop_index), theta_prime, config,
                              cfg, model_seed(cfg.seed, gop_index))
        seconds = time.perf_counter() - tic

        bounds = np.asarray(
            [max(1, int(np.max(np.abs(sym))) if sym.size else 1)
             for sym in trained.symbols], dtype=np.uint32)
        models = build_models(trained.stats.mu, trained.stats.sd, bounds)
        payload = encode_symbols(trained.symbols, models,
                                 names=tuple(theta_prime.names))
        estimate = rate_bits_eval(trained.symbols, trained.stats)
        record = ModelRecord(
            index=gop_index, role=role, epsilon=float(epsilon),
            scale=trained.scales.values, mu=trained.stats.mu,
            sd=trained.stats.sd, bound=bounds, payload_len=len(payload),
            payload_crc=zlib.crc32(payload))
        log = ModelLog(
            index=gop_index, role=role, epsilon=float(epsilon),
            payload_bits=8 * len(payload),
            estimate_bits=estimate.total_bits, train_seconds=seconds,
            final_mse=trained.final_mse, epoch_logs=trained.epoch_logs)
        return trained.theta_star, (record, log, payload, trained.frames)

    return _walk_gom(config, cfg.seed, plan, gom_index, epsilon_of, finish)


def _gom_worker(args):
    return _encode_gom(*args)


def encode_video(video: RawVideo, plan: PartitionPlan,
                 config: BackboneConfig, cfg: TrainConfig, *, jobs: int = 1,
                 keep_reference: bool = False,
                 log_path=None) -> EncodeResult:
    """Run the full encoder; returns the bitstream plus a report.

    ``jobs`` worker processes encode the model groups in parallel; no
    more are started than there are groups.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if plan.frame_count != video.frame_count:
        raise ConfigError(f"plan covers {plan.frame_count} frames, video "
                          f"has {video.frame_count}")
    if (config.frame_height, config.frame_width) != (video.height,
                                                     video.width):
        raise ConfigError(f"backbone renders "
                          f"{config.frame_height}x{config.frame_width}, "
                          f"video is {video.height}x{video.width}")
    wall_start = time.perf_counter()
    tasks = [(video.frames[slice(*plan.gom_frame_range(g))], plan, config,
              cfg, g) for g in range(plan.gom_count)]
    if jobs > 1 and plan.gom_count > 1:
        # imported here so single-process runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=min(jobs, plan.gom_count)) as pool:
            gom_results = list(pool.map(_gom_worker, tasks))
    else:
        gom_results = [_gom_worker(task) for task in tasks]

    records, per_model, payloads, clips = map(list, zip(
        *(row for rows in gom_results for row in rows)))

    data = write_bitstream(video.width, video.height, video.frame_count,
                           plan.gop_size, plan.gom_size, cfg.seed,
                           config.precision, config_to_text(config),
                           records, payloads)

    recon = RawVideo(width=config.frame_width, height=config.frame_height,
                     frames=np.concatenate(clips))
    quality = metrics.psnr(video, recon)
    bpp = len(data) * 8.0 / video.pixel_count

    if log_path is not None:
        with open(log_path, "w") as fh:
            for log in per_model:
                for entry in log.epoch_logs:
                    fh.write(json.dumps({"model": log.index,
                                         "role": log.role, **entry}) + "\n")

    return EncodeResult(
        data=data, per_model=per_model, bpp=bpp, psnr_mean=quality.mean,
        wall_seconds=time.perf_counter() - wall_start,
        recon=recon if keep_reference else None)


def render_video(config: BackboneConfig, params: ParamVector,
                 frames: np.ndarray) -> None:
    """Render one clip into ``frames``, its (n, 3, H, W) uint8 output, in
    one :func:`forward_clip` call; parameters no encoder could have
    trained may overflow the network, which raises :class:`NumericError`.
    """
    clip = forward_clip(config, params, frame_timestamps(len(frames)))
    with np.errstate(over="ignore", invalid="ignore"):
        for index, out in enumerate(clip):
            frames[index] = denormalize(out).transpose(2, 0, 1)


def decode_gom(reader: BitstreamReader,
               gom_index: int) -> tuple[RawVideo, tuple[int, int]]:
    """Decode one group via random access; reads only its payload range.

    Each model decodes its own payload and renders its clip once its
    coder tables and symbols are freed.
    """
    header = reader.header
    plan = partition(header.frame_count, header.gop_size, header.gom_size)
    if not 0 <= gom_index < plan.gom_count:
        raise ConfigError(f"gom index {gom_index} outside "
                          f"[0, {plan.gom_count})")
    start, stop = plan.gom_frame_range(gom_index)
    frames = np.empty((stop - start, 3, header.height, header.width),
                      dtype=np.uint8)

    def finish(gop_index, role, epsilon, theta_prime):
        rec = header.records[gop_index]
        symbols = decode_symbols(reader.read_payload(gop_index),
                                 build_models(rec.mu, rec.sd, rec.bound),
                                 [t.size for t in theta_prime.tensors()])
        scales = QuantScale(theta_prime.names, rec.scale.astype(np.float32))
        with np.errstate(over="ignore"):  # refused just below
            theta = apply_residual(theta_prime, symbols, scales)
        del symbols
        if not all(np.isfinite(t.data).all() for t in theta.tensors()):
            raise BitstreamError(f"model {gop_index}: scales and symbols "
                                 f"overflow the parameters")
        first, end = (i - start for i in plan.gops[gop_index])
        try:
            render_video(header.config, theta, frames[first:end])
        except NumericError as exc:
            raise BitstreamError(f"clip {gop_index}: {exc}") from None
        return theta, None

    _walk_gom(header.config, header.seed, plan, gom_index,
              lambda gop_index: header.records[gop_index].epsilon, finish)
    return (RawVideo(width=header.width, height=header.height,
                     frames=frames), (start, stop))


def _decode_groups(reader: BitstreamReader, gom_index: int | None = None):
    """:func:`decode_gom` of one group, or of every group in order, run
    lazily.  Every group is the whole stream, so the call itself first
    refuses a stream shorter than its header declares."""
    if gom_index is None:
        reader.check_complete()
    every = range(-(-len(reader.header.records) // reader.header.gom_size))
    return (decode_gom(reader, index)
            for index in (every if gom_index is None else [gom_index]))


def decode_video(data: bytes) -> RawVideo:
    """Reconstruct the full video from bitstream bytes (pure function),
    one group at a time."""
    reader = BitstreamReader.from_bytes(data)
    header = reader.header
    groups = _decode_groups(reader)
    frames = np.empty((header.frame_count, 3, header.height, header.width),
                      dtype=np.uint8)
    for part, (start, stop) in groups:
        frames[start:stop] = part.frames
    return RawVideo(width=header.width, height=header.height, frames=frames)
