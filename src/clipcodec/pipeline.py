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

import json
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import detmath, ops
from .backbone import (BackboneConfig, config_from_text, config_to_text,
                       forward_frame, frame_timestamps, init_random,
                       param_layout)
from .bitstream import (BitstreamHeader, BitstreamReader, ModelRecord,
                        ROLE_I, ROLE_P, read_bitstream, write_bitstream)
from .coder import build_model, decode_symbols, encode_symbols
from .errors import BitstreamError, ConfigError, NumericError
from .optim import adam_init, adam_step, lr_at
from .params import ParamVector
from .ratequant import (LayerStats, QuantScale, RateEstimate, apply_residual,
                        initial_scales, layer_stats, quantize, rate_bits_eval,
                        rate_bits_train, residual)
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
        for first, end in self.goms:
            if first <= gop_index < end:
                return ROLE_I if gop_index == first else ROLE_P
        raise ConfigError(f"gop index {gop_index} outside plan")


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
    epochs_i: int = 30
    epochs_p: int = 20
    lr_i: float = 5e-3
    lr_p: float = 5e-3
    lam: float = 5.0
    warmup_frac: float = 0.1
    batch_size: int = 1  # one frame per step; the only supported value
    seed: int = 0
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)

    def __post_init__(self):
        if self.epochs_i < 0 or self.epochs_p < 0:
            raise ConfigError("epoch budgets must be >= 0")
        if self.lr_i <= 0 or self.lr_p <= 0 or self.lam <= 0:
            raise ConfigError("learning rates and lambda must be positive")
        if not 0.0 < self.warmup_frac < 1.0:
            raise ConfigError("warmup_frac must lie in (0, 1)")
        if self.batch_size != 1:
            raise ConfigError("only batch_size=1 is supported")


def training_step_loss(config: BackboneConfig, theta_prime: ParamVector,
                       theta_star: ParamVector, log_scales: ParamVector,
                       target_hw3: np.ndarray, t_norm: float, lam: float,
                       noise, stats_override: LayerStats | None = None):
    """Build one training-step graph; returns (loss, rate, mse, stats).

    Rendering uses the warm start plus the straight-through-rounded
    residual on the trained lattice, so train-time distortion equals
    decode-time distortion.  The rate term scores the noisy scaled
    residual; (mu, sd) statistics are per-step constants.  ``noise`` is
    one uniform(-1/2, 1/2) array with every layer's noise in layout order
    (or one array per layer).

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
    stats = stats_override
    if stats is None:
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
    checkpoint_mse: dict[int, float]


def _freeze_lattice(theta_prime: ParamVector, theta_star: ParamVector,
                    log_scales: ParamVector, dtype):
    """Snap the live parameters to their float32 quantization lattice."""
    names = tuple(theta_prime.names)
    scale_values = np.asarray(
        [detmath.exp(float(log_scales[name].data)) for name in names],
        dtype=np.float32)
    scales = QuantScale(names, scale_values)
    delta = residual(theta_star, theta_prime)
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
    for i, (t_norm, target) in enumerate(zip(t_norms, targets)):
        out = forward_frame(config, params, t_norm).data
        diff = out.astype(np.float64) - target.astype(np.float64)
        total += float(np.mean(diff * diff))
        frames[i] = denormalize(out).transpose(2, 0, 1)
    return total / max(len(targets), 1), frames


def train_model(role: str, frames: np.ndarray, init: ParamVector,
                config: BackboneConfig, cfg: TrainConfig, seed: int,
                checkpoint_epochs=()) -> TrainedModel:
    """Fit one clip model and produce its codable residual.

    ``frames`` is the clip's (n, 3, H, W) normalized pixel data; ``init``
    is the warm start (random for I-models, blended for P-models).  Runs
    epochs * n steps, one frame per step in clip order.  The returned
    parameters are snapped to the quantization lattice, i.e. exactly what
    a decoder reconstructs from the symbols.  ``checkpoint_epochs`` asks
    for the lattice-snapped clip MSE after those many epochs (the decoder
    quality a stream truncated there would deliver).
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
    checkpoints: dict[int, float] = {}
    wanted = set(checkpoint_epochs)
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
        if (epoch + 1) in wanted:
            snapped, _, _, _ = _freeze_lattice(theta_prime, theta_star,
                                               log_scales, dtype)
            checkpoints[epoch + 1], _ = _render_clip(config, snapped,
                                                     targets, t_norms)

    theta_final, symbols, scales, stats = _freeze_lattice(
        theta_prime, theta_star, log_scales, dtype)
    final_mse, rendered = _render_clip(config, theta_final, targets, t_norms)
    return TrainedModel(theta_star=theta_final,
                        symbols=[s.reshape(-1) for s in symbols],
                        scales=scales, stats=stats,
                        final_mse=final_mse, frames=rendered,
                        epoch_logs=epoch_logs,
                        checkpoint_mse=checkpoints)


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
    final_params: list[ParamVector] | None = None

    @property
    def payload_bits(self) -> dict[str, int]:
        totals = {ROLE_I: 0, ROLE_P: 0}
        for log in self.per_model:
            totals[log.role] += log.payload_bits
        return totals


def _encode_gom(normalized: np.ndarray, plan: PartitionPlan,
                config: BackboneConfig, cfg: TrainConfig, gom_index: int):
    """Train and code every model of one group (self-contained worker)."""
    first, end = plan.goms[gom_index]
    results = []
    prev_theta: ParamVector | None = None
    prev_rand: ParamVector | None = None
    for gop_index in range(first, end):
        start, stop = plan.gops[gop_index]
        clip = normalized[start:stop]
        rand = init_random(config, model_seed(cfg.seed, gop_index))
        if gop_index == first:
            role, epsilon = ROLE_I, np.float32(0.0)
            theta_prime = rand
        else:
            role = ROLE_P
            pstart, pstop = plan.gops[gop_index - 1]
            gap = gop_gap_mse(normalized[pstart:pstop], clip)
            epsilon = np.float32(epsilon_for(gap, cfg.schedule))
            theta_prime = interpolate_init(prev_rand, prev_theta,
                                           float(epsilon))
        tic = time.perf_counter()
        trained = train_model(role, clip, theta_prime, config, cfg,
                              model_seed(cfg.seed, gop_index))
        seconds = time.perf_counter() - tic

        bounds = np.asarray(
            [max(1, int(np.max(np.abs(sym))) if sym.size else 1)
             for sym in trained.symbols], dtype=np.uint32)
        models = [build_model(float(mu), float(sd), int(b))
                  for mu, sd, b in zip(trained.stats.mu, trained.stats.sd,
                                       bounds)]
        payload = encode_symbols(trained.symbols, models,
                                 names=tuple(theta_prime.names))
        estimate = rate_bits_eval(trained.symbols, trained.stats)
        results.append({
            "gop_index": gop_index,
            "role": role,
            "epsilon": float(epsilon),
            "scales": trained.scales.values,
            "mu": trained.stats.mu,
            "sd": trained.stats.sd,
            "bounds": bounds,
            "payload": payload,
            "estimate_bits": estimate.total_bits,
            "train_seconds": seconds,
            "final_mse": trained.final_mse,
            "epoch_logs": trained.epoch_logs,
            "theta": trained.theta_star,
            "frames": trained.frames,
        })
        prev_theta = trained.theta_star
        prev_rand = rand
    return results


def _gom_worker(args):
    return _encode_gom(*args)


def encode_video(video: RawVideo, plan: PartitionPlan,
                 config: BackboneConfig, cfg: TrainConfig, *, jobs: int = 1,
                 keep_reference: bool = False,
                 log_path=None) -> EncodeResult:
    """Run the full encoder; returns the bitstream plus a report."""
    if plan.frame_count != video.frame_count:
        raise ConfigError(f"plan covers {plan.frame_count} frames, video "
                          f"has {video.frame_count}")
    if (config.frame_height, config.frame_width) != (video.height,
                                                     video.width):
        raise ConfigError(f"backbone renders "
                          f"{config.frame_height}x{config.frame_width}, "
                          f"video is {video.height}x{video.width}")
    wall_start = time.perf_counter()
    normalized = video.normalized(config.dtype)

    tasks = [(normalized, plan, config, cfg, g) for g in range(plan.gom_count)]
    if jobs > 1 and plan.gom_count > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            gom_results = list(pool.map(_gom_worker, tasks))
    else:
        gom_results = [_gom_worker(task) for task in tasks]

    records: list[ModelRecord] = []
    payloads: list[bytes] = []
    per_model: list[ModelLog] = []
    final_params: list[ParamVector] = []
    clips: list[np.ndarray] = []
    for results in gom_results:
        for item in results:
            payload = item["payload"]
            records.append(ModelRecord(
                index=item["gop_index"], role=item["role"],
                epsilon=item["epsilon"], scale=item["scales"],
                mu=item["mu"], sd=item["sd"], bound=item["bounds"],
                payload_len=len(payload), payload_crc=zlib.crc32(payload)))
            payloads.append(payload)
            per_model.append(ModelLog(
                index=item["gop_index"], role=item["role"],
                epsilon=item["epsilon"], payload_bits=8 * len(payload),
                estimate_bits=item["estimate_bits"],
                train_seconds=item["train_seconds"],
                final_mse=item["final_mse"],
                epoch_logs=item["epoch_logs"]))
            final_params.append(item["theta"])
            clips.append(item["frames"])

    data = write_bitstream(video.width, video.height, video.frame_count,
                           plan.gop_size, plan.gom_size, cfg.seed,
                           config.precision, config_to_text(config),
                           records, payloads)

    recon = RawVideo(width=config.frame_width, height=config.frame_height,
                     frames=np.concatenate(clips))
    from .metrics import psnr  # local import avoids a module cycle
    quality = psnr(video, recon)
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
        recon=recon if keep_reference else None,
        final_params=final_params if keep_reference else None)


def render_video(config: BackboneConfig, params_per_gop: list[ParamVector],
                 plan: PartitionPlan) -> RawVideo:
    """Render every clip with its final parameters into 8-bit frames."""
    frames = np.empty((plan.frame_count, 3, config.frame_height,
                       config.frame_width), dtype=np.uint8)
    for gop_index, (start, stop) in enumerate(plan.gops):
        params = params_per_gop[gop_index]
        for offset, t_norm in enumerate(frame_timestamps(stop - start)):
            out = forward_frame(config, params, t_norm).data
            frames[start + offset] = denormalize(out).transpose(2, 0, 1)
    return RawVideo(width=config.frame_width, height=config.frame_height,
                    frames=frames)


def _plan_from_header(header: BitstreamHeader):
    try:
        config = config_from_text(header.config_text)
    except ConfigError as exc:
        raise BitstreamError(f"unusable backbone config text: {exc}") \
            from None
    if header.precision != config.precision:
        raise BitstreamError("header precision disagrees with config text")
    plan = partition(header.frame_count, header.gop_size, header.gom_size)
    layout = param_layout(config)
    if header.n_layers != len(layout):
        raise BitstreamError(f"header declares {header.n_layers} layers, "
                             f"config yields {len(layout)}")
    if len(header.records) != plan.gop_count:
        raise BitstreamError(f"header has {len(header.records)} models, "
                             f"plan needs {plan.gop_count}")
    for gop_index, rec in enumerate(header.records):
        if rec.index != gop_index:
            raise BitstreamError(f"model record {gop_index} carries index "
                                 f"{rec.index}")
        if rec.role != plan.role_of(gop_index):
            raise BitstreamError(f"model {gop_index}: role {rec.role} "
                                 f"contradicts the partition")
    return config, plan, layout


def _decode_gom_params(header: BitstreamHeader, config: BackboneConfig,
                       plan: PartitionPlan, layout, gom_index: int,
                       payload_of) -> list[ParamVector]:
    """Reconstruct every model of one group from header + payloads."""
    names = tuple(spec.name for spec in layout)
    counts = [spec.count for spec in layout]
    first, end = plan.goms[gom_index]
    params: list[ParamVector] = []
    prev_theta: ParamVector | None = None
    prev_rand: ParamVector | None = None
    for gop_index in range(first, end):
        rec = header.records[gop_index]
        rand = init_random(config, model_seed(header.seed, gop_index))
        if gop_index == first:
            theta_prime = rand
        else:
            theta_prime = interpolate_init(prev_rand, prev_theta,
                                           float(rec.epsilon))
        scales = QuantScale(names, rec.scale.astype(np.float32))
        models = [build_model(float(mu), float(sd), int(bound))
                  for mu, sd, bound in zip(rec.mu, rec.sd, rec.bound)]
        symbols = decode_symbols(payload_of(gop_index), models, counts)
        theta = apply_residual(theta_prime, symbols, scales)
        params.append(theta)
        prev_theta = theta
        prev_rand = rand
    return params


def decode_video(data: bytes) -> RawVideo:
    """Reconstruct the full video from bitstream bytes (pure function)."""
    header, payloads = read_bitstream(data)
    config, plan, layout = _plan_from_header(header)
    params: list[ParamVector] = []
    for gom_index in range(plan.gom_count):
        params.extend(_decode_gom_params(header, config, plan, layout,
                                         gom_index,
                                         lambda i: payloads[i]))
    return render_video(config, params, plan)


def decode_gom(reader: BitstreamReader,
               gom_index: int) -> tuple[RawVideo, tuple[int, int]]:
    """Decode one group via random access; reads only its payload range."""
    header = reader.header
    config, plan, layout = _plan_from_header(header)
    if not 0 <= gom_index < plan.gom_count:
        raise ConfigError(f"gom index {gom_index} outside "
                          f"[0, {plan.gom_count})")
    params = _decode_gom_params(header, config, plan, layout, gom_index,
                                reader.read_payload)
    first, end = plan.goms[gom_index]
    sub_plan = PartitionPlan(
        frame_count=plan.gom_frame_range(gom_index)[1]
        - plan.gom_frame_range(gom_index)[0],
        gop_size=plan.gop_size, gom_size=plan.gom_size,
        gops=tuple((s - plan.gom_frame_range(gom_index)[0],
                    e - plan.gom_frame_range(gom_index)[0])
                   for s, e in plan.gops[first:end]),
        goms=((0, end - first),))
    return (render_video(config, params, sub_plan),
            plan.gom_frame_range(gom_index))
