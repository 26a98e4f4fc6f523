"""Partitioning, training, and the encode/decode closure."""

import dataclasses
import errno
import functools
import hashlib
import io
import json
import os
import pickle
import select
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clipcodec import (backbone, bitstream, detmath, metrics, ops,
                       pipeline, worker)
from clipcodec.backbone import (BackboneConfig, UpsampleStage, forward_clip,
                                init_random, param_layout)
from clipcodec.bitstream import _FIXED, BitstreamReader
from clipcodec.coder import build_models, decode_symbols
from clipcodec.errors import BitstreamError, ConfigError, NumericError
from clipcodec.optim import adam_init, adam_step
from clipcodec.pipeline import (TrainConfig, decode_gom, decode_video,
                                encode_video, partition, render_video,
                                train_model, training_step_loss)
from clipcodec.presets import nerv_lite_preset
from clipcodec.params import ParamVector
from clipcodec.ratequant import MAX_SYMBOL, initial_scales
from clipcodec.seeds import STREAM_NOISE, make_rng, model_seed
from clipcodec.tensor import Tape, Tensor
from clipcodec.video import synth_video
from clipcodec.warmstart import EpsilonSchedule
from conftest import (HOSTILE_BYTES, HOSTILE_HEADERS, PerSegmentAdam,
                      as_f64, fd_gradient, hostile_stream, joined,
                      layer_stats_of, rate_bits_layers, rel_error, repack,
                      segment_leaves, set_header_byte)

ROOT = Path(__file__).resolve().parent.parent


def small_config(size=16):
    return BackboneConfig(
        kind="nerv-lite", pe_frequencies=4, stem_width=16, base_channels=8,
        base_height=4, base_width=4,
        stages=(UpsampleStage(2, 8), UpsampleStage(2, 6)),
        frame_height=size, frame_width=size)


def quick_cfg(**kw):
    # b = 40 is the blend schedule the golden stream was pinned with
    defaults = dict(epochs_i=4, epochs_p=3, lr_i=1e-2, lr_p=1e-2, lam=1e6,
                    seed=5, schedule=EpsilonSchedule(b=40.0))
    defaults.update(kw)
    return TrainConfig(**defaults)


# ------------------------------------------------------------- partition

def test_partition_paper_scale_counts():
    plan = partition(600, 30, 5)
    assert plan.gop_count == 20
    assert plan.gom_count == 4
    assert all(end - first == 5 for first, end in plan.goms)


def test_partition_remainders():
    plan = partition(10, 4, 2)
    assert plan.gops == ((0, 4), (4, 8), (8, 10))
    assert plan.goms == ((0, 2), (2, 3))


def test_partition_degenerate_single_model():
    plan = partition(7, 100, 3)
    assert plan.gops == ((0, 7),)
    assert plan.goms == ((0, 1),)


def test_partition_roles():
    plan = partition(60, 10, 3)
    roles = [plan.role_of(g) for g in range(plan.gop_count)]
    assert roles == ["I", "P", "P", "I", "P", "P"]


def test_partition_rejects_nonpositive():
    with pytest.raises(ConfigError):
        partition(0, 4, 2)
    with pytest.raises(ConfigError):
        partition(10, 0, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.integers(1, 50), st.integers(1, 10))
def test_partition_invariants(frame_count, gop_size, gom_size):
    plan = partition(frame_count, gop_size, gom_size)
    # contiguous, disjoint cover of [0, frame_count)
    assert plan.gops[0][0] == 0
    assert plan.gops[-1][1] == frame_count
    for (a, b), (c, d) in zip(plan.gops, plan.gops[1:]):
        assert b == c and a < b
    # groups partition the gop list with bounded size
    assert plan.goms[0][0] == 0
    assert plan.goms[-1][1] == plan.gop_count
    for first, end in plan.goms:
        assert 0 < end - first <= gom_size


# ---------------------------------------------------------- train_model

@pytest.mark.parametrize("field, value", [
    ("lam", 0.0), ("lam", -1.0), ("lam", float("nan")), ("lam", float("inf")),
    ("lr_i", float("nan")), ("lr_i", float("inf")), ("lr_p", float("inf")),
    ("lr_p", -1e-2), ("epochs_p", -1),
    ("seed", -1), ("seed", 2 ** 64)])
def test_train_config_refuses_bad_settings(field, value):
    # the header stores the seed in 64 bits; a non-finite lambda or
    # learning rate would only show as a diverged loss after training
    with pytest.raises(ConfigError):
        quick_cfg(**{field: value})


def test_train_config_takes_every_64_bit_seed():
    for seed in (0, 2 ** 64 - 1):
        assert quick_cfg(seed=seed).seed == seed


def test_zero_epoch_budget_snaps_to_init():
    config = small_config()
    video = synth_video("static", 16, 16, 4, seed=0)
    frames = video.normalized(np.float32)
    init = init_random(config, 1)
    trained = train_model("I", frames, init, config,
                          quick_cfg(epochs_i=0), 1)
    for sym in trained.symbols:
        assert not sym.any()
    assert np.array_equal(trained.theta_star.flat.data, init.flat.data)


def test_training_is_deterministic():
    config = small_config()
    video = synth_video("moving-rect", 16, 16, 4, velocity=1.0, seed=2)
    frames = video.normalized(np.float32)
    init = init_random(config, 3)

    def run():
        return train_model("I", frames, init, config, quick_cfg(), 3)

    a, b = run(), run()
    assert np.array_equal(a.theta_star.flat.data, b.theta_star.flat.data)
    assert np.array_equal(a.scale, b.scale)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.sd, b.sd)
    for sa, sb in zip(a.symbols, b.symbols):
        assert np.array_equal(sa, sb)


def test_training_encodes_each_timestamp_once(monkeypatch):
    # a clip's timestamp encodings are built once, not once per step
    config = small_config()  # gelu: no other sin in the network
    frames = synth_video("moving-blob", 16, 16, 3, velocity=1.0,
                         seed=2).normalized(np.float32)
    calls = []
    sin = detmath.sin

    def spy(x):
        calls.append(np.shape(x))
        return sin(x)

    backbone.positional_encoding.cache_clear()
    monkeypatch.setattr(detmath, "sin", spy)
    train_model("I", frames, init_random(config, 1), config,
                quick_cfg(epochs_i=3), 1)
    assert 0 < len(calls) <= len(frames)


def test_step_loss_gradients_match_fd_with_frozen_stats():
    """Rate-term path (smooth): autodiff vs FD on theta and log-scales."""
    config = BackboneConfig(
        kind="nerv-lite", pe_frequencies=3, stem_width=8, base_channels=4,
        base_height=4, base_width=4, stages=(UpsampleStage(2, 4),),
        frame_height=8, frame_width=8)
    theta_prime = as_f64(init_random(config, 0))
    theta_star = segment_leaves(theta_prime)
    rng = make_rng(7)
    # displace from the warm start so the residual is non-trivial
    for name in theta_prime.names:
        theta_star[name].data += rng.standard_normal(
            theta_star[name].shape) * 0.01
    log_scales = {name: Tensor(np.asarray(-4.0), requires_grad=True)
                  for name in theta_prime.names}
    noise = [rng.uniform(-0.5, 0.5, theta_prime[n].shape)
             for n in theta_prime.names]
    target = rng.uniform(0, 1, (8, 8, 3))
    scaled0 = [
        (theta_star[n].data - theta_prime[n].data).reshape(-1)
        / np.exp(-4.0) for n in theta_prime.names]
    stats = layer_stats_of(scaled0)

    def run_rate_only():
        with Tape() as tape:
            scaled = []
            for name in theta_prime.names:
                step = ops.exp(log_scales[name])
                delta = ops.sub(theta_star[name], theta_prime[name])
                scaled.append(ops.div(delta, step))
            bits = rate_bits_layers(scaled, noise, stats)
        return bits, tape

    bits, tape = run_rate_only()
    tape.backward(bits)
    # check one weight segment and one log-scale end to end
    name = theta_prime.names[0]
    analytic = theta_star[name].grad.copy()
    numeric = fd_gradient(lambda: run_rate_only()[0].item(),
                          theta_star[name].data, h=1e-6)
    assert rel_error(analytic, numeric) < 1e-4

    # gradients add into .grad across tapes, so clear both leaf sets
    # before the second backward pass
    for leaf in [*theta_star.values(), *log_scales.values()]:
        leaf.grad = None
    bits, tape = run_rate_only()
    tape.backward(bits)
    ls = log_scales[name]
    analytic_s = np.asarray(ls.grad).copy()
    numeric_s = fd_gradient(lambda: run_rate_only()[0].item(), ls.data,
                            h=1e-6)
    assert rel_error(analytic_s, numeric_s) < 1e-4


def test_step_loss_full_graph_runs_and_is_finite():
    config = small_config()
    theta_prime = as_f64(init_random(config, 0))
    theta_star = theta_prime.clone(requires_grad=True)
    log_scales = _log_scales(theta_prime, np.full(len(theta_prime.names),
                                                  -4.0))
    rng = make_rng(3)
    noise = rng.uniform(-0.5, 0.5, theta_prime.flat.size)
    target = rng.uniform(0, 1, (16, 16, 3))
    with Tape() as tape:
        loss, rate, mse = training_step_loss(
            config, theta_prime, theta_star, log_scales, target[None],
            [0.5], 1e6, noise)
    assert np.isfinite(loss.data)
    tape.backward(loss)
    assert theta_star.flat.grad is not None
    grads = theta_star.split(theta_star.flat.grad)
    assert all(g is not None and np.all(np.isfinite(g)) for g in grads)


def _training_step_loss_per_layer(config, theta_prime, theta_star,
                                  log_scales, targets, t_norms, lam,
                                  noise):
    """Reference: the lattice built by one op chain per layer, as before
    the flat chain, over dicts of per-layer leaves.  ``training_step_loss``
    must match it bit for bit."""
    scaled = []
    effective = {}
    for name in theta_star:
        step = ops.exp(log_scales[name])
        delta = ops.sub(theta_star[name], theta_prime[name])
        unit = ops.div(delta, step)
        scaled.append(unit)
        snapped = ops.mul(ops.ste_round(unit), step)
        effective[name] = ops.add(theta_prime[name], snapped)
    stats = layer_stats_of([u.data for u in scaled])
    rate = rate_bits_layers(scaled, noise, stats)
    (frames,) = forward_clip(config, effective, t_norms)
    mse = ops.mean_square(ops.sub(frames, ops.constant(targets)))
    loss = ops.add(rate, ops.mul(mse, lam))
    return loss, rate, mse, stats


def _one_channel_config():
    # stage 0 has one output channel, so its bias is a 1-element layer
    return BackboneConfig(
        kind="nerv-lite", pe_frequencies=3, stem_width=8, base_channels=4,
        base_height=4, base_width=4, stages=(UpsampleStage(2, 1),),
        frame_height=8, frame_width=8)


def _log_scales(params, values):
    """One log-scale per segment of ``params``, as one (L,) leaf."""
    return ParamVector([(name, ()) for name in params.names],
                       Tensor(np.asarray(values, dtype=params.dtype),
                              requires_grad=True))


def _segment_grads(params):
    """The flat gradient of ``params`` cut into its segments' shapes."""
    return [g.reshape(shape) for g, (_, shape)
            in zip(params.split(params.flat.grad), params.layout())]


def _trainable(config, seed, dtype):
    """Warm start, displaced live parameters and their log-scales, in
    ``dtype``."""
    theta_prime = init_random(config, seed)
    if dtype == np.float64:
        theta_prime = as_f64(theta_prime)
    theta_star = theta_prime.clone(requires_grad=True)
    rng = make_rng(seed + 1)
    for name in theta_star.names:
        theta_star[name].data += (rng.standard_normal(
            theta_star[name].shape) * 0.02).astype(dtype)
    log_scales = _log_scales(
        theta_prime, detmath.log(initial_scales(theta_prime)))
    return theta_prime, theta_star, log_scales


@pytest.mark.parametrize("dtype", [pytest.param(np.float32, id="f32"),
                                   pytest.param(np.float64, id="f64")])
def test_flat_step_and_adam_match_per_layer_reference_bitwise(dtype,
                                                             monkeypatch):
    seen, layer_stats = [], pipeline.layer_stats

    def spy(*args):  # keeps the step's (mu, sd)
        seen.append(layer_stats(*args))
        return seen[-1]

    monkeypatch.setattr(pipeline, "layer_stats", spy)
    config = _one_channel_config()
    assert 1 in [spec.count for spec in param_layout(config)]
    video = synth_video("moving-blob", 8, 8, 3, velocity=1.0, seed=2)
    targets = video.normalized(dtype).transpose(0, 2, 3, 1)
    prime, star, logs = _trainable(config, 4, dtype)
    ref_star, ref_logs = map(segment_leaves,
                             _trainable(config, 4, dtype)[1:])
    opt_star, opt_logs = adam_init(star), adam_init(logs)
    ref_opt_star = PerSegmentAdam(ref_star)
    ref_opt_logs = PerSegmentAdam(ref_logs)
    rng, ref_rng = make_rng(9, STREAM_NOISE), make_rng(9, STREAM_NOISE)
    for step in range(6):
        t_norm, target = step % 3 / 2, targets[step % 3]
        noise = rng.uniform(-0.5, 0.5, size=star.flat.size)
        ref_noise = [ref_rng.uniform(-0.5, 0.5, size=t.shape)
                     for t in ref_star.values()]
        seen.clear()
        with Tape() as tape:
            loss, rate, mse = training_step_loss(
                config, prime, star, logs, target[None], [t_norm], 1e4,
                noise)
        tape.backward(loss)
        (stats,) = seen
        with Tape() as ref_tape:
            ref_loss, ref_rate, _, ref_stats = _training_step_loss_per_layer(
                config, prime, ref_star, ref_logs, target[None], [t_norm],
                1e4, ref_noise)
        ref_tape.backward(ref_loss)
        assert loss.data.dtype == dtype
        assert loss.data.tobytes() == ref_loss.data.tobytes()
        assert rate.data.tobytes() == ref_rate.data.tobytes()
        for got, want in zip(stats, ref_stats):  # mu, then sd
            assert got.tobytes() == want.tobytes()
        for got, want in zip(_segment_grads(star) + _segment_grads(logs),
                             [*ref_star.values(), *ref_logs.values()]):
            assert np.shape(got) == np.shape(want.grad)
            assert np.asarray(got).tobytes() == \
                np.asarray(want.grad).tobytes()
        lr = 5e-3 * (step + 1)
        adam_step(star, opt_star, lr)
        adam_step(logs, opt_logs, lr)
        ref_opt_star.update(ref_star, lr)
        ref_opt_logs.update(ref_logs, lr)
        star.clear_grads()
        logs.clear_grads()
        for leaf in [*ref_star.values(), *ref_logs.values()]:
            leaf.grad = None
    assert star.to_bytes() == joined(ref_star).tobytes()
    assert logs.to_bytes() == joined(ref_logs).tobytes()
    for state, ref in ((opt_star, ref_opt_star), (opt_logs, ref_opt_logs)):
        for got, name in ((state.m, "m"), (state.v, "v")):
            want = np.concatenate([a.reshape(-1)
                                   for a in getattr(ref, name).values()])
            assert got.tobytes() == want.tobytes()


def test_one_noise_draw_equals_per_layer_draws():
    from clipcodec.presets import nerv_lite_preset
    shapes = [spec.shape for spec in param_layout(nerv_lite_preset(32, 32))]
    total = sum(int(np.prod(shape)) for shape in shapes)
    flat = make_rng(3, STREAM_NOISE).uniform(-0.5, 0.5, size=total)
    rng = make_rng(3, STREAM_NOISE)
    per_layer = [rng.uniform(-0.5, 0.5, size=shape) for shape in shapes]
    assert len(shapes) == 12
    assert flat.tobytes() == np.concatenate(
        [a.reshape(-1) for a in per_layer]).tobytes()


def test_no_tape_is_alive_when_the_lattice_is_frozen(monkeypatch):
    # the last step's tape closes over every activation of that step; it
    # must be gone before _freeze_lattice runs
    config = small_config()
    video = synth_video("moving-blob", 16, 16, 2, velocity=1.0, seed=5)
    tapes, alive = [], []

    class TrackedTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    def freeze(*args):
        alive.append(sum(ref() is not None for ref in tapes))
        return freeze_lattice(*args)

    freeze_lattice = pipeline._freeze_lattice
    monkeypatch.setattr(pipeline, "Tape", TrackedTape)
    monkeypatch.setattr(pipeline, "_freeze_lattice", freeze)
    train_model("I", video.normalized(np.float32), init_random(config, 1),
                config, quick_cfg(), 1)
    assert len(tapes) > 0
    assert alive == [0]


def test_train_model_renders_each_frame_once(monkeypatch):
    # one forward per training step plus one clip render per model, which
    # gives both final_mse and the reconstruction
    config = small_config()
    video = synth_video("moving-blob", 16, 16, 4, velocity=1.0, seed=6)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "forward_clip", counted(forward_clip))
    cfg = quick_cfg(epochs_i=2, epochs_p=1)
    result = encode_video(video, partition(4, 2, 2), config, cfg,
                          keep_reference=True)
    assert len(calls) == 2 * 2 + 1 * 2 + 2
    monkeypatch.undo()
    decoded = decode_video(result.data)
    assert np.array_equal(decoded.frames, result.recon.frames)
    for log, (start, stop) in zip(result.per_model, [(0, 2), (2, 4)]):
        mse = metrics.frame_mse(video.frames[start:stop],
                                decoded.frames[start:stop])
        assert log.final_mse == float(np.mean(mse)) / 255.0 ** 2


# ------------------------------------------------------- encode / decode

@pytest.fixture(scope="module")
def encoded_pair():
    config = small_config()
    video = synth_video("moving-blob", 16, 16, 8, velocity=1.0, seed=4)
    # 2-frame clips, 2 clips per group: two GOMs, each an I and a P model
    plan = partition(8, 2, 2)
    cfg = quick_cfg()
    result = encode_video(video, plan, config, cfg, keep_reference=True)
    return video, config, plan, cfg, result


def test_decode_matches_encoder_reconstruction(encoded_pair):
    video, config, plan, cfg, result = encoded_pair
    decoded = decode_video(result.data)
    assert decoded.frame_count == video.frame_count
    assert np.array_equal(decoded.frames, result.recon.frames)


def test_psnr_mean_is_psnr_of_decoded_video(encoded_pair):
    # two groups: the encoder's mean over per-frame values is the one a
    # caller computes from the decoded video, to the last bit
    video, config, plan, cfg, result = encoded_pair
    assert plan.gom_count == 2
    assert result.psnr_mean == metrics.psnr(video,
                                            decode_video(result.data)).mean


def test_decoded_parameters_bit_identical(encoded_pair, monkeypatch):
    # the encoder's lattice-snapped parameters, as train_model returns
    # them, are the parameters both the encoder and the decoder render
    # with, bit for bit
    video, config, plan, cfg, result = encoded_pair
    trained_thetas, rendered = [], {"encode": [], "decode": []}
    train, render = pipeline.train_model, pipeline.render_video

    def train_spy(*args, **kwargs):
        trained = train(*args, **kwargs)
        trained_thetas.append(trained.theta_star)
        return trained

    def render_spy(side):
        def spy(config, params, frames):
            rendered[side].append(params)
            return render(config, params, frames)
        return spy

    set_cpus(monkeypatch, 1)  # a spy does not see a forked worker's calls
    monkeypatch.setattr(pipeline, "train_model", train_spy)
    monkeypatch.setattr(pipeline, "render_video", render_spy("encode"))
    assert encode_video(video, plan, config, cfg).data == result.data
    monkeypatch.setattr(pipeline, "render_video", render_spy("decode"))
    decode_video(result.data)
    assert len(trained_thetas) == plan.gop_count
    for side in rendered.values():
        assert len(side) == plan.gop_count
        for theta_trained, theta_rendered in zip(trained_thetas, side):
            assert np.array_equal(theta_rendered.flat.data,
                                  theta_trained.flat.data)


def test_encode_determinism(encoded_pair):
    video, config, plan, cfg, result = encoded_pair
    again = encode_video(video, plan, config, cfg)
    assert again.data == result.data


def test_gom_isolation_zeroing_other_payloads(encoded_pair):
    video, config, plan, cfg, result = encoded_pair
    reader = BitstreamReader.from_bytes(result.data)
    target_gom = 1
    fragment, (start, end) = decode_gom(reader, target_gom)
    # zero out GOM 0's payload bytes entirely
    tampered = bytearray(result.data)
    for gop_index in range(*plan.goms[0]):
        off, length = reader.payload_range(gop_index)
        tampered[off:off + length] = bytes(length)
    # full decode must now fail loudly (CRC), never silently differ
    with pytest.raises(BitstreamError):
        decode_video(bytes(tampered))
    # but the untouched group decodes bit-identically via random access
    reader2 = BitstreamReader.from_bytes(bytes(tampered))
    fragment2, _ = decode_gom(reader2, target_gom)
    assert np.array_equal(fragment.frames, fragment2.frames)


def test_single_gom_decode_reads_only_its_range(encoded_pair):
    video, config, plan, cfg, result = encoded_pair
    import io

    class SpyIO(io.BytesIO):
        def __init__(self, buf):
            super().__init__(buf)
            self.reads = []

        def read(self, n=-1):
            start = self.tell()
            out = super().read(n)
            self.reads.append((start, len(out)))
            return out

    spy = SpyIO(result.data)
    reader = BitstreamReader(spy)
    header_size = reader.header.header_size
    spy.reads.clear()
    decode_gom(reader, 1)
    lo = reader.header.offsets[plan.goms[1][0]]
    hi = reader.header.offsets[plan.goms[1][1] - 1] \
        + reader.header.records[plan.goms[1][1] - 1].payload_len
    assert spy.reads
    for start, length in spy.reads:
        assert lo <= start and start + length <= hi


def test_decode_gom_with_short_last_clip_and_partial_last_group():
    # 7 frames in clips of 2, 3 clips per group: the last clip has one
    # frame and the last group holds only that clip
    config = small_config()
    video = synth_video("moving-blob", 16, 16, 7, velocity=1.0, seed=3)
    plan = partition(7, 2, 3)
    assert plan.gops[-1] == (6, 7) and plan.goms == ((0, 3), (3, 4))
    data = encode_video(video, plan, config,
                        quick_cfg(epochs_i=2, epochs_p=2)).data
    full = decode_video(data)
    reader = BitstreamReader.from_bytes(data)
    for gom_index in range(plan.gom_count):
        part, (start, stop) = decode_gom(reader, gom_index)
        assert (start, stop) == plan.gom_frame_range(gom_index)
        assert np.array_equal(part.frames, full.frames[start:stop])


@pytest.mark.parametrize("frames, gop_size, gom_size", [
    (10, 5, 2),  # one group, I then P
    (7, 2, 3),   # I P P, then a lone I model
    (6, 2, 1),   # every model an I model
], ids=["ends-in-P", "lone-I-last", "all-I"])
def test_random_inits_drawn_only_where_read(monkeypatch, frames, gop_size,
                                            gom_size):
    # an I model starts from its draw; a P model's draw is read only by its
    # successor, so a group's last P model draws none
    config = small_config()
    video = synth_video("moving-blob", 16, 16, frames, velocity=1.0, seed=2)
    plan = partition(frames, gop_size, gom_size)
    cfg = quick_cfg(epochs_i=1, epochs_p=1)
    unread = {end - 1 for first, end in plan.goms if end - 1 > first}

    def read_draws(first, end):
        return [model_seed(cfg.seed, g) for g in range(first, end)
                if g not in unread]

    drawn = []

    def spy(config, seed):
        drawn.append(seed)
        return init_random(config, seed)

    set_cpus(monkeypatch, 1)  # a spy does not see a forked worker's calls
    monkeypatch.setattr(pipeline, "init_random", spy)
    result = encode_video(video, plan, config, cfg, keep_reference=True)
    expected = read_draws(0, plan.gop_count)
    assert len(expected) == plan.gop_count - sum(
        plan.role_of(end - 1) == "P" for _, end in plan.goms)
    assert drawn == expected
    drawn.clear()
    assert np.array_equal(decode_video(result.data).frames,
                          result.recon.frames)
    assert drawn == expected
    reader = BitstreamReader.from_bytes(result.data)
    for gom_index, (first, end) in enumerate(plan.goms):
        drawn.clear()
        decode_gom(reader, gom_index)
        assert drawn == read_draws(first, end)


def test_decode_frame_count_and_range(encoded_pair):
    video, config, plan, cfg, result = encoded_pair
    decoded = decode_video(result.data)
    assert decoded.frame_count == plan.frame_count
    fragment, (start, end) = decode_gom(
        BitstreamReader.from_bytes(result.data), 0)
    assert (start, end) == plan.gom_frame_range(0)
    assert fragment.frame_count == end - start
    assert np.array_equal(fragment.frames, decoded.frames[start:end])


@pytest.mark.parametrize("edit", [edit for _, edit in HOSTILE_HEADERS
                                  + HOSTILE_BYTES],
                         ids=[name for name, _ in HOSTILE_HEADERS
                              + HOSTILE_BYTES])
def test_hostile_header_fields_raise_before_any_payload(encoded_pair, edit):
    data = hostile_stream(encoded_pair[-1].data, edit)
    with pytest.raises(BitstreamError):
        decode_video(data)

    def no_payload(index):
        raise AssertionError(f"payload {index} read")

    with pytest.raises(BitstreamError):
        reader = BitstreamReader.from_bytes(data)
        reader.read_payload = no_payload
        decode_gom(reader, 0)


@pytest.mark.parametrize("restamp", [True, False])
def test_config_text_not_utf8_raises_bitstream_error(encoded_pair, restamp):
    data = encoded_pair[-1].data
    if restamp:
        data = set_header_byte(data, _FIXED.size, 0xFF)
    else:
        blob = bytearray(data)
        blob[_FIXED.size] = 0xFF  # first config byte, header CRC left stale
        data = bytes(blob)
    with pytest.raises(BitstreamError, match="UTF-8" if restamp else "CRC"):
        decode_video(data)
    with pytest.raises(BitstreamError):
        BitstreamReader.from_bytes(data)


@pytest.mark.parametrize("tail", [b"\x00", b"\x5a\xa5\x5a"])
def test_payload_with_extra_bytes_is_rejected(encoded_pair, tail):
    result = encoded_pair[-1]
    for model in range(4):
        data = repack(result.data, model=model, payload_tail=tail)
        with pytest.raises(BitstreamError, match="consumed"):
            decode_video(data)
        gom = model // 2
        with pytest.raises(BitstreamError, match="consumed"):
            decode_gom(BitstreamReader.from_bytes(data), gom)


def test_decode_video_plans_the_stream_once(encoded_pair, monkeypatch):
    # decode_video runs decode_gom per group; a plan per group made a
    # stream of 4,000 one-clip groups decode 4x slower than one plan did
    calls = []
    original = bitstream.partition

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bitstream, "partition", spy)
    monkeypatch.setattr(pipeline, "partition", spy)
    decode_video(encoded_pair[-1].data)
    assert len(calls) == 1


def test_cut_stream_refused_before_any_render(encoded_pair, monkeypatch):
    # the whole-stream decode checks the stream's length up front; the
    # cut is in group 1, so only a lazy check would render group 0 first
    rendered = []
    monkeypatch.setattr(pipeline, "render_video",
                        lambda *args: rendered.append(args))
    with pytest.raises(BitstreamError, match="shorter"):
        decode_video(encoded_pair[-1].data[:-1])
    assert not rendered


def test_payloads_are_read_to_their_last_byte(encoded_pair):
    # a valid payload's length is exactly what the range decoder reads:
    # every real payload decodes, and the same payload one byte longer
    # is refused for the bytes the decoder did not read
    reader = BitstreamReader.from_bytes(encoded_pair[-1].data)
    counts = [spec.count for spec in param_layout(reader.header.config)]
    for index, rec in enumerate(reader.header.records):
        payload = reader.read_payload(index)
        models = build_models(rec.mu, rec.sd, rec.bound)
        layers = decode_symbols(payload, models, counts)
        assert [layer.size for layer in layers] == counts
        with pytest.raises(BitstreamError, match="consumed"):
            decode_symbols(payload + b"\x00", models, counts)


# ------------------------------------ whole-video encode and decode workers

def set_cpus(monkeypatch, count):
    """Make the encoder and decoder see ``count`` usable CPUs, for this
    process and every other; returns the masks they set since, by pid (0
    for this thread), which no real mask takes."""
    masks = {}
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: masks.get(pid, set(range(count))),
                        raising=False)
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, mask: masks.update({pid: set(mask)}),
                        raising=False)
    return masks


def count_forks(monkeypatch):
    """The list that gets one entry per ``os.fork`` of this process, from
    a start with no worker."""
    worker.stop()
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    """No child is left but the worker, which is then killed and reaped."""
    worker.stop()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# shape -> (frames, gop_size, gom_size): a group count for 9 frames whose
# last clip and last group are short, 5 frames for two groups and 7 frames
# for one group of four models, its last clip short; "3x2" and "5x2" for
# 3 and 5 groups of two models, the last clip short in "5x2", and "3+1"
# for groups of three and one model
GROUP_SHAPES = {1: (7, 2, 4), 2: (5, 2, 2), 3: (9, 2, 2), 5: (9, 2, 1),
                "3x2": (12, 2, 2), "5x2": (19, 2, 2), "3+1": (8, 2, 3)}


@pytest.fixture(scope="module")
def group_encodes():
    """shape -> (video, plan, cfg, one-CPU encode) of each
    :data:`GROUP_SHAPES` entry."""
    out, cfg = {}, quick_cfg(epochs_i=1, epochs_p=1)
    with pytest.MonkeyPatch.context() as mp:
        set_cpus(mp, 1)
        for shape, (frames, gop_size, gom_size) in GROUP_SHAPES.items():
            video = synth_video("moving-blob", 16, 16, frames, velocity=1.0,
                                seed=6)
            plan = partition(frames, gop_size, gom_size)
            out[shape] = video, plan, cfg, encode_video(
                video, plan, small_config(), cfg, keep_reference=True)
    return out


@pytest.fixture(scope="module")
def group_streams(group_encodes):
    """shape -> (plan, stream) of :func:`group_encodes`."""
    return {shape: (plan, result.data)
            for shape, (_, plan, _, result) in group_encodes.items()}


def record_posts(monkeypatch):
    """The list that gets ``(function name, args)`` of each task this
    process posts to the worker."""
    posts, post = [], worker.Tasks.post

    def recording(tasks, messages, function, *args):
        posts.append((function.__name__, args))
        return post(tasks, messages, function, *args)

    monkeypatch.setattr(worker.Tasks, "post", recording)
    return posts


def window_halves(plan):
    """The first half of each window of two or more models: groups are
    taken two at a time, the last alone where their count is odd, and
    each window's models split at the middle one."""
    halves = []
    for group in range(0, plan.gom_count, 2):
        first = plan.goms[group][0]
        end = plan.goms[min(group + 2, plan.gom_count) - 1][1]
        if end - first >= 2:
            halves.append((first, first + (end - first) // 2))
    return halves


@pytest.mark.parametrize("cpus", [2, 8])
@pytest.mark.parametrize("groups", [2, 3, 5, "3x2", "5x2", "3+1"])
def test_forked_decode_equals_group_decodes(group_streams, monkeypatch,
                                            groups, cpus):
    # the worker decodes the first half of each window of two groups, so
    # a short last group or clip, a lone last group of two models and a
    # window split inside its first group (3 + 1) decode as the groups do
    plan, data = group_streams[groups]
    if isinstance(groups, int):
        assert plan.gom_count == groups
        assert plan.goms[-1][1] - plan.goms[-1][0] < plan.gom_size or \
            plan.gops[-1][1] - plan.gops[-1][0] < plan.gop_size
    reader = BitstreamReader.from_bytes(data)
    parts = [decode_gom(reader, g)[0].frames for g in range(plan.gom_count)]
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    posts = record_posts(monkeypatch)
    decoded = decode_video(data)
    assert len(forks) == 1  # two workers at most, however many CPUs
    assert_no_child_left()
    assert np.array_equal(decoded.frames, np.concatenate(parts))
    assert [(name, args[1]) for name, args in posts] == [
        ("_first_half", half) for half in window_halves(plan)]


def _stale_crc(data: bytes, model: int) -> bytes:
    """One byte of ``model``'s payload flipped, its CRC left as it was."""
    offset = BitstreamReader.from_bytes(data).header.offsets[model]
    blob = bytearray(data)
    blob[offset] ^= 0x5A
    return bytes(blob)


def _recoded(data: bytes, model: int) -> bytes:
    """``model``'s payload one byte longer, its CRC recomputed."""
    return repack(data, model=model, payload_tail=b"\x00")


def _raised(data: bytes):
    with pytest.raises(BitstreamError) as info:
        decode_video(data)
    return type(info.value), str(info.value), info.value.offset


@pytest.mark.parametrize("edit", [_stale_crc, _recoded],
                         ids=["stale-crc", "recoded"])
@pytest.mark.parametrize("bad_groups", [(0,), (1,), (0, 1)],
                         ids=["group-0", "group-1", "both"])
def test_forked_decode_raises_the_serial_error(encoded_pair, monkeypatch,
                                               edit, bad_groups):
    # each bad group's P model is edited; the first bad group in order
    # raises, with the serial walk's type, message and offset
    data = encoded_pair[-1].data
    for gom in bad_groups:
        data = edit(data, 2 * gom + 1)
    set_cpus(monkeypatch, 1)
    serial = _raised(data)
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert _raised(data) == serial
    assert len(forks) == 1
    assert_no_child_left()


def test_one_cpu_decodes_without_forking(encoded_pair, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    set_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    result = encoded_pair[-1]
    assert np.array_equal(decode_video(result.data).frames,
                          result.recon.frames)


def test_live_thread_decodes_without_forking(encoded_pair, monkeypatch):
    # a fork copies only the calling thread
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        decoded = decode_video(encoded_pair[-1].data)
    finally:
        done.set()
        thread.join()
    assert not forks
    assert np.array_equal(decoded.frames, encoded_pair[-1].recon.frames)


def test_group_of_a_dead_worker_decodes_in_the_parent(group_streams,
                                                      monkeypatch):
    # a worker that ends in its first half of a window leaves that half,
    # and the first half of every later window, to the parent; the task
    # is found by name, so the patch keeps the name
    plan, data = group_streams[5]
    expected = decode_video(data).frames
    parent, half = os.getpid(), pipeline._first_half

    @functools.wraps(half)
    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return half(*args)

    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "_first_half", dying)
    forks = count_forks(monkeypatch)
    assert np.array_equal(decode_video(data).frames, expected)
    assert len(forks) == 1
    assert_no_child_left()


def _fail(*args):
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_no_pipe_or_process_to_spare_decodes_serially(group_streams,
                                                      monkeypatch, call):
    # a host out of descriptors or processes still decodes the stream
    plan, data = group_streams[5]
    set_cpus(monkeypatch, 1)
    expected = decode_video(data).frames
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, call, _fail)
    assert np.array_equal(decode_video(data).frames, expected)
    assert_no_child_left()


def test_cli_consumer_stopping_early_leaves_no_child(encoded_pair,
                                                     monkeypatch, tmp_path):
    # the output fails on the first window, and the abandoned call ends
    # the worker
    from clipcodec import cli
    from clipcodec.errors import DataError

    def full(path, chunks):
        next(iter(chunks))
        raise DataError("no space left")

    stream, out = tmp_path / "clip.bits", tmp_path / "out.rgb"
    stream.write_bytes(encoded_pair[-1].data)
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(cli, "_write_atomic", full)
    assert cli.main(["decode", str(stream), str(out)]) == 3
    assert len(forks) == 1
    assert_no_child_left()


def test_cli_forked_decode_moves_no_file_position(encoded_pair, tmp_path,
                                                  monkeypatch):
    # the worker is sent the payload bytes it decodes and never reads the
    # open file, which this process alone reads, by seek and read
    from clipcodec import cli
    stream, out = tmp_path / "clip.bits", tmp_path / "out.rgb"
    stream.write_bytes(encoded_pair[-1].data)
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert cli.main(["decode", str(stream), str(out)]) == 0
    assert len(forks) == 1
    assert out.read_bytes() == encoded_pair[-1].recon.frames.tobytes()
    assert_no_child_left()


@pytest.fixture(scope="module")
def model_streams():
    """models -> one-group stream of that many 2-frame clips, the last
    clip one frame short, trained long enough that every model codes
    nonzero symbols."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        set_cpus(mp, 1)
        for models in (3, 4, 5):
            frames = 2 * models - 1
            video = synth_video("moving-blob", 16, 16, frames, velocity=1.0,
                                seed=4)
            out[models] = encode_video(video, partition(frames, 2, models),
                                       small_config(), quick_cfg()).data
    return out


@pytest.mark.parametrize("groups, models",
                         [(1, [4]), (2, [2, 1]), (3, [2, 2, 1]), (5, [1] * 5)])
def test_forked_model_decode_equals_serial(group_streams, monkeypatch,
                                           groups, models):
    # a child walks the first half of a group's models and this process
    # the second; every group of every stream, short last clip and
    # one-model groups included
    plan, data = group_streams[groups]
    assert [end - first for first, end in plan.goms] == models
    set_cpus(monkeypatch, 1)
    serial = [decode_gom(BitstreamReader.from_bytes(data), g)
              for g in range(groups)]
    set_cpus(monkeypatch, 2)
    for gom in range(groups):
        forks = count_forks(monkeypatch)
        part, span = decode_gom(BitstreamReader.from_bytes(data), gom)
        assert len(forks) == (models[gom] >= 2)
        assert_no_child_left()
        assert span == serial[gom][1]
        assert np.array_equal(part.frames, serial[gom][0].frames)


@pytest.mark.parametrize("models", [3, 4, 5])
def test_forked_split_of_one_group_equals_serial(model_streams, monkeypatch,
                                                 models):
    # an odd count gives this process the larger half; the last clip is
    # short, and every model codes nonzero symbols
    data = model_streams[models]
    set_cpus(monkeypatch, 1)
    serial = decode_gom(BitstreamReader.from_bytes(data), 0)
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    part, span = decode_gom(BitstreamReader.from_bytes(data), 0)
    assert len(forks) == 1
    assert_no_child_left()
    assert span == serial[1] == (0, 2 * models - 1)
    assert np.array_equal(part.frames, serial[0].frames)


def _gom_raised(data: bytes):
    with pytest.raises(BitstreamError) as info:
        decode_gom(BitstreamReader.from_bytes(data), 0)
    return type(info.value), str(info.value), info.value.offset


@pytest.mark.parametrize("edit", [_stale_crc, _recoded],
                         ids=["stale-crc", "recoded"])
@pytest.mark.parametrize("models", [(0,), (1,), (2,), (3,), (1, 2), (0, 3)],
                         ids=["I", "P-child", "P-parent", "P-last",
                              "both-halves", "I-and-last"])
def test_forked_model_decode_raises_the_serial_error(model_streams,
                                                     monkeypatch, edit,
                                                     models):
    # models 0 and 1 are the child's half, 2 and 3 this process's; the
    # first bad model in the serial order raises
    data = model_streams[4]
    for model in models:
        data = edit(data, model)
    set_cpus(monkeypatch, 1)
    serial = _gom_raised(data), _raised(data)
    assert serial[0] == _gom_raised(edit(model_streams[4], models[0]))
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert (_gom_raised(data), _raised(data)) == serial
    assert len(forks) == 2  # one per call
    assert_no_child_left()


@pytest.mark.parametrize("edit", [_stale_crc, _recoded],
                         ids=["stale-crc", "recoded"])
@pytest.mark.parametrize("models", [(1,), (2,), (3,), (1, 2), (0, 3)],
                         ids=["worker-P", "parent-P", "second-group",
                              "both-sides", "I-and-second-group"])
def test_window_split_inside_a_group_raises_the_serial_error(
        group_streams, monkeypatch, edit, models):
    # groups of 3 + 1 models make one window, split at model 2, a P model
    # of the first group: the worker hands over the chain after model 1,
    # and the first bad model in the serial order raises
    plan, good = group_streams["3+1"]
    assert plan.goms == ((0, 3), (3, 4))
    data = good
    for model in models:
        data = edit(data, model)
    set_cpus(monkeypatch, 1)
    serial = _raised(data)
    assert serial == _raised(edit(good, models[0]))
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    posts = record_posts(monkeypatch)
    assert _raised(data) == serial
    assert len(forks) == 1
    assert_no_child_left()
    assert [args[1:] for _, args in posts] == [((0, 2), True)]


def _overflowing(data: bytes, model: int, layer: int, scale: float) -> bytes:
    """``model``'s step of ``layer`` set to ``scale``, a finite value no
    encoder writes."""
    record = BitstreamReader.from_bytes(data).header.records[model]
    values = record.scale.copy()
    values[layer] = scale
    return repack(data, model=model, scale=values)


def test_first_half_render_error_comes_before_a_second_half_payload(
        model_streams, monkeypatch):
    # the child walks its half and hands over, then its render of clip 1
    # overflows; this process meets model 2's bad payload first, but the
    # serial walk renders clip 1 before it reads model 2
    data = _overflowing(model_streams[4], 1, 4, 1e37)
    assert BitstreamReader.from_bytes(data).header.records[1].bound[4] > 1
    data = _stale_crc(data, 2)
    set_cpus(monkeypatch, 1)
    serial = _gom_raised(data)
    assert serial[1].startswith("clip 1: non-finite activation")
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert _gom_raised(data) == serial
    assert len(forks) == 1
    assert_no_child_left()


def _cut_send(after: int):
    """A ``_send`` that sends ``after`` messages whole, then a cut one,
    and ends the process."""
    sent = []

    def cut(out, result):
        if len(sent) < after:
            sent.append(1)
            return pickle.dump(result, out)
        out.write(pickle.dumps(result)[:-7])
        out.flush()
        os._exit(1)

    return cut


@pytest.mark.parametrize("how", ["exit", "cut", "exit-in-render",
                                 "cut-frames"])
def test_model_of_a_dead_worker_decodes_in_the_parent(model_streams,
                                                      monkeypatch, how):
    # a child that ends before its handover leaves its whole half to this
    # process; one that ends after it, before it sends its frames in full,
    # makes this process walk and render that half again
    data = model_streams[4]
    set_cpus(monkeypatch, 1)
    expected = decode_gom(BitstreamReader.from_bytes(data), 0)[0].frames
    parent = os.getpid()

    def dying(call):
        def die(*args):
            if os.getpid() != parent:
                os._exit(1)
            return call(*args)
        return die

    set_cpus(monkeypatch, 2)
    if how == "exit":
        monkeypatch.setattr(pipeline, "decode_symbols",
                            dying(pipeline.decode_symbols))
    elif how == "exit-in-render":
        monkeypatch.setattr(pipeline, "render_video",
                            dying(pipeline.render_video))
    else:
        monkeypatch.setattr(worker, "_send",
                            _cut_send(0 if how == "cut" else 1))
    forks = count_forks(monkeypatch)
    decoded = decode_gom(BitstreamReader.from_bytes(data), 0)[0].frames
    assert len(forks) == 1
    assert_no_child_left()
    assert np.array_equal(decoded, expected)


@pytest.mark.parametrize("groups", [2, 3])
def test_group_workers_fork_no_model_workers(group_streams, monkeypatch,
                                             tmp_path, groups):
    # each window splits once, and the worker's half uses no worker: one
    # fork in any process, two processes in all
    _, data = group_streams[groups]
    log, fork = tmp_path / "forks", os.fork

    def logged():
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return fork()

    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", logged)
    decode_video(data)
    assert_no_child_left()
    assert log.read_text().split() == [str(os.getpid())]


def encode_report(result):
    """Everything an encode returns but its timings."""
    return (result.data, result.recon.frames.tobytes(), result.bpp,
            result.psnr_mean,
            [dataclasses.replace(log, train_seconds=0.0)
             for log in result.per_model])


@pytest.mark.parametrize("cpus", [2, 8], ids=["2-cpus", "8-cpus"])
@pytest.mark.parametrize("groups", [2, 3, 5, "3x2", "5x2", "3+1"])
def test_forked_encode_equals_serial_encode(group_encodes, monkeypatch,
                                            groups, cpus):
    # the worker trains the first group of each window of two, and a lone
    # last group scores each model's rate term in it; one worker however
    # many CPUs
    video, plan, cfg, serial = group_encodes[groups]
    if isinstance(groups, int):
        assert plan.gom_count == groups
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    posts = record_posts(monkeypatch)
    forked = encode_video(video, plan, small_config(), cfg,
                          keep_reference=True)
    assert len(forks) == 1
    assert_no_child_left()
    assert encode_report(forked) == encode_report(serial)
    lone = range(*plan.goms[-1]) if plan.gom_count % 2 else []
    assert [name for name, _ in posts] == (
        ["_encode_group"] * (plan.gom_count // 2)
        + ["_rate_replies"] * len(lone))


def _encode_error(group_encodes, monkeypatch, bad_gops):
    """Type and message of the error a 3-group encode raises when
    ``train_model`` fails for each clip in ``bad_gops``."""
    video, plan, cfg, _ = group_encodes[3]
    train = pipeline.train_model

    def failing(role, frames, init, config, train_cfg, seed):
        for gop in bad_gops:
            if seed == model_seed(cfg.seed, gop):
                raise NumericError(f"loss diverged in clip {gop}")
        return train(role, frames, init, config, train_cfg, seed)

    monkeypatch.setattr(pipeline, "train_model", failing)
    with pytest.raises(NumericError) as info:
        encode_video(video, plan, small_config(), cfg)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad_gops", [(0,), (2,), (3,), (4,), (2, 4)],
                         ids=["group-0", "child-I", "child-P", "group-2",
                              "child-and-parent"])
def test_forked_encode_raises_the_serial_error(group_encodes, monkeypatch,
                                               bad_gops):
    # clips (0, 1), (2, 3) and (4,) form groups 0, 1 and 2; the worker
    # trains group 0, this process group 1, and then group 2 with its rate
    # term in the worker; the first failing group in order raises
    set_cpus(monkeypatch, 1)
    serial = _encode_error(group_encodes, monkeypatch, bad_gops)
    assert serial[1] == f"loss diverged in clip {bad_gops[0]}"
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert _encode_error(group_encodes, monkeypatch, bad_gops) == serial
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("side", ["encode", "decode"])
def test_group_cut_short_on_the_pipe_runs_in_the_parent(group_encodes,
                                                        monkeypatch, side):
    # a child that dies while it sends a group leaves that group, and every
    # later one of its, to the parent
    video, plan, cfg, serial = group_encodes[5]

    def cut(out, result):
        out.write(pickle.dumps(result)[:-7])
        out.flush()
        os._exit(1)

    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(worker, "_send", cut)
    forks = count_forks(monkeypatch)
    if side == "encode":
        forked = encode_report(encode_video(video, plan, small_config(), cfg,
                                            keep_reference=True))
        expected = encode_report(serial)
    else:
        forked = decode_video(serial.data).frames.tobytes()
        expected = serial.recon.frames.tobytes()
    assert len(forks) == 1
    assert_no_child_left()
    assert forked == expected


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_no_pipe_or_process_to_spare_encodes_serially(group_encodes,
                                                      monkeypatch, call):
    video, plan, cfg, serial = group_encodes[5]
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, call, _fail)
    forked = encode_video(video, plan, small_config(), cfg,
                          keep_reference=True)
    assert_no_child_left()
    assert encode_report(forked) == encode_report(serial)


@pytest.mark.parametrize("groups, cpus", [(3, 1)], ids=["one-cpu"])
def test_one_worker_encodes_without_forking(group_encodes, monkeypatch,
                                            groups, cpus):
    def no_fork():
        raise AssertionError("forked")

    video, plan, cfg, serial = group_encodes[groups]
    assert plan.gom_count == groups
    set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "pipe", no_fork)
    assert encode_report(encode_video(
        video, plan, small_config(), cfg,
        keep_reference=True)) == encode_report(serial)


def test_live_thread_encodes_without_forking(group_encodes, monkeypatch):
    # a fork copies only the calling thread
    video, plan, cfg, serial = group_encodes[3]
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        result = encode_video(video, plan, small_config(), cfg,
                              keep_reference=True)
    finally:
        done.set()
        thread.join()
    assert not forks
    assert encode_report(result) == encode_report(serial)


def test_one_group_encode_forks_one_worker_for_every_model(group_encodes,
                                                           monkeypatch):
    # no second group for the second core: each model's training steps
    # score their rate term in the worker, one task per model
    video, plan, cfg, serial = group_encodes[1]
    assert plan.gom_count == 1 and plan.gop_count == 4
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    forked = encode_video(video, plan, small_config(), cfg,
                          keep_reference=True)
    assert len(forks) == 1
    assert_no_child_left()
    assert encode_report(forked) == encode_report(serial)


def test_live_thread_one_group_encode_forks_no_rate_worker(group_encodes,
                                                           monkeypatch):
    video, plan, cfg, serial = group_encodes[1]
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        result = encode_video(video, plan, small_config(), cfg,
                              keep_reference=True)
    finally:
        done.set()
        thread.join()
    assert not forks
    assert encode_report(result) == encode_report(serial)


# ------------------------------------------------- the worker's lifetime

def test_second_encode_and_decode_fork_nothing(group_encodes, monkeypatch):
    # one worker serves every call of the process: a one-group encode's
    # rate tasks, a window of two groups and a split group decode alike
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    for groups in (1, 3, 1, 3):
        video, plan, cfg, serial = group_encodes[groups]
        result = encode_video(video, plan, small_config(), cfg,
                              keep_reference=True)
        assert encode_report(result) == encode_report(serial)
        assert np.array_equal(decode_video(result.data).frames,
                              serial.recon.frames)
        part, _ = decode_gom(BitstreamReader.from_bytes(result.data), 0)
        assert np.array_equal(part.frames, serial.recon.frames[:len(
            part.frames)])
    assert len(forks) == 1
    assert_no_child_left()


_ENCODE_DECODE = """
import json, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from clipcodec import (BackboneConfig, TrainConfig, UpsampleStage,
                       decode_video, encode_video, partition, synth_video,
                       worker)
config = BackboneConfig(
    kind="nerv-lite", pe_frequencies=4, stem_width=8, base_channels=4,
    base_height=4, base_width=4, stages=(UpsampleStage(2, 4),),
    frame_height=8, frame_width=8)
video = synth_video("moving-blob", 8, 8, 4, velocity=1.0, seed=3)
data = encode_video(video, partition(4, 2, 2), config,
                    TrainConfig(epochs_i=1, epochs_p=1, seed=3)).data
decode_video(data)
print(json.dumps({"worker": worker._worker.pid}))
"""


def test_no_worker_outlives_a_process_that_encoded_and_decoded():
    # the process reaps its worker as it exits, so the pid is gone when
    # the process is: not even a zombie is left for init to reap
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", _ENCODE_DECODE], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    pid = json.loads(run.stdout.splitlines()[-1])["worker"]
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def _no_fork():
    raise AssertionError("forked")


def test_forked_child_never_talks_to_the_parents_worker(encoded_pair,
                                                        monkeypatch):
    # a child of os.fork drops its copies of the worker's pipes and forks
    # a worker of its own; the parent's worker still answers the parent
    result = encoded_pair[-1]
    set_cpus(monkeypatch, 2)
    assert np.array_equal(decode_video(result.data).frames,
                          result.recon.frames)
    parents = worker._worker
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            forgot = worker._worker is None and not worker._busy
            frames = decode_video(result.data).frames
            own = (worker._worker is not None
                   and worker._worker.pid != parents.pid)
            worker.stop()
            ok = forgot and own and np.array_equal(frames,
                                                   result.recon.frames)
            os.write(write, b"1" if ok else b"0")
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as answer:
        assert answer.read() == b"1"
    os.waitpid(pid, 0)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert np.array_equal(decode_video(result.data).frames,
                          result.recon.frames)
    assert worker._worker is parents
    assert_no_child_left()


@pytest.mark.parametrize("how", ["fail", "exit", "cut"])
def test_ended_task_gives_the_serial_result_and_the_next_call_forks(
        model_streams, monkeypatch, how):
    # a task that raises, a worker that dies in it and one cut short on
    # the pipe each end the worker; the call gives the serial walk's
    # error or frames, and the next call forks a fresh worker
    good = model_streams[4]
    data = _stale_crc(good, 0) if how == "fail" else good
    set_cpus(monkeypatch, 1)
    serial = (_gom_raised(data) if how == "fail" else
              decode_gom(BitstreamReader.from_bytes(data), 0)[0].frames)
    expected = decode_gom(BitstreamReader.from_bytes(good), 0)[0].frames
    armed, parent = [how != "fail"], os.getpid()
    decode, send = pipeline.decode_symbols, worker._send

    def dying(*args):
        if armed[0] and os.getpid() != parent:
            os._exit(1)
        return decode(*args)

    def cut(out, result):
        if armed[0]:
            return _cut_send(0)(out, result)
        return send(out, result)

    if how == "exit":
        monkeypatch.setattr(pipeline, "decode_symbols", dying)
    elif how == "cut":
        monkeypatch.setattr(worker, "_send", cut)
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    if how == "fail":
        assert _gom_raised(data) == serial
    else:
        assert np.array_equal(
            decode_gom(BitstreamReader.from_bytes(data), 0)[0].frames,
            serial)
    assert len(forks) == 1 and worker._worker is None
    armed[0] = False
    for calls in (2, 2):
        assert np.array_equal(
            decode_gom(BitstreamReader.from_bytes(good), 0)[0].frames,
            expected)
        assert len(forks) == calls and worker._worker is not None
    assert_no_child_left()


@pytest.mark.parametrize("edit", [
    lambda data: _stale_crc(data, 0), lambda data: _stale_crc(data, 3),
    lambda data: _recoded(data, 1), lambda data: _recoded(data, 2),
    lambda data: _overflowing(data, 1, 4, 1e37),
    lambda data: _overflowing(data, 3, 0, 3.4e38)],
    ids=["crc-I", "crc-last", "recoded-child", "recoded-parent",
         "render-child", "params-parent"])
def test_hostile_stream_after_a_good_one_gives_the_serial_error(
        model_streams, monkeypatch, edit):
    # a worker kept from a good stream decodes the bad one as a fresh one
    # would, and the good stream decodes again after it
    good = model_streams[4]
    data = edit(good)
    set_cpus(monkeypatch, 1)
    serial = _gom_raised(data), _raised(data)
    expected = decode_video(good).frames
    set_cpus(monkeypatch, 2)
    for _ in range(2):
        assert np.array_equal(decode_video(good).frames, expected)
        assert worker._worker is not None
        assert (_gom_raised(data), _raised(data)) == serial
    assert_no_child_left()


# ------------------------------------------------------ the rate worker

RATE_SEED = 21


def _train_one(cpus, monkeypatch, cfg=None):
    """A 3-frame I model trained with ``cpus`` usable CPUs; returns
    :func:`_trained` and the number of forks."""
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    return _trained(cfg), len(forks)


def _trained(cfg=None):
    """Every field of a 3-frame I model's :class:`TrainedModel`, as bytes
    or plain values."""
    config = small_config()
    video = synth_video("moving-blob", 16, 16, 3, velocity=1.0, seed=8)
    trained = train_model("I", video.normalized(np.float32),
                          init_random(config, 2), config,
                          cfg or quick_cfg(epochs_i=2), RATE_SEED)
    assert_no_child_left()
    return (trained.theta_star.to_bytes(),
            [sym.tobytes() for sym in trained.symbols],
            trained.scale.tobytes(), trained.mu.tobytes(),
            trained.sd.tobytes(), trained.epoch_logs)


def _step_noise(step: int) -> np.ndarray:
    """The noise of training step ``step`` (counted over all epochs) of
    :func:`_train_one`: what tells one step from another in every
    process."""
    rng = make_rng(RATE_SEED, STREAM_NOISE)
    size = sum(spec.count for spec in param_layout(small_config()))
    for _ in range(step):
        rng.uniform(-0.5, 0.5, size=size)
    return rng.uniform(-0.5, 0.5, size=size)


def _at_step(step: int, act):
    """A ``rate_bits_train`` that runs ``act`` on its ``(bits, grad)`` at
    training step ``step``, in whichever process scores it, and returns
    its result."""
    target, rate_bits = _step_noise(step), pipeline.rate_bits_train

    def rate(unit, noise, mu, sd, sizes):
        scored = rate_bits(unit, noise, mu, sd, sizes)
        return act(scored) if np.array_equal(noise, target) else scored

    return rate


def test_rate_worker_trains_the_serial_model(monkeypatch):
    serial, forks = _train_one(1, monkeypatch)
    assert forks == 0
    forked, forks = _train_one(2, monkeypatch)
    assert forks == 1
    assert forked == serial  # the epoch logs' loss_r and loss_d too


def _masks_at_adam_steps(monkeypatch):
    """The list that gets, at each of this process's Adam steps while a
    worker lives, the worker's CPU mask and this thread's."""
    seen, adam = [], pipeline.adam_step

    def step(*args):
        if worker._worker is not None:
            seen.append((os.sched_getaffinity(worker._worker.pid),
                         os.sched_getaffinity(0)))
        return adam(*args)

    monkeypatch.setattr(pipeline, "adam_step", step)
    return seen


def test_rate_worker_and_its_caller_run_on_different_cpus(monkeypatch):
    # for its rate task the worker takes the highest usable CPU and this
    # thread the rest; both masks are restored after it
    serial, _ = _train_one(1, monkeypatch)
    masks = set_cpus(monkeypatch, 2)
    seen = _masks_at_adam_steps(monkeypatch)
    assert _trained() == serial
    assert len(seen) == 12  # 2 epochs of 3 frames, two Adam steps each
    assert all(pair == ({1}, {0}) for pair in seen)
    assert len(masks) == 2 and all(m == {0, 1} for m in masks.values())


def test_pinned_caller_is_restored_after_an_error(monkeypatch):
    masks = set_cpus(monkeypatch, 2)
    seen = _masks_at_adam_steps(monkeypatch)
    monkeypatch.setattr(pipeline, "rate_bits_train", _at_step(2, _fail_rate))
    with pytest.raises(ValueError, match="rate term failed"):
        _trained()
    assert_no_child_left()
    assert len(seen) == 4 and all(pair == ({1}, {0}) for pair in seen)
    assert len(masks) == 2 and all(m == {0, 1} for m in masks.values())


@pytest.mark.parametrize("refused, error", [
    ("worker", ProcessLookupError), ("caller", OSError)])
def test_rate_worker_runs_unpinned_where_a_mask_is_refused(monkeypatch,
                                                           refused, error):
    # a pin refused, the worker's (dead) or this thread's, leaves both
    # processes as they were, and the model keeps its bytes
    serial, _ = _train_one(1, monkeypatch)
    set_cpus(monkeypatch, 2)
    set_mask = os.sched_setaffinity

    def refusing(pid, mask):
        if len(mask) == 1 and (pid == 0) == (refused == "caller"):
            raise error(errno.EINVAL, "refused")
        set_mask(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", refusing)
    seen = _masks_at_adam_steps(monkeypatch)
    assert _trained() == serial
    assert len(seen) == 12
    assert all(pair == ({0, 1}, {0, 1}) for pair in seen)


def test_model_without_steps_forks_no_rate_worker(monkeypatch):
    fields, forks = _train_one(2, monkeypatch, quick_cfg(epochs_i=0))
    assert forks == 0 and fields[-1] == []


@pytest.mark.parametrize("step", [0, 3, 5])
@pytest.mark.parametrize("how", ["exit", "cut"])
def test_rate_worker_that_ends_hands_its_steps_back(monkeypatch, how, step):
    # the worker ends before its reply to ``step``, or cuts it short; that
    # step and every later one are scored here, to the same bits
    serial, _ = _train_one(1, monkeypatch)
    if how == "cut":
        monkeypatch.setattr(worker, "_send", _cut_send(step))
    else:
        parent = os.getpid()

        def leave(scored):
            if os.getpid() != parent:
                os._exit(1)
            return scored

        monkeypatch.setattr(pipeline, "rate_bits_train", _at_step(step, leave))
    forked, forks = _train_one(2, monkeypatch)
    assert forks == 1
    assert forked == serial


def _overflow(scored):
    return np.float32(3e38) * np.float32(10.0)  # a RuntimeWarning here


def _fail_rate(scored):
    raise ValueError("rate term failed")


def _non_finite(scored):
    bits, _ = scored
    return bits + np.float32(np.inf), None


@pytest.mark.parametrize("act, error", [
    (_fail_rate, ValueError), (_overflow, RuntimeWarning),
    (_non_finite, NumericError)], ids=["raises", "warns", "non-finite"])
@pytest.mark.parametrize("step", [0, 4])
def test_rate_worker_raises_the_serial_error(monkeypatch, act, error, step):
    # pyproject.toml turns RuntimeWarning into an error, in the worker too;
    # a non-finite rate makes the loss diverge at that step
    monkeypatch.setattr(pipeline, "rate_bits_train", _at_step(step, act))
    raised = []
    for cpus in (1, 2):
        with pytest.raises(error) as info:
            _train_one(cpus, monkeypatch)
        assert_no_child_left()
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    if error is NumericError:
        assert raised[0][1] == f"loss diverged at epoch {step // 3} " \
            f"step {step % 3}"


def test_network_error_waits_for_the_rate_term(monkeypatch):
    # the serial step scores its rate term before the network renders, so
    # a rate term that fails comes first though the worker's reply comes
    # after the network's own error
    monkeypatch.setattr(pipeline, "rate_bits_train", _at_step(2, _fail_rate))
    forward = pipeline.forward_clip
    seen = []

    def overflowing(config, params, t_norms):
        if len(seen) == 2:
            raise NumericError("network overflow")
        seen.append(1)
        return forward(config, params, t_norms)

    monkeypatch.setattr(pipeline, "forward_clip", overflowing)
    for cpus in (1, 2):
        seen.clear()
        with pytest.raises(ValueError, match="rate term failed"):
            _train_one(cpus, monkeypatch)
        assert_no_child_left()


def test_rate_worker_leaves_when_its_parent_closes_the_pipe():
    # the worker keeps no write end of its own request pipe, so a parent
    # that dies, and so closes its end, leaves it an empty pipe: it exits,
    # idle or inside a model's rate task
    params = init_random(small_config(), 0)
    worker._worker = worker.start()
    for task in (None, (pipeline._rate_replies, params.sizes, params.dtype,
                        0, 3)):
        handle = worker._worker
        if task is not None:
            handle.requests.write(pickle.dumps((task[0], task[1:])))
            handle.requests.flush()
        handle.requests.close()
        ready, _, _ = select.select([handle.replies], [], [], 60)
        assert ready and handle.replies.read() == b""
        assert_no_child_left()
        worker._worker = worker.start()
    assert_no_child_left()


def test_rate_task_draws_the_training_loop_noise():
    # the worker is sent only each step's scaled residual and draws its
    # noise from the model's stream: the same bits as the training loop's
    # draw, which is what this process scores where the worker has ended
    params = init_random(small_config(), 2)
    units = [np.random.default_rng(step).standard_normal(
        params.flat.size).astype(np.float32) for step in range(4)]
    requests = io.BytesIO(b"".join(unit.tobytes() for unit in units))
    replies = pipeline._rate_replies(requests, params.sizes, params.dtype,
                                     RATE_SEED, len(units))
    for step, (unit, (bits, grad)) in enumerate(zip(units, replies)):
        want_bits, want_grad = pipeline._score_rate(unit, _step_noise(step),
                                                    params.sizes)
        assert bits.tobytes() == want_bits.tobytes()
        assert grad.tobytes() == want_grad.tobytes()
    assert requests.read() == b""


@pytest.mark.parametrize("step", [1, 4])
def test_dead_rate_worker_steps_replay_with_their_noise(monkeypatch, step):
    # a worker that dies at ``step`` leaves that step and every later one
    # to this process, each scored with that step's own noise
    serial, _ = _train_one(1, monkeypatch)
    parent, score_rate, scored = os.getpid(), pipeline._score_rate, []

    def score(unit, noise, sizes):
        if os.getpid() == parent:
            scored.append(noise.copy())
        elif np.array_equal(noise, _step_noise(step)):
            os._exit(1)
        return score_rate(unit, noise, sizes)

    monkeypatch.setattr(pipeline, "_score_rate", score)
    forked, forks = _train_one(2, monkeypatch)
    assert forks == 1 and forked == serial
    assert len(scored) == 6 - step  # 2 epochs of 3 frames
    for offset, noise in enumerate(scored):
        assert noise.tobytes() == _step_noise(step + offset).tobytes()


PAYLOAD_EDITS = ("flip", "truncate", "extend")


def _mutate_one_model(data: bytes, draw) -> bytes:
    """One model's record field (``mu``, ``sd``, ``scale``, ``epsilon`` or
    ``bound``) set to a drawn value, or its payload's bytes flipped, cut
    short or extended; every CRC is recomputed."""
    reader = BitstreamReader.from_bytes(data)
    header = reader.header
    model = draw(st.integers(0, len(header.records) - 1))
    kind = draw(st.sampled_from(("mu", "sd", "scale", "epsilon", "bound")
                                + PAYLOAD_EDITS))
    if kind == "epsilon":
        return repack(data, model=model, epsilon=draw(st.floats(width=32)))
    if kind not in PAYLOAD_EDITS:
        values = getattr(header.records[model], kind).copy()
        layer = draw(st.integers(0, len(values) - 1))
        values[layer] = draw(st.integers(0, 2 ** 32 - 1) if kind == "bound"
                             else st.floats(width=32))
        return repack(data, model=model, **{kind: values})
    payload = bytearray(reader.read_payload(model))
    if kind == "flip":
        for pos in draw(st.lists(st.integers(0, len(payload) - 1),
                                 min_size=1, max_size=4)):
            payload[pos] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del payload[draw(st.integers(0, len(payload) - 1)):]
    else:
        payload += draw(st.binary(min_size=1, max_size=64))
    return repack(data, model=model, payload=bytes(payload))


# Frame geometry is left to HOSTILE_HEADERS: a mutated frame count can
# legally declare up to MAX_VIDEO_PIXELS, which no example could render.
@settings(max_examples=150, deadline=2000)
@given(st.data())
def test_mutated_stream_decodes_or_raises_bitstream_error(encoded_pair,
                                                          data):
    video, _, _, _, result = encoded_pair
    stream = _mutate_one_model(result.data, data.draw)
    try:
        decoded = decode_video(stream)
    except BitstreamError:
        return
    assert (decoded.width, decoded.height, decoded.frame_count) == \
        (video.width, video.height, video.frame_count)


def _traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peak of the decode below when every table was built on its
# own (numpy 2.4, CPython 3.11); one interval-mass call over all 12
# widest tables of a model peaked at 136.9 MB
PER_LAYER_TABLES_PEAK = 20.64e6


def test_widest_alphabets_decode_within_memory_ceiling():
    # every layer of one record declares the widest alphabet the header
    # allows, 65,535 entries; the tables still fit a fixed budget and the
    # payload, coded with other tables, is refused
    config = nerv_lite_preset(32, 32, "tiny")
    video = synth_video("moving-blob", 32, 32, 4, velocity=1.0, seed=3)
    data = encode_video(video, partition(4, 2, 2), config,
                        quick_cfg(epochs_i=1, epochs_p=1)).data
    layers = BitstreamReader.from_bytes(data).header.n_layers
    stream = repack(data, bound=np.full(layers, MAX_SYMBOL, dtype=np.uint32))

    def decode():
        with pytest.raises(BitstreamError):
            decode_video(stream)

    assert _traced_peak(decode) <= 1.1 * PER_LAYER_TABLES_PEAK


# tracemalloc peak of render_video when every frame walked the whole
# network on its own, flat in the clip length (numpy 2.4, CPython 3.11);
# running every layer on the whole clip peaked at 17.7 MB for p = 5 and
# 69.3 MB for p = 20
PER_FRAME_RENDER_PEAK = 3.89e6


@pytest.mark.parametrize("gop_size", [1, 5, 10, 20, 40])
def test_render_memory_flat_in_clip_length(gop_size):
    config = nerv_lite_preset(64, 64, "small")
    params = init_random(config, 0)

    def render():
        frames = np.empty((40, 3, 64, 64), dtype=np.uint8)
        for start in range(0, 40, gop_size):
            render_video(config, params, frames[start:start + gop_size])

    render()  # warm every cache first
    assert _traced_peak(render) <= 1.25 * PER_FRAME_RENDER_PEAK


@pytest.mark.parametrize("model, layer, scale, message", [
    (model, layer, scale, message)
    for model in (0, 1) for layer, scale, message in (
        (0, 3.4e38, "model {}: scales and symbols overflow the parameters"),
        (4, 1e37, "clip {}: non-finite activation"))],
    ids=["params", "render", "params-parent", "render-parent"])
def test_overflowing_scale_raises_bitstream_error(encoded_pair, monkeypatch,
                                                  layer, scale, message,
                                                  model):
    # a finite scale no encoder writes: symbol * scale overflows float32,
    # or the parameters it yields overflow the network's activations; in
    # group 0, model 0 is the forked child's half and model 1 this
    # process's, and either raises the serial walk's error
    data = _overflowing(encoded_pair[-1].data, model, layer, scale)
    message = message.format(model)
    set_cpus(monkeypatch, 1)
    serial = _gom_raised(data), _raised(data)
    assert all(error[1].startswith(message) for error in serial)
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert (_gom_raised(data), _raised(data)) == serial
    assert len(forks) == 2
    assert_no_child_left()


def test_bpp_accounting(encoded_pair):
    video, config, plan, cfg, result = encoded_pair
    expect = len(result.data) * 8 / (video.frame_count * 16 * 16)
    assert result.bpp == pytest.approx(expect)


def test_m_equals_one_makes_every_model_an_i_model():
    config = small_config()
    video = synth_video("static", 16, 16, 6, seed=1)
    plan = partition(6, 3, 1)
    result = encode_video(video, plan, config, quick_cfg())
    header = BitstreamReader.from_bytes(result.data).header
    assert all(rec.role == "I" for rec in header.records)
    assert all(rec.epsilon == 0.0 for rec in header.records)


def test_encoder_widens_a_step_the_alphabet_cannot_hold(monkeypatch):
    # layer 0 starts with a step so fine that its trained residual is
    # about a million steps wide, far past the coder's alphabet
    first_steps = []

    def narrow(init):
        scales = initial_scales(init)
        scales[0] *= np.float32(3e-6)
        first_steps.append(scales[0])
        return scales

    monkeypatch.setattr(pipeline, "initial_scales", narrow)
    video = synth_video("moving-blob", 16, 16, 4, velocity=1.0, seed=4)
    result = encode_video(video, partition(4, 2, 2), small_config(),
                          quick_cfg(), keep_reference=True)
    header = BitstreamReader.from_bytes(result.data).header
    for rec, step in zip(header.records, first_steps):
        assert rec.bound[0] == MAX_SYMBOL
        assert rec.scale[0] > 20 * step  # widened, not just trained
    decoded = decode_video(result.data)
    assert np.array_equal(decoded.frames, result.recon.frames)


def test_workers_capped_at_group_count(monkeypatch):
    video = synth_video("moving-rect", 16, 16, 8, velocity=1.0, seed=9)
    plan = partition(8, 2, 2)
    cfg = quick_cfg(epochs_i=1, epochs_p=1)
    set_cpus(monkeypatch, 1)
    serial = encode_video(video, plan, small_config(), cfg).data
    set_cpus(monkeypatch, 8)
    forks = count_forks(monkeypatch)
    assert encode_video(video, plan, small_config(), cfg).data == serial
    assert plan.gom_count == 2 and len(forks) == 1
    assert_no_child_left()


def test_encode_rejects_mismatched_plan():
    config = small_config()
    video = synth_video("static", 16, 16, 6, seed=1)
    with pytest.raises(ConfigError):
        encode_video(video, partition(7, 3, 1), config, quick_cfg())


# ------------------------------------------------------------ golden bits

# sha256 of the stream bytes and of the decoded frames for fixed tiny
# encodes (one group: an I model and two P models) of two backbones, and
# the repr of the encoder's psnr_mean.  Pinned at a known-good commit: a
# speed-up must leave all of them unchanged, and any deliberate change of
# the bytes re-pins them with a bitstream version bump.
GOLDEN = {
    "nerv-f32": (
        small_config(),
        "76f46ebcb3168857b0f830d10ab5d2ec1d13b41430dd60b2c33ee83d6d43e692",
        "14641a22db6c2815212109341a2b180038fd8dd0a939525e0d8e37d5ba6b2ab4",
        "15.05685397692767"),
    "coord-mlp": (
        BackboneConfig(kind="coord-mlp", pe_frequencies=4, hidden=(16, 16),
                       frame_height=16, frame_width=16),
        "c3fd8b090fe298d60e95c5b113c441ddb0e520bd5b02610f79e58589b66e2db6",
        "5b7f4aa9104f483e3ef042c3f2d821de72b01134104b6b51c737ad3eadbae4f7",
        "14.66325162821699"),
}


@pytest.mark.parametrize("config, stream_sha256, recon_sha256, psnr_repr",
                         GOLDEN.values(), ids=GOLDEN.keys())
def test_golden_bitstream_and_reconstruction(config, stream_sha256,
                                             recon_sha256, psnr_repr):
    video = synth_video("moving-blob", 16, 16, 6, velocity=1.0, seed=11)
    plan = partition(6, 2, 3)
    result = encode_video(video, plan, config, quick_cfg(seed=11))
    assert [log.role for log in result.per_model] == ["I", "P", "P"]
    decoded = decode_video(result.data)
    assert hashlib.sha256(result.data).hexdigest() == stream_sha256
    assert hashlib.sha256(decoded.frames.tobytes()).hexdigest() \
        == recon_sha256
    assert repr(result.psnr_mean) == psnr_repr
