"""Partitioning, training, and the encode/decode closure."""

import concurrent.futures
import hashlib
import multiprocessing
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clipcodec import detmath, ops, pipeline
from clipcodec.backbone import (BackboneConfig, UpsampleStage, forward_clip,
                                forward_frame, init_random, param_layout)
from clipcodec.bitstream import _FIXED, BitstreamReader
from clipcodec.errors import BitstreamError, ConfigError
from clipcodec.optim import adam_init, adam_step
from clipcodec.pipeline import (TrainConfig, decode_gom, decode_video,
                                encode_video, partition, render_video,
                                train_model, training_step_loss)
from clipcodec.presets import nerv_lite_preset
from clipcodec.params import ParamVector
from clipcodec.ratequant import (MAX_SYMBOL, QuantScale, initial_scales,
                                 layer_stats)
from clipcodec.seeds import STREAM_NOISE, make_rng, model_seed
from clipcodec.tensor import Tape, Tensor
from clipcodec.video import synth_video
from clipcodec.warmstart import EpsilonSchedule
from conftest import (HOSTILE_HEADERS, PerSegmentAdam, fd_gradient,
                      rate_bits_layers, rel_error, repack, set_config_byte)


def small_config(size=16, precision="f32"):
    return BackboneConfig(
        kind="nerv-lite", pe_frequencies=4, stem_width=16, base_channels=8,
        base_height=4, base_width=4,
        stages=(UpsampleStage(2, 8), UpsampleStage(2, 6)),
        frame_height=size, frame_width=size, precision=precision)


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

def test_zero_epoch_budget_snaps_to_init():
    config = small_config()
    video = synth_video("static", 16, 16, 4, seed=0)
    frames = video.normalized(np.float32)
    init = init_random(config, 1)
    trained = train_model("I", frames, init, config,
                          quick_cfg(epochs_i=0), 1)
    for sym in trained.symbols:
        assert not sym.any()
    assert np.array_equal(trained.theta_star.flatten(), init.flatten())


def test_training_is_deterministic():
    config = small_config()
    video = synth_video("moving-rect", 16, 16, 4, velocity=1.0, seed=2)
    frames = video.normalized(np.float32)
    init = init_random(config, 3)

    def run():
        return train_model("I", frames, init, config, quick_cfg(), 3)

    a, b = run(), run()
    assert np.array_equal(a.theta_star.flatten(), b.theta_star.flatten())
    assert np.array_equal(a.scales.values, b.scales.values)
    assert np.array_equal(a.stats.mu, b.stats.mu)
    for sa, sb in zip(a.symbols, b.symbols):
        assert np.array_equal(sa, sb)


def test_step_loss_gradients_match_fd_with_frozen_stats():
    """Rate-term path (smooth): autodiff vs FD on theta and log-scales."""
    config = BackboneConfig(
        kind="nerv-lite", pe_frequencies=3, stem_width=8, base_channels=4,
        base_height=4, base_width=4, stages=(UpsampleStage(2, 4),),
        frame_height=8, frame_width=8, precision="f64")
    theta_prime = init_random(config, 0)
    theta_star = theta_prime.clone(requires_grad=True)
    rng = make_rng(7)
    # displace from the warm start so the residual is non-trivial
    for name in theta_star.names:
        theta_star[name].data += rng.standard_normal(
            theta_star[name].shape) * 0.01
    log_scales = ParamVector([
        (name, Tensor(np.asarray(-4.0), requires_grad=True))
        for name in theta_star.names])
    noise = [rng.uniform(-0.5, 0.5, theta_prime[n].shape)
             for n in theta_prime.names]
    target = rng.uniform(0, 1, (8, 8, 3))
    scaled0 = [
        (theta_star[n].data - theta_prime[n].data).reshape(-1)
        / np.exp(-4.0) for n in theta_star.names]
    stats = layer_stats(scaled0, theta_star.names)

    def run_rate_only():
        with Tape() as tape:
            scaled = []
            for name in theta_star.names:
                step = ops.exp(log_scales[name])
                delta = ops.sub(theta_star[name], theta_prime[name])
                scaled.append(ops.div(delta, step))
            bits = rate_bits_layers(scaled, noise, stats)
        return bits, tape

    bits, tape = run_rate_only()
    tape.backward(bits)
    # check one weight segment and one log-scale end to end
    name = theta_star.names[0]
    analytic = theta_star[name].grad.copy()
    numeric = fd_gradient(lambda: run_rate_only()[0].item(),
                          theta_star[name].data, h=1e-6)
    assert rel_error(analytic, numeric) < 1e-4

    # gradients add into .grad across tapes, so clear both leaf sets
    # before the second backward pass
    theta_star.clear_grads()
    log_scales.clear_grads()
    bits, tape = run_rate_only()
    tape.backward(bits)
    ls = log_scales[name]
    analytic_s = np.asarray(ls.grad).copy()
    numeric_s = fd_gradient(lambda: run_rate_only()[0].item(), ls.data,
                            h=1e-6)
    assert rel_error(analytic_s, numeric_s) < 1e-4


def test_step_loss_full_graph_runs_and_is_finite():
    config = small_config(precision="f64")
    theta_prime = init_random(config, 0)
    theta_star = theta_prime.clone(requires_grad=True)
    log_scales = ParamVector([
        (name, Tensor(np.asarray(-4.0), requires_grad=True))
        for name in theta_star.names])
    rng = make_rng(3)
    noise = rng.uniform(-0.5, 0.5, theta_prime.total_count)
    target = rng.uniform(0, 1, (16, 16, 3))
    with Tape() as tape:
        loss, rate, mse, stats = training_step_loss(
            config, theta_prime, theta_star, log_scales, target, 0.5,
            1e6, noise)
    assert np.isfinite(loss.data)
    tape.backward(loss)
    grads = [theta_star[n].grad for n in theta_star.names]
    assert all(g is not None and np.all(np.isfinite(g)) for g in grads)


def _training_step_loss_per_layer(config, theta_prime, theta_star,
                                  log_scales, target_hw3, t_norm, lam,
                                  noise):
    """Reference: the lattice built by one op chain per layer, as before
    the flat chain.  ``training_step_loss`` must match it bit for bit."""
    scaled = []
    effective = {}
    for name in theta_star.names:
        step = ops.exp(log_scales[name])
        delta = ops.sub(theta_star[name], theta_prime[name])
        unit = ops.div(delta, step)
        scaled.append(unit)
        snapped = ops.mul(ops.ste_round(unit), step)
        effective[name] = ops.add(theta_prime[name], snapped)
    stats = layer_stats([u.data for u in scaled], theta_star.names)
    rate = rate_bits_layers(scaled, noise, stats)
    frame = forward_frame(config, effective, t_norm)
    mse = ops.mean_square(ops.sub(frame, ops.constant(target_hw3)))
    loss = ops.add(rate, ops.mul(mse, lam))
    return loss, rate, mse, stats


def _one_channel_config(precision):
    # stage 0 has one output channel, so its bias is a 1-element layer
    return BackboneConfig(
        kind="nerv-lite", pe_frequencies=3, stem_width=8, base_channels=4,
        base_height=4, base_width=4, stages=(UpsampleStage(2, 1),),
        frame_height=8, frame_width=8, precision=precision)


def _trainable(config, seed):
    """Warm start, displaced live parameters and their log-scales."""
    theta_prime = init_random(config, seed)
    theta_star = theta_prime.clone(requires_grad=True)
    rng = make_rng(seed + 1)
    for name in theta_star.names:
        theta_star[name].data += (rng.standard_normal(
            theta_star[name].shape) * 0.02).astype(config.dtype)
    log_scales = ParamVector([
        (name, Tensor(np.asarray(detmath.log(value), dtype=config.dtype),
                      requires_grad=True))
        for name, value in zip(theta_prime.names,
                               initial_scales(theta_prime).values)])
    return theta_prime, theta_star, log_scales


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_flat_step_and_adam_match_per_layer_reference_bitwise(precision):
    config = _one_channel_config(precision)
    assert 1 in [spec.count for spec in param_layout(config)]
    video = synth_video("moving-blob", 8, 8, 3, velocity=1.0, seed=2)
    targets = video.normalized(config.dtype).transpose(0, 2, 3, 1)
    prime, star, logs = _trainable(config, 4)
    _, ref_star, ref_logs = _trainable(config, 4)
    opt_star, opt_logs = adam_init(star), adam_init(logs)
    ref_opt_star = PerSegmentAdam(ref_star)
    ref_opt_logs = PerSegmentAdam(ref_logs)
    rng, ref_rng = make_rng(9, STREAM_NOISE), make_rng(9, STREAM_NOISE)
    for step in range(6):
        t_norm, target = step % 3 / 2, targets[step % 3]
        noise = rng.uniform(-0.5, 0.5, size=star.total_count)
        ref_noise = [ref_rng.uniform(-0.5, 0.5, size=t.shape)
                     for t in ref_star.tensors()]
        with Tape() as tape:
            loss, rate, mse, stats = training_step_loss(
                config, prime, star, logs, target, t_norm, 1e4, noise)
        tape.backward(loss)
        with Tape() as ref_tape:
            ref_loss, ref_rate, _, ref_stats = _training_step_loss_per_layer(
                config, prime, ref_star, ref_logs, target, t_norm, 1e4,
                ref_noise)
        ref_tape.backward(ref_loss)
        assert loss.data.dtype == config.dtype
        assert loss.data.tobytes() == ref_loss.data.tobytes()
        assert rate.data.tobytes() == ref_rate.data.tobytes()
        assert stats.mu.tobytes() == ref_stats.mu.tobytes()
        assert stats.sd.tobytes() == ref_stats.sd.tobytes()
        for got, want in zip(star.tensors() + logs.tensors(),
                             ref_star.tensors() + ref_logs.tensors()):
            assert np.shape(got.grad) == np.shape(want.grad)
            assert np.asarray(got.grad).tobytes() == \
                np.asarray(want.grad).tobytes()
        lr = 5e-3 * (step + 1)
        adam_step(star, opt_star, lr)
        adam_step(logs, opt_logs, lr)
        ref_opt_star.update(ref_star, lr)
        ref_opt_logs.update(ref_logs, lr)
        for pv in (star, logs, ref_star, ref_logs):
            pv.clear_grads()
    assert star.to_bytes() == ref_star.to_bytes()
    assert logs.to_bytes() == ref_logs.to_bytes()
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
    # must be gone before _freeze_lattice and the clip render run
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

    monkeypatch.setattr(pipeline, "forward_frame", counted(forward_frame))
    monkeypatch.setattr(pipeline, "forward_clip", counted(forward_clip))
    cfg = quick_cfg(epochs_i=2, epochs_p=1)
    result = encode_video(video, partition(4, 2, 2), config, cfg,
                          keep_reference=True)
    assert len(calls) == 2 * 2 + 1 * 2 + 2
    monkeypatch.undo()
    assert np.array_equal(decode_video(result.data).frames,
                          result.recon.frames)
    model = train_model("I", video.normalized(np.float32)[:2],
                        init_random(config, model_seed(cfg.seed, 0)),
                        config, cfg, model_seed(cfg.seed, 0))
    assert np.array_equal(model.frames, result.recon.frames[:2])
    assert model.final_mse == result.per_model[0].final_mse


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


def test_decoded_parameters_bit_identical(encoded_pair, monkeypatch):
    # the encoder's lattice-snapped parameters, as train_model returns
    # them, are the parameters the decoder renders with, bit for bit
    video, config, plan, cfg, result = encoded_pair
    encoded, decoded = [], []
    train, render = pipeline.train_model, pipeline.render_video

    def train_spy(*args, **kwargs):
        trained = train(*args, **kwargs)
        encoded.append(trained.theta_star)
        return trained

    def render_spy(config, params, frames):
        decoded.append(params)
        return render(config, params, frames)

    monkeypatch.setattr(pipeline, "train_model", train_spy)
    monkeypatch.setattr(pipeline, "render_video", render_spy)
    assert encode_video(video, plan, config, cfg).data == result.data
    decode_video(result.data)
    assert len(encoded) == len(decoded) == plan.gop_count
    for theta_encoded, theta_decoded in zip(encoded, decoded):
        assert np.array_equal(theta_decoded.flatten(),
                              theta_encoded.flatten())


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
    lo = reader.header.payload_offset(plan.goms[1][0])
    hi = reader.header.payload_offset(plan.goms[1][1] - 1) \
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


def test_decode_frame_count_and_range(encoded_pair):
    video, config, plan, cfg, result = encoded_pair
    decoded = decode_video(result.data)
    assert decoded.frame_count == plan.frame_count
    fragment, (start, end) = decode_gom(
        BitstreamReader.from_bytes(result.data), 0)
    assert (start, end) == plan.gom_frame_range(0)
    assert fragment.frame_count == end - start
    assert np.array_equal(fragment.frames, decoded.frames[start:end])


@pytest.mark.parametrize("edit", [edit for _, edit in HOSTILE_HEADERS],
                         ids=[name for name, _ in HOSTILE_HEADERS])
def test_hostile_header_fields_raise_before_any_payload(encoded_pair, edit):
    result = encoded_pair[-1]
    data = repack(result.data, **edit)
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
        data = set_config_byte(data, 0, 0xFF)
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


def test_decode_video_plans_the_stream_once(encoded_pair):
    # decode_video runs decode_gom per group; a plan per group made a
    # stream of 4,000 one-clip groups decode 4x slower than one plan did
    pipeline.partition.cache_clear()
    decode_video(encoded_pair[-1].data)
    assert pipeline.partition.cache_info().misses == 1


def test_cut_stream_refused_before_any_render(encoded_pair, monkeypatch):
    # the whole-stream decode checks the stream's length up front; the
    # cut is in group 1, so only a lazy check would render group 0 first
    rendered = []
    monkeypatch.setattr(pipeline, "render_video",
                        lambda *args: rendered.append(args))
    with pytest.raises(BitstreamError, match="shorter"):
        decode_video(encoded_pair[-1].data[:-1])
    assert not rendered


def test_payloads_are_read_to_their_last_byte(encoded_pair, monkeypatch):
    # a valid payload's length is exactly what the range decoder reads
    from clipcodec.coder import RangeDecoder
    reader = BitstreamReader.from_bytes(encoded_pair[-1].data)
    consumed = {}
    original = RangeDecoder.decode_layer

    def spy(self, model, count):
        layer = original(self, model, count)
        # keyed by the decoder itself, which keeps it alive: a freed
        # decoder's id() can be reused by the next one
        consumed[self] = self.consumed
        return layer

    monkeypatch.setattr(RangeDecoder, "decode_layer", spy)
    decode_video(encoded_pair[-1].data)
    assert sorted(consumed.values()) == sorted(
        rec.payload_len for rec in reader.header.records)


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


@pytest.mark.parametrize("layer, scale, message", [
    (0, 3.4e38, "overflow the parameters"),
    (4, 1e37, "non-finite activation")], ids=["params", "render"])
def test_overflowing_scale_raises_bitstream_error(encoded_pair, layer, scale,
                                                  message):
    # a finite scale no encoder writes: symbol * scale overflows float32,
    # or the parameters it yields overflow the network's activations
    data = encoded_pair[-1].data
    values = BitstreamReader.from_bytes(data).header.records[0].scale.copy()
    values[layer] = scale
    data = repack(data, scale=values)
    with pytest.raises(BitstreamError, match=message):
        decode_video(data)
    with pytest.raises(BitstreamError, match=message):
        decode_gom(BitstreamReader.from_bytes(data), 0)


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
        values = scales.values.copy()
        values[0] *= np.float32(3e-6)
        first_steps.append(values[0])
        return QuantScale(scales.names, values)

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


def test_jobs_pool_capped_at_group_count(monkeypatch):
    # a stand-in pool records its size and runs the groups inline, so
    # no process starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    video = synth_video("moving-rect", 16, 16, 8, velocity=1.0, seed=9)
    plan = partition(8, 2, 2)
    cfg = quick_cfg(epochs_i=1, epochs_p=1)
    pooled = encode_video(video, plan, small_config(), cfg, jobs=64)
    assert sizes == [plan.gom_count] == [2]
    assert not multiprocessing.active_children()
    assert pooled.data == encode_video(video, plan, small_config(), cfg).data


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs):
    video = synth_video("static", 16, 16, 4, seed=1)
    with pytest.raises(ConfigError, match="jobs"):
        encode_video(video, partition(4, 2, 2), small_config(), quick_cfg(),
                     jobs=jobs)


def test_parallel_jobs_reproduce_serial_bitstream():
    config = small_config()
    video = synth_video("moving-rect", 16, 16, 8, velocity=1.0, seed=9)
    plan = partition(8, 2, 2)  # two independent groups
    assert plan.gom_count == 2
    cfg = quick_cfg()
    serial = encode_video(video, plan, config, cfg, jobs=1)
    parallel = encode_video(video, plan, config, cfg, jobs=2)
    assert serial.data == parallel.data


def test_run_log_records_epochs(tmp_path, encoded_pair):
    video, config, plan, cfg, _ = encoded_pair
    log_path = tmp_path / "train.jsonl"
    encode_video(video, plan, config, cfg, log_path=log_path)
    import json
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert lines
    assert {"model", "role", "epoch", "loss_r", "loss_d", "lr"} <= \
        set(lines[0])
    models = {line["model"] for line in lines}
    assert models == set(range(plan.gop_count))


def test_encode_rejects_mismatched_plan():
    config = small_config()
    video = synth_video("static", 16, 16, 6, seed=1)
    with pytest.raises(ConfigError):
        encode_video(video, partition(7, 3, 1), config, quick_cfg())


# ------------------------------------------------------------ golden bits

# sha256 of the stream bytes and of the decoded frames for one fixed tiny
# encode (one group: an I model and two P models).  Pinned at a known-good
# commit: a speed-up must leave both unchanged, and any deliberate change
# of the bytes re-pins them with a bitstream version bump.
GOLDEN_STREAM_SHA256 = \
    "76f46ebcb3168857b0f830d10ab5d2ec1d13b41430dd60b2c33ee83d6d43e692"
GOLDEN_RECON_SHA256 = \
    "14641a22db6c2815212109341a2b180038fd8dd0a939525e0d8e37d5ba6b2ab4"


def test_golden_bitstream_and_reconstruction():
    config = small_config()
    video = synth_video("moving-blob", 16, 16, 6, velocity=1.0, seed=11)
    plan = partition(6, 2, 3)
    result = encode_video(video, plan, config, quick_cfg(seed=11))
    assert [log.role for log in result.per_model] == ["I", "P", "P"]
    decoded = decode_video(result.data)
    assert hashlib.sha256(result.data).hexdigest() == GOLDEN_STREAM_SHA256
    assert hashlib.sha256(decoded.frames.tobytes()).hexdigest() \
        == GOLDEN_RECON_SHA256
