"""Backbone layout, init, rendering, and gradient correctness."""

import numpy as np
import pytest

from clipcodec import ops
from clipcodec.backbone import (BackboneConfig, UpsampleStage, config_from_text,
                                config_to_text, forward_clip,
                                frame_timestamps, init_random, param_layout,
                                peak_activation)
from clipcodec.errors import ConfigError, NumericError
from clipcodec.presets import nerv_lite_preset
from clipcodec.tensor import Tape
from conftest import as_f64, fd_gradient, rel_error, segment_leaves


def test_layout_is_deterministic(tiny_nerv):
    assert param_layout(tiny_nerv) == param_layout(tiny_nerv)


def test_coord_mlp_layout_segment_count():
    config = BackboneConfig(kind="coord-mlp", pe_frequencies=4,
                            hidden=(64, 64), frame_height=8, frame_width=8)
    layout = param_layout(config)
    weights = [s for s in layout if s.name.endswith("weight")]
    biases = [s for s in layout if s.name.endswith("bias")]
    assert len(weights) == 3 and len(biases) == 3


def test_nerv_layout_structure(tiny_nerv):
    names = [s.name for s in param_layout(tiny_nerv)]
    stem = [n for n in names if n.startswith("stem.")]
    stages = [n for n in names if n.startswith("stage")]
    head = [n for n in names if n.startswith("head.")]
    assert len(stem) == 4          # two stem layers, weight + bias each
    assert len(stages) == 4        # two conv stages, weight + bias each
    assert len(head) == 2
    assert stem + stages + head == names  # stable ordering


def test_inconsistent_upsample_chain_names_stage():
    config = BackboneConfig(stages=(UpsampleStage(2, 8), UpsampleStage(4, 8)),
                            frame_height=16, frame_width=16)
    with pytest.raises(ConfigError, match="stage 1"):
        param_layout(config)


def test_empty_stage_config_rejected():
    config = BackboneConfig(stages=(), frame_height=4, frame_width=4)
    with pytest.raises(ConfigError, match="stage"):
        init_random(config, 0)


def test_init_reproducible_and_seed_sensitive(tiny_nerv):
    a = init_random(tiny_nerv, 7)
    b = init_random(tiny_nerv, 7)
    c = init_random(tiny_nerv, 8)
    assert np.array_equal(a.flat.data, b.flat.data)
    differing = np.mean(a.flat.data != c.flat.data)
    assert differing >= 0.99


def render(config, params, t_norm):
    """The one frame of a one-timestamp clip, a (1, H, W, 3) Tensor."""
    (frame,) = forward_clip(config, params, [t_norm])
    return frame


def test_forward_frame_shape_and_range(tiny_nerv):
    params = init_random(tiny_nerv, 0)
    frame = render(tiny_nerv, params, 0.5)
    assert frame.shape == (1, 16, 16, 3)
    assert np.all(frame.data >= 0.0) and np.all(frame.data <= 1.0)


def test_forward_frame_deterministic(tiny_nerv):
    params = init_random(tiny_nerv, 3)
    a = render(tiny_nerv, params, 0.25).data
    b = render(tiny_nerv, params, 0.25).data
    assert np.array_equal(a, b)


def test_forward_range_even_for_wild_parameters(tiny_nerv):
    params = init_random(tiny_nerv, 1)
    scaled = params.with_flat(params.flat.data * 50.0)
    frame = render(tiny_nerv, scaled, 0.0)
    assert np.all(frame.data >= 0.0) and np.all(frame.data <= 1.0)


def test_forward_rejects_nonfinite_params(tiny_nerv):
    params = init_random(tiny_nerv, 1)
    bad = params.clone()
    bad["stem.fc0.weight"].data[0, 0] = np.nan
    with pytest.raises(NumericError, match="stem.fc0"):
        render(tiny_nerv, bad, 0.0)


TINY32 = nerv_lite_preset(32, 32, "tiny")
SMALL64 = nerv_lite_preset(64, 64, "small")
# (config, whether its parameters are cast to float64)
CLIP_CASES = [
    pytest.param(TINY32, False, id="tiny32-f32"),
    pytest.param(TINY32, True, id="tiny32-f64"),
    pytest.param(SMALL64, False, id="small64-f32"),
    pytest.param(SMALL64, True, id="small64-f64"),
    # the encoding (12 per pixel) batches up to 5 frames; the 64-wide
    # layer never does
    pytest.param(BackboneConfig(kind="coord-mlp", pe_frequencies=2,
                                hidden=(64, 8), frame_height=16,
                                frame_width=16), False, id="coord-mlp"),
]


@pytest.mark.parametrize("config, f64", CLIP_CASES)
def test_clip_render_equals_per_frame_render(config, f64):
    # the batched walk gives every frame the bits, dtype and memory layout
    # of a one-frame render
    params = init_random(config, 3)
    if f64:
        params = as_f64(params)
    for frames in range(1, 7):
        t_norms = frame_timestamps(frames)
        clip = [frame for batch in forward_clip(config, params, t_norms)
                for frame in batch.data]
        assert len(clip) == frames
        for t_norm, got in zip(t_norms, clip):
            want = render(config, params, t_norm).data[0]
            assert (got.shape, got.dtype, got.strides) == \
                (want.shape, want.dtype, want.strides)
            assert got.tobytes() == want.tobytes()


def test_clip_render_batches_only_below_largest_activation(monkeypatch):
    # small@64: the largest one-frame activation is the last stage's,
    # 12 x 64 x 64; a 5-frame clip runs the 8x8 and 16x16 stages as one
    # batch and everything finer one frame at a time
    config = SMALL64
    seen = []
    original = ops.conv2d

    def spy(x, w, b=None, scale=1):
        # the input as the conv sees it, nearest-upsampled
        n, c, h, wd = x.shape
        seen.append((n, c, h * scale, wd * scale))
        return original(x, w, b, scale)

    monkeypatch.setattr(ops, "conv2d", spy)
    list(forward_clip(config, init_random(config, 0), frame_timestamps(5)))
    assert seen[:2] == [(5, 24, 8, 8), (5, 24, 16, 16)]
    assert seen[2:] == [(1, 16, 32, 32), (1, 12, 64, 64), (1, 12, 64, 64)] * 5
    assert max(np.prod(shape) for shape in seen) == 12 * 64 * 64
    assert peak_activation(config) == 12 * 64 * 64


def test_timestamps_normalization():
    assert frame_timestamps(1) == [0.0]
    ts = frame_timestamps(5)
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert ts[2] == pytest.approx(0.5)


def check_clip_mse_gradients(config, t_norms):
    """Every parameter's gradient of the clip's MSE against another
    network's clip, recorded in one call under a tape, against central
    differences, in float64."""
    params = as_f64(init_random(config, 11))
    assert params.flat.size <= 5000
    target = as_f64(init_random(config, 12))  # any fixed params do
    target_frames = np.concatenate(  # no tape: it may come frame by frame
        [batch.data for batch in forward_clip(config, target, t_norms)])

    live = segment_leaves(params)

    def run():
        with Tape() as tape:
            clip = list(forward_clip(config, live, t_norms))
            assert len(clip) == 1 and clip[0].shape[0] == len(t_norms)
            loss = ops.mean_square(ops.sub(clip[0],
                                           ops.constant(target_frames)))
        return loss, tape

    loss, tape = run()
    tape.backward(loss)
    checked = 0
    for name in params.names:
        tensor = live[name]
        analytic = tensor.grad
        assert analytic is not None, name
        numeric = fd_gradient(lambda: run()[0].item(), tensor.data, h=1e-5)
        assert rel_error(analytic, numeric) < 1e-4, name
        checked += tensor.size
    assert checked == params.flat.size


@pytest.mark.parametrize("fixture_name", ["tiny_nerv", "tiny_mlp"])
def test_frame_mse_gradients_match_fd(fixture_name, request):
    check_clip_mse_gradients(request.getfixturevalue(fixture_name), [0.3])


@pytest.mark.parametrize("fixture_name", ["tiny_nerv", "tiny_mlp"])
def test_multi_frame_render_under_tape_records_one_graph(fixture_name,
                                                         request):
    # under a tape nothing splits: a 3-frame call yields one Tensor whose
    # graph reaches every parameter through every frame
    check_clip_mse_gradients(request.getfixturevalue(fixture_name),
                             [0.0, 0.3, 1.0])


def test_config_text_round_trip(tiny_nerv, tiny_mlp):
    for config in (tiny_nerv, tiny_mlp):
        text = config_to_text(config)
        back = config_from_text(text)
        assert back == config
        assert config_to_text(back) == text  # canonical form is stable


# The exact text each config writes into a header: a key out of order, a
# renamed key or a changed value format changes every stream's bytes.
CONFIG_TEXT_PINS = {
    "tiny32-f32": (
        nerv_lite_preset(32, 32, "tiny"),
        "kind = nerv-lite\npe_frequencies = 8\nstem_width = 32\n"
        "base_channels = 12\nbase_height = 4\nbase_width = 4\n"
        "stages = 2x12, 2x10, 2x8\nupsample = nearest\nactivation = gelu\n"
        "frame_height = 32\nframe_width = 32\nprecision = f32\n"),
    "small64-f32": (
        nerv_lite_preset(64, 64, "small"),
        "kind = nerv-lite\npe_frequencies = 8\nstem_width = 64\n"
        "base_channels = 24\nbase_height = 4\nbase_width = 4\n"
        "stages = 2x24, 2x16, 2x12, 2x12\nupsample = nearest\n"
        "activation = gelu\nframe_height = 64\nframe_width = 64\n"
        "precision = f32\n"),
    "coord-mlp": (
        BackboneConfig(kind="coord-mlp", pe_frequencies=3, hidden=(14, 12),
                       frame_height=8, frame_width=6),
        "kind = coord-mlp\npe_frequencies = 3\nhidden = 14, 12\n"
        "activation = gelu\nframe_height = 8\nframe_width = 6\n"
        "precision = f32\n"),
}


@pytest.mark.parametrize("name", CONFIG_TEXT_PINS)
def test_config_text_is_pinned(name):
    config, text = CONFIG_TEXT_PINS[name]
    assert config_to_text(config) == text
    assert config_from_text(text) == config


def test_config_text_omitted_keys_take_field_defaults():
    assert config_from_text("kind = coord-mlp\n") == \
        BackboneConfig(kind="coord-mlp")
    assert config_from_text("stages = 2x16, 2x12, 2x8\n") == BackboneConfig()
    with pytest.raises(ConfigError, match="stages"):
        config_from_text("kind = nerv-lite\npe_frequencies = 8\n")


def test_config_text_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_text("kind = nerv-lite\nbogus = 1\n")


@pytest.mark.parametrize("value", ["f64", "F32", ""])
def test_config_text_refuses_any_precision_but_f32(value):
    text = config_to_text(nerv_lite_preset(16, 16))
    assert text.endswith("\nprecision = f32\n")
    with pytest.raises(ConfigError, match="precision"):
        config_from_text(text.replace("= f32", f"= {value}"))


@pytest.mark.parametrize("line, fixed", [
    ("upsample = subpel", "upsample = nearest"),
    ("upsample = ", "upsample = nearest"),
    ("activation = sin", "activation = gelu"),
    ("activation = sigmoid", "activation = gelu"),
    ("activation = GELU", "activation = gelu")])
def test_config_text_refuses_any_other_value_of_a_fixed_key(line, fixed):
    # every network upsamples nearest-neighbour and has GELU hidden
    # layers; the text still names both, with their one legal value
    text = config_to_text(nerv_lite_preset(16, 16))
    assert f"\n{fixed}\n" in text
    key = fixed.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"unknown {key}"):
        config_from_text(text.replace(fixed, line))
    # omitted, each takes its one value
    assert config_from_text(text.replace(f"{fixed}\n", "")) == \
        nerv_lite_preset(16, 16)


def test_coord_mlp_text_ignores_upsample():
    # upsample is a key only nerv-lite reads: a coord-mlp text may carry
    # it, and any value, as it may carry stages
    text = "kind = coord-mlp\nupsample = subpel\nstages = 2x4\n"
    assert config_from_text(text) == BackboneConfig(kind="coord-mlp")


@pytest.mark.parametrize("text", [
    "kind = nerv-lite\npe_frequencies = many\n",
    "kind = nerv-lite\nstem_width = 4.5\n",
    "kind = coord-mlp\nhidden = 8, wide\n",
])
def test_config_text_rejects_non_integer_values(text):
    with pytest.raises(ConfigError):
        config_from_text(text)
