"""Backbone layout, init, rendering, and gradient correctness."""

import numpy as np
import pytest

from clipcodec import ops
from clipcodec.backbone import (BackboneConfig, UpsampleStage, config_from_text,
                                config_to_text, forward_frame,
                                frame_timestamps, init_random, memory_proxy,
                                param_layout)
from clipcodec.errors import ConfigError, NumericError
from clipcodec.params import ParamVector
from clipcodec.tensor import Tape, Tensor
from conftest import fd_gradient, rel_error


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
    assert np.array_equal(a.flatten(), b.flatten())
    differing = np.mean(a.flatten() != c.flatten())
    assert differing >= 0.99


def test_forward_frame_shape_and_range(tiny_nerv):
    params = init_random(tiny_nerv, 0)
    frame = forward_frame(tiny_nerv, params, 0.5)
    assert frame.shape == (16, 16, 3)
    assert np.all(frame.data >= 0.0) and np.all(frame.data <= 1.0)


def test_forward_frame_deterministic(tiny_nerv):
    params = init_random(tiny_nerv, 3)
    a = forward_frame(tiny_nerv, params, 0.25).data
    b = forward_frame(tiny_nerv, params, 0.25).data
    assert np.array_equal(a, b)


def test_forward_range_even_for_wild_parameters(tiny_nerv):
    params = init_random(tiny_nerv, 1)
    scaled = ParamVector([(n, Tensor(t.data * 50.0))
                          for n, t in params.items()])
    frame = forward_frame(tiny_nerv, scaled, 0.0)
    assert np.all(frame.data >= 0.0) and np.all(frame.data <= 1.0)


def test_forward_rejects_nonfinite_params(tiny_nerv):
    params = init_random(tiny_nerv, 1)
    bad = params.clone()
    bad["stem.fc0.weight"].data[0, 0] = np.nan
    with pytest.raises(NumericError, match="stem.fc0"):
        forward_frame(tiny_nerv, bad, 0.0)


def test_timestamps_normalization():
    assert frame_timestamps(1) == [0.0]
    ts = frame_timestamps(5)
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert ts[2] == pytest.approx(0.5)


@pytest.mark.parametrize("fixture_name",
                         ["tiny_nerv", "tiny_subpel", "tiny_mlp"])
def test_frame_mse_gradients_match_fd(fixture_name, request):
    config = request.getfixturevalue(fixture_name)
    params = init_random(config, 11)
    assert params.total_count <= 5000
    target = init_random(config, 12)  # any fixed params make a target
    target_frame = forward_frame(config, target, 0.3).data

    live = params.clone(requires_grad=True)

    def run():
        with Tape() as tape:
            frame = forward_frame(config, live, 0.3)
            loss = ops.mean_square(ops.sub(frame,
                                           ops.constant(target_frame)))
        return loss, tape

    loss, tape = run()
    tape.backward(loss)
    checked = 0
    for name in live.names:
        tensor = live[name]
        analytic = tensor.grad
        assert analytic is not None, name
        numeric = fd_gradient(lambda: run()[0].item(), tensor.data, h=1e-5)
        assert rel_error(analytic, numeric) < 1e-4, name
        checked += tensor.size
    assert checked == params.total_count


def test_config_text_round_trip(tiny_nerv, tiny_subpel, tiny_mlp):
    for config in (tiny_nerv, tiny_subpel, tiny_mlp):
        text = config_to_text(config)
        back = config_from_text(text)
        assert back == config
        assert config_to_text(back) == text  # canonical form is stable


def test_config_text_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_text("kind = nerv-lite\nbogus = 1\n")


@pytest.mark.parametrize("text", [
    "kind = nerv-lite\npe_frequencies = many\n",
    "kind = nerv-lite\nstem_width = 4.5\n",
    "kind = coord-mlp\nhidden = 8, wide\n",
])
def test_config_text_rejects_non_integer_values(text):
    with pytest.raises(ConfigError):
        config_from_text(text)


def test_memory_proxy_monotone_in_tier():
    from clipcodec.presets import nerv_lite_preset
    tiers = [memory_proxy(nerv_lite_preset(32, 32, t))
             for t in ("tiny", "small", "medium")]
    assert tiers[0] < tiers[1] < tiers[2]
