"""Per-clip implicit models: timestamp in, full frame out.

Two backbones share one parameter-layout contract:

* ``nerv-lite`` -- positional encoding of the clip-local timestamp, a two
  layer MLP stem, reshape to a base feature map, then a chain of
  [nearest-neighbour upsample, 3x3 conv, GELU] stages and a 3x3 conv head
  with a sigmoid.
* ``coord-mlp`` -- a per-pixel MLP over the positional encodings of
  (x, y, t), evaluated on the full pixel grid per frame, with GELU hidden
  layers and a sigmoid output.

Configs serialize to a human-readable ``key = value`` text block; those
exact bytes are embedded in bitstream headers so a decoder rebuilds the
identical network.  The text also names three things that have one value
each: ``upsample = nearest`` (nerv-lite only), ``activation = gelu`` and
``precision = f32``; a text with any other value for them is refused.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import detmath, ops
from .errors import ConfigError, NumericError
from .params import ParamVector, SegmentSpec
from .seeds import STREAM_INIT, make_rng
from .tensor import Tensor, active_tape

KINDS = ("nerv-lite", "coord-mlp")


@dataclass(frozen=True)
class UpsampleStage:
    scale: int
    channels: int

    def __str__(self) -> str:
        return f"{self.scale}x{self.channels}"


@dataclass(frozen=True)
class BackboneConfig:
    kind: str = "nerv-lite"
    pe_frequencies: int = 8
    stem_width: int = 48
    base_channels: int = 16
    base_height: int = 4
    base_width: int = 4
    stages: tuple[UpsampleStage, ...] = (UpsampleStage(2, 16),
                                         UpsampleStage(2, 12),
                                         UpsampleStage(2, 8))
    hidden: tuple[int, ...] = (64, 64)
    frame_height: int = 32
    frame_width: int = 32


def validate(config: BackboneConfig) -> None:
    if config.kind not in KINDS:
        raise ConfigError(f"unknown backbone kind {config.kind!r}")
    if config.pe_frequencies < 1:
        raise ConfigError("pe_frequencies must be >= 1")
    if config.frame_height < 1 or config.frame_width < 1:
        raise ConfigError("frame size must be positive")
    if config.kind == "coord-mlp":
        if not config.hidden or any(w < 1 for w in config.hidden):
            raise ConfigError("coord-mlp hidden widths must be positive")
        return
    if config.stem_width < 1 or config.base_channels < 1:
        raise ConfigError("stem width and base channels must be positive")
    if config.base_height < 1 or config.base_width < 1:
        raise ConfigError("base feature map must be non-empty")
    if not config.stages:
        raise ConfigError("nerv-lite needs at least one upsample stage")
    h, w = config.base_height, config.base_width
    for i, stage in enumerate(config.stages):
        if stage.scale < 1 or stage.channels < 1:
            raise ConfigError(f"upsample stage {i}: scale and channels must "
                              f"be positive")
        h *= stage.scale
        w *= stage.scale
        if h > config.frame_height or w > config.frame_width:
            raise ConfigError(f"upsample stage {i} overshoots the frame: "
                              f"{h}x{w} vs "
                              f"{config.frame_height}x{config.frame_width}")
    if (h, w) != (config.frame_height, config.frame_width):
        raise ConfigError(f"upsample stage {len(config.stages) - 1} leaves "
                          f"{h}x{w}, expected "
                          f"{config.frame_height}x{config.frame_width}")


def param_layout(config: BackboneConfig) -> tuple[SegmentSpec, ...]:
    """Deterministic segment layout; identical configs map to identical
    layouts."""
    validate(config)
    segs: list[SegmentSpec] = []
    if config.kind == "coord-mlp":
        in_dim = 6 * config.pe_frequencies  # sin/cos of F bands over (x,y,t)
        widths = list(config.hidden) + [3]
        for i, out_dim in enumerate(widths):
            segs.append(SegmentSpec(f"mlp.fc{i}.weight", (in_dim, out_dim),
                                    in_dim))
            segs.append(SegmentSpec(f"mlp.fc{i}.bias", (out_dim,), in_dim))
            in_dim = out_dim
        return tuple(segs)

    pe_dim = 2 * config.pe_frequencies
    base = config.base_channels * config.base_height * config.base_width
    segs.append(SegmentSpec("stem.fc0.weight", (pe_dim, config.stem_width),
                            pe_dim))
    segs.append(SegmentSpec("stem.fc0.bias", (config.stem_width,), pe_dim))
    segs.append(SegmentSpec("stem.fc1.weight", (config.stem_width, base),
                            config.stem_width))
    segs.append(SegmentSpec("stem.fc1.bias", (base,), config.stem_width))
    cin = config.base_channels
    for i, stage in enumerate(config.stages):
        cout = stage.channels
        segs.append(SegmentSpec(f"stage{i}.conv.weight", (cout, cin, 3, 3),
                                cin * 9))
        segs.append(SegmentSpec(f"stage{i}.conv.bias", (cout,), cin * 9))
        cin = stage.channels
    segs.append(SegmentSpec("head.conv.weight", (3, cin, 3, 3), cin * 9))
    segs.append(SegmentSpec("head.conv.bias", (3,), cin * 9))
    return tuple(segs)


def init_random(config: BackboneConfig, seed: int) -> ParamVector:
    """Standard-normal draw per segment, scaled by 1/sqrt(fan_in).

    Reproducible from (config, seed) alone: draws happen in layout order
    from a PCG64 stream, in float64, then cast to float32.
    """
    rng = make_rng(seed, STREAM_INIT)
    layout = param_layout(config)
    flat = np.concatenate([
        rng.standard_normal(spec.count, dtype=np.float64)
        * (1.0 / math.sqrt(spec.fan_in)) for spec in layout])
    return ParamVector([(spec.name, spec.shape) for spec in layout],
                       Tensor(flat.astype(np.float32)))


# ------------------------------------------------------------ encodings

def _pe_bands(freqs: int) -> np.ndarray:
    return np.ldexp(np.ones(freqs), np.arange(freqs, dtype=np.int32)) * math.pi


@lru_cache(maxsize=256)
def positional_encoding(t_norm: float, freqs: int) -> np.ndarray:
    """[sin(2^j*pi*t), cos(2^j*pi*t)] for j = 0..freqs-1 (float64,
    read-only), built once per timestamp, since a clip's timestamps recur
    on every epoch."""
    args = t_norm * _pe_bands(freqs)
    row = np.concatenate([detmath.sin(args), detmath.cos(args)])
    row.flags.writeable = False
    return row


def _time_encodings(t: Tensor, freqs: int) -> np.ndarray:
    """One encoding row per timestamp of ``t``; a row has the bits of a
    batch's, since the kernels are elementwise."""
    return np.stack([positional_encoding(float(v), freqs) for v in t.data])


@lru_cache(maxsize=8)
def _grid_encoding(height: int, width: int, freqs: int) -> np.ndarray:
    """Per-pixel (x, y) encodings, rows in raster order (float64)."""
    ys = (np.arange(height) / max(height - 1, 1)).repeat(width)
    xs = np.tile(np.arange(width) / max(width - 1, 1), height)
    bands = _pe_bands(freqs)
    feats = []
    for coord in (xs, ys):
        args = coord[:, None] * bands[None, :]
        feats.append(detmath.sin(args))
        feats.append(detmath.cos(args))
    return np.concatenate(feats, axis=1)


def _finite(name: str, tensor: Tensor) -> Tensor:
    if not np.all(np.isfinite(tensor.data)):
        raise NumericError(f"non-finite activation after {name!r}")
    return tensor


def _layer_sizes(config: BackboneConfig) -> list[int]:
    """Per layer of :func:`_layers`, in order, the elements of the largest
    tensor it makes for one frame."""
    H, W = config.frame_height, config.frame_width
    if config.kind == "coord-mlp":
        return ([H * W * 6 * config.pe_frequencies]
                + [H * W * width for width in config.hidden] + [H * W * 3])
    sizes = [2 * config.pe_frequencies, config.stem_width,
             config.base_channels * config.base_height * config.base_width]
    channels = config.base_channels
    pixels = config.base_height * config.base_width
    for spec in config.stages:
        pixels *= spec.scale * spec.scale
        # a stage counts its input at the output size, as its backward
        # pass builds it
        sizes.append(max(channels, spec.channels) * pixels)
        channels = spec.channels
    return sizes + [3 * H * W]


def peak_activation(config: BackboneConfig) -> int:
    """Elements of the network's largest one-frame activation.  A render
    batches frames through a layer only while the batch stays within it
    (:func:`forward_clip`), so no layer output of a decode holds more."""
    return max(_layer_sizes(config))


def _layers(config: BackboneConfig, params) -> list:
    """The network as a chain of ``(elements, layer)`` pairs.

    ``elements`` counts the largest tensor the layer makes for one frame
    (:func:`_layer_sizes`).
    A layer maps a batch of frames to the same batch one layer on.  The
    first takes the timestamps; after it, a batch holds its frames' rows
    back to back along the first axis (one row per frame for nerv-lite,
    H*W for coord-mlp).  The last returns (n, H, W, 3).  The encodings
    take the dtype of the first layer's weight.
    """
    get = params.__getitem__
    dtype = get("mlp.fc0.weight" if config.kind == "coord-mlp"
                else "stem.fc0.weight").dtype
    H, W = config.frame_height, config.frame_width
    freqs = config.pe_frequencies

    def dense(name, activation):
        def layer(x):
            x = ops.add(ops.matmul(x, get(f"{name}.weight")),
                        get(f"{name}.bias"))
            return _finite(name, activation(x))
        return layer

    if config.kind == "coord-mlp":
        xy = _grid_encoding(H, W, freqs)
        last = len(config.hidden)

        def encode(t):
            rows = np.concatenate(
                [np.tile(xy, (t.size, 1)),
                 np.repeat(_time_encodings(t, freqs), H * W, axis=0)],
                axis=1)
            return ops.constant(rows.astype(dtype))

        out = dense(f"mlp.fc{last}", ops.sigmoid)

        def head(x):
            x = out(x)
            return ops.reshape(x, (x.shape[0] // (H * W), H, W, 3))

        fns = ([encode]
               + [dense(f"mlp.fc{i}", ops.gelu) for i in range(last)]
               + [head])
        return list(zip(_layer_sizes(config), fns))

    def encode(t):
        return ops.constant(_time_encodings(t, freqs).astype(dtype))

    fc1 = dense("stem.fc1", ops.gelu)

    def stem(x):
        x = fc1(x)
        return ops.reshape(x, (x.shape[0], config.base_channels,
                               config.base_height, config.base_width))

    def stage(i, scale):
        weight = get(f"stage{i}.conv.weight")
        bias = get(f"stage{i}.conv.bias")

        def layer(x):
            x = ops.conv2d(x, weight, bias, scale)
            return _finite(f"stage{i}", ops.gelu(x))
        return layer

    def head(x):
        x = ops.conv2d(x, get("head.conv.weight"), get("head.conv.bias"))
        x = _finite("head", ops.sigmoid(x))
        return ops.permute(x, (0, 2, 3, 1))

    fns = ([encode, dense("stem.fc0", ops.gelu), stem]
           + [stage(i, spec.scale) for i, spec in enumerate(config.stages)]
           + [head])
    return list(zip(_layer_sizes(config), fns))


def forward_clip(config: BackboneConfig, params, t_norms):
    """Render a clip's frames in [0, 1], yielded in order as (n, H, W, 3)
    Tensors: the one walk of the network, for training and rendering.

    Each layer runs on every frame at once while that batch holds no more
    elements than the network's largest one-frame activation.  From the
    first layer where it would hold more, each frame runs the remaining
    layers on its own, depth first, and is yielded (n = 1) before the next
    one starts, so a long clip never holds more than one frame's
    activations past that layer.  Under an active
    :class:`~clipcodec.tensor.Tape` nothing splits: the one Tensor yielded
    carries the whole clip's graph.  A frame has the same bits however it
    is batched: the ``detmath`` kernels are elementwise and ``einsum`` sums
    each output element over channels only, so every element goes through
    the same operations in the same order.
    """
    t_norms = tuple(t_norms)
    for t_norm in t_norms:
        if not 0.0 <= t_norm <= 1.0:
            raise ConfigError(f"timestamp {t_norm} outside [0, 1]")
    frames = len(t_norms)
    layers = _layers(config, params)
    largest = math.inf
    if active_tape() is None:
        largest = peak_activation(config)
    x = Tensor(np.asarray(t_norms, dtype=np.float64))
    for depth, (size, layer) in enumerate(layers):
        if frames * size > largest:
            break
        x = layer(x)
    else:
        yield x
        return
    rows = x.shape[0] // frames
    for i in range(frames):
        y = Tensor(x.data[i * rows:(i + 1) * rows])
        for _, layer in layers[depth:]:
            y = layer(y)
        yield y


def frame_timestamps(length: int) -> list[float]:
    """Clip-local normalized timestamps: i/(p-1); a 1-frame clip maps to 0."""
    if length == 1:
        return [0.0]
    return [i / (length - 1) for i in range(length)]


# ----------------------------------------------------- config text format

# One config key per BackboneConfig field, and three fixed keys with no
# field and one legal value each, which a text may omit.  _KEYS is the
# order a text writes them in.  A key only the other kind reads is
# accepted and ignored.
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(BackboneConfig)}
_FIXED = {"upsample": "nearest", "activation": "gelu", "precision": "f32"}
_KEYS = ("kind", "pe_frequencies", "stem_width", "base_channels",
         "base_height", "base_width", "stages", "upsample", "hidden",
         "activation", "frame_height", "frame_width", "precision")
_KIND_KEYS = {
    "nerv-lite": {"stem_width", "base_channels", "base_height", "base_width",
                  "stages", "upsample"},
    "coord-mlp": {"hidden"},
}


def _ignored_keys(kind: str) -> set[str]:  # the keys only other kinds read
    return set().union(*_KIND_KEYS.values()) - _KIND_KEYS.get(kind, set())


def config_to_text(config: BackboneConfig) -> str:
    """Canonical ``key = value`` text: the keys ``config.kind`` reads, in
    ``_KEYS`` order (see docs/bitstream.md)."""
    validate(config)
    ignored = _ignored_keys(config.kind)
    text = ""
    for key in _KEYS:
        value = _FIXED[key] if key in _FIXED else getattr(config, key)
        if isinstance(value, tuple):  # stages or hidden widths
            value = ", ".join(map(str, value))
        if key not in ignored:
            text += f"{key} = {value}\n"
    return text


def config_from_text(text: str) -> BackboneConfig:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        fields[key] = value

    # an omitted key keeps its BackboneConfig field default (or its fixed
    # value), except that a nerv-lite text must name its stages
    kind = fields.get("kind", BackboneConfig.kind)
    ignored = _ignored_keys(kind)
    kwargs = {key: _parse_value(key, value) for key, value in fields.items()
              if key not in ignored}
    for key, fixed in _FIXED.items():
        value = kwargs.pop(key, fixed)
        if value != fixed:
            raise ConfigError(f"unknown {key} {value!r} ({key} is always "
                              f"{fixed})")
    if kind == "nerv-lite" and "stages" not in kwargs:
        raise ConfigError("nerv-lite config needs a 'stages' key")
    config = BackboneConfig(**kwargs)
    validate(config)
    return config


def _parse_value(key: str, value: str):
    """One config value, typed as its BackboneConfig field."""
    if key == "stages":
        stages = []
        for part in _list_items(value):
            try:
                scale, channels = part.split("x")
                stages.append(UpsampleStage(int(scale), int(channels)))
            except ValueError:
                raise ConfigError(f"bad stage spec {part!r} (want SxC)") \
                    from None
        return tuple(stages)
    if key == "hidden":
        try:
            return tuple(int(w) for w in _list_items(value))
        except ValueError:
            raise ConfigError(f"bad hidden widths {value!r}") from None
    if _FIELD_TYPES.get(key) == "int":
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"config key {key!r}: {value!r} is not an "
                              f"integer") from None
    return value


def _list_items(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]
