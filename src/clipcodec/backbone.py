"""Per-clip implicit models: timestamp in, full frame out.

Two backbones share one parameter-layout contract:

* ``nerv-lite`` -- positional encoding of the clip-local timestamp, a two
  layer MLP stem, reshape to a base feature map, then a chain of
  [upsample, 3x3 conv, activation] stages and a 3x3 conv head with a
  sigmoid.  Upsampling is nearest-neighbour by default; ``subpel`` swaps
  in conv-to-r*r-channels followed by pixel shuffle.
* ``coord-mlp`` -- a per-pixel MLP over the positional encodings of
  (x, y, t), evaluated on the full pixel grid per frame.

Configs serialize to a human-readable ``key = value`` text block; those
exact bytes are embedded in bitstream headers so a decoder rebuilds the
identical network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import detmath, ops
from .errors import ConfigError, NumericError
from .params import ParamVector, SegmentSpec
from .seeds import STREAM_INIT, make_rng
from .tensor import DTYPES, Tensor

ACTIVATIONS = ("gelu", "sin", "sigmoid")
UPSAMPLE_KINDS = ("nearest", "subpel")
KINDS = ("nerv-lite", "coord-mlp")


@dataclass(frozen=True)
class UpsampleStage:
    scale: int
    channels: int


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
    activation: str = "gelu"
    upsample: str = "nearest"
    precision: str = "f32"

    @property
    def dtype(self):
        return DTYPES[self.precision]


def validate(config: BackboneConfig) -> None:
    if config.kind not in KINDS:
        raise ConfigError(f"unknown backbone kind {config.kind!r}")
    if config.pe_frequencies < 1:
        raise ConfigError("pe_frequencies must be >= 1")
    if config.activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {config.activation!r}")
    if config.precision not in DTYPES:
        raise ConfigError(f"unknown precision {config.precision!r}")
    if config.frame_height < 1 or config.frame_width < 1:
        raise ConfigError("frame size must be positive")
    if config.kind == "coord-mlp":
        if not config.hidden or any(w < 1 for w in config.hidden):
            raise ConfigError("coord-mlp hidden widths must be positive")
        return
    if config.upsample not in UPSAMPLE_KINDS:
        raise ConfigError(f"unknown upsample kind {config.upsample!r}")
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
        if config.upsample == "subpel":
            cout = stage.channels * stage.scale * stage.scale
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
    from a PCG64 stream, in float64, then cast to the configured dtype.
    """
    rng = make_rng(seed, STREAM_INIT)
    dtype = config.dtype
    segments = []
    for spec in param_layout(config):
        scale = 1.0 / math.sqrt(spec.fan_in)
        data = rng.standard_normal(spec.count, dtype=np.float64) * scale
        segments.append((spec.name,
                         Tensor(data.reshape(spec.shape).astype(dtype))))
    return ParamVector(segments)


# ------------------------------------------------------------ encodings

def _pe_bands(freqs: int) -> np.ndarray:
    return np.ldexp(np.ones(freqs), np.arange(freqs, dtype=np.int32)) * math.pi


def positional_encoding(value: float, freqs: int) -> np.ndarray:
    """[sin(2^j*pi*v), cos(2^j*pi*v)] for j = 0..freqs-1 (float64)."""
    args = _pe_bands(freqs) * value
    return np.concatenate([detmath.sin(args), detmath.cos(args)])


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


def _activation(kind: str):
    return {"gelu": ops.gelu, "sin": ops.sin, "sigmoid": ops.sigmoid}[kind]


def forward_frame(config: BackboneConfig, params, t_norm: float) -> Tensor:
    """Render one frame (H, W, 3) in [0, 1] for a clip-local timestamp."""
    if not 0.0 <= t_norm <= 1.0:
        raise ConfigError(f"timestamp {t_norm} outside [0, 1]")
    get = params.__getitem__
    act = _activation(config.activation)
    dtype = config.dtype
    H, W = config.frame_height, config.frame_width

    if config.kind == "coord-mlp":
        t_feat = positional_encoding(t_norm, config.pe_frequencies)
        xy = _grid_encoding(H, W, config.pe_frequencies)
        rows = np.concatenate(
            [xy, np.broadcast_to(t_feat, (H * W, t_feat.size))], axis=1)
        x = ops.constant(rows.astype(dtype))
        n_layers = len(config.hidden) + 1
        for i in range(n_layers):
            x = ops.add(ops.matmul(x, get(f"mlp.fc{i}.weight")),
                        get(f"mlp.fc{i}.bias"))
            x = act(x) if i < n_layers - 1 else ops.sigmoid(x)
            _finite(f"mlp.fc{i}", x)
        return ops.reshape(x, (H, W, 3))

    pe = positional_encoding(t_norm, config.pe_frequencies)
    x = ops.constant(pe.reshape(1, -1).astype(dtype))
    for i in range(2):
        x = ops.add(ops.matmul(x, get(f"stem.fc{i}.weight")),
                    get(f"stem.fc{i}.bias"))
        x = _finite(f"stem.fc{i}", act(x))
    x = ops.reshape(x, (1, config.base_channels, config.base_height,
                        config.base_width))
    for i, stage in enumerate(config.stages):
        if config.upsample == "nearest":
            if stage.scale > 1:
                x = ops.upsample_nearest(x, stage.scale)
            x = ops.conv2d(x, get(f"stage{i}.conv.weight"),
                           get(f"stage{i}.conv.bias"))
        else:
            x = ops.conv2d(x, get(f"stage{i}.conv.weight"),
                           get(f"stage{i}.conv.bias"))
            if stage.scale > 1:
                x = ops.pixel_shuffle(x, stage.scale)
        x = _finite(f"stage{i}", act(x))
    x = ops.conv2d(x, get("head.conv.weight"), get("head.conv.bias"))
    x = _finite("head", ops.sigmoid(x))
    return ops.reshape(ops.permute(x, (0, 2, 3, 1)), (H, W, 3))


def frame_timestamps(length: int) -> list[float]:
    """Clip-local normalized timestamps: i/(p-1); a 1-frame clip maps to 0."""
    if length == 1:
        return [0.0]
    return [i / (length - 1) for i in range(length)]


def memory_proxy(config: BackboneConfig) -> int:
    """Parameter count plus forward activation element count."""
    layout = param_layout(config)
    params = sum(s.count for s in layout)
    acts = 0
    if config.kind == "coord-mlp":
        rows = config.frame_height * config.frame_width
        for w in list(config.hidden) + [3]:
            acts += rows * w
        return params + acts
    acts += config.stem_width
    h, w = config.base_height, config.base_width
    acts += config.base_channels * h * w
    for stage in config.stages:
        h *= stage.scale
        w *= stage.scale
        acts += stage.channels * h * w
    acts += 3 * h * w
    return params + acts


@dataclass
class ModelInstance:
    """One trained (or training) network bound to its config and seed."""

    config: BackboneConfig
    params: ParamVector
    seed: int

    @classmethod
    def create(cls, config: BackboneConfig, seed: int) -> "ModelInstance":
        return cls(config=config, params=init_random(config, seed), seed=seed)

    def frame(self, t_norm: float) -> np.ndarray:
        return forward_frame(self.config, self.params, t_norm).data


# ----------------------------------------------------- config text format

_CONFIG_KEYS = ("kind", "pe_frequencies", "stem_width", "base_channels",
                "base_height", "base_width", "stages", "hidden",
                "frame_height", "frame_width", "activation", "upsample",
                "precision")


def config_to_text(config: BackboneConfig) -> str:
    """Canonical ``key = value`` serialization (documented in docs/)."""
    validate(config)
    lines = [f"kind = {config.kind}",
             f"pe_frequencies = {config.pe_frequencies}"]
    if config.kind == "nerv-lite":
        lines += [
            f"stem_width = {config.stem_width}",
            f"base_channels = {config.base_channels}",
            f"base_height = {config.base_height}",
            f"base_width = {config.base_width}",
            "stages = " + ", ".join(f"{s.scale}x{s.channels}"
                                    for s in config.stages),
            f"upsample = {config.upsample}",
        ]
    else:
        lines.append("hidden = " + ", ".join(str(w) for w in config.hidden))
    lines += [
        f"activation = {config.activation}",
        f"frame_height = {config.frame_height}",
        f"frame_width = {config.frame_width}",
        f"precision = {config.precision}",
    ]
    return "\n".join(lines) + "\n"


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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        fields[key] = value

    def geti(key, default):
        if key not in fields:
            return default
        try:
            return int(fields[key])
        except ValueError:
            raise ConfigError(f"config key {key!r}: {fields[key]!r} is not "
                              f"an integer") from None

    kind = fields.get("kind", "nerv-lite")
    kwargs = dict(
        kind=kind,
        pe_frequencies=geti("pe_frequencies", 8),
        frame_height=geti("frame_height", 32),
        frame_width=geti("frame_width", 32),
        activation=fields.get("activation", "gelu"),
        precision=fields.get("precision", "f32"),
    )
    if kind == "nerv-lite":
        stages = []
        for part in fields.get("stages", "").split(","):
            part = part.strip()
            if not part:
                continue
            try:
                scale, channels = part.split("x")
                stages.append(UpsampleStage(int(scale), int(channels)))
            except ValueError:
                raise ConfigError(f"bad stage spec {part!r} (want SxC)") \
                    from None
        kwargs.update(
            stem_width=geti("stem_width", 48),
            base_channels=geti("base_channels", 16),
            base_height=geti("base_height", 4),
            base_width=geti("base_width", 4),
            stages=tuple(stages),
            upsample=fields.get("upsample", "nearest"),
        )
    else:
        try:
            hidden = tuple(int(w) for w
                           in fields.get("hidden", "64, 64").split(",")
                           if w.strip())
        except ValueError:
            raise ConfigError(f"bad hidden widths {fields['hidden']!r}") \
                from None
        kwargs.update(hidden=hidden)
    config = BackboneConfig(**kwargs)
    validate(config)
    return config
