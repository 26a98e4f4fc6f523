"""Named configurations: backbone tiers and clip-length presets.

Desk-scale tiers keep a full encode under ten minutes on a laptop.
"""

from __future__ import annotations

from .backbone import BackboneConfig, UpsampleStage
from .errors import ConfigError
from .warmstart import EpsilonSchedule

# Clip-length presets (frames per clip).
GOP_PRESETS = {
    "gop-small": 6,
    "gop-medium": 30,
    "gop-large": 120,
}

# Default blend schedule; b calibrated by scripts/calibrate_epsilon.py on
# the bundled synthetic set (see that script for the procedure).
DEFAULT_EPSILON_B = 60.0
DEFAULT_SCHEDULE = EpsilonSchedule(a=1.0, b=DEFAULT_EPSILON_B, c=0.0)

# Desk-scale channel ladders per tier, indexed by stage count.
_TIER_CHANNELS = {
    "tiny": (12, (12, 10, 8)),
    "small": (24, (24, 16, 12)),
    "medium": (48, (48, 32, 24)),
}
_TIER_STEM = {"tiny": 32, "small": 64, "medium": 96}


def _stage_chain(height: int, width: int) -> tuple[int, int, list[int]]:
    """Factor the frame size into a base map and a chain of 2x stages."""
    if height != width:
        raise ConfigError(f"preset builder expects square frames, got "
                          f"{width}x{height}")
    size = height
    scales = []
    while size > 4 and size % 2 == 0:
        scales.append(2)
        size //= 2
    if not scales:
        raise ConfigError(f"frame size {height} too small for the preset "
                          f"builder; write a config file instead")
    return size, size, scales


def nerv_lite_preset(width: int, height: int, tier: str = "tiny",
                     precision: str = "f32") -> BackboneConfig:
    """Desk-scale backbone sized for the given square frame."""
    if tier not in _TIER_CHANNELS:
        raise ConfigError(f"unknown tier {tier!r} "
                          f"(have {', '.join(_TIER_CHANNELS)})")
    base_h, base_w, scales = _stage_chain(height, width)
    base_channels, ladder = _TIER_CHANNELS[tier]
    stages = []
    for i, scale in enumerate(scales):
        channels = ladder[min(i, len(ladder) - 1)]
        stages.append(UpsampleStage(scale, channels))
    return BackboneConfig(
        kind="nerv-lite", pe_frequencies=8, stem_width=_TIER_STEM[tier],
        base_channels=base_channels, base_height=base_h, base_width=base_w,
        stages=tuple(stages), frame_height=height, frame_width=width,
        activation="gelu", upsample="nearest", precision=precision)
