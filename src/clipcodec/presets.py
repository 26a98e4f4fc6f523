"""Named configurations: backbone tiers and the default blend schedule.

Desk-scale tiers keep a full encode under ten minutes on a laptop.
"""

from __future__ import annotations

from .backbone import BackboneConfig, UpsampleStage
from .errors import ConfigError
from .warmstart import EpsilonSchedule

# EpsilonSchedule's defaults, by the name perfbench/bench.py imports
DEFAULT_SCHEDULE = EpsilonSchedule()

# Desk-scale tiers: stem width, base channels, and the channel ladder
# indexed by stage count.
TIERS = {
    "tiny": (32, 12, (12, 10, 8)),
    "small": (64, 24, (24, 16, 12)),
    "medium": (96, 48, (48, 32, 24)),
}
DEFAULT_TIER = "tiny"


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


def nerv_lite_preset(width: int, height: int,
                     tier: str = DEFAULT_TIER) -> BackboneConfig:
    """Desk-scale backbone sized for the given square frame."""
    if tier not in TIERS:
        raise ConfigError(f"unknown tier {tier!r} "
                          f"(have {', '.join(TIERS)})")
    base_h, base_w, scales = _stage_chain(height, width)
    stem_width, base_channels, ladder = TIERS[tier]
    stages = []
    for i, scale in enumerate(scales):
        channels = ladder[min(i, len(ladder) - 1)]
        stages.append(UpsampleStage(scale, channels))
    return BackboneConfig(
        kind="nerv-lite", pe_frequencies=8, stem_width=stem_width,
        base_channels=base_channels, base_height=base_h, base_width=base_w,
        stages=tuple(stages), frame_height=height, frame_width=width)
