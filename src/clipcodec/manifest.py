"""Run manifests: every knob of an encode, materialized for exact reruns."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .backbone import config_from_text, config_to_text
from .errors import DataError, unreadable
from .pipeline import TrainConfig
from .warmstart import EpsilonSchedule

MANIFEST_VERSION = 5

# the JSON values each declared field type takes; a bool is not a number
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass(frozen=True)
class RunManifest:
    """Fully resolved encode configuration (all defaults materialized)."""

    tool_version: str
    input_path: str
    input_sha256: str
    width: int
    height: int
    frame_count: int
    gop_size: int
    gom_size: int
    lam: float
    epochs_i: int
    epochs_p: int
    lr_i: float
    lr_p: float
    seed: int
    schedule_a: float
    schedule_b: float
    backbone_config: str  # config text, embedded verbatim
    manifest_version: int = MANIFEST_VERSION

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs_i=self.epochs_i, epochs_p=self.epochs_p,
            lr_i=self.lr_i, lr_p=self.lr_p, lam=self.lam, seed=self.seed,
            schedule=EpsilonSchedule(a=self.schedule_a, b=self.schedule_b))

    def backbone(self):
        return config_from_text(self.backbone_config)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def load(cls, path) -> "RunManifest":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise unreadable(path, exc) from None
        except json.JSONDecodeError as exc:
            raise DataError(f"cannot read manifest {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise DataError(f"manifest {path} is not a JSON object")
        if raw.get("manifest_version") != MANIFEST_VERSION:
            raise DataError(f"unsupported manifest version "
                            f"{raw.get('manifest_version')}")
        declared = {f.name: f.type for f in fields(cls)}
        extra = set(raw) - set(declared)
        if extra:
            raise DataError(f"unknown manifest fields: {sorted(extra)}")
        missing = set(declared) - set(raw)
        if missing:
            raise DataError(f"manifest missing fields: {sorted(missing)}")
        for name, kind in declared.items():
            value = raw[name]
            if (isinstance(value, bool)
                    or not isinstance(value, _JSON_TYPES[kind])):
                raise DataError(f"manifest field {name!r} needs a {kind}, "
                                f"got {value!r}")
            if kind == "float":
                raw[name] = float(value)
                if not math.isfinite(raw[name]):  # json reads NaN, Infinity
                    raise DataError(f"manifest field {name!r} needs a "
                                    f"finite number, got {value!r}")
        return cls(**raw)


def build_manifest(input_path, video, gop_size, gom_size, config,
                   cfg: TrainConfig) -> RunManifest:
    return RunManifest(
        tool_version=__version__,
        input_path=str(input_path),
        input_sha256=hashlib.sha256(video.frames).hexdigest(),
        width=video.width, height=video.height,
        frame_count=video.frame_count,
        gop_size=gop_size, gom_size=gom_size,
        lam=cfg.lam, epochs_i=cfg.epochs_i, epochs_p=cfg.epochs_p,
        lr_i=cfg.lr_i, lr_p=cfg.lr_p, seed=cfg.seed,
        schedule_a=cfg.schedule.a, schedule_b=cfg.schedule.b,
        backbone_config=config_to_text(config))
