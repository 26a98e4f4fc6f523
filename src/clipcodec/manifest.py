"""Run manifests: every knob of an encode, materialized for exact reruns."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .backbone import config_from_text, config_to_text
from .errors import DataError
from .pipeline import TrainConfig
from .warmstart import EpsilonSchedule

TOOL_VERSION = "0.1.0"
MANIFEST_VERSION = 2


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
    warmup_frac: float
    seed: int
    schedule_a: float
    schedule_b: float
    schedule_c: float
    backbone_config: str  # config text, embedded verbatim
    jobs: int = 1
    manifest_version: int = MANIFEST_VERSION

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs_i=self.epochs_i, epochs_p=self.epochs_p,
            lr_i=self.lr_i, lr_p=self.lr_p, lam=self.lam,
            warmup_frac=self.warmup_frac, seed=self.seed,
            schedule=EpsilonSchedule(a=self.schedule_a, b=self.schedule_b,
                                     c=self.schedule_c))

    def backbone(self):
        return config_from_text(self.backbone_config)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "RunManifest":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read manifest {path}: {exc}") from exc
        if raw.get("manifest_version") != MANIFEST_VERSION:
            raise DataError(f"unsupported manifest version "
                            f"{raw.get('manifest_version')}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise DataError(f"unknown manifest fields: {sorted(extra)}")
        missing = known - set(raw)
        if missing:
            raise DataError(f"manifest missing fields: {sorted(missing)}")
        return cls(**raw)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(input_path, width, height, frame_count, gop_size,
                   gom_size, config, cfg: TrainConfig,
                   jobs: int = 1) -> RunManifest:
    return RunManifest(
        tool_version=TOOL_VERSION,
        input_path=str(input_path),
        input_sha256=sha256_file(input_path),
        width=width, height=height, frame_count=frame_count,
        gop_size=gop_size, gom_size=gom_size,
        lam=cfg.lam, epochs_i=cfg.epochs_i, epochs_p=cfg.epochs_p,
        lr_i=cfg.lr_i, lr_p=cfg.lr_p, warmup_frac=cfg.warmup_frac,
        seed=cfg.seed,
        schedule_a=cfg.schedule.a, schedule_b=cfg.schedule.b,
        schedule_c=cfg.schedule.c,
        backbone_config=config_to_text(config),
        jobs=jobs)
