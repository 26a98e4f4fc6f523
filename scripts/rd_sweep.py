#!/usr/bin/env python3
"""Sweep the distortion weight to trace a rate-quality curve.

Encodes one synthetic sequence at several lambda values and appends a CSV
row per point; two such CSVs feed `clipcodec bdrate`.

Run:  python scripts/rd_sweep.py --out curve.csv [--kind moving-blob ...]
"""

from __future__ import annotations

import argparse
import sys

from clipcodec.metrics import append_rd_row
from clipcodec.pipeline import TrainConfig, encode_video, partition
from clipcodec.presets import nerv_lite_preset
from clipcodec.video import synth_video


def main() -> int:
    defaults = TrainConfig()
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--kind", default="static")
    parser.add_argument("--size", type=int, default=32)
    parser.add_argument("--frames", type=int, default=30)
    parser.add_argument("--velocity", type=float, default=0.0)
    parser.add_argument("--gop", type=int, default=10)
    parser.add_argument("--gom", type=int, default=3)
    parser.add_argument("--epochs-i", type=int, default=defaults.epochs_i)
    parser.add_argument("--epochs-p", type=int, default=defaults.epochs_p)
    parser.add_argument("--tier", default="tiny")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lambdas", type=float, nargs="+",
                        default=[1e5, 3e5, 1e6, 3e6, 1e7])
    args = parser.parse_args()

    video = synth_video(args.kind, args.size, args.size, args.frames,
                        velocity=args.velocity, seed=args.seed)
    config = nerv_lite_preset(args.size, args.size, args.tier)
    plan = partition(video.frame_count, args.gop, args.gom)
    label = f"{args.kind}-v{args.velocity:g}-{args.size}"
    for lam in args.lambdas:
        cfg = TrainConfig(epochs_i=args.epochs_i, epochs_p=args.epochs_p,
                          lam=lam, seed=args.seed)
        result = encode_video(video, plan, config, cfg)
        append_rd_row(args.out, label, args.gop, args.gom, lam,
                      result.bpp, result.psnr_mean, result.wall_seconds)
        print(f"lambda={lam:g}: bpp={result.bpp:.4f} "
              f"psnr={result.psnr_mean:.2f} dB "
              f"({result.wall_seconds:.0f}s)")
    print(f"curve written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
