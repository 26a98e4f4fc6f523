#!/usr/bin/env python3
"""Calibrate the warm-start blend schedule on synthetic clips.

For a ladder of motion speeds, trains a predecessor model on clip 0, then
sweeps the blend fraction over a grid for clip 1 and records which
fraction minimizes the training objective (payload bits + lambda * MSE).
Fitting the schedule to the collected (gap mse, best epsilon) points
yields the default `b` of `EpsilonSchedule` in warmstart.py.

Run:  python scripts/calibrate_epsilon.py [--quick]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from clipcodec.backbone import init_random, param_layout
from clipcodec.metrics import frame_mse
from clipcodec.pipeline import (TrainConfig, partition, render_video,
                                train_model)
from clipcodec.presets import nerv_lite_preset
from clipcodec.ratequant import rate_bits_eval
from clipcodec.seeds import model_seed
from clipcodec.video import synth_video
from clipcodec.warmstart import fit_schedule, gop_gap_mse, interpolate_init


def best_epsilon_for(video, gop_size, config, cfg, grid):
    plan = partition(video.frame_count, gop_size, 2)
    normalized = video.normalized()
    clip0 = normalized[slice(*plan.gops[0])]
    clip1 = normalized[slice(*plan.gops[1])]
    target1 = video.frames[slice(*plan.gops[1])]
    rendered = np.empty_like(target1)
    gap = gop_gap_mse(clip0, clip1)

    rand0 = init_random(config, model_seed(cfg.seed, 0))
    base = train_model("I", clip0, rand0, config, cfg,
                       model_seed(cfg.seed, 0))

    best_eps, best_loss = None, None
    for eps in grid:
        init = interpolate_init(rand0, base.theta_star, eps)
        trained = train_model("P", clip1, init, config, cfg,
                              model_seed(cfg.seed, 1))
        bits = float(rate_bits_eval(trained.symbols, trained.mu,
                                    trained.sd).sum())
        # the decoded clip's MSE, on the [0, 1] scale training uses
        render_video(config, trained.theta_star, rendered)
        mse = float(np.mean(frame_mse(target1, rendered))) / 255.0 ** 2
        loss = bits + cfg.lam * mse
        print(f"    eps={eps:.3f}: bits={bits:9.0f} "
              f"mse={mse:.6f} loss={loss:10.1f}")
        if best_loss is None or loss < best_loss:
            best_loss, best_eps = loss, eps
    return gap, best_eps


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="coarser grid, fewer motion speeds")
    parser.add_argument("--size", type=int, default=24)
    parser.add_argument("--gop", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--lam", type=float, default=TrainConfig().lam)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = nerv_lite_preset(args.size, args.size, "tiny")
    cfg = TrainConfig(epochs_i=args.epochs, epochs_p=args.epochs,
                      lam=args.lam, seed=args.seed)
    print(f"backbone: {sum(s.count for s in param_layout(config))} params")

    if args.quick:
        speeds = [0.0, 0.5, 1.0, 2.0]
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    else:
        speeds = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
        grid = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]

    points = []
    for kind in ("moving-blob", "moving-rect"):
        for speed in speeds:
            video = synth_video(kind, args.size, args.size, 2 * args.gop,
                                velocity=speed, seed=args.seed + 17)
            print(f"  {kind} v={speed}:")
            mse, eps = best_epsilon_for(video, args.gop, config, cfg, grid)
            print(f"  -> gap mse={mse:.6f}, best eps={eps}")
            points.append((mse, eps))

    # de-duplicate identical mse values (static clips all land at 0)
    seen = {}
    for mse, eps in points:
        seen.setdefault(round(mse, 9), []).append(eps)
    unique = [(mse, float(np.mean(vals))) for mse, vals in seen.items()]

    sched, resid = fit_schedule(unique)
    print(f"\npoints: {unique}")
    if sched.b == 0:
        # every best epsilon is the same, so the points fix no b
        print(f"fit is degenerate: every best epsilon is {unique[0][1]:.4g}"
              f"; no b to recommend")
        return 0
    print(f"fitted: a={sched.a} b={sched.b:.4f} (residual {resid:.4g})")
    print(f"=> set the default of EpsilonSchedule.b to {sched.b:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
