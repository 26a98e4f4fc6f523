"""Adam with bias correction, and the warmup-then-cosine learning rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detmath
from .errors import ConfigError, NumericError
from .params import ParamVector

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
WARMUP_FRAC = 0.1  # the share of a model's epochs the learning rate ramps


@dataclass
class AdamState:
    """First/second moment accumulators over a ParamVector's flat vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    # running beta powers, updated by multiplication (no pow() call)
    beta1_pow: float = 1.0
    beta2_pow: float = 1.0


def adam_init(params: ParamVector) -> AdamState:
    zeros = np.zeros_like(params.flat.data)
    return AdamState(m=zeros, v=zeros.copy())


def adam_step(params: ParamVector, state: AdamState, lr: float) -> None:
    """One in-place Adam update of the flat vector; a missing gradient
    counts as zero.

    Adam is elementwise, so each element gets the bits a separate update
    per segment would give it.
    """
    state.step += 1
    state.beta1_pow *= BETA1
    state.beta2_pow *= BETA2
    flat = params.flat
    grad = np.zeros_like(flat.data) if flat.grad is None else flat.grad
    if not np.isfinite(grad).all():
        name = next(name for name, part in zip(params.names,
                                               params.split(grad))
                    if not np.isfinite(part).all())
        raise NumericError(f"non-finite gradient in segment {name!r} at "
                           f"step {state.step}")
    dt = state.m.dtype.type
    m, v = state.m, state.v
    m += (grad - m) * dt(1.0 - BETA1)
    v += (grad * grad - v) * dt(1.0 - BETA2)
    mhat = m / dt(1.0 - state.beta1_pow)
    vhat = v / dt(1.0 - state.beta2_pow)
    flat.data -= dt(lr) * mhat / (np.sqrt(vhat) + dt(EPS))


def lr_at(epoch: int, total_epochs: int, base_lr: float) -> float:
    """Linear ramp 0 -> base over the first WARMUP_FRAC of the epochs,
    then cosine decay to 0."""
    if not 0 <= epoch < total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs})")
    warm = math.ceil(WARMUP_FRAC * total_epochs)
    if epoch < warm:
        return base_lr * (epoch / warm)
    last = total_epochs - 1
    if last <= warm:
        return base_lr
    phase = (epoch - warm) / (last - warm)
    return base_lr * 0.5 * (1.0 + float(detmath.cos(math.pi * phase)))
