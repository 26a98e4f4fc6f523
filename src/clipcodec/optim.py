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


@dataclass
class AdamState:
    """First/second moment accumulators over a ParamVector, flattened in
    layout order."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    # running beta powers, updated by multiplication (no pow() call)
    beta1_pow: float = 1.0
    beta2_pow: float = 1.0


def adam_init(params: ParamVector) -> AdamState:
    zeros = np.zeros_like(params.flatten())
    return AdamState(m=zeros, v=zeros.copy())


def adam_step(params: ParamVector, state: AdamState, lr: float) -> None:
    """One in-place Adam update; missing gradients count as zero.

    The update runs once over all segments, flattened in layout order.
    Adam is elementwise, so each element gets the bits a separate update
    per segment would give it.
    """
    state.step += 1
    state.beta1_pow *= BETA1
    state.beta2_pow *= BETA2
    tensors = params.tensors()
    grad = np.concatenate([
        np.zeros(t.size, dtype=t.dtype) if t.grad is None
        else np.reshape(t.grad, -1) for t in tensors])
    if not np.isfinite(grad).all():
        name = next(name for name, t in params.items()
                    if t.grad is not None and not np.all(np.isfinite(t.grad)))
        raise NumericError(f"non-finite gradient in segment {name!r} at "
                           f"step {state.step}")
    dt = state.m.dtype.type
    m, v = state.m, state.v
    m += (grad - m) * dt(1.0 - BETA1)
    v += (grad * grad - v) * dt(1.0 - BETA2)
    mhat = m / dt(1.0 - state.beta1_pow)
    vhat = v / dt(1.0 - state.beta2_pow)
    update = dt(lr) * mhat / (np.sqrt(vhat) + dt(EPS))
    start = 0
    for t in tensors:
        t.data -= update[start:start + t.size].reshape(t.shape)
        start += t.size


def lr_at(epoch: int, total_epochs: int, base_lr: float,
          warmup_frac: float) -> float:
    """Linear ramp 0 -> base over the warmup span, then cosine decay to 0."""
    if not 0 <= epoch < total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs})")
    if not 0.0 < warmup_frac < 1.0:
        raise ConfigError(f"warmup_frac {warmup_frac} outside (0, 1)")
    warm = math.ceil(warmup_frac * total_epochs)
    if epoch < warm:
        return base_lr * (epoch / warm)
    last = total_epochs - 1
    if last <= warm:
        return base_lr
    phase = (epoch - warm) / (last - warm)
    return base_lr * 0.5 * (1.0 + float(detmath.cos(math.pi * phase)))
