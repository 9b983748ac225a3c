"""AdamW with decoupled weight decay, plus warmup/cosine schedules.

The decay is applied directly to the weights before the moment-based
update term, never through the gradient. Schedule endpoints are exact:
lr is 0 at step 0 under warmup and reaches the base value exactly at the
end of warmup; a cosine weight-decay schedule returns wd_start / wd_end
bit-exactly at the first and last step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .registry import Param


@dataclass(frozen=True)
class AdamWSpec:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(frozen=True)
class ScheduleSpec:
    """Linear warmup to base_lr, then cosine decay to zero.

    When wd_end is set, weight decay follows a cosine from wd_start to
    wd_end over the whole run. When lr_batch_scaling is on, the effective
    base learning rate is base_lr * batch_size / 256.
    """

    base_lr: float
    warmup_epochs: float = 0.0
    wd_start: float = 0.0
    wd_end: float | None = None
    lr_batch_scaling: bool = False

    def effective_base_lr(self, batch_size: int) -> float:
        if self.lr_batch_scaling:
            return self.base_lr * (batch_size / 256.0)
        return self.base_lr


def lr_at(schedule: ScheduleSpec, step: int, total_steps: int, steps_per_epoch: int = 1,
          base_lr: float | None = None) -> float:
    """Learning rate at `step` of `total_steps` (warmup measured in epochs)."""
    if step < 0 or step > total_steps:
        raise ArgumentError(f"step {step} outside [0, {total_steps}]")
    base = schedule.base_lr if base_lr is None else base_lr
    warmup_steps = schedule.warmup_epochs * steps_per_epoch
    if warmup_steps > 0 and step < warmup_steps:
        return base * (step / warmup_steps)
    if total_steps == warmup_steps:
        return base
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return float(0.5 * base * (1.0 + np.cos(np.pi * progress)))


def wd_at(schedule: ScheduleSpec, step: int, total_steps: int) -> float:
    """Weight decay at `step`; cosine from wd_start to wd_end when wd_end is set."""
    if schedule.wd_end is None:
        return schedule.wd_start
    if step < 0 or step > total_steps:
        raise ArgumentError(f"step {step} outside [0, {total_steps}]")
    if step == 0:
        return schedule.wd_start
    if step == total_steps:
        return schedule.wd_end
    progress = step / total_steps
    return float(schedule.wd_start + (schedule.wd_end - schedule.wd_start) * 0.5 * (
        1.0 - np.cos(np.pi * progress)
    ))


class AdamW:
    """Standard AdamW over a fixed list of trainable params.

    Params whose grad is None this step are skipped entirely, so frozen or
    unused parameters are never touched (they stay bit-identical).
    """

    def __init__(self, params: list[Param], spec: AdamWSpec = AdamWSpec()):
        self.spec = spec
        self.params = list(params)
        self._m = {p.name: np.zeros_like(p.data) for p in self.params}
        self._v = {p.name: np.zeros_like(p.data) for p in self.params}
        self._t = {p.name: 0 for p in self.params}

    def step(self, lr: float, weight_decay: float) -> None:
        """One update; `weight_decay` comes from the stage's schedule (`wd_at`)."""
        b1, b2, eps = self.spec.beta1, self.spec.beta2, self.spec.eps
        for p in self.params:
            g = p.grad
            if g is None or not p.requires_grad:
                continue
            t = self._t[p.name] + 1
            self._t[p.name] = t
            if weight_decay != 0.0:
                p.data = p.data * (1.0 - lr * weight_decay)
            m = self._m[p.name] = b1 * self._m[p.name] + (1 - b1) * g
            v = self._v[p.name] = b2 * self._v[p.name] + (1 - b2) * (g * g)
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            p.data = p.data - lr * mhat / (np.sqrt(vhat) + eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
