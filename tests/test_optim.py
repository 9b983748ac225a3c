"""AdamW semantics and schedule endpoints (exactness matters here)."""

import numpy as np
import pytest

from tpp.errors import ArgumentError
from tpp.optim import AdamW, AdamWSpec, ScheduleSpec, lr_at, wd_at
from tpp.registry import ParamGroup, ParamRegistry


def _param(value):
    reg = ParamRegistry()
    return reg.register("w", np.array(value, dtype=np.float64), ParamGroup.TARGET)


class TestAdamW:
    def test_zero_gradient_without_decay_leaves_param_unchanged(self):
        p = _param([1.0, -2.0])
        p.grad = np.zeros(2)
        opt = AdamW([p])
        opt.step(lr=0.1, weight_decay=0.0)
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_missing_gradient_skips_param_entirely(self):
        p = _param([1.0])
        opt = AdamW([p])
        opt.step(lr=0.1, weight_decay=0.5)
        assert p.data[0] == 1.0

    def test_decoupled_decay_scales_before_moment_update(self):
        p = _param([1.0])
        p.grad = np.zeros(1)
        opt = AdamW([p])
        opt.step(lr=0.01, weight_decay=0.1)
        assert p.data[0] == 1.0 * (1.0 - 0.001)

    def test_constant_gradient_update_approaches_lr_sign_g(self):
        p = _param([0.0])
        opt = AdamW([p], AdamWSpec())
        lr = 1e-3
        g = np.array([0.37])
        prev = p.data.copy()
        for step in range(1000):
            p.grad = g.copy()
            prev = p.data.copy()
            opt.step(lr=lr, weight_decay=0.0)
        last_update = prev - p.data
        assert abs(last_update[0] - lr * np.sign(g[0])) < 1e-3 * lr + 1e-6

    def test_frozen_param_never_touched(self):
        p = _param([3.0])
        p.requires_grad = False
        p.grad = np.ones(1)  # simulate stale grad
        opt = AdamW([p])
        opt.step(lr=0.1, weight_decay=0.1)
        assert p.data[0] == 3.0


class TestLrSchedule:
    SCHED = ScheduleSpec(base_lr=1.5e-3, warmup_epochs=40, wd_start=1.5e-2)

    def test_zero_at_step_zero_with_warmup(self):
        assert lr_at(self.SCHED, 0, 500) == 0.0

    def test_base_lr_exactly_at_end_of_warmup(self):
        # 40-epoch warmup of a 500-epoch run reaches 1.5e-3 exactly
        assert lr_at(self.SCHED, 40, 500) == 1.5e-3
        # in step units too
        assert lr_at(self.SCHED, 40 * 7, 500 * 7, steps_per_epoch=7) == 1.5e-3

    def test_final_step_decays_below_1e_12(self):
        assert lr_at(self.SCHED, 500, 500) < 1e-12

    def test_monotone_rise_then_fall(self):
        values = [lr_at(self.SCHED, s, 500) for s in range(501)]
        assert all(b >= a for a, b in zip(values[:40], values[1:41]))
        assert all(b <= a for a, b in zip(values[40:-1], values[41:]))

    def test_step_beyond_total_rejected(self):
        with pytest.raises(ArgumentError):
            lr_at(self.SCHED, 501, 500)

    def test_linear_batch_scaling_rule(self):
        sched = ScheduleSpec(base_lr=0.0001, lr_batch_scaling=True)
        assert sched.effective_base_lr(64) == 2.5e-5  # 0.0001 * 64 / 256, exact
        assert sched.effective_base_lr(256) == 0.0001

    def test_no_warmup_starts_at_base(self):
        sched = ScheduleSpec(base_lr=1e-2, warmup_epochs=0)
        assert lr_at(sched, 0, 100) == 1e-2


class TestWdSchedule:
    def test_cosine_endpoints_are_exact(self):
        sched = ScheduleSpec(base_lr=1.0, wd_start=0.04, wd_end=0.4)
        assert wd_at(sched, 0, 1000) == 0.04
        assert wd_at(sched, 1000, 1000) == 0.4

    def test_midpoint_is_mean(self):
        sched = ScheduleSpec(base_lr=1.0, wd_start=0.04, wd_end=0.4)
        assert wd_at(sched, 500, 1000) == pytest.approx(0.22, abs=1e-12)

    def test_constant_without_wd_end(self):
        sched = ScheduleSpec(base_lr=1.0, wd_start=0.05)
        assert wd_at(sched, 123, 1000) == 0.05

    def test_monotone_between_endpoints(self):
        sched = ScheduleSpec(base_lr=1.0, wd_start=0.04, wd_end=0.4)
        values = [wd_at(sched, s, 100) for s in range(101)]
        assert all(b >= a for a, b in zip(values, values[1:]))
