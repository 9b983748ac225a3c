"""Whole-step gradient oracle: every PEFT method under every objective.

Each cell builds a tiny bundle, applies a stage plan's freezing as
`run_stage` does, moves the Target params off their identity init, and
compares the tape's directional derivative g·v of one `step_loss` with a
central difference of `step_loss` along v, a unit direction over every
trainable entry. The same rng gives the same masks and views on every call,
and the DINO teacher and centre stay as the first call left them, so
`step_loss` is one deterministic function of the trainable params.

The fused nodes' rebuild paths run here: an attention node whose q and k
train rebuilds its weights in the backward, and an SSF layer norm whose
input trains rebuilds its output from xhat. The oracle asserts that both
happened.
"""

import numpy as np
import pytest

from tpp import tensor as T
from tpp.data import SyntheticTaskSpec, generate_synthetic
from tpp.peft import (AdapterSpec, AdaptFormerSpec, BitFitSpec, LoraSpec, SsfSpec,
                      VptSpec)
from tpp.pipeline import Objective, Stage, build_bundle, default_plan, objective_for
from tpp.pretext import DinoConfig
from tpp.registry import ParamGroup
from tpp.rng import SeededRng
from tpp.vit import ClassificationSpec, SegmentationSpec, ViTConfig

from conftest import rebuild_flags

CFG = ViTConfig(image_size=16, patch_size=4, embed_dim=8, depth=2, num_heads=2)
BATCH = 3
STEP = 1e-5  # the central difference's step along the unit direction
BOUND = 1e-8  # |g·v - difference| over |g|: the cells measure 1e-12 to 2e-10

METHODS = {"adapter": AdapterSpec(bottleneck=4), "adaptformer": AdaptFormerSpec(bottleneck=4),
           "lora": LoraSpec(rank=2), "ssf": SsfSpec(), "vpt-deep": VptSpec(2, "deep"),
           "vpt-shallow": VptSpec(2, "shallow"), "bitfit": BitFitSpec(), "none": None}
OBJECTIVES = (Objective.MAE, Objective.DINO, Objective.CE, Objective.DICE_CE)


def _cell(method: str, objective: Objective, frozen_decoder: bool = False):
    """One cell's `step_loss`, called with no arguments, and its trainable params."""
    supervised = objective in (Objective.CE, Objective.DICE_CE)
    seg = objective is Objective.DICE_CE
    head = (SegmentationSpec(2) if seg else ClassificationSpec(2)) if supervised else None
    spec = SyntheticTaskSpec(kind="blob_seg" if seg else "textured_shapes_cls", num_classes=2,
                             image_size=CFG.image_size, train_count=BATCH, val_count=1,
                             test_count=1)
    train = generate_synthetic(spec, SeededRng(5, "data")).train
    bundle = build_bundle(CFG, seed=5, head_spec=head, peft_spec=METHODS[method])
    plan = default_plan(Stage.FINETUNE if supervised else Stage.TPP, objective)
    rng = SeededRng(5, "stage")
    loss_fn = objective_for(plan, bundle, train, rng,
                            dino_cfg=DinoConfig(head_output_dim=8)).step_loss
    frozen = plan.frozen_groups | ({ParamGroup.HEAD} if frozen_decoder else set())
    for group in ParamGroup:
        bundle.registry.set_group_trainable(group, group not in frozen)
    params = bundle.registry.params(trainable=True)
    perturb = np.random.default_rng(6)
    for p in bundle.registry.params(group=ParamGroup.TARGET, trainable=True):
        p.data += 0.1 * perturb.standard_normal(p.shape)  # off the identity init
    rows, indices = train.images, np.arange(BATCH)
    return (lambda: loss_fn(rows, indices, rng, 0)), params


def _oracle(method: str, objective: Objective, frozen_decoder: bool = False):
    """|g·v - central difference| / |g| of one cell, and which rebuild paths its tape ran."""
    step_loss, params = _cell(method, objective, frozen_decoder)
    loss = step_loss()
    rebuilds = tuple(any(rebuild_flags(T.tape(), op)) for op in ("attention", "layer_norm"))
    T.backward(loss)
    T.clear_tape()
    grads = [np.zeros(p.shape) if p.grad is None else p.grad for p in params]
    rng = np.random.default_rng(7)
    direction = [rng.standard_normal(p.shape) for p in params]
    norm = np.sqrt(sum(np.sum(d * d) for d in direction))
    direction = [d / norm for d in direction]
    tape_dv = sum(np.sum(g * d) for g, d in zip(grads, direction))
    origin = [p.data.copy() for p in params]
    values = []
    with T.no_grad():
        for sign in (1.0, -1.0):
            for p, o, d in zip(params, origin, direction):
                p.data[...] = o + sign * STEP * d
            values.append(float(step_loss().data))
    for p, o in zip(params, origin):
        p.data[...] = o
    gnorm = np.sqrt(sum(np.sum(g * g) for g in grads))
    return abs(tape_dv - (values[0] - values[1]) / (2 * STEP)) / gnorm, rebuilds


@pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda o: o.value)
@pytest.mark.parametrize("method", sorted(METHODS))
def test_step_gradient_matches_a_central_difference(method, objective):
    err, _ = _oracle(method, objective)
    assert err < BOUND


def test_the_frozen_mae_decoder_passes_the_encoder_its_cotangent():
    # as `tpp tpp` trains SSF under a decoder inherited from pre-training
    err, (attention_rebuilds, _) = _oracle("ssf", Objective.MAE, frozen_decoder=True)
    assert err < BOUND and attention_rebuilds


@pytest.mark.parametrize("objective", [Objective.CE, Objective.DICE_CE], ids=lambda o: o.value)
def test_the_oracle_runs_both_rebuild_paths(objective):
    assert _oracle("ssf", objective)[1] == (True, True)


def test_a_planted_vjp_fault_fails_the_oracle(monkeypatch):
    real = T._scale_shift_vjp

    def wrong_shift(*args):  # SSF's shift cotangent off by 10%
        gx, gscale, gshift = real(*args)
        return gx, gscale, None if gshift is None else gshift * 1.1

    monkeypatch.setattr(T, "_scale_shift_vjp", wrong_shift)
    assert _oracle("ssf", Objective.CE)[0] > 100 * BOUND

