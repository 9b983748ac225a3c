"""Stage orchestration: backbone pretraining, target-parameter pre-training,
and supervised fine-tuning.

A stage is described by a StagePlan: which parameter groups are frozen,
which objective runs, the optimizer and schedules, and the budget. The
runner gets the objective's object (`objective_for`); each step it draws
the rows once, under the plan's augment policy (`batch_images`), and calls
its `step_loss` on them and their dataset indices, then its `after_step`.
It enforces the plan's freezing at the tensor level, audits that frozen
groups come out bit-identical, logs one JSON-serializable record per step
plus per-epoch validation metrics, and returns a full parameter checkpoint.

Everything is driven by one SeededRng: data order, masking, augmentation
and any re-initialization derive labeled sub-streams, so identical
(config, seed, data) reproduce identical logs and checkpoints.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint, array_hash
from .data import Dataset, SplitDatasets
from .errors import (ArgumentError, NonFiniteScores, StateError, StructuralError,
                     TrainingDiverged)
from .metrics import HIGHER_IS_BETTER, classification_report, segmentation_report
from .optim import AdamW, AdamWSpec, ScheduleSpec, lr_at, wd_at
from .peft import PeftSpec, attach, mechanism_name, reinit_target_params
from .pretext import (DinoConfig, MaeConfig, MaskedReconstruction, SelfDistillation,
                      batch_images)
from .registry import ParamGroup, ParamRegistry
from .rng import SeededRng
from .tensor import Tensor
from .vit import HeadSpec, SegmentationSpec, ViTConfig, VisionTransformer, build_head


class Stage(Enum):
    BACKBONE_PRETRAIN = "backbone_pretrain"
    TPP = "tpp"
    FINETUNE = "finetune"


class Objective(Enum):
    MAE = "mae"
    DINO = "dino"
    CE = "ce"
    DICE_CE = "dice_ce"


@dataclass(frozen=True)
class InitSpec:
    """Re-draw the Target params before a stage.

    The one mode, "random", makes `run_stage` re-draw the attached
    mechanism's init values through `reinit_target_params`, under the
    stage's "init/peft" rng stream. Pre-trained Target params are loaded
    with `Checkpoint.apply_to_registry(registry, groups={ParamGroup.TARGET})`
    instead, as `tpp finetune --target-init CKPT` does. The mode field stays
    only so that `InitSpec("random")`, which `tppbench/workloads.py` builds,
    keeps its meaning; any other mode is an ArgumentError.
    """

    mode: str = "random"

    def __post_init__(self):
        if self.mode != "random":
            raise ArgumentError(f"unknown init mode: {self.mode!r}")


@dataclass(frozen=True)
class StagePlan:
    """One training stage. Every group not in `frozen_groups` trains.

    `run_stage` sets each param's trainability from `frozen_groups` alone,
    after `objective_for` adds the objective's params (the MAE decoder, the
    DINO projection head), so those train unless their group is frozen. If
    the objective's `scores_val` is set (CE, Dice+CE), a given val split is
    scored after each epoch and after the last step.
    """

    stage: Stage
    objective: Objective
    frozen_groups: frozenset[ParamGroup]
    schedule: ScheduleSpec
    optimizer: AdamWSpec = AdamWSpec()
    batch_size: int = 64
    max_epochs: int | None = None
    max_iterations: int | None = None
    init: InitSpec | None = None
    augment_policy: str = "none"

    def validate(self) -> None:
        if self.stage is Stage.TPP:
            if ParamGroup.BACKBONE not in self.frozen_groups:
                raise StateError("TPP plan must freeze the Backbone group")
            if ParamGroup.TARGET in self.frozen_groups:
                raise StateError("TPP plan must train the Target group")
        if self.stage is Stage.FINETUNE:
            if ParamGroup.BACKBONE not in self.frozen_groups:
                raise StateError("finetune plan must freeze the Backbone group")
        if self.objective is Objective.DINO and self.augment_policy != "none":
            raise StateError(f"a DINO plan augments its views under their own policies, "
                             f"so its augment_policy must be 'none', not {self.augment_policy!r}")
        if (self.max_epochs is None) == (self.max_iterations is None):
            raise StateError("plan needs exactly one of max_epochs / max_iterations")
        for name in ("max_epochs", "max_iterations", "batch_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise StateError(f"{name} must be >= 1, got {value}")
        warmup = self.schedule.warmup_epochs
        if not (math.isfinite(warmup) and warmup >= 0):
            raise StateError(f"warmup_epochs must be finite and >= 0, got {warmup}")


def default_plan(stage: Stage, objective: Objective, task: str = "classification",
                 **overrides) -> StagePlan:
    """Stage plans with the published training recipes as defaults.

    Masked-reconstruction pre-training: AdamW, base lr 1.5e-3 after a
    40-epoch linear warmup then cosine decay, weight decay 1.5e-2, batch
    64, 500 epochs for classification tasks and 1000 for segmentation.
    Self-distillation: batch 64, 10-epoch warmup to a base lr scaled as
    0.0001 * batch/256 with cosine decay, weight decay cosine 0.04 -> 0.4.
    """
    epochs, batch = (500 if task == "classification" else 1000), 64
    if objective is Objective.MAE:
        schedule = ScheduleSpec(base_lr=1.5e-3, warmup_epochs=40, wd_start=1.5e-2)
    elif objective is Objective.DINO:
        schedule = ScheduleSpec(base_lr=1e-4, warmup_epochs=10,
                                wd_start=0.04, wd_end=0.4, lr_batch_scaling=True)
    else:
        schedule = ScheduleSpec(base_lr=1e-4, wd_start=0.0)
        epochs, batch = None, 32

    frozen = frozenset() if stage is Stage.BACKBONE_PRETRAIN \
        else frozenset({ParamGroup.BACKBONE})
    plan = StagePlan(stage=stage, objective=objective, frozen_groups=frozen,
                     schedule=schedule, batch_size=batch, max_epochs=epochs,
                     max_iterations=None if epochs else 1000)
    return replace(plan, **overrides) if overrides else plan


# -- model bundle ---------------------------------------------------------


@dataclass
class ModelBundle:
    """Backbone + optional head + pretext objects over one registry."""

    backbone: VisionTransformer
    registry: ParamRegistry
    head: object | None = None
    pretext: dict = field(default_factory=dict)  # Objective -> its MAE or DINO object


def build_bundle(cfg: ViTConfig, seed: int, head_spec: HeadSpec | None = None,
                 peft_spec: PeftSpec | None = None,
                 backbone: Checkpoint | None = None) -> ModelBundle:
    """Deterministic construction: same (config, seed) gives identical params.

    With `backbone`, its Backbone-group entries are copied into the ViT right
    after it is built and before PEFT is attached, while every backbone param
    still carries the Backbone tag; the checkpoint must cover them all. A
    mechanism that re-tags backbone params (BitFit's biases) thus starts from
    the checkpoint's values. PEFT and head init draw from their own rng
    streams, so they do not depend on the loaded weights.
    """
    registry = ParamRegistry()
    vit = VisionTransformer(cfg, registry, SeededRng(seed, "init/backbone"))
    if backbone is not None:
        backbone.apply_to_registry(registry, groups={ParamGroup.BACKBONE})
    bundle = ModelBundle(backbone=vit, registry=registry)
    if peft_spec is not None:
        attach(vit, peft_spec, SeededRng(seed, "init/peft"))
    if head_spec is not None:
        bundle.head = build_head(cfg, head_spec, registry, SeededRng(seed, "init/head"))
    return bundle


def target_checkpoint(stage_ckpt: Checkpoint, peft: PeftSpec) -> Checkpoint:
    """The pre-trained Target params of a TPP stage checkpoint.

    Keeps the stage's Target entries except the `pretext.` scaffolding
    (the DINO projection head), which fine-tuning does not use. The meta is
    the stage's, with the mechanism name added to its config. This is the
    `target.tppc` that `tpp tpp` writes and `tpp finetune --target-init`
    loads.
    """
    meta = dict(stage_ckpt.meta, config={"peft": mechanism_name(peft),
                                         **stage_ckpt.meta["config"]})
    entries = {n: e for n, e in stage_ckpt.entries.items()
               if e.group is ParamGroup.TARGET and not n.startswith("pretext.")}
    return Checkpoint(meta=meta, entries=entries)


# -- objectives ---------------------------------------------------------------


class Supervised:
    """CE on the labels or Dice+CE on the masks, through the bundle's task head.

    A bundle or a split that does not fit the plan fails in the constructor,
    before the stage's first step.
    """

    scores_val = True

    def __init__(self, bundle: ModelBundle, train: Dataset, plan: StagePlan):
        seg, head, name = plan.objective is Objective.DICE_CE, bundle.head, plan.objective.value
        if head is None or isinstance(head.spec, SegmentationSpec) is not seg:
            has = "no head" if head is None else f"a {type(head.spec).__name__} head"
            raise StateError(f"a {name} plan trains a {'segmentation' if seg else 'classification'}"
                             f" head, and the bundle has {has}")
        self.targets = train.masks if seg else train.labels
        if self.targets is None:
            raise ArgumentError(f"a {name} plan needs {'masks' if seg else 'labels'}, "
                                "and the training split has none")
        self.backbone, self.head = bundle.backbone, head
        self.loss, self.cls_only = (T.dice_ce, False) if seg else (T.cross_entropy, True)

    def step_loss(self, rows: np.ndarray, indices, rng: SeededRng, epoch: int) -> Tensor:
        """The loss of the [B,C,H,W] `rows` against the targets of their dataset
        indices `indices`. CE reads the class token alone."""
        feats = self.backbone.forward_images(Tensor(rows), cls_only=self.cls_only)
        return self.loss(self.head(feats), self.targets[indices])

    def after_step(self) -> None:
        """Nothing: no state carries from one step to the next."""


_OBJECTIVES = {Objective.MAE: MaskedReconstruction, Objective.DINO: SelfDistillation,
               Objective.CE: Supervised, Objective.DICE_CE: Supervised}


def objective_for(plan: StagePlan, bundle: ModelBundle, train: Dataset, rng: SeededRng,
                  mae_cfg: MaeConfig | None = None, dino_cfg: DinoConfig | None = None):
    """The object whose `step_loss` and `after_step` run each step of `plan`.

    CE and Dice+CE get a new `Supervised`. The MAE and DINO objects own
    params, so a bundle builds each once, under `rng.child("init/mae")` or
    `"init/dino"`, keeps it in `bundle.pretext` and readies it for each stage.
    """
    kind = plan.objective
    if _OBJECTIVES[kind] is Supervised:
        return Supervised(bundle, train, plan)
    if kind not in bundle.pretext:
        cfg = (mae_cfg or MaeConfig()) if kind is Objective.MAE else (dino_cfg or DinoConfig())
        bundle.pretext[kind] = _OBJECTIVES[kind](bundle.backbone, cfg,
                                                 rng.child(f"init/{kind.value}"))
    bundle.pretext[kind].start_stage()
    return bundle.pretext[kind]


# -- metric log -----------------------------------------------------------


class MetricLog:
    """JSON-lines log: one record per step, plus eval and event records."""

    def __init__(self):
        self.records: list[dict] = []

    def log(self, **fields) -> None:
        self.records.append(fields)

    def log_metrics(self, split: str, metrics: dict[str, float]) -> None:
        self.records.extend({"split": split, "metric": name, "value": value}
                            for name, value in metrics.items())

    def losses(self) -> list[float]:
        return [r["loss"] for r in self.records if "loss" in r]

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    @classmethod
    def read_jsonl(cls, path: str) -> "MetricLog":
        log = cls()
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:  # json raises ValueError on bad JSON and on bad UTF-8
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
                except ValueError as exc:
                    raise StructuralError(f"{path} line {lineno}: {exc}") from None
                log.records.append(record)
        return log


# -- evaluation --------------------------------------------------------------


def evaluate(bundle: ModelBundle, dataset: Dataset, batch_size: int = 64,
             split: str = "eval") -> dict[str, float]:
    """Deterministic full-dataset evaluation (no augmentation, no rng).

    A classification head reads the class token alone, so its backbone
    forward runs with `cls_only`. Logits that are not all finite (weights
    that a huge update left finite but overflowing) raise `NonFiniteScores`
    naming `split`; the forward overflows quietly, so that is the one message.
    """
    if bundle.head is None:
        raise StateError("evaluate: bundle has no task head")
    seg = isinstance(bundle.head.spec, SegmentationSpec)
    outputs = []
    with T.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(dataset), batch_size):
            feats = bundle.backbone.forward_images(
                Tensor(dataset.images[start:start + batch_size]), cls_only=not seg)
            logits = bundle.head(feats)
            if not np.isfinite(logits.data).all():
                raise NonFiniteScores(f"non-finite model outputs on the {split} split")
            outputs.append(np.argmax(logits.data, axis=1) if seg else T.softmax(logits.data))
    if seg:
        return segmentation_report(np.concatenate(outputs), dataset.masks)
    num_classes = bundle.head.spec.num_classes
    return classification_report(np.concatenate(outputs), dataset.labels, num_classes)


# -- stage runner -------------------------------------------------------------


def _check_augmented_range(plan: StagePlan, train: Dataset) -> None:
    """Every augment policy clips to [0,1]: refuse to augment other pixels."""
    policy = "dino_global/dino_local" if plan.objective is Objective.DINO else plan.augment_policy
    if policy == "none":
        return
    flat = train.images.reshape(len(train), -1)
    lo, hi = flat.min(axis=1), flat.max(axis=1)
    bad = (lo < 0) | (hi > 1)
    if bad.any():
        i = bad.argmax()  # the first such sample
        raise ArgumentError(f"run_stage: training sample {train.ids[i]!r} has pixels in "
                            f"[{lo[i]:.6g}, {hi[i]:.6g}], but augment policy {policy} clips "
                            f"them to [0, 1]; an augmenting stage needs pixels in [0, 1]")


def run_stage(plan: StagePlan, bundle: ModelBundle, data: SplitDatasets | Dataset,
              rng: SeededRng, mae_cfg: MaeConfig | None = None,
              dino_cfg: DinoConfig | None = None) -> tuple[Checkpoint, MetricLog]:
    """Run one training stage under the plan's freezing and budget.

    Returns a full-parameter checkpoint and the step/eval log. Frozen
    groups are audited for bit-identity; a violation is a hard error. A
    non-finite loss aborts with step, lr and recent loss history. A plan
    that augments refuses a training pixel outside [0,1] before step 0.
    """
    train = data.train if isinstance(data, SplitDatasets) else data
    val = data.val if isinstance(data, SplitDatasets) else None
    if len(train) == 0:
        raise ArgumentError("run_stage: empty training dataset")
    plan.validate()
    _check_augmented_range(plan, train)
    # the objective first (it may add params), then apply the plan's freezing
    objective = objective_for(plan, bundle, train, rng, mae_cfg, dino_cfg)
    evaluates = objective.scores_val and val is not None
    if evaluates and len(val) == 0:
        raise ArgumentError("run_stage: the plan evaluates each epoch, but the val split is empty")
    for group in ParamGroup:
        bundle.registry.set_group_trainable(group, group not in plan.frozen_groups)

    # before the first step, where the DINO teacher copies the trainable params
    if plan.init is not None and bundle.backbone.peft_spec is not None:
        reinit_target_params(bundle.backbone, rng.child("init/peft"))

    # bytes, as in `audit_freeze`: NaN equals itself, 0.0 -> -0.0 is a change
    frozen_before = {p.name: array_hash(p.data) for p in bundle.registry
                     if p.group in plan.frozen_groups}

    optimizer = AdamW(bundle.registry.params(trainable=True), plan.optimizer)
    n = len(train)
    spe = math.ceil(n / plan.batch_size)
    total_steps = plan.max_iterations if plan.max_iterations is not None \
        else plan.max_epochs * spe
    base_lr = plan.schedule.effective_base_lr(plan.batch_size)

    log = MetricLog()
    log.log(event="config", stage=plan.stage.value, objective=plan.objective.value,
            batch_size=plan.batch_size, total_steps=total_steps,
            base_lr=base_lr, trainable_ratio=bundle.registry.trainable_ratio())

    for step in range(total_steps):
        epoch, pos = divmod(step, spe)
        if pos == 0:
            order = rng.child(f"order/epoch{epoch}").permutation(n)
        indices = order[pos * plan.batch_size:(pos + 1) * plan.batch_size]

        lr = lr_at(plan.schedule, step, total_steps, spe, base_lr)
        wd = wd_at(plan.schedule, step, total_steps)
        try:  # the step's tape is freed however the step ends
            # a diverging forward overflows quietly: the finite-loss check is the error
            with np.errstate(over="ignore", invalid="ignore"):
                loss = objective.step_loss(batch_images(
                    train.images[indices], indices, plan.augment_policy,
                    rng.child(f"augment/epoch{epoch}")), indices, rng, epoch)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise TrainingDiverged(step, lr, log.losses())
            T.backward(loss)
            optimizer.step(lr, wd)
            optimizer.zero_grad()
        finally:
            T.clear_tape()
        objective.after_step()

        log.log(stage=plan.stage.value, step=step, epoch=epoch, lr=lr, wd=wd, loss=loss_value)
        if evaluates and (pos == spe - 1 or step == total_steps - 1):
            try:
                metrics = evaluate(bundle, val, plan.batch_size, split="val")
            except NonFiniteScores:  # the step left finite weights that overflow
                raise TrainingDiverged(step, lr, log.losses(), what="val scores") from None
            log.log_metrics("val", metrics)

    ckpt = Checkpoint.from_registry(
        bundle.registry, stage=plan.stage.value,
        config=_plan_snapshot(plan, base_lr, total_steps),
        rng_state={"seed": rng.seed, "path": rng.path},
    )
    frozen_after = ckpt.hashes()
    violations = [name for name, h in frozen_before.items() if frozen_after[name] != h]
    if violations:
        raise StateError(f"freeze violation: frozen params changed: {violations}")
    return ckpt, log


def _plan_snapshot(plan: StagePlan, base_lr: float, total_steps: int) -> dict:
    return {
        "stage": plan.stage.value,
        "objective": plan.objective.value,
        "frozen_groups": sorted(g.value for g in plan.frozen_groups),
        "trainable_groups": sorted(g.value for g in ParamGroup if g not in plan.frozen_groups),
        "batch_size": plan.batch_size,
        "total_steps": total_steps,
        "base_lr": base_lr,
        "warmup_epochs": plan.schedule.warmup_epochs,
        "wd_start": plan.schedule.wd_start,
        "wd_end": plan.schedule.wd_end,
        "augment_policy": plan.augment_policy,
        "betas": [plan.optimizer.beta1, plan.optimizer.beta2],
        "eps": plan.optimizer.eps,
    }


# -- grid search ---------------------------------------------------------------


def grid_search(base_plan: StagePlan, lr_grid: list[float], make_bundle,
                data: SplitDatasets, seed: int, primary_metric: str = "acc"
                ) -> tuple[tuple[ModelBundle, Checkpoint, MetricLog], list[dict]]:
    """Train a fresh `make_bundle()` per lr under the "stage/finetune" rng stream.

    Returns `((bundle, checkpoint, log), rows)`: the best run, trained once,
    and one row per lr, best first. A run's score is the last `val` record
    of its own log. Only the best run so far is kept, and only a strictly
    better score replaces it, so ties go to the earlier lr. Diverged runs
    rank last; if all diverge, the first run's own `TrainingDiverged` is raised.
    """
    if not lr_grid:
        raise ArgumentError("grid_search: empty learning-rate grid")
    if not _OBJECTIVES[base_plan.objective].scores_val:
        raise ArgumentError(f"grid_search: the plan must evaluate each epoch, "
                            f"and a {base_plan.objective.value} plan never does")
    higher = HIGHER_IS_BETTER[primary_metric]
    best = best_score = first_divergence = None
    ok, diverged = [], []
    for lr in lr_grid:
        plan = replace(base_plan, schedule=replace(base_plan.schedule, base_lr=lr))
        bundle = make_bundle()
        try:
            ckpt, log = run_stage(plan, bundle, data, SeededRng(seed, "stage/finetune"))
        except TrainingDiverged as exc:  # its traceback would keep the run alive
            first_divergence = first_divergence or exc.with_traceback(None)
            diverged.append({"lr": lr, "score": None, "status": f"diverged@{exc.step}"})
            continue
        score = [r["value"] for r in log.records if r.get("metric") == primary_metric][-1]
        ok.append({"lr": lr, "score": score, "status": "ok"})
        if best is None or (score > best_score if higher else score < best_score):
            best, best_score = (bundle, ckpt, log), score
    if best is None:
        raise first_divergence
    ok.sort(key=lambda r: r["score"], reverse=higher)
    return best, ok + diverged
