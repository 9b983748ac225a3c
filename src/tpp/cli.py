"""Command-line surface.

Verbs:

    tpp pretrain-backbone --config C --seed S --out DIR
    tpp tpp              --config C --seed S --backbone CKPT [--peft M] --out DIR
    tpp finetune         --config C --seed S --backbone CKPT
                         [--target-init random|CKPT] [--grid lr,lr,...] --out DIR
    tpp audit            BEFORE AFTER [--groups backbone,target,head]
    tpp report           LOG [LOG ...] [--csv PATH] [--out PATH]

`finetune --grid` trains one run per learning rate and writes the run with
the best [eval] primary val score: its checkpoint, log and test metrics.

Exit codes: 0 success, 1 config error, 2 runtime/divergence, 3 audit failure.
Every command is idempotent on its outputs given --seed and identical inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from .checkpoint import Checkpoint, audit_freeze
from .config import AUTO, SCHEMA, ExperimentConfig, check
from .errors import ArgumentError, ConfigError, StructuralError, TrainingDiverged
from .metrics import TASK_METRICS
from .peft import BitFitSpec, mechanism_name
from .pipeline import (MetricLog, ModelBundle, Objective, Stage, StagePlan,
                       build_bundle, default_plan, evaluate, grid_search,
                       objective_for, run_stage, target_checkpoint)
from .registry import ParamGroup
from .rng import SeededRng


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tpp",
                                     description="Target-parameter pre-training workflows")
    sub = parser.add_subparsers(dest="command", required=True)
    peft_help = f"override [peft] method ({'|'.join(SCHEMA['peft']['method'][2])})"

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("pretrain-backbone", help="self-supervised backbone pre-training (all groups trainable)")
    common(p)

    p = sub.add_parser("tpp", help="pre-train target parameters with the configured pretext task")
    common(p)
    p.add_argument("--backbone", required=True, help="backbone checkpoint")
    p.add_argument("--peft", default=None, help=peft_help)

    p = sub.add_parser("finetune", help="supervised fine-tuning of target + head params")
    common(p)
    p.add_argument("--backbone", required=True, help="backbone checkpoint")
    p.add_argument("--peft", default=None, help=peft_help)
    p.add_argument("--target-init", default="random",
                   help="'random' or a target-parameter checkpoint path")
    p.add_argument("--grid", default=None,
                   help="comma-separated learning rates to grid-search on the val split")

    p = sub.add_parser("audit", help="compare frozen-group hashes between two checkpoints")
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--groups", default="backbone",
                   help="comma-separated groups to audit (default: backbone)")

    p = sub.add_parser("report", help="aggregate run logs into a markdown/CSV table")
    p.add_argument("logs", nargs="+")
    p.add_argument("--csv", default=None, help="also write CSV here")
    p.add_argument("--out", default=None, help="write markdown here instead of stdout")
    return parser


# -- shared helpers ----------------------------------------------------------


def _stage_plan(cfg: ExperimentConfig, stage: Stage, objective: Objective, task: str) -> StagePlan:
    plan = default_plan(stage, objective, task)
    epochs, iterations = cfg.get("stage", "epochs"), cfg.get("stage", "iterations")
    if epochs != AUTO and iterations != AUTO:
        raise ConfigError("[stage] set either epochs or iterations, not both")
    if iterations != AUTO:
        plan = replace(plan, max_epochs=None, max_iterations=iterations)
    elif epochs != AUTO:
        plan = replace(plan, max_epochs=epochs, max_iterations=None)
    get = partial(cfg.resolved, "stage")
    s = plan.schedule
    schedule = replace(s, base_lr=get("lr", s.base_lr),
                       warmup_epochs=get("warmup_epochs", s.warmup_epochs),
                       wd_start=get("weight_decay", s.wd_start), wd_end=get("wd_end", s.wd_end))
    # DINO draws its views under their own policies; [stage] augment is for the others
    augment = "none" if objective is Objective.DINO else get("augment", plan.augment_policy)
    return replace(plan, schedule=schedule, batch_size=get("batch_size", plan.batch_size),
                   augment_policy=augment, optimizer=cfg.adamw_spec())


def _task_and_data(cfg: ExperimentConfig, seed: int, needed=("train",)):
    """Load the data and check it fits [model] before any model is built.

    Each split in `needed` must be non-empty, and a classification split in
    `needed` other than train must hold at least 2 distinct labels (AUC needs
    both). Every split must have train's class names (a folder split labels
    by its own class directories).
    The images of each split must be [num_channels, image_size, image_size]
    (`load_folder` makes them agree with each other), and every segmentation
    mask binary (the loss and head assume 2 classes).
    """
    data = cfg.load_data(seed)
    m = cfg.values["model"]
    shape = (m["num_channels"], m["image_size"], m["image_size"])
    for split in ("train", "val", "test"):
        dataset = getattr(data, split)
        if split in needed and len(dataset) == 0:
            raise ConfigError(f"the {split} split is empty; check [data] {split}_count or path")
        if split in needed and split != "train" and dataset.task == "classification":
            labels = np.unique(dataset.labels).tolist()
            if len(labels) < 2:
                raise ConfigError(
                    f"the {split} split holds labels {labels} only; AUC needs at least 2 "
                    f"distinct labels; check [data] {split}_count, num_classes or path")
        if dataset.class_names != data.train.class_names:
            raise ConfigError(f"the {split} split has classes {dataset.class_names}, "
                              f"but train has {data.train.class_names}")
        if len(dataset) and dataset.images.shape[1:] != shape:
            raise ConfigError(
                f"{split} sample {dataset.ids[0]}: image shape {list(dataset.images.shape[1:])} "
                f"does not match [model] num_channels, image_size, image_size = {list(shape)}")
        bad = [] if dataset.masks is None else \
            np.flatnonzero(((dataset.masks < 0) | (dataset.masks > 1)).any(axis=(1, 2)))
        if len(bad):
            raise ConfigError(
                f"{split} sample {dataset.ids[bad[0]]}: mask labels "
                f"{np.unique(dataset.masks[bad[0]]).tolist()} "
                f"are not all in {{0, 1}}; segmentation is binary")
    return data.train.task, data


def _write_outputs(out_dir: str, name: str, ckpt: Checkpoint, log: MetricLog) -> str:
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, f"{name}.tppc")
    ckpt.save(ckpt_path)
    log.write_jsonl(os.path.join(out_dir, f"{name}.jsonl"))
    return ckpt_path


# -- commands ---------------------------------------------------------------


def cmd_pretrain_backbone(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    task, data = _task_and_data(cfg, args.seed)
    objective = Objective(cfg.get("pretext", "task"))
    mae_cfg, dino_cfg = cfg.mae_config(), cfg.dino_config()
    plan = _stage_plan(cfg, Stage.BACKBONE_PRETRAIN, objective, task)
    bundle = build_bundle(cfg.vit_config(), args.seed)
    rng = SeededRng(args.seed, "stage/pretrain")
    ckpt, log = run_stage(plan, bundle, data, rng, mae_cfg=mae_cfg, dino_cfg=dino_cfg)
    log.log(event="effective_config", seed=args.seed, **cfg.effective())
    path = _write_outputs(args.out, "backbone", ckpt, log)
    print(f"wrote {path}")
    return 0


def _prepare_decoder(cfg: ExperimentConfig, bundle: ModelBundle,
                     backbone_ckpt: Checkpoint, task: str) -> str:
    """Resolve the decoder handling mode and inherit weights when asked.

    Returns the mode. auto: freeze for classification, update for
    segmentation, falling back to random when the checkpoint carries no
    decoder. Explicit freeze/update without an inheritable decoder is a
    config error. Call it once `objective_for` has built the bundle's MAE
    object: the weights go into its decoder, and `run_stage` trains that
    same object, which it gets back from `bundle.pretext`.
    """
    mode = cfg.get("pretext", "decoder_mode")
    decoder_names = {p.name for p in bundle.registry.params(prefix="pretext.mae.")}
    available = decoder_names <= set(backbone_ckpt.entries)
    if mode == "auto":
        if available:
            mode = "freeze" if task == "classification" else "update"
        else:
            mode = "random"
    if mode in ("freeze", "update"):
        if not available:
            raise ConfigError(
                f"decoder_mode={mode} needs an inheritable decoder, but the backbone "
                f"checkpoint has none")
        # the decoder is the bundle's whole Head group at this point
        backbone_ckpt.apply_to_registry(bundle.registry, groups={ParamGroup.HEAD})
    return mode


def cmd_tpp(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    peft_spec = cfg.peft_spec(args.peft)
    if peft_spec is None:
        raise ConfigError("tpp requires a PEFT method that introduces target parameters")
    if isinstance(peft_spec, BitFitSpec):
        print("warning: BitFit adds no parameters; pre-training its biases is experimental",
              file=sys.stderr)
    task, data = _task_and_data(cfg, args.seed)
    objective = Objective(cfg.get("pretext", "task"))
    mae_cfg, dino_cfg = cfg.mae_config(), cfg.dino_config()
    plan = _stage_plan(cfg, Stage.TPP, objective, task)
    backbone_ckpt = Checkpoint.load(args.backbone)
    bundle = build_bundle(cfg.vit_config(), args.seed, peft_spec=peft_spec,
                          backbone=backbone_ckpt)
    rng = SeededRng(args.seed, "stage/tpp")

    if objective is Objective.MAE:
        objective_for(plan, bundle, data.train, rng, mae_cfg=mae_cfg)
        if _prepare_decoder(cfg, bundle, backbone_ckpt, task) == "freeze":
            plan = replace(plan, frozen_groups=frozenset({ParamGroup.BACKBONE, ParamGroup.HEAD}))
    ckpt, log = run_stage(plan, bundle, data, rng, mae_cfg=mae_cfg, dino_cfg=dino_cfg)
    log.log(event="effective_config", seed=args.seed, **cfg.effective())

    ratio = bundle.registry.trainable_ratio()
    print(f"trainable ratio: {ratio:.4f}%")

    report = audit_freeze(backbone_ckpt, ckpt, {ParamGroup.BACKBONE})
    print(f"backbone freeze audit: {report.summary().splitlines()[0]}")

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "target.tppc")
    target_checkpoint(ckpt, peft_spec).save(path)
    log.log(event="trainable_ratio", value=ratio)
    log.write_jsonl(os.path.join(args.out, "tpp.jsonl"))
    print(f"wrote {path}")
    return 0 if report.passed else 3


def cmd_finetune(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    peft_spec = cfg.peft_spec(args.peft)
    try:  # --grid is checked before any data is loaded
        grid = [float(v) for v in args.grid.split(",") if v.strip()] if args.grid else None
    except ValueError as exc:
        raise ConfigError(f"--grid {args.grid}: {exc}") from None
    if grid == []:
        raise ConfigError(f"--grid {args.grid}: no learning rate given")
    for lr in grid or ():
        check("stage", "lr", lr, f"--grid {args.grid}: ")
    task, data = _task_and_data(cfg, args.seed, needed=("train", "val", "test"))
    objective = Objective.CE if task == "classification" else Objective.DICE_CE
    task_metrics = TASK_METRICS[task]
    primary = cfg.resolved("eval", "primary", task_metrics[0])
    if primary not in task_metrics:
        raise ConfigError(f"[eval] primary = {primary!r} is not a {task} metric {task_metrics}")
    plan = _stage_plan(cfg, Stage.FINETUNE, objective, task)
    lr_grid = [plan.schedule.base_lr] if grid is None else grid
    head_spec = cfg.head_spec(task, data.train.num_classes)
    backbone_ckpt = Checkpoint.load(args.backbone)
    target_ckpt = None if args.target_init == "random" else Checkpoint.load(args.target_init)

    def make_bundle() -> ModelBundle:
        bundle = build_bundle(cfg.vit_config(), args.seed, head_spec=head_spec,
                              peft_spec=peft_spec, backbone=backbone_ckpt)
        if target_ckpt is not None:
            target_ckpt.apply_to_registry(bundle.registry, groups={ParamGroup.TARGET})
        return bundle

    (bundle, ckpt, log), rows = grid_search(plan, lr_grid, make_bundle, data, args.seed, primary)
    if args.grid:
        print("grid search (best first):")
        for row in rows:
            score = "diverged" if row["score"] is None else f"{row['score']:.4f}"
            print(f"  lr={row['lr']:.6g}  {primary}={score}  [{row['status']}]")

    test_metrics = evaluate(bundle, data.test, cfg.get("eval", "batch_size"), split="test")
    log.log_metrics("test", test_metrics)
    ratio = bundle.registry.trainable_ratio()
    log.log(event="trainable_ratio", value=ratio)
    log.log(event="run_info", label=os.path.splitext(os.path.basename(args.config))[0],
            seed=args.seed, peft=(mechanism_name(peft_spec) if peft_spec else "none"),
            target_init=args.target_init)
    log.log(event="effective_config", seed=args.seed, **cfg.effective())
    path = _write_outputs(args.out, "finetune", ckpt, log)
    print("test: " + "  ".join(f"{k}={v:.4f}" for k, v in test_metrics.items()))
    print(f"trainable ratio: {ratio:.4f}%")
    print(f"wrote {path}")
    return 0


def cmd_audit(args) -> int:
    try:
        groups = {ParamGroup(name.strip().lower()) for name in args.groups.split(",")}
    except ValueError as exc:
        raise ConfigError(f"--groups: {exc}; expected backbone/target/head") from None
    before = Checkpoint.load(args.before)
    after = Checkpoint.load(args.after)
    report = audit_freeze(before, after, groups)
    print(report.summary())
    return 0 if report.passed else 3


_NUMBER = (int, float)


def _field(record: dict, key: str, kind, path: str):
    """`record[key]` if it is a `kind`; a missing or mistyped field is a StructuralError."""
    if key not in record:
        raise StructuralError(f"{path}: record {record} has no {key!r} field")
    value = record[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise StructuralError(f"{path}: record {record} has a {type(value).__name__} {key!r}")
    return value


def cmd_report(args) -> int:
    runs = []
    for path in args.logs:
        log = MetricLog.read_jsonl(path)
        info = next((r for r in log.records if r.get("event") == "run_info"), None)
        ratio = next((_field(r, "value", _NUMBER, path) for r in log.records
                      if r.get("event") == "trainable_ratio"), None)
        tests = {_field(r, "metric", str, path): _field(r, "value", _NUMBER, path)
                 for r in log.records if r.get("split") == "test"}
        label = _field(info, "label", str, path) if info \
            else os.path.splitext(os.path.basename(path))[0]
        if info and info.get("target_init") not in (None, "random"):
            label += "+tpp"
        runs.append({"label": label, "seed": _field(info, "seed", int, path) if info else None,
                     "ratio": ratio, "metrics": tests})
    by_label: dict[str, list[dict]] = {}
    for run in runs:
        by_label.setdefault(run["label"], []).append(run)

    metric_names = sorted({m for run in runs for m in run["metrics"]})
    header = ["Method", "Seeds"] + [m.upper() for m in metric_names] + ["Ratio"]
    table_rows = []
    for label in sorted(by_label):
        group = by_label[label]
        row = [label, str(len(group))]
        for m in metric_names:
            vals = [g["metrics"][m] for g in group if m in g["metrics"]]
            row.append(f"{np.mean(vals):.2f}" if vals else "-")
        ratios = [g["ratio"] for g in group if g["ratio"] is not None]
        row.append(f"{np.mean(ratios):.3f}" if ratios else "-")
        table_rows.append(row)

    widths = [max(len(h), *(len(r[i]) for r in table_rows)) if table_rows else len(h)
              for i, h in enumerate(header)]
    lines = ["| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
             "|-" + "-|-".join("-" * w for w in widths) + "-|"]
    for row in table_rows:
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    markdown = "\n".join(lines)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown + "\n")
    else:
        print(markdown)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in table_rows:
                fh.write(",".join(row) + "\n")
    return 0


_COMMANDS = {
    "pretrain-backbone": cmd_pretrain_backbone,
    "tpp": cmd_tpp,
    "finetune": cmd_finetune,
    "audit": cmd_audit,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2
    except (StructuralError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
