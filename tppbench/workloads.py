"""The benchmark's three workloads, each a closed loop in one process.

A workload has a set-up (data generation and model construction, timed by
`run.py` in fresh processes) and a unit: one pass of the pipeline that the
timed loop repeats with the same seed. A unit runs the training, then takes,
saves and loads one checkpoint of its result. It returns the time of each
part of the pass, in reference seconds (see `clock.py`) and in wall
seconds, the outputs that the checks compare, and a
fingerprint of everything that must be byte-identical between two same-seed
passes.

* `mae-tpp`: `pipeline.run_stage` with MAE target-parameter pre-training of
  an adapter on 128 synthetic classification images, batch 64, 20 steps.
* `dino-tpp`: `pipeline.run_stage` with DINO target-parameter pre-training of
  LoRA on q and v, default DinoConfig (2 global + 2 local views), batch 64,
  4 steps.
* `cli-seg`: `tpp.cli.main` called in-process for pretrain-backbone (MAE),
  tpp (MAE, decoder inherited), finetune (Dice+CE from the pre-trained
  target parameters, validation each epoch) and audit, on 64 px synthetic
  segmentation images with SSF, batch 32.

BitFit is left out on purpose: `tpp tpp --peft bitfit` exits 2 at this
commit, so a BitFit workload would measure an error path.

The `tiny` variants use a smaller model and a few steps; `run.py --smoke`
runs them to exercise the whole harness in seconds.

Calls into `tpp` go through module attributes (`pipeline.run_stage`, not
an imported name) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass

from clock import PassTimer
from tpp import checkpoint, cli, config, data, pipeline
from tpp.peft import AdapterSpec, LoraSpec
from tpp.pretext import DinoConfig, MaeConfig
from tpp.registry import ParamRegistry
from tpp.rng import SeededRng
from tpp.vit import ViTConfig

TINY_VIT = ViTConfig(embed_dim=32, depth=1, num_heads=2)
SAVES = 20
SAVE_BATCHES = 3


@dataclass
class UnitResult:
    parts: dict[str, list[float]]  # part of the pass -> each call, reference seconds
    walls: dict[str, list[float]]  # the same calls in wall seconds
    samples: int                  # training samples (DINO: images, not views)
    attempted: int                # steps, verbs and checkpoint round trips
    failures: list[str]
    fingerprint: str              # sha256 of the outputs that must repeat exactly
    outputs: dict                 # values compared with the recorded references


def _finite_losses(losses: list[float], where: str) -> list[str]:
    return [f"{where} step {i}: loss {v!r}" for i, v in enumerate(losses)
            if not math.isfinite(v)]


def _hash_lines(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def checkpoint_round(timer: PassTimer, registry: ParamRegistry, meta: dict,
                     path: str, repeats: int):
    """Take, save and load a checkpoint of `registry`; returns (taken, loaded).

    Snapshot and load are timed `repeats` times each. One save takes a few
    milliseconds, too little to time alone, so SAVES saves are timed
    together and count as one time per save, SAVE_BATCHES times. Each save
    writes a new file, as the cli verbs do: a save over an existing file
    also frees the old one, which on the discard-mounted ext4 disk of the
    machine the benchmark was written on added ~3 ms that did not follow
    the speed probes. The files are removed untimed; `path` keeps the last.
    """
    snap = timer.time("snapshot", lambda: checkpoint.Checkpoint.from_registry(
        registry, stage=meta["stage"], config=meta["config"], rng_state=meta["rng"]),
        repeats)
    for _ in range(SAVE_BATCHES):
        paths = [f"{path}.{i}" for i in range(SAVES)]
        timer.time("save", lambda: [snap.save(p) for p in paths], calls=SAVES)
        for p in paths[1:]:
            os.remove(p)
        os.replace(paths[0], path)
    back = timer.time("load", lambda: checkpoint.Checkpoint.load(path), repeats)
    return snap, back


class StageWorkload:
    """One in-process target-parameter pre-training stage on synthetic_cls."""

    TRAIN_PARTS = ("train",)
    # checkpoint timings per pass
    ckpt_repeats = 1
    objective: pipeline.Objective
    init: pipeline.InitSpec | None = None

    def __init__(self, tiny: bool):
        self.vit = TINY_VIT if tiny else ViTConfig()
        counts = (16, 8, 8) if tiny else (128, 64, 64)
        # the ExperimentConfig defaults for [data] kind = synthetic_cls
        self.spec = data.SyntheticTaskSpec(kind="textured_shapes_cls", num_classes=4,
                                           image_size=self.vit.image_size, noise=0.25,
                                           separation=0.8, train_count=counts[0],
                                           val_count=counts[1], test_count=counts[2])
        self.seed = None
        self.data = None
        self.bundle = None

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.data = data.generate_synthetic(self.spec, SeededRng(seed, "data"))
        self.bundle = pipeline.build_bundle(self.vit, seed, peft_spec=self.peft_spec)

    def unit(self, workdir: str) -> UnitResult:
        bundle = self.bundle or pipeline.build_bundle(self.vit, self.seed,
                                                      peft_spec=self.peft_spec)
        self.bundle = None  # run_stage trains it; the next pass builds a fresh one
        plan = pipeline.default_plan(pipeline.Stage.TPP, self.objective,
                                     batch_size=self.batch, max_epochs=None,
                                     max_iterations=self.steps, init=self.init)
        timer = PassTimer()
        ckpt, log = timer.time("train", lambda: pipeline.run_stage(
            plan, bundle, self.data, SeededRng(self.seed, "stage/tpp"),
            mae_cfg=MaeConfig(), dino_cfg=DinoConfig()))
        snap, back = checkpoint_round(timer, bundle.registry, ckpt.meta,
                                      os.path.join(workdir, "stage.tppc"), self.ckpt_repeats)
        losses = log.losses()
        failures = _finite_losses(losses, self.name)
        if len(losses) != self.steps:
            failures.append(f"{self.name}: {len(losses)} steps logged, expected {self.steps}")
        if not (snap.hashes() == ckpt.hashes() == back.hashes()):
            failures.append(f"{self.name}: checkpoint round trip changed tensor hashes")
        lines = [json.dumps(r, sort_keys=True) for r in log.records]
        lines += [f"{n} {h}" for n, h in ckpt.hashes().items()]
        return UnitResult(parts=timer.ref, walls=timer.wall, samples=self.steps * self.batch,
                          attempted=self.steps + 1, failures=failures,
                          fingerprint=_hash_lines(lines), outputs={"loss": losses})


class MaeTpp(StageWorkload):
    name = "mae-tpp"
    objective = pipeline.Objective.MAE
    peft_spec = AdapterSpec()
    init = pipeline.InitSpec("random")  # re-draws the adapters through peft.reinit

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self.steps, self.batch = (2, 8) if tiny else (20, 64)


class DinoTpp(StageWorkload):
    name = "dino-tpp"
    ckpt_repeats = 2
    objective = pipeline.Objective.DINO
    peft_spec = LoraSpec(targets=("query", "value"))

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self.steps, self.batch = (1, 4) if tiny else (4, 64)


CLI_CONFIG = """\
[model]
image_size = {image_size}
embed_dim = {embed_dim}
depth = {depth}
num_heads = {num_heads}

[peft]
method = ssf

[pretext]
task = mae

[data]
kind = synthetic_seg
train_count = {train}
val_count = {val}
test_count = {test}

[stage]
batch_size = {batch}
iterations = {iterations}
"""


class CliSeg:
    """pretrain-backbone -> tpp -> finetune -> audit through `tpp.cli.main`."""

    name = "cli-seg"
    TRAIN_PARTS = ("pretrain", "tpp", "finetune")
    ckpt_repeats = 2

    def __init__(self, tiny: bool = False):
        vit = TINY_VIT if tiny else ViTConfig(image_size=64)
        self.batch = 4 if tiny else 32
        counts = (8, 4, 4) if tiny else (64, 16, 16)
        # finetune runs two epochs, so validation runs after each
        self.iterations = {"pretrain": 1, "tpp": 1, "finetune": 4} if tiny else \
            {"pretrain": 4, "tpp": 4, "finetune": 4}
        self.texts = {
            verb: CLI_CONFIG.format(image_size=vit.image_size, embed_dim=vit.embed_dim,
                                    depth=vit.depth, num_heads=vit.num_heads,
                                    train=counts[0], val=counts[1], test=counts[2],
                                    batch=self.batch, iterations=iters)
            for verb, iters in self.iterations.items()
        }
        self.seed = None
        self.configs: dict[str, str] = {}

    def setup(self, seed: int, workdir: str) -> None:
        """Config parsing, data generation and model construction."""
        self.seed = seed
        for verb, text in self.texts.items():
            path = os.path.join(workdir, f"{verb}.cfg")
            with open(path, "w") as fh:
                fh.write(text)
            self.configs[verb] = path
        cfg = config.ExperimentConfig.load(self.configs["finetune"])
        splits = cfg.load_data(seed)
        pipeline.build_bundle(cfg.vit_config(), seed,
                              head_spec=cfg.head_spec(splits.train.task, 2),
                              peft_spec=cfg.peft_spec())

    @staticmethod
    def _verb(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def unit(self, workdir: str) -> UnitResult:
        # the same paths every pass: finetune logs its --target-init path
        run = os.path.join(workdir, "chain")
        seed = str(self.seed)
        backbone = os.path.join(run, "pre", "backbone.tppc")
        target = os.path.join(run, "tpp", "target.tppc")
        finetuned = os.path.join(run, "ft", "finetune.tppc")
        chain = [
            ("pretrain", ["pretrain-backbone", "--config", self.configs["pretrain"],
                          "--seed", seed, "--out", os.path.dirname(backbone)]),
            ("tpp", ["tpp", "--config", self.configs["tpp"], "--seed", seed,
                     "--backbone", backbone, "--out", os.path.dirname(target)]),
            ("finetune", ["finetune", "--config", self.configs["finetune"], "--seed", seed,
                          "--backbone", backbone, "--target-init", target,
                          "--out", os.path.dirname(finetuned)]),
            ("audit", ["audit", backbone, finetuned]),
        ]
        failures, printed, timer = [], {}, PassTimer()
        for verb, argv in chain:
            rc, printed[verb] = timer.time(verb, lambda: self._verb(argv))
            if rc != 0:
                failures.append(f"cli-seg {verb}: exit code {rc}: {printed[verb].strip()[-200:]}")
        if not printed["audit"].startswith("PASS"):
            failures.append(f"cli-seg audit: {printed['audit'].strip()[:200]}")
        if "backbone freeze audit: PASS" not in printed["tpp"]:
            failures.append("cli-seg tpp: backbone freeze audit did not pass")

        # snapshot, save and load of the chain's backbone, outside the verbs;
        # the copy must be byte-identical to the file the verb wrote
        loaded = checkpoint.Checkpoint.load(backbone)
        registry = ParamRegistry()
        for name, entry in loaded.entries.items():
            registry.register(name, entry.data, entry.group)
        copy = os.path.join(run, "backbone-copy.tppc")
        checkpoint_round(timer, registry, loaded.meta, copy, self.ckpt_repeats)
        with open(backbone, "rb") as a, open(copy, "rb") as b:
            if a.read() != b.read():
                failures.append("cli-seg: backbone checkpoint did not round-trip byte-identically")

        lines, steps, tests = [], 0, {}
        for path in (os.path.join(run, "pre", "backbone.jsonl"),
                     os.path.join(run, "tpp", "tpp.jsonl"),
                     os.path.join(run, "ft", "finetune.jsonl"),
                     backbone, target, finetuned):
            with open(path, "rb") as fh:
                lines.append(hashlib.sha256(fh.read()).hexdigest())
            if path.endswith(".jsonl"):
                records = pipeline.MetricLog.read_jsonl(path).records
                losses = [r["loss"] for r in records if "loss" in r]
                steps += len(losses)
                failures += _finite_losses(losses, f"cli-seg {os.path.basename(path)}")
                tests.update({r["metric"]: r["value"] for r in records
                              if r.get("split") == "test"})
        expected = sum(self.iterations.values())
        if steps != expected:
            failures.append(f"cli-seg: {steps} steps logged, expected {expected}")
        shutil.rmtree(run)
        return UnitResult(parts=timer.ref, walls=timer.wall, samples=expected * self.batch,
                          attempted=len(chain) + expected + 1, failures=failures,
                          fingerprint=_hash_lines(lines),
                          outputs={"dice": tests.get("dice"), "hd95": tests.get("hd95")})


WORKLOADS = {w.name: w for w in (MaeTpp, DinoTpp, CliSeg)}
