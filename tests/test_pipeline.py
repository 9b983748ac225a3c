"""Stage orchestration: freeze theorem, init modes, determinism, grid search."""

from dataclasses import replace

import numpy as np
import pytest

from tpp import pipeline, pretext
from tpp import tensor as T
from tpp.checkpoint import Checkpoint, audit_freeze
from tpp.data import SyntheticTaskSpec, generate_synthetic
from tpp.errors import (ArgumentError, NonFiniteScores, StateError, StructuralError,
                        TrainingDiverged)
from tpp.optim import AdamW, ScheduleSpec
from tpp.peft import AdapterSpec, BitFitSpec, LoraSpec, reinit_target_params
from tpp.pipeline import (InitSpec, Objective, Stage, build_bundle, default_plan,
                          evaluate, grid_search, run_stage, target_checkpoint)
from tpp.pretext import MaskedReconstruction, SelfDistillation
from tpp.registry import ParamGroup, ParamRegistry
from tpp.rng import SeededRng
from tpp.vit import ClassificationSpec, SegmentationSpec, ViTConfig

TINY = ViTConfig(image_size=16, patch_size=4, embed_dim=16, depth=2, num_heads=2)


def _splits(seed=0, classes=2, train=16):
    spec = SyntheticTaskSpec(num_classes=classes, image_size=16, train_count=train,
                             val_count=8, test_count=8, noise=0.2)
    return generate_synthetic(spec, SeededRng(seed, "data"))


def _quick_plan(stage, objective, steps=6, batch=8, lr=1e-3, wd=0.0, **kw):
    plan = default_plan(stage, objective)
    return replace(plan, max_epochs=None, max_iterations=steps, batch_size=batch,
                   schedule=ScheduleSpec(base_lr=lr, warmup_epochs=0, wd_start=wd),
                   **kw)


class TestPlanValidation:
    def test_tpp_must_freeze_backbone_and_train_target(self):
        plan = _quick_plan(Stage.TPP, Objective.MAE)
        bad = replace(plan, frozen_groups=frozenset())
        with pytest.raises(StateError, match="freeze the Backbone"):
            bad.validate()
        bad = replace(plan, frozen_groups=frozenset({ParamGroup.BACKBONE, ParamGroup.TARGET}))
        with pytest.raises(StateError, match="train the Target"):
            bad.validate()

    def test_a_dino_plan_that_carries_an_augment_policy_is_refused_before_any_param(self):
        # the DINO views draw under their own policies, so a stage policy would be a false record
        plan = _quick_plan(Stage.TPP, Objective.DINO, augment_policy="finetune_light")
        bundle = build_bundle(TINY, seed=0, peft_spec=LoraSpec())
        names = [p.name for p in bundle.registry]
        with pytest.raises(StateError, match="must be 'none', not 'finetune_light'"):
            run_stage(plan, bundle, _splits(), SeededRng(0, "stage/tpp"))
        assert [p.name for p in bundle.registry] == names and bundle.pretext == {}

    def test_paper_default_mae_plan_values(self):
        plan = default_plan(Stage.TPP, Objective.MAE, task="classification")
        assert plan.schedule.base_lr == 1.5e-3
        assert plan.schedule.wd_start == 1.5e-2
        assert plan.schedule.warmup_epochs == 40
        assert plan.batch_size == 64
        assert plan.max_epochs == 500
        seg = default_plan(Stage.TPP, Objective.MAE, task="segmentation")
        assert seg.max_epochs == 1000

    def test_paper_default_dino_plan_scales_lr(self):
        plan = default_plan(Stage.TPP, Objective.DINO)
        assert plan.schedule.effective_base_lr(64) == 2.5e-5
        assert plan.schedule.wd_start == 0.04 and plan.schedule.wd_end == 0.4
        assert plan.schedule.warmup_epochs == 10


class TestFreezeTheorem:
    def test_tpp_stage_leaves_backbone_bit_identical(self):
        splits = _splits()
        bundle = build_bundle(TINY, seed=0, peft_spec=AdapterSpec(4))
        before = Checkpoint.from_registry(bundle.registry, stage="before")
        plan = _quick_plan(Stage.TPP, Objective.MAE, steps=8)
        after, _ = run_stage(plan, bundle, splits, SeededRng(0, "stage/tpp"))
        report = audit_freeze(before, after, {ParamGroup.BACKBONE})
        assert report.passed
        # and the target params actually moved
        target_report = audit_freeze(before, after, {ParamGroup.TARGET})
        assert not target_report.passed

    def test_degenerate_single_step_keeps_backbone_hashes(self):
        splits = _splits()
        bundle = build_bundle(TINY, seed=1, peft_spec=AdapterSpec(4))
        before = Checkpoint.from_registry(bundle.registry, stage="in")
        plan = _quick_plan(Stage.TPP, Objective.MAE, steps=1)
        after, _ = run_stage(plan, bundle, splits, SeededRng(1, "stage/tpp"))
        assert before.hashes(ParamGroup.BACKBONE) == after.hashes(ParamGroup.BACKBONE)

    def test_finetune_freeze_covers_backbone(self):
        splits = _splits()
        bundle = build_bundle(TINY, seed=2, head_spec=ClassificationSpec(2),
                              peft_spec=AdapterSpec(4))
        before = Checkpoint.from_registry(bundle.registry, stage="in")
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=8)
        after, _ = run_stage(plan, bundle, splits, SeededRng(2, "stage/ft"))
        assert audit_freeze(before, after, {ParamGroup.BACKBONE}).passed

    def test_nan_in_unused_frozen_param_is_not_a_violation(self):
        # MAE-TPP never reads the classification head, so its NaN stays out of
        # the loss; NaN bytes are unchanged, so the freeze check must pass
        bundle = build_bundle(TINY, seed=4, head_spec=ClassificationSpec(2),
                              peft_spec=AdapterSpec(4))
        head = bundle.registry.get("head.fc.weight")
        head.data = np.full_like(head.data, np.nan)
        plan = _quick_plan(Stage.TPP, Objective.MAE, steps=2,
                           frozen_groups=frozenset({ParamGroup.BACKBONE, ParamGroup.HEAD}))
        after, _ = run_stage(plan, bundle, _splits(), SeededRng(4, "stage/tpp"))
        assert np.isnan(after.entries["head.fc.weight"].data).all()

    @pytest.mark.parametrize("change", ["ulp", "signed_zero"])
    def test_frozen_param_changed_during_stage_raises(self, monkeypatch, change):
        bundle = build_bundle(TINY, seed=5, head_spec=ClassificationSpec(2),
                              peft_spec=AdapterSpec(4))
        victim = bundle.registry.get("backbone.cls_token")
        if change == "signed_zero":
            victim.data = np.zeros_like(victim.data)
        real_step = AdamW.step

        def step_and_touch(self, lr, weight_decay):
            real_step(self, lr, weight_decay)
            if change == "ulp":
                victim.data = np.nextafter(victim.data, np.inf)
            else:
                victim.data = -victim.data

        monkeypatch.setattr(AdamW, "step", step_and_touch)
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=1)
        with pytest.raises(StateError, match="backbone.cls_token"):
            run_stage(plan, bundle, _splits(), SeededRng(5, "stage/ft"))

    def test_nan_loss_aborts_with_diagnostics(self):
        splits = _splits()
        bundle = build_bundle(TINY, seed=3, head_spec=ClassificationSpec(2),
                              peft_spec=AdapterSpec(4))
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=50, lr=1e200, wd=1.0)
        with pytest.raises(TrainingDiverged) as exc:
            run_stage(plan, bundle, splits, SeededRng(3, "stage/ft"))
        assert exc.value.step > 0
        assert len(exc.value.loss_history) == exc.value.step
        assert len(T.tape()) == 0

    @pytest.mark.parametrize("kind, head", [
        ("textured_shapes_cls", ClassificationSpec(2)), ("blob_seg", SegmentationSpec(2))])
    def test_eval_outputs_that_overflow_raise_naming_the_split(self, kind, head):
        spec = SyntheticTaskSpec(kind=kind, num_classes=2, image_size=16, train_count=0,
                                 val_count=0, test_count=4, noise=0.2)
        bundle = build_bundle(TINY, seed=3, head_spec=head, peft_spec=AdapterSpec(4))
        for p in bundle.registry.params(group=ParamGroup.TARGET):
            p.data = np.full_like(p.data, 1e300)  # finite, as one huge update leaves them
        with pytest.raises(NonFiniteScores, match="on the test split"):
            evaluate(bundle, generate_synthetic(spec, SeededRng(0, "data")).test, split="test")


class TestSupervisedObjective:
    @pytest.mark.parametrize("objective, head, kind, error, match", [
        (Objective.CE, None, "textured_shapes_cls", StateError, "bundle has no head"),
        (Objective.DICE_CE, None, "blob_seg", StateError, "bundle has no head"),
        (Objective.CE, SegmentationSpec(2), "blob_seg", StateError, "a SegmentationSpec"),
        (Objective.DICE_CE, ClassificationSpec(2), "textured_shapes_cls", StateError,
         "a ClassificationSpec"),
        (Objective.DICE_CE, SegmentationSpec(2), "textured_shapes_cls", ArgumentError,
         "needs masks"),
        (Objective.CE, ClassificationSpec(2), "blob_seg", ArgumentError, "needs labels"),
    ], ids=["ce-no-head", "dice-ce-no-head", "ce-seg-head", "dice-ce-cls-head",
            "dice-ce-no-masks", "ce-no-labels"])
    def test_a_plan_the_bundle_or_split_cannot_run_fails_before_the_first_step(
            self, objective, head, kind, error, match, monkeypatch):
        spec = SyntheticTaskSpec(kind=kind, num_classes=2, image_size=16, train_count=4,
                                 val_count=2, test_count=2)
        splits = generate_synthetic(spec, SeededRng(0, "data"))
        bundle = build_bundle(TINY, seed=0, head_spec=head, peft_spec=AdapterSpec(2))
        monkeypatch.setattr(pipeline, "batch_images",
                            lambda *args: pytest.fail("a training step started"))
        with pytest.raises(error, match=match):
            run_stage(_quick_plan(Stage.FINETUNE, objective, steps=1), bundle, splits,
                      SeededRng(0, "stage/ft"))


class TestOneDrawPerStep:
    """`run_stage` draws each step's rows once and hands the objective those rows."""

    def _record(self, monkeypatch):
        # ("draw" | "view", rows, keys, policy, rng path, result), or ("step", rows, indices)
        calls = []
        real_draw = pretext.batch_images

        def spy(kind):
            def batch_images(rows, keys, policy, rng):
                out = real_draw(rows, keys, policy, rng)
                calls.append((kind, rows, list(keys), policy, rng.path, out))
                return out
            return batch_images

        monkeypatch.setattr(pipeline, "batch_images", spy("draw"))
        monkeypatch.setattr(pretext, "batch_images", spy("view"))
        for cls in (MaskedReconstruction, SelfDistillation, pipeline.Supervised):
            def step_loss(objective, rows, indices, rng, epoch, real=cls.step_loss):
                calls.append(("step", rows, list(indices)))
                return real(objective, rows, indices, rng, epoch)
            monkeypatch.setattr(cls, "step_loss", step_loss)
        return calls

    @pytest.mark.parametrize("objective, head, policy", [
        (Objective.MAE, None, "finetune_light"),
        (Objective.CE, ClassificationSpec(2), "none"),
        (Objective.DINO, None, "none"),
    ], ids=["mae", "ce", "dino"])
    def test_each_step_draws_once_under_the_plans_policy(self, objective, head, policy,
                                                         monkeypatch):
        calls = self._record(monkeypatch)
        splits = _splits()  # 16 train samples: 2 steps an epoch at batch 8
        stage = Stage.FINETUNE if head else Stage.TPP
        plan = _quick_plan(stage, objective, steps=3, augment_policy=policy)
        bundle = build_bundle(TINY, seed=0, head_spec=head, peft_spec=AdapterSpec(2))
        run_stage(plan, bundle, splits, SeededRng(0, "stage/x"))

        dino = objective is Objective.DINO
        per_step = 6 if dino else 2  # draw, step_loss, and each DINO view's draw
        assert len(calls) == 3 * per_step
        epoch_keys = {0: [], 1: []}
        for step in range(3):
            draw, loss, *views = calls[step * per_step:(step + 1) * per_step]
            epoch = step // 2
            kind, rows, keys, drawn_policy, path, out = draw
            assert (kind, drawn_policy, path) == ("draw", policy, f"stage/x/augment/epoch{epoch}")
            assert rows.tobytes() == splits.train.images[keys].tobytes()
            assert loss[0] == "step" and loss[1] is out and loss[2] == keys
            epoch_keys[epoch] += keys
            assert [v[0] for v in views] == ["view"] * len(views)
            for v, (_, view_rows, view_keys, view_policy, view_path, _) in enumerate(views):
                assert view_rows is out and view_keys == keys
                assert view_policy == ("dino_global" if v < 2 else "dino_local")
                assert view_path == f"stage/x/dino/epoch{epoch}/view{v}"
        assert sorted(epoch_keys[0]) == list(range(16)) and len(epoch_keys[1]) == 8


class TestLogs:
    def test_per_step_records_have_required_fields(self):
        splits = _splits()
        bundle = build_bundle(TINY, seed=4, peft_spec=AdapterSpec(2))
        plan = _quick_plan(Stage.TPP, Objective.MAE, steps=4)
        _, log = run_stage(plan, bundle, splits, SeededRng(4, "stage/tpp"))
        steps = [r for r in log.records if "loss" in r]
        assert len(steps) == 4
        for r in steps:
            assert set(r) == {"stage", "step", "epoch", "lr", "wd", "loss"}

    def test_jsonl_roundtrip(self, tmp_path):
        splits = _splits()
        bundle = build_bundle(TINY, seed=4, peft_spec=AdapterSpec(2))
        plan = _quick_plan(Stage.TPP, Objective.MAE, steps=3)
        _, log = run_stage(plan, bundle, splits, SeededRng(4, "stage/tpp"))
        path = str(tmp_path / "log.jsonl")
        log.write_jsonl(path)
        from tpp.pipeline import MetricLog
        back = MetricLog.read_jsonl(path)
        assert back.records == log.records

    @pytest.mark.parametrize("steps, evals", [(4, 2), (5, 3), (1, 1)])
    def test_finetune_emits_val_metrics_each_epoch(self, steps, evals):
        splits = _splits(train=16)
        bundle = build_bundle(TINY, seed=5, head_spec=ClassificationSpec(2),
                              peft_spec=AdapterSpec(2))
        # 2 steps per epoch; a budget of 5 or 1 ends inside an epoch
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=steps, batch=8)
        _, log = run_stage(plan, bundle, splits, SeededRng(5, "stage/ft"))
        vals = [r for r in log.records if r.get("split") == "val" and r["metric"] == "acc"]
        assert len(vals) == evals
        # each val block directly follows the step that ends its epoch or the budget
        seen = []
        for r in log.records[1:]:  # after the config record
            tag = "val" if r.get("split") == "val" else r["step"]
            if not seen or seen[-1] != tag:
                seen.append(tag)
        expected = []
        for step in range(steps):
            expected += [step, "val"] if step % 2 == 1 or step == steps - 1 else [step]
        assert seen == expected

    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_empty_val_split_is_rejected_before_the_first_step(self, task, monkeypatch):
        seg = task == "segmentation"
        spec = SyntheticTaskSpec(kind="blob_seg" if seg else "textured_shapes_cls",
                                 num_classes=2, image_size=16, train_count=8,
                                 val_count=0, test_count=4)
        splits = generate_synthetic(spec, SeededRng(0, "data"))
        head = SegmentationSpec(2) if seg else ClassificationSpec(2)
        bundle = build_bundle(TINY, seed=5, head_spec=head, peft_spec=AdapterSpec(2))
        plan = _quick_plan(Stage.FINETUNE, Objective.DICE_CE if seg else Objective.CE,
                           steps=2)
        monkeypatch.setattr(pipeline.T, "backward",
                            lambda loss: pytest.fail("trained with an empty val split"))
        with pytest.raises(ArgumentError, match="val split is empty"):
            run_stage(plan, bundle, splits, SeededRng(5, "stage/ft"))


class TestInitModes:
    def test_random_reinit_restores_identity_at_init(self):
        splits = _splits()
        bundle = build_bundle(TINY, seed=6, head_spec=ClassificationSpec(2),
                              peft_spec=AdapterSpec(4))
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=6)
        run_stage(plan, bundle, splits, SeededRng(6, "stage/ft"))
        up = bundle.registry.get("adapter.blocks.0.up.weight")
        assert not np.array_equal(up.data, np.zeros_like(up.data))
        # a zero-lr stage with an init re-draws the adapters and leaves them there
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=1, lr=0.0,
                           init=InitSpec("random"))
        run_stage(plan, bundle, splits, SeededRng(6, "stage/ft2"))
        assert np.array_equal(up.data, np.zeros_like(up.data))

    def test_dino_teacher_starts_from_the_redrawn_target_params(self, monkeypatch):
        differing = []
        real_forward = SelfDistillation.teacher_forward

        def spy(dino, images):
            if not differing:  # the first teacher forward, before any update
                differing.append(sorted(
                    n for n, t in dino.teacher.items()
                    if t.tobytes() != dino.model.registry.get(n).data.tobytes()))
            return real_forward(dino, images)

        monkeypatch.setattr(SelfDistillation, "teacher_forward", spy)
        bundle = build_bundle(TINY, seed=0, peft_spec=LoraSpec(rank=2))
        plan = _quick_plan(Stage.TPP, Objective.DINO, steps=1, init=InitSpec("random"))
        run_stage(plan, bundle, _splits(), SeededRng(0, "stage/tpp"))
        assert differing == [[]]

    def test_a_later_dino_stage_on_the_bundle_takes_a_new_teacher(self, monkeypatch):
        bundle = build_bundle(TINY, seed=0, peft_spec=LoraSpec(rank=2))
        plan = _quick_plan(Stage.TPP, Objective.DINO, steps=2)
        run_stage(plan, bundle, _splits(), SeededRng(0, "stage/tpp"))
        dino = bundle.pretext[Objective.DINO]
        differing = []
        real_forward = SelfDistillation.teacher_forward

        def spy(dino, images):
            if not differing:  # the second stage's first teacher forward
                differing.append(sorted(
                    n for n, t in dino.teacher.items()
                    if t.tobytes() != dino.model.registry.get(n).data.tobytes()))
            return real_forward(dino, images)

        monkeypatch.setattr(SelfDistillation, "teacher_forward", spy)
        run_stage(plan, bundle, _splits(), SeededRng(1, "stage/tpp"))
        assert bundle.pretext == {Objective.DINO: dino}  # built once per bundle
        assert differing == [[]]

    def test_one_dino_step_runs_the_teacher_once_under_one_swap(self, monkeypatch):
        calls = []
        real_forward, real_swap = SelfDistillation.teacher_forward, ParamRegistry.swap
        monkeypatch.setattr(SelfDistillation, "teacher_forward", lambda dino, images:
                            calls.append("teacher_forward") or real_forward(dino, images))
        monkeypatch.setattr(ParamRegistry, "swap", lambda registry, values:
                            calls.append("swap") or real_swap(registry, values))
        bundle = build_bundle(TINY, seed=0, peft_spec=LoraSpec(rank=2))
        plan = _quick_plan(Stage.TPP, Objective.DINO, steps=1)
        run_stage(plan, bundle, _splits(), SeededRng(0, "stage/tpp"))
        assert calls == ["teacher_forward", "swap"]

    @pytest.mark.parametrize("mode", ["transfer", "upstream", "bogus", "from_checkpoint"])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ArgumentError):
            InitSpec(mode)

    def test_cross_dataset_target_load(self, tmp_path):
        # pre-train target params on task A, load into a run on task B
        splits_a = _splits(seed=10)
        bundle_a = build_bundle(TINY, seed=7, peft_spec=AdapterSpec(4))
        plan = _quick_plan(Stage.TPP, Objective.MAE, steps=6)
        stage_ckpt, _ = run_stage(plan, bundle_a, splits_a, SeededRng(7, "stage/tpp"))
        path = str(tmp_path / "target.tppc")
        target_checkpoint(stage_ckpt, AdapterSpec(4)).save(path)

        bundle_b = build_bundle(TINY, seed=8, head_spec=ClassificationSpec(2),
                                peft_spec=AdapterSpec(4))
        backbone_before = {p.name: p.data.copy()
                           for p in bundle_b.registry.params(group=ParamGroup.BACKBONE)}
        loaded = Checkpoint.load(path)
        loaded.apply_to_registry(bundle_b.registry, groups={ParamGroup.TARGET})
        for name, entry in loaded.entries.items():
            assert np.array_equal(bundle_b.registry.get(name).data, entry.data)
        for name, data in backbone_before.items():
            assert np.array_equal(bundle_b.registry.get(name).data, data)

    def test_mismatched_bottleneck_is_structural_error(self, tmp_path):
        bundle_a = build_bundle(TINY, seed=9, peft_spec=AdapterSpec(4))
        ckpt = Checkpoint.from_registry(bundle_a.registry, stage="tpp")
        path = str(tmp_path / "t.tppc")
        target_checkpoint(ckpt, AdapterSpec(4)).save(path)
        bundle_b = build_bundle(TINY, seed=9, peft_spec=AdapterSpec(8))
        with pytest.raises(StructuralError) as exc:
            Checkpoint.load(path).apply_to_registry(bundle_b.registry,
                                                    groups={ParamGroup.TARGET})
        assert "adapter.blocks.0" in str(exc.value)

    def test_mismatched_mechanism_is_structural_error(self, tmp_path):
        bundle_a = build_bundle(TINY, seed=9, peft_spec=AdapterSpec(4))
        ckpt = Checkpoint.from_registry(bundle_a.registry, stage="tpp")
        path = str(tmp_path / "t.tppc")
        target_checkpoint(ckpt, AdapterSpec(4)).save(path)
        bundle_b = build_bundle(TINY, seed=9, peft_spec=LoraSpec(rank=2))
        with pytest.raises(StructuralError):
            Checkpoint.load(path).apply_to_registry(bundle_b.registry,
                                                    groups={ParamGroup.TARGET})


def _pretrained_backbone(seed):
    """A backbone snapshot whose values differ from any seed's fresh init."""
    src = build_bundle(TINY, seed=seed)
    rng = SeededRng(seed, "test/perturb")
    for p in src.registry.params(group=ParamGroup.BACKBONE):
        p.data = p.data + rng.normal(p.data.shape, std=0.1)
    return Checkpoint.from_registry(src.registry, stage="backbone_pretrain")


class TestBuildWithBackbone:
    def test_bitfit_biases_start_from_checkpoint_as_target(self):
        ckpt = _pretrained_backbone(40)
        bundle = build_bundle(TINY, seed=41, head_spec=ClassificationSpec(2),
                              peft_spec=BitFitSpec(), backbone=ckpt)
        biases = {n for n in ckpt.hashes(ParamGroup.BACKBONE) if n.endswith(".bias")}
        assert biases
        assert {p.name for p in bundle.registry.params(group=ParamGroup.TARGET)} == biases
        for name, entry in ckpt.entries.items():
            p = bundle.registry.get(name)
            assert np.array_equal(p.data, entry.data)
            assert p.group is (ParamGroup.TARGET if name in biases else ParamGroup.BACKBONE)
        # a random re-draw of BitFit keeps the pre-trained biases
        reinit_target_params(bundle.backbone, SeededRng(41, "init/peft"))
        for name in biases:
            assert np.array_equal(bundle.registry.get(name).data, ckpt.entries[name].data)

    def test_backbone_does_not_change_peft_or_head_init(self):
        ckpt = _pretrained_backbone(42)
        kwargs = dict(head_spec=ClassificationSpec(2), peft_spec=AdapterSpec(4))
        plain = build_bundle(TINY, seed=43, **kwargs)
        loaded = build_bundle(TINY, seed=43, backbone=ckpt, **kwargs)
        loaded_ckpt = Checkpoint.from_registry(loaded.registry, "x")
        plain_ckpt = Checkpoint.from_registry(plain.registry, "x")
        for group in (ParamGroup.TARGET, ParamGroup.HEAD):
            assert loaded_ckpt.hashes(group) == plain_ckpt.hashes(group)
        assert loaded_ckpt.hashes(ParamGroup.BACKBONE) == ckpt.hashes(ParamGroup.BACKBONE)

    def test_incomplete_backbone_is_structural_error(self):
        ckpt = _pretrained_backbone(44)
        del ckpt.entries["backbone.blocks.1.attn.k.bias"]
        with pytest.raises(StructuralError) as exc:
            build_bundle(TINY, seed=45, peft_spec=BitFitSpec(), backbone=ckpt)
        assert "backbone.blocks.1.attn.k.bias: missing from checkpoint" in str(exc.value)


class TestDeterminism:
    def test_identical_seed_reproduces_checkpoint_hashes_and_logs(self):
        def one_run():
            splits = _splits(seed=20)
            bundle = build_bundle(TINY, seed=21, head_spec=ClassificationSpec(2),
                                  peft_spec=AdapterSpec(4))
            plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=6)
            ckpt, log = run_stage(plan, bundle, splits, SeededRng(22, "stage/ft"))
            return ckpt, log

        c1, l1 = one_run()
        c2, l2 = one_run()
        assert c1.hashes() == c2.hashes()
        assert l1.records == l2.records

    def test_different_seed_changes_results(self):
        splits = _splits(seed=20)
        bundle1 = build_bundle(TINY, seed=21, peft_spec=AdapterSpec(4))
        plan = _quick_plan(Stage.TPP, Objective.MAE, steps=4)
        c1, _ = run_stage(plan, bundle1, splits, SeededRng(1, "stage/tpp"))
        bundle2 = build_bundle(TINY, seed=21, peft_spec=AdapterSpec(4))
        c2, _ = run_stage(plan, bundle2, splits, SeededRng(2, "stage/tpp"))
        assert c1.hashes(ParamGroup.TARGET) != c2.hashes(ParamGroup.TARGET)


class TestThreeStageComposition:
    def test_finetune_from_tpp_checkpoint_touches_only_target(self, tmp_path):
        splits = _splits(seed=30)
        # S1: quick MAE pretrain of everything
        s1 = build_bundle(TINY, seed=31)
        plan1 = _quick_plan(Stage.BACKBONE_PRETRAIN, Objective.MAE, steps=6)
        ckpt1, _ = run_stage(plan1, s1, splits, SeededRng(31, "stage/pretrain"))

        # S2: TPP with adapter on the frozen backbone
        s2 = build_bundle(TINY, seed=32, peft_spec=AdapterSpec(4))
        ckpt1.apply_to_registry(s2.registry, groups={ParamGroup.BACKBONE})
        plan2 = _quick_plan(Stage.TPP, Objective.MAE, steps=6)
        ckpt2, _ = run_stage(plan2, s2, splits, SeededRng(32, "stage/tpp"))
        target_path = str(tmp_path / "target.tppc")
        target_checkpoint(ckpt2, AdapterSpec(4)).save(target_path)

        # S3: fine-tune consuming the TPP target params
        s3 = build_bundle(TINY, seed=33, head_spec=ClassificationSpec(2),
                          peft_spec=AdapterSpec(4))
        ckpt1.apply_to_registry(s3.registry, groups={ParamGroup.BACKBONE})
        head_hashes = Checkpoint.from_registry(s3.registry, stage="pre").hashes(ParamGroup.HEAD)
        Checkpoint.load(target_path).apply_to_registry(s3.registry, groups={ParamGroup.TARGET})
        # the loading itself left the head untouched (it trains only in S3)
        post_load = Checkpoint.from_registry(s3.registry, stage="post")
        assert post_load.hashes(ParamGroup.HEAD) == head_hashes
        plan3 = _quick_plan(Stage.FINETUNE, Objective.CE, steps=6)
        ckpt3, _ = run_stage(plan3, s3, splits, SeededRng(33, "stage/ft"))

        # backbone hashes across all three stages match the S1 output
        assert ckpt3.hashes(ParamGroup.BACKBONE) == \
            {n: e.content_hash for n, e in ckpt1.entries.items()
             if e.group is ParamGroup.BACKBONE}


class TestGridSearch:
    def _make_factory(self, splits):
        def factory():
            return build_bundle(TINY, seed=40, head_spec=ClassificationSpec(2),
                                peft_spec=AdapterSpec(2))
        return factory

    def test_single_value_grid_selects_it(self):
        splits = _splits(seed=41)
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=4)
        _, rows = grid_search(plan, [3e-3], self._make_factory(splits), splits,
                              seed=42, primary_metric="acc")
        assert rows[0]["lr"] == 3e-3
        assert len(rows) == 1 and rows[0]["status"] == "ok"

    def test_diverged_run_ranks_last_without_crashing(self):
        splits = _splits(seed=43)
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=10, wd=1.0)
        _, rows = grid_search(plan, [1e-3, 1e200], self._make_factory(splits), splits,
                              seed=44, primary_metric="acc")
        assert rows[0]["lr"] == 1e-3
        assert rows[-1]["score"] is None
        assert rows[-1]["status"].startswith("diverged")

    def test_selected_lr_score_reproduces_on_rerun(self):
        splits = _splits(seed=45)
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=6)
        factory = self._make_factory(splits)
        (bundle, ckpt, log), rows = grid_search(plan, [1e-3, 3e-3], factory, splits,
                                                seed=46, primary_metric="acc")
        fresh = factory()
        best = replace(plan, schedule=replace(plan.schedule, base_lr=rows[0]["lr"]))
        fresh_ckpt, fresh_log = run_stage(best, fresh, splits, SeededRng(46, "stage/finetune"))
        assert ckpt.hashes() == fresh_ckpt.hashes()
        assert Checkpoint.from_registry(bundle.registry, stage="x").hashes() == \
            fresh_ckpt.hashes()
        assert log.records == fresh_log.records
        again = evaluate(fresh, splits.val, best.batch_size)["acc"]
        assert again == rows[0]["score"]

    def test_empty_grid_rejected(self):
        splits = _splits(seed=47)
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=2)
        with pytest.raises(ArgumentError):
            grid_search(plan, [], self._make_factory(splits), splits, seed=48)

    def test_plan_without_val_scores_rejected(self):
        for objective in (Objective.MAE, Objective.DINO):  # pretext objectives never evaluate
            plan = _quick_plan(Stage.TPP, objective, steps=2)
            with pytest.raises(ArgumentError, match="evaluate each epoch"):
                grid_search(plan, [1e-3], self._make_factory(None), _splits(seed=49), seed=49)

    def test_strictly_better_run_wins_and_ties_keep_the_earlier_lr(self, monkeypatch):
        scores = {1e-1: 50.0, 1e-2: 70.0, 1e-3: 70.0, 1e-4: 60.0}
        runs = {}

        def scripted_run_stage(plan, bundle, data, rng):
            assert rng.path == "stage/finetune"
            log = pipeline.MetricLog()
            log.log(split="val", metric="acc", value=0.0)  # an earlier epoch
            log.log(split="val", metric="acc", value=scores[plan.schedule.base_lr])
            runs[plan.schedule.base_lr] = (bundle, object(), log)
            return runs[plan.schedule.base_lr][1:]

        monkeypatch.setattr(pipeline, "run_stage", scripted_run_stage)
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=2)
        best, rows = grid_search(plan, list(scores), object, None, seed=0)
        assert best == runs[1e-2]
        assert [r["lr"] for r in rows] == [1e-2, 1e-3, 1e-4, 1e-1]

    def test_all_diverged_reraises_the_first_runs_own_error(self):
        splits = _splits(seed=50)
        plan = _quick_plan(Stage.FINETUNE, Objective.CE, steps=10, wd=1.0, lr=1e200)
        factory = self._make_factory(splits)
        with pytest.raises(TrainingDiverged) as alone:
            run_stage(plan, factory(), splits, SeededRng(51, "stage/finetune"))
        with pytest.raises(TrainingDiverged) as grid:
            grid_search(plan, [1e200, 1e199], factory, splits, seed=51)
        assert str(grid.value) == str(alone.value)
        assert grid.value.loss_history  # it diverged after a logged step


class TestTapeLifetime:
    def test_tape_is_freed_when_a_step_raises(self):
        spec = SyntheticTaskSpec(kind="blob_seg", image_size=16, train_count=4,
                                 val_count=2, test_count=2)
        train = generate_synthetic(spec, SeededRng(0, "data")).train
        train.masks[0, 0, 0] = 2  # no logit for class 2: fails after the forward
        bundle = build_bundle(TINY, seed=0, head_spec=SegmentationSpec(2),
                              peft_spec=AdapterSpec(4))
        plan = _quick_plan(Stage.FINETUNE, Objective.DICE_CE, steps=1, batch=4)
        with pytest.raises(IndexError):
            run_stage(plan, bundle, train, SeededRng(0, "stage/ft"))
        assert len(T.tape()) == 0

