"""Config parsing and the command-line surface (exit codes, idempotence)."""

import json

import numpy as np
import pytest

import tpp.cli as cli
import tpp.config as config
import tpp.pipeline as pipeline
from tpp.checkpoint import Checkpoint, array_hash
from tpp.cli import main
from tpp.config import SCHEMA, ExperimentConfig, check
from tpp.data import SyntheticTaskSpec, generate_synthetic
from tpp.errors import ConfigError
from tpp.optim import AdamWSpec
from tpp.peft import MECHANISMS, AdapterSpec, LoraSpec, mechanism_name
from tpp.pipeline import Objective, Stage
from tpp.pretext import DinoConfig, MaeConfig
from tpp.registry import ParamGroup
from tpp.rng import SeededRng
from tpp.vit import ViTConfig

from _fixtures import write_pnm, write_tppt


BASE_CFG = """
[model]
image_size = 16
patch_size = 4
embed_dim = 16
depth = 2
num_heads = 2

[peft]
method = adapter
bottleneck = 4

[data]
kind = synthetic_cls
num_classes = 2
train_count = 16
val_count = 8
test_count = 8

[stage]
iterations = 6
batch_size = 8
lr = 0.001
warmup_epochs = 0
weight_decay = 0.0
"""


class TestConfigParsing:
    def test_defaults_are_complete(self):
        cfg = ExperimentConfig()
        assert cfg.get("model", "embed_dim") == 64
        assert cfg.get("pretext", "mask_ratio") == 0.75
        assert cfg.get("peft", "method") == "adapter"

    def test_file_values_override_defaults(self):
        cfg = ExperimentConfig.parse(BASE_CFG)
        assert cfg.get("model", "embed_dim") == 16
        assert cfg.get("stage", "iterations") == 6

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[model]\nembed_dims = 64\n")

    def test_unknown_section_is_hard_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[modell]\nembed_dim = 64\n")

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[model]\nembed_dim = sixty-four\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = ExperimentConfig.parse("# top\n[model]\n# note\nembed_dim = 8  # inline\n\n")
        assert cfg.get("model", "embed_dim") == 8

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("embed_dim = 8\n")

    def test_effective_snapshot_is_flat_and_covers_everything(self):
        cfg = ExperimentConfig.parse(BASE_CFG)
        flat = cfg.effective()
        assert flat["model.embed_dim"] == 16
        assert flat["pretext.teacher_temp"] == 0.04
        assert all("." in k for k in flat)

    def test_peft_spec_builders(self):
        cfg = ExperimentConfig.parse(BASE_CFG)
        assert cfg.peft_spec() == AdapterSpec(bottleneck=4)
        assert cfg.peft_spec("lora") == LoraSpec(rank=4, alpha=4.0,
                                                 targets=("query", "value"))
        assert cfg.peft_spec("none") is None

    def test_an_empty_config_gives_the_dataclass_defaults(self):
        cfg = ExperimentConfig.parse("")
        assert cfg.vit_config() == ViTConfig()
        assert cfg.mae_config() == MaeConfig()
        assert cfg.dino_config() == DinoConfig()
        for method, spec in MECHANISMS.items():
            assert cfg.peft_spec(method) == spec() and mechanism_name(spec()) == method
        assert SCHEMA["peft"]["method"][2] == (*MECHANISMS, "none")
        for stage, objective in ((Stage.BACKBONE_PRETRAIN, Objective.MAE),
                                 (Stage.TPP, Objective.DINO), (Stage.FINETUNE, Objective.CE)):
            plan = cli._stage_plan(cfg, stage, objective, "classification")
            assert plan.optimizer == AdamWSpec()
        for kind, spec_kind in (("synthetic_cls", "textured_shapes_cls"),
                                ("synthetic_seg", "blob_seg")):
            got = ExperimentConfig.parse(f"[data]\nkind = {kind}\n").load_data(seed=7)
            want = generate_synthetic(
                SyntheticTaskSpec(kind=spec_kind, image_size=ViTConfig.image_size),
                SeededRng(7, "data"))
            targets = "masks" if kind == "synthetic_seg" else "labels"
            for a, b in zip((got.train, got.val, got.test), (want.train, want.val, want.test)):
                assert (a.ids, a.class_names) == (b.ids, b.class_names)
                assert a.images.tobytes() == b.images.tobytes()
                assert getattr(a, targets).tobytes() == getattr(b, targets).tobytes()

    def test_a_key_set_twice_is_an_error_naming_both_lines(self):
        with pytest.raises(ConfigError,
                           match=r"^\[model\] depth is set twice, on lines 2 and 5$"):
            ExperimentConfig.parse("[model]\ndepth = 2\n[peft]\n[model]\ndepth = 2\n")
        # the same key in two sections is two keys
        cfg = ExperimentConfig.parse("[stage]\nbatch_size = 4\n[eval]\nbatch_size = 5\n")
        assert (cfg.get("stage", "batch_size"), cfg.get("eval", "batch_size")) == (4, 5)

    @pytest.mark.parametrize("word, value", [("yes", True), ("on", True), ("TRUE", True),
                                             ("no", False), ("off", False), ("0", False)])
    def test_each_bool_word_reaches_mae_config(self, word, value):
        cfg = ExperimentConfig.parse(f"[pretext]\nnorm_pix_targets = {word}\n")
        assert cfg.mae_config() == MaeConfig(norm_pix_targets=value)

    def test_every_schema_default_lies_in_its_domain(self):
        undomained = []
        for section, keys in SCHEMA.items():
            for key, entry in keys.items():
                assert len(entry) == 3, (section, key)
                default, _, domain = entry
                if domain is None:
                    undomained.append((section, key))
                check(section, key, default)
        assert undomained == [("data", "path")]

    def test_closed_domain_bounds_are_legal(self):
        cfg = ExperimentConfig.parse("[pretext]\nteacher_momentum = 0\nnum_global_views = 2\n"
                                     "[data]\nannotation_ratio = 1\ntrain_count = 0\n"
                                     "[peft]\nlora_targets = value\n")
        assert cfg.get("pretext", "teacher_momentum") == 0.0
        assert cfg.get("data", "annotation_ratio") == 1.0
        assert cfg.get("peft", "lora_targets") == "value"

    def test_vit_config_roundtrip(self):
        cfg = ExperimentConfig.parse(BASE_CFG)
        vit = cfg.vit_config()
        assert vit.embed_dim == 16 and vit.depth == 2


# case -> (exit code, stderr fragment)
MALFORMED_INPUTS = {
    "grid_token": (1, "--grid 0.001,abc: could not convert string to float: 'abc'"),
    "primary_of_other_task": (
        1, "[eval] primary = 'dice' is not a classification metric ('acc', 'auc', 'f1')"),
    "unknown_primary": (1, "[eval] primary must be one of ('acc', 'auc', 'f1', 'dice', 'hd95'), "
                           "got 'bogus'"),
    "eval_batch_zero": (1, "[eval] batch_size must be >= 1"),
    "ce_on_segmentation": (1, "unknown key 'loss' in section [stage]"),
    "report_not_json": (2, "log.jsonl line 2: Expecting property name"),
    "report_not_object": (2, "log.jsonl line 2: expected a JSON object, got list"),
    "report_not_utf8": (2, "log.jsonl line 2: 'utf-8' codec can't decode"),
    "report_run_info_without_seed": (
        2, "log.jsonl: record {'event': 'run_info', 'label': 'x'} has no 'seed' field"),
    "report_test_without_metric": (
        2, "log.jsonl: record {'split': 'test', 'value': 1.0} has no 'metric' field"),
    "report_test_value_not_a_number": (2, "'value': 'high'} has a str 'value'"),
    "grid_negative_lr": (1, "--grid -0.5,0.001: [stage] lr must be > 0, got -0.5"),
    "grid_nan_lr": (1, "--grid 0.001,nan: [stage] lr must be finite and > 0, got nan"),
    "grid_inf_lr": (1, "--grid inf: [stage] lr must be finite and > 0, got inf"),
    "stage_lr_negative": (1, "[stage] lr must be > 0, got -0.001"),
    "stage_lr_zero_in_tpp": (1, "[stage] lr must be > 0, got 0.0"),
    "stage_lr_nan_in_pretrain": (1, "[stage] lr must be finite and > 0, got nan"),
    "val_split_empty": (1, "the val split is empty"),
    "test_split_empty": (1, "the test split is empty"),
    # one class in an evaluated split: AUC would fail only after training
    "val_split_one_class": (1, "the val split holds labels [0] only; AUC needs at least 2"),
    "test_split_one_class": (1, "the test split holds labels [0] only; AUC needs at least 2"),
    "data_num_classes_one": (1, "the val split holds labels [0] only"),
    "train_split_empty_in_pretrain": (1, "the train split is empty"),
    "train_split_empty_in_tpp": (1, "the train split is empty"),
    "stage_batch_zero": (1, "[stage] batch_size must be >= 1, got 0"),
    "stage_epochs_zero_in_pretrain": (1, "[stage] epochs must be >= 1, got 0"),
    "stage_iterations_negative_in_tpp": (1, "[stage] iterations must be >= 1, got -1"),
    "folder_class_mismatch": (
        1, "the val split has classes ['a', 'c'], but train has ['a', 'b', 'c']"),
    "data_num_classes_zero": (1, "num_classes must be >= 1, got 0"),
    "data_num_classes_negative": (1, "num_classes must be >= 1, got -1"),
    "model_image_size_zero": (1, "image_size must be >= 1, got 0"),
    "model_mlp_width_zero_in_pretrain": (1, "embed_dim * mlp_ratio must be >= 1, got 16 * 0.01"),
    "dino_head_output_dim_zero_in_tpp": (1, "head_output_dim must be >= 1, got 0"),
    "stage_warmup_negative": (1, "[stage] warmup_epochs must be >= 0, got -5.0"),
    "lora_targets_empty_in_tpp": (
        1, "[peft] lora_targets must be a non-empty comma-separated list of ('query', 'value'), "
           "got ','"),
    "lora_targets_empty_decoder_update_in_tpp": (1, "[peft] lora_targets must be a non-empty"),
    "lora_targets_repeated_in_tpp": (
        1, "[peft] lora_targets must name each item once, got 'query,query' "
           "(repeated: ['query'])"),
    "adaptformer_scale_nan_in_tpp": (1, "[peft] scale must be finite, got nan"),
    "peft_flag_unknown": (1, "--peft: [peft] method must be one of ('adapter', "),
    # decoder_dim = 0 resolves to embed_dim // 2, which is 0 at embed_dim = 1
    "mae_decoder_zero_wide_in_pretrain": (
        1, "[pretext] decoder_dim = 0 makes the MAE decoder [model] embed_dim // 2 = 0 wide"),
    "mae_decoder_zero_wide_in_tpp": (
        1, "[pretext] decoder_dim = 0 makes the MAE decoder [model] embed_dim // 2 = 0 wide"),
}

# a model one channel wide, and its MAE decoder with it
EMBED_DIM_ONE_CFG = BASE_CFG.replace("embed_dim = 16", "embed_dim = 1").replace(
    "num_heads = 2", "num_heads = 1")


# every numeric key -> one value just outside its domain
OUTSIDE_DOMAIN = {
    ("model", "image_size"): "0", ("model", "patch_size"): "0", ("model", "embed_dim"): "0",
    ("model", "depth"): "0", ("model", "num_heads"): "0", ("model", "mlp_ratio"): "0",
    ("model", "num_channels"): "0",
    ("peft", "bottleneck"): "0", ("peft", "scale"): "nan", ("peft", "num_tokens"): "0",
    ("peft", "rank"): "0", ("peft", "alpha"): "inf",
    ("pretext", "mask_ratio"): "1", ("pretext", "decoder_dim"): "-1",
    ("pretext", "decoder_depth"): "-1", ("pretext", "teacher_momentum"): "1",
    ("pretext", "center_momentum"): "-1e-9", ("pretext", "teacher_temp"): "0",
    ("pretext", "student_temp"): "0", ("pretext", "head_output_dim"): "0",
    ("pretext", "num_global_views"): "1", ("pretext", "num_local_views"): "-1",
    ("stage", "lr"): "0", ("stage", "batch_size"): "0", ("stage", "epochs"): "0",
    ("stage", "iterations"): "0", ("stage", "warmup_epochs"): "-1e-9",
    ("stage", "weight_decay"): "-1e-9", ("stage", "wd_end"): "-1e-9", ("stage", "beta1"): "1",
    ("stage", "beta2"): "1", ("stage", "eps"): "0",
    ("data", "num_classes"): "0", ("data", "noise"): "-1e-9", ("data", "separation"): "nan",
    ("data", "train_count"): "-1", ("data", "val_count"): "-1", ("data", "test_count"): "-1",
    ("data", "annotation_ratio"): "0",
    ("eval", "batch_size"): "0",
}
CHOICE_KEYS = [(section, key) for section, keys in SCHEMA.items()
               for key, (_, _, domain) in keys.items() if isinstance(domain, tuple)]


def test_the_outside_values_cover_every_numeric_key():
    numeric = {(section, key) for section, keys in SCHEMA.items()
               for key, (_, _, domain) in keys.items() if isinstance(domain, str)}
    assert set(OUTSIDE_DOMAIN) == numeric and len(numeric) == 40


@pytest.mark.parametrize("section, key, value",
                         [(*k, v) for k, v in OUTSIDE_DOMAIN.items()]
                         + [(*k, "bogus") for k in CHOICE_KEYS])
def test_a_value_outside_its_domain_exits_1_before_any_work(tmp_path, capsys, monkeypatch,
                                                            section, key, value):
    fail = lambda *a, **k: pytest.fail("did work on a malformed config")  # noqa: E731
    monkeypatch.setattr(pipeline, "run_stage", fail)
    monkeypatch.setattr(cli, "run_stage", fail)
    monkeypatch.setattr(cli, "build_bundle", fail)
    monkeypatch.setattr(ExperimentConfig, "load_data", fail)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE_CFG + f"\n[{section}]\n{key} = {value}\n")
    assert main(["pretrain-backbone", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [{section}] {key}") and "Traceback" not in err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One shared S1 checkpoint for the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "exp.cfg"
    cfg_path.write_text(BASE_CFG)
    code = main(["pretrain-backbone", "--config", str(cfg_path), "--seed", "3",
                 "--out", str(root / "s1")])
    assert code == 0
    return {"root": root, "cfg": str(cfg_path),
            "backbone": str(root / "s1" / "backbone.tppc")}


class TestCli:
    def test_pretrain_writes_loadable_checkpoint(self, workspace):
        ckpt = Checkpoint.load(workspace["backbone"])
        assert ckpt.meta["stage"] == "backbone_pretrain"
        assert any(name.startswith("pretext.mae.") for name in ckpt.entries)
        assert any(name.startswith("backbone.") for name in ckpt.entries)

    def test_tpp_writes_target_only_checkpoint_and_passes_audit(self, workspace, capsys):
        out = workspace["root"] / "s2"
        code = main(["tpp", "--config", workspace["cfg"], "--seed", "3",
                     "--backbone", workspace["backbone"], "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "trainable ratio:" in captured
        assert "PASS" in captured
        target = Checkpoint.load(str(out / "target.tppc"))
        assert target.entries
        assert all(e.group is ParamGroup.TARGET for e in target.entries.values())
        assert all(not n.startswith("pretext.") for n in target.entries)
        assert all(n.startswith("adapter.") for n in target.entries)

    def test_tpp_takes_one_snapshot(self, workspace, tmp_path, capsys, monkeypatch):
        stages = []
        real_from_registry = Checkpoint.from_registry.__func__

        def counting_from_registry(cls, registry, *args, **kwargs):
            stages.append(kwargs.get("stage"))
            return real_from_registry(cls, registry, *args, **kwargs)

        monkeypatch.setattr(Checkpoint, "from_registry", classmethod(counting_from_registry))
        assert main(["tpp", "--config", workspace["cfg"], "--seed", "3",
                     "--backbone", workspace["backbone"], "--out", str(tmp_path)]) == 0
        assert "backbone freeze audit: PASS" in capsys.readouterr().out
        assert stages == ["tpp"]

    @pytest.mark.parametrize("mode, frozen", [
        ("freeze", {ParamGroup.BACKBONE, ParamGroup.HEAD}),
        ("update", {ParamGroup.BACKBONE}),
        ("random", {ParamGroup.BACKBONE}),
    ])
    def test_decoder_mode_sets_the_frozen_groups(self, workspace, tmp_path, capsys,
                                                 monkeypatch, mode, frozen):
        plans = []
        real_run_stage = cli.run_stage

        def spying_run_stage(plan, *args, **kwargs):
            plans.append(plan)
            return real_run_stage(plan, *args, **kwargs)

        monkeypatch.setattr(cli, "run_stage", spying_run_stage)
        cfg = tmp_path / "decoder.cfg"
        cfg.write_text(BASE_CFG + f"\n[pretext]\ndecoder_mode = {mode}\n")
        assert main(["tpp", "--config", str(cfg), "--seed", "3",
                     "--backbone", workspace["backbone"], "--out", str(tmp_path)]) == 0
        assert "backbone freeze audit: PASS" in capsys.readouterr().out
        assert [p.frozen_groups for p in plans] == [frozen]

    def test_finetune_consumes_tpp_checkpoint(self, workspace, capsys):
        s2 = workspace["root"] / "s2b"
        assert main(["tpp", "--config", workspace["cfg"], "--seed", "3",
                     "--backbone", workspace["backbone"], "--out", str(s2)]) == 0
        capsys.readouterr()
        s3 = workspace["root"] / "s3"
        code = main(["finetune", "--config", workspace["cfg"], "--seed", "3",
                     "--backbone", workspace["backbone"],
                     "--target-init", str(s2 / "target.tppc"), "--out", str(s3)])
        assert code == 0
        out = capsys.readouterr().out
        assert "test:" in out and "acc=" in out
        log_lines = (s3 / "finetune.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in log_lines]
        assert any(r.get("split") == "test" for r in records)
        assert any(r.get("event") == "effective_config" for r in records)

    def test_audit_exit_codes(self, workspace, tmp_path, capsys):
        assert main(["finetune", "--config", workspace["cfg"], "--seed", "3",
                     "--backbone", workspace["backbone"], "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        finetuned = str(tmp_path / "finetune.tppc")
        code = main(["audit", workspace["backbone"], finetuned, "--groups", "backbone"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        # target group differs between those two checkpoints structurally
        code = main(["audit", workspace["backbone"], finetuned, "--groups", "target"])
        assert code == 2  # structural difference, not a hash failure

    def test_an_unknown_audit_group_is_exit_1_before_any_load(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.tppc")
        assert main(["audit", missing, missing, "--groups", "backbone,bogus"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: --groups: 'bogus' is not a valid ParamGroup")

    def test_a_key_set_twice_is_exit_1_naming_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(BASE_CFG + "\n[stage]\nlr = 0.002\n")
        lines = cfg.read_text().splitlines()
        first, second = (i + 1 for i, line in enumerate(lines) if line.startswith("lr = "))
        assert main(["pretrain-backbone", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (f"config error: [stage] lr is set twice, "
                                           f"on lines {first} and {second}\n")

    def test_a_dino_chain_records_the_augment_policy_each_stage_applies(self, tmp_path, capsys):
        # DINO draws its views under their own policies; [stage] augment is finetune's
        cfg = tmp_path / "dino.cfg"
        cfg.write_text(BASE_CFG.replace("iterations = 6", "iterations = 1")
                       + "augment = finetune_light\n\n[pretext]\ntask = dino\n")
        common = ["--config", str(cfg), "--seed", "0"]
        pre, tpp, ft = (str(tmp_path / d) for d in ("pre", "tpp", "ft"))
        assert main(["pretrain-backbone", *common, "--out", pre]) == 0
        assert main(["tpp", *common, "--backbone", f"{pre}/backbone.tppc", "--out", tpp]) == 0
        assert main(["finetune", *common, "--backbone", f"{pre}/backbone.tppc",
                     "--target-init", f"{tpp}/target.tppc", "--out", ft]) == 0
        policies = [Checkpoint.load(path).meta["config"]["augment_policy"] for path in
                    (f"{pre}/backbone.tppc", f"{tpp}/target.tppc", f"{ft}/finetune.tppc")]
        assert policies == ["none", "none", "finetune_light"]

    # case -> (verb, what BASE_CFG's [stage] section gains, the policy refused):
    # every augment policy clips to [0,1], so a stage that augments refuses
    # other pixels, and one that does not trains on them
    OUT_OF_RANGE = {
        "dino-pretrain-backbone": ("pretrain-backbone", "\n[pretext]\ntask = dino\n",
                                   "dino_global/dino_local"),
        "dino-tpp": ("tpp", "\n[pretext]\ntask = dino\n", "dino_global/dino_local"),
        "augmented-finetune": ("finetune", "augment = finetune_light\n", "finetune_light"),
        "mae-tpp": ("tpp", "augment = none\n", None),
    }

    @pytest.mark.parametrize("case", list(OUT_OF_RANGE))
    def test_only_an_augmenting_stage_refuses_pixels_outside_the_unit_range(
            self, case, workspace, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for split in ("train", "val", "test"):
            for label, shift in (("a", 200.0), ("b", -200.0)):
                (tmp_path / "data" / split / label).mkdir(parents=True)
                for i in range(2):
                    image = rng.normal(0.0, 300.0, (1, 16, 16)) + shift
                    write_tppt(str(tmp_path / "data" / split / label / f"s{i}.tppt"), image)
                    if (split, label, i) == ("train", "a", 0):
                        first = image
        verb, tail, policy = self.OUT_OF_RANGE[case]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CFG.replace("kind = synthetic_cls",
                                        f"kind = folder\npath = {tmp_path / 'data'}") + tail)
        argv = [verb, "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "o")]
        if verb != "pretrain-backbone":
            argv += ["--backbone", workspace["backbone"]]
        assert main(argv) == (0 if policy is None else 1)
        if policy is not None:
            assert (f"training sample 'a/s0' has pixels in [{first.min():.6g}, "
                    f"{first.max():.6g}], but augment policy {policy} clips them to [0, 1]"
                    ) in capsys.readouterr().err

    def test_audit_detects_a_changed_backbone(self, workspace, tmp_path, capsys):
        ckpt = Checkpoint.load(workspace["backbone"])
        name = "backbone.cls_token"
        entry = ckpt.entries[name]
        entry.data[0] += 1.0
        entry.content_hash = array_hash(entry.data)
        mutated = str(tmp_path / "mutated.tppc")
        ckpt.save(mutated)
        code = main(["audit", workspace["backbone"], mutated, "--groups", "backbone"])
        assert code == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and name in out

    def test_finetune_rerun_is_bit_identical(self, workspace):
        outs = []
        for tag in ("r1", "r2"):
            out = workspace["root"] / f"repeat_{tag}"
            assert main(["finetune", "--config", workspace["cfg"], "--seed", "7",
                         "--backbone", workspace["backbone"], "--out", str(out)]) == 0
            outs.append(out)
        log1 = (outs[0] / "finetune.jsonl").read_bytes()
        log2 = (outs[1] / "finetune.jsonl").read_bytes()
        assert log1 == log2
        c1 = Checkpoint.load(str(outs[0] / "finetune.tppc"))
        c2 = Checkpoint.load(str(outs[1] / "finetune.tppc"))
        assert c1.hashes() == c2.hashes()

    def test_grid_flag_prints_ranked_table(self, workspace, capsys):
        out = workspace["root"] / "grid"
        code = main(["finetune", "--config", workspace["cfg"], "--seed", "5",
                     "--backbone", workspace["backbone"],
                     "--grid", "0.001,0.003", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "grid search" in text
        assert text.count("lr=") >= 2

    def test_grid_with_target_init_loads_each_checkpoint_once(self, workspace, tmp_path,
                                                              capsys, monkeypatch):
        target_dir = tmp_path / "tpp"
        assert main(["tpp", "--config", workspace["cfg"], "--seed", "5",
                     "--backbone", workspace["backbone"], "--out", str(target_dir)]) == 0
        loads = []
        real_load = Checkpoint.load.__func__

        def counting_load(cls, path):
            loads.append(path)
            return real_load(cls, path)

        monkeypatch.setattr(Checkpoint, "load", classmethod(counting_load))
        assert main(["finetune", "--config", workspace["cfg"], "--seed", "5",
                     "--backbone", workspace["backbone"],
                     "--target-init", str(target_dir / "target.tppc"),
                     "--grid", "0.001,0.003", "--out", str(tmp_path / "ft")]) == 0
        assert "grid search" in capsys.readouterr().out
        assert sorted(loads) == sorted([workspace["backbone"],
                                        str(target_dir / "target.tppc")])

    def test_grid_trains_each_lr_once(self, workspace, tmp_path, capsys, monkeypatch):
        trained, evaluated = [], []
        real_run_stage, real_evaluate = pipeline.run_stage, pipeline.evaluate

        def counting_run_stage(plan, *args, **kwargs):
            trained.append(plan.schedule.base_lr)
            return real_run_stage(plan, *args, **kwargs)

        def counting_evaluate(*args, **kwargs):
            evaluated.append(1)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_stage", counting_run_stage)
        monkeypatch.setattr(cli, "run_stage", counting_run_stage)
        monkeypatch.setattr(pipeline, "evaluate", counting_evaluate)
        assert main(["finetune", "--config", workspace["cfg"], "--seed", "5",
                     "--backbone", workspace["backbone"],
                     "--grid", "0.001,0.003,0.01", "--out", str(tmp_path)]) == 0
        assert "grid search" in capsys.readouterr().out
        assert trained == [0.001, 0.003, 0.01]
        # 6 iterations of 2 steps per epoch: 3 val evaluations per run, none extra
        assert len(evaluated) == 3 * 3

    def test_grid_writes_the_winning_run(self, workspace, tmp_path, capsys):
        # BASE_CFG trains at lr 0.001, the winner of this grid
        common = ["--config", workspace["cfg"], "--seed", "5",
                  "--backbone", workspace["backbone"]]
        assert main(["finetune", *common, "--grid", "0.001,0.003",
                     "--out", str(tmp_path / "grid")]) == 0
        ranked = capsys.readouterr().out.splitlines()[1]
        assert ranked.startswith("  lr=0.001 ")
        assert main(["finetune", *common, "--out", str(tmp_path / "plain")]) == 0
        for name in ("finetune.tppc", "finetune.jsonl"):
            assert (tmp_path / "grid" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()

    def test_all_diverged_grid_reports_the_runs_own_divergence(self, workspace, tmp_path,
                                                                capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(BASE_CFG.replace("lr = 0.001", "lr = 1e300")
                       .replace("weight_decay = 0.0", "weight_decay = 1.0"))
        common = ["--config", str(cfg), "--seed", "3", "--backbone", workspace["backbone"]]
        assert main(["finetune", *common, "--out", str(tmp_path / "plain")]) == 2
        alone = capsys.readouterr().err
        assert main(["finetune", *common, "--grid", "1e300", "--out", str(tmp_path / "g")]) == 2
        grid = capsys.readouterr().err
        assert grid == alone
        assert "non-finite loss at step 1" in grid and "recent losses: []" not in grid

    @pytest.mark.parametrize("grid, message", [
        ("0.001,-1", "--grid 0.001,-1: [stage] lr must be > 0, got -1.0"),
        (",", "--grid ,: no learning rate given")])
    def test_a_bad_grid_is_rejected_before_any_data_is_loaded(self, workspace, tmp_path,
                                                              capsys, monkeypatch, grid, message):
        loads = []
        real_load_data = ExperimentConfig.load_data

        def counting_load_data(self, seed):
            loads.append(seed)
            return real_load_data(self, seed)

        monkeypatch.setattr(ExperimentConfig, "load_data", counting_load_data)
        assert main(["finetune", "--config", workspace["cfg"], "--seed", "0",
                     "--backbone", workspace["backbone"], f"--grid={grid}",
                     "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert loads == []

    @pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
    def test_malformed_input_is_a_typed_exit(self, workspace, tmp_path, capsys, monkeypatch,
                                             case):
        code, message = MALFORMED_INPUTS[case]
        monkeypatch.setattr(pipeline, "run_stage",
                            lambda *a, **k: pytest.fail("trained on a malformed input"))
        monkeypatch.setattr(cli, "build_bundle",
                            lambda *a, **k: pytest.fail("built a model on a malformed input"))
        config_text = {"primary_of_other_task": BASE_CFG + "[eval]\nprimary = dice\n",
                       "unknown_primary": BASE_CFG + "[eval]\nprimary = bogus\n",
                       "eval_batch_zero": BASE_CFG + "[eval]\nbatch_size = 0\n",
                       "ce_on_segmentation": BASE_CFG.replace("synthetic_cls", "synthetic_seg")
                       + "loss = ce\n",
                       "stage_lr_negative": BASE_CFG.replace("lr = 0.001", "lr = -0.001"),
                       "stage_lr_zero_in_tpp": BASE_CFG.replace("lr = 0.001", "lr = 0"),
                       "stage_lr_nan_in_pretrain": BASE_CFG.replace("lr = 0.001", "lr = nan"),
                       "val_split_empty": BASE_CFG.replace("val_count = 8", "val_count = 0"),
                       "test_split_empty": BASE_CFG.replace("test_count = 8", "test_count = 0"),
                       "val_split_one_class": BASE_CFG.replace("val_count = 8", "val_count = 1"),
                       "test_split_one_class": BASE_CFG.replace("test_count = 8",
                                                                "test_count = 1"),
                       "data_num_classes_one": BASE_CFG.replace("num_classes = 2",
                                                                "num_classes = 1"),
                       "train_split_empty_in_pretrain":
                           BASE_CFG.replace("train_count = 16", "train_count = 0"),
                       "train_split_empty_in_tpp":
                           BASE_CFG.replace("train_count = 16", "train_count = 0"),
                       "stage_batch_zero": BASE_CFG.replace("batch_size = 8", "batch_size = 0"),
                       "stage_epochs_zero_in_pretrain":
                           BASE_CFG.replace("iterations = 6", "epochs = 0"),
                       "stage_iterations_negative_in_tpp":
                           BASE_CFG.replace("iterations = 6", "iterations = -1"),
                       "folder_class_mismatch": BASE_CFG.replace(
                           "kind = synthetic_cls", f"kind = folder\npath = {tmp_path / 'cls'}"),
                       "data_num_classes_zero": BASE_CFG.replace("num_classes = 2",
                                                                 "num_classes = 0"),
                       "data_num_classes_negative": BASE_CFG.replace("num_classes = 2",
                                                                     "num_classes = -1"),
                       "model_image_size_zero": BASE_CFG.replace("image_size = 16",
                                                                 "image_size = 0"),
                       "model_mlp_width_zero_in_pretrain": BASE_CFG.replace(
                           "num_heads = 2", "num_heads = 2\nmlp_ratio = 0.01"),
                       "dino_head_output_dim_zero_in_tpp":
                           BASE_CFG + "\n[pretext]\ntask = dino\nhead_output_dim = 0\n",
                       "stage_warmup_negative": BASE_CFG.replace("warmup_epochs = 0",
                                                                 "warmup_epochs = -5"),
                       "lora_targets_empty_in_tpp": BASE_CFG.replace(
                           "method = adapter", "method = lora\nlora_targets = ,"),
                       "lora_targets_empty_decoder_update_in_tpp": BASE_CFG.replace(
                           "method = adapter", "method = lora\nlora_targets = ,")
                       + "\n[pretext]\ndecoder_mode = update\n",
                       "lora_targets_repeated_in_tpp": BASE_CFG.replace(
                           "method = adapter", "method = lora\nlora_targets = query,query"),
                       "adaptformer_scale_nan_in_tpp": BASE_CFG.replace(
                           "method = adapter", "method = adaptformer\nscale = nan"),
                       "mae_decoder_zero_wide_in_pretrain":
                           EMBED_DIM_ONE_CFG + "\n[pretext]\ntask = mae\n",
                       "mae_decoder_zero_wide_in_tpp":
                           EMBED_DIM_ONE_CFG + "\n[pretext]\ntask = mae\n"}
        if case == "folder_class_mismatch":
            rng = np.random.default_rng(0)
            for split, classes in (("train", "abc"), ("val", "ac"), ("test", "abc")):
                for name in classes:
                    (tmp_path / "cls" / split / name).mkdir(parents=True)
                    write_tppt(str(tmp_path / "cls" / split / name / "s0.tppt"),
                               rng.random((1, 16, 16)))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_text.get(case, BASE_CFG))
        common = ["--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "o")]
        finetune = ["finetune", *common, "--backbone", workspace["backbone"]]
        log = tmp_path / "log.jsonl"
        second_line = {"report_not_json": b"{oops", "report_not_object": b"[1, 2]",
                       "report_not_utf8": b'{"a": "\xc3\x28"}'}
        only_line = {"report_run_info_without_seed": b'{"event": "run_info", "label": "x"}',
                     "report_test_without_metric": b'{"split": "test", "value": 1.0}',
                     "report_test_value_not_a_number":
                         b'{"split": "test", "metric": "acc", "value": "high"}'}
        grid = {"grid_token": "0.001,abc", "grid_negative_lr": "-0.5,0.001",
                "grid_nan_lr": "0.001,nan", "grid_inf_lr": "inf"}
        if case in second_line:
            log.write_bytes(b'{"event": "run_info"}\n' + second_line[case] + b"\n")
            argv = ["report", str(log)]
        elif case in only_line:
            log.write_bytes(only_line[case] + b"\n")
            argv = ["report", str(log)]
        elif case in grid:
            argv = finetune + [f"--grid={grid[case]}"]
        elif case == "peft_flag_unknown":
            argv = finetune + ["--peft", "bogus"]
        elif case.endswith("_in_tpp"):
            argv = ["tpp", *common, "--backbone", workspace["backbone"]]
        elif case.endswith("_in_pretrain"):
            argv = ["pretrain-backbone", *common]
        else:
            argv = finetune
        assert main(argv) == code
        assert message in capsys.readouterr().err

    def test_dino_at_embed_dim_one_trains(self, tmp_path, capsys):
        # no MAE decoder is built, so a one-channel model is a legal DINO config
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EMBED_DIM_ONE_CFG.replace("iterations = 6", "iterations = 1")
                       + "\n[pretext]\ntask = dino\n")
        assert main(["pretrain-backbone", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 0

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        code = main(["finetune", "--config", str(tmp_path / "nope.cfg"), "--seed", "0",
                     "--backbone", "x", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_unknown_config_key_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nfoo = 1\n")
        code = main(["pretrain-backbone", "--config", str(bad), "--seed", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_a_config_that_is_not_utf8_is_exit_1_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "utf16.cfg"
        bad.write_bytes(b"\xff\xfe" + BASE_CFG.encode("utf-16-le"))
        code = main(["pretrain-backbone", "--config", str(bad), "--seed", "0",
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: cannot read config {bad}: 'utf-8' codec")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, count", [
        ("test_count", 99999999999999999999),
        # one image past the bound at BASE_CFG's 16 px
        ("train_count", config.MAX_SPLIT_BYTES // (16 * 16 * 8) + 1)])
    def test_a_split_count_past_the_byte_bound_is_exit_1_before_any_data(
            self, tmp_path, capsys, monkeypatch, key, count):
        fail = lambda *a, **k: pytest.fail("generated data for an oversized split")  # noqa: E731
        monkeypatch.setattr(config, "generate_synthetic", fail)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(BASE_CFG.replace(f"{key} = 16" if key == "train_count" else f"{key} = 8",
                                        f"{key} = {count}"))
        code = main(["pretrain-backbone", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: [data] {key} = {count} at [model] image_size = 16")
        assert "Traceback" not in err

    def test_the_split_byte_bound_is_inclusive(self, monkeypatch):
        cfg = ExperimentConfig.parse(BASE_CFG)  # train is the largest split: 16 images
        monkeypatch.setattr(config, "MAX_SPLIT_BYTES", 16 * 16 * 16 * 8)
        assert len(cfg.load_data(0).train) == 16
        monkeypatch.setattr(config, "MAX_SPLIT_BYTES", 16 * 16 * 16 * 8 - 1)
        with pytest.raises(ConfigError, match=r"\[data\] train_count = 16 "):
            cfg.load_data(0)

    def test_channel_count_mismatch_is_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "rgb.cfg"
        cfg.write_text(BASE_CFG.replace("num_heads = 2", "num_heads = 2\nnum_channels = 3"))
        code = main(["pretrain-backbone", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "train sample train00000: image shape [1, 16, 16]" in capsys.readouterr().err

    def test_non_binary_segmentation_mask_is_exit_1(self, workspace, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for split in ("train", "val", "test"):
            for sub in ("images", "masks"):
                (tmp_path / "seg" / split / sub).mkdir(parents=True)
            for i in range(2):
                mask = (rng.random((16, 16)) > 0.5).astype(np.float64)
                if split == "val" and i == 1:
                    mask[0, 0] = 2.0
                write_tppt(str(tmp_path / "seg" / split / "images" / f"s{i}.tppt"),
                           rng.random((1, 16, 16)))
                write_tppt(str(tmp_path / "seg" / split / "masks" / f"s{i}.tppt"), mask)
        cfg = tmp_path / "seg.cfg"
        cfg.write_text(BASE_CFG.replace("kind = synthetic_cls",
                                        f"kind = folder\npath = {tmp_path / 'seg'}"))
        code = main(["finetune", "--config", str(cfg), "--seed", "0",
                     "--backbone", workspace["backbone"], "--out", str(tmp_path / "o")])
        assert code == 1
        assert "val sample s1: mask labels [0, 1, 2]" in capsys.readouterr().err

    # case -> (slot, contents of the one bad file in train); the rest of the
    # folder is 20x20 PGMs, resized to the config's 16 px on load
    MALFORMED_FILES = {
        "image_rank4": ("image", np.zeros((1, 1, 20, 20))),
        "image_rank1": ("image", np.zeros(20)),
        "image_zero_size": ("image", np.zeros((1, 0, 20))),
        "image_nan": ("image", np.full((1, 20, 20), np.nan)),
        "image_channels_differ": ("image", np.zeros((3, 20, 20))),  # a PPM among PGMs
        "mask_two_channels": ("mask", np.zeros((2, 20, 20))),
        "mask_rank0": ("mask", np.zeros(())),
        "mask_zero_size": ("mask", np.zeros((0, 20))),
        "mask_nan": ("mask", np.full((20, 20), np.nan)),
        "mask_smaller_than_image": ("mask", np.zeros((10, 10))),
        "mask_beyond_int32": ("mask", np.full((20, 20), 1e300)),
        "mask_not_whole": ("mask", np.full((20, 20), 1.7)),
    }

    @pytest.mark.parametrize("case", list(MALFORMED_FILES))
    def test_malformed_data_file_is_exit_2_naming_it(self, tmp_path, capsys, monkeypatch,
                                                     recwarn, case):
        monkeypatch.setattr(cli, "build_bundle",
                            lambda *a, **k: pytest.fail("built a model on a malformed file"))
        slot, contents = self.MALFORMED_FILES[case]
        rng = np.random.default_rng(0)
        for split in ("train", "val", "test"):
            for i in range(2):
                if slot == "image":
                    for cls in ("a", "b"):
                        (tmp_path / split / cls).mkdir(parents=True, exist_ok=True)
                        write_pnm(str(tmp_path / split / cls / f"{i}.pgm"),
                                  rng.random((1, 20, 20)))
                else:
                    for sub in ("images", "masks"):
                        (tmp_path / split / sub).mkdir(parents=True, exist_ok=True)
                    write_pnm(str(tmp_path / split / "images" / f"s{i}.pgm"),
                              rng.random((1, 20, 20)))
                    write_pnm(str(tmp_path / split / "masks" / f"s{i}.pgm"),
                              (rng.random((1, 20, 20)) > 0.5).astype(np.float64))
        bad_dir = tmp_path / "train" / ("a" if slot == "image" else "masks")
        if case == "image_channels_differ":
            bad = bad_dir / "1.ppm"
            write_pnm(str(bad), contents)
        else:
            bad = bad_dir / ("1.tppt" if slot == "image" else "s1.tppt")
            write_tppt(str(bad), contents)
        (bad_dir / ("1.pgm" if slot == "image" else "s1.pgm")).unlink()
        cfg = tmp_path / "folder.cfg"
        cfg.write_text(BASE_CFG.replace("kind = synthetic_cls",
                                        f"kind = folder\npath = {tmp_path}"))
        code = main(["pretrain-backbone", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(bad) in err and "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_divergent_run_is_exit_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(BASE_CFG.replace("lr = 0.001", "lr = 1e200")
                       .replace("weight_decay = 0.0", "weight_decay = 1.0"))
        code = main(["finetune", "--config", str(cfg), "--seed", "0",
                     "--backbone", workspace["backbone"], "--out", str(tmp_path / "o")])
        assert code == 2

    def test_finite_weights_that_overflow_at_eval_are_exit_2(self, workspace, tmp_path, capsys,
                                                             recwarn):
        # one update of lr 1e300 leaves the weights finite (the loss check
        # passes) but the val forward overflows
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(BASE_CFG.replace("lr = 0.001", "lr = 1e300")
                       .replace("weight_decay = 0.0", "weight_decay = 1.0")
                       .replace("iterations = 6", "iterations = 1"))
        common = ["--config", str(cfg), "--seed", "3", "--backbone", workspace["backbone"]]
        assert main(["finetune", *common, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("training diverged: non-finite val scores at step 0 (lr=1e+300)")
        assert "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        # in a grid the lr ranks as diverged instead of aborting the grid
        assert main(["finetune", *common, "--grid", "0.001,1e300",
                     "--out", str(tmp_path / "g")]) == 0
        assert "lr=1e+300  acc=diverged  [diverged@0]" in capsys.readouterr().out

    def test_peft_none_rejected_for_tpp(self, workspace, tmp_path, capsys):
        code = main(["tpp", "--config", workspace["cfg"], "--seed", "0",
                     "--backbone", workspace["backbone"], "--peft", "none",
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_bitfit_tpp_allowed_with_warning(self, workspace, tmp_path, capsys):
        code = main(["tpp", "--config", workspace["cfg"], "--seed", "0",
                     "--backbone", workspace["backbone"], "--peft", "bitfit",
                     "--out", str(tmp_path / "bitfit")])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" in captured.err.lower()

    def test_bitfit_tpp_then_finetune_trains_only_biases(self, workspace, tmp_path, capsys):
        target_path = tmp_path / "tpp" / "target.tppc"
        assert main(["tpp", "--config", workspace["cfg"], "--seed", "0",
                     "--backbone", workspace["backbone"], "--peft", "bitfit",
                     "--out", str(target_path.parent)]) == 0
        assert main(["finetune", "--config", workspace["cfg"], "--seed", "0",
                     "--backbone", workspace["backbone"], "--peft", "bitfit",
                     "--target-init", str(target_path), "--out", str(tmp_path / "ft")]) == 0
        capsys.readouterr()
        backbone = Checkpoint.load(workspace["backbone"])
        biases = {n for n in backbone.hashes(ParamGroup.BACKBONE) if n.endswith(".bias")}
        assert biases
        target = Checkpoint.load(str(target_path))
        assert set(target.entries) == biases
        assert all(e.group is ParamGroup.TARGET for e in target.entries.values())
        finetuned = Checkpoint.load(str(tmp_path / "ft" / "finetune.tppc"))
        frozen = set(finetuned.hashes(ParamGroup.BACKBONE))
        assert frozen == set(backbone.hashes(ParamGroup.BACKBONE)) - biases
        for name in frozen:
            assert finetuned.entries[name].data.tobytes() == \
                backbone.entries[name].data.tobytes()

    def test_bitfit_audit_checks_the_non_bias_params(self, workspace, tmp_path, capsys):
        assert main(["finetune", "--config", workspace["cfg"], "--seed", "0",
                     "--backbone", workspace["backbone"], "--peft", "bitfit",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        finetuned = str(tmp_path / "finetune.tppc")
        assert main(["audit", workspace["backbone"], finetuned]) == 0
        backbone = Checkpoint.load(workspace["backbone"])
        non_bias = [n for n in backbone.hashes(ParamGroup.BACKBONE) if not n.endswith(".bias")]
        assert f"PASS ({len(non_bias)} parameters bit-identical)" in capsys.readouterr().out
        # the re-tagged biases are skipped, a changed non-bias weight is not
        ckpt = Checkpoint.load(finetuned)
        name = "backbone.blocks.0.attn.q.weight"
        entry = ckpt.entries[name]
        entry.data[0, 0] += 1.0
        entry.content_hash = array_hash(entry.data)
        mutated = str(tmp_path / "mutated.tppc")
        ckpt.save(mutated)
        assert main(["audit", workspace["backbone"], mutated]) == 3
        assert f"CHANGED {name}" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["adapter", "adaptformer", "vpt", "ssf",
                                        "bitfit", "lora"])
    def test_tpp_then_finetune_succeeds_for_every_mechanism(self, workspace, tmp_path,
                                                            capsys, method):
        target_path = tmp_path / "tpp" / "target.tppc"
        assert main(["tpp", "--config", workspace["cfg"], "--seed", "1",
                     "--backbone", workspace["backbone"], "--peft", method,
                     "--out", str(target_path.parent)]) == 0
        assert main(["finetune", "--config", workspace["cfg"], "--seed", "1",
                     "--backbone", workspace["backbone"], "--peft", method,
                     "--target-init", str(target_path), "--out", str(tmp_path / "ft")]) == 0
        assert "test:" in capsys.readouterr().out

    def test_report_aggregates_runs(self, workspace, tmp_path, capsys):
        logs = []
        for seed in ("11", "12"):
            out = workspace["root"] / f"rep{seed}"
            assert main(["finetune", "--config", workspace["cfg"], "--seed", seed,
                         "--backbone", workspace["backbone"], "--out", str(out)]) == 0
            logs.append(str(out / "finetune.jsonl"))
        capsys.readouterr()
        csv_path = str(tmp_path / "table.csv")
        code = main(["report", *logs, "--csv", csv_path])
        assert code == 0
        table = capsys.readouterr().out
        assert "| Method" in table and "Ratio" in table
        assert "exp" in table
        rows = [line for line in table.splitlines() if line.startswith("| exp")]
        assert len(rows) == 1  # two seeds aggregate into one row
        assert "2" in rows[0].split("|")[2]
        csv = open(csv_path).read().splitlines()
        assert csv[0].startswith("Method,Seeds")
        # mean over seeds equals the arithmetic mean of the per-seed accs
        accs = []
        for log_path in logs:
            recs = [json.loads(l) for l in open(log_path)]
            accs.append(next(r["value"] for r in recs
                             if r.get("split") == "test" and r["metric"] == "acc"))
        mean_str = rows[0].split("|")[3].strip()
        assert mean_str == f"{np.mean(accs):.2f}"

    def test_single_log_report_is_one_row(self, workspace, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["finetune", "--config", workspace["cfg"], "--seed", "11",
                     "--backbone", workspace["backbone"], "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["report", str(out / "finetune.jsonl")])
        assert code == 0
        table = capsys.readouterr().out
        assert len([l for l in table.splitlines() if l.startswith("| exp")]) == 1

    @staticmethod
    def _report_logs(tmp_path) -> list[str]:
        logs = []
        for seed, acc in ((1, 0.5), (2, 0.75)):
            log = tmp_path / f"run{seed}.jsonl"
            log.write_text("".join(json.dumps(r) + "\n" for r in [
                {"event": "run_info", "label": "lora", "seed": seed},
                {"event": "trainable_ratio", "value": 1.5},
                {"split": "test", "metric": "acc", "value": acc}]))
            logs.append(str(log))
        return logs

    def test_report_out_writes_the_markdown_it_would_print(self, tmp_path, capsys):
        logs = self._report_logs(tmp_path)
        assert main(["report", *logs]) == 0
        printed = capsys.readouterr().out
        assert "| lora   | 2     | 0.62 | 1.500 |" in printed.splitlines()
        table = tmp_path / "table.md"
        assert main(["report", *logs, "--out", str(table)]) == 0
        assert capsys.readouterr().out == ""
        assert table.read_text() == printed

    def test_report_out_into_a_missing_directory_exits_2(self, tmp_path, capsys):
        logs = self._report_logs(tmp_path)
        assert main(["report", *logs, "--out", str(tmp_path / "missing" / "table.md")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
