"""Flat key=value experiment configs with sections and hard-error unknowns.

A config file looks like:

    [model]
    embed_dim = 64
    depth = 4

    [peft]
    method = adapter
    bottleneck = 8

Every key has a documented default (the SCHEMA below); unknown sections
or keys are hard errors. Several [stage] keys default to "auto" and are
resolved per command/objective. The fully resolved config plus the seed
determines a run, and the effective config is echoed into checkpoints
and logs.
"""

from __future__ import annotations

from .data import SplitDatasets, SyntheticTaskSpec, generate_synthetic, load_folder, subset
from .errors import ConfigError
from .peft import (AdapterSpec, AdaptFormerSpec, BitFitSpec, LoraSpec,
                   PeftSpec, SsfSpec, VptSpec)
from .pretext import DinoConfig, MaeConfig
from .rng import SeededRng
from .vit import ClassificationSpec, SegmentationSpec, ViTConfig

AUTO = "auto"

# section -> key -> (default, type). Type "auto_float"/"auto_int" accept
# the literal string "auto" or a number of that type.
SCHEMA: dict[str, dict[str, tuple] ] = {
    "model": {
        "image_size": (32, int),
        "patch_size": (8, int),
        "embed_dim": (64, int),
        "depth": (4, int),
        "num_heads": (4, int),
        "mlp_ratio": (4.0, float),
        "num_channels": (1, int),
    },
    "peft": {
        "method": ("adapter", str),     # adapter|adaptformer|vpt|ssf|bitfit|lora|none
        "bottleneck": (8, int),
        "scale": (0.1, float),
        "num_tokens": (10, int),
        "vpt_mode": ("deep", str),
        "rank": (4, int),
        "alpha": (4.0, float),
        "lora_targets": ("query,value", str),
    },
    "pretext": {
        "task": ("mae", str),           # mae|dino
        "mask_ratio": (0.75, float),
        "decoder_dim": (0, int),        # 0 = embed_dim // 2
        "decoder_depth": (1, int),
        "norm_pix_targets": (False, bool),
        "decoder_mode": ("auto", str),  # auto|random|freeze|update
        "teacher_momentum": (0.996, float),
        "center_momentum": (0.9, float),
        "teacher_temp": (0.04, float),
        "student_temp": (0.1, float),
        "head_output_dim": (256, int),
        "num_global_views": (2, int),
        "num_local_views": (2, int),
    },
    "stage": {
        "loss": (AUTO, "auto_str"),     # finetune: ce | dice_ce
        "lr": (AUTO, "auto_float"),
        "batch_size": (AUTO, "auto_int"),
        "epochs": (AUTO, "auto_int"),
        "iterations": (AUTO, "auto_int"),
        "warmup_epochs": (AUTO, "auto_float"),
        "weight_decay": (AUTO, "auto_float"),
        "wd_end": (AUTO, "auto_float"),
        "augment": (AUTO, "auto_str"),
        "beta1": (0.9, float),
        "beta2": (0.999, float),
        "eps": (1e-8, float),
    },
    "data": {
        "kind": ("synthetic_cls", str),  # synthetic_cls|synthetic_seg|folder
        "path": ("", str),
        "num_classes": (4, int),
        "noise": (0.25, float),
        "separation": (0.8, float),
        "train_count": (128, int),
        "val_count": (64, int),
        "test_count": (64, int),
        "annotation_ratio": (1.0, float),
    },
    "eval": {
        "primary": (AUTO, "auto_str"),   # acc for classification, dice for segmentation
        "batch_size": (64, int),
    },
}


def _parse_value(raw: str, kind, where: str):
    if kind in ("auto_float", "auto_int", "auto_str"):
        if raw == AUTO:
            return AUTO
        kind = {"auto_float": float, "auto_int": int, "auto_str": str}[kind]
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind.__name__}") from None


class ExperimentConfig:
    """Parsed config: schema defaults overlaid with file values."""

    def __init__(self, values: dict[str, dict] | None = None):
        self.values = {
            section: {key: spec[0] for key, spec in keys.items()}
            for section, keys in SCHEMA.items()
        }
        for section, keys in (values or {}).items():
            for key, val in keys.items():
                self._set(section, key, val)

    def _set(self, section: str, key: str, value) -> None:
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        if isinstance(value, str):
            value = _parse_value(value, SCHEMA[section][key][1], f"[{section}] {key}")
        self.values[section][key] = value

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        cfg = cls()
        section = None
        for lineno, raw_line in enumerate(text.splitlines(), 1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in SCHEMA:
                    raise ConfigError(f"line {lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {raw_line!r}")
            if section is None:
                raise ConfigError(f"line {lineno}: key outside any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            cfg._set(section, key, value)
        return cfg

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                return cls.parse(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None

    def get(self, section: str, key: str):
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        return self.values[section][key]

    def resolved(self, section: str, key: str, default):
        """Value of an auto-capable key, falling back to `default` on "auto"."""
        value = self.get(section, key)
        return default if value == AUTO else value

    def effective(self) -> dict[str, object]:
        """Flat {"section.key": value} snapshot for echoing into logs."""
        return {
            f"{section}.{key}": value
            for section, keys in self.values.items()
            for key, value in keys.items()
        }

    # -- builders -----------------------------------------------------------

    def vit_config(self) -> ViTConfig:
        m = self.values["model"]
        return ViTConfig(image_size=m["image_size"], patch_size=m["patch_size"],
                         embed_dim=m["embed_dim"], depth=m["depth"],
                         num_heads=m["num_heads"], mlp_ratio=m["mlp_ratio"],
                         num_channels=m["num_channels"])

    def peft_spec(self, override: str | None = None) -> PeftSpec | None:
        p = self.values["peft"]
        method = override or p["method"]
        if method == "none":
            return None
        if method == "adapter":
            return AdapterSpec(bottleneck=p["bottleneck"])
        if method == "adaptformer":
            return AdaptFormerSpec(bottleneck=p["bottleneck"], scale=p["scale"])
        if method == "vpt":
            return VptSpec(num_tokens=p["num_tokens"], mode=p["vpt_mode"])
        if method == "ssf":
            return SsfSpec()
        if method == "bitfit":
            return BitFitSpec()
        if method == "lora":
            targets = tuple(t.strip() for t in p["lora_targets"].split(",") if t.strip())
            return LoraSpec(rank=p["rank"], alpha=p["alpha"], targets=targets)
        raise ConfigError(f"unknown peft method: {method!r}")

    def mae_config(self) -> MaeConfig:
        p = self.values["pretext"]
        return MaeConfig(mask_ratio=p["mask_ratio"], decoder_dim=p["decoder_dim"],
                         decoder_depth=p["decoder_depth"],
                         norm_pix_targets=p["norm_pix_targets"])

    def dino_config(self) -> DinoConfig:
        p = self.values["pretext"]
        return DinoConfig(teacher_momentum=p["teacher_momentum"],
                          center_momentum=p["center_momentum"],
                          teacher_temp=p["teacher_temp"],
                          student_temp=p["student_temp"],
                          head_output_dim=p["head_output_dim"],
                          num_global_views=p["num_global_views"],
                          num_local_views=p["num_local_views"])

    def head_spec(self, task: str, num_classes: int):
        if task == "classification":
            return ClassificationSpec(num_classes=num_classes)
        return SegmentationSpec(num_classes=max(2, num_classes))

    def load_data(self, seed: int) -> SplitDatasets:
        d = self.values["data"]
        kind = d["kind"]
        if kind in ("synthetic_cls", "synthetic_seg"):
            spec = SyntheticTaskSpec(
                kind="textured_shapes_cls" if kind == "synthetic_cls" else "blob_seg",
                num_classes=d["num_classes"],
                image_size=self.values["model"]["image_size"],
                noise=d["noise"], separation=d["separation"],
                train_count=d["train_count"], val_count=d["val_count"],
                test_count=d["test_count"])
            splits = generate_synthetic(spec, SeededRng(seed, "data"))
        elif kind == "folder":
            if not d["path"]:
                raise ConfigError("[data] kind=folder requires a path")
            size = self.values["model"]["image_size"]
            splits = SplitDatasets(
                train=load_folder(f"{d['path']}/train", image_size=size),
                val=load_folder(f"{d['path']}/val", image_size=size),
                test=load_folder(f"{d['path']}/test", image_size=size))
        else:
            raise ConfigError(f"unknown data kind: {kind!r}")
        ratio = d["annotation_ratio"]
        if ratio != 1.0:
            splits = SplitDatasets(train=subset(splits.train, ratio, seed),
                                   val=splits.val, test=splits.test)
        return splits
