"""Flat key=value experiment configs with sections and hard-error unknowns.

A config file looks like:

    [model]
    embed_dim = 64
    depth = 4

    [peft]
    method = adapter
    bottleneck = 8

Every key has a documented default (the SCHEMA below); unknown sections
or keys, and a key set twice, are hard errors. A key backed by a field of
`ViTConfig`, `MaeConfig`, `DinoConfig`, `AdamWSpec`, `SyntheticTaskSpec`
or a PEFT spec takes that field's default, read from the dataclass.
Several keys default to "auto", accept it, and are resolved per
command/objective. The fully resolved config plus the seed determines a
run, and the effective config is echoed into checkpoints and logs.

Each SCHEMA entry is (default, type, domain). The domain holds the legal
values, checked as each value is parsed, before any data or model
exists: a tuple of choices, "> x" or ">= x", an interval such as
"[0, 1)", or "finite". Numeric domains exclude nan and inf. A "str_list"
value is a comma-separated list of at least one of the choices, each
named once.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .data import SplitDatasets, SyntheticTaskSpec, generate_synthetic, load_folder, subset
from .errors import ConfigError
from .metrics import HIGHER_IS_BETTER
from .optim import AdamWSpec
from .peft import (LORA_TARGET_MAP, MECHANISMS, AdapterSpec, AdaptFormerSpec, LoraSpec,
                   PeftSpec, VptSpec)
from .pretext import POLICIES, DinoConfig, MaeConfig
from .rng import SeededRng
from .vit import ClassificationSpec, SegmentationSpec, ViTConfig

AUTO = "auto"

# the largest synthetic split, in bytes of float64 pixels, that `load_data` generates
MAX_SPLIT_BYTES = 1 << 32


def _items(value: str) -> tuple[str, ...]:
    """The non-empty items of a comma-separated list."""
    return tuple(t.strip() for t in value.split(",") if t.strip())


def _build(cls, section: dict):
    """A `cls` whose every field takes the config value of the same name."""
    return cls(**{f.name: section[f.name] for f in fields(cls)})


# section -> key -> (default, type, domain)
SCHEMA: dict[str, dict[str, tuple]] = {
    "model": {
        "image_size": (ViTConfig.image_size, int, ">= 1"),
        "patch_size": (ViTConfig.patch_size, int, ">= 1"),
        "embed_dim": (ViTConfig.embed_dim, int, ">= 1"),
        "depth": (ViTConfig.depth, int, ">= 1"),
        "num_heads": (ViTConfig.num_heads, int, ">= 1"),
        "mlp_ratio": (ViTConfig.mlp_ratio, float, "> 0"),
        "num_channels": (ViTConfig.num_channels, int, ">= 1"),
    },
    "peft": {
        "method": ("adapter", str, (*MECHANISMS, "none")),
        "bottleneck": (AdapterSpec.bottleneck, int, ">= 1"),
        "scale": (AdaptFormerSpec.scale, float, "finite"),
        "num_tokens": (VptSpec.num_tokens, int, ">= 1"),
        "vpt_mode": (VptSpec.mode, str, ("shallow", "deep")),
        "rank": (LoraSpec.rank, int, ">= 1"),
        "alpha": (LoraSpec.alpha, float, "finite"),
        "lora_targets": (",".join(LoraSpec.targets), "str_list", tuple(LORA_TARGET_MAP)),
    },
    "pretext": {
        "task": ("mae", str, ("mae", "dino")),
        "mask_ratio": (MaeConfig.mask_ratio, float, "(0, 1)"),
        "decoder_dim": (MaeConfig.decoder_dim, int, ">= 0"),  # 0 = embed_dim // 2
        "decoder_depth": (MaeConfig.decoder_depth, int, ">= 0"),
        "norm_pix_targets": (MaeConfig.norm_pix_targets, bool, (False, True)),
        "decoder_mode": ("auto", str, ("auto", "random", "freeze", "update")),
        "teacher_momentum": (DinoConfig.teacher_momentum, float, "[0, 1)"),
        "center_momentum": (DinoConfig.center_momentum, float, "[0, 1)"),
        "teacher_temp": (DinoConfig.teacher_temp, float, "> 0"),
        "student_temp": (DinoConfig.student_temp, float, "> 0"),
        "head_output_dim": (DinoConfig.head_output_dim, int, ">= 1"),
        "num_global_views": (DinoConfig.num_global_views, int, ">= 2"),
        "num_local_views": (DinoConfig.num_local_views, int, ">= 0"),
    },
    "stage": {
        "lr": (AUTO, float, "> 0"),
        "batch_size": (AUTO, int, ">= 1"),
        "epochs": (AUTO, int, ">= 1"),
        "iterations": (AUTO, int, ">= 1"),
        "warmup_epochs": (AUTO, float, ">= 0"),
        "weight_decay": (AUTO, float, ">= 0"),
        "wd_end": (AUTO, float, ">= 0"),
        "augment": (AUTO, str, tuple(POLICIES)),
        "beta1": (AdamWSpec.beta1, float, "[0, 1)"),
        "beta2": (AdamWSpec.beta2, float, "[0, 1)"),
        "eps": (AdamWSpec.eps, float, "> 0"),
    },
    "data": {
        "kind": ("synthetic_cls", str, ("synthetic_cls", "synthetic_seg", "folder")),
        "path": ("", str, None),
        "num_classes": (SyntheticTaskSpec.num_classes, int, ">= 1"),
        "noise": (SyntheticTaskSpec.noise, float, ">= 0"),
        "separation": (SyntheticTaskSpec.separation, float, "finite"),
        "train_count": (SyntheticTaskSpec.train_count, int, ">= 0"),
        "val_count": (SyntheticTaskSpec.val_count, int, ">= 0"),
        "test_count": (SyntheticTaskSpec.test_count, int, ">= 0"),
        "annotation_ratio": (1.0, float, "(0, 1]"),
    },
    "eval": {
        "primary": (AUTO, str, tuple(HIGHER_IS_BETTER)),  # auto: acc or dice
        "batch_size": (64, int, ">= 1"),
    },
}

def _parse_value(raw: str, kind, where: str):
    kind = str if kind == "str_list" else kind
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


def _bounds(domain: str) -> tuple[float, float, bool, bool]:
    """(low, high, low is closed, high is closed) of a numeric domain."""
    if domain[0] in "[(":
        low, high = domain[1:-1].split(",")
        return float(low), float(high), domain[0] == "[", domain[-1] == "]"
    op, bound = domain.split() if domain != "finite" else (">", "-inf")
    return float(bound), math.inf, op == ">=", False


def check(section: str, key: str, value, source: str = "") -> None:
    """Raise ConfigError unless `value` lies in the domain of [section] key.

    `source` prefixes the message for a value given elsewhere, e.g. by a flag.
    """
    default, kind, domain = SCHEMA[section][key]
    if domain is None or value == AUTO == default:
        return
    if isinstance(domain, tuple):
        items = _items(value) if kind == "str_list" else (value,)
        repeated = sorted({item for item in items if items.count(item) > 1})
        if repeated:
            raise ConfigError(f"{source}[{section}] {key} must name each item once, "
                              f"got {value!r} (repeated: {repeated})")
        if items and all(item in domain for item in items):
            return
        expected = (f"a non-empty comma-separated list of {domain}" if kind == "str_list"
                    else f"one of {domain}")
    else:
        low, high, closed_low, closed_high = _bounds(domain)
        if (low <= value if closed_low else low < value) and \
                (value <= high if closed_high else value < high):
            return
        expected = f"in {domain}" if domain[0] in "[(" else domain
        if not math.isfinite(value) and domain != "finite":
            expected = f"finite and {expected}"
    raise ConfigError(f"{source}[{section}] {key} must be {expected}, got {value!r}")


class ExperimentConfig:
    """Parsed config: schema defaults overlaid with file values."""

    def __init__(self):
        self.values = {
            section: {key: spec[0] for key, spec in keys.items()}
            for section, keys in SCHEMA.items()
        }

    def _set(self, section: str, key: str, raw: str) -> None:
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        default, kind, _ = SCHEMA[section][key]
        value = AUTO if raw == AUTO == default else _parse_value(raw, kind, f"[{section}] {key}")
        check(section, key, value)
        self.values[section][key] = value

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        cfg, section, seen = cls(), None, {}
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
            first = seen.setdefault((section, key), lineno)
            if first != lineno:
                raise ConfigError(f"[{section}] {key} is set twice, on lines {first} and {lineno}")
        return cfg

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.parse(text)

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
        return _build(ViTConfig, self.values["model"])

    def peft_spec(self, override: str | None = None) -> PeftSpec | None:
        """The [peft] method's spec, or `override`'s (the --peft flag) when given."""
        if override:
            check("peft", "method", override, "--peft: ")
        method, p = override or self.values["peft"]["method"], self.values["peft"]
        if method == "none":
            return None
        return _build(MECHANISMS[method],
                      {**p, "mode": p["vpt_mode"], "targets": _items(p["lora_targets"])})

    def mae_config(self) -> MaeConfig:
        """The [pretext] MAE settings; with task = mae the decoder must be >= 1 wide."""
        cfg = _build(MaeConfig, self.values["pretext"])
        embed_dim = self.values["model"]["embed_dim"]
        if self.values["pretext"]["task"] == "mae" and cfg.decoder_width(embed_dim) < 1:
            raise ConfigError(
                f"[pretext] decoder_dim = {cfg.decoder_dim} makes the MAE decoder "
                f"[model] embed_dim // 2 = {embed_dim // 2} wide; set decoder_dim >= 1")
        return cfg

    def dino_config(self) -> DinoConfig:
        return _build(DinoConfig, self.values["pretext"])

    def adamw_spec(self) -> AdamWSpec:
        return _build(AdamWSpec, self.values["stage"])

    def head_spec(self, task: str, num_classes: int):
        if task == "classification":
            return ClassificationSpec(num_classes=num_classes)
        return SegmentationSpec(num_classes=max(2, num_classes))

    def _check_split_sizes(self) -> None:
        """Refuse a count whose images would pass MAX_SPLIT_BYTES, before any is made."""
        m = self.values["model"]
        per_image = m["num_channels"] * m["image_size"] ** 2 * 8
        for split in ("train", "val", "test"):
            count = self.values["data"][f"{split}_count"]
            if count * per_image > MAX_SPLIT_BYTES:
                raise ConfigError(
                    f"[data] {split}_count = {count} at [model] image_size = {m['image_size']} "
                    f"needs {count * per_image} bytes of images, over the {MAX_SPLIT_BYTES} "
                    f"a split may take")

    def load_data(self, seed: int) -> SplitDatasets:
        d = self.values["data"]
        if d["kind"] == "folder":
            if not d["path"]:
                raise ConfigError("[data] kind=folder requires a path")
            size = self.values["model"]["image_size"]
            splits = SplitDatasets(
                train=load_folder(f"{d['path']}/train", image_size=size),
                val=load_folder(f"{d['path']}/val", image_size=size),
                test=load_folder(f"{d['path']}/test", image_size=size))
        else:
            self._check_split_sizes()
            spec = _build(SyntheticTaskSpec, {
                **d, "image_size": self.values["model"]["image_size"],
                "kind": "textured_shapes_cls" if d["kind"] == "synthetic_cls" else "blob_seg"})
            splits = generate_synthetic(spec, SeededRng(seed, "data"))
        ratio = d["annotation_ratio"]
        if ratio != 1.0:
            splits = SplitDatasets(train=subset(splits.train, ratio, seed),
                                   val=splits.val, test=splits.test)
        return splits
