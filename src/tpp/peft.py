"""Attachable PEFT mechanisms.

Each mechanism adds Target-group parameters to a built backbone (except
BitFit, which re-tags existing biases) and instruments the forward pass
through slots that stay None until attached. A mechanism instruments
layers (SSF scales and shifts each block's Linear and LayerNorm outputs,
LoRA adds a low-rank term to the q/v Linears), blocks (the adapters) or
the token sequence (VPT prompts). All param-adding mechanisms are identity
at initialization: the instrumented forward equals the baseline forward
exactly until a training step changes the new parameters. VPT is the
documented exception, because extra attention keys renormalize the
softmax even when the prompts are zero.

Naming: every added parameter is prefixed with its mechanism name
(adapter., lora., ...) so audits can attribute it at a glance. BitFit
keeps the original backbone names since it adds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, StateError
from .registry import Param, ParamGroup, ParamRegistry
from .rng import SeededRng
from .vit import Linear, VisionTransformer


@dataclass(frozen=True)
class AdapterSpec:
    """Serial bottleneck after each block's MLP output, inside the residual."""
    bottleneck: int = 8


@dataclass(frozen=True)
class AdaptFormerSpec:
    """Parallel bottleneck reading LN2 output, scaled and added to the block output."""
    bottleneck: int = 8
    scale: float = 0.1


@dataclass(frozen=True)
class VptSpec:
    """Learnable prompt tokens inserted after the class token."""
    num_tokens: int = 10
    mode: str = "deep"  # "shallow": layer 0 only; "deep": fresh prompts every layer


@dataclass(frozen=True)
class SsfSpec:
    """Per-channel scale/shift after every linear and layer-norm output in each block."""


@dataclass(frozen=True)
class BitFitSpec:
    """No new parameters; existing bias terms become trainable Target params."""


@dataclass(frozen=True)
class LoraSpec:
    """Low-rank update on attention projections: W x + (alpha/rank) * B(A x)."""
    rank: int = 4
    alpha: float = 4.0
    targets: tuple[str, ...] = ("query", "value")


PeftSpec = AdapterSpec | AdaptFormerSpec | VptSpec | SsfSpec | BitFitSpec | LoraSpec

# the block layers whose outputs SSF scales and shifts (attribute names)
SSF_SITES = ("ln1", "q", "k", "v", "proj", "ln2", "fc1", "fc2")

LORA_TARGET_MAP = {"query": "q", "value": "v"}


def mechanism_name(spec: PeftSpec) -> str:
    return {
        AdapterSpec: "adapter",
        AdaptFormerSpec: "adaptformer",
        VptSpec: "vpt",
        SsfSpec: "ssf",
        BitFitSpec: "bitfit",
        LoraSpec: "lora",
    }[type(spec)]


def attach(model: VisionTransformer, spec: PeftSpec, rng: SeededRng) -> VisionTransformer:
    """Install a PEFT mechanism on a built backbone (once per model)."""
    if model.peft_spec is not None:
        raise StateError(f"a PEFT spec is already attached: {model.peft_spec!r}")
    _install(model, spec, rng, model.registry)
    model.peft_spec = spec
    return model


def reinit_target_params(model: VisionTransformer, rng: SeededRng) -> None:
    """Reset Target params to the mechanism's default (identity-at-init) values.

    Runs attach's own init code through a registry view that overwrites the
    existing params, so under the same rng it draws exactly what `attach`
    draws. BitFit is a no-op: its biases were re-tagged at attach, none is
    left in the Backbone group, and they keep their pre-trained values.
    """
    if model.peft_spec is None:
        raise StateError("no PEFT mechanism attached")
    _install(model, model.peft_spec, rng, _Overwrite(model.registry))


class _Overwrite:
    """Registry view for reinit: `register` overwrites the named param's data."""

    def __init__(self, registry: ParamRegistry):
        self.registry = registry

    def register(self, name: str, data, group: ParamGroup) -> Param:
        param = self.registry.get(name)
        param.data = np.asarray(data, dtype=np.float64)
        return param


def _install(model: VisionTransformer, spec: PeftSpec, rng: SeededRng, registry) -> None:
    """Create the mechanism's params through `registry.register` and fill the slots."""
    cfg = model.cfg
    d = cfg.embed_dim

    if isinstance(spec, (AdapterSpec, AdaptFormerSpec)):
        name = mechanism_name(spec)
        if spec.bottleneck < 1:
            raise ArgumentError(f"{name} bottleneck must be >= 1, got {spec.bottleneck}")
        for i, block in enumerate(model.blocks):
            brng = rng.child(f"block{i}")
            down = Linear(registry, brng.child("down"), f"{name}.blocks.{i}.down",
                          d, spec.bottleneck, ParamGroup.TARGET)
            up = Linear(registry, brng.child("up"), f"{name}.blocks.{i}.up",
                        spec.bottleneck, d, ParamGroup.TARGET, init="zeros")
            if name == "adapter":
                block.adapter = (down, up)
            else:
                block.adaptformer = (down, up, spec.scale)

    elif isinstance(spec, VptSpec):
        if spec.num_tokens < 1:
            raise ArgumentError(f"vpt num_tokens must be >= 1, got {spec.num_tokens}")
        if spec.mode not in ("shallow", "deep"):
            raise ArgumentError(f"vpt mode must be shallow or deep, got {spec.mode!r}")
        layers = range(cfg.depth) if spec.mode == "deep" else range(1)
        model.prompts = [
            registry.register(
                f"vpt.layers.{i}.prompts",
                rng.child(f"layer{i}").trunc_normal((spec.num_tokens, d)),
                ParamGroup.TARGET,
            )
            for i in layers
        ]

    elif isinstance(spec, SsfSpec):
        mlp_dim = cfg.mlp_dim
        for i, block in enumerate(model.blocks):
            for site in SSF_SITES:
                channels = mlp_dim if site == "fc1" else d
                gamma = registry.register(f"ssf.blocks.{i}.{site}.gamma",
                                          np.ones(channels), ParamGroup.TARGET)
                beta = registry.register(f"ssf.blocks.{i}.{site}.beta",
                                         np.zeros(channels), ParamGroup.TARGET)
                getattr(block, site).ssf = (gamma, beta)

    elif isinstance(spec, BitFitSpec):
        # the model's registry, not the view: on reinit no Backbone bias is left
        for p in model.registry.params(group=ParamGroup.BACKBONE):
            if p.name.endswith(".bias"):
                p.group = ParamGroup.TARGET

    elif isinstance(spec, LoraSpec):
        if spec.rank < 1:
            raise ArgumentError(f"lora rank must be >= 1, got {spec.rank}")
        if spec.rank > d:
            raise ArgumentError(f"lora rank {spec.rank} exceeds embed_dim {d}")
        bad = [t for t in spec.targets if t not in LORA_TARGET_MAP]
        if bad:
            raise ArgumentError(f"unknown lora targets: {bad}; allowed: query, value")
        repeated = sorted({t for t in spec.targets if spec.targets.count(t) > 1})
        if repeated:
            raise ArgumentError(f"repeated lora targets: {repeated}")
        scaling = spec.alpha / spec.rank
        for i, block in enumerate(model.blocks):
            brng = rng.child(f"block{i}")
            for target in spec.targets:
                key = LORA_TARGET_MAP[target]
                a = registry.register(f"lora.blocks.{i}.{key}.A",
                                      brng.child(f"{key}A").normal((d, spec.rank), std=0.02),
                                      ParamGroup.TARGET)
                b = registry.register(f"lora.blocks.{i}.{key}.B",
                                      np.zeros((spec.rank, d)), ParamGroup.TARGET)
                getattr(block, key).lora = (a, b, scaling)

    else:
        raise ArgumentError(f"unknown PEFT spec: {spec!r}")

