"""A small pre-norm Vision Transformer with explicit parameter accounting.

The backbone is deliberately plain: linear patch embedding, learnable
class token and positional embeddings, pre-norm blocks (LN -> MHSA ->
residual, LN -> MLP -> residual), final LN. PEFT mechanisms instrument
layers (SSF on a Linear or LayerNorm output, LoRA on a Linear; each runs
inside its layer's one tape node), blocks (adapters) or the token sequence
(VPT prompts) through slots that stay None until attached, so an
uninstrumented model pays nothing for them. Each block's attention, from its
split heads to their merge, is one `T.attention` node.

Heads are a single linear map from the class token (classification) or a
per-patch linear projection unpatchified to full resolution (segmentation).
A reader of the class token alone (the classification head, the DINO
projection head) asks `forward_features` for `cls_only`: the last block
then computes keys and values over every token, and everything else,
PEFT branches included, on the class token's row only (as CaiT's
class-attention layers do, arXiv 2103.17239).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ArgumentError, ShapeError
from .registry import Param, ParamGroup, ParamRegistry
from .rng import SeededRng
from .tensor import Tensor


@dataclass(frozen=True)
class ViTConfig:
    image_size: int = 32
    patch_size: int = 8
    embed_dim: int = 64
    depth: int = 4
    num_heads: int = 4
    mlp_ratio: float = 4.0
    num_channels: int = 1

    def __post_init__(self):
        for name in ("image_size", "patch_size", "embed_dim", "num_heads", "num_channels"):
            if getattr(self, name) < 1:
                raise ArgumentError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.image_size % self.patch_size != 0:
            raise ArgumentError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim % self.num_heads != 0:
            raise ArgumentError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if not self.embed_dim * self.mlp_ratio >= 1:  # the MLP width, nan included
            raise ArgumentError(
                f"embed_dim * mlp_ratio must be >= 1, got {self.embed_dim} * {self.mlp_ratio}"
            )

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.num_channels * self.patch_size * self.patch_size

    @property
    def mlp_dim(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


@dataclass(frozen=True)
class ClassificationSpec:
    num_classes: int


@dataclass(frozen=True)
class SegmentationSpec:
    num_classes: int


HeadSpec = ClassificationSpec | SegmentationSpec


# -- patch layout ---------------------------------------------------------


def patchify(images: Tensor, patch_size: int) -> Tensor:
    """Split [B,C,H,W] images into row-major [B, N, C*p*p] patches."""
    b, c, h, w = images.shape
    p = patch_size
    if h % p != 0 or w % p != 0:
        raise ArgumentError(f"patchify: dims {h}x{w} not divisible by patch size {p}")
    gh, gw = h // p, w // p
    x = T.reshape(images, (b, c, gh, p, gw, p))
    x = T.transpose(x, (0, 2, 4, 1, 3, 5))
    return T.reshape(x, (b, gh * gw, c * p * p))


def unpatchify(patches: Tensor, patch_size: int, channels: int, image_size: int) -> Tensor:
    """Inverse of patchify: [B, N, C*p*p] back to [B, C, H, W]."""
    b, n, _ = patches.shape
    p = patch_size
    g = image_size // p
    if n != g * g:
        raise ShapeError(f"unpatchify: {n} patches do not tile a {g}x{g} grid")
    x = T.reshape(patches, (b, g, g, channels, p, p))
    x = T.transpose(x, (0, 3, 1, 4, 2, 5))
    return T.reshape(x, (b, channels, g * p, g * p))


# -- building blocks ------------------------------------------------------


class Linear:
    """y = x @ W + b, params under `name`; its LoRA and SSF terms run in its `T.linear` node."""

    def __init__(self, registry: ParamRegistry, rng: SeededRng, name: str,
                 din: int, dout: int, group: ParamGroup,
                 init: str = "trunc_normal"):
        if init == "trunc_normal":
            w = rng.child("w").trunc_normal((din, dout), std=0.02)
        elif init == "zeros":
            w = np.zeros((din, dout))
        else:
            raise ArgumentError(f"unknown init: {init}")
        self.weight = registry.register(f"{name}.weight", w, group)
        self.bias = registry.register(f"{name}.bias", np.zeros(dout), group)
        # PEFT slots, filled by peft.attach
        self.lora = None  # (A: Param, B: Param, scaling: float)
        self.ssf = None   # (gamma: Param, beta: Param)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias, self.lora, self.ssf)


class LayerNorm:
    """LayerNorm of the last axis, params under `name`; its SSF term runs in the same node."""

    def __init__(self, registry: ParamRegistry, name: str, dim: int, group: ParamGroup):
        self.weight = registry.register(f"{name}.weight", np.ones(dim), group)
        self.bias = registry.register(f"{name}.bias", np.zeros(dim), group)
        self.ssf = None  # (gamma: Param, beta: Param), filled by peft.attach

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.weight, self.bias, self.ssf)


class TransformerBlock:
    """Pre-norm block; adapter slots filled by peft.attach, None otherwise."""

    def __init__(self, registry: ParamRegistry, rng: SeededRng, name: str,
                 dim: int, num_heads: int, mlp_dim: int, group: ParamGroup):
        self.num_heads = num_heads
        self.ln1 = LayerNorm(registry, f"{name}.ln1", dim, group)
        self.q = Linear(registry, rng.child("q"), f"{name}.attn.q", dim, dim, group)
        self.k = Linear(registry, rng.child("k"), f"{name}.attn.k", dim, dim, group)
        self.v = Linear(registry, rng.child("v"), f"{name}.attn.v", dim, dim, group)
        self.proj = Linear(registry, rng.child("proj"), f"{name}.attn.proj", dim, dim, group)
        self.ln2 = LayerNorm(registry, f"{name}.ln2", dim, group)
        self.fc1 = Linear(registry, rng.child("fc1"), f"{name}.mlp.fc1", dim, mlp_dim, group)
        self.fc2 = Linear(registry, rng.child("fc2"), f"{name}.mlp.fc2", mlp_dim, dim, group)
        # PEFT instrumentation slots
        self.adapter = None       # (down: Linear, up: Linear)
        self.adaptformer = None   # (down: Linear, up: Linear, scale: float)

    def _attention(self, x: Tensor, cls_only: bool) -> Tensor:
        """Multi-head attention over all of `x`, of every row or, with `cls_only`, row 0."""
        queries = T.narrow(x, 1, 0, 1) if cls_only else x
        return self.proj(T.attention(self.q(queries), self.k(x), self.v(x), self.num_heads))

    def _mlp(self, h: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(h)))

    def __call__(self, x: Tensor, cls_only: bool = False) -> Tensor:
        """[B,S,d] -> [B,S,d]; with `cls_only`, the class token's row [B,1,d] alone.

        Keys and values always come from every token. With `cls_only` the
        query, attention rows, MLP and PEFT branches run on row 0 only, which
        is all a reader of the class feature needs from the last block.
        """
        # no name holds ln1's output, so it is freed once the attention returns
        x = T.add(T.narrow(x, 1, 0, 1) if cls_only else x,
                  self._attention(self.ln1(x), cls_only))
        h = self.ln2(x)
        m = self._mlp(h)
        if self.adapter is not None:
            down, up = self.adapter
            m = T.add(m, up(T.gelu(down(m))))
        out = T.add(x, m)
        if self.adaptformer is not None:
            down, up, s = self.adaptformer
            out = T.add(out, T.mul(up(T.gelu(down(h))), s))
        return out


class VisionTransformer:
    """Backbone: patch embedding, class token, positional embeddings, blocks."""

    def __init__(self, cfg: ViTConfig, registry: ParamRegistry, rng: SeededRng):
        self.cfg = cfg
        self.registry = registry
        d, group = cfg.embed_dim, ParamGroup.BACKBONE
        self.patch_embed = Linear(registry, rng.child("patch_embed"),
                                  "backbone.patch_embed", cfg.patch_dim, d, group)
        self.cls_token = registry.register(
            "backbone.cls_token", rng.child("cls").trunc_normal((d,)), group)
        self.pos_embed = registry.register(
            "backbone.pos_embed",
            rng.child("pos").trunc_normal((cfg.num_patches + 1, d)), group)
        self.blocks = [
            TransformerBlock(registry, rng.child(f"block{i}"),
                             f"backbone.blocks.{i}", d, cfg.num_heads, cfg.mlp_dim, group)
            for i in range(cfg.depth)
        ]
        self.ln = LayerNorm(registry, "backbone.ln", d, group)
        # VPT prompt Params, set by peft.attach: one per block (deep) or one (shallow)
        self.prompts: list[Param] = []
        self.peft_spec = None

    # -- forward -----------------------------------------------------------

    def embed_patches(self, patches: Tensor) -> Tensor:
        """[B,N,patch_dim] patches -> [B,N,embed_dim] tokens, positions added."""
        n = self.cfg.num_patches
        if patches.shape[1] != n:  # a smaller grid would broadcast against the positions
            raise ShapeError(
                f"embed_patches: got {patches.shape[1]} tokens, config builds {n} patches")
        return T.add(self.patch_embed(patches), T.narrow(self.pos_embed, 0, 1, n))

    def _broadcast_rows(self, rows: Tensor, bsz: int) -> Tensor:
        # [K,d] learnable rows tiled to [B,K,d] through a broadcasting add
        k, d = rows.shape
        return T.add(T.reshape(rows, (1, k, d)), T.zeros((bsz, 1, d)))

    def forward_features(self, tokens: Tensor, cls_only: bool = False) -> Tensor:
        """Run class token + patch tokens through the blocks and final LN.

        tokens: [B,K,embed_dim] patch tokens that already carry their
        positions (`embed_patches`): all N of them, or each sample's visible
        ones, which is how the masked-reconstruction encoder sees its input.
        Block i < len(prompts) sees the VPT prompt tokens prompts[i] right
        after the class token, in place of the previous block's; they are
        dropped again before returning, so the output is [B, 1+K, d].

        With `cls_only` the output is the class token's feature alone,
        [B, 1, d]: the last block computes its keys and values over every
        token but everything else, and the final LN, on row 0 only. Row 0
        equals that of the full forward up to float rounding (a one-row GEMM
        sums in another order).
        """
        d = self.cfg.embed_dim
        if tokens.shape[-1] != d:
            raise ShapeError(f"forward_features: token dim {tokens.shape[-1]} != embed_dim {d}")
        bsz, k = tokens.shape[0], tokens.shape[1]
        cls = T.add(self.cls_token, T.narrow(self.pos_embed, 0, 0, 1))
        x = T.concat([self._broadcast_rows(cls, bsz), tokens], axis=1)

        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks):
            if i < len(self.prompts):
                # [cls, block i's prompts, patch tokens]: replaces block i-1's prompts
                x = T.concat([
                    T.narrow(x, 1, 0, 1),
                    self._broadcast_rows(self.prompts[i], bsz),
                    T.narrow(x, 1, x.shape[1] - k, k),
                ], axis=1)
            x = block(x, cls_only=True) if cls_only and i == last else block(x)
        if cls_only and not self.blocks:
            x = T.narrow(x, 1, 0, 1)

        x = self.ln(x)
        if self.prompts and not cls_only:
            x = T.concat([T.narrow(x, 1, 0, 1), T.narrow(x, 1, x.shape[1] - k, k)], axis=1)
        return x

    def forward_images(self, images: Tensor, cls_only: bool = False) -> Tensor:
        """[B,C,H,W] -> [B, 1+N, embed_dim] features, or [B, 1, embed_dim] with `cls_only`."""
        return self.forward_features(self.embed_patches(patchify(images, self.cfg.patch_size)),
                                     cls_only)


class ClassificationHead:
    """Linear map from the class-token representation."""

    def __init__(self, cfg: ViTConfig, spec: ClassificationSpec,
                 registry: ParamRegistry, rng: SeededRng):
        self.spec = spec
        self.fc = Linear(registry, rng.child("fc"), "head.fc",
                         cfg.embed_dim, spec.num_classes, ParamGroup.HEAD)

    def __call__(self, features: Tensor) -> Tensor:
        bsz, _, d = features.shape
        cls = T.reshape(T.narrow(features, 1, 0, 1), (bsz, d))
        return self.fc(cls)


class SegmentationHead:
    """Per-patch linear projection to class*p*p logits, unpatchified."""

    def __init__(self, cfg: ViTConfig, spec: SegmentationSpec,
                 registry: ParamRegistry, rng: SeededRng):
        self.cfg = cfg
        self.spec = spec
        self.proj = Linear(registry, rng.child("proj"), "head.proj",
                           cfg.embed_dim, spec.num_classes * cfg.patch_size ** 2,
                           ParamGroup.HEAD)

    def __call__(self, features: Tensor) -> Tensor:
        bsz, seq, _ = features.shape
        n = self.cfg.num_patches
        if seq != n + 1:
            raise ShapeError(f"segmentation head: expected {n + 1} tokens, got {seq}")
        logits = self.proj(T.narrow(features, 1, 1, n))
        return unpatchify(logits, self.cfg.patch_size, self.spec.num_classes,
                          self.cfg.image_size)


def build_head(cfg: ViTConfig, spec: HeadSpec, registry: ParamRegistry, rng: SeededRng):
    if isinstance(spec, ClassificationSpec):
        return ClassificationHead(cfg, spec, registry, rng)
    if isinstance(spec, SegmentationSpec):
        return SegmentationHead(cfg, spec, registry, rng)
    raise ArgumentError(f"unknown head spec: {spec!r}")

