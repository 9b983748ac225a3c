"""Self-supervised objectives for the target-parameter pre-training stage.

Two pretext tasks are provided:

* masked patch reconstruction: hide a fixed fraction of patches, encode
  the visible ones, decode the full sequence with a shared mask token,
  and take the MSE over masked patch pixels only;
* self-distillation: a student matches, through a temperature-scaled
  cross-entropy, the centered and sharpened outputs of a momentum
  teacher over multiple augmented views.

The teacher shares the frozen backbone tensors and keeps EMA copies of
exactly the parameters being trained; it is evaluated with gradient
recording off, so no teacher parameter can ever receive a gradient.

Each has the step interface of every `pipeline` objective: `step_loss`
gives the loss of a batch's rows, `after_step` runs after the optimizer
step, and `scores_val` is False. The MAE draws one mask per sample, keyed
by its dataset index; the DINO `after_step` updates the teacher and center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from . import tensor as T
from .errors import ArgumentError, StateError
from .registry import ParamGroup, ParamRegistry
from .rng import SeededRng
from .tensor import Tensor
from .vit import LayerNorm, Linear, TransformerBlock, VisionTransformer, patchify


# -- masking ---------------------------------------------------------------


def sample_mask(rng: SeededRng, num_patches: int, mask_ratio: float):
    """Split a uniform random permutation of patch indices into (visible, masked).

    Exactly round(mask_ratio * num_patches) indices are masked on every
    draw. Both index arrays come back sorted so downstream gathers keep
    patch order.
    """
    if not 0.0 < mask_ratio < 1.0:
        raise ArgumentError(f"mask_ratio must be in (0,1), got {mask_ratio}")
    if num_patches < 2:
        raise ArgumentError(f"need at least 2 patches, got {num_patches}")
    num_masked = round(mask_ratio * num_patches)
    if num_masked == 0 or num_masked == num_patches:
        raise ArgumentError(
            f"mask_ratio {mask_ratio} leaves {'no masked' if num_masked == 0 else 'no visible'} "
            f"patches for N={num_patches}"
        )
    perm = rng.permutation(num_patches)
    masked = np.sort(perm[:num_masked])
    visible = np.sort(perm[num_masked:])
    return visible, masked


# -- masked reconstruction ------------------------------------------------


@dataclass(frozen=True)
class MaeConfig:
    mask_ratio: float = 0.75
    decoder_dim: int = 0          # 0: embed_dim // 2
    decoder_depth: int = 1
    norm_pix_targets: bool = False

    def decoder_width(self, embed_dim: int) -> int:
        """decoder_dim, or embed_dim // 2 when decoder_dim is 0."""
        return self.decoder_dim if self.decoder_dim > 0 else embed_dim // 2


def _decoder_heads(dim: int) -> int:
    for h in (4, 2, 1):
        if dim % h == 0:
            return h
    return 1


class MaskedReconstruction:
    """Lightweight decoder over an encoder backbone, trained to fill masked patches.

    Decoder parameters live under ``pretext.mae.*`` with group Head; they
    are stage scaffolding, inheritable across stages but never part of a
    Target-group checkpoint.
    """

    PREFIX = "pretext.mae"
    scores_val = False
    augment_policy = "none"  # the stage's, from `start_stage`

    def __init__(self, model: VisionTransformer, cfg: MaeConfig, rng: SeededRng):
        self.model = model
        self.cfg = cfg
        vit_cfg = model.cfg
        registry = model.registry
        dd = cfg.decoder_width(vit_cfg.embed_dim)
        if dd < 1:
            raise ArgumentError(f"decoder_dim = {cfg.decoder_dim} at embed_dim = "
                                f"{vit_cfg.embed_dim} makes the MAE decoder {dd} wide")
        group = ParamGroup.HEAD
        self.enc2dec = Linear(registry, rng.child("enc2dec"), f"{self.PREFIX}.enc2dec",
                              vit_cfg.embed_dim, dd, group)
        self.mask_token = registry.register(
            f"{self.PREFIX}.mask_token", rng.child("mask_token").trunc_normal((dd,)), group)
        self.dec_pos = registry.register(
            f"{self.PREFIX}.dec_pos",
            rng.child("dec_pos").trunc_normal((vit_cfg.num_patches + 1, dd)), group)
        self.blocks = [
            TransformerBlock(registry, rng.child(f"block{i}"),
                             f"{self.PREFIX}.blocks.{i}", dd, _decoder_heads(dd),
                             dd * 2, group)
            for i in range(cfg.decoder_depth)
        ]
        self.ln = LayerNorm(registry, f"{self.PREFIX}.ln", dd, group)
        self.pred = Linear(registry, rng.child("pred"), f"{self.PREFIX}.pred",
                           dd, vit_cfg.patch_dim, group)

    def start_stage(self, augment_policy: str) -> None:
        """Augment the rows of the stage's steps under `augment_policy`."""
        self.augment_policy = augment_policy

    def step_loss(self, images: np.ndarray, indices, rng: SeededRng, epoch: int) -> Tensor:
        """The loss of the rows `images[indices]`, augmented from the stream
        `rng.child(f"augment/epoch{epoch}")` and masked from `mask/epoch{epoch}`."""
        augment = rng.child(f"augment/epoch{epoch}")
        batch = Tensor(batch_images(images, indices, self.augment_policy, augment))
        return self.loss(batch, rng.child(f"mask/epoch{epoch}"), indices)

    def after_step(self) -> None:
        """Nothing: no state carries from one step to the next."""

    def loss(self, images: Tensor, rng: SeededRng, sample_keys) -> Tensor:
        """One masked-reconstruction loss over a batch of [B,C,H,W] images."""
        pred, targets, mask_bool = self.forward(images, rng, sample_keys)
        return T.mse_masked(pred, targets, mask_bool)

    def forward(self, images: Tensor, rng: SeededRng, sample_keys):
        """Predictions, per-patch pixel targets, and the boolean patch mask.

        Row b's mask draws from the sub-stream `rng.child(f"sample{k}")`,
        k = sample_keys[b] (its dataset index), so a sample's mask does not
        depend on batch order or batch composition.
        """
        vit_cfg = self.model.cfg
        n = vit_cfg.num_patches
        visible_rows = []
        mask_bool = np.zeros((images.shape[0], n), dtype=bool)
        for b, key in enumerate(sample_keys):
            vis, masked = sample_mask(rng.child(f"sample{key}"), n, self.cfg.mask_ratio)
            visible_rows.append(vis)
            mask_bool[b, masked] = True
        vis_idx = np.stack(visible_rows)

        patches = patchify(images, vit_cfg.patch_size)  # [B,N,patch_dim]
        targets = patches.data
        if self.cfg.norm_pix_targets:
            mu = targets.mean(axis=-1, keepdims=True)
            var = targets.var(axis=-1, keepdims=True)
            targets = (targets - mu) / np.sqrt(var + 1e-6)
        targets = Tensor(targets)

        tokens = T.take_tokens(self.model.embed_patches(patches), vis_idx)
        feats = self.model.forward_features(tokens)

        dec = self.enc2dec(feats)  # [B, 1+V, dd]
        full = T.scatter_tokens(T.narrow(dec, 1, 1, vis_idx.shape[1]), vis_idx,
                                self.mask_token, n)
        x = T.add(T.concat([T.narrow(dec, 1, 0, 1), full], axis=1), self.dec_pos)
        for block in self.blocks:
            x = block(x)
        x = self.ln(x)
        pred = self.pred(T.narrow(x, 1, 1, n))
        return pred, targets, mask_bool


# -- self-distillation ------------------------------------------------------


@dataclass(frozen=True)
class DinoConfig:
    teacher_momentum: float = 0.996
    center_momentum: float = 0.9
    teacher_temp: float = 0.04
    student_temp: float = 0.1
    head_output_dim: int = 256
    num_global_views: int = 2
    num_local_views: int = 2

    def __post_init__(self):
        if not 0.0 <= self.teacher_momentum < 1.0:
            raise ArgumentError(f"teacher_momentum must be in [0,1), got {self.teacher_momentum}")
        if not 0.0 <= self.center_momentum < 1.0:
            raise ArgumentError(f"center_momentum must be in [0,1), got {self.center_momentum}")
        if self.num_global_views < 2:
            raise ArgumentError("self-distillation needs at least 2 global views")
        if self.head_output_dim < 1:
            raise ArgumentError(f"head_output_dim must be >= 1, got {self.head_output_dim}")


class ProjectionHead:
    """Two-layer MLP from the class token to the distillation output space.

    Registered under ``pretext.dino_head.*`` with group Target: the head is
    trained during the pretext stage and discarded before fine-tuning.
    """

    PREFIX = "pretext.dino_head"

    def __init__(self, embed_dim: int, out_dim: int, registry: ParamRegistry, rng: SeededRng):
        self.fc1 = Linear(registry, rng.child("fc1"), f"{self.PREFIX}.fc1",
                          embed_dim, embed_dim, ParamGroup.TARGET)
        self.fc2 = Linear(registry, rng.child("fc2"), f"{self.PREFIX}.fc2",
                          embed_dim, out_dim, ParamGroup.TARGET)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(x)))


def teacher_update(teacher: dict[str, np.ndarray], registry: ParamRegistry, momentum: float) -> None:
    """EMA: every tracked teacher parameter t <- m*t + (1-m)*student."""
    for name in teacher:
        student = registry.get(name).data
        if teacher[name].shape != student.shape:
            raise StateError(f"teacher/student structure mismatch at {name}")
        teacher[name] = momentum * teacher[name] + (1.0 - momentum) * student


def center_update(center: np.ndarray, teacher_outputs: np.ndarray, momentum: float) -> np.ndarray:
    """center <- c*center + (1-c) * batch mean of pre-softmax teacher outputs."""
    return momentum * center + (1.0 - momentum) * teacher_outputs.mean(axis=0)


def dino_loss(student_logits: list[Tensor], teacher_logits: np.ndarray,
              center: np.ndarray, cfg: DinoConfig) -> Tensor:
    """Mean cross-entropy over (teacher global view, student view) pairs.

    `teacher_logits` stacks the teacher outputs of the global views on the
    batch axis, view 0 first. Teacher probabilities are softmax((t -
    center)/teacher_temp) with no gradient; pairs where the student view
    index equals the teacher's global view index are skipped.
    """
    if cfg.teacher_temp <= 0 or cfg.student_temp <= 0:
        raise ArgumentError("temperatures must be > 0")
    g, bsz = cfg.num_global_views, student_logits[0].shape[0]
    if teacher_logits.shape[0] != g * bsz:
        raise ArgumentError(f"teacher logits have {teacher_logits.shape[0]} rows, expected "
                            f"{g} global views x batch {bsz}")
    probs = T.softmax((teacher_logits - center) / cfg.teacher_temp)
    terms = [T.soft_cross_entropy(probs[t * bsz:(t + 1) * bsz], s, cfg.student_temp)
             for t in range(g) for v, s in enumerate(student_logits) if v != t]
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    return T.mul(total, 1.0 / len(terms))


class SelfDistillation:
    """Student/teacher pair over one instrumented backbone.

    The teacher holds EMA buffers for every parameter trainable at a
    stage's first step (the stage's trainable set) and shares all frozen
    tensors with the student. Teacher forwards run with grad recording off
    and the buffers temporarily swapped in.
    """

    scores_val = False

    def __init__(self, model: VisionTransformer, cfg: DinoConfig, rng: SeededRng):
        self.model = model
        self.cfg = cfg
        self.head = ProjectionHead(model.cfg.embed_dim, cfg.head_output_dim,
                                   model.registry, rng.child("head"))
        self.teacher: dict[str, np.ndarray] | None = None
        self.center = np.zeros(cfg.head_output_dim)
        self.teacher_out: np.ndarray | None = None  # the last step's, global views stacked

    def student_forward(self, images: Tensor) -> Tensor:
        """[B,C,H,W] -> [B, head_output_dim]: the projection of the class feature.

        Only the class token is read, so the backbone runs with `cls_only`
        and its last block skips the patch rows (see `forward_features`).
        """
        feats = self.model.forward_images(images, cls_only=True)
        bsz, _, d = feats.shape
        return self.head(T.reshape(feats, (bsz, d)))

    def teacher_forward(self, images: Tensor) -> np.ndarray:
        if self.teacher is None:
            raise StateError("no teacher yet: a stage's first step_loss takes it")
        with self.model.registry.swap(self.teacher), T.no_grad():
            return self.student_forward(images).data

    def start_stage(self, augment_policy: str) -> None:
        """Drop the teacher for the stage's first `step_loss` to retake; the views
        keep their own augmentation policies."""
        self.teacher = None

    def step_loss(self, images: np.ndarray, indices, rng: SeededRng, epoch: int) -> Tensor:
        """The loss over the augmented views of the rows `images[indices]`.

        View v is `batch_images(images, indices, policy, views.child(f"view{v}"))`
        with `views = rng.child(f"dino/epoch{epoch}")`, the global views
        ("dino_global") first, then the local ones ("dino_local"). One teacher
        forward runs over the global views stacked on the batch axis (each row
        keeps the bits of its own view's forward) and its outputs are kept in
        `teacher_out` for `after_step`; the student runs once per view, which
        keeps the order of its weight-gradient sums."""
        if self.teacher is None:  # a stage's first step: after its freezing and re-draw
            self.teacher = {p.name: p.data.copy()
                            for p in self.model.registry.params(trainable=True)}
        rng, g = rng.child(f"dino/epoch{epoch}"), self.cfg.num_global_views
        views = [Tensor(batch_images(images, indices, "dino_global" if v < g else "dino_local",
                                     rng.child(f"view{v}")))
                 for v in range(g + self.cfg.num_local_views)]
        self.teacher_out = self.teacher_forward(T.concat(views[:g], axis=0))
        student_outs = [self.student_forward(v) for v in views]
        return dino_loss(student_outs, self.teacher_out, self.center, self.cfg)

    def after_step(self) -> None:
        """EMA of the teacher, and the center update from the last step's teacher outputs."""
        teacher_update(self.teacher, self.model.registry, self.cfg.teacher_momentum)
        self.center = center_update(self.center, self.teacher_out, self.cfg.center_momentum)


# -- augmentation -------------------------------------------------------------


# shared by every policy: the crop's aspect-ratio range, the blur's sigma
# range and the value at and above which solarize inverts
_CROP_ASPECT = (0.75, 4.0 / 3.0)
_BLUR_SIGMA = (0.1, 1.5)
_SOLARIZE_THRESHOLD = 0.5


@dataclass(frozen=True)
class AugmentPolicy:
    crop_scale: tuple[float, float] | None = None
    hflip_prob: float = 0.0
    brightness: float = 0.0    # multiplicative factor drawn from [1-b, 1+b]
    contrast: float = 0.0
    blur_prob: float = 0.0
    solarize_prob: float = 0.0


POLICIES: dict[str, AugmentPolicy] = {
    "none": AugmentPolicy(),
    "dino_global": AugmentPolicy(crop_scale=(0.5, 1.0), hflip_prob=0.5,
                                 brightness=0.2, contrast=0.2,
                                 blur_prob=0.5, solarize_prob=0.2),
    "dino_local": AugmentPolicy(crop_scale=(0.05, 0.5), hflip_prob=0.5,
                                brightness=0.2, contrast=0.2, blur_prob=0.1),
    "finetune_light": AugmentPolicy(crop_scale=(0.8, 1.0), hflip_prob=0.5),
}


def augment(rng: SeededRng, image: np.ndarray, policy: str | AugmentPolicy) -> np.ndarray:
    """Apply one deterministic augmentation draw to a [C,H,W] image in [0,1].

    The one-row call of `batch_images`' code path, drawing from `rng` itself
    in the order given there. Policy "none" is the identity. Crops are
    resized back to the input resolution, so local views are smaller-area
    crops upsampled to full size.
    """
    return _augment_rows(image[None], [0], _resolve(policy), [rng])[0]


def batch_images(images: np.ndarray, indices, policy: str | AugmentPolicy,
                 rng: SeededRng) -> np.ndarray:
    """[B,C,H,W] rows `images[indices]`; row i is augmented under `policy`
    from the stream `rng.child(f"sample{i}")`, and "none" draws nothing.

    There is one code path: `augment` is its one-row call. A Python loop
    draws each row's parameters, in this order and each only when its
    transform can apply: the crop's area fraction, aspect, top and left;
    the flip coin; the brightness factor; the contrast factor; the blur
    coin, then the blur sigma if it hit; the solarize coin. Then each
    transform runs once over the batch with array ops: the crop-resize as
    a gather (corner-aligned bilinear, as `data.bilinear_resize`), the flip
    folded into its column indices, brightness, contrast, `gaussian_filter`
    on each blurred row, solarize and the clip to [0,1].

    Each row's bits are those of the row-by-row transforms (the tests'
    reference, with which the pinned outputs were recorded), so they depend
    only on its image and its stream. The contrast mean needs care for
    that: numpy sums a row pairwise in its memory order, and a row resized
    by `data.bilinear_resize` comes out in (W, H, C) order, while a flipped
    row was copied, and a row that keeps its size stays, in C order. So a
    resized, unflipped row is summed in (W, H, C) order and every other row
    in C order, each from the C-ordered batch.

    An unknown policy name is an `ArgumentError`, whatever `indices` holds.
    """
    policy = _resolve(policy)
    if policy == POLICIES["none"]:
        return images[indices]
    return _augment_rows(images, indices, policy,
                         [rng.child(f"sample{i}") for i in indices])


def _resolve(policy: str | AugmentPolicy) -> AugmentPolicy:
    if isinstance(policy, AugmentPolicy):
        return policy
    try:
        return POLICIES[policy]
    except KeyError:
        raise ArgumentError(f"unknown augment policy: {policy!r}") from None


def _augment_rows(images: np.ndarray, indices, policy: AugmentPolicy, rngs) -> np.ndarray:
    """`batch_images`' work on the rows `images[indices]`, row r drawing from `rngs[r]`."""
    n, (c, h, w) = len(rngs), images.shape[1:]
    tops, lefts, chs, cws = [0] * n, [0] * n, [h] * n, [w] * n
    flips, sigmas, solar = np.zeros(n, bool), [None] * n, np.zeros(n, bool)
    bright, contrast = np.empty(n), np.empty(n)
    for r, rng in enumerate(rngs):
        if policy.crop_scale is not None:
            area = rng.uniform(low=policy.crop_scale[0], high=policy.crop_scale[1]) * h * w
            aspect = rng.uniform(low=_CROP_ASPECT[0], high=_CROP_ASPECT[1])
            chs[r] = min(max(round(math.sqrt(area / aspect)), 1), h)
            cws[r] = min(max(round(math.sqrt(area * aspect)), 1), w)
            tops[r] = int(rng.integers(0, h - chs[r] + 1))
            lefts[r] = int(rng.integers(0, w - cws[r] + 1))
        if policy.hflip_prob > 0:
            flips[r] = rng.random() < policy.hflip_prob
        if policy.brightness > 0:
            bright[r] = rng.uniform(low=1 - policy.brightness, high=1 + policy.brightness)
        if policy.contrast > 0:
            contrast[r] = rng.uniform(low=1 - policy.contrast, high=1 + policy.contrast)
        if policy.blur_prob > 0 and rng.random() < policy.blur_prob:
            sigmas[r] = rng.uniform(low=_BLUR_SIGMA[0], high=_BLUR_SIGMA[1])
        if policy.solarize_prob > 0:
            solar[r] = rng.random() < policy.solarize_prob

    chs, cws = np.array(chs, dtype=np.intp), np.array(cws, dtype=np.intp)
    resized = (chs != h) | (cws != w)
    ys, xs = _sample_points(chs, h), _sample_points(cws, w)
    xs[flips] = xs[flips, ::-1]  # a flipped row reads its columns right to left
    y0, x0 = np.floor(ys).astype(np.intp), np.floor(xs).astype(np.intp)
    y1, x1 = np.minimum(y0 + 1, chs[:, None] - 1), np.minimum(x0 + 1, cws[:, None] - 1)
    wy, wx = (ys - y0)[:, None, :, None], (xs - x0)[:, None, None, :]
    flat = images[indices].reshape(-1)
    planes = (np.arange(n * c) * (h * w)).reshape(n, c, 1, 1)
    tops, lefts = np.array(tops, dtype=np.intp)[:, None], np.array(lefts, dtype=np.intp)[:, None]

    def at(yy, xx):  # [n,C,H,W], C-ordered: pixel (yy[r, i], xx[r, j]) of row r's crop
        rows, cols = (tops + yy) * w, lefts + xx
        return flat.take(planes + rows[:, None, :, None] + cols[:, None, None, :])

    out = at(y0, x0)  # the rows that keep their size are exact copies, maybe flipped
    if resized.any():
        top = out * (1 - wx) + at(y0, x1) * wx
        bot = at(y1, x0) * (1 - wx) + at(y1, x1) * wx
        out = np.where(resized[:, None, None, None], top * (1 - wy) + bot * wy, out)

    if policy.brightness > 0:
        out *= bright[:, None, None, None]
    if policy.contrast > 0:
        whc = resized & ~flips  # summed in (W, H, C) order; see `batch_images`
        sums = np.empty(n)
        sums[whc] = out[whc].transpose(0, 3, 2, 1).reshape(-1, c * h * w).sum(axis=1)
        sums[~whc] = out[~whc].reshape(-1, c * h * w).sum(axis=1)
        mean = (sums / (c * h * w))[:, None, None, None]
        out -= mean
        out *= contrast[:, None, None, None]
        out += mean
    blurred = np.array([sigma is not None for sigma in sigmas], dtype=bool)
    for r in np.flatnonzero(blurred):
        out[r] = gaussian_filter(out[r], (0.0, sigmas[r], sigmas[r]), mode="nearest")
    if solar.any():
        out[solar] = solarize(out[solar])

    if policy.crop_scale is not None or policy.brightness > 0 or policy.contrast > 0:
        np.clip(out, 0.0, 1.0, out=out)
    else:  # a row that no transform touched is returned as it was, unclipped
        touched = flips | blurred | solar
        out[touched] = np.clip(out[touched], 0.0, 1.0)
    return out


def _sample_points(sizes: np.ndarray, n: int) -> np.ndarray:
    """Row r is `np.linspace(0.0, sizes[r] - 1.0, n)` bit for bit: the source
    coordinates of a corner-aligned resize from sizes[r] points to n.

    Size-1 rows are left at 0: one zero step in a batched `linspace` sends
    every row through its zero-step formula, which rounds differently.
    """
    out = np.zeros((len(sizes), n))
    wide = sizes > 1
    out[wide] = np.linspace(0.0, sizes[wide] - 1.0, n, axis=-1)
    return out


def solarize(image: np.ndarray) -> np.ndarray:
    """Invert values at or above 0.5."""
    return np.where(image >= _SOLARIZE_THRESHOLD, 1.0 - image, image)
