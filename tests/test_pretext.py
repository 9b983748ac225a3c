"""Pretext objectives: masking contracts, reconstruction loss, distillation EMA."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from tpp import tensor as T
from tpp.errors import ArgumentError
from tpp.optim import AdamW
from tpp.peft import AdapterSpec, attach
from tpp.pipeline import build_bundle
from tpp.pretext import (POLICIES, AugmentPolicy, DinoConfig, MaeConfig,
                         MaskedReconstruction, SelfDistillation,
                         augment, batch_images, center_update, dino_loss, gaussian_filter,
                         sample_mask, solarize, teacher_update)
from tpp.registry import ParamGroup, ParamRegistry
from tpp.rng import SeededRng
from tpp.vit import ViTConfig

from _fixtures import reference_bilinear_resize
from conftest import finite_difference, rel_err_tensor, run_forward_loss

TINY = ViTConfig(image_size=16, patch_size=4, embed_dim=16, depth=2, num_heads=2)


class TestSampleMask:
    def test_paper_scale_masks_exactly_147_of_196(self):
        for draw in range(5):
            visible, masked = sample_mask(SeededRng(draw), 196, 0.75)
            assert len(masked) == 147 and len(visible) == 49

    def test_four_patches_three_masked(self):
        visible, masked = sample_mask(SeededRng(0), 4, 0.75)
        assert len(masked) == 3 and len(visible) == 1

    def test_disjoint_and_covering(self):
        visible, masked = sample_mask(SeededRng(1), 17, 0.6)
        union = np.sort(np.concatenate([visible, masked]))
        assert np.array_equal(union, np.arange(17))

    def test_degenerate_ratios_rejected(self):
        with pytest.raises(ArgumentError):
            sample_mask(SeededRng(0), 8, 0.01)   # rounds to zero masked
        with pytest.raises(ArgumentError):
            sample_mask(SeededRng(0), 8, 0.99)   # rounds to zero visible
        with pytest.raises(ArgumentError):
            sample_mask(SeededRng(0), 8, 1.5)

    def test_masking_frequency_is_uniform(self):
        counts = np.zeros(8)
        draws = 10_000
        rng = SeededRng(7)
        for i in range(draws):
            _, masked = sample_mask(rng.child(f"d{i}"), 8, 0.75)
            counts[masked] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 0.75) < 0.02)

    def test_deterministic_under_seed(self):
        a = sample_mask(SeededRng(3, "m"), 64, 0.75)
        b = sample_mask(SeededRng(3, "m"), 64, 0.75)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _mae_setup(seed=0, mae_cfg=MaeConfig()):
    bundle = build_bundle(TINY, seed)
    model, reg = bundle.backbone, bundle.registry
    attach(model, AdapterSpec(bottleneck=4), SeededRng(seed, "init/peft"))
    mae = MaskedReconstruction(model, mae_cfg, SeededRng(seed, "init/mae"))
    return model, reg, mae


class TestMaskedReconstruction:
    def test_loss_is_bit_invariant_to_visible_target_changes(self):
        model, reg, mae = _mae_setup()
        images = np.random.default_rng(0).random((2, 1, 16, 16))
        with T.no_grad():
            pred, targets, mask = mae.forward(T.Tensor(images), SeededRng(9, "mask"), range(2))
            base = T.mse_masked(pred, targets, mask).data.copy()
            mutated = targets.data.copy()
            mutated[~mask] += np.random.default_rng(1).standard_normal(
                ((~mask).sum(), TINY.patch_dim)) * 10
            again = T.mse_masked(pred, T.Tensor(mutated), mask).data.copy()
        assert again == base  # bit-identical

    def test_norm_pix_targets_standardize_each_patch_of_the_plain_targets(self):
        images = T.Tensor(np.random.default_rng(2).random((3, 1, 16, 16)))
        with T.no_grad():
            _, plain, _ = _mae_setup()[2].forward(images, SeededRng(9, "mask"), range(3))
            normed = _mae_setup(mae_cfg=MaeConfig(norm_pix_targets=True))[2].forward(
                images, SeededRng(9, "mask"), range(3))[1]
        t = plain.data  # [B, N, patch_dim]: each patch's pixels on the last axis
        mean = t.sum(axis=-1, keepdims=True) / TINY.patch_dim
        var = ((t - mean) ** 2).sum(axis=-1, keepdims=True) / TINY.patch_dim
        assert np.max(np.abs(normed.data - (t - mean) / np.sqrt(var + 1e-6))) <= 1e-12
        assert np.max(np.abs(normed.data - t)) > 0.1

    def test_exact_reconstruction_of_masked_targets_gives_zero_loss(self):
        _, _, mae = _mae_setup()
        images = np.random.default_rng(1).random((2, 1, 16, 16))
        n = TINY.num_patches
        pred = np.zeros((2, n, TINY.patch_dim))
        from tpp.vit import patchify
        targets = patchify(T.Tensor(images), TINY.patch_size).data
        mask = np.zeros((2, n), dtype=bool)
        mask[:, : n // 2] = True
        pred[mask] = targets[mask]  # visible-position predictions stay wrong
        loss = T.mse_masked(T.Tensor(pred), T.Tensor(targets), mask)
        assert loss.data == 0.0

    def test_fifty_tpp_steps_reduce_loss(self):
        model, reg, mae = _mae_setup(seed=2)
        reg.set_group_trainable(ParamGroup.BACKBONE, False)
        images = np.random.default_rng(3).random((8, 1, 16, 16))
        opt = AdamW(reg.params(trainable=True))
        rng = SeededRng(4, "steps")
        losses = []
        for step in range(50):
            loss = mae.step_loss(images, range(8), rng.child(f"s{step}"), 0)
            losses.append(float(loss.data))
            T.backward(loss)
            opt.step(lr=1e-3, weight_decay=0.0)
            opt.zero_grad()
            T.clear_tape()
        assert losses[-1] < losses[0]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_backbone_gets_no_gradients_during_tpp(self):
        model, reg, mae = _mae_setup(seed=5)
        reg.set_group_trainable(ParamGroup.BACKBONE, False)
        images = np.random.default_rng(6).random((2, 1, 16, 16))
        T.backward(mae.step_loss(images, range(2), SeededRng(7, "mask"), 0))
        assert all(p.grad is None for p in reg.params(group=ParamGroup.BACKBONE))
        assert all(p.grad is not None
                   for p in reg.params(group=ParamGroup.TARGET))


    def test_a_decoder_zero_wide_is_rejected(self):
        # decoder_dim = 0 resolves to embed_dim // 2, which is 0 at embed_dim = 1
        one = ViTConfig(image_size=16, patch_size=4, embed_dim=1, depth=1, num_heads=1)
        with pytest.raises(ArgumentError, match="decoder 0 wide"):
            MaskedReconstruction(build_bundle(one, 0).backbone, MaeConfig(),
                                 SeededRng(0, "init/mae"))

    @pytest.mark.parametrize("field, value", [("decoder_dim", -5), ("decoder_depth", -2)])
    def test_a_negative_decoder_size_fails_at_construction(self, field, value):
        # decoder_dim = -5 used to act as 0 ("auto"), decoder_depth = -2 built no block
        with pytest.raises(ArgumentError, match=f"{field} must be >= 0, got {value}"):
            MaeConfig(**{field: value})
        assert MaeConfig(decoder_dim=0, decoder_depth=0).decoder_width(16) == 8


class TestTeacherEma:
    def _scalar_registry(self, value: float) -> ParamRegistry:
        reg = ParamRegistry()
        reg.register("w", np.array([value]), ParamGroup.TARGET)
        return reg

    def test_momentum_one_keeps_teacher(self):
        reg = self._scalar_registry(1.0)
        teacher = {"w": np.array([0.5])}
        teacher_update(teacher, reg, momentum=1.0)
        assert teacher["w"][0] == 0.5

    def test_momentum_zero_copies_student(self):
        reg = self._scalar_registry(1.0)
        teacher = {"w": np.array([0.5])}
        teacher_update(teacher, reg, momentum=0.0)
        assert teacher["w"][0] == 1.0

    def test_geometric_series_closed_form(self):
        reg = self._scalar_registry(1.0)
        teacher = {"w": np.array([0.0])}
        for k in range(1, 26):
            teacher_update(teacher, reg, momentum=0.9)
            assert abs(teacher["w"][0] - (1.0 - 0.9 ** k)) < 1e-12

    def test_center_update_closed_form(self):
        center = np.zeros(3)
        v = np.array([2.0, -1.0, 0.5])
        outputs = np.tile(v, (4, 1))
        for k in range(1, 26):
            center = center_update(center, outputs, momentum=0.9)
            assert np.max(np.abs(center - v * (1.0 - 0.9 ** k))) < 1e-12

    def test_center_momentum_one_is_identity(self):
        center = np.array([1.0, 2.0])
        out = center_update(center, np.random.default_rng(0).random((5, 2)), 1.0)
        assert np.array_equal(out, center)

    def test_center_length_invariant(self):
        center = np.zeros(7)
        out = center_update(center, np.random.default_rng(1).random((3, 7)), 0.9)
        assert out.shape == (7,)


class TestDinoLoss:
    def test_matched_case_equals_teacher_entropy(self):
        cfg = DinoConfig(teacher_temp=0.1, student_temp=0.1, head_output_dim=4)
        logits = np.random.default_rng(2).standard_normal((3, 4))
        center = np.zeros(4)
        teacher = np.concatenate([logits, logits])
        student = [T.Tensor(logits), T.Tensor(logits.copy())]
        loss = dino_loss(student, teacher, center, cfg)
        z = logits / 0.1
        z = z - z.max(axis=-1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        entropy = float(-(p * np.log(p)).sum(axis=-1).mean())
        assert abs(float(loss.data) - entropy) < 1e-12

    def test_sharpening_limit(self):
        cfg = DinoConfig(teacher_temp=0.04, student_temp=1.0, head_output_dim=2)
        teacher = np.array([[10.0, -10.0], [10.0, -10.0]])
        student_logits = np.array([[0.3, -0.2]])
        student = [T.Tensor(student_logits), T.Tensor(student_logits.copy())]
        loss = dino_loss(student, teacher, np.zeros(2), cfg)
        z = student_logits
        logp = z - np.log(np.exp(z).sum())
        assert abs(float(loss.data) - (-logp[0, 0])) < 1e-9

    def test_loss_is_nonnegative(self):
        cfg = DinoConfig(head_output_dim=6)
        rng = np.random.default_rng(3)
        teacher = rng.standard_normal((2 * 4, 6))
        student = [T.Tensor(rng.standard_normal((4, 6))) for _ in range(4)]
        loss = dino_loss(student, teacher, rng.standard_normal(6), cfg)
        assert float(loss.data) >= 0.0

    @pytest.mark.parametrize("name, value", [("teacher_temp", 0.0), ("student_temp", -1.0),
                                             ("teacher_temp", float("nan")),
                                             ("student_temp", float("nan"))])
    def test_a_temperature_not_above_zero_fails_at_construction(self, name, value):
        with pytest.raises(ArgumentError, match=f"{name} must be > 0, got {value}"):
            DinoConfig(**{name: value})

    def test_a_negative_local_view_count_fails_at_construction(self):
        with pytest.raises(ArgumentError, match="num_local_views must be >= 0, got -1"):
            DinoConfig(num_local_views=-1)

    def test_student_head_gradient_matches_finite_differences(self):
        bundle = build_bundle(TINY, 8)
        model, reg = bundle.backbone, bundle.registry
        attach(model, AdapterSpec(bottleneck=2), SeededRng(8, "init/peft"))
        reg.set_group_trainable(ParamGroup.BACKBONE, False)
        cfg = DinoConfig(head_output_dim=8, num_local_views=0)
        dist = SelfDistillation(model, cfg, SeededRng(8, "init/dino"))
        images = np.random.default_rng(9).random((2, 1, 16, 16))

        def loss():  # the same rng path draws the same views on every call
            return dist.step_loss(images, np.arange(2), SeededRng(9, "stage"), 0)

        T.backward(loss())
        for name in ("pretext.dino_head.fc2.weight", "pretext.dino_head.fc1.weight"):
            p = reg.get(name)
            fd = finite_difference(lambda: run_forward_loss(loss), p.data)
            assert rel_err_tensor(p.grad, fd) < 1e-4, name

    def test_teacher_holds_no_gradients_after_backward(self):
        bundle = build_bundle(TINY, 10)
        model, reg = bundle.backbone, bundle.registry
        attach(model, AdapterSpec(bottleneck=2), SeededRng(10, "init/peft"))
        reg.set_group_trainable(ParamGroup.BACKBONE, False)
        dist = SelfDistillation(model, DinoConfig(head_output_dim=8, num_local_views=1),
                                SeededRng(10, "init/dino"))
        images = np.random.default_rng(11).random((2, 1, 16, 16))
        T.backward(dist.step_loss(images, np.arange(2), SeededRng(11, "stage"), 0))
        # teacher buffers are plain arrays; the frozen backbone holds no grads
        assert all(p.grad is None for p in reg.params(group=ParamGroup.BACKBONE))
        assert dist.teacher_out.shape == (2 * 2, 8)  # the 2 global views, stacked
        dist.after_step()  # EMA + center update run cleanly
        assert dist.center.shape == (8,)


class TestAugment:
    def test_none_policy_is_identity(self):
        img = np.random.default_rng(12).random((1, 16, 16))
        out = augment(SeededRng(0, "aug"), img, "none")
        assert np.array_equal(out, img)

    def test_solarize_definition(self):
        assert solarize(np.array([[[0.8]]]))[0, 0, 0] == pytest.approx(0.2)
        assert solarize(np.array([[[0.3]]]))[0, 0, 0] == 0.3

    def test_deterministic_under_seed(self):
        img = np.random.default_rng(13).random((1, 16, 16))
        a = augment(SeededRng(5, "aug"), img, "dino_global")
        b = augment(SeededRng(5, "aug"), img, "dino_global")
        assert np.array_equal(a, b)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ArgumentError):
            augment(SeededRng(0), np.zeros((1, 4, 4)), "mixup")
        for n in (2, 0):  # also when there is no row to draw for
            with pytest.raises(ArgumentError, match="mixup"):
                batch_images(np.zeros((n, 1, 4, 4)), np.arange(n), "mixup", SeededRng(0))

    def test_jitter_keeps_batch_statistics_within_bounds(self):
        # brightness-only policy on a constant image: mean must stay in
        # [v*(1-b), v*(1+b)] for every draw
        policy = AugmentPolicy(brightness=0.2)
        img = np.full((1, 8, 8), 0.5)
        rng = SeededRng(6, "jitter")
        means = [augment(rng.child(f"{i}"), img, policy).mean() for i in range(1000)]
        assert min(means) >= 0.5 * 0.8 - 1e-12
        assert max(means) <= 0.5 * 1.2 + 1e-12
        # and the draws actually spread over the allowed interval
        assert max(means) - min(means) > 0.15

    def test_global_crops_cover_at_least_half_the_area(self):
        policy = augment.__globals__["POLICIES"]["dino_global"]
        assert policy.crop_scale[0] >= 0.5

    def test_output_stays_in_unit_range(self):
        img = np.random.default_rng(14).random((1, 16, 16))
        for i in range(50):
            out = augment(SeededRng(i, "rng"), img, "dino_global")
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert out.shape == img.shape


def augment_row_by_row(rng: SeededRng, image: np.ndarray, policy: str | AugmentPolicy):
    """One row's augmentation, one transform at a time: the definition that
    `batch_images` and `augment` must reproduce bit for bit.

    It resizes with the tests' own reference, not `data.bilinear_resize`
    (a call of `crop_resize`, which `batch_images` runs), and takes the
    contrast mean of a C-ordered row."""
    if isinstance(policy, str):
        policy = POLICIES[policy]
    out = image
    c, h, w = out.shape
    if policy.crop_scale is not None:
        area = rng.uniform(low=policy.crop_scale[0], high=policy.crop_scale[1]) * h * w
        aspect = rng.uniform(low=0.75, high=4.0 / 3.0)
        ch = int(np.clip(round(np.sqrt(area / aspect)), 1, h))
        cw = int(np.clip(round(np.sqrt(area * aspect)), 1, w))
        top = int(rng.integers(0, h - ch + 1))
        left = int(rng.integers(0, w - cw + 1))
        out = reference_bilinear_resize(out[:, top:top + ch, left:left + cw], h, w)
    if policy.hflip_prob > 0 and rng.random() < policy.hflip_prob:
        out = out[:, :, ::-1].copy()
    if policy.brightness > 0:
        out = out * rng.uniform(low=1 - policy.brightness, high=1 + policy.brightness)
    if policy.contrast > 0:
        factor = rng.uniform(low=1 - policy.contrast, high=1 + policy.contrast)
        mean = out.mean()
        out = (out - mean) * factor + mean
    if policy.blur_prob > 0 and rng.random() < policy.blur_prob:
        sigma = rng.uniform(low=0.1, high=1.5)
        out = np.stack([ndimage.gaussian_filter(ch_img, sigma, mode="nearest") for ch_img in out])
    if policy.solarize_prob > 0 and rng.random() < policy.solarize_prob:
        out = solarize(out)
    return np.clip(out, 0.0, 1.0) if out is not image else out.copy()


ORACLE_POLICIES = {
    **{name: name for name in POLICIES},  # by name, as the stages pass them
    "brightness_only": AugmentPolicy(brightness=0.2),
    "flip_only": AugmentPolicy(hflip_prob=0.5),
    # an area of 4x the image clips both sides: every crop is the whole image
    "full_size_crop": dataclasses.replace(POLICIES["dino_global"], crop_scale=(4.0, 4.0)),
    "one_pixel_crop": dataclasses.replace(POLICIES["dino_global"], crop_scale=(1e-9, 1e-9)),
    # 1-pixel, full-size and resized crops in one batch (no blur or solarize,
    # so a 1-pixel crop stays a constant plane and can be counted)
    "mixed_crops": dataclasses.replace(POLICIES["dino_global"], crop_scale=(1e-9, 2.0),
                                       blur_prob=0.0, solarize_prob=0.0),
}
# C=1 and C=3, square and not; rows small enough that 1-pixel crops are common
ORACLE_SHAPES = [(1, 8, 8), (3, 8, 8), (1, 6, 10), (3, 10, 6)]


def _oracle_batch(seed: int, rows: int = 64):
    """Images of seed's shape, `rows` distinct indices in shuffled order, and a stream.

    Some pixels lie outside [0,1], so the final clip shows which rows it reached.
    """
    images = np.random.default_rng(seed).random((rows + 6,) + ORACLE_SHAPES[seed % 4])
    images = images * 1.2 - 0.1
    indices = np.random.default_rng(seed + 1000).permutation(rows + 6)[:rows]
    return images, indices, SeededRng(seed, "oracle")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedAugment:
    @pytest.mark.parametrize("name", list(ORACLE_POLICIES))
    def test_batch_and_row_calls_match_the_row_by_row_definition_bitwise(self, name):
        policy = ORACLE_POLICIES[name]
        one_pixel_rows = 0
        for seed in range(20):
            images, indices, rng = _oracle_batch(seed)
            want = np.stack([augment_row_by_row(rng.child(f"sample{i}"), images[i], policy)
                             for i in indices])
            got = batch_images(images[indices], indices, policy, rng)
            assert _same_bits(got, want), f"seed {seed}"
            for r, i in enumerate(indices[:8]):
                assert _same_bits(augment(rng.child(f"sample{i}"), images[i], policy), want[r])
            one_pixel_rows += int(np.all(np.ptp(got, axis=(2, 3)) == 0, axis=1).sum())
        if name == "mixed_crops":
            assert one_pixel_rows >= 20

    @pytest.mark.parametrize("name", ["dino_global", "dino_local", "mixed_crops"])
    def test_a_row_depends_only_on_its_stream(self, name):
        policy = ORACLE_POLICIES[name]
        for seed in range(4):
            images, indices, rng = _oracle_batch(seed, rows=16)
            full = batch_images(images[indices], indices, policy, rng)
            reversed_ = batch_images(images[indices[::-1]], indices[::-1], policy, rng)[::-1]
            assert _same_bits(full, reversed_)
            for r, i in enumerate(indices):
                assert _same_bits(batch_images(images[[i]], [i], policy, rng)[0], full[r])


def scipy_blur_rows(rows: np.ndarray, sigmas) -> np.ndarray:
    """`gaussian_filter`'s oracle: scipy's blur of each row on its own."""
    return np.stack([ndimage.gaussian_filter(row, (0.0, s, s), mode="nearest")
                     for row, s in zip(rows, sigmas)])


class TestGaussianFilter:
    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 64), st.integers(1, 64)),
           sigmas=st.lists(st.floats(0.1, 1.5), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(1, 5, 5), sigmas=[0.1], seed=0)  # radius 0: one tap
    @example(shape=(3, 1, 2), sigmas=[1.5, 0.1, 0.7], seed=1)  # sides shorter than the radius
    def test_matches_scipy_row_by_row_bitwise(self, shape, sigmas, seed):
        rows = np.random.default_rng(seed).uniform(-0.5, 1.5, (len(sigmas),) + shape)
        assert _same_bits(gaussian_filter(rows, sigmas), scipy_blur_rows(rows, sigmas))

    @pytest.mark.parametrize("shape", [(1, 32, 32), (3, 4, 9)])
    def test_many_rows_of_every_radius_keep_their_order(self, shape):
        rng = np.random.default_rng(5)
        sigmas = rng.permutation(np.linspace(0.1, 1.5, 40))  # radii 0 to 6, shuffled
        assert set((4.0 * sigmas + 0.5).astype(int)) == set(range(7))
        rows = rng.uniform(-0.5, 1.5, (40,) + shape)
        got = gaussian_filter(rows, sigmas)
        assert _same_bits(got, scipy_blur_rows(rows, sigmas))
        assert _same_bits(gaussian_filter(rows[7:8], sigmas[7:8])[0], got[7])
