"""Backbone: patch layout, forward contracts, parameter accounting, freezing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpp import tensor as T
from tpp.errors import ArgumentError, ShapeError
from tpp.optim import AdamW
from tpp.pipeline import build_bundle
from tpp.registry import ParamGroup
from tpp.rng import SeededRng
from tpp.vit import (ClassificationSpec, SegmentationSpec, ViTConfig,
                     build_head, patchify, unpatchify)

from conftest import finite_difference, rel_err_tensor, run_forward_loss

TINY = ViTConfig(image_size=16, patch_size=4, embed_dim=16, depth=2, num_heads=2)


def closed_form_backbone_count(cfg: ViTConfig) -> int:
    """Independent parameter count straight from the architecture definition."""
    d, mlp = cfg.embed_dim, cfg.mlp_dim
    patch_embed = cfg.patch_dim * d + d
    cls_and_pos = d + (cfg.num_patches + 1) * d
    per_block = (2 * d                       # ln1
                 + 4 * (d * d + d)           # q, k, v, proj
                 + 2 * d                     # ln2
                 + d * mlp + mlp             # fc1
                 + mlp * d + d)              # fc2
    final_ln = 2 * d
    return patch_embed + cls_and_pos + cfg.depth * per_block + final_ln


class TestPatchify:
    def test_roundtrip_exact(self):
        x = T.Tensor(np.random.default_rng(0).random((1, 1, 4, 4)))
        patches = patchify(x, 2)
        assert patches.shape == (1, 4, 4)
        back = unpatchify(patches, 2, 1, 4)
        assert np.array_equal(back.data, x.data)

    def test_paper_scale_grid(self):
        x = T.Tensor(np.zeros((1, 3, 224, 224)))
        assert patchify(x, 16).shape == (1, 196, 3 * 16 * 16)

    def test_row_major_patch_order(self):
        # patch 1 of a 4x4 image at p=2 holds pixel rows 0..1, cols 2..3
        img = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        patches = patchify(T.Tensor(img), 2)
        assert patches.data[0, 1].tolist() == [2.0, 3.0, 6.0, 7.0]

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ArgumentError):
            patchify(T.Tensor(np.zeros((1, 1, 5, 4))), 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3))
    def test_property_roundtrip_for_divisible_shapes(self, c, grid, p):
        size = grid * p
        x = np.random.default_rng(c * 10 + grid).random((1, c, size, size))
        back = unpatchify(patchify(T.Tensor(x), p), p, c, size)
        assert np.array_equal(back.data, x)


class TestForwardFeatures:
    def test_zero_depth_is_positional_embedding_plus_final_ln(self):
        cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=0, num_heads=2)
        bundle = build_bundle(cfg, 0)
        model, reg = bundle.backbone, bundle.registry
        tokens = T.Tensor(np.random.default_rng(1).standard_normal((2, 4, 16)))  # patches
        out = model.forward_features(model.embed_patches(tokens))
        pos = reg.get("backbone.pos_embed").data
        cls = reg.get("backbone.cls_token").data
        embedded = model.patch_embed(tokens).data + pos[1:]
        expected_tokens = np.concatenate(
            [np.tile((cls + pos[0])[None, None], (2, 1, 1)), embedded], axis=1)
        gamma = reg.get("backbone.ln.weight").data
        beta = reg.get("backbone.ln.bias").data
        mu = expected_tokens.mean(-1, keepdims=True)
        var = expected_tokens.var(-1, keepdims=True)
        expected = (expected_tokens - mu) / np.sqrt(var + 1e-5) * gamma + beta
        assert np.allclose(out.data, expected, atol=1e-12)
        # with no block to cut, the class feature is still row 0 alone
        cls_only = model.forward_features(model.embed_patches(tokens), cls_only=True)
        assert np.array_equal(cls_only.data, out.data[:, :1])

    def test_patch_tokens_get_no_positions(self):
        # positions are `embed_patches`' job; forward_features positions the class token only
        cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=0, num_heads=2)
        model = build_bundle(cfg, 0).backbone  # final LN at init: unit scale, zero shift
        tokens = np.random.default_rng(1).standard_normal((2, 4, 8))
        out = model.forward_features(T.Tensor(tokens)).data
        centred = tokens - tokens.mean(-1, keepdims=True)
        expected = centred / np.sqrt(tokens.var(-1, keepdims=True) + 1e-5)
        assert np.allclose(out[:, 1:], expected, atol=1e-12)

    def test_output_shape_contract(self):
        cfg = ViTConfig(image_size=32, patch_size=8, embed_dim=32, depth=2, num_heads=4)
        model = build_bundle(cfg, 0).backbone
        tokens = T.Tensor(np.zeros((2, 16, 32)))
        assert model.forward_features(tokens).shape == (2, 17, 32)

    def test_wrong_token_dim_rejected(self):
        model = build_bundle(TINY, 0).backbone
        with pytest.raises(ShapeError):
            model.forward_features(T.Tensor(np.zeros((2, 16, 8))))

    def test_depth1_block_gradients_match_finite_differences(self):
        cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=1, num_heads=2)
        bundle = build_bundle(cfg, 3)
        model, reg = bundle.backbone, bundle.registry
        images = T.Tensor(np.random.default_rng(4).random((2, 1, 8, 8)))
        labels = np.array([0, 1])
        head = build_head(cfg, ClassificationSpec(2), reg, SeededRng(3, "init/head"))

        def loss():
            return T.cross_entropy(head(model.forward_images(images)), labels)

        T.backward(loss())
        for p in reg:
            fd = finite_difference(lambda: run_forward_loss(loss), p.data)
            assert rel_err_tensor(p.grad, fd) < 1e-4, p.name


class TestAccounting:
    def test_group_counts_cover_total(self):
        reg = build_bundle(TINY, 0).registry
        build_head(TINY, ClassificationSpec(3), reg, SeededRng(0, "init/head"))
        total = reg.count()
        by_groups = sum(reg.count(group=g) for g in ParamGroup)
        assert by_groups == total

    def test_all_trainable_ratio_is_100(self):
        reg = build_bundle(TINY, 0).registry
        assert reg.trainable_ratio() == 100.0

    def test_linear_probe_ratio_matches_closed_form(self):
        cfg = ViTConfig(image_size=32, patch_size=8, embed_dim=64, depth=4, num_heads=4)
        reg = build_bundle(cfg, 0).registry
        build_head(cfg, ClassificationSpec(10), reg, SeededRng(0, "init/head"))
        reg.set_group_trainable(ParamGroup.BACKBONE, False)
        head_count = 64 * 10 + 10
        total = closed_form_backbone_count(cfg) + head_count
        assert reg.count() == total
        assert reg.trainable_ratio() == pytest.approx(100.0 * head_count / total, abs=1e-12)

    @pytest.mark.parametrize("mlp_ratio", [0.01, 0.0625 - 1e-12, float("nan")])
    def test_an_mlp_narrower_than_one_unit_is_rejected(self, mlp_ratio):
        with pytest.raises(ArgumentError, match=r"embed_dim \* mlp_ratio must be >= 1"):
            ViTConfig(image_size=16, patch_size=4, embed_dim=16, num_heads=2,
                      mlp_ratio=mlp_ratio)
        assert ViTConfig(embed_dim=16, num_heads=2, mlp_ratio=0.0625).mlp_dim == 1

    def test_backbone_count_closed_form(self):
        for cfg in (TINY, ViTConfig(image_size=32, patch_size=8, embed_dim=64,
                                    depth=4, num_heads=4)):
            reg = build_bundle(cfg, 1).registry
            assert reg.count() == closed_form_backbone_count(cfg)


class TestEmbedPatches:
    @staticmethod
    def _patches():
        images = np.random.default_rng(2).random((3, 1, TINY.image_size, TINY.image_size))
        return patchify(T.Tensor(images), TINY.patch_size)

    def test_positions_are_added_to_the_patch_embedding(self):
        bundle = build_bundle(TINY, 0)
        model, pos = bundle.backbone, bundle.registry.get("backbone.pos_embed").data
        patches = self._patches()
        expected = model.patch_embed(patches).data + pos[1:]
        assert np.array_equal(model.embed_patches(patches).data, expected)

    def test_a_visible_subset_carries_its_own_positions(self):
        bundle = build_bundle(TINY, 0)
        model, pos = bundle.backbone, bundle.registry.get("backbone.pos_embed").data
        patches = self._patches()
        vis = np.sort(np.stack([np.random.default_rng(b).permutation(16)[:5] for b in range(3)]))
        tokens = T.take_tokens(model.embed_patches(patches), vis).data
        expected = model.patch_embed(patches).data[np.arange(3)[:, None], vis] + pos[1 + vis]
        assert np.array_equal(tokens, expected)

    def test_a_smaller_grid_than_the_config_builds_is_rejected(self):
        # a 4x4 image at patch 4 is one patch; it would broadcast against 16 positions
        model = build_bundle(TINY, 0).backbone
        with pytest.raises(ShapeError, match="got 1 tokens, config builds 16 patches"):
            model.forward_images(T.Tensor(np.zeros((2, 1, 4, 4))))


class TestSegDecoder:
    def test_output_shape_at_paper_scale_config(self):
        cfg = ViTConfig(image_size=224, patch_size=16, embed_dim=16, depth=0,
                        num_heads=2, num_channels=3)
        reg = build_bundle(cfg, 0).registry
        head = build_head(cfg, SegmentationSpec(2), reg, SeededRng(0, "init/head"))
        feats = T.Tensor(np.zeros((2, 197, 16)))
        assert head(feats).shape == (2, 2, 224, 224)

    def test_zero_weight_decoder_gives_uniform_class_probabilities(self):
        reg = build_bundle(TINY, 0).registry
        head = build_head(TINY, SegmentationSpec(2), reg, SeededRng(0, "init/head"))
        reg.get("head.proj.weight").data = np.zeros_like(reg.get("head.proj.weight").data)
        feats = T.Tensor(np.random.default_rng(5).standard_normal((1, 17, 16)))
        probs = T.softmax(np.moveaxis(head(feats).data, 1, -1))  # classes last
        assert np.allclose(probs, 0.5, atol=1e-15)

    def test_grid_mismatch_rejected(self):
        reg = build_bundle(TINY, 0).registry
        head = build_head(TINY, SegmentationSpec(2), reg, SeededRng(0, "init/head"))
        with pytest.raises(ShapeError):
            head(T.Tensor(np.zeros((1, 5, 16))))

    def test_gradients_match_finite_differences(self):
        cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=1, num_heads=2)
        bundle = build_bundle(cfg, 6)
        model, reg = bundle.backbone, bundle.registry
        head = build_head(cfg, SegmentationSpec(2), reg, SeededRng(6, "init/head"))
        images = T.Tensor(np.random.default_rng(7).random((2, 1, 8, 8)))
        masks = (np.random.default_rng(8).random((2, 8, 8)) > 0.5).astype(np.intp)

        def loss():
            logits = head(model.forward_images(images))
            return T.cross_entropy(T.transpose(logits, (0, 2, 3, 1)), masks)

        T.backward(loss())
        for name in ("head.proj.weight", "backbone.blocks.0.attn.q.weight"):
            p = reg.get(name)
            fd = finite_difference(lambda: run_forward_loss(loss), p.data)
            assert rel_err_tensor(p.grad, fd) < 1e-4, name


class TestDeterminismAndFreezing:
    def test_same_config_and_seed_build_identical_params(self):
        reg1 = build_bundle(TINY, 123).registry
        reg2 = build_bundle(TINY, 123).registry
        for p1, p2 in zip(reg1, reg2):
            assert p1.name == p2.name
            assert np.array_equal(p1.data, p2.data)

    def test_frozen_backbone_bit_identical_after_optimizer_steps(self):
        bundle = build_bundle(TINY, 0)
        model, reg = bundle.backbone, bundle.registry
        head = build_head(TINY, ClassificationSpec(2), reg, SeededRng(0, "init/head"))
        reg.set_group_trainable(ParamGroup.BACKBONE, False)
        before = {p.name: p.data.copy() for p in reg.params(group=ParamGroup.BACKBONE)}
        opt = AdamW(reg.params(trainable=True))
        images = T.Tensor(np.random.default_rng(9).random((4, 1, 16, 16)))
        labels = np.array([0, 1, 0, 1])
        for _ in range(5):
            loss = T.cross_entropy(head(model.forward_images(images)), labels)
            T.backward(loss)
            opt.step(lr=1e-2, weight_decay=0.1)
            opt.zero_grad()
            T.clear_tape()
        for name, data in before.items():
            assert np.array_equal(data, reg.get(name).data), name
        # and the head moved
        assert not np.array_equal(head.fc.weight.data,
                                  np.zeros_like(head.fc.weight.data))

    def test_freezing_a_group_drops_its_grads_and_no_others(self):
        bundle = build_bundle(TINY, 0)
        model, reg = bundle.backbone, bundle.registry
        head = build_head(TINY, ClassificationSpec(2), reg, SeededRng(0, "init/head"))
        images = T.Tensor(np.random.default_rng(10).random((2, 1, 16, 16)))
        T.backward(T.cross_entropy(head(model.forward_images(images)), np.array([0, 1])))
        assert all(p.grad is not None for p in reg)
        head_grads = {p.name: p.grad for p in reg.params(group=ParamGroup.HEAD)}
        reg.set_group_trainable(ParamGroup.BACKBONE, False)
        for p in reg.params(group=ParamGroup.BACKBONE):
            assert p.grad is None and not p.requires_grad, p.name
        for p in reg.params(group=ParamGroup.HEAD):
            assert p.grad is head_grads[p.name] and p.requires_grad, p.name
