"""PEFT mechanisms: identity at init, closed-form counts, gradient isolation."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpp import tensor as T
from tpp.checkpoint import Checkpoint, CheckpointEntry, array_hash
from tpp.errors import ArgumentError, StateError
from tpp.peft import (LORA_TARGET_MAP, SSF_SITES, AdapterSpec, AdaptFormerSpec, BitFitSpec,
                      LoraSpec, SsfSpec, VptSpec, attach, mechanism_name, reinit_target_params)
from tpp.pipeline import Objective, Stage, build_bundle, default_plan, objective_for
from tpp.pretext import DinoConfig, MaeConfig
from tpp.registry import ParamGroup
from tpp.rng import SeededRng
from tpp.vit import (ClassificationSpec, LayerNorm, Linear, TransformerBlock, ViTConfig,
                     VisionTransformer, build_head, patchify)

from conftest import saved_bytes, tsum

TINY = ViTConfig(image_size=16, patch_size=4, embed_dim=16, depth=2, num_heads=2)


def adapter_count(cfg, r):
    return cfg.depth * (2 * cfg.embed_dim * r + r + cfg.embed_dim)


def adaptformer_count(cfg, r):
    return cfg.depth * (2 * cfg.embed_dim * r + r + cfg.embed_dim)


def vpt_count(cfg, tokens, mode):
    layers = cfg.depth if mode == "deep" else 1
    return layers * tokens * cfg.embed_dim


def ssf_count(cfg):
    # modulated outputs per block: ln1, q, k, v, proj, ln2, fc2 (width d) and fc1 (mlp)
    per_block = 2 * (7 * cfg.embed_dim + cfg.mlp_dim)
    return cfg.depth * per_block


def lora_count(cfg, rank, num_targets=2):
    return cfg.depth * num_targets * (2 * cfg.embed_dim * rank)


def merged_lora_weights(model) -> dict[str, np.ndarray]:
    """Fold LoRA updates into dense projection weights: W' = W + scaling * A @ B.

    Returns {param_name: merged_weight} for each adapted projection, the
    reference that a hooked LoRA forward must agree with.
    """
    spec, registry = model.peft_spec, model.registry
    out = {}
    for i in range(model.cfg.depth):
        for target in spec.targets:
            key = LORA_TARGET_MAP[target]
            a = registry.get(f"lora.blocks.{i}.{key}.A").data
            b = registry.get(f"lora.blocks.{i}.{key}.B").data
            w_name = f"backbone.blocks.{i}.attn.{key}.weight"
            out[w_name] = registry.get(w_name).data + (spec.alpha / spec.rank) * (a @ b)
    return out


def _fresh(seed=0, cfg=TINY):
    bundle = build_bundle(cfg, seed)
    return bundle.backbone, bundle.registry


def _random_images(cfg, n=2, seed=0):
    return np.random.default_rng(seed).random((n, cfg.num_channels, cfg.image_size,
                                               cfg.image_size))


def _baseline_forward(cfg, seed, images):
    model = build_bundle(cfg, seed).backbone
    with T.no_grad():
        return model.forward_images(T.Tensor(images)).data


class TestIdentityAtInit:
    @pytest.mark.parametrize("spec", [
        AdapterSpec(bottleneck=8),
        AdaptFormerSpec(bottleneck=8, scale=0.1),
        AdaptFormerSpec(bottleneck=4, scale=0.0),
        SsfSpec(),
        LoraSpec(rank=4, alpha=4.0),
    ])
    def test_instrumented_forward_equals_baseline_exactly(self, spec):
        images = _random_images(TINY, n=20, seed=11)
        ref = _baseline_forward(TINY, 5, images)
        model, _ = _fresh(seed=5)
        attach(model, spec, SeededRng(5, "init/peft"))
        with T.no_grad():
            out = model.forward_images(T.Tensor(images)).data
        assert np.array_equal(ref, out)

    def test_vpt_zero_prompts_still_change_the_output(self):
        # attention renormalizes over the extra keys even for zero prompts
        images = _random_images(TINY, n=4, seed=12)
        ref = _baseline_forward(TINY, 5, images)
        model, reg = _fresh(seed=5)
        attach(model, VptSpec(num_tokens=4, mode="deep"), SeededRng(5, "init/peft"))
        for p in reg.params(prefix="vpt."):
            p.data = np.zeros_like(p.data)
        with T.no_grad():
            out = model.forward_images(T.Tensor(images)).data
        assert out.shape == ref.shape
        assert not np.array_equal(ref, out)

    def test_bitfit_changes_nothing_at_attach(self):
        images = _random_images(TINY, n=3, seed=13)
        ref = _baseline_forward(TINY, 5, images)
        model, _ = _fresh(seed=5)
        attach(model, BitFitSpec(), SeededRng(5, "init/peft"))
        with T.no_grad():
            out = model.forward_images(T.Tensor(images)).data
        assert np.array_equal(ref, out)


class TestCounts:
    def test_adapter_count_example(self):
        cfg = ViTConfig(image_size=32, patch_size=8, embed_dim=64, depth=4, num_heads=4)
        bundle = build_bundle(cfg, 0)
        model, reg = bundle.backbone, bundle.registry
        attach(model, AdapterSpec(bottleneck=8), SeededRng(0, "init/peft"))
        assert reg.count(group=ParamGroup.TARGET) == 4 * (2 * 64 * 8 + 8 + 64) == 4384

    def test_lora_count_formula(self):
        model, reg = _fresh()
        attach(model, LoraSpec(rank=4), SeededRng(0, "init/peft"))
        assert reg.count(group=ParamGroup.TARGET) == lora_count(TINY, 4)

    def test_bitfit_adds_zero_new_params_and_flips_biases(self):
        model, reg = _fresh()
        before_total = reg.count()
        before_names = {p.name for p in reg}
        attach(model, BitFitSpec(), SeededRng(0, "init/peft"))
        assert reg.count() == before_total
        assert {p.name for p in reg} == before_names
        target = reg.params(group=ParamGroup.TARGET)
        assert target and all(p.name.endswith(".bias") for p in target)
        assert all(p.requires_grad for p in target)

    @pytest.mark.parametrize("make_spec,formula", [
        (lambda r: AdapterSpec(bottleneck=r), adapter_count),
        (lambda r: AdaptFormerSpec(bottleneck=r), adaptformer_count),
    ])
    def test_bottleneck_counts(self, make_spec, formula):
        for r in (1, 3, 8):
            model, reg = _fresh(seed=r)
            attach(model, make_spec(r), SeededRng(r, "init/peft"))
            assert reg.count(group=ParamGroup.TARGET) == formula(TINY, r)

    def test_vpt_deep_count(self):
        model, reg = _fresh()
        attach(model, VptSpec(num_tokens=7, mode="deep"), SeededRng(0, "init/peft"))
        assert reg.count(group=ParamGroup.TARGET) == vpt_count(TINY, 7, "deep")

    def test_ssf_count(self):
        model, reg = _fresh()
        attach(model, SsfSpec(), SeededRng(0, "init/peft"))
        assert reg.count(group=ParamGroup.TARGET) == ssf_count(TINY)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 8),
           st.sampled_from(["adapter", "adaptformer", "vpt", "ssf", "lora"]))
    def test_property_counts_over_random_configs(self, heads, depth, r, method):
        d = 8 * heads
        cfg = ViTConfig(image_size=16, patch_size=8, embed_dim=d, depth=depth,
                        num_heads=heads)
        bundle = build_bundle(cfg, depth)
        model, reg = bundle.backbone, bundle.registry
        spec = {
            "adapter": AdapterSpec(bottleneck=r),
            "adaptformer": AdaptFormerSpec(bottleneck=r),
            "vpt": VptSpec(num_tokens=r, mode="deep"),
            "ssf": SsfSpec(),
            "lora": LoraSpec(rank=min(r, d)),
        }[method]
        attach(model, spec, SeededRng(0, "init/peft"))
        expected = {
            "adapter": adapter_count(cfg, r),
            "adaptformer": adaptformer_count(cfg, r),
            "vpt": vpt_count(cfg, r, "deep"),
            "ssf": ssf_count(cfg),
            "lora": lora_count(cfg, min(r, d)),
        }[method]
        assert reg.count(group=ParamGroup.TARGET) == expected


class TestGradientIsolation:
    @pytest.mark.parametrize("spec", [
        AdapterSpec(bottleneck=4),
        AdaptFormerSpec(bottleneck=4),
        VptSpec(num_tokens=3, mode="deep"),
        SsfSpec(),
        LoraSpec(rank=2),
    ])
    def test_only_target_and_head_receive_gradients(self, spec):
        model, reg = _fresh(seed=7)
        attach(model, spec, SeededRng(7, "init/peft"))
        head = build_head(TINY, ClassificationSpec(2), reg, SeededRng(7, "init/head"))
        reg.set_group_trainable(ParamGroup.BACKBONE, False)
        images = T.Tensor(_random_images(TINY, n=4, seed=8))
        loss = T.cross_entropy(head(model.forward_images(images)), np.array([0, 1, 1, 0]))
        T.backward(loss)
        with_grad = {p.name for p in reg if p.grad is not None}
        expected = {p.name for p in reg if p.group in (ParamGroup.TARGET, ParamGroup.HEAD)}
        assert with_grad == expected
        assert all(p.grad is None for p in reg.params(group=ParamGroup.BACKBONE))

    def test_bitfit_gradients_cover_biases_and_head(self):
        model, reg = _fresh(seed=7)
        attach(model, BitFitSpec(), SeededRng(7, "init/peft"))
        head = build_head(TINY, ClassificationSpec(2), reg, SeededRng(7, "init/head"))
        reg.set_group_trainable(ParamGroup.BACKBONE, False)
        images = T.Tensor(_random_images(TINY, n=2, seed=9))
        loss = T.cross_entropy(head(model.forward_images(images)), np.array([0, 1]))
        T.backward(loss)
        with_grad = {p.name for p in reg if p.grad is not None}
        expected = {p.name for p in reg
                    if p.group in (ParamGroup.TARGET, ParamGroup.HEAD)}
        assert with_grad == expected

    def test_adapter_diverges_from_baseline_after_one_step(self):
        from tpp.optim import AdamW
        model, reg = _fresh(seed=7)
        attach(model, AdapterSpec(bottleneck=2), SeededRng(7, "init/peft"))
        head = build_head(TINY, ClassificationSpec(2), reg, SeededRng(7, "init/head"))
        reg.set_group_trainable(ParamGroup.BACKBONE, False)
        images = _random_images(TINY, n=4, seed=10)
        ref = _baseline_forward(TINY, 7, images)
        opt = AdamW(reg.params(trainable=True))
        loss = T.cross_entropy(head(model.forward_images(T.Tensor(images))),
                               np.array([0, 1, 1, 0]))
        T.backward(loss)
        opt.step(lr=0.05, weight_decay=0.0)
        opt.zero_grad()
        T.clear_tape()
        up = reg.get("adapter.blocks.0.up.weight").data
        assert not np.array_equal(up, np.zeros_like(up))
        with T.no_grad():
            out = model.forward_images(T.Tensor(images)).data
        assert not np.array_equal(ref, out)


class TestLora:
    def test_alpha_equal_rank_gives_unit_scaling(self):
        model, _ = _fresh()
        attach(model, LoraSpec(rank=4, alpha=4.0), SeededRng(0, "init/peft"))
        assert model.blocks[0].q.lora[2] == 1.0

    def test_merged_weights_match_hooked_forward(self):
        model, reg = _fresh(seed=3)
        attach(model, LoraSpec(rank=2, alpha=8.0), SeededRng(3, "init/peft"))
        # train-like perturbation so B is nonzero
        for p in reg.params(prefix="lora."):
            p.data = p.data + 0.01 * np.random.default_rng(4).standard_normal(p.data.shape)
        images = _random_images(TINY, n=3, seed=5)
        with T.no_grad():
            hooked = model.forward_images(T.Tensor(images)).data
        merged = merged_lora_weights(model)
        plain, reg2 = _fresh(seed=3)
        ckpt = Checkpoint.from_registry(reg, stage="merged")
        for name, data in merged.items():
            ckpt.entries[name] = CheckpointEntry(ParamGroup.BACKBONE, data, array_hash(data))
        ckpt.apply_to_registry(reg2, groups={ParamGroup.BACKBONE})
        with T.no_grad():
            dense = plain.forward_images(T.Tensor(images)).data
        assert np.max(np.abs(hooked - dense)) < 1e-10

    def test_rank_larger_than_dim_rejected(self):
        model, _ = _fresh()
        with pytest.raises(ArgumentError):
            attach(model, LoraSpec(rank=64), SeededRng(0, "init/peft"))

    def test_a_repeated_target_is_rejected_before_any_param_is_registered(self):
        model, reg = _fresh()
        before = {p.name: p.data.copy() for p in reg}
        with pytest.raises(ArgumentError, match=r"repeated lora targets: \['query'\]"):
            attach(model, LoraSpec(targets=("query", "value", "query")), SeededRng(0, "init/peft"))
        assert {p.name for p in reg} == set(before)
        assert all(np.array_equal(p.data, before[p.name]) for p in reg)
        assert model.peft_spec is None


def _layers(root) -> list:
    """Every Linear and LayerNorm reachable from `root`'s attributes, once each."""
    found, seen, todo = [], set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (Linear, LayerNorm)):
            found.append(obj)
        if isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif hasattr(obj, "__dict__") and not isinstance(obj, (T.Tensor, ViTConfig)):
            todo.extend(vars(obj).values())
    return found


class TestLayerSlots:
    """SSF and LoRA fill the slots of exactly the layers they modify."""

    @staticmethod
    def _bundle(spec):
        bundle = build_bundle(TINY, 0, head_spec=ClassificationSpec(2), peft_spec=spec)
        mae = objective_for(default_plan(Stage.TPP, Objective.MAE), bundle, None,
                            SeededRng(0, "stage"), mae_cfg=MaeConfig())
        dino = objective_for(default_plan(Stage.TPP, Objective.DINO), bundle, None,
                             SeededRng(0, "stage"), dino_cfg=DinoConfig(head_output_dim=8))
        layers = _layers(bundle)
        # patch embed, the blocks' 8 layers, final LN, head, MAE decoder, DINO head
        assert bundle.backbone.patch_embed in layers and bundle.backbone.ln in layers
        assert bundle.head.fc in layers and mae.pred in layers
        assert dino.head.fc1 in layers
        return bundle, layers

    def test_ssf_instruments_the_eight_sites_of_each_block(self):
        bundle, layers = self._bundle(SsfSpec())
        sites = [getattr(block, site) for block in bundle.backbone.blocks for site in SSF_SITES]
        assert len(sites) == 8 * TINY.depth
        assert {id(layer) for layer in layers if layer.ssf is not None} == set(map(id, sites))
        assert all(getattr(layer, "lora", None) is None for layer in layers)

    def test_lora_instruments_only_the_q_and_v_linears(self):
        bundle, layers = self._bundle(LoraSpec())
        qv = [layer for block in bundle.backbone.blocks for layer in (block.q, block.v)]
        instrumented = [layer for layer in layers if getattr(layer, "lora", None) is not None]
        assert {id(layer) for layer in instrumented} == set(map(id, qv))
        assert all(layer.ssf is None for layer in layers)


class TestReinit:
    @pytest.mark.parametrize("spec", [
        AdapterSpec(bottleneck=3),
        AdaptFormerSpec(bottleneck=3),
        VptSpec(num_tokens=2, mode="deep"),
        SsfSpec(),
        BitFitSpec(),
        LoraSpec(rank=2),
    ], ids=mechanism_name)
    def test_reinit_draws_what_attach_draws_under_the_same_rng(self, spec):
        model, reg = _fresh(seed=4)
        attach(model, spec, SeededRng(4, "init/peft"))
        noise = np.random.default_rng(0)
        for p in reg.params(group=ParamGroup.TARGET):
            p.data = p.data + noise.standard_normal(p.data.shape)
        perturbed = {p.name: p.data.copy() for p in reg.params(group=ParamGroup.TARGET)}
        reinit_target_params(model, SeededRng(4, "x"))

        fresh_model, fresh_reg = _fresh(seed=4)
        attach(fresh_model, spec, SeededRng(4, "x"))
        target = reg.params(group=ParamGroup.TARGET)
        assert [p.name for p in target] == [p.name for p in
                                            fresh_reg.params(group=ParamGroup.TARGET)]
        for p in target:
            # BitFit's biases keep their values: random init is a no-op for them
            expected = perturbed[p.name] if isinstance(spec, BitFitSpec) \
                else fresh_reg.get(p.name).data
            assert p.data.tobytes() == expected.tobytes(), p.name


class TestAttachmentRules:
    def test_double_attachment_rejected(self):
        model, _ = _fresh()
        attach(model, AdapterSpec(), SeededRng(0, "init/peft"))
        with pytest.raises(StateError):
            attach(model, SsfSpec(), SeededRng(0, "init/peft"))

    def test_target_names_carry_mechanism_prefix(self):
        for spec, prefix in [(AdapterSpec(), "adapter."), (AdaptFormerSpec(), "adaptformer."),
                             (VptSpec(), "vpt."), (SsfSpec(), "ssf."), (LoraSpec(), "lora.")]:
            model, reg = _fresh()
            attach(model, spec, SeededRng(0, "init/peft"))
            for p in reg.params(group=ParamGroup.TARGET):
                assert p.name.startswith(prefix), p.name

    def test_vpt_block_zero_sees_prompt_extended_sequence(self, monkeypatch):
        model, _ = _fresh()
        attach(model, VptSpec(num_tokens=5, mode="deep"), SeededRng(0, "init/peft"))
        block_input_lengths = []
        real_call = TransformerBlock.__call__

        def spying_call(block, x):
            block_input_lengths.append(x.shape[1])
            return real_call(block, x)

        monkeypatch.setattr(TransformerBlock, "__call__", spying_call)
        with T.no_grad():
            model.forward_images(T.Tensor(_random_images(TINY)))
        n = TINY.num_patches
        assert len(block_input_lengths) == TINY.depth
        assert block_input_lengths[0] == 1 + 5 + n
        assert all(length == 1 + 5 + n for length in block_input_lengths)

    def test_invalid_hyperparameters_rejected(self):
        for spec in (AdapterSpec(bottleneck=0), VptSpec(num_tokens=0),
                     LoraSpec(rank=0), VptSpec(mode="sideways")):
            model, _ = _fresh()
            with pytest.raises(ArgumentError):
                attach(model, spec, SeededRng(0, "init/peft"))


CUT_SPECS = [AdapterSpec(bottleneck=4), AdaptFormerSpec(bottleneck=4, scale=0.5), LoraSpec(rank=2),
             SsfSpec(), BitFitSpec(), VptSpec(num_tokens=3, mode="deep"),
             VptSpec(num_tokens=3, mode="shallow")]


def _perturbed(spec, seed=21):
    """A TINY backbone with `spec` attached, the backbone frozen, and every
    param moved off its init, so that no PEFT branch is the identity."""
    model, reg = _fresh(seed=seed)
    attach(model, spec, SeededRng(seed, "init/peft"))
    reg.set_group_trainable(ParamGroup.BACKBONE, False)
    rng = np.random.default_rng(seed)
    for p in reg:
        p.data = p.data + 0.1 * rng.standard_normal(p.data.shape)
    return model, reg


def _rel_dev(a, b, scale=None):
    scale = np.abs(a).max() if scale is None else scale
    return np.abs(a - b).max() / scale


class TestClassTokenCut:
    """`cls_only=True` runs the last block on the class token's row alone.

    Everything it computes is row 0 of the full forward, up to the float
    order of a one-row GEMM, so outputs and gradients agree to 1e-12.
    """

    def _tokens(self, model, n=3, seed=22):
        return model.embed_patches(patchify(T.Tensor(_random_images(TINY, n=n, seed=seed)),
                                            TINY.patch_size))

    @pytest.mark.parametrize("spec", CUT_SPECS, ids=mechanism_name)
    def test_class_feature_equals_row_0_of_the_full_forward(self, spec):
        model, _ = _perturbed(spec)
        for grad_mode in (contextlib.nullcontext, T.no_grad):  # student and teacher paths
            with grad_mode():
                full = model.forward_features(self._tokens(model)).data
                cut = model.forward_features(self._tokens(model), cls_only=True)
            assert cut.shape == (3, 1, TINY.embed_dim)
            assert cut.requires_grad == (grad_mode is contextlib.nullcontext)
            assert _rel_dev(full[:, :1], cut.data) <= 1e-12
            T.clear_tape()

    @pytest.mark.parametrize("spec", CUT_SPECS, ids=mechanism_name)
    def test_trainable_grads_agree_with_the_full_forward(self, spec):
        model, reg = _perturbed(spec)
        weights = np.random.default_rng(23).standard_normal((3, 1, TINY.embed_dim))
        grads = []
        for cls_only in (False, True):
            feats = model.forward_features(self._tokens(model), cls_only=cls_only)
            T.backward(tsum(T.mul(T.narrow(feats, 1, 0, 1), T.Tensor(weights))))
            grads.append({p.name: p.grad for p in reg.params(trainable=True)})
            for p in reg:
                p.grad = None
            T.clear_tape()
        full, cut = grads
        assert full.keys() == cut.keys() and full
        largest = max(np.abs(g).max() for g in full.values())
        for name in full:
            # a shift of every key by one vector cancels in softmax: its true
            # gradient is 0 and both paths hold roundoff, so it is held to the largest
            key_shift = name.endswith(".attn.k.bias") or name.endswith(".k.beta")
            assert _rel_dev(full[name], cut[name], largest if key_shift else None) <= 1e-12, name

    def test_the_last_blocks_mlp_sees_the_class_row_only(self):
        model, _ = _perturbed(VptSpec(num_tokens=3, mode="deep"))
        seen = {}
        for i, block in enumerate(model.blocks):
            def spy(x, real=block.fc1, i=i):
                seen[i] = x.shape
                return real(x)
            block.fc1 = spy
        model.forward_features(self._tokens(model), cls_only=True)
        assert seen == {0: (3, 1 + 3 + TINY.num_patches, TINY.embed_dim),
                        1: (3, 1, TINY.embed_dim)}

    def test_a_dino_step_saves_fewer_activation_bytes(self, monkeypatch):
        def step_bytes(cls_only_honoured):
            T.clear_tape()
            bundle = build_bundle(TINY, 0, peft_spec=LoraSpec())
            dino = objective_for(default_plan(Stage.TPP, Objective.DINO), bundle, None,
                                 SeededRng(0, "stage"), dino_cfg=DinoConfig(head_output_dim=32))
            bundle.registry.set_group_trainable(ParamGroup.BACKBONE, False)
            with monkeypatch.context() as m:
                if not cls_only_honoured:  # the whole last block, then its row 0
                    real = VisionTransformer.forward_features
                    m.setattr(VisionTransformer, "forward_features",
                              lambda self, tokens, cls_only=False:
                              T.narrow(real(self, tokens), 1, 0, 1))
                dino.step_loss(_random_images(TINY, n=4, seed=24), np.arange(4),
                               SeededRng(0, "stage"), 0)
            return saved_bytes(T.tape())

        assert step_bytes(True) < step_bytes(False)
