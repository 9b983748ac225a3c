"""Pinned bits: one training step's loss and gradients, and whole CLI chains, hashed.

Each step case runs one `run_stage` step on a tiny config and hashes the
loss and the gradient of every trainable param, in name order, at the
moment `backward` returns. The first three hashes were recorded before the
tape stopped holding arrays that no needed cotangent reads, and the VPT and
frozen-decoder ones before trainability became a single flag read from the
plan's frozen groups. Any change to the tape, the prompt insertion or the
freezing that moves a single bit of a loss or a gradient fails here.

Each chain case runs `pretrain-backbone -> tpp -> finetune` through
`tpp.cli.main` and hashes every checkpoint it writes and the finetune log's
records, except `run_info` (it names the config and the target-init path).
The chain hashes were recorded before each ViT layer took over its own SSF
and LoRA terms and the patch positions moved into `embed_patches`.

The matrix cases run the same chain for every PEFT method, pretext task and
task kind, on a budget that ends inside an epoch, and pin one digest of the
four. They were recorded before `SelfDistillation` took over building its
views and `run_stage` kept a single val-evaluation site.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from tpp import tensor as T
from tpp.cli import main
from tpp.data import SyntheticTaskSpec, generate_synthetic
from tpp.optim import ScheduleSpec
from tpp.peft import AdapterSpec, LoraSpec, SsfSpec, VptSpec
from tpp.pipeline import Objective, Stage, build_bundle, default_plan, run_stage
from tpp.registry import ParamGroup
from tpp.rng import SeededRng
from tpp.vit import ClassificationSpec, SegmentationSpec, ViTConfig

TINY = ViTConfig(image_size=16, patch_size=4, embed_dim=16, depth=2, num_heads=2)

CASES = {
    # name: (stage, objective, peft, head, data kind)
    "mae-tpp-adapter": (Stage.TPP, Objective.MAE, AdapterSpec(4), None, "textured_shapes_cls"),
    "dino-tpp-lora": (Stage.TPP, Objective.DINO, LoraSpec(), None, "textured_shapes_cls"),
    "dice-ce-ssf": (Stage.FINETUNE, Objective.DICE_CE, SsfSpec(), SegmentationSpec(2), "blob_seg"),
    "ce-vpt-deep": (Stage.FINETUNE, Objective.CE, VptSpec(num_tokens=3, mode="deep"),
                    ClassificationSpec(2), "textured_shapes_cls"),
    "ce-vpt-shallow": (Stage.FINETUNE, Objective.CE, VptSpec(num_tokens=3, mode="shallow"),
                       ClassificationSpec(2), "textured_shapes_cls"),
    "mae-tpp-frozen-decoder": (Stage.TPP, Objective.MAE, AdapterSpec(4), None,
                               "textured_shapes_cls"),
}

# plans that freeze more than the stage's default: the MAE decoder (Head
# group) stays fixed, as `tpp tpp` runs it with decoder_mode = freeze
FROZEN = {"mae-tpp-frozen-decoder": frozenset({ParamGroup.BACKBONE, ParamGroup.HEAD})}

PINNED = {
    "mae-tpp-adapter": "00dbb2af9471aa5fbf595c2ec1bdc3c3",
    "dino-tpp-lora": "0145f7f5940ee8733e4d300b8b8298eb",
    "dice-ce-ssf": "46a87d7c85c67b9ab8018083edfe826a",
    "ce-vpt-deep": "6b2ef90475cc7c0bcfbe9fdbf8798e5c",
    "ce-vpt-shallow": "c017c0ee83c4443745023e1380a55fd4",
    "mae-tpp-frozen-decoder": "48a1777261d0fc6077f45c7a768ed071",
}


def _step_digest(name: str, monkeypatch) -> str:
    stage, objective, peft, head, kind = CASES[name]
    spec = SyntheticTaskSpec(kind=kind, num_classes=2, image_size=16, train_count=8,
                             val_count=2, test_count=2, noise=0.2)
    train = generate_synthetic(spec, SeededRng(0, "data")).train
    bundle = build_bundle(TINY, seed=0, head_spec=head, peft_spec=peft)
    plan = replace(default_plan(stage, objective), max_epochs=None, max_iterations=1,
                   batch_size=8, schedule=ScheduleSpec(base_lr=1e-3, warmup_epochs=0))
    if name in FROZEN:
        plan = replace(plan, frozen_groups=FROZEN[name])
    digests = []
    real_backward = T.backward

    def hashing_backward(loss):
        real_backward(loss)
        h = hashlib.blake2b(np.ascontiguousarray(loss.data).tobytes(), digest_size=16)
        for p in sorted(bundle.registry.params(trainable=True), key=lambda p: p.name):
            assert p.grad is not None, p.name
            h.update(p.name.encode())
            h.update(np.ascontiguousarray(p.grad).tobytes())
        digests.append(h.hexdigest())

    monkeypatch.setattr(T, "backward", hashing_backward)
    run_stage(plan, bundle, train, SeededRng(0, f"stage/{name}"))
    assert len(digests) == 1
    return digests[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_step_loss_and_grads_are_pinned(name, monkeypatch):
    assert _step_digest(name, monkeypatch) == PINNED[name]


CHAIN_CONFIG = """
[model]
image_size = 16
patch_size = 4
embed_dim = 16
depth = 2
num_heads = 2

[peft]
method = {peft}

[pretext]
task = {task}

[data]
kind = {kind}
num_classes = 2
train_count = 8
val_count = 4
test_count = 4

[stage]
iterations = 2
batch_size = 4
lr = 0.001
warmup_epochs = 0
"""

CHAINS = {
    # name: (data kind, pretext task, peft method)
    "seg-mae-ssf": ("synthetic_seg", "mae", "ssf"),
    "cls-dino-lora": ("synthetic_cls", "dino", "lora"),
}

CHAIN_PINNED = {
    "seg-mae-ssf": {
        "pre/backbone.tppc": "eadafa768d009885c6ba186e38264164",
        "tpp/target.tppc": "2137341feb436f6ead72f518d2718c59",
        "ft/finetune.tppc": "433b5c2df98a453b52f9d979c85bcc75",
        "ft/finetune.jsonl": "175ba99fecf7a5ebca528fd44b1d4220",
    },
    "cls-dino-lora": {
        "pre/backbone.tppc": "186d3e600eedab3428f5f5b719a4064e",
        "tpp/target.tppc": "d43c371e6dd5d92f10d3e5e4ee3794e0",
        "ft/finetune.tppc": "6e3bbe98ad0e0b303046f8732c33ccb2",
        "ft/finetune.jsonl": "ec23cc4c546632d54658c0edecdd4cae",
    },
}


def _chain_digests(config: str, tmp_path, monkeypatch) -> dict[str, str]:
    monkeypatch.chdir(tmp_path)  # relative paths: the outputs do not depend on where it runs
    with open("chain.cfg", "w") as fh:
        fh.write(config)
    common = ["--config", "chain.cfg", "--seed", "1"]
    verbs = [["pretrain-backbone", *common, "--out", "pre"],
             ["tpp", *common, "--backbone", "pre/backbone.tppc", "--out", "tpp"],
             ["finetune", *common, "--backbone", "pre/backbone.tppc",
              "--target-init", "tpp/target.tppc", "--out", "ft"]]
    for argv in verbs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    digests = {}
    for path in ("pre/backbone.tppc", "tpp/target.tppc", "ft/finetune.tppc"):
        with open(path, "rb") as fh:
            digests[path] = hashlib.blake2b(fh.read(), digest_size=16).hexdigest()
    with open("ft/finetune.jsonl", "rb") as fh:
        lines = [line for line in fh if json.loads(line).get("event") != "run_info"]
    digests["ft/finetune.jsonl"] = hashlib.blake2b(b"".join(lines), digest_size=16).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_cli_chain_outputs_are_pinned(name, tmp_path, monkeypatch):
    kind, task, peft = CHAINS[name]
    config = CHAIN_CONFIG.format(kind=kind, task=task, peft=peft)
    assert _chain_digests(config, tmp_path, monkeypatch) == CHAIN_PINNED[name]


# The matrix: every PEFT method x pretext task x task kind. A quarter of the
# 8 train samples is dropped, so the 6 left make batches of 4 and 2, and the
# 3-step budget ends one step into the second epoch: finetune scores val
# after epoch 0 and at the end. Classification chains augment their images.
MATRIX_CONFIG = (CHAIN_CONFIG.replace("iterations = 2", "iterations = 3")
                 .replace("test_count = 4", "test_count = 4\nannotation_ratio = 0.75"))

MATRIX_PINNED = {
    "adapter-dino-cls": "c5558f63898818bf4b6c55fdea2585d4",
    "adapter-dino-seg": "e82b12753a78fc4288b1c991f9fc208e",
    "adapter-mae-cls": "792b673e3a551432c8d831825ef9a7ea",
    "adapter-mae-seg": "d697f9d1ba65fecfd19963563318aed4",
    "adaptformer-dino-cls": "b9f9bd5584f8ebee3e2c47d502a1ad47",
    "adaptformer-dino-seg": "4aeee38b36962547e1913844e2ea6411",
    "adaptformer-mae-cls": "8e7e2a404fbe02d70eb718a66fc9475d",
    "adaptformer-mae-seg": "8d61fd5fbc5162b5d56f3ccefa9cde4a",
    "bitfit-dino-cls": "82ae531e5bdc5feab0f38ae8b4782aad",
    "bitfit-dino-seg": "98914eab895884310fab628b5e31d9ff",
    "bitfit-mae-cls": "57b4e02d6b831d91dc2da73ec4283db0",
    "bitfit-mae-seg": "aee2d07e4f4b2c2747c308180cd851d5",
    "lora-dino-cls": "549ac8c9409461be5257ad465214bf9e",
    "lora-dino-seg": "ff947334e145a3bf63cefff66f12a7b0",
    "lora-mae-cls": "4827dab3047f464eb9181ae60b0e3b7f",
    "lora-mae-seg": "d137b4bf8e728a95bc30ece3a21f00c9",
    "ssf-dino-cls": "b502ea85530d29eb055fe415d64a7155",
    "ssf-dino-seg": "d2094999a8a5f752e0bdb69302616db6",
    "ssf-mae-cls": "e99a4d7742dedeb5109b738172591125",
    "ssf-mae-seg": "b32a6d56a1ce60942397cd24ab14fc5c",
    "vpt-dino-cls": "ac19ec9af9825ca927e37110c896ae86",
    "vpt-dino-seg": "c896ee37c04e3f4260321b91d38ed767",
    "vpt-mae-cls": "8e9a2f45b75568d7bbb1b4ce4eb6484e",
    "vpt-mae-seg": "f61e02ddfaf48b7472960e8d954069ff",
}


@pytest.mark.parametrize("name", sorted(MATRIX_PINNED))
def test_cli_matrix_outputs_are_pinned(name, tmp_path, monkeypatch):
    peft, task, kind = name.split("-")
    config = MATRIX_CONFIG.format(kind=f"synthetic_{kind}", task=task, peft=peft)
    if kind == "cls":
        config += "augment = finetune_light\n"
    digests = _chain_digests(config, tmp_path, monkeypatch)
    combined = hashlib.blake2b(json.dumps(digests, sort_keys=True).encode(), digest_size=16)
    assert combined.hexdigest() == MATRIX_PINNED[name]
