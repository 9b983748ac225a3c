"""Pinned bits: one training step's loss and gradients, and whole CLI chains, hashed.

Each step case runs one `run_stage` step on a tiny config and hashes the
loss and the gradient of every trainable param, in name order, at the
moment `backward` returns. The first three hashes were recorded before the
tape stopped holding arrays that no needed cotangent reads, and the VPT and
frozen-decoder ones before trainability became a single flag read from the
plan's frozen groups. Any change to the tape, the prompt insertion or the
freezing that moves a single bit of a loss or a gradient fails here. The
DINO and CE hashes (and every chain that runs DINO or CE) were re-recorded
when the last block began computing the class token alone for heads that
read nothing else: a one-row GEMM sums in another order, so those outputs
moved at float64 rounding (at most 2.5e-13 relative against the old code).

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
    "dino-tpp-lora": "419f1a5af0bd4e6cf7c8907927b189e9",
    "dice-ce-ssf": "46a87d7c85c67b9ab8018083edfe826a",
    "ce-vpt-deep": "2112b3b0178aa53aec10b0a9733df51f",
    "ce-vpt-shallow": "d32345fade349c4a385c0543eac4691a",
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
        "pre/backbone.tppc": "8e47cd7fbcad0a2bd0f578e53d283a0d",
        "tpp/target.tppc": "ff08f25cef44f9f2ed7a54459c143167",
        "ft/finetune.tppc": "46495655eda636420b49c8d729273048",
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
    "adapter-dino-cls": "da29e9e8149b512863ea534b124ceb03",
    "adapter-dino-seg": "5bed13e3f2bea7b86a3e5459c4be9f52",
    "adapter-mae-cls": "72a6fa4fa1b90c6c1af6cdc809855020",
    "adapter-mae-seg": "d697f9d1ba65fecfd19963563318aed4",
    "adaptformer-dino-cls": "a08ca9a424e939ec4d2a19423367bd8f",
    "adaptformer-dino-seg": "40431388e615719b26cd1d205e783b51",
    "adaptformer-mae-cls": "e91af221e620bd9b4c9816c37a70aa3a",
    "adaptformer-mae-seg": "8d61fd5fbc5162b5d56f3ccefa9cde4a",
    "bitfit-dino-cls": "6890a6ef784755a967887e75a4440552",
    "bitfit-dino-seg": "231c065edc3d98dbde6cc928b9de0b9c",
    "bitfit-mae-cls": "68a57493d636e6063ab80dc3241e8dcc",
    "bitfit-mae-seg": "aee2d07e4f4b2c2747c308180cd851d5",
    "lora-dino-cls": "209b6bc195332d532e5888f1f6e7f1be",
    "lora-dino-seg": "9673bb64b2cd9e1efcfb8a3f699c6c49",
    "lora-mae-cls": "b83d5022cd0a57653f0bb703518480e2",
    "lora-mae-seg": "d137b4bf8e728a95bc30ece3a21f00c9",
    "ssf-dino-cls": "4b089fcf7e4e415a9731ea2841be9e04",
    "ssf-dino-seg": "8f2e31fa8276b357a4adbb71f79b7d10",
    "ssf-mae-cls": "77b9d9e3749c34436d384fd456addf7a",
    "ssf-mae-seg": "b32a6d56a1ce60942397cd24ab14fc5c",
    "vpt-dino-cls": "bb0fabd113dfc6874078957d6f106e49",
    "vpt-dino-seg": "2cf66a6dc925696674559587284c1383",
    "vpt-mae-cls": "6ea37d1f5d53cb8ca1a020b78972b3f0",
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
