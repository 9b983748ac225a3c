"""Pinned bits: one training step's loss and gradients, and whole CLI chains, hashed.

Each step case runs one `run_stage` step on a tiny config and hashes the
loss and the gradient of every trainable param, in name order, at the
moment `backward` returns; it also pins the number of tape nodes at that
moment. Any change to the tape, the prompt insertion or the freezing that
moves a single bit of a loss or a gradient fails here, and so does one that
adds or removes a tape node.

The workload cases pin the tape of one step at the benchmark's shapes: its
nodes, the activation bytes its vjps keep and the attention nodes that
rebuild their weights, the numbers that ROADMAP tracks.

Each chain case runs `pretrain-backbone -> tpp -> finetune` through
`tpp.cli.main` and hashes every checkpoint it writes and the finetune log's
records, except `run_info` (it names the config and the target-init path).

The matrix cases run the same chain for every PEFT method, pretext task and
task kind, on a budget that ends inside an epoch, and pin one digest of the
four.

Every pin was re-recorded when each `Linear` became one `T.linear` node
(one flattened GEMM with its bias, LoRA and SSF terms): weight gradients
sum over the rows of one GEMM instead of a batch of GEMMs, and the LoRA and
dense input cotangents add before they reach the input. Against the old
code, losses and logged values moved by at most 3.2e-16 relative and every
gradient and checkpoint tensor by at most 3.7e-13 of its largest entry,
except the attention-key shifts (`*.attn.k.bias`, `ssf.*.k.beta`), whose
true gradient is 0 and which hold only float roundoff.

When each block's attention became one `T.attention` node (the same numpy
calls in the same order), every pinned bit stayed: only the node counts were
re-recorded.

The finetune-log pins and the matrix pins were re-recorded when `[stage]
loss` left the config (its key left the logged effective config) and a DINO
stage began to record the augment policy 'none' it applies. Every checkpoint
tensor stayed byte-identical.

The DINO pins (`dino-tpp-lora`, `cls-dino-lora` and the twelve `*-dino-*`
matrix cases) were re-recorded when the augmentation's contrast mean began
to sum every row in C order: a resized, unflipped view used to be summed in
(W, H, C) order, the layout the old one-image resize happened to return.
Against the old code, losses and logged values moved by at most 3.2e-16
relative and every gradient and checkpoint tensor by at most 3.6e-13 of its
largest entry, except the attention-key shifts (at most 3.5e-15 in size);
node counts did not change. The MAE and supervised pins held unedited.

When the MAE decoder input became one `T.scatter_tokens` node over the
whole `enc2dec` output (the class token to position 0, each visible token
to 1 + its patch index), in place of two `T.narrow`s, a scatter and a
`T.concat`, every digest held: only the MAE node counts were re-recorded,
3 fewer a step (`mae-tpp-*` cases and the `mae-tpp` workload shapes).
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

from conftest import rebuild_flags, saved_bytes

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
    "mae-tpp-ssf": (Stage.TPP, Objective.MAE, SsfSpec(), None, "textured_shapes_cls"),
}

# plans that freeze more than the stage's default: the MAE decoder (Head
# group) stays fixed, as `tpp tpp` runs it with decoder_mode = freeze
FROZEN = {"mae-tpp-frozen-decoder": frozenset({ParamGroup.BACKBONE, ParamGroup.HEAD})}

PINNED = {
    "mae-tpp-adapter": ("a638c1845cda9cec211b3a0f2eb8b358", 41),
    "dino-tpp-lora": ("e6a15b3d15ab922eb97a9ebfede30876", 128),
    "dice-ce-ssf": ("9884268f22464ed515d2439abde68f68", 31),
    "ce-vpt-deep": ("9cf2364742376df124e863611f0ead31", 39),
    "ce-vpt-shallow": ("f998a1081aa4ad9949a551435b114b27", 34),
    "mae-tpp-frozen-decoder": ("b10fdd00afca5e920835ef405f40e2cf", 41),
    "mae-tpp-ssf": ("492bc9765b665467ffe76477e34e449d", 44),
}


def _step_digest(name: str, monkeypatch) -> tuple[str, int, int]:
    """The step's loss-and-gradients digest, its tape nodes and its attention
    nodes that rebuild their weights."""
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
        tape = T.tape()
        digests.append((h.hexdigest(), len(tape), sum(rebuild_flags(tape, "attention"))))

    monkeypatch.setattr(T, "backward", hashing_backward)
    run_stage(plan, bundle, train, SeededRng(0, f"stage/{name}"))
    assert len(digests) == 1
    return digests[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_step_loss_and_grads_are_pinned(name, monkeypatch):
    digest, nodes, rebuilding = _step_digest(name, monkeypatch)
    assert (digest, nodes) == PINNED[name]
    assert rebuilding > 0  # so the digest pins the bits of rebuilt attention weights too


# Tape nodes, saved-activation MB (10^6 bytes, each base buffer counted once)
# and the attention nodes that rebuild their weights in the backward, at the
# first `backward` of a training step at the benchmark's shapes
# (`tppbench/workloads.py`), seed 41. The shapes, not the data, set the
# numbers, so the split holds one batch. ROADMAP tracks them.
WORKLOAD_NODES = {
    # name: (model, stage, objective, peft, head, data kind, batch,
    #        (nodes, saved MB, rebuilding attention nodes))
    "dice-ce-ssf-64px": (ViTConfig(image_size=64), Stage.FINETUNE, Objective.DICE_CE,
                         SsfSpec(), SegmentationSpec(2), "blob_seg", 32, (55, 84.3, 4)),
    "mae-tpp": (ViTConfig(), Stage.TPP, Objective.MAE, AdapterSpec(), None,
                "textured_shapes_cls", 64, (73, 11.5, 4)),
    "mae-tpp-ssf": (ViTConfig(), Stage.TPP, Objective.MAE, SsfSpec(), None,
                    "textured_shapes_cls", 64, (68, 18.5, 5)),
    "dino-tpp": (ViTConfig(), Stage.TPP, Objective.DINO, LoraSpec(targets=("query", "value")),
                 None, "textured_shapes_cls", 64, (224, 79.5, 12)),
}


class _FirstBackward(Exception):
    pass


@pytest.mark.parametrize("name", sorted(WORKLOAD_NODES))
def test_workload_step_node_counts_are_pinned(name, monkeypatch):
    vit, stage, objective, peft, head, kind, batch, pinned = WORKLOAD_NODES[name]
    spec = SyntheticTaskSpec(kind=kind, num_classes=2, image_size=vit.image_size,
                             train_count=batch, val_count=2, test_count=2)
    train = generate_synthetic(spec, SeededRng(41, "data")).train
    bundle = build_bundle(vit, seed=41, head_spec=head, peft_spec=peft)
    plan = default_plan(stage, objective, batch_size=batch, max_epochs=None, max_iterations=1)
    seen = []

    def measuring_backward(loss):
        tape = T.tape()
        seen.append((len(tape), round(saved_bytes(tape) / 1e6, 1),
                     sum(rebuild_flags(tape, "attention"))))
        raise _FirstBackward

    monkeypatch.setattr(T, "backward", measuring_backward)
    with pytest.raises(_FirstBackward):
        run_stage(plan, bundle, train, SeededRng(41, "stage"))
    assert seen == [pinned]


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
        "pre/backbone.tppc": "443f6671115f8461bbbe13f3a719566a",
        "tpp/target.tppc": "797f33cead829800d00cc5a0243fd98c",
        "ft/finetune.tppc": "70a002a739a05e8c3d98194f35d1358a",
        "ft/finetune.jsonl": "9cfeab02ffda146ab0dcdf04aad2c3df",
    },
    "cls-dino-lora": {
        "pre/backbone.tppc": "991493961532769506771c5af9ad2647",
        "tpp/target.tppc": "dadffeaeb70dcbcad3dcf7d6a974019f",
        "ft/finetune.tppc": "cfac230eec670b13d40c6eb9f3f8a6c3",
        "ft/finetune.jsonl": "45445e3165dcb8ae8401733ccd6af4ee",
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
    "adapter-dino-cls": "1bdf27e537cdd16d3ca3f0640fb9bc56",
    "adapter-dino-seg": "0478e9b544a58612e56446fd33889fab",
    "adapter-mae-cls": "9c3e2c1127e57e01c2be7da80d7f9644",
    "adapter-mae-seg": "79e2145a391f4f98192e83b9807564b9",
    "adaptformer-dino-cls": "20c8e9cc067ba4c071dc33275cadedea",
    "adaptformer-dino-seg": "a1cb948a304b4302230cf4e21e093a3e",
    "adaptformer-mae-cls": "978d601de25af1984ba3671201f90c6e",
    "adaptformer-mae-seg": "ab75435fcd923204ef29e6690cd8e73a",
    "bitfit-dino-cls": "27f069768148d1cfe2fec58512b2243d",
    "bitfit-dino-seg": "89bf631d5b9d16a0a820c421bc16d5f8",
    "bitfit-mae-cls": "0f8f938fa20060d9192bfe1b6e172d4e",
    "bitfit-mae-seg": "df3a59e3205d1da7f73abc98131fc5af",
    "lora-dino-cls": "35d004890899f2cb057ac7e16b6baa69",
    "lora-dino-seg": "af9c3d9128fd8a132bbc01d54a34c66f",
    "lora-mae-cls": "ab33ad77407326a32de291646ca34628",
    "lora-mae-seg": "8a686dc000ff82267da92f8947c8d75a",
    "ssf-dino-cls": "e304d5b243365f771c5d785ec5739854",
    "ssf-dino-seg": "cbab8d70a2369184bbf0e4d96f11ed7d",
    "ssf-mae-cls": "163cfc6d0f9614e9238e48c3ac58ca9e",
    "ssf-mae-seg": "aa4b60ce3dd6e1af2d18952e6d7f34dc",
    "vpt-dino-cls": "eabaee370988b2f76f6177d7e1d48b99",
    "vpt-dino-seg": "e3a59623d5fc759572f97b48b4f70bac",
    "vpt-mae-cls": "53ddddbda114492bab52da0b74fb0640",
    "vpt-mae-seg": "fde79c7af071cd8a4af925ae08807c30",
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
