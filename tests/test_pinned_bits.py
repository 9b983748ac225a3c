"""Pinned bits: one training step's loss and gradients, and whole CLI chains, hashed.

Each step case runs one `run_stage` step on a tiny config and hashes the
loss and the gradient of every trainable param, in name order, at the
moment `backward` returns; it also pins the number of tape nodes at that
moment. Any change to the tape, the prompt insertion or the freezing that
moves a single bit of a loss or a gradient fails here, and so does one that
adds or removes a tape node.

The workload cases pin only the tape nodes of one step at the benchmark's
shapes, the numbers that ROADMAP tracks.

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
    "mae-tpp-ssf": (Stage.TPP, Objective.MAE, SsfSpec(), None, "textured_shapes_cls"),
}

# plans that freeze more than the stage's default: the MAE decoder (Head
# group) stays fixed, as `tpp tpp` runs it with decoder_mode = freeze
FROZEN = {"mae-tpp-frozen-decoder": frozenset({ParamGroup.BACKBONE, ParamGroup.HEAD})}

PINNED = {
    "mae-tpp-adapter": ("a638c1845cda9cec211b3a0f2eb8b358", 44),
    "dino-tpp-lora": ("03cc96ad59f420c18dcf9cac773d91f6", 128),
    "dice-ce-ssf": ("9884268f22464ed515d2439abde68f68", 31),
    "ce-vpt-deep": ("9cf2364742376df124e863611f0ead31", 39),
    "ce-vpt-shallow": ("f998a1081aa4ad9949a551435b114b27", 34),
    "mae-tpp-frozen-decoder": ("b10fdd00afca5e920835ef405f40e2cf", 44),
    "mae-tpp-ssf": ("492bc9765b665467ffe76477e34e449d", 47),
}


def _step_digest(name: str, monkeypatch) -> tuple[str, int]:
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
        digests.append((h.hexdigest(), len(T.tape())))

    monkeypatch.setattr(T, "backward", hashing_backward)
    run_stage(plan, bundle, train, SeededRng(0, f"stage/{name}"))
    assert len(digests) == 1
    return digests[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_step_loss_and_grads_are_pinned(name, monkeypatch):
    assert _step_digest(name, monkeypatch) == PINNED[name]


# Tape nodes at the first `backward` of a training step at the benchmark's
# shapes (`tppbench/workloads.py`), seed 41. The shapes, not the data, set
# the count, so the split holds one batch. ROADMAP tracks these numbers.
WORKLOAD_NODES = {
    # name: (model, stage, objective, peft, head, data kind, batch, nodes)
    "dice-ce-ssf-64px": (ViTConfig(image_size=64), Stage.FINETUNE, Objective.DICE_CE,
                         SsfSpec(), SegmentationSpec(2), "blob_seg", 32, 55),
    "mae-tpp": (ViTConfig(), Stage.TPP, Objective.MAE, AdapterSpec(), None,
                "textured_shapes_cls", 64, 76),
    "mae-tpp-ssf": (ViTConfig(), Stage.TPP, Objective.MAE, SsfSpec(), None,
                    "textured_shapes_cls", 64, 71),
    "dino-tpp": (ViTConfig(), Stage.TPP, Objective.DINO, LoraSpec(targets=("query", "value")),
                 None, "textured_shapes_cls", 64, 224),
}


class _FirstBackward(Exception):
    pass


@pytest.mark.parametrize("name", sorted(WORKLOAD_NODES))
def test_workload_step_node_counts_are_pinned(name, monkeypatch):
    vit, stage, objective, peft, head, kind, batch, nodes = WORKLOAD_NODES[name]
    spec = SyntheticTaskSpec(kind=kind, num_classes=2, image_size=vit.image_size,
                             train_count=batch, val_count=2, test_count=2)
    train = generate_synthetic(spec, SeededRng(41, "data")).train
    bundle = build_bundle(vit, seed=41, head_spec=head, peft_spec=peft)
    plan = default_plan(stage, objective, batch_size=batch, max_epochs=None, max_iterations=1)
    counts = []

    def counting_backward(loss):
        counts.append(len(T.tape()))
        raise _FirstBackward

    monkeypatch.setattr(T, "backward", counting_backward)
    with pytest.raises(_FirstBackward):
        run_stage(plan, bundle, train, SeededRng(41, "stage"))
    assert counts == [nodes]


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
        "ft/finetune.jsonl": "175ba99fecf7a5ebca528fd44b1d4220",
    },
    "cls-dino-lora": {
        "pre/backbone.tppc": "3e4aba441bb9ea9e377e2234739db965",
        "tpp/target.tppc": "2ee2bb29dadfa47ee5f2e5e538eb45a8",
        "ft/finetune.tppc": "bc598ae318d31141c6d4e795f5510079",
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
    "adapter-dino-cls": "4c877d0d017ce618d9ff92338a39abe8",
    "adapter-dino-seg": "7600cd757d49d61d9a2779f07ff2b2ec",
    "adapter-mae-cls": "b7ea926bdb89a3f809d92f325ed1ae17",
    "adapter-mae-seg": "06995ea4ec5f8b025e9e03837fe8c8c4",
    "adaptformer-dino-cls": "2050dacc090b096003ea11bf5bf517b2",
    "adaptformer-dino-seg": "9cbb95d0c869c712058129d84924e2e6",
    "adaptformer-mae-cls": "f01460a4869014125f3d8f979e84242b",
    "adaptformer-mae-seg": "361f24e69ce7a4f69c313f6d40232cc4",
    "bitfit-dino-cls": "df2a21a0220986c813a9312d08479c48",
    "bitfit-dino-seg": "07b1c513273b300a5906d96ed34e8280",
    "bitfit-mae-cls": "13f377c9cefa4f384f04d17e14122b19",
    "bitfit-mae-seg": "eb9b619c43ba05f6abd7531e5e3234fa",
    "lora-dino-cls": "9fedeeae28a9681f51968adcabf3b71b",
    "lora-dino-seg": "493f6500902cbe4f924a66881f4a1217",
    "lora-mae-cls": "3e04958876c788037fb39b014f066fb9",
    "lora-mae-seg": "1e6679f886ae09dddb22c1acf334113a",
    "ssf-dino-cls": "00917812b75c5da64758ad21a6ba6d7f",
    "ssf-dino-seg": "a9cdf4f77f6af09886a77b665617f200",
    "ssf-mae-cls": "4f0adac21a965304e4a994b0f79bdbce",
    "ssf-mae-seg": "7e704b4720a1d0727890f6c6071c7ed8",
    "vpt-dino-cls": "a31eee95b6e11c0c12de2e4e3106c4b8",
    "vpt-dino-seg": "c9a9d7d8ad3fd7c607f5f558d7ebb318",
    "vpt-mae-cls": "ff6b91653c875fcfc805969c8709e99f",
    "vpt-mae-seg": "998f54704360c9bdc0a70682b310ce65",
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
