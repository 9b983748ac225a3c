"""Checkpoint format: round trips, hash sensitivity, freeze audits."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tpp.checkpoint import (MAGIC, Checkpoint, CheckpointEntry, _hash_array,
                            audit_freeze, content_hash)
from tpp.cli import main
from tpp.errors import StructuralError
from tpp.pipeline import build_bundle
from tpp.registry import ParamGroup
from tpp.rng import SeededRng
from tpp.vit import ClassificationSpec, ViTConfig, build_head

TINY = ViTConfig(image_size=16, patch_size=4, embed_dim=16, depth=1, num_heads=2)


def _registry(seed=0):
    reg = build_bundle(TINY, seed).registry
    build_head(TINY, ClassificationSpec(2), reg, SeededRng(seed, "init/head"))
    return reg


def _small_checkpoint() -> Checkpoint:
    """A few tiny tensors of ranks 0-2 in all three groups."""
    ckpt = Checkpoint(meta={"stage": "t"})
    arrays = {"a": (ParamGroup.BACKBONE, np.array(1.5)),
              "b": (ParamGroup.TARGET, np.arange(3.0)),
              "c": (ParamGroup.HEAD, np.array([[-0.0, 2.0], [np.nan, 4.0]]))}
    for name, (group, data) in arrays.items():
        ckpt.entries[name] = CheckpointEntry(group, data, _hash_array(data))
    return ckpt


class TestContentHash:
    def test_known_vectors(self):
        # format 2: blake2b(digest_size=8), digest read as a little-endian u64
        assert content_hash(b"") == 0xB4B2797457A0A6E4
        assert content_hash(b"a") == 0x2F42665B399EF840
        assert content_hash(b"foobar") == 0xF9514A257F2F219D

    def test_single_bit_sensitivity(self):
        base = np.zeros(16)
        flipped = base.copy()
        flipped[7] = np.nextafter(0.0, 1.0)
        assert content_hash(base.tobytes()) != content_hash(flipped.tobytes())

    def test_array_hash_covers_the_raw_bytes(self):
        arr = np.arange(12.0).reshape(3, 4)
        assert _hash_array(arr) == content_hash(arr.tobytes())
        assert _hash_array(arr.T) == content_hash(np.ascontiguousarray(arr.T).tobytes())
        assert _hash_array(np.array([0.0])) != _hash_array(np.array([-0.0]))


class TestMalformed:
    """Every malformed file is a StructuralError naming it, never a traceback."""

    def _blob(self, tmp_path) -> bytes:
        path = tmp_path / "ok.tppc"
        _small_checkpoint().save(str(path))
        return path.read_bytes()

    def _expect_structural(self, tmp_path, blob: bytes, match: str) -> None:
        path = tmp_path / "bad.tppc"
        path.write_bytes(blob)
        with pytest.raises(StructuralError, match=match) as exc:
            Checkpoint.load(str(path))
        assert str(path) in str(exc.value)

    @staticmethod
    def _header(version: int, meta: bytes) -> bytes:
        return (MAGIC + struct.pack("<I", version) + struct.pack("<I", len(meta)) + meta
                + struct.pack("<I", 0))

    def test_version_1_rejected(self, tmp_path, capsys):
        blob = self._header(1, json.dumps({"stage": "old"}).encode())
        self._expect_structural(tmp_path, blob, "unsupported format version 1")
        path = str(tmp_path / "bad.tppc")
        assert main(["audit", path, path]) == 2
        assert "version 1" in capsys.readouterr().err

    def test_meta_must_be_a_json_object(self, tmp_path):
        self._expect_structural(tmp_path, self._header(2, b"[]"), "meta is not a JSON object")

    def test_truncated_header(self, tmp_path):
        blob = self._blob(tmp_path)
        self._expect_structural(tmp_path, blob[:20], "malformed")

    def test_blob_shorter_than_version_field(self, tmp_path):
        self._expect_structural(tmp_path, MAGIC + b"\x02", "malformed")

    def test_unknown_group_code(self, tmp_path):
        blob = bytearray(self._blob(tmp_path))
        meta_len, = struct.unpack_from("<I", blob, 8)
        group_pos = 12 + meta_len + 4 + 2 + len(b"a")
        assert blob[group_pos] == 0
        blob[group_pos] = 7
        self._expect_structural(tmp_path, bytes(blob), "unknown group code 7 for a")

    def test_payload_shorter_than_dims(self, tmp_path):
        blob = self._blob(tmp_path)
        self._expect_structural(tmp_path, blob[:-8], "payload of c has 24 bytes")

    def test_a_parameter_named_twice(self, tmp_path, capsys):
        # renaming b to a leaves every payload hash valid: only the duplicate is wrong
        blob = bytearray(self._blob(tmp_path))
        meta_len, = struct.unpack_from("<I", blob, 8)
        pos = 12 + meta_len + 4
        name_len, = struct.unpack_from("<H", blob, pos)
        pos += 2 + name_len + 3 + 8 * blob[pos + 2 + name_len + 2] + 16  # past a's record
        assert blob[pos + 2:pos + 3] == b"b"
        blob[pos + 2] = ord("a")
        self._expect_structural(tmp_path, bytes(blob), "parameter a is named twice")
        path = str(tmp_path / "bad.tppc")
        assert main(["audit", path, path]) == 2
        assert "named twice" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncations_and_byte_flips_load_verified_or_fail_structurally(
            self, tmp_path, data):
        blob = bytearray(self._blob(tmp_path))
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
        path = tmp_path / "fuzz.tppc"
        path.write_bytes(bytes(blob))
        try:
            loaded = Checkpoint.load(str(path))
        except StructuralError:
            return
        for entry in loaded.entries.values():
            assert entry.content_hash == _hash_array(entry.data)


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        reg = _registry()
        ckpt = Checkpoint.from_registry(reg, stage="test", config={"k": 1},
                                        rng_state={"seed": 7})
        p1 = tmp_path / "a.tppc"
        p2 = tmp_path / "b.tppc"
        ckpt.save(str(p1))
        loaded = Checkpoint.load(str(p1))
        loaded.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_arrays_and_groups_match(self, tmp_path):
        reg = _registry()
        ckpt = Checkpoint.from_registry(reg, stage="test")
        path = str(tmp_path / "c.tppc")
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert list(loaded.entries) == [p.name for p in reg]
        for p in reg:
            entry = loaded.entries[p.name]
            assert np.array_equal(entry.data, p.data)
            assert entry.group is p.group
        assert loaded.meta["stage"] == "test"

    def test_corruption_detected_by_hash(self, tmp_path):
        reg = _registry()
        path = str(tmp_path / "d.tppc")
        Checkpoint.from_registry(reg, stage="test").save(path)
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0x40  # flip one payload bit
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(StructuralError):
            Checkpoint.load(path)

    def test_no_temp_files_left_behind(self, tmp_path):
        reg = _registry()
        Checkpoint.from_registry(reg, stage="t").save(str(tmp_path / "e.tppc"))
        assert sorted(os.listdir(tmp_path)) == ["e.tppc"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tppc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(StructuralError):
            Checkpoint.load(str(path))


class TestApply:
    def test_group_filtered_load_touches_only_that_group(self):
        reg_a = _registry(seed=1)
        reg_b = _registry(seed=2)
        ckpt = Checkpoint.from_registry(reg_a, stage="src")
        head_before = {p.name: p.data.copy() for p in reg_b.params(group=ParamGroup.HEAD)}
        ckpt.apply_to_registry(reg_b, groups={ParamGroup.BACKBONE})
        for p in reg_b.params(group=ParamGroup.BACKBONE):
            assert np.array_equal(p.data, reg_a.get(p.name).data)
        for name, data in head_before.items():
            assert np.array_equal(data, reg_b.get(name).data)

    def test_shape_mismatch_lists_offenders(self):
        reg_a = _registry(seed=1)
        ckpt = Checkpoint.from_registry(reg_a, stage="src")
        other_cfg = ViTConfig(image_size=16, patch_size=4, embed_dim=32, depth=1,
                              num_heads=2)
        reg_b = build_bundle(other_cfg, 1).registry
        build_head(other_cfg, ClassificationSpec(2), reg_b, SeededRng(1, "init/head"))
        with pytest.raises(StructuralError) as exc:
            ckpt.apply_to_registry(reg_b, groups={ParamGroup.BACKBONE})
        assert "backbone.patch_embed.weight" in str(exc.value)

    def test_missing_names_rejected_when_required(self):
        reg_a = _registry(seed=1)
        ckpt = Checkpoint.from_registry(reg_a, stage="src")
        ckpt.entries = {n: e for n, e in ckpt.entries.items() if e.group is ParamGroup.HEAD}
        reg_b = _registry(seed=2)
        with pytest.raises(StructuralError):
            ckpt.apply_to_registry(reg_b, groups={ParamGroup.BACKBONE})

    @pytest.mark.parametrize("side", ["registry", "file"])
    def test_retagged_name_is_reported_once_as_group_mismatch(self, side):
        reg_a = _registry(seed=1)
        ckpt = Checkpoint.from_registry(reg_a, stage="src")
        reg_b = _registry(seed=2)
        name = "backbone.blocks.0.attn.k.bias"
        if side == "registry":
            reg_b.get(name).group = ParamGroup.TARGET
            expected = f"{name}: group backbone in file vs target in registry"
        else:
            ckpt.entries[name].group = ParamGroup.TARGET
            expected = f"{name}: group target in file vs backbone in registry"
        with pytest.raises(StructuralError) as exc:
            ckpt.apply_to_registry(reg_b, groups={ParamGroup.BACKBONE})
        message = str(exc.value)
        assert expected in message
        assert "not in model registry" not in message
        assert "missing from checkpoint" not in message
        assert message.count(name) == 1

    def test_every_kind_of_mismatch_is_reported_once_in_name_order(self):
        reg_a = _registry(seed=1)
        ckpt = Checkpoint.from_registry(reg_a, stage="src")
        reg_b = _registry(seed=2)
        del ckpt.entries["backbone.cls_token"]
        extra = np.zeros(2)
        ckpt.entries["backbone.blocks.0.attn.extra"] = CheckpointEntry(
            ParamGroup.BACKBONE, extra, _hash_array(extra))
        short = np.zeros(3)
        ckpt.entries["backbone.blocks.0.attn.proj.bias"] = CheckpointEntry(
            ParamGroup.BACKBONE, short, _hash_array(short))
        reg_b.get("backbone.blocks.0.ln2.weight").group = ParamGroup.TARGET
        with pytest.raises(StructuralError) as exc:
            ckpt.apply_to_registry(reg_b, groups={ParamGroup.BACKBONE})
        assert str(exc.value) == (
            "checkpoint/model mismatches: "
            "backbone.blocks.0.attn.extra: not in model registry; "
            "backbone.blocks.0.attn.proj.bias: shape [3] in file vs [16] in model; "
            "backbone.blocks.0.ln2.weight: group backbone in file vs target in registry; "
            "backbone.cls_token: missing from checkpoint")


class TestAuditFreeze:
    def test_identical_snapshots_pass(self):
        reg = _registry()
        a = Checkpoint.from_registry(reg, stage="x")
        b = Checkpoint.from_registry(reg, stage="y")
        report = audit_freeze(a, b, {ParamGroup.BACKBONE, ParamGroup.HEAD})
        assert report.passed
        assert report.checked == len(reg)
        assert "PASS" in report.summary()

    def test_single_bit_flip_names_exactly_that_parameter(self):
        reg = _registry()
        before = Checkpoint.from_registry(reg, stage="x")
        target = reg.get("backbone.blocks.0.attn.q.weight")
        flipped = target.data.copy()
        flipped[0, 0] = np.nextafter(flipped[0, 0], np.inf)
        target.data = flipped
        after = Checkpoint.from_registry(reg, stage="y")
        report = audit_freeze(before, after, {ParamGroup.BACKBONE})
        assert report.changed == ["backbone.blocks.0.attn.q.weight"]
        assert not report.passed
        assert "FAIL" in report.summary()

    def test_changes_outside_audited_groups_ignored(self):
        reg = _registry()
        before = Checkpoint.from_registry(reg, stage="x")
        head = reg.get("head.fc.weight")
        head.data = head.data + 1.0
        after = Checkpoint.from_registry(reg, stage="y")
        assert audit_freeze(before, after, {ParamGroup.BACKBONE}).passed
        assert not audit_freeze(before, after, {ParamGroup.HEAD}).passed

    def test_name_set_mismatch_is_structural_error(self):
        reg_a = _registry(seed=1)
        before = Checkpoint.from_registry(reg_a, stage="x")
        other_cfg = ViTConfig(image_size=16, patch_size=4, embed_dim=16, depth=2,
                              num_heads=2)
        reg_b = build_bundle(other_cfg, 1).registry
        after = Checkpoint.from_registry(reg_b, stage="y")
        with pytest.raises(StructuralError):
            audit_freeze(before, after, {ParamGroup.BACKBONE})
