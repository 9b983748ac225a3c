"""Binary checkpoint format with per-tensor content hashes.

Layout (all integers little-endian):

    magic  b"TPPC"
    u32    format version (2)
    u32    meta length, then meta as UTF-8 JSON
           {stage, config snapshot, rng state}
    u32    number of parameter records
    per record:
        u16  name length, then UTF-8 name
        u8   group code (0 backbone, 1 target, 2 head)
        u8   dtype code (0 = float64)
        u8   rank, then rank * u64 dims
        u64  payload offset (relative to payload region start)
        u64  BLAKE2b-64 digest of the payload bytes (see content_hash)
    payload region: concatenated raw little-endian float64 data

Load verifies every hash; load followed by save reproduces byte-identical
parameter payloads. A file that does not parse, including one of another
format version or one that names a parameter twice, raises StructuralError
naming the file. Writes are atomic (temp file, then rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError
from .registry import ParamGroup, ParamRegistry

MAGIC = b"TPPC"
FORMAT_VERSION = 2

_GROUP_CODE = {ParamGroup.BACKBONE: 0, ParamGroup.TARGET: 1, ParamGroup.HEAD: 2}
_CODE_GROUP = {v: k for k, v in _GROUP_CODE.items()}


def content_hash(buf) -> int:
    """BLAKE2b with an 8-byte digest over a bytes-like buffer.

    The digest is read as a little-endian u64, so the hash field written to
    the file holds the raw digest bytes.
    """
    return int.from_bytes(hashlib.blake2b(buf, digest_size=8).digest(), "little")


def _hash_array(arr: np.ndarray) -> int:
    return content_hash(np.ascontiguousarray(arr, dtype="<f8"))


@dataclass
class CheckpointEntry:
    group: ParamGroup
    data: np.ndarray
    content_hash: int


@dataclass
class Checkpoint:
    """In-memory snapshot: ordered name -> entry, plus provenance meta."""

    meta: dict
    entries: dict[str, CheckpointEntry] = field(default_factory=dict)

    @classmethod
    def from_registry(cls, registry: ParamRegistry, stage: str,
                      config: dict | None = None, rng_state: dict | None = None) -> "Checkpoint":
        meta = {
            "format_version": FORMAT_VERSION,
            "stage": stage,
            "config": config or {},
            "rng": rng_state or {},
        }
        ckpt = cls(meta=meta)
        for p in registry:
            data = p.data.copy()
            ckpt.entries[p.name] = CheckpointEntry(p.group, data, _hash_array(data))
        return ckpt

    def hashes(self, group: ParamGroup | None = None) -> dict[str, int]:
        return {n: e.content_hash for n, e in self.entries.items()
                if group is None or e.group is group}

    # -- file io ---------------------------------------------------------

    def save(self, path: str) -> None:
        meta_bytes = json.dumps(self.meta, sort_keys=True).encode()
        records = []
        payloads = []
        offset = 0
        for name, entry in self.entries.items():
            raw = np.ascontiguousarray(entry.data, dtype="<f8").tobytes()
            name_b = name.encode()
            rec = struct.pack("<H", len(name_b)) + name_b
            rec += struct.pack("<BBB", _GROUP_CODE[entry.group], 0, entry.data.ndim)
            rec += struct.pack(f"<{entry.data.ndim}Q", *entry.data.shape)
            rec += struct.pack("<QQ", offset, entry.content_hash)
            records.append(rec)
            payloads.append(raw)
            offset += len(raw)
        blob = (MAGIC + struct.pack("<I", FORMAT_VERSION)
                + struct.pack("<I", len(meta_bytes)) + meta_bytes
                + struct.pack("<I", len(records)) + b"".join(records)
                + b"".join(payloads))
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != MAGIC:
            raise StructuralError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
        try:
            return cls._parse(blob, path)
        except (struct.error, ValueError) as exc:  # truncation, bad JSON/UTF-8/dims
            raise StructuralError(f"{path}: malformed checkpoint: {exc}") from exc

    @classmethod
    def _parse(cls, blob: bytes, path: str) -> "Checkpoint":
        pos = 4
        version, = struct.unpack_from("<I", blob, pos)
        pos += 4
        if version != FORMAT_VERSION:
            raise StructuralError(f"{path}: unsupported format version {version}")
        meta_len, = struct.unpack_from("<I", blob, pos)
        pos += 4
        meta = json.loads(blob[pos:pos + meta_len].decode())
        if not isinstance(meta, dict):
            raise StructuralError(f"{path}: meta is not a JSON object")
        pos += meta_len
        count, = struct.unpack_from("<I", blob, pos)
        pos += 4
        headers = []
        for _ in range(count):
            name_len, = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos:pos + name_len].decode()
            pos += name_len
            group_code, dtype_code, rank = struct.unpack_from("<BBB", blob, pos)
            pos += 3
            if group_code not in _CODE_GROUP:
                raise StructuralError(f"{path}: unknown group code {group_code} for {name}")
            if dtype_code != 0:
                raise StructuralError(f"{path}: unknown dtype code {dtype_code} for {name}")
            dims = struct.unpack_from(f"<{rank}Q", blob, pos)
            pos += 8 * rank
            offset, stored_hash = struct.unpack_from("<QQ", blob, pos)
            pos += 16
            headers.append((name, _CODE_GROUP[group_code], dims, offset, stored_hash))
        payload_start = pos
        ckpt = cls(meta=meta)
        for name, group, dims, offset, stored_hash in headers:
            nbytes = 8 * math.prod(dims)
            start = payload_start + offset
            raw = blob[start:start + nbytes]
            if len(raw) != nbytes:
                raise StructuralError(
                    f"{path}: payload of {name} has {len(raw)} bytes, dims {list(dims)} "
                    f"need {nbytes}")
            if content_hash(raw) != stored_hash:
                raise StructuralError(f"{path}: content hash mismatch for {name}")
            if name in ckpt.entries:
                raise StructuralError(f"{path}: parameter {name} is named twice")
            data = np.frombuffer(raw, dtype="<f8").reshape(dims).astype(np.float64)
            ckpt.entries[name] = CheckpointEntry(group, data, stored_hash)
        return ckpt

    # -- application -------------------------------------------------------

    def apply_to_registry(self, registry: ParamRegistry, groups) -> list[str]:
        """Copy the entries of `groups` into the same-named registry params.

        This is the only way checkpoint values enter a model. Within `groups`
        the file and the registry must hold the same names, with the same
        group tags and shapes: a name on one side only is an error, and a
        name present on both sides under different groups is reported once,
        as a group mismatch. All mismatches are raised together, in name
        order, as one StructuralError. Returns the names applied.
        """
        offenders, applied = [], []
        names = {n for n, e in self.entries.items() if e.group in groups}
        for name in sorted(names | {p.name for p in registry if p.group in groups}):
            entry = self.entries.get(name)
            if entry is None:
                offenders.append(f"{name}: missing from checkpoint")
            elif name not in registry:
                offenders.append(f"{name}: not in model registry")
            elif (p := registry.get(name)).group is not entry.group:
                offenders.append(
                    f"{name}: group {entry.group.value} in file vs {p.group.value} in registry")
            elif p.data.shape != entry.data.shape:
                offenders.append(
                    f"{name}: shape {list(entry.data.shape)} in file vs {list(p.data.shape)} in model")
            else:
                p.data = entry.data.copy()
                applied.append(name)
        if offenders:
            raise StructuralError("checkpoint/model mismatches: " + "; ".join(offenders))
        return applied


@dataclass
class AuditReport:
    """Result of a freeze audit: names of frozen params whose content changed."""

    changed: list[str]
    checked: int

    @property
    def passed(self) -> bool:
        return not self.changed

    def summary(self) -> str:
        if self.passed:
            return f"PASS ({self.checked} parameters bit-identical)"
        lines = "\n".join(f"  CHANGED {name}" for name in self.changed)
        return f"FAIL ({len(self.changed)} of {self.checked} parameters changed)\n{lines}"


def audit_freeze(before: Checkpoint, after: Checkpoint, frozen_groups) -> AuditReport:
    """Compare content hashes of frozen-group params between two snapshots.

    A name in an audited group on one side that is present under another
    group on the other side has been re-tagged (BitFit moves the backbone
    biases to Target), and is not compared. A name in an audited group on
    one side that is missing from the other side entirely is a structural
    error.
    """
    frozen_groups = set(frozen_groups)
    changed = []
    checked = 0
    for group in sorted(frozen_groups, key=lambda g: g.value):
        b = before.hashes(group)
        a = after.hashes(group)
        shared = b.keys() & a.keys()
        only_b = sorted(n for n in b.keys() - shared if n not in after.entries)
        only_a = sorted(n for n in a.keys() - shared if n not in before.entries)
        if only_b or only_a:
            raise StructuralError(
                f"audit: {group.value} name sets differ; "
                f"only in before: {only_b}; only in after: {only_a}")
        checked += len(shared)
        changed += [n for n in shared if b[n] != a[n]]
    return AuditReport(changed=sorted(changed), checked=checked)
