"""Dataset ingestion, synthetic task generation, splits, and subsetting.

Images are float64 [C,H,W] arrays in [0,1]. No mean/std normalization is
applied anywhere; what a loader returns is what the model sees. Loading
order, generation, and subsetting are deterministic under fixed seeds.

File formats: binary PGM (P5) / PPM (P6) and a raw tensor container
("TPPT" magic, u32 rank, u64 dims, little-endian float64 payload).
Folder layouts: ``<split>/<class>/<file>`` for classification, and
``images/`` + ``masks/`` with matching stems for segmentation.

Segmentation masks are binary, 0 background and 1 foreground. A PNM mask
stores 0/maxval (scaled to [0,1] on read, then rounded to the nearer
label); a TPPT mask stores the labels 0/1 themselves. Any larger TPPT
value is kept as a label, and `tpp` rejects it before training.
Every malformed PNM or TPPT file raises a StructuralError naming it.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, StructuralError
from .rng import SeededRng

TPPT_MAGIC = b"TPPT"


# -- samples and datasets ---------------------------------------------------


@dataclass
class Sample:
    image: np.ndarray                 # [C,H,W] float64 in [0,1]
    id: str
    label: int | None = None          # classification
    mask: np.ndarray | None = None    # [H,W] int class indices, segmentation


@dataclass
class Dataset:
    samples: list[Sample]
    task: str                          # "classification" | "segmentation"
    class_names: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i: int) -> Sample:
        return self.samples[i]

    @property
    def num_classes(self) -> int:
        if self.task == "classification":
            return len(self.class_names) or 1 + max(s.label for s in self.samples)
        return 1 + max(int(s.mask.max()) for s in self.samples)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.intp)

    def ids(self) -> list[str]:
        return [s.id for s in self.samples]


@dataclass
class SplitDatasets:
    train: Dataset
    val: Dataset
    test: Dataset


# -- resizing ----------------------------------------------------------------


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of a [C,H,W] array.

    Source coordinate for output index i is i*(in-1)/(out-1); a size-1
    output axis samples coordinate 0.
    """
    c, h, w = image.shape
    if (h, w) == (out_h, out_w):
        return image.copy()
    ys = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    top = image[:, y0][:, :, x0] * (1 - wx) + image[:, y0][:, :, x1] * wx
    bot = image[:, y1][:, :, x0] * (1 - wx) + image[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bot * wy


def nearest_resize(mask: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize for integer label masks [H,W]."""
    h, w = mask.shape
    if (h, w) == (out_h, out_w):
        return mask.copy()
    ys = np.rint(np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)).astype(np.intp)
    xs = np.rint(np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)).astype(np.intp)
    return mask[ys][:, xs]


# -- PNM (PGM/PPM binary) -----------------------------------------------------


def _read_pnm_token(fh) -> bytes:
    token = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise StructuralError("unexpected end of PNM header")
        if ch in b" \t\r\n":
            if token:
                return token
            continue
        if ch == b"#":
            while fh.read(1) not in (b"\n", b""):
                pass
            continue
        token += ch


def read_pnm(path: str) -> np.ndarray:
    """Read binary PGM (P5) or PPM (P6) into [C,H,W] floats scaled to [0,1]."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in (b"P5", b"P6"):
            raise StructuralError(f"{path}: unsupported PNM magic {magic!r}")
        try:
            width, height, maxval = (int(_read_pnm_token(fh)) for _ in range(3))
        except (StructuralError, ValueError) as exc:  # truncated or non-numeric header
            raise StructuralError(f"{path}: malformed PNM header: {exc}") from None
        if width < 1 or height < 1:
            raise StructuralError(f"{path}: bad size {width}x{height}")
        if maxval <= 0 or maxval > 65535:
            raise StructuralError(f"{path}: bad maxval {maxval}")
        channels = 1 if magic == b"P5" else 3
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        count = width * height * channels
        raw = np.frombuffer(fh.read(count * dtype.itemsize), dtype=dtype)
        if raw.size != count:
            raise StructuralError(f"{path}: truncated pixel data")
    img = raw.astype(np.float64).reshape(height, width, channels) / maxval
    return np.moveaxis(img, 2, 0)


def write_pnm(path: str, image: np.ndarray, maxval: int = 255) -> None:
    """Write [C,H,W] values in [0,1] as binary PGM (C=1) or PPM (C=3)."""
    c, h, w = image.shape
    if c == 1:
        magic = b"P5"
    elif c == 3:
        magic = b"P6"
    else:
        raise ArgumentError(f"PNM supports 1 or 3 channels, got {c}")
    quant = np.rint(np.clip(image, 0, 1) * maxval)
    data = quant.astype(">u2" if maxval > 255 else "u1")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n{maxval}\n".encode())
        fh.write(np.moveaxis(data, 0, 2).tobytes())


# -- raw tensor container --------------------------------------------------


def write_tppt(path: str, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(TPPT_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.tobytes())


def read_tppt(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != TPPT_MAGIC:
        raise StructuralError(f"{path}: bad magic {blob[:4]!r}")
    try:
        rank, = struct.unpack_from("<I", blob, 4)
        dims = struct.unpack_from(f"<{rank}Q", blob, 8)
        payload = blob[8 + 8 * rank:]
        expected = 8 * math.prod(dims)
        if len(payload) != expected:
            raise StructuralError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
        return np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
    except (struct.error, ValueError) as exc:  # short header, dims numpy cannot hold
        raise StructuralError(f"{path}: malformed TPPT file: {exc}") from None


# -- folder loading ------------------------------------------------------------


def _load_image_file(path: str) -> np.ndarray:
    if path.endswith(".tppt"):
        arr = read_tppt(path)
        if arr.ndim == 2:
            arr = arr[None]
        return arr
    return read_pnm(path)


_IMAGE_EXTS = (".pgm", ".ppm", ".tppt")


def load_folder(path: str, image_size: int | None = None) -> Dataset:
    """Load a split directory.

    ``<class>/<file>`` subdirectories make a classification dataset with
    labels in sorted class-name order; ``images/`` + ``masks/`` make a
    segmentation dataset paired by file stem. Samples are sorted by id.
    """
    if not os.path.isdir(path):
        raise StructuralError(f"not a directory: {path}")
    subdirs = sorted(d for d in os.listdir(path) if os.path.isdir(os.path.join(path, d)))
    if not subdirs:
        raise StructuralError(f"{path}: no class or images/masks subdirectories")

    if set(subdirs) == {"images", "masks"}:
        samples = []
        img_dir, mask_dir = os.path.join(path, "images"), os.path.join(path, "masks")
        for fname in sorted(os.listdir(img_dir)):
            if not fname.endswith(_IMAGE_EXTS):
                continue
            stem = os.path.splitext(fname)[0]
            img = _load_image_file(os.path.join(img_dir, fname))
            mask_path = None
            for ext in _IMAGE_EXTS:
                cand = os.path.join(mask_dir, stem + ext)
                if os.path.exists(cand):
                    mask_path = cand
                    break
            if mask_path is None:
                raise StructuralError(f"no mask found for image {fname}")
            mask_arr = _load_image_file(mask_path)[0]
            mask = np.rint(mask_arr * 1.0).astype(np.intp) if mask_arr.max() <= 1 else mask_arr.astype(np.intp)
            if image_size is not None:
                img = bilinear_resize(img, image_size, image_size)
                mask = nearest_resize(mask, image_size, image_size)
            if mask.shape != img.shape[1:]:
                raise StructuralError(f"{fname}: mask {mask.shape} does not match image {img.shape[1:]}")
            samples.append(Sample(image=img, id=stem, mask=mask))
        if not samples:
            raise StructuralError(f"{path}: empty segmentation folder")
        samples.sort(key=lambda s: s.id)
        return Dataset(samples=samples, task="segmentation", class_names=["background", "foreground"])

    samples = []
    for label, cls in enumerate(subdirs):
        cls_dir = os.path.join(path, cls)
        files = sorted(f for f in os.listdir(cls_dir) if f.endswith(_IMAGE_EXTS))
        if not files:
            raise StructuralError(f"{cls_dir}: class directory is empty")
        for fname in files:
            img = _load_image_file(os.path.join(cls_dir, fname))
            if image_size is not None:
                img = bilinear_resize(img, image_size, image_size)
            samples.append(Sample(image=img, id=f"{cls}/{os.path.splitext(fname)[0]}", label=label))
    samples.sort(key=lambda s: s.id)
    return Dataset(samples=samples, task="classification", class_names=subdirs)


# -- synthetic tasks -----------------------------------------------------------


@dataclass(frozen=True)
class SyntheticTaskSpec:
    kind: str = "textured_shapes_cls"      # or "blob_seg"
    num_classes: int = 4
    image_size: int = 32
    noise: float = 0.1
    separation: float = 0.8                # template contrast above noise floor
    train_count: int = 128
    val_count: int = 64
    test_count: int = 64


def _class_template(cls: int, size: int, separation: float) -> np.ndarray:
    """Deterministic per-class pattern: oriented grating masked by a shape."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    angle = np.pi * cls / 7.0
    freq = 2.0 * np.pi * (2 + (cls % 3)) / size
    grating = 0.5 + 0.5 * np.sin(freq * (np.cos(angle) * xx + np.sin(angle) * yy))
    cy = cx = (size - 1) / 2.0
    r = size * (0.20 + 0.06 * (cls % 4))
    if cls % 3 == 0:
        shape = ((yy - cy) ** 2 + (xx - cx) ** 2) <= r * r
    elif cls % 3 == 1:
        shape = (np.abs(yy - cy) <= r) & (np.abs(xx - cx) <= r)
    else:
        shape = (np.abs(yy - cy) + np.abs(xx - cx)) <= 1.4 * r
    pattern = np.where(shape, grating, 1.0 - grating)
    return 0.5 + separation * (pattern - 0.5)


def _make_cls_split(spec: SyntheticTaskSpec, rng: SeededRng, count: int, tag: str) -> Dataset:
    templates = [_class_template(c, spec.image_size, spec.separation)
                 for c in range(spec.num_classes)]
    samples = []
    for i in range(count):
        cls = i % spec.num_classes
        img = templates[cls][None]
        if spec.noise > 0:
            img = img + spec.noise * rng.child(f"{tag}/noise{i}").normal(img.shape)
        samples.append(Sample(image=np.clip(img, 0.0, 1.0), id=f"{tag}{i:05d}", label=cls))
    names = [f"class{c}" for c in range(spec.num_classes)]
    return Dataset(samples=samples, task="classification", class_names=names)


def _make_seg_split(spec: SyntheticTaskSpec, rng: SeededRng, count: int, tag: str) -> Dataset:
    size = spec.image_size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    samples = []
    for i in range(count):
        srng = rng.child(f"{tag}/blob{i}")
        radius = float(srng.uniform(low=size * 0.12, high=size * 0.3))
        margin = radius + 2
        cy = float(srng.uniform(low=margin, high=size - 1 - margin))
        cx = float(srng.uniform(low=margin, high=size - 1 - margin))
        mask = (((yy - cy) ** 2 + (xx - cx) ** 2) <= radius * radius)
        img = np.where(mask, 0.8, 0.2)[None]
        if spec.noise > 0:
            img = img + spec.noise * srng.child("noise").normal(img.shape)
        samples.append(Sample(image=np.clip(img, 0.0, 1.0), id=f"{tag}{i:05d}",
                              mask=mask.astype(np.intp)))
    return Dataset(samples=samples, task="segmentation",
                   class_names=["background", "foreground"])


def generate_synthetic(spec: SyntheticTaskSpec, rng: SeededRng) -> SplitDatasets:
    """Build train/val/test datasets fully determined by (spec, rng seed)."""
    if spec.kind == "textured_shapes_cls":
        maker = _make_cls_split
    elif spec.kind == "blob_seg":
        maker = _make_seg_split
    else:
        raise ArgumentError(f"unknown synthetic kind: {spec.kind!r}")
    return SplitDatasets(
        train=maker(spec, rng.child("train"), spec.train_count, "train"),
        val=maker(spec, rng.child("val"), spec.val_count, "val"),
        test=maker(spec, rng.child("test"), spec.test_count, "test"),
    )


# -- subsetting and splitting ---------------------------------------------------


def _strata(dataset: Dataset) -> dict[int, list[int]]:
    if dataset.task == "classification":
        strata: dict[int, list[int]] = {}
        for i, s in enumerate(dataset.samples):
            strata.setdefault(s.label, []).append(i)
        return strata
    return {0: list(range(len(dataset)))}


def subset(dataset: Dataset, annotation_ratio: float, seed: int) -> Dataset:
    """Per-class-stratified deterministic subset of ceil(ratio * n_c) samples.

    Subsets are nested: under one seed, a smaller ratio's selection is
    contained in any larger ratio's selection.
    """
    if not 0.0 < annotation_ratio <= 1.0:
        raise ArgumentError(f"annotation_ratio must be in (0,1], got {annotation_ratio}")
    keep: list[int] = []
    for cls, indices in sorted(_strata(dataset).items()):
        order = SeededRng(seed, f"subset/class{cls}").permutation(len(indices))
        take = int(np.ceil(annotation_ratio * len(indices)))
        keep.extend(indices[j] for j in order[:take])
    keep.sort()
    return Dataset(samples=[dataset.samples[i] for i in keep], task=dataset.task,
                   class_names=list(dataset.class_names))


def split_dataset(dataset: Dataset, fractions: tuple[float, float, float], seed: int) -> SplitDatasets:
    """Stratified disjoint train/val/test split covering every sample."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ArgumentError(f"split fractions must sum to 1, got {fractions}")
    buckets: tuple[list[int], list[int], list[int]] = ([], [], [])
    for cls, indices in sorted(_strata(dataset).items()):
        order = SeededRng(seed, f"split/class{cls}").permutation(len(indices))
        n = len(indices)
        n_train = int(round(fractions[0] * n))
        n_val = int(round(fractions[1] * n))
        shuffled = [indices[j] for j in order]
        buckets[0].extend(shuffled[:n_train])
        buckets[1].extend(shuffled[n_train:n_train + n_val])
        buckets[2].extend(shuffled[n_train + n_val:])
    def build(idx: list[int]) -> Dataset:
        idx = sorted(idx)
        return Dataset(samples=[dataset.samples[i] for i in idx], task=dataset.task,
                       class_names=list(dataset.class_names))
    return SplitDatasets(train=build(buckets[0]), val=build(buckets[1]), test=build(buckets[2]))
