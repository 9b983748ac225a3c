"""Dataset ingestion, synthetic task generation, splits, and subsetting.

A split is a `Dataset` of stacked arrays, row i of each being sample i:
float64 `images` [N,C,H,W], a list of N `ids`, and intp `labels` [N]
(classification) or `masks` [N,H,W] (segmentation). Pixels are not
normalized: a PNM is scaled to [0,1] and a TPPT is kept as stored, but a
stage that augments needs training pixels in [0,1], as every policy clips.
Loading order, generation, and subsetting are deterministic under fixed seeds.

File formats: binary PGM (P5) / PPM (P6) and a raw tensor container
("TPPT" magic, u32 rank, u64 dims, little-endian float64 payload).
Folder layouts: ``<split>/<class>/<file>`` for classification, and
``images/`` + ``masks/`` with matching stems for segmentation.

An image file must hold a finite, non-empty [C,H,W] or [H,W] array; a
mask file must also be one channel (a PGM, or an [H,W] or [1,H,W] TPPT,
never a PPM) and have its image's size as read, before resizing. After
resizing, the images of a split must agree in channel count. Mask labels
are 0 background and 1 foreground: a PNM mask stores 0/maxval, a TPPT
mask the labels themselves. A mask whose values are all at most 1 (every
PNM mask, after scaling) is rounded to the nearer label; then every value
must be a whole number with |v| < 2**31. A whole value other than 0 or 1
is kept as a label, and `tpp` rejects it before training. A malformed
file, or one that breaks these rules, raises a StructuralError naming it.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ArgumentError, StructuralError
from .rng import SeededRng

TPPT_MAGIC = b"TPPT"


# -- datasets ----------------------------------------------------------------


@dataclass
class Dataset:
    task: str                          # "classification" | "segmentation"
    images: np.ndarray                 # [N,C,H,W] float64
    ids: list[str]
    labels: np.ndarray | None = None   # [N] intp, classification
    masks: np.ndarray | None = None    # [N,H,W] intp class indices, segmentation
    class_names: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.images)

    @property
    def num_classes(self) -> int:
        if self.task == "classification":
            return len(self.class_names) or 1 + int(self.labels.max())
        return 1 + int(self.masks.max())

    def take(self, rows) -> Dataset:
        """The dataset of `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return replace(self, images=self.images[rows], ids=[self.ids[i] for i in rows],
                       labels=None if self.labels is None else self.labels[rows],
                       masks=None if self.masks is None else self.masks[rows])


@dataclass
class SplitDatasets:
    train: Dataset
    val: Dataset
    test: Dataset


# -- resizing ----------------------------------------------------------------


def crop_resize(images: np.ndarray, tops, lefts, heights, widths,
                out_h: int, out_w: int) -> np.ndarray:
    """Row r of [n,C,H,W] `images`, cropped to heights[r] x widths[r] pixels at
    (tops[r], lefts[r]) and resized to [C,out_h,out_w] by corner-aligned
    bilinear interpolation, all rows in one gather; the result is C-ordered.
    Output index i samples crop coordinate i*(in-1)/(out-1), or 0 on a size-1
    axis, and a crop of the output size is copied exactly."""
    n, c, h, w = images.shape
    tops, lefts, heights, widths = (np.asarray(v, dtype=np.intp)
                                    for v in (tops, lefts, heights, widths))
    ys, xs = _sample_points(heights, out_h), _sample_points(widths, out_w)
    y0, x0 = np.floor(ys).astype(np.intp), np.floor(xs).astype(np.intp)
    y1, x1 = np.minimum(y0 + 1, heights[:, None] - 1), np.minimum(x0 + 1, widths[:, None] - 1)
    wy, wx = (ys - y0)[:, None, :, None], (xs - x0)[:, None, None, :]
    flat = images.reshape(-1)
    planes = (np.arange(n * c) * (h * w)).reshape(n, c, 1, 1)

    def at(yy, xx):  # [n,C,out_h,out_w]: pixel (yy[r, i], xx[r, j]) of row r's crop
        rows, cols = (tops[:, None] + yy) * w, lefts[:, None] + xx
        return flat.take(planes + rows[:, None, :, None] + cols[:, None, None, :])

    out = at(y0, x0)
    resized = (heights != out_h) | (widths != out_w)
    if resized.any():
        top = out * (1 - wx) + at(y0, x1) * wx
        bot = at(y1, x0) * (1 - wx) + at(y1, x1) * wx
        out = np.where(resized[:, None, None, None], top * (1 - wy) + bot * wy, out)
    return out


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """`crop_resize` of one whole [C,H,W] image."""
    return crop_resize(image[None], [0], [0], [image.shape[1]], [image.shape[2]], out_h, out_w)[0]


def nearest_resize(mask: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour resize of [H,W] integer labels at `crop_resize`'s sample points."""
    ys, xs = (np.rint(_sample_points(np.array([size]), out)[0]).astype(np.intp)
              for size, out in zip(mask.shape, (out_h, out_w)))
    return mask[ys][:, xs]


def _sample_points(sizes: np.ndarray, n: int) -> np.ndarray:
    """Row r is `np.linspace(0.0, sizes[r] - 1.0, n)` bit for bit. Size-1 rows stay 0:
    one zero step sends every row of a batched `linspace` through another formula."""
    out = np.zeros((len(sizes), n))
    wide = sizes > 1
    out[wide] = np.linspace(0.0, sizes[wide] - 1.0, n, axis=-1)
    return out


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
        raw = fh.read(count * dtype.itemsize)
        if len(raw) != count * dtype.itemsize:
            raise StructuralError(f"{path}: truncated pixel data")
    img = np.frombuffer(raw, dtype=dtype).astype(np.float64) / maxval
    return np.moveaxis(img.reshape(height, width, channels), 2, 0)


# -- raw tensor container --------------------------------------------------


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
    """The finite, non-empty [C,H,W] array of a PNM or TPPT file."""
    arr = read_tppt(path) if path.endswith(".tppt") else read_pnm(path)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or 0 in arr.shape:
        raise StructuralError(f"{path}: expected a non-empty [C,H,W] or [H,W] array, "
                              f"got shape {list(arr.shape)}")
    if not np.isfinite(arr).all():
        raise StructuralError(f"{path}: holds non-finite values")
    return arr


def _load_mask_file(path: str) -> np.ndarray:
    """The [H,W] intp labels of a one-channel mask file."""
    arr = _load_image_file(path)
    if arr.shape[0] != 1:
        raise StructuralError(f"{path}: a mask must have one channel, got {arr.shape[0]}")
    mask = np.rint(arr[0]) if arr.max() <= 1 else arr[0]
    if np.any(mask != np.rint(mask)) or np.abs(mask).max() >= 2 ** 31:
        raise StructuralError(f"{path}: mask labels must be whole numbers with |v| < 2**31")
    return mask.astype(np.intp)


_IMAGE_EXTS = (".pgm", ".ppm", ".tppt")


def load_folder(path: str, image_size: int) -> Dataset:
    """Load a split directory, resizing each image (and mask) to image_size.

    ``<class>/<file>`` subdirectories make a classification dataset with
    labels in sorted class-name order; ``images/`` + ``masks/`` make a
    segmentation dataset paired by file stem. Samples are sorted by id.
    """
    if not os.path.isdir(path):
        raise StructuralError(f"not a directory: {path}")
    subdirs = sorted(d for d in os.listdir(path) if os.path.isdir(os.path.join(path, d)))
    if not subdirs:
        raise StructuralError(f"{path}: no class or images/masks subdirectories")

    rows = []  # (id, file, resized image, label or resized mask)
    seg = set(subdirs) == {"images", "masks"}
    if seg:
        img_dir, mask_dir = os.path.join(path, "images"), os.path.join(path, "masks")
        for fname in sorted(os.listdir(img_dir)):
            if not fname.endswith(_IMAGE_EXTS):
                continue
            stem = os.path.splitext(fname)[0]
            candidates = (os.path.join(mask_dir, stem + ext) for ext in _IMAGE_EXTS)
            mask_path = next((c for c in candidates if os.path.exists(c)), None)
            if mask_path is None:
                raise StructuralError(f"no mask found for image {fname}")
            img_path = os.path.join(img_dir, fname)
            img, mask = _load_image_file(img_path), _load_mask_file(mask_path)
            if mask.shape != img.shape[1:]:
                raise StructuralError(f"{mask_path}: mask {mask.shape} does not match "
                                      f"image {img.shape[1:]}")
            rows.append((stem, img_path, bilinear_resize(img, image_size, image_size),
                         nearest_resize(mask, image_size, image_size)))
        if not rows:
            raise StructuralError(f"{path}: empty segmentation folder")
    else:
        for label, cls in enumerate(subdirs):
            cls_dir = os.path.join(path, cls)
            files = sorted(f for f in os.listdir(cls_dir) if f.endswith(_IMAGE_EXTS))
            if not files:
                raise StructuralError(f"{cls_dir}: class directory is empty")
            for fname in files:
                img_path = os.path.join(cls_dir, fname)
                img = bilinear_resize(_load_image_file(img_path), image_size, image_size)
                rows.append((f"{cls}/{os.path.splitext(fname)[0]}", img_path, img, label))

    rows.sort(key=lambda r: r[0])
    ids, files, images, targets = zip(*rows)
    for file, img in zip(files, images):
        if img.shape != images[0].shape:
            raise StructuralError(f"{file}: {img.shape[0]} channels, but {files[0]} "
                                  f"has {images[0].shape[0]}")
    if seg:
        return Dataset(task="segmentation", images=np.stack(images), ids=list(ids),
                       masks=np.stack(targets), class_names=["background", "foreground"])
    return Dataset(task="classification", images=np.stack(images), ids=list(ids),
                   labels=np.array(targets, dtype=np.intp), class_names=subdirs)


# -- synthetic tasks -----------------------------------------------------------


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """`[data] kind = synthetic_cls` selects `textured_shapes_cls`; `synthetic_seg`, `blob_seg`."""
    kind: str = "textured_shapes_cls"
    num_classes: int = 4
    image_size: int = 32
    noise: float = 0.25
    separation: float = 0.8                # template contrast above noise floor
    train_count: int = 128
    val_count: int = 64
    test_count: int = 64

    def __post_init__(self):
        for name in ("num_classes", "image_size"):
            if getattr(self, name) < 1:
                raise ArgumentError(f"{name} must be >= 1, got {getattr(self, name)}")


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
    images = np.empty((count, 1, spec.image_size, spec.image_size))
    labels = np.arange(count, dtype=np.intp) % spec.num_classes
    for i, cls in enumerate(labels):
        img = templates[cls][None]
        if spec.noise > 0:
            img = img + spec.noise * rng.child(f"{tag}/noise{i}").normal(img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    return Dataset(task="classification", images=images,
                   ids=[f"{tag}{i:05d}" for i in range(count)], labels=labels,
                   class_names=[f"class{c}" for c in range(spec.num_classes)])


def _make_seg_split(spec: SyntheticTaskSpec, rng: SeededRng, count: int, tag: str) -> Dataset:
    size = spec.image_size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    images = np.empty((count, 1, size, size))
    masks = np.empty((count, size, size), dtype=np.intp)
    for i in range(count):
        srng = rng.child(f"{tag}/blob{i}")
        radius = float(srng.uniform(low=size * 0.12, high=size * 0.3))
        margin = radius + 2
        cy = float(srng.uniform(low=margin, high=size - 1 - margin))
        cx = float(srng.uniform(low=margin, high=size - 1 - margin))
        masks[i] = ((yy - cy) ** 2 + (xx - cx) ** 2) <= radius * radius
        img = np.where(masks[i], 0.8, 0.2)[None]
        if spec.noise > 0:
            img = img + spec.noise * srng.child("noise").normal(img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    return Dataset(task="segmentation", images=images,
                   ids=[f"{tag}{i:05d}" for i in range(count)], masks=masks,
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


def subset(dataset: Dataset, annotation_ratio: float, seed: int) -> Dataset:
    """Per-class-stratified deterministic subset of ceil(ratio * n_c) samples.

    Subsets are nested: under one seed, a smaller ratio's selection is
    contained in any larger ratio's selection. A segmentation split is one
    stratum.
    """
    if not 0.0 < annotation_ratio <= 1.0:
        raise ArgumentError(f"annotation_ratio must be in (0,1], got {annotation_ratio}")
    strata = dataset.labels if dataset.task == "classification" \
        else np.zeros(len(dataset), dtype=np.intp)
    keep = []
    for cls in np.unique(strata):
        indices = np.flatnonzero(strata == cls)
        order = SeededRng(seed, f"subset/class{cls}").permutation(len(indices))
        keep.extend(indices[order[:int(np.ceil(annotation_ratio * len(indices)))]])
    return dataset.take(sorted(keep))
