"""Writers for the two image formats that `tpp.data` reads, for building test
folders, and the one-image bilinear resize that `tpp.data.crop_resize` must
reproduce.

The writers write what `read_pnm` and `read_tppt` expect: a binary PGM (P5)
or PPM (P6), and a TPPT container ("TPPT" magic, u32 rank, u64 dims,
little-endian float64 payload).
"""

import struct

import numpy as np

from tpp.data import TPPT_MAGIC
from tpp.errors import ArgumentError


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


def write_tppt(path: str, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(TPPT_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.tobytes())


def reference_bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of a [C,H,W] array, as a C-ordered copy.

    Source coordinate for output index i is i*(in-1)/(out-1); a size-1
    output axis samples coordinate 0. An image already of the output size
    is copied.
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
    return np.ascontiguousarray(top * (1 - wy) + bot * wy)
