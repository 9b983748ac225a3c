"""Writers for the two image formats that `tpp.data` reads, for building test folders.

They write what `read_pnm` and `read_tppt` expect: a binary PGM (P5) or
PPM (P6), and a TPPT container ("TPPT" magic, u32 rank, u64 dims,
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
