"""On-disk checkpoint format.

Layout (bit-exact round trip required):

    HMGRL-CKPT v1\n
    meta\t<json hyperparameter record>\n
    <name>\t<rows>\t<cols>\n followed by rows*cols little-endian float64
    ... one such record per tensor, in insertion order
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..errors import DataError, ParameterError

MAGIC = b"HMGRL-CKPT v1\n"


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(b"meta\t" + json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
        for name, arr in tensors.items():
            if "\t" in name or "\n" in name:
                raise ParameterError(f"tensor name {name!r} contains tab/newline")
            a = np.ascontiguousarray(arr, dtype="<f8")
            if a.ndim != 2:
                raise ParameterError(f"tensor {name!r} is not 2-D")
            fh.write(f"{name}\t{a.shape[0]}\t{a.shape[1]}\n".encode("utf-8"))
            fh.write(a.tobytes(order="C"))


def _read_line(fh, path) -> bytes:
    buf = bytearray()
    while True:
        ch = fh.read(1)
        if not ch:
            if buf:
                raise DataError("truncated record header", path=path)
            return b""
        if ch == b"\n":
            return bytes(buf)
        buf += ch


def _dimension(text: str, name: str, path) -> int:
    if not (text.isascii() and text.isdigit()):
        raise DataError(f"tensor {name!r}: dimension {text!r} is not a "
                        f"non-negative integer", path=path)
    return int(text)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (fresh tensors in file order, meta); a malformed file, or a
    tensor holding a NaN or an infinity, raises a DataError naming it."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataError("bad magic: not a checkpoint file", path=path)
        meta_line = _read_line(fh, path)
        if not meta_line.startswith(b"meta\t"):
            raise DataError("missing meta record", path=path)
        try:
            meta = json.loads(meta_line[5:].decode("utf-8"))
        except ValueError as err:  # bad UTF-8 or bad JSON
            raise DataError(f"bad meta record: {err}", path=path) from None
        if not isinstance(meta, dict):
            raise DataError("meta record is not a JSON object", path=path)
        tensors: dict[str, np.ndarray] = {}
        while True:
            header = _read_line(fh, path)
            if not header:
                break
            try:
                parts = header.decode("utf-8").split("\t")
            except UnicodeDecodeError:
                parts = []
            if len(parts) != 3:
                raise DataError(f"malformed tensor header {header!r}", path=path)
            name = parts[0]
            rows, cols = (_dimension(text, name, path) for text in parts[1:])
            if name in tensors:
                raise DataError(f"duplicate tensor {name!r}", path=path)
            nbytes = rows * cols * 8
            if nbytes > size - fh.tell():
                raise DataError(f"truncated payload for tensor {name!r}", path=path)
            raw = fh.read(nbytes)
            tensor = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
            if not np.isfinite(tensor).all():
                raise DataError(f"tensor {name!r} holds a non-finite value", path=path)
            tensors[name] = tensor
    return tensors, meta
