"""Matrix Market dense-array file I/O.

The on-disk format is the plain-text "array" variant: a header line
``%%MatrixMarket matrix array real general``, optional ``%`` comment lines,
a ``rows cols`` line, then one entry per line in column-major order.
Values are written with 17 significant digits, which round-trips float64.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix

_HEADER_FIELDS = ("matrix", "array", "real", "general")


def write_matrix(a, path) -> None:
    a = as_matrix(a)
    rows, cols = a.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{rows} {cols}\n")
        for j in range(cols):
            for i in range(rows):
                fh.write(f"{a[i, j]:.17g}\n")


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path}: missing MatrixMarket header")
        fields = tuple(header.split()[1:5])
        if tuple(f.lower() for f in fields) != _HEADER_FIELDS:
            raise ValueError(f"{path}: unsupported MatrixMarket header {header.strip()!r}")
        line = fh.readline()
        while line and (line.startswith("%") or not line.strip()):
            line = fh.readline()
        malformed = f"{path}: malformed size line {line.strip()!r}"
        try:
            rows, cols = (int(tok) for tok in line.split())
        except Exception as exc:
            raise ValueError(malformed) from exc
        if rows < 0 or cols < 0:
            raise ValueError(malformed)
        body = fh.read().split()
    if len(body) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, found {len(body)}")
    data = np.array([float(tok) for tok in body], dtype=np.float64)
    return as_matrix(data.reshape((rows, cols), order="F"), name=str(path))
