"""Randomized SVD with stabilized power iterations.

The sketch is Gaussian with entry variance 1/l, so E[omega @ omega.T] = I.
Power iterations are always evaluated in the stabilized form that
re-orthonormalizes at every half step,

    X0 = ortho(A @ omega),   Xi = ortho(A @ ortho(A.T @ X(i-1))),

never as the bare (A A^T)^q A omega product, which loses accuracy on
ill-conditioned inputs. In exact arithmetic the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (RankDeficient, SvdFactors, as_matrix, normal_row_blocks, ortho,
                     seeded_rng, svd_full)
from .prior_bounds import SketchCollapsed


@dataclass(frozen=True)
class RsvdOutput(SvdFactors):
    """Factors of a randomized SVD with the n-by-l Gaussian sketch that
    produced them."""

    sketch: np.ndarray


def gaussian_sketch(n: int, l: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic n-by-l Gaussian sketch with i.i.d. N(0, 1/l) entries,
    written into out (an n-by-l float64 array, of any strides) if it is given.

    The stream is keyed by the seed alone and filled row-major, so a fixed
    (n, l, seed) triple reproduces the same matrix bit for bit. A
    C-contiguous out takes the whole draw at once and is scaled in place;
    a strided one is filled through ``normal_row_blocks``' buffer, which
    consumes the same words in the same order.
    """
    if not 1 <= l <= n:
        raise ValueError("need 1 <= l <= n")
    if out is None:
        out = np.empty((n, l))
    elif out.shape != (n, l):
        raise ValueError(f"out must have shape {(n, l)}, got {out.shape}")
    rng = seeded_rng(seed)
    if out.flags.c_contiguous:
        rng.standard_normal(out=out)
        np.divide(out, math.sqrt(l), out=out)
        return out
    for i, rows in normal_row_blocks(rng, n, l):
        np.divide(rows, math.sqrt(l), out=out[i:i + len(rows)])
    return out


def rsvd(a, l: int, q: int, seed: int) -> RsvdOutput:
    """Rank-l randomized SVD of a with q stabilized power iterations, from
    the Gaussian sketch of the 64-bit ``seed``; needs 1 <= l <= min(m, n).

    Returns factors (u, sigma, v) of width l with u = Q_X @ (small right
    factor), where Q_X spans the power-iterated sketch. Where ``ortho``
    finds a sketch basis rank deficient, e.g. for l > rank(a), raises
    SketchCollapsed("rank deficient sketch"), a ValueError; an overflowing
    product keeps ``ortho``'s own error.
    """
    a = as_matrix(a)
    m, n = a.shape
    if l < 1 or q < 0:
        raise ValueError("need l >= 1 and q >= 0")
    if l > min(m, n):
        raise ValueError(f"sample size l={l} exceeds min(m, n)={min(m, n)}")
    if not a.any():
        raise ValueError("rsvd requires a nonzero matrix")
    omega = gaussian_sketch(n, l, seed)
    x = _sketch_basis(a @ omega)
    for _ in range(q):
        x = _sketch_basis(a @ _sketch_basis(a.T @ x))
    f = svd_full(a.T @ x)
    # f.u is the n-by-l right factor of a; the l-by-l factor f.v rotates Q_X.
    return RsvdOutput(x @ f.v, f.sigma, f.u, omega)


def _sketch_basis(x: np.ndarray) -> np.ndarray:
    """ortho(x), with its rank verdict raised as SketchCollapsed."""
    try:
        return ortho(x)
    except RankDeficient as exc:
        raise SketchCollapsed(str(exc)) from None
