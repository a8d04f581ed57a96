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

from .linalg import SvdFactors, as_matrix, ortho, seeded_rng, svd_full
from .prior_bounds import SketchCollapsed


@dataclass(frozen=True)
class SketchConfig:
    """Parameters of a randomized SVD run: target rank k, sample size l,
    power iterations q, and the 64-bit sketch seed."""

    k: int
    l: int
    q: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.k <= self.l:
            raise ValueError("need 1 <= k <= l")
        if self.q < 0:
            raise ValueError("q must be >= 0")

    def validate_for_shape(self, m: int, n: int) -> None:
        if self.l > min(m, n):
            raise ValueError(f"sample size l={self.l} exceeds min(m, n)={min(m, n)}")


@dataclass(frozen=True)
class RsvdOutput:
    """Factors of a randomized SVD with the n-by-l Gaussian sketch that
    produced them (None for factors built another way)."""

    factors: SvdFactors
    sketch: np.ndarray | None = None

    @property
    def u(self) -> np.ndarray:
        return self.factors.u

    @property
    def sigma(self) -> np.ndarray:
        return self.factors.sigma

    @property
    def v(self) -> np.ndarray:
        return self.factors.v


def gaussian_sketch(n: int, l: int, seed: int) -> np.ndarray:
    """Deterministic n-by-l Gaussian sketch with i.i.d. N(0, 1/l) entries.

    The stream is keyed by the seed alone and filled row-major, so a fixed
    (n, l, seed) triple reproduces the same matrix bit for bit.
    """
    if not 1 <= l <= n:
        raise ValueError("need 1 <= l <= n")
    rng = seeded_rng(seed)
    return rng.standard_normal((n, l)) / math.sqrt(l)


def rsvd(a, cfg: SketchConfig) -> RsvdOutput:
    """Rank-l randomized SVD of a with q stabilized power iterations.

    Returns factors (u, sigma, v) of width l with u = Q_X @ (small right
    factor), where Q_X spans the power-iterated sketch. Raises
    SketchCollapsed("rank deficient sketch"), a ValueError, when the sketch
    collapses, e.g. for l > rank(a).
    """
    a = as_matrix(a)
    m, n = a.shape
    cfg.validate_for_shape(m, n)
    if np.linalg.norm(a) == 0.0:
        raise ValueError("rsvd requires a nonzero matrix")
    omega = gaussian_sketch(n, cfg.l, cfg.seed)
    x = _sketch_basis(a @ omega)
    for _ in range(cfg.q):
        x = _sketch_basis(a @ _sketch_basis(a.T @ x))
    f = svd_full(a.T @ x)
    # f.u is the n-by-l right factor of a; the l-by-l factor f.v rotates Q_X.
    return RsvdOutput(SvdFactors(x @ f.v, f.sigma, f.u), omega)


def _sketch_basis(x: np.ndarray) -> np.ndarray:
    """ortho(x). For a finite x its only failure is the rank check, which
    is raised as SketchCollapsed; an overflowing x keeps ortho's error."""
    try:
        return ortho(x)
    except ValueError as exc:
        if not np.isfinite(x).all():
            raise
        raise SketchCollapsed(str(exc)) from None
