"""Dense real double-precision linear-algebra kernels.

Everything in this package moves plain float64 numpy arrays around with
(row, col) access semantics. All functions here are pure: they never mutate
their inputs and are safe to call concurrently.

Randomness is always drawn from a counter-based Philox generator keyed by a
64-bit seed (see :func:`seeded_rng`), so a (seed, draw index) pair fully
determines every random draw, independent of scheduling or platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def seeded_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for a 64-bit seed (numpy Philox, ziggurat normals)."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input into a finite 2-d float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Non-increasing, non-negative singular values with a declared rank.

    Entries at positions >= ``declared_rank`` are exactly zero; entries
    before are strictly positive.
    """

    values: np.ndarray
    declared_rank: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a nonempty 1-d array")
        if not np.isfinite(v).all() or (v < 0).any():
            raise ValueError("spectrum values must be finite and nonnegative")
        if (np.diff(v) > 0).any():
            raise ValueError("spectrum values must be non-increasing")
        r = self.declared_rank
        if not (0 <= r <= v.size):
            raise ValueError("declared_rank out of range")
        if (v[:r] <= 0).any() or (v[r:] != 0).any():
            raise ValueError("declared_rank must separate positive values from exact zeros")

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        """Build a spectrum inferring the declared rank as the nonzero count."""
        v = np.asarray(values, dtype=np.float64)
        return cls(v, int(np.count_nonzero(v)))

    @property
    def size(self) -> int:
        return int(self.values.size)

    def tail(self, k: int) -> np.ndarray:
        """Positive values strictly below index k (the tail used by all bounds)."""
        return self.values[k:self.declared_rank]

    def scaled(self, c: float) -> "Spectrum":
        return Spectrum(self.values * float(c), self.declared_rank)


@dataclass(frozen=True)
class SvdFactors:
    """(u, sigma, v) with orthonormal columns in u, v and non-increasing sigma."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        p = self.sigma.size
        if self.u.ndim != 2 or self.v.ndim != 2 or self.sigma.ndim != 1:
            raise ValueError("SvdFactors shapes are malformed")
        if self.u.shape[1] != p or self.v.shape[1] != p:
            raise ValueError("factor widths must match the number of singular values")
        if (self.sigma < 0).any() or (np.diff(self.sigma) > 0).any():
            raise ValueError("singular values must be nonnegative and non-increasing")

    @property
    def width(self) -> int:
        return int(self.sigma.size)

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T

    def spectrum(self) -> Spectrum:
        return Spectrum.from_values(self.sigma)


def ortho(m) -> np.ndarray:
    """Orthonormal basis of range(m) via reduced unpivoted QR.

    Raises ValueError("rank deficient sketch") when an R diagonal entry falls
    below 1e-12 times the Frobenius norm of the input, which signals that a
    sketch collapsed (or the input was rank deficient to begin with).
    """
    m = as_matrix(m)
    rows, cols = m.shape
    if cols > rows:
        raise ValueError("ortho requires cols <= rows")
    q, r = np.linalg.qr(m)
    if np.abs(np.diag(r)).min() <= 1e-12 * np.linalg.norm(m):
        raise ValueError("rank deficient sketch")
    return q


def svd_full(m) -> SvdFactors:
    """Economy SVD of a dense matrix, delegated to the LAPACK kernel."""
    m = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("svd failed") from exc
    return SvdFactors(u, s, vh.T)


def sv_x_pinv(x, y) -> np.ndarray:
    """Singular values of x @ pinv(y) for a tall y of full column rank.

    With the reduced QR y = Q R, pinv(y) = inv(R) Q.T, and Q.T has
    orthonormal rows, so the values are those of solve(R.T, x.T): one QR of
    the tall block, one small solve and one values-only SVD. Raises
    ValueError("rank deficient y") when the smallest singular value of y is
    at most 1e-12 times its largest.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if y.shape[0] < y.shape[1]:
        raise ValueError("y must have at least as many rows as columns")
    if x.shape[1] != y.shape[1]:
        raise ValueError("x and y column counts differ")
    r = np.linalg.qr(y, mode="r")
    s = np.linalg.svd(r, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        raise ValueError("rank deficient y")
    return np.linalg.svd(np.linalg.solve(r.T, x.T), compute_uv=False)


def spectral_norm_power(m, iters: int = 50, seed: int = 0) -> float:
    """Randomized power-method estimate of the spectral norm.

    The returned value never exceeds sigma_1(m) and is non-decreasing in
    ``iters`` for a fixed seed (it is the square root of the Rayleigh
    quotient of m.T @ m along the power iterates).
    """
    m = as_matrix(m)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = seeded_rng(seed)
    v = rng.standard_normal(m.shape[1])
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return 0.0
    v /= norm
    for _ in range(iters):
        z = m.T @ (m @ v)
        norm = np.linalg.norm(z)
        if norm == 0.0:
            return 0.0
        v = z / norm
    return float(np.linalg.norm(m @ v))
