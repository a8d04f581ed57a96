"""Target-matrix generators with planted, exactly-known factors.

Generators cover the test-matrix families used throughout the experiment
harness: dense Gaussian matrices with a prescribed spectrum (planted exact
factors), sparse non-negative sums of weighted rank-1 terms (no factors
planted), two-level step spectra, and ingestion of IDX3 image
files such as MNIST.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .linalg import (_RANK_TOL, RankDeficient, Spectrum, SvdFactors, as_matrix,
                     normal_row_blocks, ortho, seeded_rng)
from .rsvd import gaussian_sketch


def gen_gaussian_decay(m: int, n: int, spectrum: Spectrum,
                       seed: int) -> tuple[np.ndarray, SvdFactors]:
    """Dense matrix a with uniformly random singular subspaces and the given
    spectrum, and its planted factors.

    Bases come from orthonormalized Gaussian draws of one stream,
    seeded_rng(seed): the m-by-r block of u first, then the n-by-r block of
    v, each orthonormalized as soon as it is drawn. The planted factors are
    exact: a = u * sigma @ v.T up to rounding.
    """
    r = spectrum.declared_rank
    if r > min(m, n):
        raise ValueError("declared rank exceeds min(m, n)")
    rng = seeded_rng(seed)
    u = ortho(rng.standard_normal((m, r)))
    v = ortho(rng.standard_normal((n, r)))
    sigma = spectrum.values[:r]
    a = (u * sigma) @ v.T
    return a, SvdFactors(u, sigma, v)


def gaussian_decay_right_sketch(m: int, n: int, spectrum: Spectrum, seed: int,
                                k: int, l: int, sketch_seed: int) -> np.ndarray:
    """[v_k.T @ omega; T], (k + l)-by-l, for the factors v of
    gen_gaussian_decay(m, n, spectrum, seed) and omega =
    gaussian_sketch(n, l, sketch_seed), where T is the l-by-l triangular
    factor of v_perp.T @ omega for an orthonormal basis v_perp of the
    complement of span(v_k). Neither v nor a is formed.

    The QR that orthonormalizes the n-by-r Gaussian block G into v is
    column-nested: span(v_k) = span(G[:, :k]), and its first k Householder
    reflectors are those of G[:, :k] alone. One QR of [G[:, :k] | omega]
    applies them to omega, as least squares applies Q.T to b (Golub & Van
    Loan, Matrix Computations, 4th ed., secs. 5.2-5.3), so the last l
    columns of R hold v_k.T @ omega over T. As pinv(Q_T T) = inv(T) Q_T.T,
    sv_x_pinv of the two blocks is sv(v_k.T omega pinv(v_perp.T omega)).
    The left block and the whole of G are drawn, a few rows at a time, so
    that the stream and v stay the same; only G's first k columns are kept,
    and omega is drawn into the last l columns, so no r-by-r or separate
    n-by-l array is held. Raises RankDeficient("rank deficient sketch") where
    ortho would for G's first k columns.
    """
    r = spectrum.declared_rank
    if r > min(m, n):
        raise ValueError("declared rank exceeds min(m, n)")
    if not 1 <= k <= r:
        raise ValueError("need 1 <= k <= declared rank")
    rng = seeded_rng(seed)
    for _ in normal_row_blocks(rng, m, r):
        pass  # the left block: drawn only to reach G in the stream
    stacked = np.empty((n, k + l))
    gaussian_sketch(n, l, sketch_seed, out=stacked[:, k:])
    for i, rows in normal_row_blocks(rng, n, r):
        stacked[i:i + len(rows), :k] = rows[:, :k]
    norm = np.linalg.norm(stacked[:, :k])
    factor = np.linalg.qr(stacked, mode="r")
    if np.abs(np.diag(factor[:, :k])).min() <= _RANK_TOL * norm:
        raise RankDeficient("rank deficient sketch")
    return factor[:, k:]


def spectrum_slower(r: int, r1: int) -> Spectrum:
    """Polynomial tail: sigma_i = 1 for i <= r1, then 1/sqrt(i - r1 + 1)."""
    if not 1 <= r1 <= r:
        raise ValueError("need 1 <= r1 <= r")
    i = np.arange(1, r + 1, dtype=np.float64)
    vals = np.where(i <= r1, 1.0, 1.0 / np.sqrt(np.maximum(i - r1 + 1, 1.0)))
    return Spectrum(vals)


def spectrum_faster(r: int, r1: int) -> Spectrum:
    """Exponential tail: sigma_i = 1 for i <= r1, then max(0.99^(i - r1), 1e-3)."""
    if not 1 <= r1 <= r:
        raise ValueError("need 1 <= r1 <= r")
    i = np.arange(1, r + 1, dtype=np.float64)
    vals = np.where(i <= r1, 1.0, np.maximum(0.99 ** (i - r1), 1e-3))
    return Spectrum(vals)


def gen_step_spectrum(k: int, beta: float, gap: float) -> Spectrum:
    """Two-level spectrum: k values at ``gap`` followed by beta*k ones."""
    if gap < 1.0:
        raise ValueError("gap must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    tail = beta * k
    if abs(tail - round(tail)) > 1e-9:
        raise ValueError("(1 + beta) * k must be integral")
    tail = int(round(tail))
    vals = np.concatenate([np.full(k, float(gap)), np.ones(tail)])
    return Spectrum(vals)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_length(v) -> bool:
    return _is_int(v) and v <= np.iinfo(np.intp).max  # the largest array length


def _step_fits(k: int, factor: float) -> bool:
    """Whether k + round(factor * k), a step spectrum's length, is an array length."""
    return math.isfinite(factor * k) and _is_length(k + round(factor * k))


def gen_snn(m: int, n: int, r1: int, a_param: float, density: float = 0.05,
            seed: int = 0) -> np.ndarray:
    """Sparse non-negative matrix: sum of (w_i) x_i y_i^T rank-1 terms.

    Weights are a_param/i for i <= r1 and 1/i beyond; x_i, y_i are sparse
    vectors whose entries are nonzero with probability ``density`` and
    uniform on (0, 1]. Nothing is planted: the factors are computed by
    ``harness.build_matrix``.
    """
    if a_param < 1.0:
        raise ValueError("a_param must be >= 1")
    if not 1 <= r1 <= min(m, n):
        raise ValueError("need 1 <= r1 <= min(m, n)")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    rng = seeded_rng(seed)
    r = min(m, n)
    i = np.arange(1, r + 1, dtype=np.float64)
    weights = np.where(i <= r1, a_param / i, 1.0 / i)
    x = np.where(rng.random((m, r)) < density, 1.0 - rng.random((m, r)), 0.0)
    y = np.where(rng.random((n, r)) < density, 1.0 - rng.random((n, r)), 0.0)
    return (x * weights) @ y.T


_IDX3_MAGIC = 0x00000803


def load_mnist(images_path, n_samples: int, seed: int) -> np.ndarray:
    """Load an IDX3 image file and sample rows uniformly without replacement.

    Returns an (n_samples, rows*cols) matrix with entries in [0, 1]
    (raw byte / 255). The row subset is determined by the seed.
    """
    with open(images_path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise ValueError("malformed IDX file")
        magic, count, rows, cols = struct.unpack(">IIII", head)
        if magic != _IDX3_MAGIC:
            raise ValueError("malformed IDX file")
        body = fh.read(count * rows * cols)
    if len(body) != count * rows * cols:
        raise ValueError("malformed IDX file")
    if not 1 <= n_samples <= count:
        raise ValueError(f"n_samples must lie in [1, {count}]")
    images = np.frombuffer(body, dtype=np.uint8).reshape(count, rows * cols)
    rng = seeded_rng(seed)
    picks = rng.choice(count, size=n_samples, replace=False)
    return as_matrix(images[picks].astype(np.float64) / 255.0, "mnist sample")
