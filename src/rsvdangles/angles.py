"""Exact canonical (principal) angles between column spans.

Index convention used across the whole package: angle vectors are emitted in
ascending-angle order, so position i (1-based) holds sin of the i-th
smallest canonical angle and sine vectors are non-decreasing.

Sines are computed from the complement projection (I - Qb Qb^T) Qs rather
than from 1 - cos^2, which stays accurate for the small angles that matter
on log-scale comparisons.
"""

from __future__ import annotations

import numpy as np

from .linalg import RankDeficient, as_matrix, ortho


def canonical_sines(big, small) -> np.ndarray:
    """Sines of the canonical angles between range(big) and range(small).

    Returns the k = small.shape[1] sines in ascending-angle order. Values are
    clamped to [0, 1] after checking they do not exceed 1 + 1e-8, which would
    indicate a broken orthonormalization upstream. Raises
    RankDeficient("rank deficient input") where either input lacks full
    column rank.
    """
    big = as_matrix(big, "big")
    small = as_matrix(small, "small")
    d, l = big.shape
    d2, k = small.shape
    if d != d2:
        raise ValueError("subspaces must live in the same ambient dimension")
    if not k <= l <= d:
        raise ValueError("need small cols <= big cols <= ambient dim")
    try:
        qb, qs = ortho(big), ortho(small)
    except RankDeficient as exc:
        raise RankDeficient("rank deficient input") from exc
    resid = qs - qb @ (qb.T @ qs)
    s = np.linalg.svd(resid, compute_uv=False)
    if s.size and s[0] > 1.0 + 1e-8:
        raise ValueError("sine out of range")
    return np.clip(s[::-1], 0.0, 1.0)
