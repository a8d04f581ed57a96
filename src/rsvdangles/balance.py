"""The fixed-budget balance study: a matvec budget split between the sample
size l and the power count q, with the budget curve and each trial's sine."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import sines_from_nu
from .linalg import Spectrum, sv_x_pinv
from .matgen import _step_fits, gaussian_decay_right_sketch, gen_step_spectrum
from .prior_bounds import space_agnostic_upper
from .report import Panel, Series
from .workers import _share


@dataclass(frozen=True)
class BalanceConfig:
    """Fixed-budget study: budget_factor*k matvecs split between the sample
    size l = floor(budget_factor*k / (2q+1)) and the power count q."""

    k: int
    budget_factor: float
    tail_factor: float
    oversample_factor: float
    gap: float
    trials: int = 5
    seed: int = 0

    def __post_init__(self):
        for key in ("budget_factor", "tail_factor", "oversample_factor", "gap"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"config value must be finite: {key}")
        if self.k < 1:
            raise ValueError("config value must be >= 1: k")
        if self.trials < 0:
            raise ValueError("config value must be >= 0: trials")
        if self.oversample_factor <= 1.0:
            raise ValueError("oversample_factor must exceed 1")
        # above 1e154 the square, which may overflow, exceeds every budget the checks below admit
        if self.oversample_factor > 1e154 or self.budget_factor / self.oversample_factor**2 < 1.0:
            raise ValueError("config value leaves the budget no feasible q: oversample_factor")
        if self.gap < 1.0:
            raise ValueError("gap must be >= 1")
        if self.budget_factor > self.tail_factor:
            # so l <= r - k: a trial's tail block y_2 is at least as tall as wide
            raise ValueError("config value must be <= tail_factor: budget_factor")
        if not _step_fits(self.k, self.tail_factor):  # the list of power counts is shorter
            raise ValueError("config value makes (1 + tail_factor) * k exceed"
                             " the largest array length: tail_factor")
        tail = self.tail_factor * self.k
        if abs(tail - round(tail)) > 1e-9:
            raise ValueError("(1 + tail_factor) * k must be integral")

    @property
    def size(self) -> int:
        return self.k + int(round(self.tail_factor * self.k))


def _max_power(cfg: BalanceConfig) -> int:
    """The largest q whose 2q+1 passes of l >= g^2 k columns fit the budget."""
    return int((cfg.budget_factor / cfg.oversample_factor**2 - 1.0) / 2.0 + 1e-12)


def feasible_powers(cfg: BalanceConfig) -> list[int]:
    return list(range(_max_power(cfg) + 1))


def fixed_budget_bound(q: int, cfg: BalanceConfig) -> float:
    """The budget curve phi at power count q.

    The space-agnostic upper bound on the step spectrum at the real-valued
    sample size l = budget/(2q+1), with the oversampling factor as the
    distortion multiplier; 1 where that head distortion g*sqrt(k/l) reaches 1.
    q must be one of ``feasible_powers(cfg)``.

    It does not bound the trials' largest sine beyond q = 0. At k=20, budget
    16, size factor 32, oversample 1.05, 20 trials, seed 0 and gaps 1.01 and
    1.5, it held against the realized largest sine in 20 of 20 trials at q=0,
    14 of 20 at q=1 and at most 1 of 20 at each q >= 2. The repository holds
    only the paper's title and arXiv id, so whether the paper states the
    curve as a bound on the largest sine, on a typical sine or as a guide to
    the split is open.
    """
    if not 0 <= q <= _max_power(cfg):
        raise ValueError(f"power count must lie in 0..{_max_power(cfg)} for this budget: q")
    a, g = cfg.budget_factor, cfg.oversample_factor
    passes = 2 * q + 1
    l = a * cfg.k / passes
    if g * math.sqrt(cfg.k / l) >= 1.0:
        return 1.0
    step = gen_step_spectrum(cfg.k, cfg.tail_factor, cfg.gap)
    return float(space_agnostic_upper(step, cfg.k, l, q, "left", c=g).values[0])


def balance_sweep(cfg: BalanceConfig) -> list[dict]:
    """Evaluate the budget curve and, per trial, the realized largest sine.

    One row per (q, trial): {gap, k, q, l, phi, trial, largest_sine}; with
    trials=0 a single phi-only row per q (trial = -1, sine nan). The trials
    are shared by as many workers as ``_share`` allows; the rows do not
    depend on the worker count.
    """
    curve = [{"gap": cfg.gap, "k": cfg.k, "q": q,
              "l": int(cfg.budget_factor * cfg.k / (2 * q + 1)),
              "phi": fixed_budget_bound(q, cfg)}
             for q in feasible_powers(cfg)]
    if cfg.trials == 0:
        return [{**base, "trial": -1, "largest_sine": float("nan")} for base in curve]
    pairs = [(base, trial) for base in curve for trial in range(cfg.trials)]
    spec = gen_step_spectrum(cfg.k, cfg.tail_factor, cfg.gap)
    tasks = [(base["q"], base["l"], trial) for base, trial in pairs]
    sines = _share(_balance_trial, (cfg, spec), tasks, len(tasks))
    return [{**base, "trial": trial, "largest_sine": sine}
            for (base, trial), sine in zip(pairs, sines)]


def _balance_trial(cfg: BalanceConfig, spec: Spectrum, task) -> float:
    """The largest sine of one (q, l, trial) of the balance study: that of
    rsvd of the planted a = U Sigma V^T with the sketch omega, against U_k.

    Canonical angles do not change under the orthogonal U and V, so with
    y = V^T omega the stabilized iteration spans range(Sigma^(2q+1) y), and
    its sines against e_1..e_k are the estimator's formula. Sigma is
    diag(gap I_k, I), so nu = gap^(2q+1) sv(y_1 pinv(y_2)), which needs y_2
    only up to a left orthogonal factor. y_1 over the triangular factor of
    y_2 comes from one QR of [first k columns of the right block | omega]
    (``gaussian_decay_right_sketch``), so neither V nor a is formed, no
    r-by-r QR runs and no r-by-r array is held. The power scales the
    scalar, not y_1: an overflowing power gives the sine 0, where it would
    fail ``sv_x_pinv``'s finite-input check.
    """
    q, l, trial = task
    k, r = cfg.k, cfg.size
    y = gaussian_decay_right_sketch(r, r, spec, cfg.seed + 100_000 * (q + 1) + trial,
                                    k, l, cfg.seed + 200_000 * (q + 1) + trial)
    s = sv_x_pinv(y[:k], y[k:])
    with np.errstate(over="ignore"):
        nu = np.float64(cfg.gap) ** (2 * q + 1) * s[-1]
    return float(sines_from_nu(nu))


def balance_panel(rows: list[dict]) -> Panel:
    by_q: dict[int, list[float]] = {}
    phi_by_q: dict[int, float] = {}
    for row in rows:
        phi_by_q[row["q"]] = row["phi"]
        if row["trial"] >= 0 and np.isfinite(row["largest_sine"]):
            by_q.setdefault(row["q"], []).append(row["largest_sine"])
    qs = sorted(phi_by_q)
    series = [Series("budget curve", "#d62728", False,
                     [float(q) for q in qs], [phi_by_q[q] for q in qs])]
    if by_q:
        for label, agg in (("largest sine (mean)", np.mean),
                           ("largest sine (min)", np.min),
                           ("largest sine (max)", np.max)):
            series.append(Series(label, "#000000", label != "largest sine (mean)",
                                 [float(q) for q in sorted(by_q)],
                                 [float(agg(by_q[q])) for q in sorted(by_q)]))
    gap = rows[0]["gap"] if rows else float("nan")
    return Panel(f"budget split, gap {gap:g}", "power iterations q", "sine", series)
