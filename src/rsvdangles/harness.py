"""Experiment orchestration: bound comparisons, balance study, CSV/SVG output.

``run_experiment`` executes a grid of (k, l, q) sketch configurations over a
set of algorithm seeds on one target matrix. For every run it records the
true canonical sines and every bound/estimate family, each evaluated against
both the true spectrum and the padded approximated spectrum, as one CSV row
per (matrix, side, k, l, q, seed, i, kind, spectrum_source, value, status).

A bound family that raises a ``BoundFailure`` gets NaN rows with the
failure's ``status`` and never aborts a sweep, and a run whose sketch
collapses gets NaN rows of every kind; any other exception aborts it. A
grid entry that cannot run (l above rank(A), which is at most min(m, n), or
upper_c * sqrt(k/l) >= 1) is rejected before any run.
Re-running with an identical config reproduces identical CSV bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .angles import canonical_sines
from .estimator import sines_from_nu, unbiased_estimate
from .linalg import _EPS, Spectrum, sv_x_pinv, svd_full
from .matgen import (gaussian_decay_right_sketch, gen_gaussian_decay, gen_snn,
                     gen_step_spectrum, load_mnist, spectrum_faster,
                     spectrum_slower)
from .mmio import read_matrix
from .posterior_bounds import (gap_bounds, residual_blocks,
                               residual_ratio_bounds, residual_spectrum)
from .prior_bounds import (BoundFailure, SketchCollapsed, make_report,
                           sketch_ratio, space_agnostic_lower,
                           space_agnostic_upper, subspace_aware_upper)
from .rsvd import SketchConfig, gaussian_sketch, rsvd
from .workers import _share

SCHEMA_VERSION = 1
OUTDIR_ENV = "RSVDANGLES_OUTDIR"

STATUS_OK = "ok"
STATUS_TRIVIAL = "trivial_bound"


class Row(NamedTuple):
    """One CSV row. Its field order is the column order and the sort order;
    the fields before ``value`` are unique within a table."""

    matrix: str
    side: str
    k: int
    l: int
    q: int
    seed: int
    i: int
    kind: str
    spectrum_source: str
    value: float
    status: str


CSV_HEADER = ",".join(Row._fields)
# one line per Row; %.17g writes a float as f"{value:.17g}" does
_CSV_LINE = ",".join("%.17g" if f == "value" else "%s" for f in Row._fields) + "\n"


@dataclass
class ExperimentConfig:
    """One target matrix, a (k, l, q) grid, and the evaluation options."""

    matrix: dict
    grid: list[tuple[int, int, int]]
    sides: tuple[str, ...] = ("left", "right")
    estimator_trials: int = 3
    n_seeds: int = 1
    base_seed: int = 0
    upper_c: float = 1.0
    lower_c: float = 2.0
    outdir: str | None = None
    jobs: int = 1

    def __post_init__(self):
        if not self.grid:
            raise ValueError("grid must be nonempty")
        for k, l, q in self.grid:
            if not (1 <= k < l):
                raise ValueError(f"grid point (k={k}, l={l}, q={q}) needs k < l")
            if q < 0:
                raise ValueError("q must be >= 0")
        if (not self.sides or len(set(self.sides)) < len(self.sides)
                or not set(self.sides) <= {"left", "right"}):
            raise ValueError("config value must name left, right or both, once each: sides")
        for key in ("estimator_trials", "n_seeds", "jobs"):
            if getattr(self, key) < 1:
                raise ValueError(f"config value must be >= 1: {key}")
        for key in ("upper_c", "lower_c"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"config value must be finite: {key}")
            if getattr(self, key) <= 0:
                raise ValueError(f"config value must be positive: {key}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        version = raw.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version!r}")
        unknown = sorted(raw.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        missing = [key for key in ("matrix", "grid") if key not in raw]
        if missing:
            raise ValueError(f"missing config key(s): {', '.join(missing)}")
        for key, (ok, what) in _VALUE_TYPES.items():
            if key in raw and not ok(raw[key]):
                raise ValueError(f"config value must be {what}: {key}")
        grid = []
        for pos, g in enumerate(raw.pop("grid")):
            if not isinstance(g, dict):
                raise ValueError(f"grid entry {pos} must be an object")
            missing = [key for key in ("k", "l", "q") if key not in g]
            if missing:
                raise ValueError(f"grid entry {pos} is missing key(s): {', '.join(missing)}")
            for key in ("k", "l", "q"):
                if not _is_int(g[key]):
                    raise ValueError(f"grid entry {pos} value must be an integer: {key}")
            grid.append((g["k"], g["l"], g["q"]))
        sides = tuple(raw.pop("sides", ("left", "right")))
        return cls(matrix=raw.pop("matrix"), grid=grid, sides=sides, **raw)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_name(v) -> bool:
    """A string that names a file inside the output directory: not empty,
    not "." or "..", and without a path separator."""
    return (isinstance(v, str) and v not in ("", ".", "..")
            and not any(sep and sep in v for sep in ("/", os.sep, os.altsep)))


def _is_object(v) -> bool:
    return isinstance(v, dict)


def _is_path(v) -> bool:
    return isinstance(v, (str, os.PathLike))


# JSON value checks per config key: (predicate, what the message asks for)
_VALUE_TYPES = {
    "matrix": (_is_object, "an object"),
    "grid": (lambda v: isinstance(v, list), "a list"),
    "sides": (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
              "a list of strings"),
    "estimator_trials": (_is_int, "an integer"),
    "n_seeds": (_is_int, "an integer"),
    "base_seed": (_is_int, "an integer"),
    "jobs": (_is_int, "an integer"),
    "upper_c": (_is_number, "a number"),
    "lower_c": (_is_number, "a number"),
    "outdir": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


# The four synthetic 500x500 presets of the bound-comparison protocol: sparse
# non-negative with head weights 1 and 100, and Gaussian with slower and
# faster decay, each with a flat top block of 20.
PRESETS = [
    {"generator": "snn", "m": 500, "n": 500, "r1": 20, "a": 1.0,
     "density": 0.05, "seed": 101, "name": "snn_a1"},
    {"generator": "snn", "m": 500, "n": 500, "r1": 20, "a": 100.0,
     "density": 0.05, "seed": 102, "name": "snn_a100"},
    {"generator": "gaussian_decay", "m": 500, "n": 500,
     "spectrum": {"kind": "slower", "r": 500, "r1": 20},
     "seed": 103, "name": "gauss_slower"},
    {"generator": "gaussian_decay", "m": 500, "n": 500,
     "spectrum": {"kind": "faster", "r": 500, "r1": 20},
     "seed": 104, "name": "gauss_faster"},
]


def build_matrix(desc: dict):
    """Materialize a matrix descriptor.

    Returns (name, a, factors, true_spectrum, pad_rank, has_known_factors).
    File-backed and image matrices get exact factors from a dense SVD for
    ground-truth evaluation, but are treated as having unknown subspaces for
    the comparator bound; their padding rank is min(m, n). A spectrum from a
    dense SVD (file-backed, image and ``snn`` matrices) has numerical rank:
    values at or below numpy's ``matrix_rank`` tolerance max(m, n) * eps *
    sigma_1 are round-off and become exact zeros.
    """
    gen = desc.get("generator")
    if gen == "gaussian_decay":
        spec = _spectrum_from_desc(_desc_value(desc, "spectrum", _is_object))
        pm = gen_gaussian_decay(_desc_value(desc, "m"), _desc_value(desc, "n"), spec,
                                _desc_value(desc, "seed", _is_int, 0),
                                name=_desc_value(desc, "name", _is_name, "gaussian_decay"))
        return pm.name, pm.a, pm.factors, pm.spectrum(), spec.declared_rank, True
    if gen == "snn":
        pm = gen_snn(_desc_value(desc, "m"), _desc_value(desc, "n"),
                     _desc_value(desc, "r1"), _desc_value(desc, "a", _is_number),
                     _desc_value(desc, "density", _is_number, 0.05),
                     _desc_value(desc, "seed", _is_int, 0),
                     name=_desc_value(desc, "name", _is_name, "snn"))
        spec = _computed_spectrum(pm.a, pm.factors.sigma)
        return pm.name, pm.a, pm.factors, spec, spec.declared_rank, True
    if gen == "mnist":
        a = load_mnist(_desc_value(desc, "path", _is_path),
                       _desc_value(desc, "n_samples"), _desc_value(desc, "seed", _is_int, 0))
        name = _desc_value(desc, "name", _is_name, "mnist")
    elif "path" in desc:
        path = _desc_value(desc, "path", _is_path)
        a = read_matrix(path)
        name = _desc_value(desc, "name", _is_name,
                           os.path.splitext(os.path.basename(path))[0])
    else:
        raise ValueError(f"unrecognized matrix descriptor: {desc}")
    f = svd_full(a)
    return name, a, f, _computed_spectrum(a, f.sigma), min(a.shape), False


def _computed_spectrum(a: np.ndarray, sigma: np.ndarray) -> Spectrum:
    tol = max(a.shape) * _EPS * sigma[0]
    return Spectrum.from_values(np.where(sigma > tol, sigma, 0.0))


def _desc_value(desc: dict, key: str, ok=_is_int, default=None):
    """``desc[key]``, with ``default`` standing in for an absent optional
    key; a missing required key or a value of a JSON type that ``ok``
    refuses raises a ValueError that names the key."""
    if key not in desc and default is None:
        raise ValueError(f"matrix descriptor is missing key: {key}")
    value = desc.get(key, default)
    if not ok(value):
        raise ValueError(f"matrix descriptor has an invalid value: {key}")
    return value


def _spectrum_from_desc(sd: dict) -> Spectrum:
    kind = _desc_value(sd, "kind", _is_str)
    if kind == "slower":
        return spectrum_slower(_desc_value(sd, "r"), _desc_value(sd, "r1"))
    if kind == "faster":
        return spectrum_faster(_desc_value(sd, "r"), _desc_value(sd, "r1"))
    if kind == "step":
        return gen_step_spectrum(_desc_value(sd, "k"), _desc_value(sd, "beta", _is_number),
                                 _desc_value(sd, "gap", _is_number))
    raise ValueError(f"unknown spectrum kind {kind!r}")


def pad_spectrum(approx: Spectrum, r: int) -> Spectrum:
    """Extend an approximated spectrum to length r by repeating its last value."""
    if r < approx.size:
        raise ValueError("padding length below the approximated spectrum size")
    values = np.concatenate([approx.values, np.full(r - approx.size, approx.values[-1])])
    return Spectrum.from_values(values)


def _rows(ctx: tuple, kind: str, values, status: str = STATUS_OK,
          trivial=None) -> list[Row]:
    """One row per angle index of ``values``; the indices flagged in
    ``trivial`` (a bound report's mask) get the trivial-bound status."""
    matrix, side, k, l, q, seed, source = ctx
    return [Row(matrix, side, k, l, q, seed, i, kind, source, v,
                STATUS_TRIVIAL if trivial is not None and trivial[i - 1] else status)
            for i, v in enumerate(values.tolist(), start=1)]


GAP_KINDS = ("gap_norm_rank_l", "gap_norm_rank_k",
             "gap_anglewise_rank_l", "gap_anglewise_rank_k")


def _attempt(compute):
    """``compute()``, or the BoundFailure it raised."""
    try:
        return compute()
    except BoundFailure as exc:
        return exc


def _run_single(matrix, cfg: ExperimentConfig, task) -> list[Row]:
    """All rows of one (k, l, q, seed) run on a ``build_matrix`` tuple."""
    name, a, factors, true_spec, pad_rank, has_known = matrix
    k, l, q, seed = task
    nan = np.full(k, np.nan)
    try:
        out = rsvd(a, SketchConfig(k, l, q, seed))
    except SketchCollapsed as exc:
        # no basis to measure or bound: NaN rows of every kind the run writes,
        # the true_angle kinds for the true spectrum only
        kinds = [kind for kind in _KIND_COLORS if has_known or kind != "subspace_aware_upper"]
        return [row for source in ("true", "padded") for side in cfg.sides
                for kind in kinds if source == "true" or not kind.startswith("true_angle")
                for row in _rows((name, side, k, l, q, seed, source), kind, nan, exc.status)]
    padded = pad_spectrum(Spectrum.from_values(out.sigma), pad_rank)
    # The projected residuals do not depend on the spectrum source. The right
    # one is always taken: its top value is the out-of-basis norm that
    # residual_blocks needs.
    resids = {"right": residual_spectrum(a, out.v, "right", k)}
    if "left" in cfg.sides:
        resids["left"] = residual_spectrum(a, out.u, "left", k)
    stats = residual_blocks(a, out, k, resids["right"])
    if has_known:
        # the sketch ratio depends on neither the spectrum source nor the side
        r = true_spec.declared_rank
        ratio = sketch_ratio(factors.v[:, :k].T @ out.sketch,
                             factors.v[:, k:r].T @ out.sketch)
    rows: list[Row] = []

    for source, spec in (("true", true_spec), ("padded", padded)):
        gaps = _attempt(lambda: gap_bounds(stats, spec, k))
        for side in cfg.sides:
            ctx = (name, side, k, l, q, seed, source)
            if source == "true":
                basis = out.u if side == "left" else out.v
                truth = (factors.u if side == "left" else factors.v)[:, :k]
                rows += _rows(ctx, "true_angle", canonical_sines(basis, truth))
                rows += _rows(ctx, "true_angle_rank_k", canonical_sines(basis[:, :k], truth))
            reports = [space_agnostic_upper(spec, k, l, q, side, c=cfg.upper_c),
                       residual_ratio_bounds(resids[side], spec, k, side)]
            if has_known:
                reports.append(subspace_aware_upper(spec, ratio, k, q, side))
            lower = _attempt(
                lambda: [space_agnostic_lower(spec, k, l, q, side, c=cfg.lower_c)])
            est = _attempt(lambda: [make_report(unbiased_estimate(
                spec, k, l, q, cfg.estimator_trials, side, seed).mean, "estimate", side)])
            # a family whose assumptions the spectrum fails gets NaN rows of its kinds
            for kinds, outcome in ((("space_agnostic_lower",), lower), (("estimate",), est),
                                   (GAP_KINDS, gaps)):
                if isinstance(outcome, BoundFailure):
                    for kind in kinds:
                        rows += _rows(ctx, kind, nan, outcome.status)
                else:
                    reports += [rep for rep in outcome if rep.side == side]
            for rep in reports:
                rows += _rows(ctx, rep.kind, rep.values, trivial=rep.trivial)
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[Row]:
    """Execute the full sweep and (when an outdir is set) write CSV and SVGs.

    With ``cfg.jobs > 1`` the runs are shared by at most ``cfg.jobs``
    workers (see ``workers._share``); the rows do not depend on the worker
    count.
    """
    matrix = build_matrix(cfg.matrix)
    name, a, _, true_spec = matrix[:4]
    # A sketch wider than the rank collapses, and the space-agnostic upper
    # bound needs a head distortion upper_c * sqrt(k/l) below 1, so such an
    # entry could not run.
    rank = true_spec.declared_rank
    for k, l, q in cfg.grid:
        if l > rank:
            raise ValueError(f"grid entry (k={k}, l={l}, q={q}) needs l <= rank(A)={rank}"
                             f" (min(m, n)={min(a.shape)})")
        if cfg.upper_c * math.sqrt(k / l) >= 1.0:
            raise ValueError(f"grid entry (k={k}, l={l}, q={q}) needs"
                             f" upper_c * sqrt(k/l) < 1 (upper_c={cfg.upper_c})")
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.n_seeds)
    tasks = [(k, l, q, seed) for (k, l, q) in cfg.grid for seed in seeds]
    chunks = _share(_run_single, (matrix, cfg), tasks, cfg.jobs)
    rows = sorted(r for chunk in chunks for r in chunk)

    if cfg.outdir:
        os.makedirs(cfg.outdir, exist_ok=True)
        emit_csv(rows, os.path.join(cfg.outdir, f"{name}_bounds.csv"))
        for panel, fname in experiment_panels(rows):
            emit_svg(panel, os.path.join(cfg.outdir, fname))
    return rows


# --- balance study ---------------------------------------------------------


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
        if self.budget_factor / self.oversample_factor**2 < 1.0:
            raise ValueError("budget admits no feasible q")
        if self.gap < 1.0:
            raise ValueError("gap must be >= 1")
        if self.budget_factor > self.tail_factor:
            # so l <= r - k: a trial's tail block y_2 is at least as tall as wide
            raise ValueError("config value must be <= tail_factor: budget_factor")
        tail = self.tail_factor * self.k
        if abs(tail - round(tail)) > 1e-9:
            raise ValueError("(1 + tail_factor) * k must be integral")

    @property
    def size(self) -> int:
        return self.k + int(round(self.tail_factor * self.k))


def feasible_powers(cfg: BalanceConfig) -> list[int]:
    ratio = cfg.budget_factor / cfg.oversample_factor**2
    return list(range(int((ratio - 1.0) / 2.0 + 1e-12) + 1))


def fixed_budget_bound(q: int, cfg: BalanceConfig) -> float:
    """Upper-bound value reachable with the budget split at power count q.

    The space-agnostic upper bound on the step spectrum at the real-valued
    sample size l = budget/(2q+1), with the oversampling factor as the
    distortion multiplier; 1 where that head distortion g*sqrt(k/l) reaches 1.
    """
    a, g = cfg.budget_factor, cfg.oversample_factor
    passes = 2 * q + 1
    if passes > a / g**2 + 1e-12:
        raise ValueError("budget exceeded")
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
    (``gaussian_decay_right_sketch``), so neither V nor a is formed, and
    no r-by-r QR runs. The power scales the scalar, not y_1: an
    overflowing power gives the sine 0, where it would fail ``sv_x_pinv``'s
    finite-input check.
    """
    q, l, trial = task
    k, r = cfg.k, cfg.size
    omega = gaussian_sketch(r, l, cfg.seed + 200_000 * (q + 1) + trial)
    y = gaussian_decay_right_sketch(r, r, spec, cfg.seed + 100_000 * (q + 1) + trial,
                                    k, omega)
    s = sv_x_pinv(y[:k], y[k:])
    with np.errstate(over="ignore"):
        nu = np.float64(cfg.gap) ** (2 * q + 1) * s[-1]
    return float(sines_from_nu(nu))


def emit_balance_csv(rows: list[dict], path) -> None:
    cols = ("gap", "k", "q", "l", "phi", "trial", "largest_sine")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in cols) + "\n")


def balance_panel(rows: list[dict]) -> "Panel":
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


# --- CSV / SVG emission ----------------------------------------------------


def _format_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def emit_csv(rows: list[Row], path) -> None:
    """Write rows in the canonical sort order; bytes are a pure function of
    the table."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in sorted(rows):
            fh.write(_CSV_LINE % r)


@dataclass(frozen=True)
class Series:
    label: str
    color: str
    dashed: bool
    xs: list[float]
    ys: list[float]


@dataclass
class Panel:
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)


# every kind a run writes, with its colour in the panels
_KIND_COLORS = {
    "true_angle": "#000000",
    "true_angle_rank_k": "#6e6e6e",
    "space_agnostic_upper": "#d62728",
    "space_agnostic_lower": "#1f77b4",
    "estimate": "#17becf",
    "subspace_aware_upper": "#c51b8a",
    "residual_ratio": "#ff7f0e",
    "gap_norm_rank_l": "#2ca02c",
    "gap_norm_rank_k": "#1f6f1f",
    "gap_anglewise_rank_l": "#74c476",
    "gap_anglewise_rank_k": "#0b4d0b",
}


def experiment_panels(rows: list[Row]):
    """Group experiment rows into one panel per (matrix, k, l, side, q). A
    panel with no finite value names its rows' statuses in its title."""
    # panel key -> (kind, source) -> angle index -> finite values in row order
    groups: dict[tuple, dict[tuple, dict[int, list[float]]]] = {}
    statuses: dict[tuple, set[str]] = {}
    for r in rows:
        key = (r.matrix, r.k, r.l, r.side, r.q)
        pts = groups.setdefault(key, {}).setdefault((r.kind, r.spectrum_source), {})
        if math.isfinite(r.value):
            pts.setdefault(r.i, []).append(r.value)
        else:
            statuses.setdefault(key, set()).add(r.status)
    for key, combos in sorted(groups.items()):
        matrix, k, l, side, q = key
        series = []
        for (kind, source), pts in sorted(combos.items()):
            if not pts:
                continue
            xs = sorted(pts)
            ys = _means([pts[x] for x in xs])
            label = kind if source == "true" else f"{kind} (padded)"
            series.append(Series(label, _KIND_COLORS.get(kind, "#555555"),
                                 source == "padded", [float(x) for x in xs], ys))
        title = f"{matrix}: k={k}, l={l}, q={q}, {side} subspace"
        if not series:
            title += f" (no finite values: {', '.join(sorted(statuses[key]))})"
        panel = Panel(title, "angle index", "sine", series)
        yield panel, f"{matrix}_k{k}_l{l}_{side}_q{q}.svg"


def _means(lists: list[list[float]]) -> list[float]:
    """``[float(np.mean(v)) for v in lists]``, bit for bit, with one numpy
    call per distinct list length: a mean over the last axis of a 2-d array
    sums each row as ``np.mean`` sums it alone (pairwise from 8 values on)."""
    by_len: dict[int, list[int]] = {}
    for pos, v in enumerate(lists):
        by_len.setdefault(len(v), []).append(pos)
    means = [0.0] * len(lists)
    for positions in by_len.values():
        for pos, mu in zip(positions,
                           np.mean([lists[p] for p in positions], axis=1).tolist()):
            means[pos] = mu
    return means


_SVG_W, _SVG_H = 860, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 240, 40, 50
_FLOOR = 1e-16


def emit_svg(panel: Panel, path) -> None:
    """Standalone SVG: one polyline per series on a log-scale y axis."""
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B
    xs_all = [x for s in panel.series for x in s.xs]
    ys_all = [max(y, _FLOOR) for s in panel.series for y in s.ys if np.isfinite(y)]
    x_lo, x_hi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = math.floor(math.log10(min(ys_all))) if ys_all else -2
    y_hi = math.ceil(math.log10(max(ys_all))) if ys_all else 0
    if y_hi == y_lo:
        y_hi += 1

    def px(x):
        return _MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        ly = math.log10(max(y, _FLOOR))
        return _MARGIN_T + plot_h * (y_hi - ly) / (y_hi - y_lo)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_MARGIN_L}" y="24" font-family="sans-serif" font-size="15">'
        f'{_xml_escape(panel.title)}</text>',
    ]
    axis = (f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
            f'height="{plot_h}" fill="none" stroke="#333333"/>')
    parts.append(axis)
    for dec in range(y_lo, y_hi + 1):
        y = py(10.0 ** dec)
        parts.append(f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_MARGIN_L + plot_w}" '
                     f'y2="{y:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">1e{dec}</text>')
    n_ticks = min(8, max(2, int(x_hi - x_lo)))
    for t in range(n_ticks + 1):
        x = x_lo + (x_hi - x_lo) * t / n_ticks
        parts.append(f'<text x="{px(x):.2f}" y="{_MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                     f'{x:g}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_SVG_H - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                 f'{_xml_escape(panel.xlabel)}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.2f})">'
                 f'{_xml_escape(panel.ylabel)}</text>')
    legend_y = _MARGIN_T + 10
    for s in panel.series:
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys)
                       if np.isfinite(y))
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                         f'stroke-width="1.6"{dash}/>')
        lx = _MARGIN_L + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 26}" y2="{legend_y}" '
                     f'stroke="{s.color}" stroke-width="2"{dash}/>')
        parts.append(f'<text x="{lx + 32}" y="{legend_y + 4}" font-family="sans-serif" '
                     f'font-size="11">{_xml_escape(s.label)}</text>')
        legend_y += 18
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _xml_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
