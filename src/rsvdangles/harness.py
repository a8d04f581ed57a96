"""The bound-comparison run: its config, its target matrices and the sweep.

``run_experiment`` executes a grid of (k, l, q) sketch configurations over a
set of algorithm seeds on one target matrix. For every run it records the
true canonical sines and every bound/estimate family, each evaluated against
both the true spectrum and the padded approximated spectrum, as one CSV row
per (matrix, side, k, l, q, seed, i, kind, spectrum_source, value, status).

A bound family that raises a ``BoundFailure`` gets NaN rows with the
failure's ``status`` and never aborts a sweep, and a run whose sketch
collapses gets NaN rows of every kind; any other exception aborts it. A
grid entry that cannot run (l above rank(A), which is at most min(m, n), or
upper_c * sqrt(k/l) >= 1) is rejected before any run, and so is a matrix
whose squared Frobenius norm overflows.
Re-running with an identical config reproduces identical CSV bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .angles import canonical_sines
from .estimator import estimate_weightings
from .linalg import _EPS, Spectrum, SvdFactors, svd_full
from .matgen import (_is_int, _is_length, _step_fits, gen_gaussian_decay, gen_snn,
                     gen_step_spectrum, load_mnist, spectrum_faster, spectrum_slower)
from .posterior_bounds import (gap_bounds, residual_blocks, residual_ratio_bounds,
                               residual_spectrum)
from .prior_bounds import (BoundFailure, SketchCollapsed, make_report, sketch_ratio,
                           space_agnostic_lower, space_agnostic_upper, subspace_aware_upper)
from .report import (_BOTH, _KINDS, GAP_KINDS, Row, _rows, emit_csv, emit_svg,
                     experiment_panels)
from .rsvd import rsvd
from .workers import _share

# perfbench reads these from harness until ROADMAP item 1 points it at balance and report
from .balance import BalanceConfig, balance_sweep, fixed_budget_bound  # noqa: F401
from .report import emit_balance_csv  # noqa: F401

SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    """One target matrix, a (k, l, q) grid, and every option the rows depend
    on; the output directory and the worker limit are run_experiment's."""

    matrix: dict
    grid: list[tuple[int, int, int]]
    sides: tuple[str, ...] = ("left", "right")
    estimator_trials: int = 3
    n_seeds: int = 1
    base_seed: int = 0
    upper_c: float = 1.0
    lower_c: float = 2.0

    def __post_init__(self):
        if not self.grid:
            raise ValueError("grid must be nonempty")
        seen = set()
        for k, l, q in self.grid:
            if not (1 <= k < l):
                raise ValueError(f"grid point (k={k}, l={l}, q={q}) needs k < l")
            if q < 0:
                raise ValueError("q must be >= 0")
            # a repeat would write each of its rows twice under one key
            if (k, l, q) in seen:
                raise ValueError(f"grid point (k={k}, l={l}, q={q}) is listed more than once")
            seen.add((k, l, q))
        if (not self.sides or len(set(self.sides)) < len(self.sides)
                or not set(self.sides) <= {"left", "right"}):
            raise ValueError("config value must name left, right or both, once each: sides")
        for key in ("estimator_trials", "n_seeds"):
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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return _is_number(v) and math.isfinite(v)


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
    "upper_c": (_is_number, "a number"),
    "lower_c": (_is_number, "a number"),
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


class Target(NamedTuple):
    """A materialized matrix descriptor: the matrix ``a``, its exact factors
    and true spectrum, the length its approximated spectra are padded to,
    and whether the comparator bound may read the factors (``known``)."""

    name: str
    a: np.ndarray
    factors: SvdFactors
    spectrum: Spectrum
    pad_rank: int
    known: bool


def build_matrix(desc: dict) -> Target:
    """Materialize a matrix descriptor as a ``Target``.

    Only ``gaussian_decay`` plants its factors. The others (``snn``, image
    and file-backed matrices) get exact factors from a dense SVD for
    ground-truth evaluation, and a spectrum of numerical rank: values at or
    below numpy's ``matrix_rank`` tolerance max(m, n) * eps * sigma_1 are
    round-off and become exact zeros. Image and file-backed matrices are
    treated as having unknown subspaces for the comparator bound, and their
    padding rank is min(m, n).
    """
    gen = desc.get("generator")
    if gen == "gaussian_decay":
        spec = _spectrum_from_desc(_desc_value(desc, "spectrum", _is_object))
        a, f = gen_gaussian_decay(_desc_value(desc, "m", _is_length),
                                  _desc_value(desc, "n", _is_length), spec,
                                  _desc_value(desc, "seed", _is_int, 0))
        return Target(_desc_value(desc, "name", _is_name, gen), a, f,
                      Spectrum.from_values(f.sigma), spec.declared_rank, True)
    name = gen
    if gen == "snn":
        a = gen_snn(_desc_value(desc, "m", _is_length), _desc_value(desc, "n", _is_length),
                    _desc_value(desc, "r1"), _desc_value(desc, "a", _is_finite),
                    _desc_value(desc, "density", _is_finite, 0.05),
                    _desc_value(desc, "seed", _is_int, 0))
    elif gen == "mnist":
        a = load_mnist(_desc_value(desc, "path", _is_path),
                       _desc_value(desc, "n_samples"), _desc_value(desc, "seed", _is_int, 0))
    elif "path" in desc:
        from .mmio import read_matrix  # only file-backed matrices read mmio

        path = _desc_value(desc, "path", _is_path)
        a = read_matrix(path)
        name = os.path.splitext(os.path.basename(path))[0]
    else:
        raise ValueError(f"unrecognized matrix descriptor: {desc}")
    name = _desc_value(desc, "name", _is_name, name)
    f = svd_full(a)
    spec = Spectrum.from_values(np.where(f.sigma > max(a.shape) * _EPS * f.sigma[0],
                                         f.sigma, 0.0))
    known = gen == "snn"
    return Target(name, a, f, spec, spec.declared_rank if known else min(a.shape), known)


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
        return spectrum_slower(_desc_value(sd, "r", _is_length), _desc_value(sd, "r1"))
    if kind == "faster":
        return spectrum_faster(_desc_value(sd, "r", _is_length), _desc_value(sd, "r1"))
    if kind == "step":
        k = _desc_value(sd, "k", _is_length)
        beta = _desc_value(sd, "beta", lambda v: _is_finite(v) and _step_fits(k, v))
        return gen_step_spectrum(k, beta, _desc_value(sd, "gap", _is_finite))
    raise ValueError(f"unknown spectrum kind {kind!r}")


def pad_spectrum(approx: Spectrum, r: int) -> Spectrum:
    """Extend an approximated spectrum to length r by repeating its last value."""
    if r < approx.size:
        raise ValueError("padding length below the approximated spectrum size")
    values = np.concatenate([approx.values, np.full(r - approx.size, approx.values[-1])])
    return Spectrum.from_values(values)


def _attempt(compute):
    """``compute()``, or the BoundFailure it raised."""
    try:
        return compute()
    except BoundFailure as exc:
        return exc


def _run_single(target: Target, cfg: ExperimentConfig, task) -> list[Row]:
    """All rows of one (k, l, q, seed) run on a ``build_matrix`` target: every
    stage runs first, then one loop writes each kind's outcome by ``_KINDS``."""
    name, a, factors, true_spec = target.name, target.a, target.factors, target.spectrum
    k, l, q, seed = task
    keys = [(source, side) for source in _BOTH for side in cfg.sides]
    try:
        out = rsvd(a, l, q, seed)
    except SketchCollapsed as exc:
        # no basis to measure or bound: the collapse is every kind's outcome
        found = {key: dict.fromkeys(_KINDS, exc) for key in keys}
    else:
        found = {key: {} for key in keys}
        for side in cfg.sides:
            basis = out.u if side == "left" else out.v
            truth = (factors.u if side == "left" else factors.v)[:, :k]
            found["true", side].update(true_angle=canonical_sines(basis, truth),
                                       true_angle_rank_k=canonical_sines(basis[:, :k], truth))
        # the residuals depend on no spectrum source
        stats = residual_blocks(a, out, k)
        resids = {"right": stats.right_residual}
        if "left" in cfg.sides:
            resids["left"] = residual_spectrum(a, out.u, k)
        specs = {"true": true_spec,
                 "padded": pad_spectrum(Spectrum.from_values(out.sigma), target.pad_rank)}
        # one Gaussian draw per estimator trial, weighted for every source and side
        estimates = estimate_weightings([(specs[source], side) for source, side in keys],
                                        k, l, q, cfg.estimator_trials, seed)
        if target.known:
            # the sketch ratio depends on neither the spectrum source nor the side
            r = true_spec.declared_rank
            ratio = sketch_ratio(factors.v[:, :k].T @ out.sketch,
                                 factors.v[:, k:r].T @ out.sketch)
        gaps = {source: _attempt(lambda: gap_bounds(stats, spec, k))
                for source, spec in specs.items()}
        for (source, side), est in zip(keys, estimates):
            spec, outcomes = specs[source], found[source, side]
            outcomes.update(
                estimate=est if isinstance(est, BoundFailure)
                else make_report(est.mean),
                space_agnostic_upper=space_agnostic_upper(spec, k, l, q, side, c=cfg.upper_c),
                space_agnostic_lower=_attempt(
                    lambda: space_agnostic_lower(spec, k, l, q, side, c=cfg.lower_c)),
                residual_ratio=residual_ratio_bounds(resids[side], spec, k))
            if target.known:
                outcomes["subspace_aware_upper"] = subspace_aware_upper(spec, ratio, k, q, side)
            # a family whose assumptions the spectrum fails gets NaN rows of its kinds
            g = gaps[source]
            outcomes.update(dict.fromkeys(GAP_KINDS, g) if isinstance(g, BoundFailure)
                            else {kind: g[kind, side] for kind in GAP_KINDS})
    rows: list[Row] = []
    for source, side in keys:
        ctx = (name, side, k, l, q, seed, source)
        for kind, (_, sources) in _KINDS.items():
            if source in sources and (target.known or kind != "subspace_aware_upper"):
                rows += _rows(ctx, kind, found[source, side][kind])
    return rows


def run_experiment(cfg: ExperimentConfig, outdir=None, jobs: int = 1) -> list[Row]:
    """Execute the full sweep and (when ``outdir`` is given) write CSV and SVGs.

    With ``jobs > 1`` the runs are shared by at most ``jobs`` workers (see
    ``workers._share``); the rows do not depend on the worker count.
    """
    if jobs < 1:
        raise ValueError("worker limit must be >= 1: jobs")
    target = build_matrix(cfg.matrix)
    name, a = target.name, target.a
    # A sketch wider than the rank collapses, and the space-agnostic upper
    # bound needs a head distortion upper_c * sqrt(k/l) below 1, so such an
    # entry could not run.
    rank = target.spectrum.declared_rank
    for k, l, q in cfg.grid:
        if l > rank:
            raise ValueError(f"grid entry (k={k}, l={l}, q={q}) needs l <= rank(A)={rank}"
                             f" (min(m, n)={min(a.shape)})")
        if cfg.upper_c * math.sqrt(k / l) >= 1.0:
            raise ValueError(f"grid entry (k={k}, l={l}, q={q}) needs"
                             f" upper_c * sqrt(k/l) < 1 (upper_c={cfg.upper_c})")
    with np.errstate(over="ignore"):  # a run's residual Grams square a's entries
        if not math.isfinite(np.vdot(a, a)):
            raise ValueError(f"matrix {name} too large: its squared Frobenius norm overflows")
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.n_seeds)
    tasks = [(k, l, q, seed) for (k, l, q) in cfg.grid for seed in seeds]
    chunks = _share(_run_single, (target, cfg), tasks, jobs)
    rows = sorted(r for chunk in chunks for r in chunk)

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        emit_csv(rows, os.path.join(outdir, f"{name}_bounds.csv"))
        for panel, fname in experiment_panels(rows):
            emit_svg(panel, os.path.join(outdir, fname))
    return rows
