"""Canonical-angle bounds and estimates for randomized SVD subspace
approximations: prior spectrum-only bounds, unbiased Monte-Carlo estimates,
posterior residual-based certificates, matrix generators, and an experiment
harness.

Importing the package sets one BLAS thread per process unless the user has
already chosen a count: the kernels here are small, so a second BLAS thread
doubles the CPU time without lowering the wall time. Parallelism comes from
forked worker processes instead: ``run`` shares its grid runs (at most
``--jobs`` workers), ``balance`` and ``estimate`` their trials, each on the
CPUs the process may use. The variables are read when numpy loads, so the
default applies only if this package is imported before numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .angles import canonical_sines
from .estimator import EstimateReport, estimate_cost_model, unbiased_estimate
from .harness import (BalanceConfig, ExperimentConfig, Row, balance_sweep,
                      emit_csv, emit_svg, fixed_budget_bound, pad_spectrum,
                      run_experiment)
from .linalg import (RankDeficient, Spectrum, SvdFactors, ortho, seeded_rng,
                     sv_x_pinv, svd_full)
from .matgen import (PlantedMatrix, gen_gaussian_decay, gen_snn,
                     gen_step_spectrum, load_mnist, spectrum_faster,
                     spectrum_slower)
from .mmio import read_matrix, write_matrix
from .posterior_bounds import (ResidualStats, gap_bounds, residual_blocks,
                               residual_ratio_bounds, residual_spectrum)
from .prior_bounds import (BoundReport, sketch_ratio, space_agnostic_lower,
                           space_agnostic_upper, subspace_aware_upper)
from .rsvd import RsvdOutput, SketchConfig, gaussian_sketch, rsvd

__version__ = "0.1.0"

__all__ = [
    "BalanceConfig", "BoundReport", "EstimateReport",
    "ExperimentConfig", "PlantedMatrix", "RankDeficient", "ResidualStats", "Row",
    "RsvdOutput", "SketchConfig", "Spectrum", "SvdFactors", "balance_sweep",
    "canonical_sines", "emit_csv", "emit_svg",
    "estimate_cost_model", "fixed_budget_bound", "gap_bounds",
    "gaussian_sketch", "gen_gaussian_decay", "gen_snn", "gen_step_spectrum",
    "load_mnist", "ortho", "pad_spectrum",
    "read_matrix", "residual_blocks", "residual_ratio_bounds",
    "residual_spectrum", "rsvd", "run_experiment", "seeded_rng",
    "sketch_ratio", "space_agnostic_lower", "space_agnostic_upper",
    "spectrum_faster", "spectrum_slower", "subspace_aware_upper",
    "sv_x_pinv", "svd_full",
    "unbiased_estimate", "write_matrix",
]
