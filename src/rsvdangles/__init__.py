"""Canonical-angle bounds and estimates for randomized SVD subspace
approximations: prior spectrum-only bounds, unbiased Monte-Carlo estimates,
posterior residual-based certificates, matrix generators, and an experiment
harness."""

from .angles import canonical_cosines, canonical_sines
from .estimator import EstimateReport, estimate_cost_model, unbiased_estimate
from .harness import (BalanceConfig, ExperimentConfig, Row, balance_sweep,
                      emit_csv, emit_svg, fixed_budget_bound, pad_spectrum,
                      run_experiment)
from .linalg import (Spectrum, SvdFactors, ortho, pinv_apply, seeded_rng,
                     spectral_norm_power, svd_full)
from .matgen import (PlantedMatrix, gen_gaussian_decay, gen_snn,
                     gen_step_spectrum, load_mnist, spectrum_faster,
                     spectrum_slower)
from .mmio import read_matrix, write_matrix
from .posterior_bounds import (ResidualStats, gap_bounds, residual_blocks,
                               residual_ratio_bounds, residual_spectrum)
from .prior_bounds import (BoundReport, DistortionParams,
                           space_agnostic_lower, space_agnostic_upper,
                           subspace_aware_envelope, subspace_aware_upper,
                           tail_spread)
from .rsvd import RsvdOutput, SketchConfig, gaussian_sketch, rsvd

__version__ = "0.1.0"

__all__ = [
    "BalanceConfig", "BoundReport", "DistortionParams", "EstimateReport",
    "ExperimentConfig", "PlantedMatrix", "ResidualStats", "Row", "RsvdOutput",
    "SketchConfig", "Spectrum", "SvdFactors", "balance_sweep",
    "canonical_cosines", "canonical_sines", "emit_csv", "emit_svg",
    "estimate_cost_model", "fixed_budget_bound", "gap_bounds",
    "gaussian_sketch", "gen_gaussian_decay", "gen_snn", "gen_step_spectrum",
    "load_mnist", "ortho", "pad_spectrum",
    "pinv_apply", "read_matrix", "residual_blocks", "residual_ratio_bounds",
    "residual_spectrum", "rsvd", "run_experiment", "seeded_rng",
    "space_agnostic_lower", "space_agnostic_upper", "spectral_norm_power",
    "spectrum_faster", "spectrum_slower", "subspace_aware_envelope",
    "subspace_aware_upper", "svd_full", "tail_spread", "unbiased_estimate",
    "write_matrix",
]
