#!/usr/bin/env python3
"""Bound-comparison sweep over the four synthetic presets.

For every preset (two sparse non-negative matrices with head weights 1 and
100, two Gaussian matrices with slower and faster spectral decay, all
500x500 with a flat top block of 20) this runs the full evaluation grid
k=50, l in {80, 200}, q in {0, 1} over a batch of sketch seeds and writes
one CSV plus one SVG panel per (matrix, k, l, side, q) under the output
directory. Add --mnist to include a sampled image matrix (descriptor-only
generators cover the synthetic presets; the image file is never downloaded).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rsvdangles.harness import PRESETS, ExperimentConfig, run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/bounds")
    parser.add_argument("--seeds", type=int, default=10, help="sketch seeds per grid point")
    parser.add_argument("--trials", type=int, default=3, help="estimator trials")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="at most this many workers (default: one per usable CPU)")
    parser.add_argument("--mnist", default=None, help="path to an IDX3 image file")
    args = parser.parse_args()

    matrices = list(PRESETS)
    if args.mnist:
        matrices.append({"generator": "mnist", "path": args.mnist,
                         "n_samples": 800, "seed": 105, "name": "mnist800"})
    grid = [(50, 80, 0), (50, 80, 1), (50, 200, 0), (50, 200, 1)]
    for desc in matrices:
        cfg = ExperimentConfig(matrix=desc, grid=grid, estimator_trials=args.trials,
                               n_seeds=args.seeds)
        rows = run_experiment(cfg, args.outdir, args.jobs)
        print(f"{desc['name']}: {len(rows)} rows -> {args.outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
