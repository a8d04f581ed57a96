"""Command-line front end.

Subcommands:
  gen       write a generated matrix (MatrixMarket array) plus its descriptor
  run       execute an experiment config (JSON, schema_version 1)
  balance   fixed-budget oversampling-versus-power-iterations sweep, per gap
  estimate  standalone Monte-Carlo angle estimate from a spectrum file

The config file is the experiment: it holds every value the rows depend on.
Where the output goes (--outdir) and how many workers compute it (--jobs)
belong to the machine, so they are flags of ``run``, not config keys. Each
command imports only the modules it runs: ``balance`` loads no harness.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .estimator import estimate_cost_model, unbiased_estimate
from .linalg import Spectrum


def _cmd_gen(args) -> int:
    import json

    from .harness import build_matrix
    from .mmio import write_matrix

    desc = {
        "snn": lambda: {"generator": "snn", "m": args.m, "n": args.n,
                        "r1": args.r1, "a": args.a, "density": args.density},
        "gaussian-slower": lambda: {"generator": "gaussian_decay", "m": args.m,
                                    "n": args.n, "spectrum": {"kind": "slower",
                                    "r": args.r or min(args.m, args.n), "r1": args.r1}},
        "gaussian-faster": lambda: {"generator": "gaussian_decay", "m": args.m,
                                    "n": args.n, "spectrum": {"kind": "faster",
                                    "r": args.r or min(args.m, args.n), "r1": args.r1}},
        "step": lambda: {"generator": "gaussian_decay", "m": args.m, "n": args.n,
                         "spectrum": {"kind": "step", "k": args.k,
                                      "beta": args.beta, "gap": args.gap}},
    }[args.kind]()
    desc["seed"] = args.seed
    desc["name"] = args.name or args.kind.replace("-", "_")
    target = build_matrix(desc)
    name, a = target.name, target.a
    os.makedirs(args.outdir, exist_ok=True)
    mtx_path = os.path.join(args.outdir, f"{name}.mtx")
    write_matrix(a, mtx_path)
    with open(os.path.join(args.outdir, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, "matrix": desc, "file": mtx_path}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {mtx_path} ({a.shape[0]}x{a.shape[1]})")
    return 0


def _cmd_run(args) -> int:
    from .harness import ExperimentConfig, run_experiment

    rows = run_experiment(ExperimentConfig.from_json(args.config), args.outdir, args.jobs)
    print(f"wrote {len(rows)} rows to {args.outdir}")
    return 0


def _cmd_balance(args) -> int:
    from .balance import BalanceConfig, balance_panel, balance_sweep
    from .report import emit_balance_csv, emit_svg

    cfgs = [BalanceConfig(k=args.k, budget_factor=args.budget,
                          tail_factor=args.size_factor,
                          oversample_factor=args.oversample, gap=gap,
                          trials=args.trials, seed=args.seed)
            for gap in args.gap]  # every gap is checked before the first sweep
    tags = {}  # output file stem -> the gap that writes it
    for cfg in cfgs:
        tag = f"balance_k{cfg.k}_gap{cfg.gap:g}"
        if tag in tags:
            raise ValueError(f"gaps {tags[tag]!r} and {cfg.gap!r} would both write"
                             f" {tag}.csv and .svg: gap")
        tags[tag] = cfg.gap
    for tag, cfg in zip(tags, cfgs):
        rows = balance_sweep(cfg)
        os.makedirs(args.outdir, exist_ok=True)  # once there are rows to write
        emit_balance_csv(rows, os.path.join(args.outdir, f"{tag}.csv"))
        emit_svg(balance_panel(rows), os.path.join(args.outdir, f"{tag}.svg"))
        q, phi = min({r["q"]: r["phi"] for r in rows}.items(), key=lambda kv: kv[1])
        print(f"gap {cfg.gap:g}: best power count q={q} (budget curve {phi:.6g})")
    print(f"results under {args.outdir}")
    return 0


def _cmd_estimate(args) -> int:
    with warnings.catch_warnings():
        # an empty file: Spectrum rejects the empty array in one line below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        values = np.loadtxt(args.spectrum, ndmin=1)
    spec = Spectrum(np.sort(values)[::-1])
    # as in balance, the trials go to every usable CPU without a flag
    report = unbiased_estimate(spec, args.k, args.l, args.q, args.trials,
                               args.side, args.seed, jobs=args.trials)
    cost = estimate_cost_model(spec.declared_rank, args.l, report.n_trials)
    print(f"# spectrum length {spec.size}, declared rank {spec.declared_rank}, "
          f"nominal cost {cost} flops")
    print("index mean min max")
    for i in range(args.k):
        print(f"{i + 1} {report.mean[i]:.17g} {report.min_band[i]:.17g} "
              f"{report.max_band[i]:.17g}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsvdangles", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a target matrix")
    p.add_argument("kind", choices=["snn", "gaussian-slower", "gaussian-faster", "step"])
    p.add_argument("--m", type=int, default=500)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--r", type=int, default=None, help="spectrum length (default min(m, n))")
    p.add_argument("--r1", type=int, default=20, help="flat head length")
    p.add_argument("--a", type=float, default=1.0, help="snn head weight")
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--k", type=int, default=10, help="step spectrum head length")
    p.add_argument("--beta", type=float, default=32.0, help="step tail factor")
    p.add_argument("--gap", type=float, default=1.1, help="step gap")
    p.add_argument("--name", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config")
    p.add_argument("--outdir", default="results")
    p.add_argument("--jobs", type=int, default=1, help="worker limit, capped at usable CPUs")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("balance", help="fixed-budget balance sweep")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--budget", type=float, default=16.0, help="matvec budget / k")
    p.add_argument("--size-factor", type=float, default=32.0, help="(size - k) / k")
    p.add_argument("--oversample", type=float, default=1.05)
    p.add_argument("--gap", type=float, nargs="+", default=[1.1], help="one or more gaps")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("estimate", help="Monte-Carlo angle estimate from a spectrum file")
    p.add_argument("spectrum", help="text file, one singular value per line")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_estimate)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # its message is often empty
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
