#!/usr/bin/env python3
"""Check that two source trees write the same outputs, byte for byte.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``rsvdangles`` package,
such as the ``src`` of two checkouts. For each tree this runs the CLI in a
fresh child process:

* ``run`` on ``configs/example_run.json`` and on the seed-0 benchmark sweep
  config, each at ``--jobs 1`` and ``--jobs 2``;
* ``run`` on each of ``harness.PRESETS`` over the acceptance grid
  (k = 50, l in {80, 200}, q in {0, 1}) at 2 seeds, at ``--jobs 2``;
* ``estimate`` and ``balance`` on the seed-0 benchmark inputs.

The benchmark inputs come from the ``*_inputs`` builders of
``perfbench/run.py``, and the presets from ``src``, of this checkout. Every
file a command writes and its standard output are compared; each difference
is printed with its first differing line. The exit status is 1 if any
output differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from rsvdangles.harness import PRESETS  # noqa: E402
from run import DEFAULT_SEED, balance_inputs, estimate_inputs, sweep_inputs  # noqa: E402

# thread counts are the program's own choice, as in the benchmark
CLEARED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cases(work: Path) -> dict[str, tuple[list[str], Path]]:
    """Each case's CLI arguments and the directory it runs in, which holds
    its inputs; outputs go to ``out`` inside it."""
    found = {}
    for jobs in (1, 2):
        for name, make in (("example", None), ("sweep", sweep_inputs)):
            cwd = work / f"{name}_jobs{jobs}"
            cwd.mkdir(parents=True)
            args = (["run", str(ROOT / "configs" / "example_run.json")] if make is None
                    else make(DEFAULT_SEED, cwd).args)
            found[cwd.name] = args + ["--jobs", str(jobs), "--outdir", "out"], cwd
    for desc in PRESETS:
        cwd = work / desc["name"]
        cwd.mkdir(parents=True)
        config = {"schema_version": 1, "matrix": desc, "n_seeds": 2,
                  "grid": [{"k": 50, "l": l, "q": q} for l in (80, 200) for q in (0, 1)]}
        (cwd / "config.json").write_text(json.dumps(config))
        found[cwd.name] = ["run", "config.json", "--jobs", "2", "--outdir", "out"], cwd
    for name, make, outdir in (("estimate", estimate_inputs, []),
                               ("balance", balance_inputs, ["--outdir", "out"])):
        cwd = work / name
        cwd.mkdir(parents=True)
        found[name] = make(DEFAULT_SEED, cwd).args + outdir, cwd
    return found


def outputs(src: Path, args: list[str], cwd: Path) -> dict[str, bytes]:
    """Standard output and every file under ``out`` of one CLI run."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "rsvdangles", *args], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: rsvdangles {' '.join(args)} exited {proc.returncode}:\n"
                         + proc.stderr.decode(errors="replace"))
    found = {"stdout": proc.stdout}
    out = cwd / "out"
    if out.is_dir():
        found.update((p.name, p.read_bytes()) for p in sorted(out.iterdir()))
    return found


def first_difference(old: bytes, new: bytes) -> str:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            return f"line {i}:\n    - {a.decode(errors='replace')}\n    + {b.decode(errors='replace')}"
    return (f"line {min(len(old_lines), len(new_lines)) + 1}: one side ends"
            f" ({len(old_lines)} vs {len(new_lines)} lines)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        runs = {label: cases(Path(tmp) / label) for label in ("old", "new")}
        for case, (cli_args, old_cwd) in runs["old"].items():
            old = outputs(args.old_src.resolve(), cli_args, old_cwd)
            new = outputs(args.new_src.resolve(), *runs["new"][case])
            for name in sorted(old.keys() | new.keys()):
                if old.get(name) == new.get(name):
                    continue
                failed = True
                if name not in old or name not in new:
                    print(f"{case}/{name}: written by one tree only")
                else:
                    print(f"{case}/{name}: differs at {first_difference(old[name], new[name])}")
            print(f"{case}: compared {len(old.keys() | new.keys())} outputs")
    print("outputs differ" if failed else "outputs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
