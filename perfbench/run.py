#!/usr/bin/env python3
"""rsvdangles benchmark runner.

    python3 perfbench/run.py --workload {sweep,estimate,balance,all} \\
        --seed N --seconds S --trace {0,1}

Each workload runs the real ``rsvdangles`` CLI in a fresh child process, one
command at a time, with the package imported from ``src/`` of this checkout.
Thread-count variables are removed from the child's environment, so the
program's own thread choice is what gets measured. Inputs are generated from
``--seed``; every output is checked (see ``checks.py``).

--trace 0 prints the end-to-end metrics: medians of wall_s, cpu_s and
peak_rss_mb over as many commands as fit in ``--seconds``, and setup_s, the
median over fresh children that import the CLI and build the workload's
input, three before each command. --trace 1 runs the command once under ``tracer.py`` for the
per-layer metrics, once single-threaded as an ungated baseline, and untraced
for the rest of ``--seconds`` to report the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it list every
metric with its unit and a JSON record of the environment, the inputs and
every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import checks
import tracer

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".perfbench_work"
# Removed from every child's environment so the program picks its own
# threads (and its output directory is the one the benchmark passes).
CLEARED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "RSVDANGLES_OUTDIR")
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
SETUP_PER_COMMAND = 3
SWEEP_JOBS = 2
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150.0
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
EXTRA_PER_LAYER = (("harness.pool.busy_frac", "ratio"), ("cli.import_s", "s"),
                   ("trace.overhead_s", "s"), ("baseline_1t.wall_s", "s"),
                   ("baseline_1t.cpu_s", "s"))


def per_layer_units() -> dict:
    units = {}
    for module, func in tracer.TRACED:
        for field in tracer.SPAN_FIELDS:
            units[f"{module}.{func}.{field}"] = "s" if field.endswith("_s") else "count"
    units.update(tracer.COUNTERS)
    units.update(EXTRA_PER_LAYER)
    return units


def derive_seed(seed: int, label: str) -> int:
    """Per-purpose seed derived from the workload seed."""
    digest = hashlib.sha256(f"rsvdangles-bench:{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000_000


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- workloads -------------------------------------------------------------------

@dataclass
class Inputs:
    args: list[str]          # CLI arguments relative to the work directory,
                             # without --outdir/--jobs
    files: dict[str, Path]   # generated input files, hashed into the record
    seeds: dict[str, int]
    setup_code: str          # body of the set-up child
    params: dict             # what the output check needs


def sweep_inputs(seed: int, work: Path) -> Inputs:
    # The acceptance grid on the gauss_slower preset (500x500, r1=20):
    # k=50, l in {80, 200}, q in {0, 1}, both sides, 3 estimator trials.
    seeds = {"matrix": derive_seed(seed, "matrix"),
             "sketch_base": derive_seed(seed, "sketch")}
    cfg = {"schema_version": 1,
           "matrix": {"generator": "gaussian_decay", "m": 500, "n": 500,
                      "spectrum": {"kind": "slower", "r": 500, "r1": 20},
                      "seed": seeds["matrix"], "name": "gauss_slower"},
           "grid": [{"k": 50, "l": l, "q": q} for l in (80, 200) for q in (0, 1)],
           "sides": ["left", "right"], "estimator_trials": 3,
           "n_seeds": 2, "base_seed": seeds["sketch_base"]}
    path = work / "sweep.json"
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    setup = ("import rsvdangles.cli\n"
             "from rsvdangles.harness import ExperimentConfig, build_matrix\n"
             f"build_matrix(ExperimentConfig.from_json({path.name!r}).matrix)\n")
    return Inputs(["run", path.name], {"config": path}, seeds, setup, cfg)


# Step spectrum k=25, beta=20, gap=1.2 (r = 525), estimated at l=100, q=0.
ESTIMATE_K, ESTIMATE_BETA, ESTIMATE_GAP = 25, 20, 1.2


def estimate_inputs(seed: int, work: Path) -> Inputs:
    seeds = {"estimator": derive_seed(seed, "estimator")}
    values = [ESTIMATE_GAP] * ESTIMATE_K + [1.0] * (ESTIMATE_BETA * ESTIMATE_K)
    path = work / "spectrum.txt"
    path.write_text("".join(f"{v!r}\n" for v in values))
    args = ["estimate", path.name, "--k", str(ESTIMATE_K), "--l", "100",
            "--q", "0", "--trials", "400", "--seed", str(seeds["estimator"])]
    return Inputs(args, {"spectrum": path}, seeds, "import rsvdangles.cli\n",
                  {"k": ESTIMATE_K, "rank": len(values)})


def balance_inputs(seed: int, work: Path) -> Inputs:
    # CLI defaults for budget, size factor and oversampling; r = 660.
    seeds = {"balance": derive_seed(seed, "balance")}
    p = {"k": 20, "gap": 1.1, "trials": 5, "budget": 16.0,
         "size_factor": 32.0, "oversample": 1.05}
    args = ["balance", "--k", str(p["k"]), "--gap", str(p["gap"]),
            "--trials", str(p["trials"]), "--budget", str(p["budget"]),
            "--size-factor", str(p["size_factor"]),
            "--oversample", str(p["oversample"]), "--seed", str(seeds["balance"])]
    return Inputs(args, {}, seeds, "import rsvdangles.cli\n", p)


def sweep_output(outdir: Path, _stdout: str) -> str:
    return (outdir / "gauss_slower_bounds.csv").read_text()


def estimate_output(_outdir: Path, stdout: str) -> str:
    return stdout


def balance_output(outdir: Path, _stdout: str) -> str:
    return (outdir / "balance_k20_gap1.1.csv").read_text()


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, Path], Inputs]
    output: Callable[[Path, str], str]          # (outdir, stdout) -> checked text
    check: Callable[[str, dict], list[str]]     # (text, params) -> problems
    reference: Callable[[str], dict]            # text -> reference form
    extra_files: tuple[str, ...]  # outputs besides the checked one that must exist
    takes_jobs: bool


WORKLOADS = {
    "sweep": Workload(sweep_inputs, sweep_output, checks.check_sweep,
                      checks.sweep_reference,
                      tuple(f"gauss_slower_k50_l{l}_{side}_q{q}.svg"
                            for l in (80, 200) for side in ("left", "right")
                            for q in (0, 1)), True),
    "estimate": Workload(estimate_inputs, estimate_output,
                         lambda text, p: checks.check_estimate(text, p["k"], p["rank"]),
                         checks.estimate_reference, (), False),
    "balance": Workload(balance_inputs, balance_output, checks.check_balance,
                        checks.balance_reference, ("balance_k20_gap1.1.svg",), False),
}


# --- child processes ---------------------------------------------------------------

@dataclass
class Sample:
    kind: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    problems: list

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.problems


def child_env(single_thread: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if single_thread:
        env.update(SINGLE_THREAD_ENV)
    return env


def run_child(argv: list[str], work: Path, env: dict, kind: str):
    """Run argv to completion; returns (Sample, stdout, stderr).

    Wall time spans process start to reaped exit; CPU time and peak RSS
    come from the child's own resource usage (wait4).
    """
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(kind, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode, [])
    if proc.returncode != 0:
        sample.problems.append(f"exit code {proc.returncode}")
    return sample, out_path.read_text(), err_path.read_text()


def cli_argv(inputs: Inputs, wl: Workload, outdir: Path, jobs: int) -> list[str]:
    args = list(inputs.args)
    if wl.takes_jobs:
        args += ["--jobs", str(jobs)]
    if args[0] != "estimate":
        args += ["--outdir", outdir.name]
    return args


def run_command(name: str, inputs: Inputs, work: Path, kind: str,
                traced_out: Path | None = None, single_thread: bool = False,
                reference: dict | None = None) -> tuple[Sample, str | None]:
    """One CLI command in a fresh child; returns its sample, with the output
    check's problems, and the checked output text (None if not written)."""
    wl = WORKLOADS[name]
    outdir = work / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    jobs = 1 if single_thread else SWEEP_JOBS
    args = cli_argv(inputs, wl, outdir, jobs)
    if traced_out is None:
        argv = [sys.executable, "-m", "rsvdangles", *args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(traced_out),
                str(jobs if wl.takes_jobs else 1), "--", *args]
    sample, stdout, stderr = run_child(argv, work, child_env(single_thread), kind)
    text = None
    if sample.returncode == 0:
        missing = [f for f in wl.extra_files if not (outdir / f).is_file()]
        if missing:
            sample.problems.append(f"missing outputs {missing}")
        try:
            text = wl.output(outdir, stdout)
            sample.problems += wl.check(text, inputs.params)
            if reference is not None:
                sample.problems += checks.compare_reference(wl.reference(text),
                                                            reference)
        except OSError as exc:
            sample.problems.append(f"output not written: {exc}")
        except (ValueError, IndexError, KeyError) as exc:
            sample.problems.append(f"output not parseable: {exc!r}")
    else:
        sample.problems.append(stderr.strip()[-500:])
    shutil.rmtree(outdir, ignore_errors=True)
    return sample, text


PROBE = r"""
import ctypes, json, os, platform, sys
import numpy, scipy
import rsvdangles.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = {}
with open("/proc/self/maps") as fh:
    libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower() and "/" in l})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads[os.path.basename(path)] = fn()
            break
print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__, "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_config": blas.get("openblas configuration"),
    "blas_threads": threads,
    "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}))
"""


def environment(work: Path, inputs: Inputs) -> dict:
    """Versions, effective BLAS threads (as a child sees them), nproc, commit
    and input hashes. Also warms the bytecode cache before any timing."""
    sample, stdout, stderr = run_child([sys.executable, "-c", PROBE], work,
                                       child_env(), "probe")
    if sample.returncode != 0:
        raise RuntimeError(f"environment probe failed: {stderr.strip()[-500:]}")
    record = json.loads(stdout.strip().splitlines()[-1])
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        record["git_commit"] = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        record["git_commit"] = None
    record["inputs_sha256"] = {k: sha256_file(p) for k, p in inputs.files.items()}
    record["inputs_sha256"]["args"] = hashlib.sha256(
        " ".join(inputs.args).encode()).hexdigest()
    record["seeds"] = inputs.seeds
    return record


# --- measurement -------------------------------------------------------------------

def measure_loop(name: str, inputs: Inputs, work: Path, seconds: float,
                 start: float, reference: dict | None,
                 setup_each: int = 0) -> tuple[list[Sample], list[Sample]]:
    """Untraced commands, each preceded by setup_each set-up children, until
    the next round would end after start + seconds.

    Set-up children are spread over the whole window rather than run in one
    burst, so slow phases of a shared machine weigh on both medians alike.
    """
    runs, setups = [], []
    while True:
        t0 = time.perf_counter()
        for _ in range(setup_each):
            setups.append(run_child([sys.executable, "-c", inputs.setup_code],
                                    work, child_env(), "setup")[0])
        runs.append(run_command(name, inputs, work, "command", reference=reference)[0])
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return runs, setups


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = WORKLOADS[name].make_inputs(seed, work)
        env_record = environment(work, inputs)
        reference = None
        if seed == DEFAULT_SEED:
            reference = json.loads((REFERENCE / f"{name}.json").read_text())
        if not trace:
            runs, setup = measure_loop(name, inputs, work, seconds, time.perf_counter(),
                                       reference, SETUP_PER_COMMAND)
            samples = setup + runs
            metrics = {
                "wall_s": statistics.median(s.wall_s for s in runs),
                "cpu_s": statistics.median(s.cpu_s for s in runs),
                "peak_rss_mb": statistics.median(s.peak_rss_mb for s in runs),
                "setup_s": statistics.median(s.wall_s for s in setup),
            }
            units = dict(END_TO_END)
        else:
            start = time.perf_counter()
            layer_path = work / "layers.json"
            traced, _ = run_command(name, inputs, work, "traced",
                                    traced_out=layer_path, reference=reference)
            layers = json.loads(layer_path.read_text()) if traced.returncode == 0 else {}
            baseline, _ = run_command(name, inputs, work, "baseline_1t",
                                      single_thread=True, reference=reference)
            runs, _ = measure_loop(name, inputs, work, seconds, start, reference)
            samples = [traced, baseline, *runs]
            units = per_layer_units()
            metrics = {m: layers.get(m, 0) for m in units}
            metrics["trace.overhead_s"] = (
                traced.wall_s - statistics.median(s.wall_s for s in runs))
            metrics["baseline_1t.wall_s"] = baseline.wall_s
            metrics["baseline_1t.cpu_s"] = baseline.cpu_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not s.ok for s in samples)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env_record, "samples": [asdict(s) for s in samples]}
    return metrics, units, len(samples), failed, record


def write_reference(name: str) -> None:
    """Regenerate the committed reference of a workload at the default seed."""
    work = WORK / f"reference-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = WORKLOADS[name].make_inputs(DEFAULT_SEED, work)
        sample, text = run_command(name, inputs, work, "reference")
        if not sample.ok:
            raise RuntimeError(f"{name}: {sample.problems}")
        REFERENCE.mkdir(exist_ok=True)
        with open(REFERENCE / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(WORKLOADS[name].reference(text), fh, indent=0, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"regenerate reference/<workload>.json at seed "
                             f"{DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)
    if not (SRC / "rsvdangles" / "cli.py").is_file():
        print(f"error: no rsvdangles sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        for name in names:
            write_reference(name)
        return 0
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, units, attempted, failed, record = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        prefix = "" if len(names) == 1 else f"{name}."
        print(f"# workload {name}, seed {args.seed}: ops_attempted {attempted}, "
              f"ops_failed {failed}")
        for metric, value in metrics.items():
            print(f"{prefix}{metric} = {value!r} {units[metric]}")
            result["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
        for s in record["samples"]:
            for problem in s["problems"]:
                print(f"# {name} {s['kind']} problem: {problem}", file=sys.stderr)
        print("# record " + json.dumps(record, sort_keys=True))
        result["attempted"] += attempted
        result["failed"] += failed
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
