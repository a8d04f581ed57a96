import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
from conftest import BENCH, ROOT

TINY_SWEEP = {
    "schema_version": 1,
    "matrix": {"generator": "gaussian_decay", "m": 80, "n": 80,
               "spectrum": {"kind": "slower", "r": 80, "r1": 5},
               "seed": 2, "name": "tiny"},
    "grid": [{"k": 6, "l": 12, "q": 0}, {"k": 6, "l": 12, "q": 1}],
    "sides": ["left", "right"], "estimator_trials": 2, "n_seeds": 3, "base_seed": 0,
}
COUNT_SUFFIXES = (".calls", ".errors", ".flops", ".flops_nominal", ".trials",
                  ".bytes_written")


def _traced(tmp_path, tag, cli_args, jobs):
    out = tmp_path / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(out), str(jobs), "--",
         *cli_args], cwd=tmp_path, env=run.child_env(), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith(COUNT_SUFFIXES) or k.startswith("harness.rows.")}


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_SWEEP))
    spec = tmp_path / "spec.txt"
    spec.write_text("".join(f"{v!r}\n" for v in [1.5] * 4 + [1.0] * 60))
    commands = {
        "sweep": (["run", str(cfg), "--jobs", "2", "--outdir", str(tmp_path / "o")], 2),
        "estimate": (["estimate", str(spec), "--k", "4", "--l", "10",
                      "--trials", "20", "--seed", "4"], 1),
    }
    for name, (args, jobs) in commands.items():
        first = _traced(tmp_path, f"{name}1", args, jobs)
        second = _traced(tmp_path, f"{name}2", args, jobs)
        assert set(first) == set(second)
        counts = _counts(first)
        assert counts == _counts(second), name
        assert counts["linalg.lapack_svd.calls"] > 0
    assert counts["estimator.trials"] == 20
    assert counts["estimator.flops_nominal"] == 20 * 64 * 10 * 10
    assert counts["rsvd.rsvd.calls"] == 0
    assert counts["posterior_bounds.residual_spectrum.calls"] == 0


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_inputs_follow_the_workload_seed(tmp_path):
    for name, wl in run.WORKLOADS.items():
        made = {}
        for n, seed in enumerate((0, 0, 1)):
            d = tmp_path / f"{name}{n}"
            d.mkdir()
            inputs = wl.make_inputs(seed, d)
            made.setdefault(seed, []).append(
                (inputs.seeds, [p.read_bytes() for p in inputs.files.values()],
                 inputs.args))
        assert made[0][0] == made[0][1]
        assert made[0][0][0] != made[1][0][0]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
