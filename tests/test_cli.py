import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rsvdangles.estimator import unbiased_estimate
from rsvdangles.linalg import Spectrum
from rsvdangles.mmio import read_matrix


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("RSVDANGLES_OUTDIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "rsvdangles", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


RUN_CONFIG = {
    "schema_version": 1,
    "matrix": {"generator": "snn", "m": 35, "n": 30, "r1": 4, "a": 5.0,
               "density": 0.3, "seed": 9, "name": "snn_tiny"},
    "grid": [{"k": 4, "l": 8, "q": 1}],
    "sides": ["left"],
    "estimator_trials": 2,
    "n_seeds": 2,
    "base_seed": 0,
}


def test_gen_writes_matrix_and_descriptor(tmp_path):
    res = run_cli("gen", "gaussian-slower", "--m", "30", "--n", "25",
                  "--r1", "4", "--seed", "2", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    a = read_matrix(tmp_path / "gaussian_slower.mtx")
    assert a.shape == (30, 25)
    desc = json.loads((tmp_path / "gaussian_slower.json").read_text())
    assert desc["schema_version"] == 1
    assert desc["matrix"]["generator"] == "gaussian_decay"


def test_run_executes_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RUN_CONFIG))
    out = tmp_path / "results"
    res = run_cli("run", str(cfg_path), "--outdir", str(out), "--jobs", "2")
    assert res.returncode == 0, res.stderr
    assert (out / "snn_tiny_bounds.csv").exists()
    assert list(out.glob("*.svg"))


def test_run_seed_and_trials_flags_change_rows(tmp_path):
    from rsvdangles.harness import read_csv
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RUN_CONFIG))
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", str(cfg_path), "--outdir", str(a_dir)).returncode == 0
    assert run_cli("run", str(cfg_path), "--outdir", str(b_dir),
                   "--seed", "5", "--trials", "3").returncode == 0
    rows_a = read_csv(a_dir / "snn_tiny_bounds.csv")
    rows_b = read_csv(b_dir / "snn_tiny_bounds.csv")
    assert {r.seed for r in rows_a} == {0, 1}
    assert {r.seed for r in rows_b} == {5, 6}


def test_outdir_env_var_overrides_flag(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RUN_CONFIG))
    env_dir = tmp_path / "from_env"
    res = run_cli("run", str(cfg_path), "--outdir", str(tmp_path / "ignored"),
                  env_extra={"RSVDANGLES_OUTDIR": str(env_dir)})
    assert res.returncode == 0, res.stderr
    assert (env_dir / "snn_tiny_bounds.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_balance_subcommand(tmp_path):
    res = run_cli("balance", "--k", "6", "--budget", "9", "--size-factor", "12",
                  "--oversample", "1.1", "--gap", "1.3", "--trials", "2",
                  "--seed", "1", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "balance_k6_gap1.3.csv").exists()
    assert (tmp_path / "balance_k6_gap1.3.svg").exists()
    assert "best power count" in res.stdout


def test_estimate_matches_library_call(tmp_path):
    values = np.geomspace(3.0, 0.5, 16)
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("\n".join(f"{v:.17g}" for v in values) + "\n")
    res = run_cli("estimate", str(spec_path), "--k", "3", "--l", "6",
                  "--q", "1", "--trials", "3", "--seed", "5")
    assert res.returncode == 0, res.stderr
    lines = [ln for ln in res.stdout.splitlines()
             if ln and not ln.startswith(("#", "index"))]
    got = np.array([[float(tok) for tok in ln.split()[1:]] for ln in lines])
    rep = unbiased_estimate(Spectrum.from_values(values), 3, 6, 1, 3, "left", 5)
    assert np.allclose(got[:, 0], rep.mean, rtol=1e-15)
    assert np.allclose(got[:, 1], rep.min_band, rtol=1e-15)
    assert np.allclose(got[:, 2], rep.max_band, rtol=1e-15)


BAD_CONFIGS = {
    "unknown_config_key": ({**RUN_CONFIG, "n_seed": 3}, "n_seed"),
    "missing_config_key": ({key: value for key, value in RUN_CONFIG.items()
                            if key != "matrix"}, "matrix"),
    "grid_entry_missing_key": ({**RUN_CONFIG, "grid": [{"k": 4, "l": 8}]}, "q"),
    "string_n_seeds": ({**RUN_CONFIG, "n_seeds": "2"}, "n_seeds"),
    "top_level_list": ([RUN_CONFIG], "object"),
}


@pytest.mark.parametrize("case", ["missing_spectrum_file", *BAD_CONFIGS])
def test_error_reporting_is_clean(tmp_path, case):
    if case == "missing_spectrum_file":
        res = run_cli("estimate", str(tmp_path / "missing.txt"), "--k", "2", "--l", "4")
        needle = "missing.txt"
    else:
        cfg, needle = BAD_CONFIGS[case]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = run_cli("run", str(cfg_path), "--outdir", str(tmp_path / "out"))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1
    # the message ends with the offending file or key names
    assert needle in errors[0].rsplit(": ", 1)[-1]


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_sets_one_blas_thread_unless_preset(preset):
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    res = subprocess.run(
        [sys.executable, "-c",
         "import rsvdangles, os; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == (preset or "1")
