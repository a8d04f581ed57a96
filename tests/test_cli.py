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
    outputs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        res = run_cli("run", str(cfg_path), "--outdir", str(out), "--jobs", jobs)
        assert res.returncode == 0, res.stderr
        assert (out / "snn_tiny_bounds.csv").exists()
        assert list(out.glob("*.svg"))
        outputs[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
    # worker processes write the same CSV and SVG bytes as the serial run
    assert outputs["2"] == outputs["1"]


def test_run_seed_and_trials_flags_change_rows(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RUN_CONFIG))
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", str(cfg_path), "--outdir", str(a_dir)).returncode == 0
    assert run_cli("run", str(cfg_path), "--outdir", str(b_dir),
                   "--seed", "5", "--trials", "3").returncode == 0

    def seeds(outdir):  # the seed column of the CSV
        lines = (outdir / "snn_tiny_bounds.csv").read_text().splitlines()[1:]
        return {int(line.split(",")[5]) for line in lines}

    assert seeds(a_dir) == {0, 1}
    assert seeds(b_dir) == {5, 6}


def test_outdir_env_var_overrides_flag(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RUN_CONFIG))
    env_dir = tmp_path / "from_env"
    res = run_cli("run", str(cfg_path), "--outdir", str(tmp_path / "ignored"),
                  env_extra={"RSVDANGLES_OUTDIR": str(env_dir)})
    assert res.returncode == 0, res.stderr
    assert (env_dir / "snn_tiny_bounds.csv").exists()
    assert not (tmp_path / "ignored").exists()


TINY_BALANCE = ("balance", "--k", "6", "--budget", "9", "--size-factor", "12",
                "--oversample", "1.1")


def test_balance_subcommand(tmp_path):
    res = run_cli("balance", "--k", "6", "--budget", "9", "--size-factor", "12",
                  "--oversample", "1.1", "--gap", "1.3", "--trials", "2",
                  "--seed", "1", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "balance_k6_gap1.3.csv").exists()
    assert (tmp_path / "balance_k6_gap1.3.svg").exists()
    assert "best power count" in res.stdout


def test_balance_writes_one_pair_per_gap(tmp_path):
    common = ("balance", "--k", "6", "--budget", "9", "--size-factor", "12",
              "--oversample", "1.1", "--trials", "2", "--seed", "1", "--outdir")
    res = run_cli(*common, str(tmp_path / "both"), "--gap", "1.01", "1.5")
    assert res.returncode == 0, res.stderr
    for gap in ("1.01", "1.5"):
        assert run_cli(*common, str(tmp_path / gap), "--gap", gap).returncode == 0
        for ext in ("csv", "svg"):
            name = f"balance_k6_gap{gap}.{ext}"
            assert (tmp_path / "both" / name).read_bytes() == \
                (tmp_path / gap / name).read_bytes()
    assert len(list((tmp_path / "both").iterdir())) == 4


@pytest.mark.parametrize("gaps", [["1.3"], ["1.01", "1.5"]])
def test_balance_output_does_not_depend_on_workers(tmp_path, monkeypatch, gaps):
    from rsvdangles import cli, harness

    monkeypatch.delenv("RSVDANGLES_OUTDIR", raising=False)
    outputs = {}
    for workers in (1, 2):
        monkeypatch.setattr(harness, "_usable_workers", lambda: workers)
        out = tmp_path / f"workers{workers}"
        assert cli.main([*TINY_BALANCE, "--trials", "2", "--seed", "1",
                         "--gap", *gaps, "--outdir", str(out)]) == 0
        outputs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outputs[1]) == 2 * len(gaps)
    # the forked worker's trials give the same CSV and SVG bytes
    assert outputs[2] == outputs[1]


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


# case -> (config, extra run flags, needle the message ends with)
BAD_CONFIGS = {
    "unknown_config_key": ({**RUN_CONFIG, "n_seed": 3}, [], "n_seed"),
    "missing_config_key": ({key: value for key, value in RUN_CONFIG.items()
                            if key != "matrix"}, [], "matrix"),
    "grid_entry_missing_key": ({**RUN_CONFIG, "grid": [{"k": 4, "l": 8}]}, [], "q"),
    "string_n_seeds": ({**RUN_CONFIG, "n_seeds": "2"}, [], "n_seeds"),
    "top_level_list": ([RUN_CONFIG], [], "object"),
    "zero_estimator_trials": ({**RUN_CONFIG, "estimator_trials": 0}, [],
                              "estimator_trials"),
    "zero_n_seeds": ({**RUN_CONFIG, "n_seeds": 0}, [], "n_seeds"),
    "zero_jobs": ({**RUN_CONFIG, "jobs": 0}, [], "jobs"),
    "trials_flag_zero": (RUN_CONFIG, ["--trials", "0"], "estimator_trials"),
    "jobs_flag_zero": (RUN_CONFIG, ["--jobs", "0"], "jobs"),
    # the 35x30 matrix cannot take l=40: rejected before any worker starts
    "grid_l_exceeds_matrix": ({**RUN_CONFIG, "grid": [{"k": 4, "l": 40, "q": 1}]},
                              ["--jobs", "2"], "l=40"),
    # a rank-6 matrix cannot take l=8 though 8 <= min(m, n)=30
    "grid_l_exceeds_rank": ({**RUN_CONFIG, "grid": [{"k": 2, "l": 8, "q": 0}],
                             "matrix": {"generator": "gaussian_decay", "m": 30, "n": 30,
                                        "spectrum": {"kind": "slower", "r": 6, "r1": 2},
                                        "seed": 1, "name": "rank6"}},
                            ["--jobs", "2"], "(k=2, l=8, q=0) needs l <= rank(A)=6"),
    "zero_lower_c": ({**RUN_CONFIG, "lower_c": 0}, [], "lower_c"),
    # JSON NaN and Infinity parse as floats
    "nan_upper_c": ({**RUN_CONFIG, "upper_c": float("nan")}, [], "upper_c"),
    "nan_lower_c": ({**RUN_CONFIG, "lower_c": float("nan")}, [], "lower_c"),
    "infinite_lower_c": ({**RUN_CONFIG, "lower_c": float("inf")}, ["--jobs", "2"],
                         "lower_c"),
    "negative_upper_c": ({**RUN_CONFIG, "upper_c": -1}, ["--jobs", "2"], "upper_c"),
    # head distortion 1.3 * sqrt(4/6) >= 1; the entry (2, 12, 0) alone could run
    "upper_c_too_large": ({**RUN_CONFIG, "upper_c": 1.3,
                           "grid": [{"k": 4, "l": 6, "q": 0}, {"k": 2, "l": 12, "q": 0}]},
                          ["--jobs", "2"], "(k=4, l=6, q=0) needs upper_c"),
}


# case -> (balance flags, needle the message ends with)
BAD_BALANCE_FLAGS = {
    "balance_negative_trials": (["--trials", "-1"], "trials"),
    "balance_zero_k": (["--k", "0"], "k"),
    "balance_negative_k": (["--k", "-2"], "k"),
    "balance_nan_oversample": (["--oversample", "nan"], "oversample_factor"),
    "balance_nan_budget": (["--budget", "nan"], "budget_factor"),
    "balance_nan_size_factor": (["--size-factor", "nan"], "tail_factor"),
    "balance_nan_gap": (["--gap", "nan"], "gap"),
    "balance_infinite_gap": (["--gap", "inf"], "gap"),
    # the first gap could run, but every gap is checked before any output
    "balance_nan_second_gap": (["--gap", "1.1", "nan"], "gap"),
}


@pytest.mark.parametrize("case", ["missing_spectrum_file", *BAD_CONFIGS,
                                  *BAD_BALANCE_FLAGS])
def test_error_reporting_is_clean(tmp_path, case):
    if case == "missing_spectrum_file":
        res = run_cli("estimate", str(tmp_path / "missing.txt"), "--k", "2", "--l", "4")
        needle = "missing.txt"
    elif case in BAD_BALANCE_FLAGS:
        flags, needle = BAD_BALANCE_FLAGS[case]
        res = run_cli(*TINY_BALANCE, "--outdir", str(tmp_path / "out"), *flags)
        assert not (tmp_path / "out").exists()
    else:
        cfg, flags, needle = BAD_CONFIGS[case]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = run_cli("run", str(cfg_path), "--outdir", str(tmp_path / "out"), *flags)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1
    # the message ends with the offending file or key names
    assert needle in errors[0].rsplit(": ", 1)[-1]


def fail_in_forked_workers(monkeypatch, task_fn: str):
    """Patch ``harness.<task_fn>`` to raise in every process but this one;
    forked workers inherit the patched module."""
    from rsvdangles import harness

    original, caller = getattr(harness, task_fn), os.getpid()

    def fail_in_forked_worker(*args):
        if os.getpid() != caller:
            raise ValueError("raised in a worker process")
        return original(*args)

    monkeypatch.setattr(harness, task_fn, fail_in_forked_worker)
    monkeypatch.delenv("RSVDANGLES_OUTDIR", raising=False)


def test_worker_error_reaches_cli_as_one_line(tmp_path, monkeypatch, capsys):
    from rsvdangles import cli

    fail_in_forked_workers(monkeypatch, "_run_single")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RUN_CONFIG))
    rc = cli.main(["run", str(cfg_path), "--outdir", str(tmp_path / "out"), "--jobs", "2"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: raised in a worker process"]


def test_balance_worker_error_reaches_cli_as_one_line(tmp_path, monkeypatch, capsys):
    from rsvdangles import cli, harness

    fail_in_forked_workers(monkeypatch, "_balance_trial")
    monkeypatch.setattr(harness, "_usable_workers", lambda: 2)
    rc = cli.main([*TINY_BALANCE, "--trials", "2", "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: raised in a worker process"]


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


def test_single_worker_leaves_multiprocessing_out(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RUN_CONFIG))
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from rsvdangles import cli\n"
         f"cli.main(['run', {str(cfg_path)!r}, '--outdir', {str(tmp_path / 'out')!r}])\n"
         "print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "RSVDANGLES_OUTDIR"})
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


def test_cli_import_leaves_scipy_out():
    res = subprocess.run(
        [sys.executable, "-c",
         "import rsvdangles.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
