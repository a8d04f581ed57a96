import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import assert_no_child_left
from rsvdangles.estimator import unbiased_estimate
from rsvdangles.linalg import Spectrum
from rsvdangles.mmio import read_matrix


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "rsvdangles", *args],
                          capture_output=True, text=True)


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


def test_gen_refuses_a_matrix_that_run_rejects(tmp_path, capsys):
    from rsvdangles import cli

    assert cli.main(["gen", "step", "--k", "2", "--beta", "14", "--gap", "1e200",
                     "--m", "30", "--n", "30", "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: matrix step too large: its squared"
                                       " Frobenius norm overflows\n")
    assert not (tmp_path / "out").exists()


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


TINY_BALANCE = ("balance", "--k", "6", "--budget", "9", "--size-factor", "12",
                "--oversample", "1.1")


def test_balance_subcommand(tmp_path):
    res = run_cli(*TINY_BALANCE, "--gap", "1.3", "--trials", "2", "--seed", "1",
                  "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "balance_k6_gap1.3.csv").exists()
    assert (tmp_path / "balance_k6_gap1.3.svg").exists()
    assert "best power count" in res.stdout


def test_balance_writes_one_pair_per_gap(tmp_path):
    common = (*TINY_BALANCE, "--trials", "2", "--seed", "1", "--outdir")
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
    from rsvdangles import cli, workers as pool

    outputs = {}
    for workers in (1, 2):
        monkeypatch.setattr(pool, "_usable_workers", lambda: workers)
        out = tmp_path / f"workers{workers}"
        assert cli.main([*TINY_BALANCE, "--trials", "2", "--seed", "1",
                         "--gap", *gaps, "--outdir", str(out)]) == 0
        outputs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outputs[1]) == 2 * len(gaps)
    # the forked worker's trials give the same CSV and SVG bytes
    assert outputs[2] == outputs[1]


# 60 trials are 3 blocks, so a 2-worker estimate forks
TINY_ESTIMATE = ("--k", "3", "--l", "6", "--q", "1", "--trials", "60", "--seed", "5")


def write_spectrum(tmp_path, values=np.geomspace(3.0, 0.5, 16)):
    path = tmp_path / "spec.txt"
    path.write_text("".join(f"{v:.17g}\n" for v in values))
    return path


def test_estimate_output_does_not_depend_on_workers(tmp_path, monkeypatch, capsys):
    from rsvdangles import cli, workers

    outputs = {}
    for n in (1, 2):
        monkeypatch.setattr(workers, "_usable_workers", lambda: n)
        assert cli.main(["estimate", str(write_spectrum(tmp_path)), *TINY_ESTIMATE]) == 0
        outputs[n] = capsys.readouterr().out
    assert outputs[1].count("\n") == 2 + 3
    assert outputs[2] == outputs[1]


@pytest.mark.parametrize("values, flags, message", [
    pytest.param(np.geomspace(3.0, 0.5, 16), ["--k", "3", "--l", "6", "--q", "-1"],
                 "q must be >= 0", id="negative_q"),
    # (1e200 / 1e-100) ** 7 overflows; the tail is long enough
    pytest.param([1e200, 1e-100, 1e-120, 1e-140, 1e-160], ["--k", "1", "--l", "2", "--q", "3"],
                 "power weights overflow double precision: sigma_1/sigma_2 = 1e+300"
                 " to the power 7", id="power_weight_overflow"),
    # the tail of 50 is long enough for l = 20; (1e6 / 1) ** 61 overflows
    pytest.param([1e6] * 5 + [1.0] * 50, ["--k", "5", "--l", "20", "--q", "30"],
                 "power weights overflow double precision: sigma_1/sigma_6 = 1e+06"
                 " to the power 61", id="step_weight_overflow"),
    # the weights are finite; the head times the draw overflows
    pytest.param([1.7e308] + [1.0] * 6, ["--k", "1", "--l", "2", "--q", "0", "--trials", "20"],
                 "power weights overflow double precision with the Gaussian draw:"
                 " top weight 1.7e+308", id="head_overflow_with_draw"),
    pytest.param([], ["--k", "1", "--l", "2"], "spectrum must be a nonempty 1-d array",
                 id="empty_file"),
])
def test_estimate_rejects_unusable_input_in_one_line(tmp_path, values, flags, message):
    res = run_cli("estimate", str(write_spectrum(tmp_path, values)), *flags)
    assert res.returncode == 1
    assert res.stdout == ""
    # no warning and no traceback besides the one line
    assert res.stderr.splitlines() == [f"error: {message}"]


def test_estimate_prints_sines_past_overflowing_nu_silently(tmp_path):
    # nu**2 overflows; the exact sines are about 1e-162
    values = [1e6, 1e6, 1, 1, 1, 1, 1, 1]
    res = run_cli("estimate", str(write_spectrum(tmp_path, values)),
                  "--k", "2", "--l", "3", "--q", "13", "--trials", "2")
    assert res.returncode == 0
    assert res.stderr == ""
    lines = [ln.split() for ln in res.stdout.splitlines()[-2:]]
    assert [ln[0] for ln in lines] == ["1", "2"]
    assert all(0.0 < float(v) < 1e-150 for ln in lines for v in ln[1:])


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
    rep = unbiased_estimate(Spectrum(values), 3, 6, 1, 3, "left", 5)
    assert np.allclose(got[:, 0], rep.mean, rtol=1e-15)
    assert np.allclose(got[:, 1], rep.min_band, rtol=1e-15)
    assert np.allclose(got[:, 2], rep.max_band, rtol=1e-15)


RANK6_MATRIX = {"generator": "gaussian_decay", "m": 30, "n": 30,
                "spectrum": {"kind": "slower", "r": 6, "r1": 2}, "seed": 1, "name": "rank6"}


RANK6_GRID = [{"k": 2, "l": 4, "q": 0}]  # a grid the rank-6 matrix can run


def with_matrix(drop=(), matrix=RANK6_MATRIX, **changes):  # RUN_CONFIG, edited matrix
    return {**RUN_CONFIG, "matrix": {key: value for key, value in
                                     {**matrix, **changes}.items() if key not in drop}}


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
    # jobs and outdir are run flags, not config keys
    "zero_jobs": ({**RUN_CONFIG, "jobs": 0}, [], "jobs"),
    "jobs_flag_zero": (RUN_CONFIG, ["--jobs", "0"], "jobs"),
    # the 35x30 matrix cannot take l=40: rejected before any worker starts
    "grid_l_exceeds_matrix": ({**RUN_CONFIG, "grid": [{"k": 4, "l": 40, "q": 1}]},
                              ["--jobs", "2"], "l=40"),
    # a rank-6 matrix cannot take l=8 though 8 <= min(m, n)=30
    "grid_l_exceeds_rank": ({**with_matrix(), "grid": [{"k": 2, "l": 8, "q": 0}]},
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
    # each (k, l, q) once: a repeat wrote every row of the point twice
    "repeated_grid_point": ({**RUN_CONFIG, "grid": RUN_CONFIG["grid"] * 2}, ["--jobs", "2"],
                            "(k=4, l=8, q=1) is listed more than once"),
    "empty_sides": ({**RUN_CONFIG, "sides": []}, [], "sides"),
    "repeated_side": ({**RUN_CONFIG, "sides": ["left", "left"]}, [], "sides"),
    # malformed matrix descriptors are rejected before any run
    "gaussian_without_m": (with_matrix(drop=["m"]), ["--jobs", "2"], "m"),
    "gaussian_without_spectrum": (with_matrix(drop=["spectrum"]), [], "spectrum"),
    "gaussian_null_m": (with_matrix(m=None), [], "m"),
    "spectrum_without_kind": (with_matrix(spectrum={"r": 6, "r1": 2}), [], "kind"),
    "spectrum_not_an_object": (with_matrix(spectrum="slower"), [], "spectrum"),
    "snn_without_r1": (with_matrix(drop=["r1"], matrix=RUN_CONFIG["matrix"]), [], "r1"),
    # open() reads an integer path as a file descriptor
    "integer_path": ({**RUN_CONFIG, "matrix": {"path": 3}}, [], "path"),
    # descriptor values must have their JSON type, as config values do:
    # int() and float() used to run this one as a 35x30 matrix with r1=4
    "snn_float_and_string_sizes": (with_matrix(matrix=RUN_CONFIG["matrix"], m=35.9,
                                               n="30", r1=4.5), [], "m"),
    "snn_string_n": (with_matrix(matrix=RUN_CONFIG["matrix"], n="30"), [], "n"),
    "snn_float_r1": (with_matrix(matrix=RUN_CONFIG["matrix"], r1=4.5), [], "r1"),
    "snn_string_a": (with_matrix(matrix=RUN_CONFIG["matrix"], a="5"), [], "a"),
    "gaussian_float_seed": ({**with_matrix(seed=1.0), "grid": RANK6_GRID}, [], "seed"),
    "spectrum_float_r": ({**with_matrix(spectrum={"kind": "slower", "r": 6.0, "r1": 2}),
                          "grid": RANK6_GRID}, [], "r"),
    # a list name wrote "['a', 'b']_bounds.csv", then failed in a traceback
    "list_name": ({**with_matrix(name=["a", "b"]), "grid": RANK6_GRID}, [], "name"),
    # a name is a file name inside --outdir: "../escaped" wrote its CSV and
    # SVGs next to --outdir and exited 0
    "parent_dir_name": ({**with_matrix(name="../escaped"), "grid": RANK6_GRID},
                        ["--jobs", "2"], "name"),
    "slash_name": ({**with_matrix(name="sub/dir"), "grid": RANK6_GRID}, [], "name"),
    "dot_dot_name": ({**with_matrix(name=".."), "grid": RANK6_GRID}, [], "name"),
    "empty_name": ({**with_matrix(name=""), "grid": RANK6_GRID}, [], "name"),
    # descriptor numbers must be finite: an infinite beta ended in an
    # OverflowError traceback, a NaN one in a message naming no key, and an
    # infinite a in two RuntimeWarnings before the error line
    "step_infinite_beta": (with_matrix(spectrum={"kind": "step", "k": 2, "beta": float("inf"),
                                                 "gap": 1.5}), [], "beta"),
    "step_nan_beta": (with_matrix(spectrum={"kind": "step", "k": 2, "beta": float("nan"),
                                            "gap": 1.5}), [], "beta"),
    # a spectrum or a side longer than any array: numpy's "Maximum allowed
    # dimension exceeded" and "Maximum allowed size exceeded" named no key
    "step_huge_beta": (with_matrix(spectrum={"kind": "step", "k": 2, "beta": 1e300,
                                             "gap": 1.5}), [], "beta"),
    "slower_huge_r": (with_matrix(spectrum={"kind": "slower", "r": 10**20, "r1": 2}),
                      [], "r"),
    "gaussian_huge_m": (with_matrix(m=10**20), [], "m"),
    "snn_nan_a": (with_matrix(matrix=RUN_CONFIG["matrix"], a=float("nan")), [], "a"),
    "snn_infinite_a": (with_matrix(matrix=RUN_CONFIG["matrix"], a=float("inf")), [], "a"),
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
    # l = budget * k must fit the tail of size-factor * k rows
    "balance_budget_above_tail": (["--budget", "13"], "budget_factor"),
    # a study of (1 + size-factor) * k rows could not be held, nor its power counts listed
    "balance_huge_budget": (["--budget", "1e300", "--size-factor", "1e300"], "tail_factor"),
    # (1 + size-factor) * k overflows to infinity: an OverflowError traceback
    "balance_overflowing_size_factor": (["--budget", "1e308", "--size-factor", "1e308"],
                                        "tail_factor"),
    # the first gap could run, but every gap is checked before any output
    "balance_nan_second_gap": (["--gap", "1.1", "nan"], "gap"),
    # gaps name their output files by %g: a second study would overwrite the first
    "balance_gaps_with_one_tag": (["--gap", "1.0000001", "1.0000002"], "gap"),
    "balance_repeated_gap": (["--gap", "1.1", "1.2", "1.1"], "gap"),
    # budget / oversample**2 overflows in float's pow: an OverflowError traceback
    "balance_overflowing_oversample": (["--oversample", "1e200"], "oversample_factor"),
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
    # one error line and nothing else: no traceback, no warning
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    # the text after the last ": " names the offending file or key as a whole word
    assert re.search(rf"(?<!\w){re.escape(needle)}(?!\w)", lines[0].rsplit(": ", 1)[-1])


def test_balance_out_of_memory_is_one_error_line(tmp_path):
    # (1 + 1e17) * 2 rows fit an array's length, but the 5e16 power counts
    # cannot be listed; no sweep has rows, so no outdir is made
    res = run_cli("balance", "--k", "2", "--budget", "1e17", "--size-factor", "1e17",
                  "--trials", "0", "--outdir", str(tmp_path / "out"))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: out of memory")
    assert not (tmp_path / "out").exists()


def raise_value_error():
    raise ValueError("raised in a worker process")


def fail_in_forked_workers(monkeypatch, module, task_fn: str, fail=raise_value_error):
    """Patch ``module.<task_fn>`` to call ``fail`` in every process but this
    one, and let the pool fork on any machine; forked workers inherit the
    patched module."""
    from rsvdangles import workers

    monkeypatch.setattr(workers, "_usable_workers", lambda: 2)
    original, caller = getattr(module, task_fn), os.getpid()

    def fail_in_forked_worker(*args):
        if os.getpid() != caller:
            fail()
        return original(*args)

    monkeypatch.setattr(module, task_fn, fail_in_forked_worker)


def test_worker_error_reaches_cli_as_one_line(tmp_path, monkeypatch, capsys):
    from rsvdangles import cli, harness

    fail_in_forked_workers(monkeypatch, harness, "_run_single")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RUN_CONFIG))
    rc = cli.main(["run", str(cfg_path), "--outdir", str(tmp_path / "out"), "--jobs", "2"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: raised in a worker process"]


def test_balance_worker_error_reaches_cli_as_one_line(tmp_path, monkeypatch, capsys):
    from rsvdangles import balance, cli

    fail_in_forked_workers(monkeypatch, balance, "_balance_trial")
    rc = cli.main([*TINY_BALANCE, "--trials", "2", "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: raised in a worker process"]


def test_estimate_worker_error_reaches_cli_as_one_line(tmp_path, monkeypatch, capsys):
    from rsvdangles import cli, estimator

    fail_in_forked_workers(monkeypatch, estimator, "_estimate_block")
    rc = cli.main(["estimate", str(write_spectrum(tmp_path)), *TINY_ESTIMATE])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: raised in a worker process"]
    assert_no_child_left()


def test_bound_failure_in_estimate_worker_keeps_its_type(monkeypatch):
    from rsvdangles import estimator
    from rsvdangles.prior_bounds import TailTooShort

    def raise_tail_too_short():
        raise TailTooShort("tail too short for estimator")

    fail_in_forked_workers(monkeypatch, estimator, "_estimate_block", raise_tail_too_short)
    spec = Spectrum(np.geomspace(3.0, 0.5, 16))
    with pytest.raises(TailTooShort, match="^tail too short for estimator$") as info:
        unbiased_estimate(spec, 3, 6, 1, 60, "left", 5, jobs=2)
    assert info.value.status == "tail_short"
    assert_no_child_left()


def test_plain_value_error_in_a_bound_ends_run_with_one_line(tmp_path, monkeypatch, capsys):
    from rsvdangles import cli, harness

    def fail(*args, **kwargs):
        raise ValueError("not a bound failure")

    # only a BoundFailure becomes a status; this error is not written as rows
    monkeypatch.setattr(harness, "space_agnostic_lower", fail)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RUN_CONFIG))
    rc = cli.main(["run", str(cfg_path), "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: not a bound failure"]
    assert not (tmp_path / "out" / "snn_tiny_bounds.csv").exists()


def test_estimate_worker_that_dies_gives_one_error_line(tmp_path, monkeypatch, capsys):
    from rsvdangles import cli, estimator

    fail_in_forked_workers(monkeypatch, estimator, "_estimate_block", lambda: os._exit(3))
    rc = cli.main(["estimate", str(write_spectrum(tmp_path)), *TINY_ESTIMATE])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    [line] = out.err.splitlines()
    assert line.startswith("error: worker process ")
    assert line.endswith(" ended with exit code 3 before reporting its results")
    assert_no_child_left()


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_sets_one_blas_thread_unless_preset(preset):
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    seen = []  # (variable and thread counts, warnings) with each module first
    for first in ("rsvdangles", "numpy"):
        res = subprocess.run(
            [sys.executable, "-W", "always", "-c",
             f"import {first}, rsvdangles, numpy, os\n"
             "print(os.environ['OPENBLAS_NUM_THREADS'], rsvdangles._blas_threads())"],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        seen.append((res.stdout.strip(), res.stderr))
    assert seen[0][0].split()[0] == (preset or "1") and seen[0][1] == ""
    # numpy first reads the same count, a preset one included, or warns that it cannot
    assert seen[1] == seen[0] or (preset is None and "no OpenBLAS thread setter" in seen[1][1])


def test_commands_leave_multiprocessing_out(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RUN_CONFIG))
    commands = [["run", str(cfg_path), "--outdir", str(tmp_path / "run"), "--jobs", "2"],
                [*TINY_BALANCE, "--trials", "2", "--outdir", str(tmp_path / "balance")],
                ["estimate", str(write_spectrum(tmp_path)), *TINY_ESTIMATE]]
    # each command runs on 2 workers, whatever this machine has
    res = subprocess.run(
        [sys.executable, "-c",
         "import os, sys\n"
         "from rsvdangles import cli, workers\n"
         "workers._usable_workers = lambda: 2\n"
         f"for argv in {commands!r}:\n"
         "    assert cli.main(argv) == 0\n"
         "    assert not {'multiprocessing', 'concurrent.futures'} & sys.modules.keys()\n"
         "print(len(os.listdir(sys.argv[1])))", str(tmp_path / "run")],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "2"  # the run's CSV and SVG


def test_sweep_script_help_without_affinity_call():
    # platforms without os.sched_getaffinity (macOS, Windows) still get --help
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_bounds_sweep.py")
    code = ("import os, runpy, sys; del os.sched_getaffinity; script = sys.argv[1];"
            " sys.argv = [script, '--help']; runpy.run_path(script, run_name='__main__')")
    res = subprocess.run([sys.executable, "-c", code, script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "--jobs" in res.stdout


def test_cli_import_leaves_scipy_out(tmp_path):
    # nor does the package load numpy or ctypes, or a command a module it never calls
    unused_by = {
        ("estimate", str(write_spectrum(tmp_path)), *TINY_ESTIMATE):
            ("harness", "balance", "report", "matgen", "mmio", "posterior_bounds", "angles"),
        (*TINY_BALANCE, "--trials", "1", "--outdir", str(tmp_path)):
            ("harness", "mmio", "posterior_bounds", "angles"),
    }
    for argv, modules in unused_by.items():
        unused = {"json", *(f"rsvdangles.{m}" for m in modules)}
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, rsvdangles; loaded = [sorted({'numpy', 'ctypes'} & sys.modules.keys())]\n"
             "from rsvdangles import cli; loaded.append('scipy' in sys.modules)\n"
             f"assert cli.main({list(argv)!r}) == 0\n"
             f"print(*loaded, sorted({unused!r} & sys.modules.keys()))"],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[] False []", argv[0]


def test_every_benchmark_hook_resolves(monkeypatch):
    # perfbench/tracer.py wraps these package functions by name, and the
    # benchmark's sweep set-up child and its tests import names from harness:
    # a rename would end every traced run in an AttributeError, and a set-up
    # child that fails to import counts as a failed operation
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    pairs = [*tracer.TRACED, ("estimator", "estimate_cost_model"),
             ("estimator", "unbiased_estimate"),  # these two also for its hook
             # perfbench/run.py's sweep set-up child
             ("harness", "ExperimentConfig"), ("harness", "build_matrix"),
             # perfbench/tests/test_checks.py
             ("harness", "BalanceConfig"), ("harness", "fixed_budget_bound")]
    assert [f"{module}.{func}" for module, func in pairs if not callable(
        getattr(importlib.import_module(f"rsvdangles.{module}"), func, None))] == []
