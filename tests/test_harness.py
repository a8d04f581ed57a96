import itertools
import json
import math
import os
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import assert_no_child_left
from rsvdangles import harness, workers
from rsvdangles.angles import canonical_sines
from rsvdangles.balance import (BalanceConfig, balance_panel, balance_sweep,
                                feasible_powers, fixed_budget_bound)
from rsvdangles.estimator import unbiased_estimate
from rsvdangles.harness import ExperimentConfig, build_matrix, pad_spectrum, run_experiment
from rsvdangles.linalg import Spectrum
from rsvdangles.matgen import gen_gaussian_decay, gen_step_spectrum, spectrum_slower
from rsvdangles.mmio import write_matrix
from rsvdangles.prior_bounds import (BoundFailure, GapViolated, TailTooShort,
                                     WeightsOverflow, space_agnostic_upper)
from rsvdangles.report import (CSV_HEADER, GAP_KINDS, STATUS_OK, STATUS_TRIVIAL, Panel, Row,
                               Series, emit_balance_csv, emit_csv, emit_svg,
                               experiment_panels)
from rsvdangles.rsvd import rsvd
from rsvdangles.workers import _share, _usable_workers

TINY_MATRIX = {"generator": "gaussian_decay", "m": 40, "n": 40,
               "spectrum": {"kind": "slower", "r": 40, "r1": 5},
               "seed": 3, "name": "tiny"}


def tiny_config(**overrides):
    base = dict(matrix=TINY_MATRIX, grid=[(5, 8, 0), (5, 10, 1)],
                sides=("left", "right"), estimator_trials=2, n_seeds=2)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestPadSpectrum:
    def test_repeats_last_value(self):
        padded = pad_spectrum(Spectrum.from_values([3.0, 1.0]), 4)
        assert np.array_equal(padded.values, [3.0, 1.0, 1.0, 1.0])

    def test_no_padding_needed(self):
        spec = Spectrum.from_values([3.0, 1.0])
        assert np.array_equal(pad_spectrum(spec, 2).values, spec.values)

    def test_cannot_shrink(self):
        with pytest.raises(ValueError, match="padding length"):
            pad_spectrum(Spectrum.from_values([3.0, 1.0]), 1)

    def test_padding_loosens_bounds_under_tail_decay(self):
        # decaying true tail vs padded flat continuation of the approx values
        true = Spectrum.from_values(np.geomspace(2.0, 0.01, 40))
        approx = Spectrum.from_values(true.values[:10] * 0.999)
        padded = pad_spectrum(approx, 40)
        for q in (0, 1):
            t = space_agnostic_upper(true, 3, 6, q, "left", c=1.0)
            p = space_agnostic_upper(padded, 3, 6, q, "left", c=1.0)
            assert (p.values >= t.values).all()


@pytest.fixture(scope="module")
def rows():
    return run_experiment(tiny_config())


@pytest.fixture
def forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(os, "fork", no_fork)


def use_workers(monkeypatch, n: int) -> None:
    """Make ``_share`` see ``n`` usable CPUs, whatever this machine has."""
    monkeypatch.setattr(workers, "_usable_workers", lambda: n)


def worker_pid(task) -> int:
    return os.getpid()


def raise_in_worker(caller: int, task):
    if os.getpid() != caller:
        raise ValueError(f"task {task} failed in a worker")
    return task


class TestShare:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_results_come_back_in_task_order(self, monkeypatch, jobs):
        use_workers(monkeypatch, 8)
        # 7 tasks do not split evenly over 2 or 3 workers
        assert _share(pow, (2,), list(range(7)), jobs) == [2**t for t in range(7)]

    def test_workers_capped_at_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pids = _share(worker_pid, (), list(range(8)), 8)
        # the caller runs tasks[::2], one forked worker tasks[1::2]
        assert set(pids[::2]) == {os.getpid()}
        assert len(set(pids[1::2])) == 1 and os.getpid() not in pids[1::2]
        assert_no_child_left()

    @pytest.mark.parametrize("n_tasks", [3, 7])
    def test_each_worker_runs_its_fixed_share(self, monkeypatch, n_tasks):
        use_workers(monkeypatch, 3)
        pids = _share(worker_pid, (), list(range(n_tasks)), 3)
        # worker w runs tasks[w::3]; worker 0 is the caller
        shares = [set(pids[w::3]) for w in range(3)]
        assert shares[0] == {os.getpid()}
        assert all(len(share) == 1 for share in shares)
        assert len(set(pids)) == 3

    def test_pool_leaves_no_worker_processes(self, monkeypatch):
        use_workers(monkeypatch, 2)
        assert _share(pow, (2,), list(range(4)), 2) == [1, 2, 4, 8]
        assert_no_child_left()

    def test_worker_error_is_raised_in_the_caller(self, monkeypatch):
        use_workers(monkeypatch, 3)
        with pytest.raises(ValueError, match="^task 1 failed in a worker$"):
            _share(raise_in_worker, (os.getpid(),), list(range(6)), 3)
        assert_no_child_left()

    def test_worker_that_ends_without_reporting_raises(self, monkeypatch):
        use_workers(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="exit code 3 before reporting"):
            _share(lambda task: os._exit(3) if task else task, (), [0, 1], 2)
        assert_no_child_left()

    def test_caller_error_stops_the_workers(self, monkeypatch):
        use_workers(monkeypatch, 2)
        caller = os.getpid()

        def slow_worker_failing_caller(task):
            if os.getpid() != caller:
                time.sleep(60)
            raise ValueError("failed in the caller")

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="failed in the caller"):
            _share(slow_worker_failing_caller, (), [0, 1], 2)
        # the worker was stopped, not waited for
        assert time.perf_counter() - t0 < 30
        assert_no_child_left()

    @pytest.mark.usefixtures("forbid_fork")
    @pytest.mark.parametrize("jobs, n_tasks, usable", [
        (1, 7, 8), (3, 1, 8), (8, 7, 1)])
    def test_single_worker_starts_no_process(self, monkeypatch, jobs, n_tasks, usable):
        use_workers(monkeypatch, usable)
        assert _share(pow, (2,), list(range(n_tasks)), jobs) == [2**t for t in range(n_tasks)]

    def test_one_process_without_fork_start_method(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert _share(pow, (2,), list(range(7)), 2) == [2**t for t in range(7)]
        assert _share(worker_pid, (), list(range(7)), 2) == [os.getpid()] * 7

    def test_usable_workers_counts_usable_cpus(self):
        assert _usable_workers() == len(os.sched_getaffinity(0))

    def test_usable_workers_is_one_without_fork_start_method(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert _usable_workers() == 1

    def test_usable_workers_is_one_without_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _usable_workers() == 1


def _failures(cls) -> list:
    """Every subclass of cls, at any depth."""
    return [c for sub in cls.__subclasses__() for c in (sub, *_failures(sub))]


# every status a row can carry: a report's two, and each failure's own
STATUSES = {STATUS_OK, STATUS_TRIVIAL} | {cls.status for cls in _failures(BoundFailure)}


class TestRunExperiment:
    def test_row_count_matches_counting_formula(self, rows):
        # combos per side: 2 truth kinds (true source only) + 9 value kinds
        # against 2 spectrum sources each
        combos = 2 + 9 * 2
        expect = len(tiny_config().grid) * 2 * 2 * 5 * combos
        assert len(rows) == expect

    def test_statuses_come_from_fixed_vocabulary(self, rows):
        assert {r.status for r in rows} <= STATUSES
        assert all(r.spectrum_source in ("true", "padded") for r in rows)

    def test_readme_names_every_status(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = [line.split("|")[1].strip() for line in readme.splitlines()
                 if line.startswith("| `")]
        assert {f"`{cls.status}`" for cls in _failures(BoundFailure)} <= set(table)
        assert all(f"`{status}`" in readme for status in STATUSES)

    def test_rerun_reproduces_identical_csv_bytes(self, rows, tmp_path):
        rows2 = run_experiment(tiny_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, p1)
        emit_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_execution_gives_identical_rows(self, rows, tmp_path, monkeypatch):
        use_workers(monkeypatch, 3)
        rows_jobs = run_experiment(tiny_config(), jobs=3)
        p1, p2 = tmp_path / "serial.csv", tmp_path / "jobs.csv"
        emit_csv(rows, p1)
        emit_csv(rows_jobs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pool_leaves_no_worker_processes(self, monkeypatch):
        use_workers(monkeypatch, 2)
        run_experiment(tiny_config(), jobs=2)
        assert_no_child_left()

    @pytest.mark.usefixtures("forbid_fork")
    @pytest.mark.parametrize("jobs, n_seeds", [(1, 2), (3, 1)])
    def test_single_worker_starts_no_process(self, monkeypatch, jobs, n_seeds):
        use_workers(monkeypatch, 8)
        run_experiment(tiny_config(grid=[(5, 8, 0)], n_seeds=n_seeds), jobs=jobs)

    def test_one_process_without_fork_start_method(self, monkeypatch, rows):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert len(run_experiment(tiny_config(), jobs=2)) == len(rows)

    @pytest.mark.usefixtures("forbid_fork")
    def test_grid_checked_against_matrix_before_any_run(self):
        snn = {"generator": "snn", "m": 35, "n": 30, "r1": 4, "a": 5.0,
               "density": 0.3, "seed": 9, "name": "snn_tiny"}
        cfg = tiny_config(matrix=snn, grid=[(4, 8, 1), (4, 40, 1)])
        with pytest.raises(ValueError, match=r"\(k=4, l=40, q=1\).*min\(m, n\)=30"):
            run_experiment(cfg, jobs=2)

    @pytest.fixture
    def rank3_file(self, tmp_path):
        # rank 3 in exact arithmetic; its dense SVD leaves 7 round-off values
        rng = np.random.default_rng(0)
        path = tmp_path / "rank3.mtx"
        write_matrix(rng.standard_normal((12, 3)) @ rng.standard_normal((3, 10)), path)
        return {"path": str(path)}

    @pytest.mark.usefixtures("forbid_fork")
    def test_matrix_with_overflowing_norm_rejected_before_any_run(self):
        # each head value squared overflows; the sketch itself would not
        step = {"generator": "gaussian_decay", "m": 30, "n": 30,
                "spectrum": {"kind": "step", "k": 2, "beta": 14, "gap": 1e200}}
        assert build_matrix(step).spectrum.values[0] == 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="squared Frobenius norm overflows"):
                run_experiment(ExperimentConfig(matrix=step, grid=[(2, 6, 1)]), jobs=2)

    def test_roundoff_values_do_not_count_toward_rank(self, rank3_file):
        spec = build_matrix(rank3_file).spectrum
        assert spec.declared_rank == 3
        assert (spec.values[3:] == 0.0).all()
        cfg = ExperimentConfig(matrix=rank3_file, grid=[(2, 5, 0)])
        with pytest.raises(ValueError, match=r"\(k=2, l=5, q=0\) needs l <= rank\(A\)=3"):
            run_experiment(cfg)

    def test_entry_within_numerical_rank_runs(self, rank3_file, tmp_path):
        out = tmp_path / "out"
        run_experiment(ExperimentConfig(matrix=rank3_file, grid=[(1, 3, 0)]), str(out))
        assert (out / "rank3_bounds.csv").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_estimate_rows_are_one_estimator_call_per_weighting(self, tmp_path,
                                                                monkeypatch, jobs):
        # numerical rank 10 below min(m, n) = 14: the true spectrum reads the
        # first 10 rows of each trial's 14-row draw, and at l = 9 its tail is
        # too short while the padded spectrum's is not
        rng = np.random.default_rng(1)
        path = tmp_path / "rank10.mtx"
        write_matrix(rng.standard_normal((16, 10)) @ rng.standard_normal((10, 14)), path)
        use_workers(monkeypatch, 2)
        cfg = ExperimentConfig(matrix={"path": str(path)}, grid=[(2, 4, 1), (2, 9, 0)],
                               estimator_trials=3, n_seeds=2)
        target = build_matrix(cfg.matrix)
        a, true_spec = target.a, target.spectrum
        assert (true_spec.declared_rank, target.pad_rank) == (10, 14)
        got = {}
        for r in run_experiment(cfg, jobs=jobs):
            if r.kind == "estimate":
                got.setdefault((r.k, r.l, r.q, r.seed, r.spectrum_source, r.side),
                               []).append((r.value.hex(), r.status))
        want = {}
        for (k, l, q), seed in itertools.product(cfg.grid, range(cfg.n_seeds)):
            sigma = rsvd(a, l, q, seed).sigma
            padded = pad_spectrum(Spectrum.from_values(sigma), target.pad_rank)
            for (source, spec), side in itertools.product(
                    (("true", true_spec), ("padded", padded)), cfg.sides):
                try:
                    values = unbiased_estimate(spec, k, l, q, 3, side, seed).mean
                    status = "ok"
                except TailTooShort:
                    values, status = np.full(k, np.nan), "tail_short"
                want[k, l, q, seed, source, side] = [(v.hex(), status)
                                                     for v in values.tolist()]
        assert got == want
        assert {key[4] for key, rows in got.items() if rows[0][1] == "tail_short"} == {"true"}
        assert {rows[0][1] for key, rows in got.items() if key[1] == 4} == {"ok"}

    @pytest.mark.parametrize("sides, per_run", [(("left", "right"), ["blocks", "left"]),
                                                (("right",), ["blocks"])])
    def test_a_run_forms_each_residual_once(self, monkeypatch, sides, per_run):
        # residual_blocks gives the right residual; residual_spectrum forms the left one
        calls = []
        spectrum, blocks = harness.residual_spectrum, harness.residual_blocks
        monkeypatch.setattr(harness, "residual_spectrum", lambda a, basis, k:
                            calls.append("left") or spectrum(a, basis, k))
        monkeypatch.setattr(harness, "residual_blocks",
                            lambda a, f, k: calls.append("blocks") or blocks(a, f, k))
        run_experiment(tiny_config(sides=sides))
        assert calls == per_run * 4  # 2 grid points x 2 seeds

    def test_errors_recorded_not_raised(self, rows):
        # 40x40 at l = rank/5 keeps gaps healthy, so force a tail_short case:
        # estimator needs tail >= l
        cfg = tiny_config(grid=[(5, 36, 0)])
        out = run_experiment(cfg)
        est = [r for r in out if r.kind == "estimate"]
        assert est and all(r.status == "tail_short" for r in est)
        assert all(np.isnan(r.value) for r in est)

    def test_weights_overflow_recorded_as_its_own_status(self):
        # sigma_1/sigma_6 = 1e6 to the power 61 overflows, though r - k = 50
        # leaves the estimator a tail longer than l
        step = {"generator": "gaussian_decay", "m": 60, "n": 60,
                "spectrum": {"kind": "step", "k": 5, "beta": 10, "gap": 1e6}}
        out = run_experiment(ExperimentConfig(matrix=step, grid=[(5, 20, 30)], n_seeds=2))
        est = [r for r in out if r.kind == "estimate"]
        assert len(est) == 40
        assert all(r.status == "weights_overflow" and np.isnan(r.value) for r in est)
        assert all(r.status == "ok" for r in out if r.kind != "estimate")

    def test_full_width_run_degenerates_cleanly(self):
        cfg = tiny_config(grid=[(5, 40, 0)], n_seeds=1)
        out = run_experiment(cfg)
        truth = [r.value for r in out if r.kind == "true_angle"]
        assert max(truth) <= 1e-8
        ratio = [r.value for r in out if r.kind == "residual_ratio"
                 and r.spectrum_source == "true"]
        assert max(ratio) <= 1e-8

    def test_outputs_written(self, tmp_path):
        run_experiment(tiny_config(grid=[(5, 8, 0)], n_seeds=1), str(tmp_path / "out"))
        csv = tmp_path / "out" / "tiny_bounds.csv"
        assert csv.exists()
        svgs = list((tmp_path / "out").glob("*.svg"))
        assert len(svgs) == 2  # one per side
        header, *lines = csv.read_text().splitlines()
        assert header == CSV_HEADER
        keys = [(m, side, int(k), int(l), int(q), int(seed), int(i), kind, src)
                for m, side, k, l, q, seed, i, kind, src, _, _
                in (line.split(",") for line in lines)]
        assert keys == sorted(keys)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 9: estimator trial j draws from the stream keyed by seed ^ j, "
        "so trial 0 redraws the run's own sketch, and seeds 0-9 at 3 trials draw 12 "
        "streams, not 30"))
    def test_estimates_draw_apart_from_the_sketch_and_each_other(self, tmp_path):
        # coordinate singular vectors: a trial that redraws the sketch's words
        # reproduces the run's true sines
        spec = spectrum_slower(200, 10)
        write_matrix(np.diag(spec.values), tmp_path / "diag.mtx")
        rows = run_experiment(ExperimentConfig(
            matrix={"path": str(tmp_path / "diag.mtx")}, grid=[(10, 20, 0)],
            sides=("left",), estimator_trials=1, n_seeds=5))
        for seed in range(5):
            est, truth = ([r.value for r in rows if r.seed == seed and r.kind == kind
                           and r.spectrum_source == "true"]
                          for kind in ("estimate", "true_angle"))
            assert not np.allclose(est, truth, rtol=1e-6, atol=0), seed
        per_trial = {tuple(row) for seed in range(10)
                     for row in unbiased_estimate(spec, 10, 20, 0, 3, "left", seed).per_trial}
        assert len(per_trial) == 30


# the kinds that may carry each failure status
FAILURE_KINDS = {"gap_violated": set(GAP_KINDS),
                 "tail_short": {"space_agnostic_lower", "estimate"},
                 "weights_overflow": {"estimate"},
                 "sketch_collapsed": {"true_angle", "true_angle_rank_k",
                                      "space_agnostic_upper", "space_agnostic_lower",
                                      "subspace_aware_upper", "estimate", "residual_ratio",
                                      *GAP_KINDS}}


@st.composite
def small_configs(draw):
    """ExperimentConfig keywords of a valid small sweep: a gaussian_decay
    matrix with a slower, faster or step spectrum, or an snn matrix, with
    8 to 40 rows and columns, and q up to 40."""
    m, n = draw(st.integers(8, 40)), draw(st.integers(8, 40))
    kind = draw(st.sampled_from(["slower", "faster", "step", "snn"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "snn":
        desc = {"generator": "snn", "m": m, "n": n, "r1": draw(st.integers(1, min(m, n))),
                "a": draw(st.floats(1.0, 100.0)), "density": draw(st.floats(0.1, 1.0)),
                "seed": seed}
    elif kind == "step":
        head = draw(st.integers(1, min(m, n) // 2))
        spec = {"kind": "step", "k": head, "beta": draw(st.integers(1, min(m, n) // head - 1)),
                "gap": draw(st.floats(0.0, 8.0).map(lambda e: 10.0 ** e))}
        desc = {"generator": "gaussian_decay", "m": m, "n": n, "spectrum": spec, "seed": seed}
    else:
        r = draw(st.integers(2, min(m, n)))
        desc = {"generator": "gaussian_decay", "m": m, "n": n, "seed": seed,
                "spectrum": {"kind": kind, "r": r, "r1": draw(st.integers(1, r))}}
    rank = build_matrix(desc).spectrum.declared_rank
    assume(rank >= 2)
    grid = []
    for _ in range(draw(st.integers(1, 2))):
        l = draw(st.integers(2, rank))
        entry = (draw(st.integers(1, l - 1)), l, draw(st.integers(0, 40)))
        if entry not in grid:  # a config lists each grid point once
            grid.append(entry)
    return {"matrix": desc, "grid": grid,
            "sides": draw(st.sampled_from([("left",), ("right",), ("left", "right")])),
            "estimator_trials": draw(st.integers(1, 2)), "n_seeds": draw(st.integers(1, 2)),
            "base_seed": draw(st.integers(0, 1000))}


def csv_bytes(rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        emit_csv(rows, path)
        with open(path, "rb") as fh:
            return fh.read()


def slower_40(r1: int) -> dict:
    return {"generator": "gaussian_decay", "m": 40, "n": 40,
            "spectrum": {"kind": "slower", "r": 40, "r1": r1}, "seed": 3}


def contract_example(matrix: dict, grid: list, trials: int = 2) -> dict:
    return {"matrix": matrix, "grid": grid, "sides": ("left", "right"),
            "estimator_trials": trials, "n_seeds": 2, "base_seed": 0}


def step_40(gap: float) -> dict:
    """A 40x40 step spectrum: two values at ``gap`` over 38 ones."""
    return {"generator": "gaussian_decay", "m": 40, "n": 40,
            "spectrum": {"kind": "step", "k": 2, "beta": 19, "gap": gap}, "seed": 1}


class TestStatusContract:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(small_configs())
    # tail_short: r - k = 35 < l = 36 for the estimator, and a tail
    # distortion 2 sqrt(9 / 36) of exactly 1 for the lower bound
    @example(contract_example(slower_40(5), [(5, 36, 0), (4, 9, 0)]))
    # gap_violated: sigma_5 = sigma_6 = 1 on a flat head of 20
    @example(contract_example(slower_40(20), [(5, 10, 0)]))
    # weights_overflow: sigma_1/sigma_3 = 1e6 to the power 61
    @example(contract_example(
        {"generator": "gaussian_decay", "m": 12, "n": 10,
         "spectrum": {"kind": "step", "k": 2, "beta": 4, "gap": 1e6}}, [(2, 4, 30)]))
    # sketch_collapsed: at gap 1e12 and q=1 the sketch's tail directions fall
    # below ortho's rank test
    @example(contract_example(step_40(1e12), [(2, 4, 0), (2, 4, 1)]))
    def test_each_failure_is_recorded_as_its_status(self, kwargs):
        rows = run_experiment(ExperimentConfig(**kwargs))
        gap_failed = {}  # (run, side, source) -> whether each gap kind failed
        for r in rows:
            assert math.isnan(r.value) == (r.status in FAILURE_KINDS), r
            assert r.status in ("ok", "trivial_bound") or r.kind in FAILURE_KINDS[r.status], r
            if r.kind in GAP_KINDS:
                gap_failed.setdefault((r.k, r.l, r.q, r.seed, r.side, r.spectrum_source),
                                      set()).add(r.status == "gap_violated")
        assert all(len(failed) == 1 for failed in gap_failed.values())
        first = csv_bytes(rows)
        assert csv_bytes(run_experiment(ExperimentConfig(**kwargs))) == first
        with mock.patch.object(workers, "_usable_workers", lambda: 2):
            assert csv_bytes(run_experiment(ExperimentConfig(**kwargs), jobs=2)) == first

    def test_collapsed_sketch_spoils_only_its_run(self, tmp_path):
        # at gap 1e12 the sketch passes ortho's rank test at q=0, not at q=1;
        # read from a file, the same matrix has factors the comparator may not read
        path = tmp_path / "step.mtx"
        write_matrix(build_matrix(step_40(1e12)).a, path)
        for matrix, known in ((step_40(1e12), True), ({"path": str(path)}, False)):
            rows = run_experiment(ExperimentConfig(**contract_example(
                matrix, [(2, 4, 0), (2, 4, 1)])))
            by_q = {q: [r for r in rows if r.q == q] for q in (0, 1)}
            assert all(r.status == "ok" for r in by_q[0])
            assert all(r.status == "sketch_collapsed" and math.isnan(r.value) for r in by_q[1])
            # the collapsed run writes the rows an intact run writes
            assert ([r._replace(q=0, value=0.0, status="") for r in by_q[1]]
                    == [r._replace(value=0.0, status="") for r in by_q[0]])
            assert any(r.kind == "subspace_aware_upper" for r in rows) == known

    @pytest.mark.parametrize("gap, trials, failed", [
        # sigma_1/sigma_3 = 1e10 to the power 31 and 32: the weights overflow
        (1e10, 3, {(seed, side, source) for seed in (0, 1) for side in ("left", "right")
                   for source in ("true", "padded")}),
        # gap^32 is finite just below 2^32, but on the right it overflows
        # with one of seed 1's draws
        (4.2949e9, 5, {(1, "right", "true"), (1, "right", "padded")})])
    def test_weights_overflow_reached_through_a_run(self, gap, trials, failed):
        kwargs = contract_example(step_40(gap), [(2, 4, 15)], trials)
        rows = run_experiment(ExperimentConfig(**kwargs))
        assert {(r.seed, r.side, r.spectrum_source) for r in rows
                if r.status == "weights_overflow"} == failed
        assert all(r.status == "ok" for r in rows if r.status != "weights_overflow")
        assert all(r.kind == "estimate" for r in rows if r.status == "weights_overflow")
        first = csv_bytes(rows)
        with mock.patch.object(workers, "_usable_workers", lambda: 2):
            assert csv_bytes(run_experiment(ExperimentConfig(**kwargs), jobs=2)) == first


class TestExperimentConfig:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentConfig(matrix=TINY_MATRIX, grid=[])
        with pytest.raises(ValueError, match="k < l"):
            ExperimentConfig(matrix=TINY_MATRIX, grid=[(5, 5, 0)])

    def test_json_round_trip(self, tmp_path):
        payload = {"schema_version": 1, "matrix": TINY_MATRIX,
                   "grid": [{"k": 5, "l": 8, "q": 0}], "sides": ["left"],
                   "estimator_trials": 4, "n_seeds": 3, "base_seed": 7}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.grid == [(5, 8, 0)]
        assert cfg.sides == ("left",)
        assert cfg.estimator_trials == 4
        assert cfg.base_seed == 7

    @pytest.mark.parametrize("key, value, needle", [
        ("n_seeds", "2", "n_seeds"), ("estimator_trials", True, "estimator_trials"),
        ("base_seed", 1.5, "base_seed"), ("upper_c", "1", "upper_c"),
        ("sides", "left", "sides"), ("lower_c", "2", "lower_c"),
        ("matrix", [], "matrix"), ("grid", [{"k": 5, "l": "8", "q": 0}], "l")])
    def test_value_types_checked(self, tmp_path, key, value, needle):
        payload = {"schema_version": 1, "matrix": TINY_MATRIX,
                   "grid": [{"k": 5, "l": 8, "q": 0}], key: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"must be .*: {needle}$"):
            ExperimentConfig.from_json(path)

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 99, "matrix": TINY_MATRIX,
                                    "grid": [{"k": 2, "l": 4, "q": 0}]}))
        with pytest.raises(ValueError, match="schema_version"):
            ExperimentConfig.from_json(path)


class TestBudgetCurve:
    CFG = dict(k=10, budget_factor=16.0, tail_factor=32.0,
               oversample_factor=1.05, trials=0)

    def test_feasible_power_count_formula(self):
        cfg = BalanceConfig(gap=1.1, **self.CFG)
        ratio = 16.0 / 1.05**2
        assert feasible_powers(cfg) == list(range(int((ratio - 1) / 2) + 1))
        assert len(feasible_powers(cfg)) == 7

    def test_unit_gap_closed_form(self):
        cfg = BalanceConfig(gap=1.0, **self.CFG)
        a, b, g = 16.0, 32.0, 1.05
        for q in feasible_powers(cfg):
            passes = 2 * q + 1
            coef = (a - g * np.sqrt(a * passes)) / (b * passes + g * np.sqrt(a * b * passes))
            assert fixed_budget_bound(q, cfg) == pytest.approx((1 + coef) ** -0.5, rel=1e-12)

    def test_vacuous_where_head_distortion_reaches_one(self):
        # (2q+1) * oversample^2 = 16 = budget at q=0
        cfg = BalanceConfig(k=10, budget_factor=16.0, tail_factor=32.0,
                            oversample_factor=4.0, gap=1.1, trials=0)
        assert feasible_powers(cfg) == [0]
        assert fixed_budget_bound(0, cfg) == 1.0

    def test_budget_exceeded_raises(self):
        cfg = BalanceConfig(gap=1.1, **self.CFG)
        for q in (max(feasible_powers(cfg)) + 1, -1):  # -1 ended in "math domain error"
            with pytest.raises(ValueError, match=r"^power count must lie in 0\.\.6"
                                                 r" for this budget: q$"):
                fixed_budget_bound(q, cfg)

    def test_every_listed_power_count_has_a_value(self):
        # budget / oversample^2 = 2.9999999999988 lists q = 1 within the 1e-12 slack,
        # where the bound raised "budget exceeded"; head distortion g >= 1 makes it 1
        cfg = BalanceConfig(k=4, budget_factor=3.0, tail_factor=32.0,
                            oversample_factor=1.0000000000002, gap=1.1, trials=0)
        assert [(r["q"], r["phi"]) for r in balance_sweep(cfg)][1:] == [(1, 1.0)]

    def test_matches_spectrum_bound_on_step_spectrum(self):
        # same value through the generic bound evaluated at l = budget/(2q+1)
        k, alpha, beta, gamma, gap = 10, 16.0, 32.0, 1.05, 1.3
        cfg = BalanceConfig(k=k, budget_factor=alpha, tail_factor=beta,
                            oversample_factor=gamma, gap=gap, trials=0)
        step = gen_step_spectrum(k, beta, gap)
        for q in (0, 2):  # powers where budget/(2q+1) is integral
            l = int(alpha * k) // (2 * q + 1)
            rep = space_agnostic_upper(step, k, l, q, "left", c=gamma)
            assert fixed_budget_bound(q, cfg) == pytest.approx(
                rep.values[0], abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="oversample"):
            BalanceConfig(k=10, budget_factor=16.0, tail_factor=32.0,
                          oversample_factor=1.0, gap=1.1)
        with pytest.raises(ValueError, match="feasible"):
            BalanceConfig(k=10, budget_factor=3.0, tail_factor=32.0,
                          oversample_factor=2.0, gap=1.1)
        with pytest.raises(ValueError, match=": budget_factor$"):
            BalanceConfig(k=10, budget_factor=33.0, tail_factor=32.0,
                          oversample_factor=1.05, gap=1.1)
        with pytest.raises(ValueError, match=": k$"):
            BalanceConfig(k=0, budget_factor=16.0, tail_factor=32.0,
                          oversample_factor=1.05, gap=1.1)
        with pytest.raises(ValueError, match=": trials$"):
            BalanceConfig(k=10, budget_factor=16.0, tail_factor=32.0,
                          oversample_factor=1.05, gap=1.1, trials=-1)
        # no array, nor the list of power counts, could be that long
        with pytest.raises(ValueError, match=": tail_factor$"):
            BalanceConfig(k=2, budget_factor=1e300, tail_factor=1e300,
                          oversample_factor=1.05, gap=1.1)

    @pytest.mark.parametrize("key", ["budget_factor", "tail_factor",
                                     "oversample_factor", "gap"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, key, value):
        values = {**self.CFG, "gap": 1.1, key: value}
        with pytest.raises(ValueError, match=f"must be finite: {key}$"):
            BalanceConfig(**values)


def tiny_balance(**overrides):
    # 4 feasible q at 2 trials each: 8 trials on 78x78 matrices
    base = dict(k=6, budget_factor=9.0, tail_factor=12.0, oversample_factor=1.1,
                gap=1.3, trials=2, seed=5)
    base.update(overrides)
    return BalanceConfig(**base)


class TestBalanceSweep:
    def test_phi_only_table(self):
        cfg = tiny_balance(gap=1.2, trials=0)
        rows = balance_sweep(cfg)
        assert len(rows) == len(feasible_powers(cfg))
        assert all(r["trial"] == -1 and np.isnan(r["largest_sine"]) for r in rows)

    def test_trials_record_realized_angles(self):
        cfg = tiny_balance()
        rows = balance_sweep(cfg)
        qs = feasible_powers(cfg)
        assert len(rows) == 2 * len(qs)
        assert all(0.0 <= r["largest_sine"] <= 1.0 for r in rows)
        panel = balance_panel(rows)
        assert any(s.label == "budget curve (model)" for s in panel.series)

    def test_trials_match_rsvd_of_the_planted_matrix(self):
        # the oracle plants a = U Sigma V^T, runs rsvd on a and measures
        # against U_k; the sweep reads the sine off sv(y_1 pinv(y_2)) for
        # y = V^T omega.
        # A stream that skipped the left draw would plant another V and miss
        # by far more than rounding.
        for gap in (1.3, 1.01):
            cfg = tiny_balance(gap=gap)
            spec = gen_step_spectrum(cfg.k, cfg.tail_factor, cfg.gap)
            rows = {(r["q"], r["trial"]): r for r in balance_sweep(cfg)}
            assert feasible_powers(cfg) == [0, 1, 2, 3]
            for q in feasible_powers(cfg):
                for trial in range(cfg.trials):
                    a, planted = gen_gaussian_decay(cfg.size, cfg.size, spec,
                                                    cfg.seed + 100_000 * (q + 1) + trial)
                    row = rows[q, trial]
                    out = rsvd(a, row["l"], q, cfg.seed + 200_000 * (q + 1) + trial)
                    sine = canonical_sines(out.u, planted.u[:, :cfg.k])[-1]
                    assert row["largest_sine"] == pytest.approx(sine, rel=1e-12, abs=0)

    def test_huge_gap_gives_vanishing_sines_without_warnings(self):
        # gap^(2q+1) overflows from q=3 on; the sines flush to 0 quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = balance_sweep(tiny_balance(gap=1e60))
        assert all(0.0 <= r["largest_sine"] <= 1.0 for r in rows)
        assert all(r["largest_sine"] < 1e-50 for r in rows if r["q"] == 0)

    def test_parallel_execution_gives_identical_rows(self, monkeypatch):
        use_workers(monkeypatch, 1)
        rows = balance_sweep(tiny_balance())
        assert len(rows) == 8
        for workers in (2, 3):
            use_workers(monkeypatch, workers)
            assert balance_sweep(tiny_balance()) == rows

    def test_pool_leaves_no_worker_processes(self, monkeypatch):
        use_workers(monkeypatch, 2)
        balance_sweep(tiny_balance())
        assert_no_child_left()

    @pytest.mark.usefixtures("forbid_fork")
    @pytest.mark.parametrize("workers, overrides", [
        (1, {}),
        # one feasible q (budget/oversample^2 = 3/1.21 < 3) and one trial
        (3, {"k": 2, "budget_factor": 3.0, "trials": 1})])
    def test_single_worker_starts_no_process(self, monkeypatch, workers, overrides):
        use_workers(monkeypatch, workers)
        cfg = tiny_balance(**overrides)
        assert len(balance_sweep(cfg)) == len(feasible_powers(cfg)) * cfg.trials

    def test_one_process_without_fork_start_method(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert len(balance_sweep(tiny_balance())) == 8


class TestEmission:
    def test_empty_table_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_golden_bytes(self, tmp_path):
        rows = [Row("m", "left", 2, 4, 0, 1, 1, "true_angle", "true", 0.25, "ok"),
                Row("m", "left", 2, 4, 0, 1, 2, "true_angle", "true",
                    1.0 / 3.0, "ok")]
        path = tmp_path / "golden.csv"
        emit_csv(rows, path)
        expect = (CSV_HEADER + "\n"
                  "m,left,2,4,0,1,1,true_angle,true,0.25,ok\n"
                  "m,left,2,4,0,1,2,true_angle,true,0.33333333333333331,ok\n")
        assert path.read_text() == expect
        # order-independent: reversed input produces identical bytes
        emit_csv(rows[::-1], path)
        assert path.read_text() == expect

    @staticmethod
    def former_emit_csv(rows, path):
        """The writer as it stood before Row became a NamedTuple: a sort
        key and one f-string of attribute lookups, kept as the oracle."""
        rows = sorted(rows, key=lambda r: (r.matrix, r.side, r.k, r.l, r.q, r.seed,
                                           r.i, r.kind, r.spectrum_source))
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("matrix,side,k,l,q,seed,i,kind,spectrum_source,value,status\n")
            for r in rows:
                fh.write(f"{r.matrix},{r.side},{r.k},{r.l},{r.q},{r.seed},{r.i},"
                         f"{r.kind},{r.spectrum_source},{r.value:.17g},{r.status}\n")

    def test_header_is_the_field_order(self):
        assert CSV_HEADER == ",".join(Row._fields)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), keys=st.lists(
        st.tuples(st.sampled_from(["m", "snn_a1", "gauss_slower"]),
                  st.sampled_from(["left", "right"]), st.integers(1, 60),
                  st.integers(2, 300), st.integers(0, 40), st.integers(0, 2**40),
                  st.integers(1, 60), st.sampled_from(["true_angle", "estimate", *GAP_KINDS]),
                  st.sampled_from(["true", "padded"])),
        max_size=40, unique=True))
    def test_writes_the_former_writers_bytes(self, tmp_path_factory, data, keys):
        values = st.one_of(st.floats(), st.sampled_from(
            [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072009e-308]))
        statuses = st.sampled_from(["ok", "trivial_bound", TailTooShort.status,
                                    GapViolated.status, WeightsOverflow.status])
        rows = [Row(*key, data.draw(values), data.draw(statuses)) for key in keys]
        rows = data.draw(st.permutations(rows))
        path = tmp_path_factory.mktemp("csv")
        emit_csv(rows, path / "new.csv")
        self.former_emit_csv(rows, path / "old.csv")
        assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()

    @staticmethod
    def former_emit_balance_csv(rows, path):
        """The balance writer as it stood before it took one %-format line:
        one formatted cell at a time, kept as the oracle."""
        def cell(v):
            return f"{v:.17g}" if isinstance(v, float) else str(v)

        cols = ("gap", "k", "q", "l", "phi", "trial", "largest_sine")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(cell(row[c]) for c in cols) + "\n")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_balance_writer_writes_the_former_writers_bytes(self, tmp_path_factory, data):
        floats = st.one_of(st.floats(), st.sampled_from(
            [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072009e-308]))
        counts = st.integers(0, 2**40)
        rows = data.draw(st.lists(st.fixed_dictionaries({
            "gap": floats, "k": counts, "q": counts, "l": counts, "phi": floats,
            "trial": st.integers(-1, 2**40), "largest_sine": floats}), max_size=30))
        # the phi-only rows of trials=0 carry trial -1 and a NaN sine
        rows += balance_sweep(tiny_balance(trials=0))
        rows = data.draw(st.permutations(rows))
        path = tmp_path_factory.mktemp("balance_csv")
        emit_balance_csv(rows, path / "new.csv")
        self.former_emit_balance_csv(rows, path / "old.csv")
        assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()

    def test_svg_is_wellformed_and_deterministic(self, tmp_path):
        panel = Panel("demo", "x", "y", [
            Series("a", "#ff0000", False, [1.0, 2.0, 3.0], [0.5, 0.1, 0.02]),
            Series("b", "#0000ff", True, [1.0, 2.0, 3.0], [0.9, 0.7, 0.6]),
        ])
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(panel, p1)
        emit_svg(panel, p2)
        assert p1.read_bytes() == p2.read_bytes()
        root = ET.parse(p1).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_experiment_panels_cover_grid(self):
        rows = run_experiment(tiny_config(grid=[(5, 8, 0)], n_seeds=1))
        panels = list(experiment_panels(rows))
        assert len(panels) == 2  # left and right
        for panel, fname in panels:
            assert fname.endswith(".svg")
            assert any(s.label == "true_angle" for s in panel.series)

    def test_panel_without_finite_values_names_the_statuses(self, tmp_path):
        # at gap 1e13 the sketch collapses already at q=0, on every seed
        rows = run_experiment(ExperimentConfig(**contract_example(step_40(1e13), [(2, 4, 0)])))
        panels = list(experiment_panels(rows))
        assert [fname for _, fname in panels] == ["gaussian_decay_k2_l4_left_q0.svg",
                                                  "gaussian_decay_k2_l4_right_q0.svg"]
        for panel, fname in panels:
            assert panel.title.endswith(" subspace (no finite values: sketch_collapsed)")
            emit_svg(panel, tmp_path / fname)
            assert "no finite values: sketch_collapsed" in (tmp_path / fname).read_text()
