import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rsvdangles.harness import (CSV_HEADER, BalanceConfig, ExperimentConfig,
                                Panel, Row, Series, balance_panel,
                                balance_sweep, emit_csv, emit_svg,
                                experiment_panels, feasible_powers,
                                fixed_budget_bound, pad_spectrum, read_csv,
                                run_experiment)
from rsvdangles.linalg import Spectrum
from rsvdangles.matgen import gen_step_spectrum
from rsvdangles.prior_bounds import DistortionParams, space_agnostic_upper

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
            t = space_agnostic_upper(true, 3, 6, q, "left", DistortionParams(1., 1.))
            p = space_agnostic_upper(padded, 3, 6, q, "left", DistortionParams(1., 1.))
            assert (p.values >= t.values).all()


@pytest.fixture(scope="module")
def rows():
    return run_experiment(tiny_config())


class TestRunExperiment:
    def test_row_count_matches_counting_formula(self, rows):
        # combos per side: 2 truth kinds (true source only) + 9 value kinds
        # against 2 spectrum sources each
        combos = 2 + 9 * 2
        expect = len(tiny_config().grid) * 2 * 2 * 5 * combos
        assert len(rows) == expect

    def test_statuses_come_from_fixed_vocabulary(self, rows):
        assert {r.status for r in rows} <= {"ok", "gap_violated", "tail_short",
                                            "trivial_bound"}
        assert all(r.spectrum_source in ("true", "padded") for r in rows)

    def test_rerun_reproduces_identical_csv_bytes(self, rows, tmp_path):
        rows2 = run_experiment(tiny_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, p1)
        emit_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_execution_gives_identical_rows(self, rows, tmp_path):
        rows_jobs = run_experiment(tiny_config(jobs=3))
        p1, p2 = tmp_path / "serial.csv", tmp_path / "jobs.csv"
        emit_csv(rows, p1)
        emit_csv(rows_jobs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_errors_recorded_not_raised(self, rows):
        # 40x40 at l = rank/5 keeps gaps healthy, so force a tail_short case:
        # estimator needs tail >= l
        cfg = tiny_config(grid=[(5, 36, 0)])
        out = run_experiment(cfg)
        est = [r for r in out if r.kind == "estimate"]
        assert est and all(r.status == "tail_short" for r in est)
        assert all(np.isnan(r.value) for r in est)

    def test_full_width_run_degenerates_cleanly(self):
        cfg = tiny_config(grid=[(5, 40, 0)], n_seeds=1)
        out = run_experiment(cfg)
        truth = [r.value for r in out if r.kind == "true_angle"]
        assert max(truth) <= 1e-8
        ratio = [r.value for r in out if r.kind == "residual_ratio"
                 and r.spectrum_source == "true"]
        assert max(ratio) <= 1e-8

    def test_outputs_written(self, tmp_path):
        cfg = tiny_config(grid=[(5, 8, 0)], n_seeds=1, outdir=str(tmp_path / "out"))
        run_experiment(cfg)
        csv = tmp_path / "out" / "tiny_bounds.csv"
        assert csv.exists()
        svgs = list((tmp_path / "out").glob("*.svg"))
        assert len(svgs) == 2  # one per side
        parsed = read_csv(csv)
        assert parsed == sorted(parsed, key=lambda r: (
            r.matrix, r.side, r.k, r.l, r.q, r.seed, r.i, r.kind, r.spectrum_source))


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
        ("n_seeds", "2", "n_seeds"), ("jobs", True, "jobs"),
        ("base_seed", 1.5, "base_seed"), ("upper_c", "1", "upper_c"),
        ("sides", "left", "sides"), ("outdir", 3, "outdir"),
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

    def test_budget_exceeded_raises(self):
        cfg = BalanceConfig(gap=1.1, **self.CFG)
        with pytest.raises(ValueError, match="budget exceeded"):
            fixed_budget_bound(max(feasible_powers(cfg)) + 1, cfg)

    def test_matches_spectrum_bound_on_step_spectrum(self):
        # same value through the generic bound evaluated at l = budget/(2q+1)
        k, alpha, beta, gamma, gap = 10, 16.0, 32.0, 1.05, 1.3
        cfg = BalanceConfig(k=k, budget_factor=alpha, tail_factor=beta,
                            oversample_factor=gamma, gap=gap, trials=0)
        step = gen_step_spectrum(k, beta, gap)
        for q in (0, 2):  # powers where budget/(2q+1) is integral
            l = int(alpha * k) // (2 * q + 1)
            rep = space_agnostic_upper(step, k, l, q, "left",
                                       DistortionParams(gamma, gamma))
            assert fixed_budget_bound(q, cfg) == pytest.approx(
                rep.values[0], abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="oversample"):
            BalanceConfig(k=10, budget_factor=16.0, tail_factor=32.0,
                          oversample_factor=1.0, gap=1.1)
        with pytest.raises(ValueError, match="feasible"):
            BalanceConfig(k=10, budget_factor=3.0, tail_factor=32.0,
                          oversample_factor=2.0, gap=1.1)
        with pytest.raises(ValueError, match="matrix size"):
            BalanceConfig(k=10, budget_factor=40.0, tail_factor=32.0,
                          oversample_factor=1.05, gap=1.1)


class TestBalanceSweep:
    def test_phi_only_table(self):
        cfg = BalanceConfig(k=6, budget_factor=9.0, tail_factor=12.0,
                            oversample_factor=1.1, gap=1.2, trials=0)
        rows = balance_sweep(cfg)
        assert len(rows) == len(feasible_powers(cfg))
        assert all(r["trial"] == -1 and np.isnan(r["largest_sine"]) for r in rows)

    def test_trials_record_realized_angles(self):
        cfg = BalanceConfig(k=6, budget_factor=9.0, tail_factor=12.0,
                            oversample_factor=1.1, gap=1.3, trials=2, seed=5)
        rows = balance_sweep(cfg)
        qs = feasible_powers(cfg)
        assert len(rows) == 2 * len(qs)
        assert all(0.0 <= r["largest_sine"] <= 1.0 for r in rows)
        panel = balance_panel(rows)
        assert any(s.label == "budget curve" for s in panel.series)


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
