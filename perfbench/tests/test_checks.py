import contextlib
import io
import json
import math

import pytest

import checks
from rsvdangles.cli import main as cli_main
from rsvdangles.harness import BalanceConfig, fixed_budget_bound

SWEEP_CFG = {
    "schema_version": 1,
    "matrix": {"generator": "gaussian_decay", "m": 60, "n": 60,
               "spectrum": {"kind": "slower", "r": 60, "r1": 5},
               "seed": 7, "name": "tiny"},
    "grid": [{"k": 5, "l": l, "q": q} for l in (10, 20) for q in (0, 1)],
    "sides": ["left", "right"], "estimator_trials": 2, "n_seeds": 2,
    "base_seed": 3,
}
BALANCE = {"k": 4, "gap": 1.5, "trials": 2, "budget": 8.0,
           "size_factor": 10.0, "oversample": 1.05}


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("sweep")
    (d / "cfg.json").write_text(json.dumps(SWEEP_CFG))
    assert cli_main(["run", str(d / "cfg.json"), "--outdir", str(d / "out")]) == 0
    return (d / "out" / "tiny_bounds.csv").read_text()


@pytest.fixture(scope="module")
def estimate_stdout(tmp_path_factory):
    d = tmp_path_factory.mktemp("estimate")
    (d / "spec.txt").write_text("".join(f"{v!r}\n" for v in [2.0] * 4 + [1.0] * 40))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(["estimate", str(d / "spec.txt"), "--k", "4", "--l", "8",
                         "--trials", "5", "--seed", "11"]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def balance_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("balance")
    p = BALANCE
    assert cli_main(["balance", "--k", str(p["k"]), "--gap", str(p["gap"]),
                     "--trials", str(p["trials"]), "--budget", str(p["budget"]),
                     "--size-factor", str(p["size_factor"]),
                     "--oversample", str(p["oversample"]), "--seed", "5",
                     "--outdir", str(d)]) == 0
    return (d / f"balance_k{p['k']}_gap{p['gap']:g}.csv").read_text()


def _edit(text, pick, change):
    """Apply change to the first data line for which pick(fields) holds."""
    lines = text.splitlines()
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if pick(fields):
            new = change(fields)
            if new is None:
                del lines[n]
            else:
                lines[n] = ",".join(new)
            return "\n".join(lines) + "\n"
    raise AssertionError("no line matched")


def test_sweep_check_accepts_genuine_output(sweep_csv):
    assert checks.check_sweep(sweep_csv, SWEEP_CFG) == []


def test_sweep_check_rejects_certificate_below_its_sine(sweep_csv):
    rows, _ = checks.parse_sweep_csv(sweep_csv)

    def pick(f):
        sine = rows.get((f[1], int(f[2]), int(f[3]), int(f[4]), int(f[5]),
                         int(f[6]), "true_angle", "true"))
        return (f[7] == "residual_ratio" and f[8] == "true" and f[10] == "ok"
                and sine[0] > 0)

    def lower(f):
        sine = rows[(f[1], int(f[2]), int(f[3]), int(f[4]), int(f[5]),
                     int(f[6]), "true_angle", "true")][0]
        return f[:9] + [repr(sine * 0.5), "ok"]

    problems = checks.check_sweep(_edit(sweep_csv, pick, lower), SWEEP_CFG)
    assert any("below the true_angle sine" in p for p in problems)


@pytest.mark.parametrize("new_status", ["gap_violated", "tail_short", "trivial_bound"])
def test_sweep_check_rejects_flipped_status(sweep_csv, new_status):
    def pick(f):
        return f[7] == "residual_ratio" and f[10] == "ok" and float(f[9]) < 1.0

    tampered = _edit(sweep_csv, pick, lambda f: f[:10] + [new_status])
    assert checks.check_sweep(tampered, SWEEP_CFG)


def test_sweep_check_rejects_missing_row(sweep_csv):
    tampered = _edit(sweep_csv, lambda f: f[7] == "estimate", lambda f: None)
    problems = checks.check_sweep(tampered, SWEEP_CFG)
    assert any("rows missing" in p for p in problems)


def test_sweep_check_rejects_decreasing_sines(sweep_csv):
    tampered = _edit(sweep_csv, lambda f: f[7] == "true_angle" and f[6] == "2",
                     lambda f: f[:9] + ["0", "ok"])
    assert any("sine decreases" in p for p in checks.check_sweep(tampered, SWEEP_CFG))


def test_sweep_reference_tolerates_rounding_but_not_changes(sweep_csv):
    ref = checks.sweep_reference(sweep_csv)
    assert checks.compare_reference(ref, ref) == []

    def scale(factor):
        def change(f):
            return f[:9] + [repr(float(f[9]) * factor), f[10]]
        return _edit(sweep_csv, lambda f: f[7] == "estimate" and f[6] == "1", change)

    assert checks.compare_reference(checks.sweep_reference(scale(1 + 1e-11)), ref) == []
    assert checks.compare_reference(checks.sweep_reference(scale(1 + 1e-6)), ref)
    flipped = _edit(sweep_csv, lambda f: f[10] == "trivial_bound",
                    lambda f: f[:10] + ["ok"])
    assert checks.check_sweep(flipped, SWEEP_CFG) == []  # consistent, so only
    assert checks.compare_reference(checks.sweep_reference(flipped), ref)  # the digest sees it


def test_estimate_check(estimate_stdout):
    assert checks.check_estimate(estimate_stdout, 4, 44) == []
    assert checks.check_estimate(estimate_stdout, 4, 45)  # wrong declared rank
    lines = estimate_stdout.splitlines()
    missing = "\n".join(lines[:-1]) + "\n"
    assert checks.check_estimate(missing, 4, 44)
    idx = lines.index("index mean min max")
    first, second = lines[idx + 1].split(), lines[idx + 2].split()
    swapped = lines[:idx + 1] + [" ".join([first[0], second[1], *first[2:]]),
                                 " ".join([second[0], first[1], *second[2:]])] + lines[idx + 3:]
    assert any("below the previous" in p or "outside" in p
               for p in checks.check_estimate("\n".join(swapped), 4, 44))


def test_balance_check(balance_csv):
    assert checks.check_balance(balance_csv, BALANCE) == []
    bad_phi = _edit(balance_csv, lambda f: f[2] == "1",
                    lambda f: f[:4] + [repr(float(f[4]) * (1 + 1e-9))] + f[5:])
    assert any("budget curve" in p for p in checks.check_balance(bad_phi, BALANCE))
    bad_sine = _edit(balance_csv, lambda f: True, lambda f: f[:6] + ["1.5"])
    assert any("outside [0, 1]" in p for p in checks.check_balance(bad_sine, BALANCE))
    missing = _edit(balance_csv, lambda f: f[5] == "1", lambda f: None)
    assert checks.check_balance(missing, BALANCE)


@pytest.mark.parametrize("gap", [1.0, 1.1, 3.0, 40.0])
def test_budget_curve_matches_the_package(gap):
    p = {**BALANCE, "gap": gap, "budget": 16.0, "size_factor": 32.0}
    cfg = BalanceConfig(k=4, budget_factor=16.0, tail_factor=32.0,
                        oversample_factor=1.05, gap=gap)
    for q in checks.balance_powers(p):
        assert math.isclose(checks.budget_curve(q, p), fixed_budget_bound(q, cfg),
                            rel_tol=1e-13)
