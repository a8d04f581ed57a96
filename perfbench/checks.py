"""Output checks for the benchmark workloads.

The CSV bytes of a run change with the BLAS thread count (the largest
relative difference seen is about 1e-11, on ``true_angle*`` rows), so every
check here compares numbers with a tolerance or by an inequality, never by
bytes. Statuses do not change with the thread count and are compared
exactly.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed. The ``*_reference`` functions turn an output into the
committed reference form, and ``compare_reference`` compares an output with
it at ``RTOL``/``ATOL``.
"""

from __future__ import annotations

import hashlib
import math

CSV_HEADER = "matrix,side,k,l,q,seed,i,kind,spectrum_source,value,status"
SINE_KINDS = ("true_angle", "true_angle_rank_k")
GAP_KINDS = ("gap_norm_rank_l", "gap_norm_rank_k",
             "gap_anglewise_rank_l", "gap_anglewise_rank_k")
BOTH_SOURCE_KINDS = ("space_agnostic_upper", "space_agnostic_lower",
                     "subspace_aware_upper", "estimate", "residual_ratio",
                     *GAP_KINDS)
TAIL_KINDS = ("space_agnostic_lower", "estimate", "residual_ratio")
# certificate kind -> the true sine it must dominate on 'ok' rows
CERTIFICATES = {"residual_ratio": "true_angle",
                **{g: "true_angle_rank_k" if g.endswith("rank_k") else "true_angle"
                   for g in GAP_KINDS}}
BALANCE_HEADER = "gap,k,q,l,phi,trial,largest_sine"

# Reference tolerance: |x - ref| <= RTOL * |ref| + ATOL. It is three orders
# of magnitude above the largest difference measured between 1 and 2 BLAS
# threads on the seed-0 references (5.8e-12 relative, sweep), and far below
# any change a bound formula or kernel bug makes.
RTOL = 1e-8
ATOL = 1e-12
MAX_PROBLEMS = 20


def _close(x: float, ref: float) -> bool:
    if math.isnan(ref) or math.isnan(x):
        return math.isnan(ref) and math.isnan(x)
    return abs(x - ref) <= RTOL * abs(ref) + ATOL


# --- sweep ---------------------------------------------------------------------

def parse_sweep_csv(text: str) -> tuple[dict, list[str]]:
    """Rows keyed by (side, k, l, q, seed, i, kind, source) -> (value, status)."""
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != CSV_HEADER:
        return {}, ["sweep CSV header is missing or wrong"]
    rows = {}
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 11:
            problems.append(f"line {n}: {len(parts)} fields")
            continue
        _m, side, k, l, q, seed, i, kind, source, value, status = parts
        key = (side, int(k), int(l), int(q), int(seed), int(i), kind, source)
        if key in rows:
            problems.append(f"line {n}: duplicate row {key}")
        rows[key] = (float(value), status)
    return rows, problems


def expected_sweep_keys(cfg: dict) -> set:
    seeds = range(cfg["base_seed"], cfg["base_seed"] + cfg["n_seeds"])
    keys = set()
    for g in cfg["grid"]:
        k, l, q = g["k"], g["l"], g["q"]
        for seed in seeds:
            for side in cfg["sides"]:
                for i in range(1, k + 1):
                    for kind in SINE_KINDS:
                        keys.add((side, k, l, q, seed, i, kind, "true"))
                    for kind in BOTH_SOURCE_KINDS:
                        for source in ("true", "padded"):
                            keys.add((side, k, l, q, seed, i, kind, source))
    return keys


def _status_problem(kind: str, value: float, status: str) -> str | None:
    if status == "ok":
        if not 0.0 <= value <= 1.0:
            return f"'ok' value {value!r} outside [0, 1]"
    elif status == "trivial_bound":
        if kind in SINE_KINDS or kind == "estimate" or value != 1.0:
            return f"'trivial_bound' on {kind} with value {value!r}"
    elif status == "gap_violated":
        if kind not in GAP_KINDS or not math.isnan(value):
            return f"'gap_violated' on {kind} with value {value!r}"
    elif status == "tail_short":
        if kind not in TAIL_KINDS or not math.isnan(value):
            return f"'tail_short' on {kind} with value {value!r}"
    else:
        return f"unknown status {status!r}"
    return None


def check_sweep(text: str, cfg: dict) -> list[str]:
    """Rows complete with consistent statuses; sines in [0, 1] and
    non-decreasing; every 'ok' posterior certificate on the true spectrum at
    or above the true sine it bounds."""
    rows, problems = parse_sweep_csv(text)
    if not rows:
        return problems
    expected = expected_sweep_keys(cfg)
    missing, extra = expected - rows.keys(), rows.keys() - expected
    if missing:
        problems.append(f"{len(missing)} rows missing, e.g. {min(missing)}")
    if extra:
        problems.append(f"{len(extra)} unexpected rows, e.g. {min(extra)}")
    gap_status: dict = {}
    for key, (value, status) in rows.items():
        side, k, l, q, seed, i, kind, source = key
        bad = _status_problem(kind, value, status)
        if bad:
            problems.append(f"{key}: {bad}")
        if kind in SINE_KINDS and status != "ok":
            problems.append(f"{key}: sine row has status {status!r}")
        if kind in GAP_KINDS:
            gap_status.setdefault((k, l, q, seed, source),
                                  set()).add(status == "gap_violated")
        if kind in SINE_KINDS and i > 1:
            prev = rows.get((side, k, l, q, seed, i - 1, kind, source))
            if prev is not None and prev[0] > value:
                problems.append(f"{key}: sine decreases from {prev[0]!r}")
        sine_kind = CERTIFICATES.get(kind)
        if sine_kind and source == "true" and status == "ok":
            sine = rows.get((side, k, l, q, seed, i, sine_kind, "true"))
            if sine is not None and value < sine[0]:
                problems.append(f"{key}: certificate {value!r} below the "
                                f"{sine_kind} sine {sine[0]!r}")
    for run, flags in gap_status.items():
        if len(flags) > 1:
            problems.append(f"{run}: gap_violated on some gap rows but not all")
    return problems[:MAX_PROBLEMS]


def status_digest(rows: dict) -> str:
    lines = sorted(",".join(map(str, key)) + "," + status
                   for key, (_value, status) in rows.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def sweep_reference(text: str) -> dict:
    """Digest of every (row key, status) plus the values at the first and
    last angle index of every (run, side, kind, source)."""
    rows, _ = parse_sweep_csv(text)
    values = {",".join(map(str, key)): value
              for key, (value, _status) in sorted(rows.items())
              if key[5] in (1, key[1])}
    return {"status_sha256": status_digest(rows), "values": values}


# --- estimate ------------------------------------------------------------------

def parse_estimate(stdout: str) -> tuple[list[tuple[float, float, float]], str]:
    lines = stdout.splitlines()
    try:
        start = lines.index("index mean min max") + 1
    except ValueError:
        return [], ""
    head = lines[start - 2] if start >= 2 else ""
    table = []
    for n, line in enumerate(lines[start:], start=1):
        idx, mean, lo, hi = line.split()
        if int(idx) != n:
            return [], head
        table.append((float(mean), float(lo), float(hi)))
    return table, head


def check_estimate(stdout: str, k: int, rank: int) -> list[str]:
    """k rows of (mean, min, max) with 0 < mean <= 1, min <= mean <= max and
    ascending means, for a spectrum of the given declared rank."""
    table, head = parse_estimate(stdout)
    problems = []
    if f"declared rank {rank}," not in head:
        problems.append(f"header does not report declared rank {rank}: {head!r}")
    if len(table) != k:
        return problems + [f"expected {k} estimate rows, got {len(table)}"]
    prev = 0.0
    for i, (mean, lo, hi) in enumerate(table, start=1):
        if not 0.0 < mean <= 1.0:
            problems.append(f"index {i}: mean {mean!r} outside (0, 1]")
        if not lo * (1 - 1e-12) <= mean <= hi * (1 + 1e-12):
            problems.append(f"index {i}: mean {mean!r} outside [{lo!r}, {hi!r}]")
        if mean < prev:
            problems.append(f"index {i}: mean {mean!r} below the previous {prev!r}")
        prev = mean
    return problems[:MAX_PROBLEMS]


def estimate_reference(stdout: str) -> dict:
    table, _ = parse_estimate(stdout)
    return {"values": {f"{i},{col}": v
                       for i, row in enumerate(table, start=1)
                       for col, v in zip(("mean", "min", "max"), row)}}


# --- balance -------------------------------------------------------------------

def budget_curve(q: int, p: dict) -> float:
    """Fixed-budget bound phi(q), restated from its closed form:
    (1 + coef * gap^(4q+2))^(-1/2), or 1 when coef <= 0."""
    a, b, g = p["budget"], p["size_factor"], p["oversample"]
    passes = 2 * q + 1
    coef = (a - g * math.sqrt(a * passes)) / (b * passes + g * math.sqrt(a * b * passes))
    if coef <= 0.0:
        return 1.0
    t = math.log(coef) + (4 * q + 2) * math.log(p["gap"])
    # log(1 + e^t) without overflow
    return math.exp(-0.5 * (max(t, 0.0) + math.log1p(math.exp(-abs(t)))))


def balance_powers(p: dict) -> list[int]:
    ratio = p["budget"] / p["oversample"] ** 2
    return list(range(int((ratio - 1.0) / 2.0 + 1e-12) + 1))


def parse_balance_csv(text: str) -> list[dict] | None:
    lines = text.splitlines()
    if not lines or lines[0] != BALANCE_HEADER:
        return None
    cols = BALANCE_HEADER.split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[1:]]


def check_balance(text: str, p: dict) -> list[str]:
    """One row per (feasible q, trial) with the expected l, phi equal to the
    budget curve, and largest sines in [0, 1]."""
    rows = parse_balance_csv(text)
    if rows is None:
        return ["balance CSV header is missing or wrong"]
    expected = [(q, t) for q in balance_powers(p) for t in range(p["trials"])]
    got = [(int(r["q"]), int(r["trial"])) for r in rows]
    if got != expected:
        return [f"balance rows {got[:3]}... differ from expected {expected[:3]}..."]
    problems = []
    for r in rows:
        q = int(r["q"])
        l = int(p["budget"] * p["k"] / (2 * q + 1))
        if int(r["k"]) != p["k"] or float(r["gap"]) != p["gap"] or int(r["l"]) != l:
            problems.append(f"q={q}: row parameters {r} differ from k={p['k']}, "
                            f"gap={p['gap']}, l={l}")
        phi, want = float(r["phi"]), budget_curve(q, p)
        if abs(phi - want) > 1e-12 * abs(want):
            problems.append(f"q={q}: phi {phi!r} differs from the budget curve {want!r}")
        sine = float(r["largest_sine"])
        if not 0.0 <= sine <= 1.0:
            problems.append(f"q={q}, trial {r['trial']}: sine {sine!r} outside [0, 1]")
    return problems[:MAX_PROBLEMS]


def balance_reference(text: str) -> dict:
    rows = parse_balance_csv(text) or []
    return {"values": {f"{r['q']},{r['trial']},{col}": float(r[col])
                       for r in rows for col in ("phi", "largest_sine")}}


# --- reference comparison ------------------------------------------------------

def compare_reference(got: dict, ref: dict) -> list[str]:
    """Differences between an output's reference form and the committed one."""
    problems = []
    if got.get("status_sha256") != ref.get("status_sha256"):
        problems.append("statuses differ from the reference")
    gv, rv = got["values"], ref["values"]
    if gv.keys() != rv.keys():
        problems.append(f"reference has {len(rv)} values, output {len(gv)}")
    for key in sorted(gv.keys() & rv.keys()):
        if not _close(gv[key], rv[key]):
            problems.append(f"{key}: {gv[key]!r} differs from the reference "
                            f"{rv[key]!r} beyond rtol={RTOL}, atol={ATOL}")
    return problems[:MAX_PROBLEMS]
