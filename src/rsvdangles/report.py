"""The tables both experiments write: the run's rows and kind table, the CSV
writers of the run and of the balance study, and their SVG panels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .prior_bounds import BoundFailure, BoundReport

STATUS_OK = "ok"
STATUS_TRIVIAL = "trivial_bound"


class Row(NamedTuple):
    """One CSV row. Its field order is the column order and the sort order;
    the fields before ``value`` are unique within a table."""

    matrix: str
    side: str
    k: int
    l: int
    q: int
    seed: int
    i: int
    kind: str
    spectrum_source: str
    value: float
    status: str


CSV_HEADER = ",".join(Row._fields)
# one line per Row; %.17g writes a float as f"{value:.17g}" does
_CSV_LINE = ",".join("%.17g" if f == "value" else "%s" for f in Row._fields) + "\n"


GAP_KINDS = ("gap_norm_rank_l", "gap_norm_rank_k",
             "gap_anglewise_rank_l", "gap_anglewise_rank_k")

_BOTH = ("true", "padded")
# every kind a run writes: its colour in the panels and the spectrum sources
# it is written for; subspace_aware_upper only where the factors are known
_KINDS = {
    "true_angle": ("#000000", ("true",)),
    "true_angle_rank_k": ("#6e6e6e", ("true",)),
    "space_agnostic_upper": ("#d62728", _BOTH),
    "space_agnostic_lower": ("#1f77b4", _BOTH),
    "estimate": ("#17becf", _BOTH),
    "subspace_aware_upper": ("#c51b8a", _BOTH),
    "residual_ratio": ("#ff7f0e", _BOTH),
    "gap_norm_rank_l": ("#2ca02c", _BOTH),
    "gap_norm_rank_k": ("#1f6f1f", _BOTH),
    "gap_anglewise_rank_l": ("#74c476", _BOTH),
    "gap_anglewise_rank_k": ("#0b4d0b", _BOTH),
}


def _rows(ctx: tuple, kind: str, outcome) -> list[Row]:
    """One row per angle index of a kind's outcome in a run: an array of
    true sines, a BoundReport (the indices its mask flags get the
    trivial-bound status), or a BoundFailure (k NaN rows of its status)."""
    matrix, side, k, l, q, seed, source = ctx
    values, trivial, status = outcome, None, STATUS_OK
    if isinstance(outcome, BoundFailure):
        values, status = np.full(k, np.nan), outcome.status
    elif isinstance(outcome, BoundReport):
        values, trivial = outcome.values, outcome.trivial
    return [Row(matrix, side, k, l, q, seed, i, kind, source, v,
                STATUS_TRIVIAL if trivial is not None and trivial[i - 1] else status)
            for i, v in enumerate(values.tolist(), start=1)]


def emit_csv(rows: list[Row], path) -> None:
    """Write rows in the canonical sort order; bytes are a pure function of
    the table."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in sorted(rows):
            fh.write(_CSV_LINE % r)



def emit_balance_csv(rows: list[dict], path) -> None:
    # one %-format per row, as in emit_csv; %.17g writes a float as f"{v:.17g}" does
    line = "%(gap).17g,%(k)s,%(q)s,%(l)s,%(phi).17g,%(trial)s,%(largest_sine).17g\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("gap,k,q,l,phi,trial,largest_sine\n")
        for row in rows:
            fh.write(line % row)


@dataclass(frozen=True)
class Series:
    label: str
    color: str
    dashed: bool
    xs: list[float]
    ys: list[float]


@dataclass
class Panel:
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)


def experiment_panels(rows: list[Row]):
    """Group experiment rows into one panel per (matrix, k, l, side, q). A
    panel with no finite value names its rows' statuses in its title."""
    # panel key -> (kind, source) -> angle index -> finite values in row order
    groups: dict[tuple, dict[tuple, dict[int, list[float]]]] = {}
    statuses: dict[tuple, set[str]] = {}
    for r in rows:
        key = (r.matrix, r.k, r.l, r.side, r.q)
        pts = groups.setdefault(key, {}).setdefault((r.kind, r.spectrum_source), {})
        if math.isfinite(r.value):
            pts.setdefault(r.i, []).append(r.value)
        else:
            statuses.setdefault(key, set()).add(r.status)
    for key, combos in sorted(groups.items()):
        matrix, k, l, side, q = key
        series = []
        for (kind, source), pts in sorted(combos.items()):
            if not pts:
                continue
            xs = sorted(pts)
            ys = _means([pts[x] for x in xs])
            label = kind if source == "true" else f"{kind} (padded)"
            series.append(Series(label, _KINDS.get(kind, ("#555555",))[0],
                                 source == "padded", [float(x) for x in xs], ys))
        title = f"{matrix}: k={k}, l={l}, q={q}, {side} subspace"
        if not series:
            title += f" (no finite values: {', '.join(sorted(statuses[key]))})"
        panel = Panel(title, "angle index", "sine", series)
        yield panel, f"{matrix}_k{k}_l{l}_{side}_q{q}.svg"


def _means(lists: list[list[float]]) -> list[float]:
    """``[float(np.mean(v)) for v in lists]``, bit for bit, with one numpy
    call per distinct list length: a mean over the last axis of a 2-d array
    sums each row as ``np.mean`` sums it alone (pairwise from 8 values on)."""
    by_len: dict[int, list[int]] = {}
    for pos, v in enumerate(lists):
        by_len.setdefault(len(v), []).append(pos)
    means = [0.0] * len(lists)
    for positions in by_len.values():
        for pos, mu in zip(positions,
                           np.mean([lists[p] for p in positions], axis=1).tolist()):
            means[pos] = mu
    return means


_SVG_W, _SVG_H = 860, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 240, 40, 50
_FLOOR = 1e-16


def emit_svg(panel: Panel, path) -> None:
    """Standalone SVG: one polyline per series on a log-scale y axis."""
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B
    xs_all = [x for s in panel.series for x in s.xs]
    ys_all = [max(y, _FLOOR) for s in panel.series for y in s.ys if np.isfinite(y)]
    x_lo, x_hi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = math.floor(math.log10(min(ys_all))) if ys_all else -2
    y_hi = math.ceil(math.log10(max(ys_all))) if ys_all else 0
    if y_hi == y_lo:
        y_hi += 1

    def px(x):
        return _MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        ly = math.log10(max(y, _FLOOR))
        return _MARGIN_T + plot_h * (y_hi - ly) / (y_hi - y_lo)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_MARGIN_L}" y="24" font-family="sans-serif" font-size="15">'
        f'{_xml_escape(panel.title)}</text>',
    ]
    axis = (f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
            f'height="{plot_h}" fill="none" stroke="#333333"/>')
    parts.append(axis)
    for dec in range(y_lo, y_hi + 1):
        y = py(10.0 ** dec)
        parts.append(f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_MARGIN_L + plot_w}" '
                     f'y2="{y:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">1e{dec}</text>')
    n_ticks = min(8, max(2, int(x_hi - x_lo)))
    for t in range(n_ticks + 1):
        x = x_lo + (x_hi - x_lo) * t / n_ticks
        parts.append(f'<text x="{px(x):.2f}" y="{_MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                     f'{x:g}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_SVG_H - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                 f'{_xml_escape(panel.xlabel)}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.2f})">'
                 f'{_xml_escape(panel.ylabel)}</text>')
    legend_y = _MARGIN_T + 10
    for s in panel.series:
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys)
                       if np.isfinite(y))
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                         f'stroke-width="1.6"{dash}/>')
        lx = _MARGIN_L + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 26}" y2="{legend_y}" '
                     f'stroke="{s.color}" stroke-width="2"{dash}/>')
        parts.append(f'<text x="{lx + 32}" y="{legend_y + 4}" font-family="sans-serif" '
                     f'font-size="11">{_xml_escape(s.label)}</text>')
        legend_y += 18
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _xml_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
