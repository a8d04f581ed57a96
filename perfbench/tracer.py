"""Per-layer tracing of the rsvdangles CLI, installed from outside the package.

Run as a script, this file is the traced child of the benchmark:

    python3 perfbench/tracer.py OUT.json JOBS -- <rsvdangles CLI arguments>

It times ``import rsvdangles.cli``, replaces every module-level reference
to each function in ``TRACED`` (and ``numpy.linalg.svd``/``qr``) with a
recording wrapper, runs ``rsvdangles.cli.main`` on the given arguments and
writes the per-layer metrics to OUT.json. No file of the package changes.

A span is recorded per wrapped call: name, thread, start, end and self
time. A span's children are the spans opened on the same thread while it
was open; its self time is its duration minus theirs, so it is computed per
thread and never reduced by spans that overlap it on other threads.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

# (module, function) pairs wrapped at every module-level reference inside
# the package: the public functions each module calls across a layer
# boundary. mmio is deliberately absent (no workload reads or writes
# MatrixMarket files).
TRACED = (
    ("harness", "build_matrix"),
    ("harness", "run_experiment"),
    ("harness", "balance_sweep"),
    ("harness", "experiment_panels"),
    ("harness", "emit_csv"),
    ("harness", "emit_svg"),
    ("harness", "emit_balance_csv"),
    ("matgen", "gen_gaussian_decay"),
    ("rsvd", "rsvd"),
    ("rsvd", "gaussian_sketch"),
    ("angles", "canonical_sines"),
    ("prior_bounds", "space_agnostic_upper"),
    ("prior_bounds", "space_agnostic_lower"),
    ("prior_bounds", "subspace_aware_upper"),
    ("estimator", "unbiased_estimate"),
    ("posterior_bounds", "residual_spectrum"),
    ("posterior_bounds", "residual_blocks"),
    ("posterior_bounds", "residual_ratio_bounds"),
    ("posterior_bounds", "gap_bounds"),
    ("linalg", "ortho"),
    ("linalg", "svd_full"),
)
SPAN_FIELDS = ("calls", "total_s", "self_s", "errors")
STATUSES = ("ok", "gap_violated", "tail_short", "trivial_bound")
COUNTERS = (
    ("estimator.trials", "count"),
    ("estimator.flops_nominal", "flop"),
    ("harness.bytes_written", "bytes"),
    *((f"harness.rows.{s}", "count") for s in STATUSES),
    ("linalg.lapack_svd.calls", "count"),
    ("linalg.lapack_svd.flops", "flop"),
    ("linalg.lapack_qr.calls", "count"),
    ("linalg.lapack_qr.flops", "flop"),
)
EMITTERS = ("harness.emit_csv", "harness.emit_svg", "harness.emit_balance_csv")


# --- computed LAPACK flop counts ---------------------------------------------
# Counts follow Golub & Van Loan (Matrix Computations, 4th ed., Fig. 8.6.1)
# for the SVD and LAPACK Working Note 41 for xGEQRF/xORGQR. They are computed
# from call shapes, not measured.

def svd_flops(m: int, n: int, compute_uv: bool = True,
              full_matrices: bool = True) -> int:
    big, small = max(m, n), min(m, n)
    if not compute_uv:
        f = 4 * big * small**2 - 4 * small**3 / 3
    elif full_matrices:
        f = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3
    else:
        f = 14 * big * small**2 + 8 * small**3
    return int(round(f))


def _householder(m: int, n: int, k: int) -> float:
    # xGEQRF on m-by-n (k = min(m, n)) and xORGQR forming n columns from k
    # reflectors share this count.
    return 4 * m * n * k - 2 * (m + n) * k**2 + 4 * k**3 / 3


def qr_flops(m: int, n: int, mode: str = "reduced") -> int:
    k = min(m, n)
    f = _householder(m, n, k)
    if mode in ("reduced", "complete"):
        f += _householder(m, k if mode == "reduced" else m, k)
    return int(round(f))


def _batch_shape(shape):
    batch = 1
    for d in shape[:-2]:
        batch *= int(d)
    return batch, int(shape[-2]), int(shape[-1])


# --- spans -------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    name: str
    thread: int
    start: float
    end: float
    self_s: float   # duration minus the durations of its children
    top_level: bool  # no enclosing span on the same thread


class Tracer:
    """Collects spans, call and error counts, and named counters in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, counter: str, amount) -> None:
        with self._lock:
            self.counters[counter] += amount

    def span(self, name: str):
        return _SpanContext(self, name)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """Recording wrapper for fn; after(args, kwargs, result) runs on success.

        A generator function gets one call per invocation and one span per
        step, so time spent producing items is attributed to it.
        """
        is_gen = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[name] += 1
            if is_gen:
                return self._traced_steps(name, fn(*args, **kwargs))
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _traced_steps(self, name, gen):
        while True:
            with self.span(name):
                try:
                    item = next(gen)
                except StopIteration:
                    return
            yield item


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name
        self.child_s = 0.0

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.start = self.tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = self.tracer.clock()
        t = self.tracer
        t._stack().pop()
        duration = end - self.start
        if self.parent is not None:
            self.parent.child_s += duration
        with t._lock:
            t.spans.append(Span(self.name, threading.get_ident(), self.start, end,
                                duration - self.child_s, self.parent is None))
            if exc_type is not None:
                t.errors[self.name] += 1
        return False


def summarize(tracer: Tracer, jobs: int, main_thread: int) -> dict:
    """Per-layer metrics: per traced function calls/total_s/self_s/errors,
    the named counters, and the pool's busy fraction.

    busy_frac is the time covered by top-level spans on worker threads (any
    thread but ``main_thread``) divided by jobs times the wall time of
    ``run_experiment``; it is 0 when run_experiment did not run.
    """
    total: Counter = Counter()
    own: Counter = Counter()
    worker_busy = 0.0
    for s in tracer.spans:
        total[s.name] += s.end - s.start
        own[s.name] += s.self_s
        if s.thread != main_thread and s.top_level:
            worker_busy += s.end - s.start
    metrics = {}
    for module, func in TRACED:
        name = f"{module}.{func}"
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.total_s"] = total[name]
        metrics[f"{name}.self_s"] = own[name]
        metrics[f"{name}.errors"] = tracer.errors[name]
    for counter, _unit in COUNTERS:
        metrics[counter] = tracer.counters[counter]
    sweep_wall = total["harness.run_experiment"]
    metrics["harness.pool.busy_frac"] = (
        worker_busy / (jobs * sweep_wall) if sweep_wall > 0 else 0.0)
    return metrics


# --- installation into the package -------------------------------------------

def install(tracer: Tracer) -> None:
    """Wrap every traced function at each module-level reference in rsvdangles,
    and numpy.linalg.svd/qr for kernel counts."""
    import numpy

    from rsvdangles.estimator import estimate_cost_model, unbiased_estimate

    estimate_signature = inspect.signature(unbiased_estimate)

    def after_estimate(args, kwargs, report):
        a = estimate_signature.bind(*args, **kwargs).arguments
        tracer.add("estimator.trials", report.n_trials)
        tracer.add("estimator.flops_nominal", estimate_cost_model(
            a["spectrum"].declared_rank, a["l"], report.n_trials))

    def after_sweep(args, kwargs, rows):
        for status, n in Counter(r.status for r in rows).items():
            tracer.add(f"harness.rows.{status}", n)

    def after_emit(args, kwargs, _result):
        tracer.add("harness.bytes_written", os.path.getsize(args[1]))

    hooks = {"estimator.unbiased_estimate": after_estimate,
             "harness.run_experiment": after_sweep,
             **{name: after_emit for name in EMITTERS}}
    replacements = {}  # id(original) -> (original, wrapper)
    for module, func in TRACED:
        name = f"{module}.{func}"
        fn = getattr(importlib.import_module(f"rsvdangles.{module}"), func)
        replacements[id(fn)] = (fn, tracer.wrap(name, fn, hooks.get(name)))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "rsvdangles" and not mod_name.startswith("rsvdangles."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])

    svd, qr = numpy.linalg.svd, numpy.linalg.qr

    def counted_svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        batch, m, n = _batch_shape(numpy.shape(a))
        tracer.add("linalg.lapack_svd.calls", batch)
        tracer.add("linalg.lapack_svd.flops",
                   batch * svd_flops(m, n, compute_uv, full_matrices))
        return svd(a, full_matrices, compute_uv, *args, **kwargs)

    def counted_qr(a, mode="reduced"):
        batch, m, n = _batch_shape(numpy.shape(a))
        tracer.add("linalg.lapack_qr.calls", batch)
        tracer.add("linalg.lapack_qr.flops", batch * qr_flops(m, n, mode))
        return qr(a, mode)

    numpy.linalg.svd, numpy.linalg.qr = counted_svd, counted_qr


def main(argv: list[str]) -> int:
    out_path, jobs, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json JOBS -- <cli arguments>")
    t0 = time.perf_counter()
    import rsvdangles.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    rc = rsvdangles.cli.main(cli_args)
    metrics = summarize(tracer, int(jobs), threading.get_ident())
    metrics["cli.import_s"] = import_s
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
