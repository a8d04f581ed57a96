import threading
import time

import pytest

import tracer
from tracer import Tracer, qr_flops, summarize, svd_flops


def _by_name(t):
    out = {}
    for s in t.spans:
        out.setdefault(s.name, []).append(s)
    return out


def test_self_time_is_total_minus_children_per_thread():
    t = Tracer()
    started = threading.Barrier(2, timeout=5)

    def outer():
        with t.span("x"):
            started.wait()
            time.sleep(0.02)
            with t.span("y"):
                time.sleep(0.05)
            with t.span("y"):
                time.sleep(0.01)

    def other():
        with t.span("z"):
            started.wait()
            time.sleep(0.06)

    threads = [threading.Thread(target=outer), threading.Thread(target=other)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)

    spans = _by_name(t)
    (x,), ys, (z,) = spans["x"], spans["y"], spans["z"]
    assert x.thread != z.thread
    # x and z overlap in time, yet neither reduces the other's self time
    assert max(x.start, z.start) < min(x.end, z.end)
    children = sum(y.end - y.start for y in ys)
    assert x.self_s == pytest.approx((x.end - x.start) - children, abs=1e-12)
    assert z.self_s == z.end - z.start
    assert all(y.self_s == y.end - y.start for y in ys)
    assert x.top_level and z.top_level and not any(y.top_level for y in ys)


def test_summarize_busy_fraction_counts_worker_top_level_spans():
    clock = iter([0.0, 10.0,           # worker span: 10 s
                  0.0, 1.0, 2.0, 4.0,  # worker span of 4 s with a 1 s child
                  ]).__next__
    t = Tracer(clock=clock)
    t.calls["harness.run_experiment"] = 1
    main = threading.get_ident()

    def in_worker():
        with t.span("rsvd.rsvd"):
            pass
        with t.span("estimator.unbiased_estimate"):
            with t.span("linalg.ortho"):
                pass

    worker = threading.Thread(target=in_worker)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    t.spans.append(tracer.Span("harness.run_experiment", main, 0.0, 10.0, 10.0, True))
    m = summarize(t, jobs=2, main_thread=main)
    assert m["harness.pool.busy_frac"] == pytest.approx(14.0 / 20.0)
    assert m["estimator.unbiased_estimate.self_s"] == pytest.approx(3.0)
    assert m["linalg.ortho.total_s"] == pytest.approx(1.0)
    assert m["harness.run_experiment.calls"] == 1


def test_wrap_counts_calls_errors_and_generator_steps():
    t = Tracer()

    def fails():
        raise ValueError("boom")

    def gen(n):
        for i in range(n):
            yield i

    wrapped = t.wrap("m.fails", fails)
    for _ in range(2):
        with pytest.raises(ValueError):
            wrapped()
    assert list(t.wrap("m.gen", gen)(3)) == [0, 1, 2]
    assert t.calls == {"m.fails": 2, "m.gen": 1}
    assert t.errors == {"m.fails": 2}
    # one span per produced item plus the final exhausted step
    assert len(_by_name(t)["m.gen"]) == 4


@pytest.mark.parametrize("m,n,uv,full,expected", [
    (6, 3, False, False, 180),      # 4mn^2 - 4n^3/3
    (3, 6, False, True, 180),       # values only: orientation and full ignored
    (6, 3, True, False, 972),       # 14mn^2 + 8n^3
    (6, 3, True, True, 1107),       # 4m^2n + 8mn^2 + 9n^3
    (500, 500, False, False, 333333333),
])
def test_svd_flops_on_known_shapes(m, n, uv, full, expected):
    assert svd_flops(m, n, uv, full) == expected


@pytest.mark.parametrize("m,n,mode,expected", [
    (6, 3, "r", 90),            # xGEQRF: 2mn^2 - 2n^3/3
    (6, 3, "reduced", 180),     # plus xORGQR forming 3 columns
    (6, 3, "complete", 342),    # plus xORGQR forming all 6 columns
    (3, 6, "r", 90),            # 2nm^2 - 2m^3/3 for a wide input
    (500, 80, "reduced", 12117333),
])
def test_qr_flops_on_known_shapes(m, n, mode, expected):
    assert qr_flops(m, n, mode) == expected
