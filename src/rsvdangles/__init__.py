"""Canonical-angle bounds and estimates for randomized SVD subspace
approximations: prior spectrum-only bounds, unbiased Monte-Carlo estimates,
posterior residual-based certificates, matrix generators, and an experiment
harness. Import each name from its module (``rsvdangles.harness``, ...): the
package itself loads none of them.

Importing the package sets one BLAS thread per process unless the user has
already chosen a count: the kernels here are small, so a second BLAS thread
doubles the CPU time without lowering the wall time. Parallelism comes from
forked worker processes instead: ``run`` shares its grid runs (at most
``--jobs`` workers), ``balance`` and ``estimate`` their trials, each on the
CPUs the process may use. numpy reads the variables when it loads; where it
is already loaded, each OpenBLAS it loaded is set to one thread through its
exported setter, with a warning where none is found.
"""

import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads(set_to: int | None = None) -> list[int]:
    """The thread count of each OpenBLAS this process has loaded, after
    setting it to ``set_to`` where given, through the library's exported
    ``openblas_get_num_threads`` and ``openblas_set_num_threads`` in any of
    their symbol spellings; a library without them is left out."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and "/" in ln})
    except OSError:  # no /proc: the loaded libraries cannot be listed
        return []
    counts = []
    for lib in map(ctypes.CDLL, libs):
        for pre, suf in (("scipy_", "64_"), ("", "64_"), ("scipy_", ""), ("", "")):
            get = getattr(lib, f"{pre}openblas_get_num_threads{suf}", None)
            if get is not None:
                if set_to is not None:
                    setter = getattr(lib, f"{pre}openblas_set_num_threads{suf}")
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(set_to)
                get.argtypes, get.restype = [], ctypes.c_int
                counts.append(get())
                break
    return counts


if "numpy" in sys.modules and not any(var in os.environ for var in _THREAD_VARS):
    if not _blas_threads(set_to=1):
        import warnings

        warnings.warn("numpy was imported before rsvdangles and no OpenBLAS thread setter"
                      " was found, so BLAS keeps its own thread count; import rsvdangles"
                      " first or set OPENBLAS_NUM_THREADS=1", stacklevel=2)
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
