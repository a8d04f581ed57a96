# Import the package before any test module imports numpy, so the suite runs
# with the package default of one BLAS thread per process.
import rsvdangles  # noqa: F401
