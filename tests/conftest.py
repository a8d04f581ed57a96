# Import the package before any test module imports numpy, so the suite runs
# with the package default of one BLAS thread per process.
import rsvdangles  # noqa: F401

import os

import pytest


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
