import numpy as np
import pytest

from rsvdangles.linalg import seeded_rng
from rsvdangles.mmio import read_matrix, write_matrix


def test_round_trip_is_exact(tmp_path):
    rng = seeded_rng(5)
    a = rng.standard_normal((7, 4)) * np.exp(rng.uniform(-30, 30, (7, 4)))
    path = tmp_path / "a.mtx"
    write_matrix(a, path)
    b = read_matrix(path)
    assert np.array_equal(a, b)


def test_header_format(tmp_path):
    path = tmp_path / "h.mtx"
    write_matrix(np.array([[1.5, -2.0]]), path)
    first = path.read_text().splitlines()[0]
    assert first == "%%MatrixMarket matrix array real general"


def test_column_major_order_and_comments(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% a comment line\n"
        "2 3\n"
        "1\n4\n2\n5\n3\n6\n")
    a = read_matrix(path)
    assert np.array_equal(a, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n")
    with pytest.raises(ValueError, match="unsupported"):
        read_matrix(path)


def test_rejects_truncated_body(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(ValueError, match="expected 4 entries"):
        read_matrix(path)


def test_rejects_negative_size_line(tmp_path):
    # -1 * -1 entries would match a one-entry body
    path = tmp_path / "neg.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n-1 -1\n1.0\n")
    with pytest.raises(ValueError, match=r"^.*neg\.mtx: malformed size line '-1 -1'$"):
        read_matrix(path)
