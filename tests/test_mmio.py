"""Matrix file round trips and parse failure handling."""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from srlab.mmio import (
    MatrixParseError,
    read_csv,
    read_matrix,
    read_matrix_market,
    write_matrix_market,
)


def test_real_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 6))
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    b = read_matrix(path)
    assert np.array_equal(a, b)


def test_complex_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    b = read_matrix_market(path)
    assert b.dtype == np.complex128
    assert np.array_equal(a, b)


def test_header_is_general_even_for_symmetric(tmp_path):
    path = tmp_path / "sym.mtx"
    write_matrix_market(path, np.eye(3))
    header = path.read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket matrix array real general")


def test_market_string_parses_back(tmp_path):
    a = np.diag([1.0, 2.0])
    path = tmp_path / "diag.mtx"
    write_matrix_market(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_csv_read(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    a = read_csv(path)
    assert np.array_equal(a, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(read_matrix(path), a)
    # Lines of only whitespace are skipped, as comment-only lines are.
    path.write_text("1,2\n3,4\n  \n")
    assert np.array_equal(read_csv(path), [[1.0, 2.0], [3.0, 4.0]])
    path.write_text("# c\n1,2\n \t\n  # c\n3,4\n\n")
    assert np.array_equal(read_csv(path), [[1.0, 2.0], [3.0, 4.0]])


def test_single_row_csv(tmp_path):
    path = tmp_path / "row.csv"
    path.write_text("1.5,2.5\n")
    assert read_matrix(path).shape == (1, 2)


def test_sniffing_prefers_market_header(tmp_path):
    written = tmp_path / "eye.mtx"
    write_matrix_market(written, np.eye(2))
    path = tmp_path / "weird.txt"
    path.write_text(written.read_text())
    assert np.array_equal(read_matrix(path), np.eye(2))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_write_goes_to_the_given_path(tmp_path, field):
    a = np.arange(6.0).reshape(2, 3) / 7
    if field == "complex":
        a = a - 1j * a[::-1]
    path = tmp_path / "w.txt"
    write_matrix_market(path, a)
    assert path.exists()
    assert not (tmp_path / "w.txt.mtx").exists()
    back = read_matrix(path)
    assert back.dtype == a.dtype
    assert back.tobytes() == a.tobytes()
    # A name that ends in .mtx is written by name; the bytes are the same.
    write_matrix_market(tmp_path / "w.mtx", a)
    assert (tmp_path / "w.mtx").read_bytes() == path.read_bytes()


def test_coordinate_format_densified(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0\n2 2 4.0\n"
    )
    assert np.array_equal(read_matrix(path), np.diag([3.0, 4.0]))


def test_missing_file_raises():
    with pytest.raises(MatrixParseError):
        read_matrix("/nonexistent/file.mtx")


def test_garbage_raises(tmp_path):
    # An empty file is a parse error too, raised without numpy's loadtxt warning.
    for name, text in [("bad.csv", "this,is,not\na,matrix,either\n"), ("empty.csv", "")]:
        path = tmp_path / name
        path.write_text(text)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(MatrixParseError):
                read_matrix(path)
        assert not seen, [str(w.message) for w in seen]


def test_nonfinite_entries_rejected(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1.0,nan\n2.0,3.0\n")
    with pytest.raises(MatrixParseError):
        read_matrix(path)
    # A coordinate file is checked the same way, also when it is kept sparse.
    for bad in ("nan", "inf", "-inf"):
        path = tmp_path / f"{bad}.mtx"
        header = "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
        path.write_text(f"{header}1 1 3.0\n2 2 {bad}\n")
        for sparse in (False, True):
            with pytest.raises(MatrixParseError, match="finite"):
                read_matrix(path, sparse=sparse)


def test_importing_srlab_loads_no_scipy(tmp_path):
    # SciPy is imported on the first MatrixMarket read or write, so it must
    # be absent after the imports and present, and working, after a read.
    path = tmp_path / "a.mtx"
    write_matrix_market(path, np.arange(6.0).reshape(2, 3))
    code = (
        "import sys\n"
        "import srlab, srlab.cli, srlab.fuzz\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
        "pools = sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent.futures')))\n"
        "assert not pools, pools\n"
        "a = srlab.mmio.read_matrix(sys.argv[1])\n"
        "assert a.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], a\n"
        "assert 'scipy.io' in sys.modules\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_market_read_freezes_the_parsed_array_without_copying(monkeypatch, tmp_path, fmt):
    import scipy.io
    import scipy.sparse

    real_mmread = scipy.io.mmread
    parsed = []

    def mmread(path):
        a = real_mmread(path)
        dense = a.toarray() if scipy.sparse.issparse(a) else a
        # toarray() returns a fresh array each call: record the one read_matrix_market gets.
        if scipy.sparse.issparse(a):
            a.toarray = lambda: dense
        parsed.append(dense)
        return a

    monkeypatch.setattr(scipy.io, "mmread", mmread)
    a = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "a.mtx"
    scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(a) if fmt == "coordinate" else a)
    got = read_matrix_market(path)
    assert np.shares_memory(got, parsed[0])
    assert not got.flags.writeable and got.flags.c_contiguous and got.dtype == np.float64
    assert np.array_equal(got, a)


def test_as_matrix_still_copies_what_the_caller_owns():
    from srlab.matrices import as_matrix

    a = np.arange(6.0).reshape(2, 3)
    frozen = as_matrix(a)
    assert not np.shares_memory(frozen, a)
    assert a.flags.writeable and not frozen.flags.writeable


def test_coordinate_file_read_sparse_on_request(tmp_path):
    import scipy.sparse

    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 3.0\n2 3 4.0\n"
    )
    a = read_matrix(path, sparse=True)
    assert scipy.sparse.issparse(a)
    assert np.array_equal(a.toarray(), [[3.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
    # An array file is dense whatever the caller asks for.
    write_matrix_market(tmp_path / "d.mtx", np.eye(2))
    d = read_matrix(tmp_path / "d.mtx", sparse=True)
    assert isinstance(d, np.ndarray) and not d.flags.writeable
