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
    # Entries up to 1.5e308, and scaled by 2^±300, come back bit for bit too.
    for scaled in (a, a * (1.5e308 / np.abs(a).max()), np.ldexp(a, 300), np.ldexp(a, -300)):
        write_matrix_market(path, scaled)
        assert np.array_equal(scaled, read_matrix(path))


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
def test_write_goes_to_the_given_path(tmp_path, field, monkeypatch):
    import scipy.io

    targets = []
    real_mmwrite = scipy.io.mmwrite

    def recorded(target, *args, **kwargs):
        targets.append(target)
        return real_mmwrite(target, *args, **kwargs)

    monkeypatch.setattr(scipy.io, "mmwrite", recorded)
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
    # A name that ends in .mtx is written by name, the faster path; the bytes are the same.
    write_matrix_market(tmp_path / "w.mtx", a)
    assert (tmp_path / "w.mtx").read_bytes() == path.read_bytes()
    assert not isinstance(targets[0], str) and hasattr(targets[0], "write")
    assert targets[1] == str(tmp_path / "w.mtx")


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
    # An empty file, or one of only comments, is a parse error too, raised
    # without numpy's loadtxt warning.
    for name, text, message in [
        ("bad.csv", "this,is,not\na,matrix,either\n", "not a readable CSV matrix: "),
        ("empty.csv", "", "no matrix entries$"),
        ("comments.csv", "# a comment\n  # another\n\n", "no matrix entries$"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(MatrixParseError, match=message):
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


# SciPy 1.12 and later parse MatrixMarket text on PARALLELISM threads;
# srlab.mmio runs every read and write on one.


@pytest.fixture
def fmm():
    return pytest.importorskip("scipy.io._fast_matrix_market")


def _real(n):
    return np.random.default_rng(n).standard_normal((n, n))


def _complex(n):
    rng = np.random.default_rng(n)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_parser_threads_are_restored(monkeypatch, tmp_path, fmm):
    monkeypatch.setattr(fmm, "PARALLELISM", 3)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, np.eye(3))
    assert fmm.PARALLELISM == 3
    read_matrix_market(path)
    assert fmm.PARALLELISM == 3
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
    with pytest.raises(MatrixParseError):
        read_matrix_market(bad)
    assert fmm.PARALLELISM == 3


def test_reads_and_writes_run_on_one_parser_thread(monkeypatch, tmp_path, fmm):
    import scipy.io

    seen = []

    def spy(real):
        def call(*args, **kwargs):
            seen.append(fmm.PARALLELISM)
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(scipy.io, "mmread", spy(scipy.io.mmread))
    monkeypatch.setattr(scipy.io, "mmwrite", spy(scipy.io.mmwrite))
    default = fmm.PARALLELISM
    small, large = tmp_path / "small.mtx", tmp_path / "large"
    write_matrix_market(small, _real(20))
    write_matrix_market(large, _real(120))
    # Large enough that SciPy would format it on several threads.
    assert large.stat().st_size >= 2**18
    read_matrix_market(small)
    read_matrix_market(large)
    assert seen == [1, 1, 1, 1]
    assert fmm.PARALLELISM == default


# 120 x 120 real and 90 x 90 complex entries take more than 2^18 bytes.
@pytest.mark.parametrize("build, n", [(_real, 20), (_complex, 20), (_real, 120), (_complex, 90)])
def test_one_parser_thread_writes_and_reads_scipys_bytes(tmp_path, fmm, build, n):
    import scipy.io

    a = build(n)
    ours, theirs = tmp_path / "ours.mtx", tmp_path / "theirs.mtx"
    write_matrix_market(ours, a)
    scipy.io.mmwrite(str(theirs), a, symmetry="general", precision=17)
    assert ours.read_bytes() == theirs.read_bytes()
    got = read_matrix_market(ours)
    assert got.tobytes() == scipy.io.mmread(str(theirs)).tobytes()


@pytest.mark.parametrize("fmt", ["symmetric", "coordinate"])
def test_one_parser_thread_reads_scipys_arrays(tmp_path, fmm, fmt):
    import scipy.io
    import scipy.sparse

    a = _real(30)
    path = tmp_path / "a.mtx"
    if fmt == "symmetric":
        scipy.io.mmwrite(str(path), a + a.T, symmetry="symmetric", precision=17)
    else:
        scipy.io.mmwrite(str(path), scipy.sparse.random(30, 40, density=0.2, random_state=1))
    assert fmt in path.read_text().splitlines()[0]
    expected = scipy.io.mmread(str(path))
    dense = expected.toarray() if scipy.sparse.issparse(expected) else expected
    assert read_matrix_market(path).tobytes() == dense.tobytes()
    if fmt == "coordinate":
        sparse = read_matrix_market(path, sparse=True)
        assert (sparse != expected).nnz == 0


def test_matrix_market_io_without_the_threaded_module(monkeypatch, tmp_path):
    # SciPy before 1.12 has no scipy.io._fast_matrix_market, and its
    # scipy.io reader and writer are the pure-Python ones of scipy.io._mmio.
    import builtins

    import scipy.io
    import scipy.io._mmio

    real_import = builtins.__import__

    def no_threaded_module(name, globals=None, locals=None, fromlist=(), level=0):
        if name == "scipy.io" and fromlist and "_fast_matrix_market" in fromlist:
            raise ImportError("no scipy.io._fast_matrix_market")
        return real_import(name, globals, locals, fromlist, level)

    monkeypatch.setattr(builtins, "__import__", no_threaded_module)
    monkeypatch.setattr(scipy.io, "mmread", scipy.io._mmio.mmread)
    monkeypatch.setattr(scipy.io, "mmwrite", scipy.io._mmio.mmwrite)
    a = _complex(5)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    assert np.array_equal(read_matrix_market(path), a)


def test_overlapping_calls_restore_the_parser_threads(monkeypatch, tmp_path, fmm):
    # More threads than cores, switching often: the calls run one at a time,
    # each on one parser thread, and the caller's setting is back at the end.
    import threading

    import scipy.io

    seen = set()
    real_mmread = scipy.io.mmread

    def mmread(*args, **kwargs):
        seen.add(fmm.PARALLELISM)
        return real_mmread(*args, **kwargs)

    monkeypatch.setattr(scipy.io, "mmread", mmread)
    monkeypatch.setattr(fmm, "PARALLELISM", 3)
    a = _real(6)
    errors = []

    def work(k):
        path = tmp_path / f"{k}.mtx"
        try:
            for _ in range(30):
                write_matrix_market(path, a)
                if not np.array_equal(read_matrix_market(path), a):
                    errors.append(f"thread {k} read back another matrix")
        except Exception as exc:
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert seen == {1}
    assert fmm.PARALLELISM == 3
