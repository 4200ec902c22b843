"""Matrix file ingestion and emission.

Reads MatrixMarket (array or coordinate, real or complex) and plain dense
CSV (real); always writes MatrixMarket array format with a "general"
symmetry header and full double precision.

Every reader returns a frozen dense array, and a coordinate file is
expanded to one, except where the caller passes ``sparse=True``: it then
gets the parsed SciPy sparse matrix, with its entries checked for nan and
inf as a dense one's are. ``srlab compute`` asks for that for every
quantity, so :func:`srlab.matrices.sigma` can form the Gram of a large
wide coordinate file with a sparse product; ``intdim`` densifies it. On
that route the singular values can differ from those of the dense copy in
the last bits, within the route's 1e-8 contract; every other shape gets
the dense copy's values bit for bit.

MatrixMarket I/O goes through ``scipy.io``, which pulls in ``scipy.sparse``
and costs more to import than the rest of srlab. Both are imported on the
first MatrixMarket read or write, not with this module, so ``import srlab``
and work that touches no MatrixMarket file load no SciPy module.

SciPy (1.12 and later) parses and formats MatrixMarket text on a pool of
``scipy.io._fast_matrix_market.PARALLELISM`` threads, 0 meaning one per
core, and starts that pool on every call. For the small files srlab
mostly handles, starting the pool costs more than the text. So every read
and every write sets that attribute to 1 for the length of the call and
then restores it, holding one lock throughout: srlab calls made at the
same moment from threads of one process run one after another, and none
leaves the setting changed. A SciPy MatrixMarket call made outside srlab
while one is running may run on one thread. The threads change speed
only: the parsed arrays and the written bytes are the same. A SciPy
without that module (its older pure-Python reader) is called as it is.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .matrices import Matrix, _check_entries, _freeze_fresh, as_matrix


_parallelism_lock = threading.Lock()


class MatrixParseError(ValueError):
    """The file could not be parsed as a matrix."""


@contextmanager
def _one_parser_thread():
    """Run SciPy's MatrixMarket code in the block on one thread.

    The block holds a module lock, so blocks in different threads run one
    at a time and each restores the ``PARALLELISM`` it found.
    """
    try:
        from scipy.io import _fast_matrix_market as fmm
    except ImportError:
        fmm = None
    if not hasattr(fmm, "PARALLELISM"):
        yield
        return
    with _parallelism_lock:
        saved = fmm.PARALLELISM
        fmm.PARALLELISM = 1
        try:
            yield
        finally:
            fmm.PARALLELISM = saved


def read_matrix_market(path, sparse: bool = False):
    """Read a MatrixMarket file; the parsed array is frozen, not copied again.

    With ``sparse=True`` a coordinate file is returned as SciPy parsed it,
    not densified; an array file is a dense array either way.
    """
    import scipy.io
    import scipy.sparse

    try:
        with _one_parser_thread():
            a = scipy.io.mmread(path)
    except Exception as exc:
        raise MatrixParseError(f"{path}: not a readable MatrixMarket file: {exc}") from exc
    try:
        if not scipy.sparse.issparse(a):
            return _freeze_fresh(a)
        if sparse:
            _check_entries(a.shape, a.data)
            return a
        return _freeze_fresh(a.toarray())
    except ValueError as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc


def read_csv(path) -> Matrix:
    """Read a dense real CSV matrix; a file with no data row is a parse error.

    Lines that hold only whitespace or a comment are skipped.
    """
    try:
        # np.loadtxt reads a whitespace-only line as a row of one empty
        # field, and warns on a file with no data row before returning an
        # empty array, so both kinds of line are dropped here first.
        with open(path, "rb") as fh:
            rows = [line for line in fh if line.partition(b"#")[0].strip()]
        a = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else None
    except Exception as exc:
        raise MatrixParseError(f"{path}: not a readable CSV matrix: {exc}") from exc
    if a is None:
        raise MatrixParseError(f"{path}: no matrix entries")
    try:
        return _freeze_fresh(a)
    except ValueError as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc


def read_matrix(path, sparse: bool = False):
    """Sniff the format: MatrixMarket when the header says so, else CSV.

    ``sparse`` is passed to :func:`read_matrix_market`. A path that cannot
    be opened (missing, a directory, unreadable) is a parse error naming it.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(14)
    except OSError as exc:
        raise MatrixParseError(f"{path}: {exc.strerror or exc}") from exc
    if head.startswith(b"%%MatrixMarket") or path.suffix.lower() in (".mtx", ".mm"):
        return read_matrix_market(path, sparse)
    return read_csv(path)


def write_matrix_market(path, a: Matrix) -> None:
    """Write ``a`` to ``path`` as named.

    ``scipy.io.mmwrite`` adds ``.mtx`` to a file name that lacks it, so it
    gets such a file opened here. A name that ends in ``.mtx`` goes to it
    as it is, because writing to a named file is faster than to a stream;
    both write the same bytes. Named file against stream, real n x n, one
    parser thread, best of 5 on a 2-core Xeon: 120 against 143 us at
    n = 5, 162 against 220 us at 20, 0.73 against 1.11 ms at 60 and 45
    against 50 ms at 500.
    """
    import scipy.io

    a = as_matrix(a)
    path = str(path)
    with _one_parser_thread():
        if path.endswith(".mtx"):
            scipy.io.mmwrite(path, a, symmetry="general", precision=17)
            return
        with open(path, "wb") as fh:
            scipy.io.mmwrite(fh, a, symmetry="general", precision=17)
