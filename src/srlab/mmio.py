"""Matrix file ingestion and emission.

Reads MatrixMarket (array or coordinate, real or complex) and plain dense
CSV (real); always writes MatrixMarket array format with a "general"
symmetry header and full double precision.

MatrixMarket I/O goes through ``scipy.io``, which pulls in ``scipy.sparse``
and costs more to import than the rest of srlab. Both are imported on the
first MatrixMarket read or write, not with this module, so ``import srlab``
and work that touches no MatrixMarket file load no SciPy module.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .matrices import Matrix, _freeze_fresh, as_matrix


class MatrixParseError(ValueError):
    """The file could not be parsed as a matrix."""


def read_matrix_market(path) -> Matrix:
    """Read a MatrixMarket file; the parsed array is frozen, not copied again."""
    import scipy.io
    import scipy.sparse

    try:
        a = scipy.io.mmread(path)
    except Exception as exc:
        raise MatrixParseError(f"{path}: not a readable MatrixMarket file: {exc}") from exc
    if scipy.sparse.issparse(a):
        a = a.toarray()
    try:
        return _freeze_fresh(a)
    except ValueError as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc


def read_csv(path) -> Matrix:
    """Read a dense real CSV matrix; a file with no data row is a parse error."""
    try:
        # np.loadtxt warns on a file with no data row before returning an
        # empty array, so such a file is caught here first.
        with open(path, "rb") as fh:
            has_rows = any(line.partition(b"#")[0].strip() for line in fh)
        a = np.loadtxt(path, delimiter=",", ndmin=2) if has_rows else None
    except Exception as exc:
        raise MatrixParseError(f"{path}: not a readable CSV matrix: {exc}") from exc
    if a is None:
        raise MatrixParseError(f"{path}: no matrix entries")
    try:
        return _freeze_fresh(a)
    except ValueError as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc


def read_matrix(path) -> Matrix:
    """Sniff the format: MatrixMarket when the header says so, else CSV."""
    path = Path(path)
    if not path.exists():
        raise MatrixParseError(f"{path}: no such file")
    with open(path, "rb") as fh:
        head = fh.read(14)
    if head.startswith(b"%%MatrixMarket") or path.suffix.lower() in (".mtx", ".mm"):
        return read_matrix_market(path)
    return read_csv(path)


def write_matrix_market(path, a: Matrix) -> None:
    import scipy.io

    a = as_matrix(a)
    scipy.io.mmwrite(str(path), a, symmetry="general", precision=17)


def matrix_to_market_string(a: Matrix) -> str:
    import scipy.io

    buf = io.BytesIO()
    scipy.io.mmwrite(buf, as_matrix(a), symmetry="general", precision=17)
    return buf.getvalue().decode()
