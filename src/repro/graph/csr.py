"""A small compressed-sparse-row matrix over scipy's compiled kernels.

Every graph here is a constant ``Â`` (Eq. 5) that a model multiplies by
(``Â @ X``), by its transpose in backward (``Â.T @ G``) and, for a step's
last layer, by a row slice (``Â[rows]``).  :class:`CSR` holds scipy's own
layout — ``indptr`` and ``indices`` (int32 while they fit), ``data`` and
``shape`` — and runs those three operations through scipy's
``_sparsetools`` extension (``csr_matvecs``, ``csc_matvecs``,
``csr_matvec``, ``csc_matvec``, ``csr_row_index``, ``csr_tocsc``).  The
same kernels on the same arrays in the same index order give the same
bytes as ``scipy.sparse`` does.

:func:`kernels` loads the extension by path, once: ``import scipy.sparse``
would also load ``scipy._lib``'s array-API layer, which resolves NumPy's
lazily loaded submodules (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``,
``numpy.polynomial``) — about 12 MB resident for no sparse algebra.  A
scipy without the kernel file fails at the first graph build, with an
``ImportError`` that names the file.

:func:`normalized_adjacency` builds a row- or symmetric-normalized
``A (+ I)`` from an edge list in NumPy, in the index order scipy's
``sp.diags(d) @ A`` pipeline leaves (see its docstring).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os

import numpy as np

_KERNELS_NAME = "scipy.sparse._sparsetools"


@functools.cache
def kernels():
    """scipy's ``_sparsetools`` extension module, loaded by path on first
    use without importing the ``scipy`` or ``scipy.sparse`` package."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    folder = os.path.join(roots[0] if roots else "scipy", "sparse")
    paths = [
        os.path.join(folder, "_sparsetools" + suffix)
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    path = next((path for path in paths if os.path.isfile(path)), None)
    if path is None:
        raise ImportError(
            f"repro's sparse graphs need scipy's compiled kernels; {paths[0]} "
            "does not exist", name=_KERNELS_NAME, path=paths[0],
        )
    loader = importlib.machinery.ExtensionFileLoader(_KERNELS_NAME, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_KERNELS_NAME, path, loader=loader)
    )
    loader.exec_module(module)
    return module


def _index_dtype(*bounds: int) -> np.dtype:
    """int32 while every index and count fits, as scipy picks."""
    return np.dtype(np.int32 if max(bounds, default=0) <= np.iinfo(np.int32).max else np.int64)


class _Compressed:
    """The arrays and products :class:`CSR` and its :class:`CSC` view share."""

    format = ""
    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, shape) -> None:
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def astype(self, dtype) -> "_Compressed":
        """A copy with ``data`` cast; the index arrays are shared."""
        return type(self)(self.indptr, self.indices, self.data.astype(dtype), self.shape)

    def __matmul__(self, other) -> np.ndarray:
        """``self @ other`` for a dense vector or matrix, dispatched as
        scipy's ``_matmul_dispatch`` does (an ``(n, 1)`` column is a vector)."""
        other = np.asarray(other)
        m, n = self.shape
        out_dtype = np.result_type(self.data, other)
        if other.shape in ((n,), (n, 1)):
            out = np.zeros(m, dtype=out_dtype)
            matvec = getattr(kernels(), self.format + "_matvec")
            matvec(m, n, self.indptr, self.indices, self.data, other.ravel(), out)
            return out if other.ndim == 1 else out.reshape(m, 1)
        if other.ndim != 2 or other.shape[0] != n:
            raise ValueError(f"matmul: dimension mismatch, {self.shape} @ {other.shape}")
        out = np.zeros((m, other.shape[1]), dtype=out_dtype)
        matvecs = getattr(kernels(), self.format + "_matvecs")
        matvecs(m, n, other.shape[1], self.indptr, self.indices, self.data, other.ravel(), out.ravel())
        return out

    def toarray(self) -> np.ndarray:
        major, minor = self.shape if self.format == "csr" else self.shape[::-1]
        out = np.zeros((major, minor), dtype=self.dtype)
        kernels().csr_todense(major, minor, self.indptr, self.indices, self.data, out.ravel())
        return out if self.format == "csr" else out.T


class CSR(_Compressed):
    """Compressed sparse rows: row ``i``'s column ids are
    ``indices[indptr[i]:indptr[i + 1]]`` and its values the same slice of
    ``data``.  Treat the arrays as read-only: views share them."""

    format = "csr"
    __slots__ = ()

    @property
    def T(self) -> "CSC":  # noqa: N802 - mirrors numpy's .T
        """The transpose as a CSC view of these arrays: nothing is copied."""
        return CSC(self.indptr, self.indices, self.data, self.shape[::-1])

    def __getitem__(self, rows) -> "CSR":
        """Rows ``rows`` (any order, repeats allowed) as a new CSR."""
        rows = np.asarray(rows, dtype=self.indptr.dtype).ravel()
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise IndexError(f"row index out of range [0, {self.shape[0]})")
        indptr = np.zeros(len(rows) + 1, dtype=self.indptr.dtype)
        np.cumsum(self.indptr[rows + 1] - self.indptr[rows], out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=self.indices.dtype)
        data = np.empty(indptr[-1], dtype=self.dtype)
        kernels().csr_row_index(len(rows), rows, self.indptr, self.indices, self.data, indices, data)
        return CSR(indptr, indices, data, (len(rows), self.shape[1]))


class CSC(_Compressed):
    """Compressed sparse columns; here only ever a :attr:`CSR.T` view."""

    format = "csc"
    __slots__ = ()

    @property
    def T(self) -> CSR:  # noqa: N802 - mirrors numpy's .T
        return CSR(self.indptr, self.indices, self.data, self.shape[::-1])

    def tocsr(self) -> CSR:
        """The same matrix as a CSR of its own arrays (``csr_tocsc`` on the
        transpose): each row's column ids come out ascending."""
        m, n = self.shape
        indptr = np.empty(m + 1, dtype=self.indptr.dtype)
        indices = np.empty(self.nnz, dtype=self.indices.dtype)
        data = np.empty(self.nnz, dtype=self.dtype)
        kernels().csr_tocsc(n, m, self.indptr, self.indices, self.data, indptr, indices, data)
        return CSR(indptr, indices, data, self.shape)


def as_compressed(matrix) -> _Compressed:
    """``matrix`` as a :class:`CSR` or :class:`CSC`: one of these as it is,
    a ``scipy.sparse`` matrix through its own ``tocsr()`` arrays (so the
    caller, not this module, has imported scipy)."""
    if isinstance(matrix, _Compressed):
        return matrix
    tocsr = getattr(matrix, "tocsr", None)
    if tocsr is None:
        raise TypeError(f"expected a sparse matrix, got {type(matrix)!r}")
    csr = tocsr()
    return CSR(csr.indptr, csr.indices, csr.data, csr.shape)


def adjacency(n: int, rows: np.ndarray, cols: np.ndarray, self_loops: bool = False) -> CSR:
    """The binary symmetric ``n x n`` adjacency of the edges ``(rows[k],
    cols[k])``: each edge in both directions, repeats collapsed, a diagonal
    of ones with ``self_loops``, each row's column ids ascending.

    Loads the kernels first, so a scipy without them fails here, at the
    build, not at a first product."""
    kernels()
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    keys = [rows * n + cols, cols * n + rows]
    if self_loops:
        keys.append(np.arange(n, dtype=np.int64) * (n + 1))
    # np.unique's result; NumPy 2.4's np.unique takes ~20x as long here
    # and imports numpy.ma.
    keys = np.sort(np.concatenate(keys))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    index_dtype = _index_dtype(n, len(keys))
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return CSR(indptr, (keys % n).astype(index_dtype), np.ones(len(keys)), (n, n))


def normalized_adjacency(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    self_loops: bool = True,
    symmetric: bool = False,
    dtype=None,
) -> CSR:
    """``D⁻¹ (A + I)`` (Eq. 5), or ``D^-½ (A + I) D^-½`` when ``symmetric``,
    over the edges ``(rows[k], cols[k])`` with ``D`` the row sums; ``I``
    only with ``self_loops``.  A row with no entry stays empty.

    Bytes and index order are those of scipy's ``(sp.diags(d) @ A).tocsr()``
    (``d`` on both sides when ``symmetric``) then ``.astype(dtype)``: one
    diagonal scaling writes each row's column ids descending, a second
    turns them back, and a cast to another dtype sorts them.  So a
    row-normalized float64 ``Â`` keeps descending rows, and each product
    over it adds its terms in that order.
    """
    binary = adjacency(n, rows, cols, self_loops=self_loops)
    counts = np.diff(binary.indptr)
    degrees = np.maximum(counts, 1).astype(np.float64)  # an empty row divides nothing
    row_of = np.repeat(np.arange(n), counts)
    indices = binary.indices
    if symmetric:
        inv_sqrt = 1.0 / np.sqrt(degrees)
        data = inv_sqrt[row_of] * inv_sqrt[indices]
    else:
        data = np.repeat(1.0 / degrees, counts)
        if np.dtype(dtype or np.float64) == np.float64:
            ends = binary.indptr[1:].astype(np.int64)
            reverse = (binary.indptr[:-1] + ends - 1)[row_of] - np.arange(len(indices))
            indices = indices[reverse]
    if dtype is not None:
        data = data.astype(np.dtype(dtype))
    return CSR(binary.indptr, indices, data, (n, n))
