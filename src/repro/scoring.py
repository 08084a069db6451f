"""The serving kernels: frozen score factors and the products over them.

Everything here imports NumPy alone, so a serving process (an index, an
ANN layout, the batch runtime, the lifecycle) never loads the training
stack.  :class:`ScoreBranch` is the frozen factorization a model exports;
:func:`score_branches` is the one scoring kernel live evaluation and
serving share; :func:`gemm_rows` and :func:`gemm_cols` are the two rules
that make a score's bits independent of its batch and its item layout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np


def _branch_array(value: np.ndarray) -> np.ndarray:
    """Canonicalize a branch factor, preserving a supported float dtype.

    float32 factors stay float32 (the precision policy threads through to
    serving); anything else — lists, integer arrays — is coerced to float64.
    No copy when the input is already C-contiguous in a supported dtype, so
    transient scoring (the default ``predict_scores``) stays zero-copy; the
    serving exporter deep-copies via :meth:`ScoreBranch.frozen_copy`.
    """
    value = np.asarray(value)
    dtype = value.dtype if value.dtype in (np.dtype(np.float32), np.dtype(np.float64)) else np.float64
    return np.ascontiguousarray(value, dtype=dtype)


@dataclass
class ScoreBranch:
    """One additive term of a factorized score function.

    A model whose full score matrix decomposes as

        S = sum_b  weight_b * ( U_b @ V_b.T + item_const_b[None, :]
                                + user_const_b[:, None] )

    can be served from frozen arrays: graph propagation (the expensive part
    of every GCN recommender here) happens once at export time and inference
    reduces to dense matmuls.  ``item_const`` carries score terms that do not
    depend on the user (e.g. PUP's ``e_i · e_p``); ``user_const`` carries
    per-user offsets (e.g. FM's first-order user bias) which do not change
    rankings but keep exported scores equal to :meth:`Recommender.predict_scores`.
    """

    user: np.ndarray  # (n_users, d)
    item: np.ndarray  # (n_items, d)
    item_const: Optional[np.ndarray] = None  # (n_items,)
    user_const: Optional[np.ndarray] = None  # (n_users,)
    weight: float = 1.0

    def __post_init__(self) -> None:
        # May alias live model weights (e.g. BPR-MF exports its embedding
        # tables directly) — fine for transient scoring; anything that
        # *freezes* a branch must go through frozen_copy(), which the
        # serving exporter does.
        self.user = _branch_array(self.user)
        self.item = _branch_array(self.item)
        if self.user.ndim != 2 or self.item.ndim != 2:
            raise ValueError("user/item factors must be 2-D")
        if self.user.shape[1] != self.item.shape[1]:
            raise ValueError(
                f"user/item factor dims differ: {self.user.shape[1]} vs {self.item.shape[1]}"
            )
        if self.item_const is not None:
            self.item_const = _branch_array(self.item_const)
            if self.item_const.shape != (self.item.shape[0],):
                raise ValueError("item_const must have shape (n_items,)")
        if self.user_const is not None:
            self.user_const = _branch_array(self.user_const)
            if self.user_const.shape != (self.user.shape[0],):
                raise ValueError("user_const must have shape (n_users,)")

    def frozen_copy(self) -> "ScoreBranch":
        """A deep copy guaranteed not to alias live model weights.

        The serving exporter freezes branches through this, so an
        :class:`~repro.serving.index.EmbeddingIndex` cannot be mutated by
        continued training of the model it came from.
        """
        return ScoreBranch(
            user=self.user.copy(),
            item=self.item.copy(),
            item_const=None if self.item_const is None else self.item_const.copy(),
            user_const=None if self.user_const is None else self.user_const.copy(),
            weight=self.weight,
        )


def branches_dtype(branches: List[ScoreBranch]) -> np.dtype:
    """The dtype :func:`score_branches` produces for these branches.

    Includes the const terms: a float64 ``item_const`` upcasts the whole
    branch sum even when the factors are float32.
    """
    parts = []
    for branch in branches:
        parts.append(branch.user.dtype)
        parts.append(branch.item.dtype)
        if branch.item_const is not None:
            parts.append(branch.item_const.dtype)
        if branch.user_const is not None:
            parts.append(branch.user_const.dtype)
    return np.result_type(*parts)


#: OpenBLAS sends a product of at most this many output entries to its
#: small-matrix kernel
_SMALL_GEMM_ENTRIES = 1200

#: the multiples :data:`ROW_MULTIPLE` and :data:`COL_MULTIPLE` are probed
#: from, smallest first
_ROW_MULTIPLES = (24, 48, 96)
_COL_MULTIPLES = (8, 16, 32)

#: ``(dtype, dot length, width)`` of the probed products: lengths and widths
#: off multiples of 8, a width past 192 and one under the small-matrix floor
_PROBE_SHAPES = [
    (dtype, d, width)
    for dtype in (np.float32, np.float64)
    for d, width in ((65, 203), (16, 77), (48, 33))
]


def _padded_height(n_rows: int, width: int, multiple: int) -> int:
    floor = _SMALL_GEMM_ENTRIES // max(width, 1) + 1
    return -(-max(n_rows, floor) // multiple) * multiple if n_rows > 0 else 0


def gathers_reproduce(rows: np.ndarray, cols: np.ndarray, heights) -> bool:
    """Whether each row of ``rows @ cols.T`` keeps its bits when recomputed,
    gathered in another order, in products of each of ``heights`` rows.
    Which kernel a product lands on is the BLAS's business: it is observed
    here, not assumed."""
    full = rows @ cols.T
    for height in heights:
        ids = (len(rows) - 1 - np.arange(height) * 7) % len(rows)
        if (rows[ids] @ cols.T).tobytes() != full[ids].tobytes():
            return False
    return True


def _first_multiple(multiples, reproduces, unstable: str) -> int:
    """The first of ``multiples`` that ``reproduces``; if none does (a
    multi-threaded BLAS splits large products), the last, and a
    ``RuntimeWarning`` that ``unstable``, naming the fix."""
    for multiple in multiples:
        if reproduces(multiple):
            return multiple
    warnings.warn(
        f"no multiple in {multiples} reproduces on this BLAS, so {multiples[-1]} is used and "
        f"{unstable}; set OPENBLAS_NUM_THREADS=1 before NumPy loads (python -m repro does)",
        RuntimeWarning,
    )
    return multiples[-1]


def _rows_reproduce(multiple: int) -> bool:
    """No probed row's bits depend on its product's padded height, against
    a reference every candidate divides."""
    rng = np.random.default_rng(0)
    return all(
        gathers_reproduce(
            rng.standard_normal((4 * _ROW_MULTIPLES[-1], d)).astype(dtype),
            rng.standard_normal((width, d)).astype(dtype),
            [_padded_height(1, width, multiple) + step * multiple for step in range(3)],
        )
        for dtype, d, width in _PROBE_SHAPES
    )


def _cols_reproduce(multiple: int) -> bool:
    """No probed column's bits depend on where its product's window of
    items starts or how many it spans, against the product over a table
    every candidate divides."""
    rng = np.random.default_rng(1)
    for dtype, d, width in _PROBE_SHAPES:
        users = rng.standard_normal((2 * _ROW_MULTIPLES[-1], d)).astype(dtype)
        n_items = -(-width // _COL_MULTIPLES[-1]) * _COL_MULTIPLES[-1]
        items = rng.standard_normal((n_items, d)).astype(dtype)
        full = users @ items.T
        for cols in (multiple, 3 * multiple):
            for lo in (1, len(items) - cols - 3):
                window = slice(lo, lo + cols)
                if lo >= 0 and (users @ items[window].T).tobytes() != full[:, window].tobytes():
                    return False
    return True


#: every score or distance product runs at a multiple of this many rows
#: (:func:`gemm_rows`); probed once per process, never configured
ROW_MULTIPLE = _first_multiple(_ROW_MULTIPLES, _rows_reproduce, "a row's scores may depend on its batch")

#: every score product spans a multiple of this many items
#: (:func:`gemm_cols`); probed once per process, never configured
COL_MULTIPLE = _first_multiple(_COL_MULTIPLES, _cols_reproduce, "a score may depend on its item layout")


def gemm_rows(n_rows: int, width: int) -> int:
    """The height a product of ``n_rows`` rows by ``width`` columns runs at:
    past ``_SMALL_GEMM_ENTRIES`` outputs, rounded up to :data:`ROW_MULTIPLE`.

    GEMV (one row), the small-matrix kernel and a partial micro-tile's edge
    kernel each sum a dot product in their own order; at this height, the
    padding rows dropped, a row gets the same bits in any batch.
    """
    return _padded_height(n_rows, width, ROW_MULTIPLE)


def gemm_cols(width: int) -> int:
    """The item count a score product over ``width`` items runs at, rounded
    up to :data:`COL_MULTIPLE`: over this many items of one table, the extra
    columns dropped, a score gets the same bits in any item layout."""
    return -(-width // COL_MULTIPLE) * COL_MULTIPLE


def padded_rows(ids: np.ndarray, width: int) -> np.ndarray:
    """``ids`` followed by copies of ``ids[0]`` up to :func:`gemm_rows`
    entries: the row gather of a product whose first ``len(ids)`` rows
    are kept."""
    return np.concatenate((ids, ids[:1].repeat(gemm_rows(len(ids), width) - len(ids))))


def _product(user, item, users, pads: dict, start: int, stop: int, out=None) -> np.ndarray:
    """``user[users] @ item[start:stop].T`` from products of :func:`gemm_rows`
    rows by :func:`gemm_cols` items of ``item``: the window at ``start``,
    shifted left at the table's end; where none fits, a body of whole
    multiples and the last :data:`COL_MULTIPLE` items; a shorter table is
    copied, zero-padded.  The body, or the one product, lands in ``out``;
    ``pads`` keeps the padded ``users`` per product width across branches."""
    width, n = stop - start, len(item)
    cols = gemm_cols(width)
    if cols <= n:
        lo = min(start, n - cols)
        if cols not in pads:
            pads[cols] = padded_rows(users, cols)
        target = None if out is None else out[: len(pads[cols]), :cols]
        product = np.matmul(user[pads[cols]], item[lo : lo + cols].T, out=target)
        return product[: len(users), start - lo : stop - lo]
    if n < COL_MULTIPLE:
        table = np.concatenate([item, np.zeros((cols - n, item.shape[1]), item.dtype)])
        return _product(user, table, users, pads, start, stop, out)
    body = width - width % COL_MULTIPLE
    if out is None:
        out = np.empty((gemm_rows(len(users), body), width), np.result_type(user, item))
    _product(user, item, users, pads, start, start + body, out)
    tail = _product(user, item, users, pads, stop - COL_MULTIPLE, stop)
    out[: len(users), body:width] = tail[:, body - width :]
    return out[: len(users), :width]


def score_branches(
    branches: List[ScoreBranch],
    users: np.ndarray,
    start: int = 0,
    stop: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dense ``(len(users), stop - start)`` scores from branch factors.

    THE scoring kernel: :meth:`Recommender.predict_scores` (live eval) and
    :class:`~repro.serving.index.EmbeddingIndex` (frozen serving) both call
    it, which is what guarantees exported indexes reproduce live scores
    bit-for-bit — same operations, same order, one implementation.  Each
    product runs at :func:`gemm_rows` height and :func:`gemm_cols` width,
    so a score is the same bits in any batch and any item layout.

    ``out`` (and, for multi-branch factorizations, ``scratch``) lets hot
    callers reuse preallocated :func:`gemm_rows` x :func:`gemm_cols`
    buffers: results are written into ``out`` and a view of it is returned,
    with no per-call allocation beyond the user-row gathers.  The in-place
    path applies the same operations in the same order as the allocating
    path, so scores are bit-identical either way.  Buffers whose dtype or
    shape does not fit are ignored (the allocating path runs instead), so a
    mismatched hint can never change results.
    """
    users = np.asarray(users, dtype=np.int64)
    n_items = branches[0].item.shape[0]
    if stop is None:
        stop = n_items
    width = stop - start
    cols, pads = gemm_cols(width), {}
    # the product written into the buffer: the body, when no window fits
    split = cols > n_items >= COL_MULTIPLE
    rows = gemm_rows(len(users), width - width % COL_MULTIPLE if split else cols)

    dtypes = {f.dtype for b in branches for f in (b.user, b.item, b.item_const, b.user_const) if f is not None}
    dtype = np.result_type(*dtypes)

    def fits(buffer: Optional[np.ndarray]) -> bool:
        return buffer is not None and buffer.dtype == dtype and (
            buffer.shape[0] >= rows and buffer.shape[1] >= cols
        )

    if len(dtypes) == 1 and fits(out):
        for i, branch in enumerate(branches):
            if i and not fits(scratch):
                scratch = np.empty_like(out)
            part = _product(branch.user, branch.item, users, pads, start, stop, scratch if i else out)
            if branch.item_const is not None:
                np.add(part, branch.item_const[None, start:stop], out=part)
            if branch.user_const is not None:
                np.add(part, branch.user_const[users][:, None], out=part)
            if branch.weight != 1.0:
                np.multiply(part, branch.weight, out=part)
            view = np.add(view, part, out=view) if i else part
        return view

    total: Optional[np.ndarray] = None
    for branch in branches:
        part = _product(branch.user, branch.item, users, pads, start, stop)
        if branch.item_const is not None:
            part = part + branch.item_const[None, start:stop]
        if branch.user_const is not None:
            part = part + branch.user_const[users][:, None]
        if branch.weight != 1.0:
            part = branch.weight * part
        total = part if total is None else total + part
    return total


def expand_csr_rows(indptr: np.ndarray, indices: np.ndarray, users: np.ndarray):
    """Expand CSR slices for ``users`` into ``(rows, cols)`` scatter pairs.

    ``rows`` indexes into ``users`` (0..len(users)-1) and ``cols`` is the
    concatenation of ``indices[indptr[u]:indptr[u+1]]`` per user — computed
    as one vectorized multi-range gather, no per-user Python loop.  Returns
    ``(None, None)`` when every selected slice is empty.  Shared by the
    batch-inference kernel and the serial evaluation fallback for masking
    train positives out of score matrices.
    """
    starts = indptr[users]
    counts = indptr[users + 1] - starts
    total = int(counts.sum())
    if not total:
        return None, None
    rows = np.repeat(np.arange(len(users)), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.repeat(starts - offsets, counts) + np.arange(total)
    return rows, indices[positions]
