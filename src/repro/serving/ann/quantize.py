"""Int8 scalar quantization of frozen item factors.

A :class:`QuantizedIndex` compresses the item side of an
:class:`~repro.serving.index.EmbeddingIndex` to int8 — one affine
``scale`` / ``zero_point`` pair per score branch, so PUP's multi-branch
``score_branches`` layout (global + category branches with different value
ranges) quantizes each branch against its own range instead of the union.
User factors, branch constants, and weights stay in the index's float
dtype: they are tiny compared to the catalog, and keeping the constants
exact means quantization error comes only from the item-factor dot
products.

Scoring is **integer-accumulated**: queries are quantized symmetrically
per user row (scale ``max|u|/127``, zero point 0), and the dot product
accumulates products of the int8 codes exactly.  For factor dims up to
1024 the accumulation runs through float32 BLAS — every partial sum is an
integer below 2^24 (``127 * 128 * 1024 < 2^24``), so float32 represents it
exactly and the result is bit-identical to int64 accumulation while
keeping sgemm speed.  Wider factorizations fall back to an int64 matmul.

The quantized scores dequantize as

    u . v_hat  =  s_u * s_v * (acc - z_v * sum(q_u))

with per-element item error bounded by ``s_v / 2`` and per-row query error
by ``s_u / 2``, which bounds the score error of a ``d``-dim branch by
``~d/2 * (s_u * |v|_max + s_v * |u|_max)`` — small against typical score
gaps, and measured (not assumed) by the recall harness in
:mod:`repro.eval.ann`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...core.base import ScoreBranch, branches_dtype
from ...eval.topk import NEG_INF, topk_indices_rows
from ...obs.trace import maybe_span
from .base import AnnIndex

#: widest factor dim for which float32 accumulation of int8 products is
#: exact: 127 * 128 * 1024 = 16,646,144 < 2^24 = 16,777,216
_EXACT_F32_DIM = 1024


@dataclass
class QuantizedBranch:
    """Int8 codes for one branch's item factors.

    ``v_hat = scale * (q - zero)`` reconstructs the factor values; ``zero``
    lives in the quantized domain (it may exceed int8 range for factor
    distributions far from zero — it is metadata, not a stored code).
    """

    q_item: np.ndarray  # (n_items, d) int8
    scale: float
    zero: int

    @property
    def max_abs_error(self) -> float:
        """Worst-case per-element reconstruction error (half a step)."""
        return self.scale / 2.0

    def dequantized(self, dtype=np.float64) -> np.ndarray:
        """Reconstructed item factors (for tests and error analysis)."""
        return (self.q_item.astype(dtype) - dtype(self.zero)) * dtype(self.scale)


def quantize_items(item: np.ndarray) -> QuantizedBranch:
    """Affine int8 quantization of one branch's ``(n_items, d)`` factors.

    The code range is symmetric (``[-127, 127]``) so the query-side
    symmetric quantization and the item-side affine quantization share the
    same integer magnitude bound in the accumulator.
    """
    item = np.asarray(item)
    lo = float(item.min()) if item.size else 0.0
    hi = float(item.max()) if item.size else 0.0
    if hi <= lo:
        # Constant factors (including all-zero): one code represents them
        # exactly with zero = -value/scale.
        scale = 1.0 if lo == 0.0 else abs(lo) / 127.0
        zero = int(round(-lo / scale))
        codes = np.clip(np.rint(item / scale) + zero, -127, 127).astype(np.int8)
        return QuantizedBranch(q_item=codes, scale=scale, zero=zero)
    scale = (hi - lo) / 254.0
    zero = int(round(-127.0 - lo / scale))
    codes = np.clip(np.rint(item / scale) + zero, -127, 127).astype(np.int8)
    return QuantizedBranch(q_item=codes, scale=scale, zero=zero)


def quantize_queries(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-row int8 quantization of query (user factor) rows.

    Returns ``(codes, scales)`` where ``codes`` is float32 holding integer
    values in ``[-127, 127]`` (float32 so the accumulation matmul runs in
    BLAS) and ``rows ~= scales[:, None] * codes``.  All-zero rows get scale
    1 and all-zero codes.
    """
    rows = np.asarray(rows)
    peak = np.abs(rows).max(axis=1) if rows.size else np.zeros(rows.shape[0])
    scale = np.where(peak > 0, peak / 127.0, 1.0)
    codes = np.rint(rows / scale[:, None]).astype(np.float32)
    return codes, scale


def accumulate_codes(query_codes: np.ndarray, item_codes: np.ndarray) -> np.ndarray:
    """Exact integer dot products ``query_codes @ item_codes.T``.

    ``query_codes`` is ``(rows, d)`` float32 integers, ``item_codes`` is
    ``(width, d)`` int8.  Up to ``d = 1024`` the product runs through
    float32 BLAS (exact — see module docstring); beyond that it falls back
    to an int64 matmul, slower but still exact.
    """
    d = item_codes.shape[1]
    if d <= _EXACT_F32_DIM:
        return query_codes @ item_codes.astype(np.float32).T
    return (
        query_codes.astype(np.int64) @ item_codes.astype(np.int64).T
    ).astype(np.float64)


def score_quantized_block(
    branches: Sequence[ScoreBranch],
    quantized: Sequence[QuantizedBranch],
    item_codes: Sequence[np.ndarray],
    item_consts: Sequence[Optional[np.ndarray]],
    users: np.ndarray,
    dtype: np.dtype,
) -> np.ndarray:
    """Approximate scores of ``users`` against pre-sliced item code blocks.

    ``item_codes[b]`` / ``item_consts[b]`` are the branch-``b`` codes and
    (exact, unquantized) item constants for the block being scored — a
    contiguous catalog slice for :meth:`QuantizedIndex.score_block`, a
    permuted per-list slice for the IVF fine stage.  The branch loop
    mirrors :func:`~repro.core.base.score_branches` (weights, item_const,
    user_const applied per branch, branches summed) so quantized and exact
    scores differ only by the factor-product quantization error.
    """
    users = np.asarray(users, dtype=np.int64)
    dtype = np.dtype(dtype)
    total: Optional[np.ndarray] = None
    for branch, qb, codes, const in zip(branches, quantized, item_codes, item_consts):
        query_codes, query_scales = quantize_queries(branch.user[users])
        acc = accumulate_codes(query_codes, codes)
        dequant = (query_scales * qb.scale).astype(dtype)
        part = dequant[:, None] * (
            acc.astype(dtype)
            - dtype.type(qb.zero) * query_codes.sum(axis=1).astype(dtype)[:, None]
        )
        if const is not None:
            part = part + const[None, :].astype(dtype, copy=False)
        if branch.user_const is not None:
            part = part + branch.user_const[users].astype(dtype, copy=False)[:, None]
        if branch.weight != 1.0:
            part = branch.weight * part
        total = part if total is None else total + part
    assert total is not None, "need at least one branch"
    return total


class QuantizedIndex(AnnIndex):
    """Int8-compressed item factors over a source :class:`EmbeddingIndex`.

    Wraps (not copies) the source index: user factors, branch constants,
    catalog metadata, and exclusions are shared; only the item factors are
    replaced by int8 codes — a ~4x (float32) / ~8x (float64) item-side
    memory reduction.  Used standalone it is a full-scan approximate ANN
    index (:meth:`search`); inside :class:`~repro.serving.ann.IVFIndex` it
    supplies the ``int8`` fine-stage scorer.
    """

    def __init__(self, index, quantized: List[QuantizedBranch]) -> None:
        if len(quantized) != len(index.branches):
            raise ValueError(
                f"{len(quantized)} quantized branches for an index with "
                f"{len(index.branches)}"
            )
        for branch, qb in zip(index.branches, quantized):
            if qb.q_item.shape != branch.item.shape:
                raise ValueError("quantized codes disagree with branch factor shapes")
            if qb.q_item.dtype != np.dtype(np.int8):
                raise ValueError("quantized codes must be int8")
        self.index = index
        self.quantized = quantized
        self.n_users = index.n_users
        self.n_items = index.n_items
        self.dtype = branches_dtype(index.branches)

    @classmethod
    def build(cls, index) -> "QuantizedIndex":
        """Quantize every branch of ``index`` (per-branch scale/zero-point)."""
        return cls(index, [quantize_items(branch.item) for branch in index.branches])

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(self, users: np.ndarray) -> np.ndarray:
        """Approximate dense ``(len(users), n_items)`` scores, index dtype."""
        return self.score_block(users, 0, self.n_items)

    def score_block(self, users: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Approximate scores against the item block ``[start, stop)``."""
        return score_quantized_block(
            self.index.branches,
            self.quantized,
            [qb.q_item[start:stop] for qb in self.quantized],
            [
                None if b.item_const is None else b.item_const[start:stop]
                for b in self.index.branches
            ],
            users,
            self.dtype,
        )

    # ------------------------------------------------------------------
    # ANN search surface (shared contract with IVFIndex.search)
    # ------------------------------------------------------------------
    def search(
        self,
        users: np.ndarray,
        k: int,
        nprobe: Optional[int] = None,
        exclude_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        candidate_mask: Optional[np.ndarray] = None,
        tracer=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full-scan approximate top-``k``; ``nprobe`` is accepted and ignored.

        Returns dense ``(len(users), k)`` ``(ids, scores)``; entries past a
        user's unmasked pool are padded with id ``-1`` / score ``-inf``,
        the same sentinel contract as the batch runtime.
        """
        with maybe_span(tracer, "ann.fine", cat="ann", attrs={"scorer": "int8"}):
            users, k, scores = self._masked_scan(users, k, exclude_csr, candidate_mask)
        if scores is None:
            return np.empty((0, k), dtype=np.int64), np.empty((0, k), dtype=self.dtype)
        with maybe_span(tracer, "ann.merge", cat="ann"):
            top = topk_indices_rows(scores, k).astype(np.int64, copy=False)
            top_scores = np.take_along_axis(scores, top, axis=1)
        masked = candidate_mask is not None or exclude_csr is not None
        if masked:
            top = np.where(top_scores > NEG_INF, top, -1)
        return top, top_scores

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    kind = "int8"

    def memory_bytes(self) -> int:
        """Item-side footprint of the int8 codes."""
        return sum(qb.q_item.nbytes for qb in self.quantized)
