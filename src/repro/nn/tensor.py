"""A small reverse-mode automatic differentiation engine on NumPy arrays.

This module is the computational substrate for the whole reproduction: the
paper implements its models in PyTorch, which is not available offline, so we
provide an equivalent (scalar-loss, reverse-mode) autograd ``Tensor``.

Design notes
------------
* A :class:`Tensor` wraps an ``np.ndarray`` (``float32`` or ``float64``,
  governed by the precision policy in :mod:`repro.nn.precision`), an optional
  gradient buffer, and a closure that propagates gradients to its parents.
  Ops derive their output dtype from their operands and scalar constants are
  coerced to the tensor's own dtype, so a graph built under one policy stays
  in that precision end to end.
* ``backward()`` runs a topological sort over the recorded graph and calls the
  per-node backward closures in reverse order, exactly like a micro-grad style
  engine but with full ndarray broadcasting support.
* The graph is released as it is walked: once a non-leaf node's closure has
  run, so has every consumer of the node, and the walk drops its ``.grad``,
  closure and parent edges.  Forward intermediates and interior gradients
  die with their last consumer, not with the loss; only leaves (every
  ``Parameter``) keep ``.grad``.  Released closures become a sentinel, so a
  second ``backward()`` through a walked graph raises ``RuntimeError``.
  There is no ``retain_graph``: rebuild the graph to differentiate again.
* Broadcasting is undone in the backward pass by :func:`unbroadcast`, which
  sums gradients over broadcast dimensions.
* Sparse support: :meth:`Tensor.sparse_matmul` multiplies a *constant*
  ``scipy.sparse`` matrix with a dense tensor.  The graph adjacency matrix in
  GCNs is constant, so gradients only flow to the dense operand — this is all
  the paper's encoder needs, and it keeps the engine simple.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .precision import SUPPORTED_DTYPES, default_dtype, resolve_dtype

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce input to a float ndarray without copying when possible.

    With ``dtype=None``, arrays already in a supported precision keep it
    (so float32 checkpoints stay float32); everything else is coerced to the
    policy default.
    """
    if dtype is not None:
        dtype = resolve_dtype(dtype)
        if isinstance(value, np.ndarray) and value.dtype == dtype:
            return value
        return np.asarray(value, dtype=dtype)
    if isinstance(value, np.ndarray):
        if value.dtype in SUPPORTED_DTYPES:
            return value
        return value.astype(default_dtype())
    if isinstance(value, np.generic) and value.dtype in SUPPORTED_DTYPES:
        # 0-d results of reductions (e.g. float32 .sum()) keep their precision.
        return np.asarray(value)
    return np.asarray(value, dtype=default_dtype())


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Used by binary-op backward passes: if ``a + b`` broadcast ``b`` up to the
    result shape, the gradient flowing back to ``b`` must be summed over the
    broadcast axes so that ``b.grad.shape == b.shape``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray with reverse-mode autograd.

    Parameters
    ----------
    data:
        The wrapped array. An array already in a supported precision keeps
        its dtype; anything else is coerced to the precision policy's
        default (see :func:`_as_array`).
    requires_grad:
        Whether gradients should be accumulated into ``.grad``.
    parents:
        Graph edges used for the topological sort (internal).
    backward_fn:
        Closure receiving the upstream gradient, responsible for accumulating
        into each parent's ``.grad`` (internal).
    name:
        Optional debugging label.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Iterable["Tensor"] = (),
        backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
        dtype=None,
    ) -> None:
        self.data = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a 0-d/1-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """A detached copy cast to ``dtype`` (no gradient flow)."""
        return Tensor(self.data.astype(resolve_dtype(dtype)), requires_grad=False)

    # ------------------------------------------------------------------
    # Gradient bookkeeping
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        self._accumulate_any(grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor, releasing the graph.

        ``grad`` defaults to ones, which is only sensible for scalar losses —
        a ValueError is raised for non-scalar tensors without an explicit seed.

        Gradients accumulate into the ``.grad`` of leaves (tensors without a
        backward closure, such as every ``Parameter``).  Every other node,
        this tensor included, is released as soon as its closure has run:
        interior ``.grad`` is not kept.  Reaching a released node — a second
        ``backward()``, or one through a tensor of an already walked graph —
        raises ``RuntimeError``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.shape}"
                )

        order: list[Optional[Tensor]] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS post-order: avoids recursion limits on deep graphs.
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate_any(grad)
        # Reverse post-order puts every consumer of a node before it, so once
        # its closure has run nothing reads the node's gradient, closure or
        # parents again; clearing its slot lets the node itself go too.
        for index in range(len(order) - 1, -1, -1):
            node = order[index]
            order[index] = None
            if node._backward_fn is None:
                continue
            if node.grad is not None:
                node._backward_fn(node.grad)
            node.grad = None
            node._backward_fn = _released
            node._parents = ()

    # ------------------------------------------------------------------
    # Binary arithmetic
    # ------------------------------------------------------------------
    def _binary(self, other: ArrayLike, forward, backward_self, backward_other) -> "Tensor":
        # Non-tensor operands adopt this tensor's dtype so scalar constants
        # never promote a float32 graph to float64.
        other_t = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        out_data = forward(self.data, other_t.data)
        requires = self.requires_grad or other_t.requires_grad
        track = requires or self._parents or other_t._parents

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad or self._parents:
                self._accumulate_any(unbroadcast(backward_self(grad, self.data, other_t.data), self.shape))
            if other_t.requires_grad or other_t._parents:
                other_t._accumulate_any(unbroadcast(backward_other(grad, self.data, other_t.data), other_t.shape))

        if not track:
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=requires, parents=(self, other_t), backward_fn=_backward)

    def _accumulate_any(self, grad: np.ndarray, owned: bool = False) -> None:
        """Accumulate gradient whether this is a leaf or an interior node.

        The first contribution is a single-pass copy (not zeros + add): the
        incoming array may be shared between parents or be a broadcast view,
        so it must not be adopted in place.  ``owned=True`` says the caller
        made ``grad`` itself and keeps no reference to it; an owned array of
        this node's dtype and shape is adopted without the copy.
        """
        if self.grad is None:
            if (
                owned
                and isinstance(grad, np.ndarray)
                and grad.dtype == self.data.dtype
                and grad.shape == self.data.shape
            ):
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def __add__(self, other: ArrayLike) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a + b,
            lambda g, a, b: g,
            lambda g, a, b: g,
        )

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a - b,
            lambda g, a, b: g,
            lambda g, a, b: -g,
        )

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a * b,
            lambda g, a, b: g * b,
            lambda g, a, b: g * a,
        )

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a / b,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self.__mul__(-1.0)

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        out_data = self.data**exponent

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_any(grad * exponent * self.data ** (exponent - 1.0))

        if not (self.requires_grad or self._parents):
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=self.requires_grad, parents=(self,), backward_fn=_backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Dense matrix multiply with gradients to both operands."""
        other_t = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        out_data = self.data @ other_t.data
        requires = self.requires_grad or other_t.requires_grad
        track = requires or self._parents or other_t._parents

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad or self._parents:
                if other_t.data.ndim == 1:
                    self._accumulate_any(np.outer(grad, other_t.data) if grad.ndim else grad * other_t.data)
                else:
                    self._accumulate_any(grad @ other_t.data.T, owned=True)
            if other_t.requires_grad or other_t._parents:
                if self.data.ndim == 1:
                    other_t._accumulate_any(np.outer(self.data, grad))
                else:
                    other_t._accumulate_any(self.data.T @ grad, owned=True)

        if not track:
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=requires, parents=(self, other_t), backward_fn=_backward)

    def sparse_matmul(self, matrix: sp.spmatrix, transpose: Optional[sp.spmatrix] = None) -> "Tensor":
        """Compute ``matrix @ self`` for a constant sparse ``matrix``.

        The sparse operand (a graph adjacency) receives no gradient; the
        gradient w.r.t. the dense operand is ``matrix.T @ grad``.  Callers on
        a hot path (GCN encoders) pass the precomputed ``transpose`` so it is
        not rebuilt on every forward; otherwise it is derived lazily when the
        backward pass first needs it.
        """
        if not sp.issparse(matrix):
            raise TypeError(f"expected a scipy sparse matrix, got {type(matrix)!r}")
        csr = matrix.tocsr()
        if csr.dtype != self.data.dtype:
            csr = csr.astype(self.data.dtype)
        out_data = csr @ self.data

        if not (self.requires_grad or self._parents):
            return Tensor(out_data)

        if transpose is not None and not sp.issparse(transpose):
            raise TypeError(f"expected a sparse transpose, got {type(transpose)!r}")
        cached = [transpose]

        def _backward(grad: np.ndarray) -> None:
            if cached[0] is None:
                cached[0] = csr.T.tocsr()
            t = cached[0]
            if t.dtype != grad.dtype:
                t = t.astype(grad.dtype)
            self._accumulate_any(t @ grad, owned=True)

        return Tensor(out_data, requires_grad=self.requires_grad, parents=(self,), backward_fn=_backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def _unary(self, forward, backward) -> "Tensor":
        out_data = forward(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_any(backward(grad, self.data, out_data), owned=True)

        if not (self.requires_grad or self._parents):
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=self.requires_grad, parents=(self,), backward_fn=_backward)

    def tanh(self) -> "Tensor":
        return self._unary(np.tanh, lambda g, x, y: g * (1.0 - y * y))

    def sigmoid(self) -> "Tensor":
        return self._unary(_stable_sigmoid, lambda g, x, y: g * y * (1.0 - y))

    def relu(self) -> "Tensor":
        return self._unary(
            lambda x: np.maximum(x, 0.0),
            lambda g, x, y: g * (x > 0.0),
        )

    def exp(self) -> "Tensor":
        return self._unary(np.exp, lambda g, x, y: g * y)

    def log(self) -> "Tensor":
        return self._unary(np.log, lambda g, x, y: g / x)

    def sqrt(self) -> "Tensor":
        return self._unary(np.sqrt, lambda g, x, y: g * 0.5 / y)

    def softplus(self) -> "Tensor":
        """log(1 + exp(x)) computed stably; used by the BPR loss."""
        return self._unary(
            lambda x: np.logaddexp(0.0, x),
            lambda g, x, y: g * _stable_sigmoid(x),
        )

    # ------------------------------------------------------------------
    # Reductions and shaping
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, tuple]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def _backward(grad: np.ndarray) -> None:
            # _accumulate_any copies on first touch, so broadcast views are safe.
            if axis is None:
                self._accumulate_any(np.broadcast_to(grad, self.shape))
            else:
                g = grad
                if not keepdims:
                    g = np.expand_dims(g, axis=axis)
                self._accumulate_any(np.broadcast_to(g, self.shape))

        if not (self.requires_grad or self._parents):
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=self.requires_grad, parents=(self,), backward_fn=_backward)

    def mean(self, axis: Optional[Union[int, tuple]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_any(grad.reshape(original))

        if not (self.requires_grad or self._parents):
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=self.requires_grad, parents=(self,), backward_fn=_backward)

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_any(grad.T)

        if not (self.requires_grad or self._parents):
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=self.requires_grad, parents=(self,), backward_fn=_backward)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - mirrors numpy's .T
        return self.transpose()

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select rows by integer index (embedding lookup).

        Backward scatters gradients with :func:`scatter_add_rows`, so
        repeated indices accumulate correctly — essential for mini-batches
        sharing users.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out_data = self.data[idx]

        def _backward(grad: np.ndarray) -> None:
            # Scatter straight into the grad buffer: allocating a full-table
            # temporary and adding it afterwards would double the memory
            # traffic of the most frequent backward op in the stack.
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            scatter_add_rows(self.grad, idx, grad)

        if not (self.requires_grad or self._parents):
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=self.requires_grad, parents=(self,), backward_fn=_backward)

    def slice_cols(self, start: int, stop: int) -> "Tensor":
        """Column slice [start:stop) with gradient routing back to the slice."""
        out_data = self.data[:, start:stop]

        def _backward(grad: np.ndarray) -> None:
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[:, start:stop] += grad

        if not (self.requires_grad or self._parents):
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=self.requires_grad, parents=(self,), backward_fn=_backward)

    def dropout(self, rate: float, rng: np.random.Generator, training: bool = True) -> "Tensor":
        """Inverted dropout on features. Identity when not training or rate==0."""
        if not training or rate <= 0.0:
            return self
        return self * Tensor(dropout_mask(self.shape, self.data.dtype, rate, rng))


def dropout_mask(shape: tuple, dtype, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout multipliers ``(u < keep) / keep`` over ``shape``.

    The uniforms ``u`` are one ``rng.random(shape)`` call, drawn natively in
    ``dtype`` (float32 draws are half the memory traffic); the mask then
    overwrites them in place: one pass, no second buffer.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    dtype = np.dtype(dtype)
    keep = 1.0 - rate
    if dtype == np.float32:
        rand = rng.random(shape, dtype=np.float32)
    else:
        rand = rng.random(shape)
    np.divide(rand < keep, dtype.type(keep), out=rand)
    return rand


def _released(grad: np.ndarray) -> None:
    """Stands in for the closure of a node whose backward already ran."""
    raise RuntimeError(
        "backward() reached a node of a graph that was already walked and "
        "released; build the graph again to differentiate it again"
    )


def scatter_add_rows(buffer: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(buffer, indices, values)`` as one 1-D ``np.add.at``.

    ``values`` has shape ``indices.shape + buffer.shape[1:]``: row
    ``indices[p]`` of ``buffer`` receives ``values[p]``.  Each index becomes
    the element offsets of its row, computed from ``buffer``'s strides, and
    the flattened ``values`` are added into a 1-D view of ``buffer``'s
    memory.  Every element receives the same values in the same (index)
    order as the row-wise call, so the sums are bit-identical, but the
    scatter runs through NumPy's 1-D ``ufunc.at`` fast path — about three
    times faster at embedding widths.  ``buffer`` must be dense (C-, F- or
    any axis order of a contiguous block); it is written in place, never
    through a copy.
    """
    idx = np.asarray(indices, dtype=np.int64)
    n_rows = buffer.shape[0]
    if idx.size:
        low, high = int(idx.min()), int(idx.max())
        if low < -n_rows or high >= n_rows:
            bad = low if low < -n_rows else high
            raise IndexError(f"index {bad} is out of bounds for axis 0 with size {n_rows}")
        if low < 0:  # a stride offset would put a negative id before row 0
            idx = np.where(idx < 0, idx + n_rows, idx)
    # Axes by falling stride: a dense buffer is then C-contiguous, and its
    # reshape to 1-D is a view of its memory in address order.
    order = sorted(range(buffer.ndim), key=buffer.strides.__getitem__, reverse=True)
    memory = buffer.transpose(order)
    if not memory.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a dense buffer to write in place")
    steps = [stride // buffer.itemsize for stride in buffer.strides]
    offsets = idx.reshape(-1) * steps[0]
    for size, step in zip(buffer.shape[1:], steps[1:]):
        offsets = offsets[..., None] + np.arange(size, dtype=np.int64) * step
    np.add.at(memory.reshape(-1), offsets.reshape(-1), np.asarray(values).reshape(-1))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function, split on sign so ``exp`` never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat() requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    requires = any(t.requires_grad for t in tensors)
    track = requires or any(t._parents for t in tensors)

    def _backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad or tensor._parents:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate_any(grad[tuple(slicer)])

    if not track:
        return Tensor(out_data)
    return Tensor(out_data, requires_grad=requires, parents=tuple(tensors), backward_fn=_backward)


def stack_sum(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise sum of same-shaped tensors (`a + b + c` without chaining)."""
    result = tensors[0]
    for tensor in tensors[1:]:
        result = result + tensor
    return result
