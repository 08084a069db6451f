"""A small reverse-mode automatic differentiation engine on NumPy arrays.

The paper implements its models in PyTorch, which is not available offline,
so this module provides an equivalent (scalar-loss, reverse-mode) autograd
:class:`Tensor` over ``float32`` / ``float64`` arrays (the precision policy
in :mod:`repro.nn.precision`); scalar constants take the tensor's dtype, so
a graph stays in one precision end to end.

* Every differentiable op is a registered primitive (:func:`defvjp`): a
  ``forward(needs, *arrays, **params)`` returning the output and the arrays
  its VJP reads (only those the inputs in ``needs`` will want), and a
  ``vjp(grad, *saved)`` returning one contribution per input.  :func:`apply`
  leaves a :class:`Record` on the output — the inputs' gradient slots, the
  saved arrays, a gradient slot — and no forward output, so an intermediate
  no VJP reads dies with its ``Tensor``.  The fused losses and the pairwise
  decoder register the same way.
* ``backward()`` orders the records the root depends on into a tape
  (depth-first post-order), walks it in reverse, so every consumer runs
  before what it reads, and releases each record once its VJP has run;
  only leaves (every ``Parameter``) keep ``.grad``.  Reaching a released
  record raises ``RuntimeError``: rebuild the graph to differentiate again.
* A contribution is an array (adopted if the VJP just made it, else copied
  or added), a function of the slot's buffer (the embedding gather scatters
  into it), or :class:`Deferred` until the slot is read.
* The sparse operand of :meth:`Tensor.sparse_matmul` (a GCN adjacency) is a
  constant: gradients flow to the dense operand only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, NamedTuple, Optional, Sequence, Union

import numpy as np

from .precision import SUPPORTED_DTYPES, default_dtype, resolve_dtype

if TYPE_CHECKING:
    import scipy.sparse as sp

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
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting (if
    ``a + b`` broadcast ``b``, ``b``'s gradient sums over the broadcast axes)."""
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


class Primitive(NamedTuple):
    """A registered op: ``forward(needs, *arrays, **params) -> (out, saved)``
    and ``vjp(grad, *saved)`` -> one contribution (or None) per input."""

    forward: Callable
    vjp: Callable


class Deferred(NamedTuple):
    """A contribution ``add(buffer) -> buffer`` applied, after those before
    it, when its slot's gradient is next read.  A fused VJP defers a part
    that reads only arrays the tape keeps anyway, so an input's gradient is
    not built until its own record needs it."""

    add: Callable


#: op name -> :class:`Primitive`; every op a :class:`Record` can name
REGISTRY: Dict[str, Primitive] = {}


def defvjp(name: str, forward: Callable, vjp: Callable) -> None:
    REGISTRY[name] = Primitive(forward, vjp)


class Record:
    """What backward needs of one op: the inputs' gradient slots (a leaf
    ``Tensor``, another record, or None where no gradient is wanted), the
    arrays the VJP reads, and this output's own gradient slot."""

    __slots__ = ("op", "inputs", "saved", "grad", "shape", "dtype")

    def __init__(self, op: str, inputs: tuple, saved: tuple, out: np.ndarray) -> None:
        self.op, self.inputs, self.saved, self.grad = op, inputs, saved, None
        self.shape, self.dtype = out.shape, out.dtype

    def release(self) -> None:
        self.op, self.inputs, self.saved, self.grad = None, (), None, None


def apply(op: str, *inputs: "Tensor", **params) -> "Tensor":
    """Run primitive ``op`` on ``inputs``; record it if any input needs a gradient."""
    needs = tuple(tensor.requires_grad for tensor in inputs)
    out, saved = REGISTRY[op].forward(needs, *(tensor.data for tensor in inputs), **params)
    result = Tensor(out, requires_grad=any(needs))
    if result.requires_grad:
        slots = tuple(
            (tensor._record or tensor) if need else None for tensor, need in zip(inputs, needs)
        )
        result._record = Record(op, slots, saved, result.data)
    return result


class _Walk:
    """Adds contributions into gradient slots during one ``backward()``."""

    def __init__(self) -> None:
        #: id(slot) -> (slot, its deferred contributions, oldest first)
        self.deferred: Dict[int, tuple] = {}

    def read(self, slot) -> None:  # apply the slot's deferred contributions
        slot, parts = self.deferred.pop(id(slot), (slot, ()))
        for part in parts:
            slot.grad = part.add(slot.grad)

    def run(self, record: Record) -> None:
        """Run ``record``'s VJP into its inputs' slots, then release it."""
        self.read(record)
        if record.grad is not None:
            adopted: list = []
            parts = REGISTRY[record.op].vjp(record.grad, *record.saved)
            for slot, part in zip(record.inputs, parts):
                if slot is not None and part is not None:
                    self.add(slot, part, adopted)
        record.release()

    def add(self, slot, part, adopted: list) -> None:
        """Add ``part`` into ``slot.grad``.  The first array is adopted when
        the VJP just made it (a base array given to no other slot, listed
        in ``adopted``) and copied otherwise."""
        if isinstance(part, Deferred):
            self.deferred.setdefault(id(slot), (slot, []))[1].append(part)
            return
        self.read(slot)
        if callable(part):
            slot.grad = part(slot.grad)
        elif slot.grad is not None:
            slot.grad += part
        elif (
            isinstance(part, np.ndarray)
            and part.base is None
            and (part.dtype, part.shape) == (slot.dtype, slot.shape)
            and not any(part is other for other in adopted)
        ):
            adopted.append(part)
            slot.grad = part
        else:
            slot.grad = np.array(part, dtype=slot.dtype)


def _tape(root: Record) -> list:
    """The records ``root`` depends on, each after every record it reads."""
    order: list = []
    visited: set[int] = set()
    stack: list = [(root, False)]
    # Iterative DFS post-order: avoids recursion limits on deep graphs.
    while stack:
        record, processed = stack.pop()
        if processed:
            order.append(record)
        elif id(record) not in visited:
            if record.op is None:
                raise RuntimeError("backward() reached a record of an already walked graph")
            visited.add(id(record))
            stack.append((record, True))
            for slot in record.inputs:
                if isinstance(slot, Record) and id(slot) not in visited:
                    stack.append((slot, False))
    return order


def _unary(op: str) -> Callable:
    def method(self: "Tensor") -> "Tensor":
        return apply(op, self)

    method.__name__ = op
    return method


class Tensor:
    """An ndarray with reverse-mode autograd.

    ``data`` keeps a supported precision (anything else is coerced to the
    policy default, :func:`_as_array`); ``requires_grad`` makes it a leaf
    whose ``.grad`` gradients accumulate into; ``name`` labels it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_record", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = "", dtype=None) -> None:
        self.data = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._record: Optional[Record] = None
        self.name = name

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

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor, releasing the tape.

        ``grad`` (the seed) defaults to ones, for a scalar only.  Gradients
        accumulate into the ``.grad`` of leaves; a released record — a second
        ``backward()``, or one through a tensor of a walked graph — raises
        ``RuntimeError`` before any gradient moves.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(f"backward() without a seed needs a scalar, got shape {self.shape}")
            seed = np.ones_like(self.data)
        else:
            seed = np.array(_as_array(grad, dtype=self.data.dtype))
            if seed.shape != self.data.shape:
                raise ValueError(f"seed gradient shape {seed.shape} != tensor shape {self.shape}")
        walk = _Walk()
        if self._record is None:
            walk.add(self, seed, [])
            return
        tape = _tape(self._record)
        self._record.grad = seed
        # Reverse post-order puts every consumer of a record before it, so
        # once its VJP has run nothing reads its gradient or saved arrays.
        for index in range(len(tape) - 1, -1, -1):
            walk.run(tape[index])
            tape[index] = None
        for slot, _ in list(walk.deferred.values()):
            walk.read(slot)  # leaves

    def _operand(self, other: ArrayLike) -> "Tensor":
        # Non-tensor operands adopt this tensor's dtype so scalar constants
        # never promote a float32 graph to float64.
        return other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)

    def __add__(self, other: ArrayLike) -> "Tensor":
        return apply("add", self, self._operand(other))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return apply("sub", self, self._operand(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply("mul", self, self._operand(other))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply("truediv", self, self._operand(other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self.__mul__(-1.0)

    def __pow__(self, exponent: float) -> "Tensor":
        return apply("pow", self, exponent=float(exponent))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Dense matrix multiply with gradients to both operands."""
        return apply("matmul", self, self._operand(other))

    def sparse_matmul(self, matrix: sp.spmatrix, transpose: Optional[sp.spmatrix] = None) -> "Tensor":
        """``matrix @ self`` for a constant sparse ``matrix``; the gradient
        is ``matrix.T @ grad``.  GCN encoders pass ``transpose`` as the CSC
        view of their operand (no copy); otherwise backward derives it."""
        import scipy.sparse as sp  # here, not at the top: serving never multiplies

        if not sp.issparse(matrix):
            raise TypeError(f"expected a scipy sparse matrix, got {type(matrix)!r}")
        if transpose is not None and not sp.issparse(transpose):
            raise TypeError(f"expected a sparse transpose, got {type(transpose)!r}")
        csr = matrix.tocsr()
        if csr.dtype != self.data.dtype:
            csr = csr.astype(self.data.dtype)
        return apply("sparse_matmul", self, matrix=csr, transpose=transpose)

    # Elementwise nonlinearities, registered below; softplus is log(1 + e^x).
    tanh = _unary("tanh")
    sigmoid = _unary("sigmoid")
    relu = _unary("relu")
    exp = _unary("exp")
    log = _unary("log")
    sqrt = _unary("sqrt")
    softplus = _unary("softplus")

    def sum(self, axis: Optional[Union[int, tuple]] = None, keepdims: bool = False) -> "Tensor":
        return apply("sum", self, axis=axis, keepdims=keepdims)

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
        return apply("reshape", self, shape=shape)

    def transpose(self) -> "Tensor":
        return apply("transpose", self)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - mirrors numpy's .T
        return self.transpose()

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select rows by integer index (embedding lookup); backward
        scatters with :func:`scatter_add_rows`, so repeated ids accumulate."""
        return apply("gather_rows", self, idx=np.asarray(indices, dtype=np.int64))

    def slice_cols(self, start: int, stop: int) -> "Tensor":
        """Column slice [start:stop) with gradient routing back to the slice."""
        return apply("slice_cols", self, start=start, stop=stop)

    def dropout(self, rate: float, rng: np.random.Generator, training: bool = True) -> "Tensor":
        """Inverted dropout on features. Identity when not training or rate==0."""
        if not training or rate <= 0.0:
            return self
        return self * Tensor(dropout_mask(self.shape, self.data.dtype, rate, rng))


# The primitives.
def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function, split on sign so ``exp`` never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _defbinary(name: str, fn, d_a, d_b, a_reads: str, b_reads: str) -> None:
    """A broadcasting binary op whose ``d_a(g, a, b)`` reads the operands
    named in ``a_reads`` ("a", "b" or both): the forward keeps only those."""

    def forward(needs, a, b):
        reads = (a_reads if needs[0] else "") + (b_reads if needs[1] else "")
        kept = (a if "a" in reads else None, b if "b" in reads else None)
        return fn(a, b), (needs, a.shape, b.shape) + kept

    def vjp(grad, needs, a_shape, b_shape, a, b):
        return (
            unbroadcast(d_a(grad, a, b), a_shape) if needs[0] else None,
            unbroadcast(d_b(grad, a, b), b_shape) if needs[1] else None,
        )

    defvjp(name, forward, vjp)


_defbinary("add", np.add, lambda g, a, b: g, lambda g, a, b: g, "", "")
_defbinary("sub", np.subtract, lambda g, a, b: g, lambda g, a, b: -g, "", "")
_defbinary("mul", np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a, "b", "a")
_defbinary("truediv", np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b), "b", "ab")


def _defunary(name: str, fn, vjp, reads_output: bool) -> None:
    """An elementwise op whose ``vjp(g, v)`` reads its output (``v = y``)
    or its input (``v = x``), never both."""

    def forward(needs, x):
        y = fn(x)
        return y, (y if reads_output else x,)

    defvjp(name, forward, lambda grad, v: (vjp(grad, v),))


_defunary("tanh", np.tanh, lambda g, y: g * (1.0 - y * y), True)
_defunary("sigmoid", _stable_sigmoid, lambda g, y: g * y * (1.0 - y), True)
_defunary("relu", lambda x: np.maximum(x, 0.0), lambda g, x: g * (x > 0.0), False)
_defunary("exp", np.exp, lambda g, y: g * y, True)
_defunary("log", np.log, lambda g, x: g / x, False)
_defunary("sqrt", np.sqrt, lambda g, y: g * 0.5 / y, True)
_defunary("softplus", lambda x: np.logaddexp(0.0, x), lambda g, x: g * _stable_sigmoid(x), False)

defvjp(
    "pow",
    lambda needs, x, exponent: (x**exponent, (x, exponent)),
    lambda grad, x, exponent: (grad * exponent * x ** (exponent - 1.0),),
)


def _matmul_vjp(grad, b, a):
    da = db = None
    if b is not None:
        if b.ndim == 1:
            da = np.outer(grad, b) if grad.ndim else grad * b
        else:
            da = grad @ b.T
    if a is not None:
        db = np.outer(a, grad) if a.ndim == 1 else a.T @ grad
    return da, db


defvjp("matmul", lambda needs, a, b: (a @ b, (b if needs[0] else None, a if needs[1] else None)), _matmul_vjp)


def _sparse_matmul_vjp(grad, matrix, transpose):
    if transpose is None:
        transpose = matrix.T.tocsr()
    if transpose.dtype != grad.dtype:
        transpose = transpose.astype(grad.dtype)
    return (transpose @ grad,)


defvjp(
    "sparse_matmul",
    lambda needs, x, matrix, transpose: (matrix @ x, (matrix if transpose is None else None, transpose)),
    _sparse_matmul_vjp,
)


def _sum_vjp(grad, shape, axis, keepdims):
    # A broadcast view: the slot copies it on first touch.
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis=axis)
    return (np.broadcast_to(grad, shape),)


defvjp(
    "sum",
    lambda needs, x, axis, keepdims: (x.sum(axis=axis, keepdims=keepdims), (x.shape, axis, keepdims)),
    _sum_vjp,
)
defvjp("reshape", lambda needs, x, shape: (x.reshape(shape), (x.shape,)), lambda g, shape: (g.reshape(shape),))
defvjp("transpose", lambda needs, x: (x.T, ()), lambda grad: (grad.T,))


def _into(shape: tuple, dtype, write: Callable) -> Callable:
    """A contribution that ``write``s into the slot's buffer (zeros until
    first touched).  The gather scatters this way: a full-table temporary
    added afterwards would double the traffic of the most frequent op."""

    def add(buffer):
        if buffer is None:
            buffer = np.zeros(shape, dtype=dtype)
        write(buffer)
        return buffer

    return add


defvjp(
    "gather_rows",
    lambda needs, x, idx: (x[idx], (idx, x.shape, x.dtype)),
    lambda grad, idx, shape, dtype: (
        _into(shape, dtype, lambda buffer: scatter_add_rows(buffer, idx, grad)),
    ),
)


def _slice_cols_vjp(grad, start, stop, shape, dtype):
    def write(buffer):
        buffer[:, start:stop] += grad

    return (_into(shape, dtype, write),)


defvjp(
    "slice_cols",
    lambda needs, x, start, stop: (x[:, start:stop], (start, stop, x.shape, x.dtype)),
    _slice_cols_vjp,
)


def _concat_forward(needs, *arrays, axis):
    splits = np.cumsum([array.shape[axis] for array in arrays[:-1]])
    return np.concatenate(arrays, axis=axis), (splits, axis)


defvjp("concat", _concat_forward, lambda grad, splits, axis: np.split(grad, splits, axis=axis))


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


#: elements one pass of a blocked kernel takes: an ``np.add.at`` call of
#: :func:`scatter_add_rows`, or the temporaries of a deferred contribution
BLOCK_ELEMENTS = 1 << 13


def row_blocks(array: np.ndarray) -> list:
    """Slices of ``array``'s rows, each at most :data:`BLOCK_ELEMENTS`
    elements (and at least one row), that cover it in order."""
    step = max(1, BLOCK_ELEMENTS * len(array) // max(array.size, 1))
    return [slice(start, start + step) for start in range(0, len(array), step)]


def scatter_add_rows(buffer: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(buffer, indices, values)`` as 1-D ``np.add.at`` calls.

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
    cols = np.zeros((), dtype=np.int64)  # a row's element offsets, row-major
    for size, step in zip(buffer.shape[1:], steps[1:]):
        cols = cols[..., None] + np.arange(size, dtype=np.int64) * step
    cols, idx = cols.reshape(-1), idx.reshape(-1)
    values = np.asarray(values).reshape(len(idx), cols.size)
    # Blocks of rows in index order add the same values in the same order,
    # and bound the int64 offsets (and add.at's copy of them), which are
    # twice a float32 block's bytes.
    for rows in row_blocks(values):
        offsets = idx[rows, None] * steps[0] + cols
        np.add.at(memory.reshape(-1), offsets.reshape(-1), values[rows].reshape(-1))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat() requires at least one tensor")
    return apply("concat", *tensors, axis=axis)


def stack_sum(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise sum of same-shaped tensors (`a + b + c` without chaining)."""
    result = tensors[0]
    for tensor in tensors[1:]:
        result = result + tensor
    return result
