"""NumPy helpers shared by the training and serving stacks (NumPy only)."""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray, return_index: bool = False, return_inverse: bool = False):
    """``np.unique`` of a 1-D array, from a stable sort and a neighbour mask.

    Same values, first-occurrence indices and inverse as ``np.unique``,
    which NumPy 2.4 implements through ``numpy.ma`` (imported on its first
    call).  Without either flag only the unique values come back, else a
    tuple in ``np.unique``'s order.
    """
    values = np.asarray(values)
    order = None
    if return_index or return_inverse:
        order = np.argsort(values, kind="stable")
        ordered = values[order]
    else:
        ordered = np.sort(values)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if order is None:
        return ordered[first]
    out = [ordered[first]]
    if return_index:
        out.append(order[first])
    if return_inverse:
        inverse = np.empty(len(values), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        out.append(inverse)
    return tuple(out)
