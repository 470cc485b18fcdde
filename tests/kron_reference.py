"""Kron-side reference constructions that the tests compare the package against."""
import math

import numpy as np


def permute_factors(matrix: np.ndarray, dims: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """Reorder the tensor factors of an operator.

    ``order[i]`` names the original factor that ends up at position ``i``.
    """
    n = len(dims)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of {n} factors")
    t = np.asarray(matrix, dtype=complex).reshape(tuple(dims) * 2)
    axes = list(order) + [n + i for i in order]
    d = math.prod(dims)
    return t.transpose(axes).reshape(d, d)


def embed_by_kron(op: np.ndarray, lay, labels) -> np.ndarray:
    """``op`` on the named factors of ``lay`` lifted to the full space as
    kron(op, I_rest) with its factors then permuted into layout order."""
    positions = [lay.position(lab) for lab in labels]
    dims = lay.dims
    n = len(dims)
    rest = [i for i in range(n) if i not in positions]
    d_rest = math.prod(dims[i] for i in rest)
    full = np.kron(np.asarray(op, dtype=complex), np.eye(d_rest, dtype=complex))
    shape = tuple(dims[i] for i in positions) + tuple(dims[i] for i in rest)
    full = full.reshape(shape * 2)
    inv = [int(i) for i in np.argsort(positions + rest)]
    full = full.transpose(inv + [n + i for i in inv])
    return full.reshape(lay.dim, lay.dim)
