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
