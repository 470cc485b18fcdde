"""The closed-form bound against a 40-digit stdlib ``decimal`` reference.

Each reference function evaluates the same formula as its float
counterpart in :mod:`sqkd.keyrate`, exactly from the float inputs, with
``Decimal.ln`` at 40 significant digits. The floats must agree to 1e-15
and every fixed model's threshold must lie within tol/2 of a ``decimal``
bisection.
"""
import functools
from decimal import Decimal, localcontext

import numpy as np
import pytest

from sqkd.keyrate import (
    DEPOLARIZING,
    EQUAL,
    FLOOR_BRANCH,
    HALF,
    MAIN_BRANCH,
    continuity_bound,
    continuity_penalty,
    key_rate,
    noise_threshold,
)
from sqkd.linalg import binary_entropy

DIGITS = 40
CLOSE = 1e-15
MODELS = (EQUAL, DEPOLARIZING, HALF)
TINY = (5e-324, 1e-300, 1e-100, 1e-20, 1e-12, 1e-8)
Q_X = {
    "equal": lambda q: q,
    "depolarizing": lambda q: 2 * q * (1 - q),
    "half": lambda q: q / 2,
}


def forty_digits(fn):
    @functools.wraps(fn)
    def wrapped(*args):
        with localcontext() as ctx:
            ctx.prec = DIGITS
            return fn(*args)

    return wrapped


@forty_digits
def ref_binary_entropy(x):
    x = Decimal(x)
    if x == 0 or x == 1:
        return Decimal(0)
    return -(x * x.ln() + (1 - x) * (1 - x).ln()) / Decimal(2).ln()


@forty_digits
def ref_continuity_bound(eps):
    eps = Decimal(eps)
    return eps + (1 + eps) * ref_binary_entropy(eps / (1 + eps))


@forty_digits
def ref_continuity_penalty(q):
    q = Decimal(q)
    return ref_continuity_bound(4 * q * (1 - q)) / 2


@forty_digits
def ref_rate(q, model):
    q = Decimal(q)
    s_tau = 1 - ref_binary_entropy(Q_X[model.kind](q))
    delta = ref_continuity_penalty(q)
    g = s_tau - delta if s_tau >= 2 * delta else s_tau / 2
    return g - ref_binary_entropy(q)


@forty_digits
def ref_threshold(model):
    """The root of ref_rate on [0, 1/2], bisected to a width below 1e-19."""
    lo, hi = Decimal(0), Decimal("0.5")
    for _ in range(64):
        mid = (lo + hi) / 2
        if ref_rate(mid, model) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def branch_crossover(model):
    """The two adjacent floats between which key_rate switches from main to floor."""
    grid = np.linspace(0.0, 0.5, 501)
    i = next(i for i, q in enumerate(grid) if key_rate(float(q), model).branch == FLOOR_BRANCH)
    lo, hi = float(grid[i - 1]), float(grid[i])
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if key_rate(mid, model).branch == MAIN_BRANCH:
            lo = mid
        else:
            hi = mid


def test_binary_entropy_matches_decimal():
    xs = [*TINY, *(1.0 - t for t in TINY[3:]), *np.linspace(0.0, 1.0, 1001)]
    for x in xs:
        x = float(x)
        assert abs(binary_entropy(x) - float(ref_binary_entropy(x))) <= CLOSE, x


def test_continuity_terms_match_decimal():
    for value in [*TINY, *np.linspace(0.0, 1.0, 501)]:
        value = float(value)
        assert abs(continuity_bound(value) - float(ref_continuity_bound(value))) <= CLOSE, value
        assert abs(continuity_penalty(value) - float(ref_continuity_penalty(value))) <= CLOSE, value


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_key_rate_matches_decimal(model):
    lo, hi = branch_crossover(model)
    assert key_rate(lo, model).branch == MAIN_BRANCH and key_rate(hi, model).branch == FLOOR_BRANCH
    for q in [*TINY, lo, hi, *np.linspace(0.0, 0.5, 501)]:
        q = float(q)
        assert abs(key_rate(q, model).r - float(ref_rate(q, model))) <= CLOSE, q


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_threshold_matches_decimal_bisection(model):
    tol = 1e-6
    assert abs(Decimal(noise_threshold(model, tol=tol)) - ref_threshold(model)) <= Decimal(tol / 2)
