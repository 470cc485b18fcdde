"""Closed-form key-rate bound and noise-tolerance thresholds.

The asymptotic key rate of the protocol is lower-bounded by

    r(Q) = g(Q, Q_X) - h(Q),

where h is the binary entropy, Q the Z error rate (assumed equal in both
channel directions), Q_X the X error rate on reflect rounds, and g chains
three analytic bounds: an entropic uncertainty relation lower-bounding the
eavesdropper's ignorance on reflect rounds by 1 - h(Q_X), a continuity
penalty delta(Q) for transporting that bound onto key rounds, and a floor
branch covering the regime where the penalty would exceed the bound. The
trade-off between the channel models linking Q_X to Q yields the noise
tolerances found by :func:`noise_threshold`.

All functions here are pure and operate on plain floats; attack
simulations live in :mod:`sqkd.attacks`.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .linalg import _check_integer, _check_range, _number, binary_entropy

__all__ = [
    "MAIN_BRANCH",
    "FLOOR_BRANCH",
    "QxModel",
    "EQUAL",
    "DEPOLARIZING",
    "HALF",
    "explicit",
    "KeyRateReport",
    "ThresholdAtBoundary",
    "continuity_bound",
    "continuity_penalty",
    "reflect_entropy_bound",
    "resend_entropy_bound",
    "key_rate",
    "noise_threshold",
    "keyrate_curve",
]

MAIN_BRANCH = "main"
FLOOR_BRANCH = "floor"

# Q_X as a function of Q for each model kind that takes no value
_FIXED_MODELS = {
    "equal": lambda q: q,
    "depolarizing": lambda q: 2.0 * q * (1.0 - q),
    "half": lambda q: 0.5 * q,
}


@dataclass(frozen=True)
class QxModel:
    """Channel model linking the X error rate to the Z error rate.

    ``equal`` sets Q_X = Q, ``depolarizing`` Q_X = 2Q(1-Q), ``half``
    Q_X = Q/2, and ``explicit`` pins Q_X to a fixed value in [0, 1/2]
    regardless of Q; only ``explicit`` takes a value.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self) -> None:
        value = _number("value", self.value)
        if self.kind == "explicit":
            if not 0.0 <= value <= 0.5:
                raise ValueError(f"explicit X error rate {value} outside [0, 0.5]")
        elif self.kind not in _FIXED_MODELS:
            kinds = (*_FIXED_MODELS, "explicit")
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {kinds}")
        elif value != 0.0:
            raise ValueError(f"model {self.kind!r} takes no value, got {value}")
        object.__setattr__(self, "value", value + 0.0)  # -0.0 reads as 0.0

    def q_x(self, q: float) -> float:
        if self.kind == "explicit":
            return self.value
        return _FIXED_MODELS[self.kind](q)

    @classmethod
    def parse(cls, text: str) -> "QxModel":
        """Parse ``equal``, ``depolarizing``, ``half``, or ``explicit:<value>``."""
        text = text.strip().lower()
        if text in _FIXED_MODELS:
            return cls(text)
        if text.startswith("explicit:"):
            try:
                value = float(text.partition(":")[2])
            except ValueError:
                raise ValueError(f"cannot parse X error rate in {text!r}") from None
            return cls("explicit", value)
        raise ValueError(
            f"unknown model {text!r}; expected {', '.join(_FIXED_MODELS)}, or explicit:<value>"
        )

    def __str__(self) -> str:
        if self.kind == "explicit":
            return f"explicit:{self.value:.12g}"
        return self.kind


EQUAL = QxModel("equal")
DEPOLARIZING = QxModel("depolarizing")
HALF = QxModel("half")


def explicit(value: float) -> QxModel:
    """Model pinning Q_X to a fixed value."""
    return QxModel("explicit", value)


class KeyRateReport(namedtuple("KeyRateReport", "q q_x epsilon delta s_tau_bound branch g r")):
    """All intermediate quantities of one key-rate evaluation, as an immutable named tuple.

    ``epsilon`` is the trace-distance bound 4Q(1-Q), ``delta`` the
    continuity penalty, ``s_tau_bound`` the uncertainty-relation bound
    1 - h(Q_X), ``branch`` which arm of the resend bound applied, ``g``
    the resulting bound on the eavesdropper's ignorance on key rounds,
    and ``r = g - h(Q)`` the key rate. ``COLUMNS`` names the fields in the
    CSV schema, in field order.
    """

    __slots__ = ()
    COLUMNS = ("Q", "Q_X", "epsilon", "delta", "s_tau_bound", "branch", "g", "r")

    def __new__(cls, q: float, q_x: float, epsilon: float, delta: float, s_tau_bound: float,
                branch: str, g: float, r: float) -> KeyRateReport:
        if branch not in (MAIN_BRANCH, FLOOR_BRANCH):
            raise ValueError(f"unknown branch {branch!r}")
        return tuple.__new__(cls, (q, q_x, epsilon, delta, s_tau_bound, branch, g, r))

    @classmethod
    def _make(cls, fields) -> KeyRateReport:  # what _replace builds through: checked too
        return cls(*fields)

    def as_dict(self) -> dict[str, float | str]:
        """Field mapping with the exact column names of the CSV schema."""
        return dict(zip(self.COLUMNS, self))


class ThresholdAtBoundary(RuntimeError):
    """The key rate stayed nonnegative on the whole domain [0, 1/2]."""

    def __init__(self, boundary_rate: float):
        super().__init__(
            f"no sign change on [0, 0.5]: key rate at the boundary is {boundary_rate}"
        )
        self.boundary_rate = boundary_rate


def continuity_bound(eps: float) -> float:
    """Entropy-difference bound eps + (1+eps) h(eps/(1+eps)).

    Two states of a qubit-environment pair at trace distance at most eps
    have conditional entropies S(qubit|environment) differing by at most
    this amount.
    """
    eps = _check_range("eps", eps, 0.0, 1.0)
    if eps == 0.0:
        return 0.0
    return eps + (1.0 + eps) * binary_entropy(eps / (1.0 + eps))


def continuity_penalty(q: float) -> float:
    """The penalty delta(Q) for carrying the reflect-round entropy bound
    over to key rounds:

        delta = 2Q(1-Q) + (1/2 + 2Q(1-Q)) h(4Q(1-Q) / (1 + 4Q(1-Q))),

    which equals half the continuity bound evaluated at eps = 4Q(1-Q),
    the trace-distance bound between the reflect and auxiliary states.
    """
    q = _check_range("Q", q, 0.0, 1.0)
    half_eps = 2.0 * q * (1.0 - q)
    if half_eps == 0.0:
        return 0.0
    eps = 2.0 * half_eps
    return half_eps + (0.5 + half_eps) * binary_entropy(eps / (1.0 + eps))


def reflect_entropy_bound(q_x: float) -> float:
    """Uncertainty-relation bound 1 - h(Q_X) on S(A1^Z|E) in reflect rounds.

    The eavesdropper's uncertainty about the Z value is at least one bit
    minus what the X-basis disagreement reveals.
    """
    q_x = _check_range("Q_X", q_x, 0.0, 0.5)
    return 1.0 - binary_entropy(q_x)


def resend_entropy_bound(s_tau: float, q: float) -> tuple[float, str]:
    """Lower bound on S(A1^Z|E) in key rounds, with the branch taken.

    Key rounds mix the reflect state with an auxiliary state that is
    within trace distance 4Q(1-Q) of it. When the reflect-round bound
    ``s_tau`` is at least twice the continuity penalty, the main branch
    s_tau - delta applies; otherwise concavity alone gives the floor
    branch s_tau / 2. The two branches agree at the crossover.
    """
    s_tau = _check_range("s_tau", s_tau, 0.0, 1.0)
    return _resend_bound(s_tau, continuity_penalty(q))


def _resend_bound(s_tau: float, delta: float) -> tuple[float, str]:
    """:func:`resend_entropy_bound` at a checked ``s_tau`` and the penalty ``delta``."""
    if s_tau >= 2.0 * delta:
        return s_tau - delta, MAIN_BRANCH
    return 0.5 * s_tau, FLOOR_BRANCH


def _point(q: float, model: QxModel) -> tuple[float, float, float, float, float, str, float, float]:
    """The fields of ``key_rate(q, model)``, in order, with one penalty evaluation."""
    q = _check_range("Q", q, 0.0, 0.5)
    q_x = model.q_x(q)
    s_tau = reflect_entropy_bound(q_x)
    delta = continuity_penalty(q)
    g, branch = _resend_bound(_check_range("s_tau", s_tau, 0.0, 1.0), delta)
    return q, q_x, 4.0 * q * (1.0 - q), delta, s_tau, branch, g, g - binary_entropy(q)


def key_rate(q: float, model: QxModel) -> KeyRateReport:
    """Key-rate bound r = g - h(Q) at Z error rate Q under a channel model."""
    if not isinstance(model, QxModel):  # not in _point, the threshold's inner loop
        raise ValueError(f"need a QxModel, got {type(model).__name__}")
    return KeyRateReport(*_point(q, model))


_GRID_STEP = 1e-3


def noise_threshold(model: QxModel, tol: float = 1e-6) -> float:
    """Largest Z error rate with a nonnegative key rate, to precision tol.

    Bisects the indices of a grid of step 1e-3 over [0, 1/2] down to the cell
    where r(Q) turns negative, then that cell down to width ``tol`` (or to two
    adjacent floats) and returns its midpoint. Raises :class:`ThresholdAtBoundary`
    if r(1/2) >= 0, ArithmeticError if r(0) <= 0 (no threshold exists) and
    ValueError for a ``QxModel`` subclass, whose ``q_x`` may break what the
    bisection needs: r is nonincreasing on [0, 1/2]. Each fixed ``q_x`` is
    nondecreasing there and stays in [0, 1/2], where h rises, and ``explicit``
    is constant, so s_tau = 1 - h(Q_X) falls; delta(Q) rises, as 4Q(1-Q) <= 1
    does; ``_resend_bound`` is max(s_tau - delta, s_tau/2), two nonincreasing
    terms; and h(Q) rises.
    """
    if not _number("tol", tol) > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if type(model) is not QxModel:
        raise ValueError(f"need a plain QxModel, whose rate is monotone; got {type(model).__name__}")
    steps = round(0.5 / _GRID_STEP)
    r_0, r_end = (_point(i * _GRID_STEP, model)[-1] for i in (0, steps))
    if r_0 <= 0.0:
        raise ArithmeticError(f"key rate at Q=0 is {r_0}, not positive")
    if r_end >= 0.0:
        raise ThresholdAtBoundary(r_end)
    # the first grid index in [1, steps] with a negative rate
    hi = bisect_left(range(steps), True, 1, steps, key=lambda i: _point(i * _GRID_STEP, model)[-1] < 0.0)
    lo, hi = (hi - 1) * _GRID_STEP, hi * _GRID_STEP
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket is down to adjacent floats
            break
        if _point(mid, model)[-1] >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def keyrate_curve(q_min: float, q_max: float, steps: int, model: QxModel) -> list[KeyRateReport]:
    """Key-rate reports on a uniform grid of ``steps`` points over [q_min, q_max]."""
    q_min = _check_range("q_min", q_min, 0.0, 0.5)
    q_max = _check_range("q_max", q_max, 0.0, 0.5)
    if not q_min < q_max:
        raise ValueError(f"empty range: q_min={q_min} must be below q_max={q_max}")
    steps = _check_integer("steps", steps, 2)
    return [key_rate(float(q), model) for q in np.linspace(q_min, q_max, steps)]
