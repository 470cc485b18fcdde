"""Protocol simulation and attack constructions for semi-quantum key distribution.

The protocol family modeled here: A (fully quantum) sends qubits through a
two-way channel to B (classical), who either measures in the Z basis and
resends the result, or reflects the qubit untouched. An eavesdropper with a
private ancilla E attacks both channel directions. Three equivalent attack
parameterizations are implemented, together with the constructive reductions
between them:

* :class:`CollectiveAttack` -- an arbitrary unitary pair (forward, reverse)
  on the transit qubit T and the ancilla E.
* :class:`RestrictedAttack` -- the normal form (q0, q1, eta0, eta1, U): a
  biasing forward isometry with a two-dimensional ancilla followed by an
  arbitrary reverse unitary. :func:`derive_restricted_from_collective`
  converts any collective attack into this form without changing the joint
  state A and B can observe.
* :class:`ReducedAttack` -- the one-shot form (p0, V) against the protocol
  variant in which B themselves prepares the two-qubit state, with V the
  isometry that B's two preparation branches see; the rewind isometry
  (:func:`build_rewind`) converts a restricted attack into this form with
  exactly the same joint state on (A1, A2, B, E). Its three round states are
  read-only vectors, each built on first read and held, as the other two
  forms hold their round maps; key states and noise statistics are read
  straight off their rows (a block of a key state is one product of a
  round vector's A1 = a rows, a probability a sum of |psi|^2 over E), and
  only :func:`simulate_reduced` forms a full density operator.

B's measure-and-resend is modeled as a CNOT onto a private register, so every
simulated round stays pure: each attack holds its two-way round map, and the
simulators return the projector of its image, an exact density operator.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DensityOperator,
    SubsystemLayout,
    _check_integer,
    _check_range,
    _haar_unitaries,
    _isometry_residual,
    _number,
    _pure_marginal,
    basis_state,
    complete_isometry,
    embed_operator,
    haar_random_unitary,
    layout,
)
from .tolerances import DEFAULT as TOL

__all__ = [
    "MEASURE_RESEND",
    "REFLECT",
    "CollectiveAttack",
    "RestrictedAttack",
    "ReducedAttack",
    "NoiseStats",
    "alice_states",
    "bob_operation",
    "forward_isometry",
    "derive_restricted_from_collective",
    "simulate_sqkd",
    "simulate_entangled_sqkd",
    "build_rewind",
    "derive_reduced_attack",
    "simulate_reduced",
    "reduced_round_states",
    "estimate_noise_stats",
    "random_collective_attack",
    "random_restricted_attack",
    "random_symmetric_attack",
]

MEASURE_RESEND = "measure_resend"
REFLECT = "reflect"
_AUX = "aux"  # the reduced protocol's reflect round with a sign flip on its |11> branch

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)

_MAX_D_E = 8  # keeps every full system at dimension <= 64

_REDUCED_LABELS = ("A1", "A2", "B", "E")


def _frozen_isometry(m: np.ndarray, shape: tuple[int, int], what: str) -> np.ndarray:
    # a square isometry is a unitary
    m = np.array(m, dtype=complex)
    if m.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {m.shape}")
    residual = _isometry_residual(m)
    if not residual <= TOL.isometry:
        raise ValueError(f"{what} is not an isometry within tolerance (residual {residual:.3e})")
    m.setflags(write=False)
    return m


def _check_d_e(d_e: int, minimum: int = 1) -> int:
    return _check_integer("ancilla dimension", d_e, minimum, _MAX_D_E)


def _check_attack(attack, *forms: type):
    """``attack`` if it is one of ``forms``; any other type raises TypeError."""
    if not isinstance(attack, forms):
        raise TypeError(f"unsupported attack type {type(attack).__name__}")
    return attack


@dataclass(frozen=True, eq=False)
class CollectiveAttack:
    """Unitary pair (forward, reverse) on T (x) E with ancilla starting at |0>."""

    u_forward: np.ndarray
    u_reverse: np.ndarray
    d_e: int
    _maps: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        d_e = _check_d_e(self.d_e)
        object.__setattr__(self, "d_e", d_e)
        square = (2 * d_e, 2 * d_e)
        object.__setattr__(self, "u_forward", _frozen_isometry(self.u_forward, square, "u_forward"))
        object.__setattr__(self, "u_reverse", _frozen_isometry(self.u_reverse, square, "u_reverse"))

    def __reduce__(self):  # copy and pickle rebuild through the gates, not through __dict__
        return CollectiveAttack, (self.u_forward, self.u_reverse, self.d_e)


@dataclass(frozen=True, eq=False)
class RestrictedAttack:
    """Normal-form attack (q0, q1, eta0, eta1, U).

    Forward direction: the biasing isometry F of :func:`forward_isometry`,
    which keeps |0> with amplitude q0 and |1> with amplitude q1 and leaks
    the flip events into E's first two levels, in states set by eta0 and
    eta1. Reverse direction: the arbitrary unitary U on T (x) E.
    The parameters must satisfy

        q0 * eta1 * sqrt(1 - q1^2) + q1 * conj(eta0) * sqrt(1 - q0^2) = 0,

    the off-diagonal entry of F*F - I: the constructor builds F and holds it
    read-only, behind the gate F*F = I at U's bound, TOL.isometry.
    """

    q0: float
    q1: float
    eta0: complex
    eta1: complex
    u: np.ndarray
    d_e: int
    _f: np.ndarray = field(init=False, repr=False, compare=False)
    _maps: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        d_e = _check_d_e(self.d_e, minimum=2)
        object.__setattr__(self, "d_e", d_e)
        for name in ("q0", "q1"):
            object.__setattr__(self, name, _check_range(name, getattr(self, name), 0.0, 1.0))
        for name in ("eta0", "eta1"):
            value = _number(name, getattr(self, name), complex, "a number")
            _check_range(f"|{name}|", abs(value), 0.0, 1.0)
            object.__setattr__(self, name, value)
        e = np.array([self.eta0, math.sqrt(max(0.0, 1.0 - abs(self.eta0) ** 2))], dtype=complex)
        f = np.array([self.eta1, math.sqrt(max(0.0, 1.0 - abs(self.eta1) ** 2))], dtype=complex)
        out = np.zeros((2, d_e, 2), dtype=complex)  # (T, E, input)
        out[0, 0, 0] = self.q0
        out[1, :2, 0] = math.sqrt(max(0.0, 1.0 - self.q0**2)) * e
        out[0, :2, 1] = math.sqrt(max(0.0, 1.0 - self.q1**2)) * f
        out[1, 0, 1] = self.q1
        what = "F (the parameter constraint F*F = I)"
        object.__setattr__(self, "_f", _frozen_isometry(out.reshape(2 * d_e, 2), (2 * d_e, 2), what))
        object.__setattr__(self, "u", _frozen_isometry(self.u, (2 * d_e, 2 * d_e), "u"))

    def __reduce__(self):  # as CollectiveAttack's
        return RestrictedAttack, (self.q0, self.q1, self.eta0, self.eta1, self.u, self.d_e)


@dataclass(frozen=True, eq=False)
class ReducedAttack:
    """One-shot attack (p0, V) on the protocol where B prepares both qubits.

    B prepares sqrt(p0)|000> + sqrt(1-p0)|11b> on (A1, A2, B), b = 0 on
    reflect and b = 1 on measure-and-resend rounds, and E starts in |0>,
    so the attack is the read-only (4 d_e, 2) isometry ``v`` whose columns
    are its images of |000> and |110> on (A1, A2, E). The private ``_maps``
    holds the round vectors that :func:`_round_vector` has built.
    """

    p0: float
    v: np.ndarray
    d_e: int = field(init=False)
    _maps: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p0", _check_range("p0", self.p0, 0.0, 1.0))
        m = np.array(self.v, dtype=complex)
        if m.ndim != 2 or m.shape[0] % 4:
            raise ValueError(f"attack isometry has invalid shape {m.shape}")
        object.__setattr__(self, "d_e", _check_d_e(m.shape[0] // 4))
        object.__setattr__(self, "v", _frozen_isometry(m, (4 * self.d_e, 2), "v"))

    def __reduce__(self):  # as CollectiveAttack's
        return ReducedAttack, (self.p0, self.v)


class NoiseStats(namedtuple("NoiseStats", "q_fwd q_rev q_x")):
    """Observable error rates: forward Z, reverse Z, and X on reflect rounds, each in [0, 1]."""

    __slots__ = ()

    def __new__(cls, q_fwd: float, q_rev: float, q_x: float) -> NoiseStats:
        return tuple.__new__(cls, map(_check_range, cls._fields, (q_fwd, q_rev, q_x), (0.0,) * 3, (1.0,) * 3))

    @classmethod
    def _make(cls, fields) -> NoiseStats:  # what _replace builds through: checked too
        return cls(*fields)


def alice_states() -> list[np.ndarray]:
    """The four preparation states |0>, |1>, |+>, |-> in that order."""
    return [KET0.copy(), KET1.copy(), PLUS.copy(), MINUS.copy()]


def bob_operation(psi: np.ndarray, lay: SubsystemLayout, op: str) -> tuple[np.ndarray, SubsystemLayout]:
    """Apply B's operation to a pure state, appending their private register B after T.

    Measure-and-resend is the CNOT purification: the transit qubit's Z
    value is copied coherently onto a fresh B register, which decoheres T
    in the Z basis exactly like a projective measurement followed by
    resending the outcome. Reflect leaves the state untouched apart from
    the appended |0> register. Returns the new state vector and its layout.
    """
    if op not in (MEASURE_RESEND, REFLECT):
        raise ValueError(f"unknown operation {op!r}")
    if lay.dim_of("T") != 2:  # a layout without T raises in dim_of
        raise ValueError("register 'T' is not a qubit")
    if "B" in lay.labels:
        raise ValueError("input already has a B register")
    t_pos = lay.position("T")
    new_layout = SubsystemLayout(lay.factors[: t_pos + 1] + (("B", 2),) + lay.factors[t_pos + 1 :])
    # copy[t, b]: B's Z value given T's, a copy of it or always 0
    copy = np.eye(2) if op == MEASURE_RESEND else np.array([[1.0, 0.0], [1.0, 0.0]])
    # B's axis goes in right after T's
    left = math.prod(lay.dims[:t_pos])
    out = np.reshape(psi, (left, 2, 1, lay.dim // (2 * left))) * copy.reshape(1, 2, 2, 1)
    return out.reshape(-1), new_layout


def forward_isometry(attack: RestrictedAttack) -> np.ndarray:
    """The forward channel isometry F from T into T (x) E, a read-only (2 d_e, 2) matrix.

    F|0> = q0 |0,0> + sqrt(1-q0^2) |1,e> and
    F|1> = sqrt(1-q1^2) |0,f> + q1 |1,0>, with |e> and |f> the ancilla
    states set by eta0 and eta1 in E's first two levels; its other rows
    are zero. The attack built it once and gated the constraint as F*F = I.
    """
    return _check_attack(attack, RestrictedAttack)._f


@functools.cache
def _layout(labels: tuple[str, ...], d_e: int) -> SubsystemLayout:
    """The one layout over ``labels`` (qubits, and E of dimension d_e) per process: its keys
    are label tuples written in the package and validated d_e <= 8, at most 48 of them."""
    return layout(*((lab, d_e if lab == "E" else 2) for lab in labels))


def _round_map(attack, op: str) -> np.ndarray:
    """The read-only (T B E) x 2 map of A's qubit through the forward map, B's ``op``
    and the reverse unitary, built on first use and held in the attack's ``_maps``.

    A's input rides as a trailing factor, so both columns take the round together.
    """
    _check_attack(attack, CollectiveAttack, RestrictedAttack)
    if op not in (MEASURE_RESEND, REFLECT):
        raise ValueError(f"unknown operation {op!r}")
    if op not in attack._maps:
        if isinstance(attack, CollectiveAttack):
            forward, u_rev = attack.u_forward[:, [0, attack.d_e]], attack.u_reverse
        else:
            forward, u_rev = attack._f, attack.u
        psi, lay = bob_operation(forward.reshape(-1), _layout(("T", "E", "A"), attack.d_e), op)
        # u_rev's input axes take psi's T and E axes (of T, B, E, A); its output axes return to their places
        u_tensor = u_rev.reshape(2, attack.d_e, 2, attack.d_e)
        out = np.tensordot(u_tensor, psi.reshape(lay.dims), axes=([2, 3], [0, 2]))
        m = np.moveaxis(out, [0, 1], [0, 2]).reshape(-1, 2)
        m.setflags(write=False)
        attack._maps[op] = m
    return attack._maps[op]


def derive_restricted_from_collective(attack: CollectiveAttack) -> RestrictedAttack:
    """Convert a collective attack to the restricted normal form.

    Reads the flip amplitudes and conditional ancilla states off the
    forward unitary's images of |0> and |1> (ancilla in |0>), then builds the
    unitary V = diag(V0, V1) over the transit qubit's Z value, each block
    mapping the normal form's two-dimensional ancilla onto the conditional
    states of its Z value. Because V preserves that Z value, it commutes
    with B's CNOT, so folding it into the reverse unitary
    (U = u_reverse . V) leaves the final joint state observable by A and B
    unchanged.

    When a conditional-state overlap is degenerate (|eta| within 1e-8 of
    1) the corresponding V column is unreachable and is completed
    arbitrarily within its Z block.
    """
    d_e = _check_attack(attack, CollectiveAttack).d_e
    if d_e < 2:
        raise ValueError("reduction needs an ancilla of dimension at least 2")
    # the ancilla starts in |0>, so |t, 0> is column t * d_e
    w0 = attack.u_forward[:, 0].reshape(2, d_e)
    w1 = attack.u_forward[:, d_e].reshape(2, d_e)

    def _split(block: np.ndarray) -> tuple[float, np.ndarray]:
        # u_forward passed the isometry gate, so a norm is <= sqrt(1 + 1e-10): clamp the roundoff
        norm = float(np.linalg.norm(block))
        if norm < 1e-12:
            return 0.0, basis_state(d_e, 0)
        return min(norm, 1.0), block / norm

    (alpha, e0), (_, e1) = map(_split, w0)
    (_, e2), (beta, e3) = map(_split, w1)
    eta0 = complex(e3.conj() @ e1)
    eta1 = complex(e0.conj() @ e2)

    def v_block(e: np.ndarray, other: np.ndarray, eta: complex) -> np.ndarray:
        # V on one Z value of T: e, then the part of ``other`` orthogonal to it
        columns = [e]
        if abs(eta) < 1.0 - TOL.eta_degenerate:
            columns.append((other - eta * e) / math.sqrt(1.0 - abs(eta) ** 2))
        return complete_isometry(np.column_stack(columns))

    v = np.zeros((2 * d_e, 2 * d_e), dtype=complex)
    v[:d_e, :d_e] = v_block(e0, e2, eta1)
    v[d_e:, d_e:] = v_block(e3, e1, eta0)
    eta0, eta1 = (eta / max(1.0, abs(eta)) for eta in (eta0, eta1))
    return RestrictedAttack(alpha, beta, eta0, eta1, attack.u_reverse @ v, d_e)


def simulate_sqkd(attack, alice_state: np.ndarray, bob_op: str) -> DensityOperator:
    """One round of the prepare-and-measure protocol under attack.

    A sends ``alice_state`` through the forward channel, B applies
    ``bob_op``, and the qubit returns through the reverse channel. Returns
    the exact joint state over (T, B, E) just before A's final measurement,
    the attack's held round map applied to ``alice_state``.
    """
    a = np.asarray(alice_state, dtype=complex).reshape(-1)
    if a.shape != (2,):
        raise ValueError(f"alice state must be a qubit, got dimension {a.shape}")
    if not abs(np.vdot(a, a).real - 1.0) <= TOL.trace_one:  # the norm^2 gate of from_state
        raise ValueError("alice state is not normalized")
    psi = _round_map(attack, bob_op) @ a
    return DensityOperator.from_state(psi, _layout(("T", "B", "E"), attack.d_e))


def simulate_entangled_sqkd(attack, bob_op: str) -> DensityOperator:
    """One round of the entangled protocol variant under attack.

    A prepares (|00> + |11>)/sqrt(2), keeps qubit A1, and sends the other
    half through the attacked two-way channel exactly as in
    :func:`simulate_sqkd`. Returns the joint state over (A1, A2, B, E).
    """
    # the round map's Choi vector: the Bell pair's A1 = a branch sends |a> through the round
    psi = _round_map(attack, bob_op).T.reshape(-1) / math.sqrt(2.0)
    return DensityOperator.from_state(psi, _layout(_REDUCED_LABELS, attack.d_e))


def build_rewind(attack: RestrictedAttack) -> np.ndarray:
    """The rewind isometry from span{|00>, |11>} on (A1, A2) into (A1, A2) (x) E, a (4 d_e, 2) matrix.

    Undoes the statistics of the forward channel on the two preparations
    the classical party uses, so that a forward-then-reverse attack can be
    replayed against a state B prepares locally. Returns its two columns,
    the forward isometry F read backwards (Rw|tt> ~ sum_a |a, t> (x) <t|F|a>):

        Rw|00> = (q0 |000> + sqrt(1-q1^2) |10f>) / sqrt(1 - q1^2 + q0^2)
        Rw|11> = (sqrt(1-q0^2) |01e> + q1 |110>) / sqrt(1 - q0^2 + q1^2)

    |e> and |f> lie in E's first two levels. A column vanishes only when
    its branch has weight zero (squared norms 2 p0 and 2 (1 - p0)); it is
    then that branch's own basis ket, |000> or |110>, in its own Z block
    of A2. The two columns differ in A2, so they stay orthonormal.
    """
    f = forward_isometry(attack).reshape(2, -1, 2)  # (T, E, input)
    d_e = f.shape[1]
    columns = []
    for t, fallback in ((0, 0), (1, 3 * d_e)):
        column = np.zeros((2, 2, d_e), dtype=complex)  # (A1, A2, E)
        column[:, t, :] = f[t].T
        norm = float(np.linalg.norm(column))
        columns.append(column.reshape(-1) / norm if norm > 1e-12 else basis_state(4 * d_e, fallback))
    return np.column_stack(columns)


def derive_reduced_attack(attack: RestrictedAttack) -> ReducedAttack:
    """Convert a restricted attack into the B-prepares one-shot form.

    The reduced attack prepares nothing itself: it consists of the
    preparation weight p0 = (1 - q1^2 + q0^2) / 2 and the isometry
    (I_A1 (x) U) . Rw on span{|00>, |11>}, Rw the rewind isometry on E.
    The resulting joint state over (A1, A2, B, E) equals the entangled
    protocol's output exactly, for both of B's round types.
    """
    d_e = _check_attack(attack, RestrictedAttack).d_e
    p0 = 0.5 * (1.0 - attack.q1**2 + attack.q0**2)
    reverse = embed_operator(attack.u, _layout(("A1", "A2", "E"), d_e), ["A2", "E"])
    return ReducedAttack(p0, reverse @ build_rewind(attack))


def _round_vector(attack: ReducedAttack, name: str) -> np.ndarray:
    """The read-only round vector amp0 v[:, 0] |B=0> + amp1 v[:, 1] |B=b> on (A1, A2, B, E),
    b = 1 on resend rounds, amp1 negated on the aux run, built on first read and held in
    the attack's ``_maps``."""
    _check_attack(attack, ReducedAttack)
    if name not in attack._maps:
        amp0, amp1 = math.sqrt(attack.p0), math.sqrt(max(0.0, 1.0 - attack.p0))
        # each column's amplitudes on (B = 0, B = 1)
        column1 = {REFLECT: (amp1, 0.0), MEASURE_RESEND: (0.0, amp1), _AUX: (-amp1, 0.0)}[name]
        amps = np.array([(amp0, 0.0), column1]).reshape(2, 2, 1)  # (column, B, E)
        v = attack.v.reshape(4, 1, attack.d_e, 2)  # ((A1, A2), B, E, column)
        psi = (amps[0] * v[..., 0] + amps[1] * v[..., 1]).reshape(-1)
        psi.setflags(write=False)
        attack._maps[name] = psi
    return attack._maps[name]


def _round_state(attack: ReducedAttack, name: str, labels: tuple[str, ...]) -> DensityOperator:
    psi, lay = _round_vector(attack, name), _layout(_REDUCED_LABELS, attack.d_e)
    return DensityOperator._trusted(_pure_marginal(psi, lay, labels), _layout(labels, attack.d_e))


def _resend_distribution(attack: ReducedAttack) -> np.ndarray:
    """P(A1, A2, B) on resend rounds: the resend vector's re^2 + im^2 (its float view) summed over E."""
    return np.square(_round_vector(attack, MEASURE_RESEND).view(float)).reshape(2, 2, 2, -1).sum(axis=3)


def simulate_reduced(attack: ReducedAttack, choice: str) -> DensityOperator:
    """One round of the B-prepares protocol under a reduced attack.

    B prepares sqrt(p0)|000> + sqrt(1-p0)|11b> over (A1, A2, B), with
    b = 0 on reflect rounds and b = 1 on measure-and-resend rounds, and
    the attack isometry acts on (A1, A2, E). Returns the pure joint state
    over (A1, A2, B, E), the projector of the attack's held round vector.
    """
    if choice not in (MEASURE_RESEND, REFLECT):
        raise ValueError(f"unknown operation {choice!r}")
    return DensityOperator.from_state(_round_vector(attack, choice), _layout(_REDUCED_LABELS, attack.d_e))


def reduced_round_states(
    attack: ReducedAttack,
) -> tuple[DensityOperator, DensityOperator, DensityOperator]:
    """Key-register states (A1 measured in Z, everything but E discarded).

    Returns the classical-quantum states over (A1, E) for the three round
    flavors: reflect rounds, measure-and-resend rounds, and the auxiliary
    run whose preparation carries a flipped sign on the |11> branch. The
    resend state must equal the equal mixture of the other two (the B
    register decoheres exactly the branch coherence the sign flip
    negates); a residual above 1e-10 raises ArithmeticError. Each state is
    block-diagonal in A1, its A1 = a block R_a^T conj(R_a) with R_a the round
    vector's A1 = a rows as an (A2 B) x E matrix: one stacked product.
    """
    rows = np.stack([_round_vector(attack, n) for n in (REFLECT, MEASURE_RESEND, _AUX)]).reshape(3, 2, 4, -1)
    blocks, d_e = np.swapaxes(rows, 2, 3) @ rows.conj(), rows.shape[3]  # blocks: (round, A1, E, E)
    keys = np.zeros((3, 2, d_e, 2, d_e), dtype=complex)  # (round, A1, E, A1, E)
    keys[:, 0, :, 0], keys[:, 1, :, 1] = blocks[:, 0], blocks[:, 1]
    reflect, resend, aux = keys.reshape(3, 2 * d_e, 2 * d_e)
    residual = np.max(np.abs(resend - 0.5 * reflect - 0.5 * aux))
    if not residual <= TOL.decomposition:
        raise ArithmeticError(f"round-state decomposition residual {residual:.3e}")
    return tuple(DensityOperator._trusted(k, _layout(("A1", "E"), d_e)) for k in (reflect, resend, aux))


def estimate_noise_stats(attack) -> NoiseStats:
    """Exact channel error rates induced by an attack.

    q_fwd is the probability that B's measured bit differs from A's key
    bit, q_rev the joint probability that the returning qubit's Z value
    differs from B's bit, and q_x the probability that the two X measurements on
    reflect rounds disagree. A reduced attack's are read off its round vectors:
    P(A1, A2, B) is the resend vector's |psi|^2 summed over E, and q_x =
    1/2 - Re(<m3|m0> + <m2|m1>), m_k the reflect vector's (A1 A2) = k row. A two-way
    attack's are Gram marginals of its pure round states, averaged over A's preparations.
    """
    if isinstance(attack, ReducedAttack):
        p = _resend_distribution(attack)
        q_fwd = p[0, :, 1].sum() + p[1, :, 0].sum()
        q_rev = p[:, 0, 1].sum() + p[:, 1, 0].sum()
        m = _round_vector(attack, REFLECT).reshape(4, -1)
        return NoiseStats(q_fwd, q_rev, 0.5 - np.real(np.vdot(m[3], m[0]) + np.vdot(m[2], m[1])))

    # A's four preparations through the held round maps, read as marginals on (T, B, E)
    resend, reflect = _round_map(attack, MEASURE_RESEND), _round_map(attack, REFLECT)
    lay = _layout(("T", "B", "E"), attack.d_e)
    runs = [_pure_marginal(resend @ a, lay, ("T", "B")) for a in (KET0, KET1)]
    p0, p1 = (np.real(np.diagonal(run)).reshape(2, 2) for run in runs)  # P(T, B)
    q_fwd = 0.5 * (p0[:, 1].sum() + p1[:, 0].sum())
    q_rev = 0.5 * (p0[0, 1] + p0[1, 0] + p1[0, 1] + p1[1, 0])
    # A's X outcome on the reflect run of |+> (|->) is the other sign with probability 1/2 -+ Re rho_T[0, 1]
    plus, minus = (_pure_marginal(reflect @ a, lay, ("T",)) for a in (PLUS, MINUS))
    return NoiseStats(q_fwd, q_rev, 0.5 - 0.5 * np.real(plus[0, 1] - minus[0, 1]))


def random_collective_attack(d_e: int, rng: np.random.Generator) -> CollectiveAttack:
    """Haar-random unitary pair on T (x) E."""
    d_e = _check_d_e(d_e, minimum=2)
    return CollectiveAttack(*_haar_unitaries(2 * d_e, rng, 2), d_e)


def _disc_sample(rng: np.random.Generator) -> complex:
    # uniform on the unit disc: sqrt for the radial density
    radius = math.sqrt(rng.uniform(0.0, 1.0))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def random_restricted_attack(d_e: int, rng: np.random.Generator) -> RestrictedAttack:
    """Random restricted attack with a Haar reverse unitary.

    Draws the bias amplitudes uniformly (snapping occasionally to the
    exact endpoints to exercise the degenerate branches) and eta0 from the
    unit disc, then solves the parameter constraint for eta1, rejecting
    draws whose solution leaves the disc.
    """
    d_e = _check_d_e(d_e, minimum=2)
    while True:
        q0, q1 = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))
        snap = rng.uniform(0.0, 1.0)
        if snap < 0.05:
            q0 = float(rng.integers(0, 2))
        elif snap < 0.1:
            q1 = float(rng.integers(0, 2))
        eta0 = _disc_sample(rng)
        c_eta1 = q0 * math.sqrt(max(0.0, 1.0 - q1**2))
        c_eta0 = q1 * math.sqrt(max(0.0, 1.0 - q0**2))
        if c_eta1 < 1e-12:
            eta0 = 0.0 if c_eta0 >= 1e-12 else eta0
            eta1 = _disc_sample(rng)
            break
        eta1 = -c_eta0 * np.conj(eta0) / c_eta1
        if abs(eta1) <= 1.0:
            break
    return RestrictedAttack(q0, q1, eta0, eta1, haar_random_unitary(2 * d_e, rng), d_e)


def random_symmetric_attack(q: float, rng: np.random.Generator, d_e: int = 2) -> RestrictedAttack:
    """Random restricted attack with exact Z error rate q in both directions.

    Returns the :class:`RestrictedAttack` (sqrt(1-q), sqrt(1-q), eta,
    -conj(eta), U), which satisfies the parameter constraint identically,
    with eta uniform on the unit disc. The reverse unitary U is
    C . (R(theta) (x) I) where R is a rotation with flip probability
    sin^2(theta/2) = q and C is Z-controlled on the transit qubit
    (block-diagonal, one Haar unitary on E per Z value). A Z-controlled C
    never changes the Z statistics, so the reverse error rate is exactly q
    while the ancilla correlation stays arbitrary.
    """
    q = _number("q", q)
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"error rate {q} outside [0, 0.5]")
    d_e = _check_d_e(d_e, minimum=2)
    eta = _disc_sample(rng)
    half_theta = math.asin(math.sqrt(q))
    cos, sin = math.cos(half_theta), math.sin(half_theta)
    c0, c1 = _haar_unitaries(d_e, rng, 2)
    # C (R (x) I) block by block: row block t of C is C_t, block (t, s) of R (x) I is R[t, s] I
    u = np.empty((2 * d_e, 2 * d_e), complex)
    u[:d_e, :d_e], u[:d_e, d_e:], u[d_e:, :d_e], u[d_e:, d_e:] = c0 * cos, c0 * -sin, c1 * sin, c1 * cos
    amp = math.sqrt(1.0 - q)
    return RestrictedAttack(amp, amp, eta, -np.conj(eta), u, d_e)
