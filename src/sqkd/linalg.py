"""Dense complex linear algebra and quantum-state bookkeeping.

State vectors and operators are plain numpy arrays with dtype complex128.
Multipartite systems carry a :class:`SubsystemLayout` naming each tensor
factor, so partial traces and measurements address registers by label
instead of by axis arithmetic. Everything here is a pure function of its
inputs; RNG state is always passed explicitly.

States are validated once, where they enter: the public
:class:`DensityOperator` constructor gives a matrix three gates and a state
vector, as :meth:`DensityOperator.from_state` passes it, its norm gate, and
keeps the vector, forming its projector on the first read of ``matrix``.
States derived from a valid one by :func:`partial_trace` or
:func:`measure_register` are built without re-checking, since both maps
preserve Hermiticity, positivity and trace.

Dimensions are small by design (full systems never exceed 64), so all
operations use dense algebra with no attempt at sparsity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Complex, Real

import numpy as np

from .tolerances import DEFAULT as TOL

VALID_LABELS = ("A", "A1", "A2", "B", "T", "E")
_Labels = str | set[str] | tuple[str, ...] | list[str]  # a bare str names one label

__all__ = [
    "VALID_LABELS",
    "SubsystemLayout",
    "layout",
    "DensityOperator",
    "basis_state",
    "embed_operator",
    "partial_trace",
    "trace_norm",
    "trace_distance",
    "binary_entropy",
    "von_neumann_entropy",
    "conditional_entropy",
    "measure_register",
    "haar_random_unitary",
    "complete_isometry",
]


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered, labeled tensor factors of a multipartite Hilbert space.

    ``factors`` is a tuple of (label, dimension) pairs in tensor order.
    Labels are drawn from :data:`VALID_LABELS` and must be unique within
    one layout. Dimensions must be integral (integral floats and numpy
    integers are stored as ``int``) and positive.
    """

    factors: tuple[tuple[str, int], ...]
    _plans: dict = field(init=False, repr=False, compare=False, default_factory=dict)  # see _planned

    def __post_init__(self) -> None:
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in layout: {labels}")
        factors = []
        for lab, dim in self.factors:
            if lab not in VALID_LABELS:
                raise ValueError(f"unknown label {lab!r}; expected one of {VALID_LABELS}")
            # layouts derived from valid ones carry positive ints already
            dim = dim if type(dim) is int and dim >= 1 else _check_integer(f"dimension of {lab!r}", dim, 1)
            factors.append((lab, dim))
        object.__setattr__(self, "factors", tuple(factors))

    @cached_property
    def dim(self) -> int:
        """Total dimension, the product of all factor dimensions."""
        return math.prod(d for _, d in self.factors)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    def position(self, label: str) -> int:
        """Index of the factor carrying ``label``."""
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise ValueError(f"label {label!r} not in layout {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.factors[self.position(label)][1]


def layout(*factors: tuple[str, int]) -> SubsystemLayout:
    """Convenience constructor: ``layout(("T", 2), ("E", 4))``."""
    return SubsystemLayout(tuple((str(lab), d) for lab, d in factors))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A Hermitian, positive-semidefinite, unit-trace matrix with a layout.

    The public constructor validates a square matrix or a state vector and
    stores read-only copies, so instances are safe to share. A matrix must be
    Hermitian and of unit trace entrywise within 1e-10, with eigenvalues >=
    -1e-10: one Cholesky factorization of rho + 1e-10 I succeeds exactly
    when they are. A 1-D ``matrix`` is a state vector psi of length
    ``layout.dim``; its one gate is |<psi|psi> - 1| <= 1e-10, the trace gate
    of |psi><psi|, which is Hermitian and positive by construction. psi is the
    private ``_vector``, and ``matrix`` = |psi><psi| is formed on first read.
    :func:`partial_trace` and :func:`measure_register` derive states from a
    valid one by the private :meth:`_trusted`, which checks nothing.
    """

    matrix: np.ndarray
    layout: SubsystemLayout
    _vector: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim == 1:  # a state vector: a unit vector's projector passes every matrix gate
            if m.shape[0] != self.layout.dim:
                raise ValueError(f"state vector length {len(m)} is not the layout dimension {self.layout.dim}")
            norm2 = np.vdot(m, m).real
            if not abs(norm2 - 1.0) <= TOL.trace_one:  # the projector's trace is norm^2
                raise ValueError(f"state vector norm {math.sqrt(norm2)} is not 1 within tolerance")
            m.setflags(write=False)
            object.__setattr__(self, "_vector", m)
            object.__delattr__(self, "matrix")  # __getattr__ forms it on first read
            return
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got shape {m.shape}")
        if m.shape[0] != self.layout.dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match layout dimension {self.layout.dim}"
            )
        # each gate is written so that a NaN fails it; an inf on the diagonal makes one here
        with np.errstate(invalid="ignore"):
            skew = m - m.conj().T
        if not np.max(np.abs(skew)) <= TOL.hermitian:
            raise ValueError("density operator is not Hermitian within tolerance")
        tr = np.trace(m)
        if not (abs(tr.real - 1.0) <= TOL.trace_one and abs(tr.imag) <= TOL.trace_one):
            raise ValueError(f"density operator trace {tr} is not 1 within tolerance")
        # skew's buffer takes the Hermitian part m - skew / 2, then psd on its diagonal
        hermitian = np.subtract(m, 0.5 * skew, out=skew)
        hermitian.flat[:: m.shape[0] + 1] += TOL.psd  # flat indexes in C order, whatever the memory order
        try:
            np.linalg.cholesky(hermitian)
        except np.linalg.LinAlgError:
            raise ValueError("density operator has a negative eigenvalue beyond tolerance") from None
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __getattr__(self, name: str):  # only a vector state's unread matrix is missing
        if name != "matrix" or self._vector is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m = np.outer(self._vector, self._vector.conj())
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        return m

    def __reduce__(self):  # copy and pickle rebuild through the gates, a pure state from its vector
        return DensityOperator, (self.matrix if self._vector is None else self._vector, self.layout)

    @classmethod
    def _trusted(cls, matrix: np.ndarray, lay: SubsystemLayout) -> "DensityOperator":
        """Wrap a matrix known to be a density operator on ``lay``, without checks."""
        rho = object.__new__(cls)
        matrix.setflags(write=False)
        object.__setattr__(rho, "matrix", matrix)
        object.__setattr__(rho, "layout", lay)
        return rho

    @classmethod
    def from_state(cls, psi: np.ndarray, lay: SubsystemLayout) -> "DensityOperator":
        """Projector |psi><psi| of a normalized state vector of any shape, as the constructor's vector input."""
        return cls(np.asarray(psi, dtype=complex).reshape(-1), lay)

    @property
    def dim(self) -> int:
        return self.layout.dim


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in the given dimension."""
    dim = _check_integer("dimension", dim, 1)
    v = np.zeros(dim, dtype=complex)
    v[_check_integer("basis index", index, 0, dim - 1)] = 1.0
    return v


def _labels(labels: _Labels) -> tuple[str, ...]:
    return (labels,) if isinstance(labels, str) else tuple(labels)


def _planned(build, lay: SubsystemLayout, labels):
    """``build(lay, labels)``, built once and held in ``lay._plans``; invalid labels hold none and raise."""
    plan = lay._plans.get(key := (build, labels))
    if plan is None:
        plan = lay._plans[key] = build(lay, labels)
    return plan


def _embed_plan(lay: SubsystemLayout, labels: tuple[str, ...]):
    positions = [lay.position(lab) for lab in labels]
    if repeated := [lab for lab in labels if labels.count(lab) > 1]:
        raise ValueError(f"label {repeated[0]!r} is named more than once")
    n, k = len(lay.dims), len(positions)
    order = positions + [i for i in range(n) if i not in positions]
    # full's axes: named rows and columns, then the others'; inv[f] is f's place in order
    inv = [order.index(f) for f in range(n)]
    axes = [i if i < k else k + i for i in inv] + [k + i if i < k else n + i for i in inv]
    op_dims, rest_dims = (tuple(lay.dims[i] for i in part) for part in (order[:k], order[k:]))
    eye = np.eye(math.prod(rest_dims), dtype=complex).reshape(rest_dims * 2)
    return math.prod(op_dims), op_dims * 2, eye, axes


def embed_operator(op: np.ndarray, lay: SubsystemLayout, labels: _Labels) -> np.ndarray:
    """Lift an operator acting on the named factors to the full space.

    ``op`` must act on the tensor product of the listed factors in the
    listed order, each named once; identity is applied to every other factor.
    """
    d_act, op_dims, eye, axes = _planned(_embed_plan, lay, _labels(labels))
    op = np.asarray(op, dtype=complex)
    if op.shape != (d_act, d_act):
        raise ValueError(f"operator shape {op.shape} does not match factor dimensions {d_act}")
    return np.multiply.outer(op.reshape(op_dims), eye).transpose(axes).reshape(lay.dim, lay.dim)


def _keep_plan(lay: SubsystemLayout, keep: frozenset[str]):
    """The einsum axes and output that trace out the factors not in ``keep``, and the kept layout."""
    if not keep:
        raise ValueError("keep must name at least one factor")
    if unknown := keep - set(lay.labels):
        raise ValueError(f"labels {sorted(unknown)} not in layout {lay.labels}")
    n, kept = len(lay.factors), [i for i, lab in enumerate(lay.labels) if lab in keep]
    # einsum axes: a traced factor's column axis is its row axis, so it is summed over
    axes = [*range(n), *(n + i if i in kept else i for i in range(n))]
    kept_layout = lay if len(kept) == n else SubsystemLayout(tuple(lay.factors[i] for i in kept))
    return axes, kept + [n + i for i in kept], kept_layout


def partial_trace(rho: DensityOperator, keep: _Labels) -> DensityOperator:
    """Trace out all factors not named in ``keep``.

    The reduced operator keeps the surviving factors in their original
    order; the trace is preserved exactly. Keeping every factor returns ``rho``.
    """
    axes, out, lay = _planned(_keep_plan, rho.layout, frozenset(_labels(keep)))
    if lay is rho.layout:
        return rho
    reduced = np.einsum(rho.matrix.reshape(rho.layout.dims * 2), axes, out)
    return DensityOperator._trusted(reduced.reshape(lay.dim, lay.dim), lay)


def _require_hermitian(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"{what} requires a nonempty square matrix, got shape {m.shape}")
    if not np.max(np.abs(m - m.conj().T)) <= TOL.hermitian_input:
        raise ValueError(f"{what} requires a Hermitian matrix")
    return (m + m.conj().T) / 2


def trace_norm(m: np.ndarray) -> float:
    """Trace norm ||m||_1 of a Hermitian matrix: sum of |eigenvalues|."""
    h = _require_hermitian(m, "trace_norm")
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def trace_distance(r1: DensityOperator, r2: DensityOperator) -> float:
    """Trace distance (1/2)||r1 - r2||_1 between two density operators on one layout.

    Between two states that hold vectors psi and phi (see :meth:`DensityOperator.from_state`)
    it is ||psi - e^{i theta} phi|| sqrt((1 + |c|) / 2), c = <psi|phi>, e^{i theta} = |c| / c:
    the value of sqrt(1 - |c|^2) without its cancellation for nearly equal states.
    Otherwise it is half the sum of the eigenvalue magnitudes of r1 - r2.
    """
    if r1.layout != r2.layout:
        raise ValueError(f"layout mismatch: {r1.layout.factors} vs {r2.layout.factors}")
    if r1._vector is None or r2._vector is None:
        return 0.5 * trace_norm(r1.matrix - r2.matrix)
    c = complex(np.vdot(r1._vector, r2._vector))
    aligned = r1._vector - (abs(c) / c if c else 1.0) * r2._vector
    return math.sqrt(float(np.vdot(aligned, aligned).real) * (1.0 + abs(c)) / 2.0)


def _number(name: str, value, kind: type = float, what: str = "a real number"):
    """``kind(value)``, ``kind`` float or complex. Text (both would parse it), a complex value where
    a float is due (any ``numbers.Complex`` not ``numbers.Real``; numpy's would drop the imaginary
    part), None, what ``kind`` refuses and values beyond float range raise ValueError naming it."""
    try:
        text = isinstance(value, (str, bytes, bytearray, memoryview))  # float() parses each
        # a float or an int matches a plain type of the tuple before the slower ABC check
        if text or kind is float and not isinstance(value, (float, int, Real)) and isinstance(value, Complex):
            raise TypeError
        return kind(value)
    except TypeError:
        raise ValueError(f"{name}={value!r} is not {what}") from None
    except OverflowError:
        raise ValueError(f"{name} is beyond float range") from None


def _check_range(name: str, value: float, low: float, high: float) -> float:
    """``value`` as a float clamped to [low, high]: values within 1e-12 outside the range
    (simulation roundoff) are clamped; anything further out, NaN, or what :func:`_number`
    refuses raises ValueError."""
    if type(value) is not float:  # the key-rate points pass floats, 7 per point
        value = _number(name, value)
    if not low - 1e-12 <= value <= high + 1e-12:
        raise ValueError(f"{name}={value} outside [{low}, {high}]")
    return low if value < low else high if value > high else value + 0.0  # -0.0 reads as 0.0


def _check_integer(name: str, value: float, low: float = -math.inf, high: float = math.inf) -> int:
    """``value`` as an int in [low, high]; what :func:`_number` refuses, a fractional,
    infinite or NaN value, or one outside the bounds raises ValueError."""
    if not _number(name, value, what="an integer").is_integer():
        raise ValueError(f"{name}={value} is not an integer")
    if low <= (value := int(value)) <= high:
        return value
    raise ValueError(f"{name} {value} outside [{low}, {high}]")


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) = -x log2 x - (1-x) log2(1-x), with 0 log 0 := 0.

    Inputs within 1e-12 outside [0, 1] (simulation roundoff) are clamped;
    anything further out raises ValueError.
    """
    x = _check_range("binary_entropy argument", x, 0.0, 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def _entropy_bits(lam: np.ndarray) -> np.ndarray:
    """-sum lam log2 lam in bits over the last axis of an eigenvalue stack.

    Every positive eigenvalue counts, however small; one at or below 0
    (roundoff of a zero eigenvalue) adds 0, as 0 log 0 := 0.
    """
    kept = np.where(lam > 0.0, lam, 1.0)  # 1 log2 1 = 0
    return 0.0 - np.sum(kept * np.log2(kept), axis=-1)  # a pure spectrum reads +0.0, not -0.0


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy S(rho) = -sum_i lam_i log2 lam_i in bits, by :func:`_entropy_bits`."""
    return float(_entropy_bits(np.linalg.eigvalsh(rho.matrix)))


def conditional_entropy(rho: DensityOperator, a: _Labels, b: _Labels) -> float:
    """Conditional von Neumann entropy S(A|B) = S(AB) - S(B).

    ``a`` and ``b`` are disjoint label subsets of the layout; both
    entropies are computed on the relevant reduced operators. An empty
    ``b`` reduces to the plain entropy of ``a``.
    """
    a_set, b_set = set(_labels(a)), set(_labels(b))
    if a_set & b_set:
        raise ValueError(f"label sets overlap: {sorted(a_set & b_set)}")
    if not a_set:
        raise ValueError("conditioned set a must be nonempty")
    s_ab = von_neumann_entropy(partial_trace(rho, a_set | b_set))
    if not b_set:
        return s_ab
    return s_ab - von_neumann_entropy(partial_trace(rho, b_set))


def measure_register(rho: DensityOperator, label: str, basis: str) -> DensityOperator:
    """Non-selective measurement (pinching) of one qubit register.

    Applies sum_k (P_k (x) I) rho (P_k (x) I) with P_k the rank-1
    projectors of the Z or X basis, computed as (rho + S rho S) / 2 with S
    the Pauli operator of that basis on the register; the register becomes
    classical (diagonal) in that basis. Trace-preserving and idempotent.
    On the matrix reshaped to the factor dimensions, S rho S is a sign
    flip (Z) or an index flip (X) of the register's row and column axes.
    """
    lay = rho.layout
    if lay.dim_of(label) != 2:
        raise ValueError(f"register {label!r} is not a qubit")
    basis_name = basis.upper() if isinstance(basis, str) else None
    if basis_name not in ("Z", "X"):
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    n = len(lay.factors)
    axes = (lay.position(label), n + lay.position(label))
    t = rho.matrix.reshape(lay.dims * 2)
    if basis_name == "Z":
        sign_shape = [1] * (2 * n)
        sign_shape[axes[0]] = sign_shape[axes[1]] = 2
        conjugated = t * np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape(sign_shape)
    else:
        conjugated = np.flip(t, axes)
    return DensityOperator._trusted((0.5 * (t + conjugated)).reshape(lay.dim, lay.dim), lay)


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary.

    QR decomposition of a complex Gaussian matrix with the R diagonal
    phase-normalized, which makes the distribution exactly Haar.
    """
    return _haar_unitaries(_check_integer("dimension", dim, 1), rng, 1)[0]


def _haar_unitaries(dim: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Haar unitaries from one draw and one stacked QR: those of ``count``
    successive :func:`haar_random_unitary` calls, each drawing real then imaginary parts."""
    z = rng.standard_normal((count, 2, dim, dim))
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def _isometry_residual(m: np.ndarray) -> float:
    """max |M^dagger M - I| over entries: 0 for an isometry or no columns, NaN if ``m`` holds a NaN."""
    gram = m.conj().T @ m  # a new array: the caller's m stays as it was
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return float(np.abs(gram).max(initial=0.0))


def complete_isometry(columns: np.ndarray) -> np.ndarray:
    """Complete orthonormal columns to a full unitary.

    ``columns`` is an (n, k) array of k mutually orthonormal vectors
    (within 1e-8). Returns an n x n unitary whose first k columns are the
    inputs, completed over the orthogonal complement by one Householder QR
    of ``[columns | I]``.
    """
    cols = np.asarray(columns, dtype=complex)
    if cols.ndim == 1:
        cols = cols.reshape(-1, 1)
    n, k = cols.shape
    if k > n:
        raise ValueError(f"cannot complete {k} columns in dimension {n}")
    if not _isometry_residual(cols) <= TOL.orthonormal:
        raise ValueError("input columns are not orthonormal within tolerance")
    # the first k columns of Q span the inputs; the rest span their complement
    out, _ = np.linalg.qr(np.hstack([cols, np.eye(n, dtype=complex)]))
    out[:, :k] = cols
    return out
