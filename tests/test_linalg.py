"""Tests for the dense linear algebra and state bookkeeping layer."""
import copy
import dataclasses
import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kron_reference import embed_by_kron, permute_factors
from sqkd.tolerances import DEFAULT as TOL
from sqkd.linalg import (
    VALID_LABELS,
    DensityOperator,
    _haar_unitaries,
    _isometry_residual,
    _pure_marginal,
    SubsystemLayout,
    basis_state,
    binary_entropy,
    complete_isometry,
    conditional_entropy,
    embed_operator,
    haar_random_unitary,
    layout,
    measure_register,
    partial_trace,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)

EXACT = 1e-12

# independently computed reference values
H_OF_011 = 0.499915958164528
H_OF_THIRD = 0.918295834054490

BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)


def qubit_rho(psi):
    v = np.asarray(psi, dtype=complex)
    return np.outer(v, v.conj())


def test_layout_basics():
    lay = layout(("A1", 2), ("T", 2), ("E", 3))
    assert lay.dim == 12
    assert lay.labels == ("A1", "T", "E")
    assert lay.dims == (2, 2, 3)
    assert lay.position("E") == 2
    assert lay.dim_of("T") == 2


def test_layout_validation():
    with pytest.raises(ValueError):
        layout(("T", 2), ("T", 3))
    with pytest.raises(ValueError):
        layout(("X", 2))
    with pytest.raises(ValueError):
        layout(("T", 0))
    with pytest.raises(ValueError):
        layout(("T", 2)).position("E")
    with pytest.raises(ValueError, match="not an integer"):
        SubsystemLayout((("T", 2.5),))
    # integral dimensions are stored as int, whatever their type
    assert all(type(d) is int for d in SubsystemLayout((("T", 2.0), ("E", np.int64(3)))).dims)


def test_density_operator_accepts_valid_state():
    rho = DensityOperator(qubit_rho(PLUS), layout(("T", 2)))
    assert rho.dim == 2
    assert abs(np.trace(rho.matrix) - 1.0) < EXACT
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0  # stored matrix is read-only


def test_density_operator_rejects_bad_matrices():
    lay = layout(("T", 2))
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]), lay)  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2), lay)  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]), lay)  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(qubit_rho(PLUS), layout(("T", 2), ("B", 2)))  # dim mismatch
    with pytest.raises(ValueError):
        DensityOperator.from_state(np.array([1.0, 1.0]), lay)  # unnormalized


NON_FINITE = {"nan-off-diagonal": (0, 1, math.nan), "nan-on-diagonal": (1, 1, math.nan), "inf": (0, 0, math.inf)}


@pytest.mark.parametrize(("i", "j", "value"), list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_non_finite_entries_fail_validation(i, j, value):
    # each gate is written so that a NaN fails it; an inf makes one
    lay = layout(("T", 2))
    m = qubit_rho(PLUS)
    m[i, j] = value
    with pytest.raises(ValueError):
        DensityOperator(m, lay)
    psi = PLUS.copy()
    psi[j] = value
    with pytest.raises(ValueError):
        DensityOperator.from_state(psi, lay)


def test_from_state_gates_the_squared_norm_at_the_trace_bound():
    # |norm^2 - 1| <= trace_one: 1 + 4e-11 passes, and 1 + 7.5e-11, whose
    # projector's trace is 1 + 1.5e-10, is rejected as a vector, not as a trace
    lay = layout(("T", 2))
    DensityOperator.from_state(PLUS * (1.0 + 4e-11), lay)
    for excess in (7.5e-11, 1.5e-10):
        with pytest.raises(ValueError, match="state vector norm"):
            DensityOperator.from_state(PLUS * (1.0 + excess), lay)


NORM_SQUARED = (1.0, 1.0 + 0.9e-10, 1.0 - 0.9e-10, 1.0 + 1.1e-10, 1.0 - 1.1e-10)


@st.composite
def vector_cases(draw):
    """(psi, layout): a layout of dimension 1-64, one factor or up to three, and psi of norm^2
    in NORM_SQUARED, flat or in the layout's tensor shape, perhaps with a NaN or an inf entry
    or a wrong length."""
    one_factor = st.integers(1, 64).map(lambda d: [d])
    dims = draw(st.one_of(one_factor, st.lists(st.integers(1, 4), min_size=2, max_size=3)))
    lay = layout(*zip(("E", "T", "B"), dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = lay.dim + draw(st.sampled_from([0, 0, 0, -1, 1]))
    psi = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    psi *= math.sqrt(draw(st.sampled_from(NORM_SQUARED))) / max(np.linalg.norm(psi), 1e-300)
    flaw = draw(st.sampled_from([None, None, math.nan, math.inf, complex(-math.inf, math.inf)]))
    if flaw is not None and length:
        psi[draw(st.integers(0, length - 1))] = flaw
    if length == lay.dim and draw(st.booleans()):
        psi = psi.reshape(lay.dims)
    return psi, lay


@settings(deadline=None, max_examples=200)
@given(vector_cases())
@example((PLUS * math.sqrt(1.0 + 0.9e-10), layout(("T", 2))))
@example((PLUS * math.sqrt(1.0 + 1.1e-10), layout(("T", 2))))
@example((BELL.reshape(2, 2), layout(("A1", 2), ("A2", 2))))
def test_vector_gate_accepts_exactly_what_the_norm_gate_accepts(case):
    psi, lay = case
    v = psi.reshape(-1)
    norm = np.linalg.norm(v)
    expected = v.shape[0] == lay.dim and abs(norm * norm - 1.0) <= TOL.trace_one
    for build in (DensityOperator.from_state, lambda p, lay: DensityOperator(p.reshape(-1), lay)):
        try:
            rho = build(psi, lay)
        except ValueError:
            assert not expected
            continue
        assert expected
        assert rho.matrix.tobytes() == np.outer(v, v.conj()).tobytes()
        assert not rho.matrix.flags.writeable
        DensityOperator(rho.matrix, lay)  # the projector passes the three matrix gates
        assert rho._vector.tobytes() == v.tobytes()
        assert not rho._vector.flags.writeable and not np.shares_memory(rho._vector, psi)


def test_vector_input_names_a_wrong_length():
    with pytest.raises(ValueError, match="^state vector length 3 is not the layout dimension 2$"):
        DensityOperator(np.ones(3) / math.sqrt(3.0), layout(("T", 2)))
    with pytest.raises(ValueError, match="^density operator must be square"):
        DensityOperator(np.ones((1, 2, 2)) / 2.0, layout(("T", 2)))


def accepted(m, lay):
    try:
        DensityOperator(m, lay)
    except ValueError:
        return False
    return True


def test_psd_gate_matches_eigenvalue_reference():
    # U diag(lam) U^dagger with 1, 2 or n - 1 positive eigenvalues (a PSD part
    # of rank 1, 2 or full) and one just inside or just beyond -psd; the gate
    # must decide exactly as the eigensolve does
    rng = np.random.default_rng(31)
    cases = [(np.diag([1.5, -0.5]).astype(complex), False)]
    for n in (2, 8, 32, 64):
        for rank in sorted({1, min(2, n - 1), n - 1}):
            for factor in (0.5, 0.99, 1.01, 2.0):
                lam = np.zeros(n)
                lam[-1] = -factor * TOL.psd
                positive = rng.random(rank) + 0.1
                lam[:rank] = positive / positive.sum() * (1.0 - lam[-1])
                u = haar_random_unitary(n, rng)
                m = (u * lam) @ u.conj().T
                cases.append(((m + m.conj().T) / 2, factor < 1.0))
    for m, expected in cases:
        reference = np.linalg.eigvalsh(m).min() >= -TOL.psd
        lay = layout(("E", m.shape[0]))
        assert accepted(m, lay) == reference == expected


def test_basis_state():
    v = basis_state(4, 2)
    assert v.dtype == complex
    assert np.array_equal(v, np.array([0, 0, 1, 0], dtype=complex))
    with pytest.raises(ValueError):
        basis_state(3, 3)
    # the index is an integer in [0, dim - 1]: a bool is the integer it stands for, not a mask
    assert np.array_equal(basis_state(2, True), basis_state(2, 1))
    assert np.array_equal(basis_state(3, False), basis_state(3, 0))
    assert np.array_equal(basis_state(4, 3.0), basis_state(4, np.int64(3)))
    for bad in (-1, 4, 0.5, "1", float("nan")):
        with pytest.raises(ValueError, match="basis index"):
            basis_state(4, bad)


def test_permute_factors_swaps_kron_order():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    swapped = permute_factors(np.kron(a, b), (2, 3), (1, 0))
    assert np.allclose(swapped, np.kron(b, a))
    # applying a permutation and its inverse is the identity
    c = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    once = permute_factors(c, (2, 3, 2), (2, 0, 1))
    back = permute_factors(once, (2, 2, 3), (1, 2, 0))
    assert np.allclose(back, c)
    with pytest.raises(ValueError):
        permute_factors(c, (2, 3, 2), (0, 0, 1))


def test_embed_operator_single_register():
    lay = layout(("A1", 2), ("T", 2), ("E", 3))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    embedded = embed_operator(x, lay, ["T"])
    expected = np.kron(np.kron(np.eye(2), x), np.eye(3))
    assert np.allclose(embedded, expected)
    with pytest.raises(ValueError):
        embed_operator(x, lay, ["E"])  # dimension mismatch


def test_embed_operator_refuses_a_repeated_label():
    # a label named twice once failed inside numpy ("repeated axis in transpose"); the
    # boundary names it, on every call, since a refused label list holds no plan
    lay = layout(("A1", 2), ("T", 2), ("E", 3))
    for labels in (["E", "E"], ("T", "A1", "T")):
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^label '{labels[-1]}' is named more than once$"):
                embed_operator(np.eye(9, dtype=complex), lay, labels)


def test_isometry_residual_reads_its_input_and_propagates_nan():
    # the identity is subtracted in place from the Gram product, never from the caller's matrix
    rng = np.random.default_rng(61)
    for m in (haar_random_unitary(4, rng), haar_random_unitary(6, rng)[:, :2], basis_state(3, 1).reshape(3, 1)):
        before = m.copy()
        m.setflags(write=False)  # an in-place write to the input would raise
        assert _isometry_residual(m) <= EXACT
        assert np.array_equal(m, before)
    scaled = 2.0 * haar_random_unitary(3, rng)
    assert abs(_isometry_residual(scaled) - 3.0) <= EXACT  # |4 - 1| on the diagonal
    for index in ((0, 0), (2, 1)):
        m = haar_random_unitary(3, rng)
        m[index] = np.nan
        before = m.copy()
        assert math.isnan(_isometry_residual(m))
        assert np.array_equal(m, before, equal_nan=True)


def test_embed_operator_non_adjacent_pair():
    # embed an operator on (T, B) into (T, E, B) where E sits in between
    rng = np.random.default_rng(3)
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lay = layout(("T", 2), ("E", 3), ("B", 2))
    embedded = embed_operator(op, lay, ["T", "B"])
    # reference: embed into (T, B, E) by kron, then permute factors
    direct = np.kron(op, np.eye(3))
    expected = permute_factors(direct, (2, 2, 3), (0, 2, 1))
    assert np.allclose(embedded, expected)
    # listed-order sensitivity: (B, T) embeds the transpose arrangement
    swapped = embed_operator(permute_factors(op, (2, 2), (1, 0)), lay, ["B", "T"])
    assert np.allclose(swapped, embedded)


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_layout(rng):
    """2-4 distinct labels; E gets dimension 2-8, every other factor is a qubit."""
    labels = rng.choice(VALID_LABELS, size=int(rng.integers(2, 5)), replace=False)
    return layout(*((str(lab), int(rng.integers(2, 9)) if lab == "E" else 2) for lab in labels))


def local_cases():
    # fixed adjacent, non-adjacent and reordered label lists, then random ones
    fixed = layout(("A1", 2), ("T", 2), ("B", 2), ("E", 8))
    for labels in (["T", "B"], ["B", "E"], ["A1", "E"], ["T"], ["E", "A1"], ["B", "A1", "E"]):
        yield fixed, labels
    rng = np.random.default_rng(21)
    for _ in range(60):
        lay = random_layout(rng)
        count = int(rng.integers(1, len(lay.labels) + 1))
        yield lay, [str(lab) for lab in rng.choice(lay.labels, size=count, replace=False)]


def test_embed_operator_matches_kron_construction_bitwise():
    rng = np.random.default_rng(23)
    for lay, labels in local_cases():
        op = random_matrix(rng, math.prod(lay.dim_of(lab) for lab in labels))
        assert np.array_equal(embed_operator(op, lay, labels), embed_by_kron(op, lay, labels))


def test_partial_trace_bell_halves():
    rho = DensityOperator.from_state(BELL, layout(("A1", 2), ("A2", 2)))
    for label in ("A1", "A2"):
        reduced = partial_trace(rho, {label})
        assert reduced.layout.labels == (label,)
        assert np.allclose(reduced.matrix, np.eye(2) / 2)


def test_partial_trace_product_and_order():
    rho_a = qubit_rho(PLUS)
    rho_e = np.diag([0.2, 0.3, 0.5]).astype(complex)
    lay = layout(("A1", 2), ("T", 2), ("E", 3))
    full = np.kron(np.kron(rho_a, qubit_rho(basis_state(2, 1))), rho_e)
    rho = DensityOperator(full, lay)
    reduced = partial_trace(rho, {"E", "A1"})
    assert reduced.layout.labels == ("A1", "E")  # original order, not set order
    assert np.allclose(reduced.matrix, np.kron(rho_a, rho_e))
    assert abs(np.trace(reduced.matrix) - 1.0) < EXACT
    for _ in range(2):  # a refused keep set holds no plan, so it raises again
        with pytest.raises(ValueError):
            partial_trace(rho, set())
        with pytest.raises(ValueError):
            partial_trace(rho, {"B"})
    # keeping every factor, in any order, is the identity map: it returns rho itself
    assert partial_trace(rho, {"E", "T", "A1"}) is rho


def test_a_bare_label_string_names_one_factor():
    # a str is one label, not its characters: "A1" once read as {"A", "1"}
    rng = np.random.default_rng(41)
    lay = layout(("A1", 2), ("A2", 2), ("E", 3))
    rho = DensityOperator.from_state(random_unit_vector(rng, lay.dim), lay)
    op = random_matrix(rng, 2)
    for label in ("A1", "E"):
        forms = (label, {label}, (label,), [label])
        reduced = [partial_trace(rho, keep).matrix.tobytes() for keep in forms]
        assert reduced.count(reduced[0]) == len(forms)
        entropies = [conditional_entropy(rho, "A2", b) for b in forms]
        assert entropies.count(entropies[0]) == len(forms)
    embedded = [embed_operator(op, lay, labels).tobytes() for labels in ("A2", {"A2"}, ("A2",), ["A2"])]
    assert embedded.count(embedded[0]) == 4
    with pytest.raises(ValueError, match=r"labels \['A'\] not in layout"):
        partial_trace(rho, "A")


def test_trace_norm_values():
    assert abs(trace_norm(np.diag([3.0, -4.0])) - 7.0) < EXACT
    rng = np.random.default_rng(5)
    for dim in (2, 4, 6):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = m + m.conj().T
        # independent route: the nuclear norm via singular values
        assert abs(trace_norm(h) - np.linalg.svd(h, compute_uv=False).sum()) < 1e-10
    with pytest.raises(ValueError):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        trace_norm(np.zeros((2, 3)))
    # an empty matrix once reached numpy's "zero-size array to reduction operation maximum"
    with pytest.raises(ValueError, match=r"^trace_norm requires a nonempty square matrix, got shape \(0, 0\)$"):
        trace_norm(np.zeros((0, 0)))


def test_trace_distance_reference_values():
    lay = layout(("T", 2))
    zero = DensityOperator(qubit_rho(basis_state(2, 0)), lay)
    one = DensityOperator(qubit_rho(basis_state(2, 1)), lay)
    plus = DensityOperator(qubit_rho(PLUS), lay)
    assert trace_distance(zero, zero) == 0.0
    assert abs(trace_distance(zero, one) - 1.0) < EXACT
    assert abs(trace_distance(zero, plus) - math.sqrt(0.5)) < EXACT
    assert abs(trace_distance(zero, plus) - trace_distance(plus, zero)) < EXACT
    with pytest.raises(ValueError):
        trace_distance(zero, DensityOperator.from_state(BELL, layout(("A1", 2), ("A2", 2))))


def random_unit_vector(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def eigenvalue_trace_distance(r1, r2):
    return 0.5 * trace_norm(r1.matrix - r2.matrix)


def test_from_state_holds_a_read_only_copy_of_its_vector():
    lay = layout(("T", 2))
    psi = PLUS.copy()
    rho = DensityOperator.from_state(psi, lay)
    psi[0] = 1.0
    assert np.array_equal(rho._vector, PLUS)
    with pytest.raises(ValueError):
        rho._vector[0] = 0.0
    # states built any other way hold no vector
    assert DensityOperator(rho.matrix, lay)._vector is None
    assert measure_register(rho, "T", "Z")._vector is None


def test_a_vector_state_forms_its_projector_on_first_read():
    lay = layout(("T", 2), ("E", 3))
    psi = random_unit_vector(np.random.default_rng(35), 6)
    rho = DensityOperator.from_state(psi, lay)
    assert "matrix" not in vars(rho)
    # copies, pickles and repr work while the matrix is unread; a copy rebuilds from the vector
    for copied in (copy.copy(rho), copy.deepcopy(rho), pickle.loads(pickle.dumps(rho))):
        assert "matrix" not in vars(copied) and copied._vector.tobytes() == psi.tobytes()
    assert "matrix" not in vars(rho)
    assert repr(rho) == repr(DensityOperator(np.outer(psi, psi.conj()), lay))
    replaced = dataclasses.replace(rho)  # from the formed matrix, through the three matrix gates
    assert replaced._vector is None and replaced.matrix.tobytes() == rho.matrix.tobytes()
    matrix = rho.matrix
    assert matrix.tobytes() == np.outer(psi, psi.conj()).tobytes()
    assert not matrix.flags.writeable
    assert rho.matrix is matrix  # formed once, then held
    with pytest.raises(AttributeError, match="has no attribute 'vector'"):
        rho.vector
    # against a mixed state, a vector state takes the eigenvalue route, which reads its projector
    fresh = DensityOperator.from_state(psi, lay)
    mixed = DensityOperator(np.eye(6, dtype=complex) / 6.0, lay)
    assert trace_distance(fresh, mixed) == 0.5 * trace_norm(np.outer(psi, psi.conj()) - mixed.matrix)
    assert "matrix" in vars(fresh)


def test_pure_trace_distance_matches_eigenvalue_route():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 8, 32, 64):
        lay = layout(("E", dim))
        for _ in range(10):
            r1 = DensityOperator.from_state(random_unit_vector(rng, dim), lay)
            r2 = DensityOperator.from_state(random_unit_vector(rng, dim), lay)
            assert abs(trace_distance(r1, r2) - eigenvalue_trace_distance(r1, r2)) <= EXACT


def test_pure_trace_distance_ignores_global_phase():
    # sqrt(1 - |<psi|phi>|^2) would report about 1e-8 here
    rng = np.random.default_rng(32)
    for dim in (2, 8, 64):
        lay = layout(("E", dim))
        psi = random_unit_vector(rng, dim)
        for theta in (0.0, 0.3, math.pi / 2, 2.0, math.pi):
            rotated = DensityOperator.from_state(np.exp(1j * theta) * psi, lay)
            assert trace_distance(DensityOperator.from_state(psi, lay), rotated) <= 1e-15


def test_pure_trace_distance_of_orthogonal_states_is_one():
    # a zero overlap has no phase to align; no 0/0 may occur
    lay = layout(("E", 4))
    zero, two = (DensityOperator.from_state(basis_state(4, i), lay) for i in (0, 2))
    assert trace_distance(zero, two) == 1.0
    rng = np.random.default_rng(33)
    psi = random_unit_vector(rng, 4)
    phi = random_unit_vector(rng, 4)
    phi -= np.vdot(psi, phi) * psi
    pair = [DensityOperator.from_state(v / np.linalg.norm(v), lay) for v in (psi, phi)]
    assert abs(trace_distance(*pair) - 1.0) <= 1e-15


def test_trace_distance_with_a_mixed_state_uses_eigenvalues():
    lay = layout(("T", 2), ("E", 2))
    pure = DensityOperator.from_state(random_unit_vector(np.random.default_rng(34), 4), lay)
    mixed = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), lay)
    for pair in ((pure, mixed), (mixed, pure)):
        assert trace_distance(*pair) == eigenvalue_trace_distance(*pair)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_pure_marginal_matches_partial_trace(seed):
    rng = np.random.default_rng(seed)
    random_lay = random_layout(rng)
    size = int(rng.integers(1, len(random_lay.labels) + 1))
    random_keep = {str(lab) for lab in rng.choice(random_lay.labels, size=size, replace=False)}
    key_lay = layout(("A1", 2), ("A2", 2), ("B", 2), ("E", 3))
    # a random layout and keep set, then the non-adjacent pair the key states keep
    for lay, keep in ((random_lay, random_keep), (key_lay, {"E", "A1"})):
        psi = random_unit_vector(rng, lay.dim)
        reference = partial_trace(DensityOperator.from_state(psi, lay), keep)
        # a matrix on the kept factors in layout order, whatever the order of keep
        marginal = _pure_marginal(psi, lay, keep)
        assert marginal.shape == reference.matrix.shape
        assert np.max(np.abs(marginal - reference.matrix)) <= EXACT
    with pytest.raises(ValueError):
        _pure_marginal(psi, key_lay, {"E", "X"})


def test_trace_distance_rejects_mismatched_layouts():
    # the same matrix is |T=0, E=1> on (T, E) but |T=1, E=0> on (E, T):
    # orthogonal states, so equal dimensions alone must not pass
    m = np.zeros((6, 6), dtype=complex)
    m[1, 1] = 1.0
    te = DensityOperator(m, layout(("T", 2), ("E", 3)))
    et = DensityOperator(m, layout(("E", 3), ("T", 2)))
    assert trace_distance(te, te) == 0.0
    with pytest.raises(ValueError):
        trace_distance(te, et)
    with pytest.raises(ValueError):
        trace_distance(te, DensityOperator(te.matrix, layout(("A1", 2), ("E", 3))))


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(6)
    lay = layout(("T", 2), ("E", 2))

    def random_state():
        weights = rng.dirichlet(np.ones(3))
        rho = np.zeros((4, 4), dtype=complex)
        for w in weights:
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            rho += w * np.outer(psi, psi.conj())
        return DensityOperator(rho, lay)

    for _ in range(50):
        a, b, c = random_state(), random_state(), random_state()
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + EXACT


def test_binary_entropy_reference_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < EXACT
    assert abs(binary_entropy(0.11) - H_OF_011) < EXACT
    assert abs(binary_entropy(1.0 / 3.0) - H_OF_THIRD) < EXACT
    assert binary_entropy(-1e-13) == 0.0  # roundoff clamp
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric(x):
    assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < EXACT


def test_von_neumann_entropy_values():
    pure = DensityOperator(qubit_rho(PLUS), layout(("T", 2)))
    assert abs(von_neumann_entropy(pure)) < EXACT
    for d in (2, 3, 4):
        mixed = DensityOperator(np.eye(d) / d, layout(("E", d)))
        assert abs(von_neumann_entropy(mixed) - math.log2(d)) < EXACT
    bell = DensityOperator.from_state(BELL, layout(("A1", 2), ("A2", 2)))
    assert abs(von_neumann_entropy(partial_trace(bell, {"A1"})) - 1.0) < EXACT


def test_a_pure_spectrum_has_entropy_plus_zero():
    # -sum of 0 log 0 terms once read -0.0
    pure_states = (
        DensityOperator(qubit_rho(basis_state(2, 1)), layout(("T", 2))),
        DensityOperator.from_state(basis_state(4, 3), layout(("A1", 2), ("A2", 2))),
    )
    for rho in pure_states:
        assert math.copysign(1.0, von_neumann_entropy(rho)) == 1.0


@settings(deadline=None, max_examples=50)
@given(
    st.floats(min_value=0.0, max_value=1e-10, exclude_min=True),
    st.floats(min_value=0.0, max_value=0.5),
    st.integers(3, 8).flatmap(lambda d: st.permutations(range(d))),
)
@example(1e-12, 0.25, [2, 0, 1])
@example(1e-13, 0.0, [0, 3, 1, 2])
def test_entropy_keeps_every_positive_eigenvalue(small, x, order):
    # spectrum (1 - x - small, x, small, 0, ...) on a permuted diagonal, whose
    # eigenvalues eigvalsh returns exactly: only the treatment of small shows
    spectrum = np.zeros(len(order))
    spectrum[order[:3]] = (1.0 - x - small, x, small)
    rho = DensityOperator(np.diag(spectrum), layout(("E", len(order))))
    expected = sum(-p * math.log2(p) for p in spectrum if p > 0.0)
    assert abs(von_neumann_entropy(rho) - expected) <= 1e-14


def test_conditional_entropy_values():
    bell = DensityOperator.from_state(BELL, layout(("A1", 2), ("A2", 2)))
    # maximally entangled: negative conditional entropy
    assert abs(conditional_entropy(bell, {"A1"}, {"A2"}) - (-1.0)) < EXACT
    product = DensityOperator(
        np.kron(np.eye(2) / 2, qubit_rho(basis_state(2, 0))), layout(("A1", 2), ("B", 2))
    )
    assert abs(conditional_entropy(product, {"A1"}, {"B"}) - 1.0) < EXACT
    assert abs(conditional_entropy(product, {"A1"}, set()) - 1.0) < EXACT
    with pytest.raises(ValueError):
        conditional_entropy(bell, {"A1"}, {"A1"})
    with pytest.raises(ValueError):
        conditional_entropy(bell, set(), {"A1"})


def test_measure_register_pinching():
    lay = layout(("T", 2))
    plus = DensityOperator(qubit_rho(PLUS), lay)
    pinched = measure_register(plus, "T", "Z")
    assert np.allclose(pinched.matrix, np.eye(2) / 2)
    zero = DensityOperator(qubit_rho(basis_state(2, 0)), lay)
    pinched_x = measure_register(zero, "T", "X")
    assert np.allclose(pinched_x.matrix, np.eye(2) / 2)
    # idempotent
    twice = measure_register(pinched, "T", "Z")
    assert np.allclose(twice.matrix, pinched.matrix)
    # X pinch leaves an X eigenstate alone
    assert np.allclose(measure_register(plus, "T", "X").matrix, plus.matrix)


def test_measure_register_matches_kron_construction():
    rng = np.random.default_rng(23)
    for _ in range(40):
        lay = random_layout(rng)
        label = str(rng.choice([lab for lab in lay.labels if lay.dim_of(lab) == 2]))
        psi = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
        rho = DensityOperator.from_state(psi / np.linalg.norm(psi), lay)
        for basis, kets in (("Z", (basis_state(2, 0), basis_state(2, 1))), ("X", (PLUS, MINUS))):
            expected = np.zeros_like(rho.matrix)
            for ket in kets:
                factors = [qubit_rho(ket) if lab == label else np.eye(d) for lab, d in lay.factors]
                full = functools.reduce(np.kron, factors)
                expected += full @ rho.matrix @ full
            pinched = measure_register(rho, label, basis)
            assert pinched.layout == lay
            assert np.max(np.abs(pinched.matrix - expected)) < 1e-12


def test_measure_register_leaves_other_factors():
    lay = layout(("T", 2), ("E", 3))
    rho_e = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho = DensityOperator(np.kron(qubit_rho(PLUS), rho_e), lay)
    pinched = measure_register(rho, "T", "Z")
    assert np.allclose(partial_trace(pinched, {"E"}).matrix, rho_e)
    with pytest.raises(ValueError):
        measure_register(rho, "E", "Z")  # not a qubit
    with pytest.raises(ValueError):
        measure_register(rho, "T", "Y")
    with pytest.raises(ValueError):
        measure_register(rho, "T", 1)
    assert np.array_equal(measure_register(rho, "T", "z").matrix, pinched.matrix)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_derived_states_are_valid_read_only_states(seed):
    rng = np.random.default_rng(seed)
    lay = random_layout(rng)
    g = random_matrix(rng, lay.dim)[:, : int(rng.integers(1, lay.dim + 1))]
    rho = DensityOperator(g @ g.conj().T / np.trace(g @ g.conj().T).real, lay)
    keep = rng.choice(lay.labels, size=int(rng.integers(1, len(lay.labels) + 1)), replace=False)
    derived = [partial_trace(rho, {str(lab) for lab in keep})]
    for label in (lab for lab, d in lay.factors if d == 2):
        for basis in ("Z", "X"):
            once = measure_register(rho, label, basis)
            assert np.array_equal(measure_register(once, label, basis).matrix, once.matrix)
            derived.append(once)
    for out in derived:
        DensityOperator(out.matrix, out.layout)
        assert not out.matrix.flags.writeable


def test_haar_random_unitary_properties():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 5, 8):
        u = haar_random_unitary(dim, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < EXACT
    same_a = haar_random_unitary(4, np.random.default_rng(99))
    same_b = haar_random_unitary(4, np.random.default_rng(99))
    assert np.array_equal(same_a, same_b)
    with pytest.raises(ValueError):
        haar_random_unitary(0, rng)


def haar_by_one_qr(dim, rng):
    # one Gaussian matrix, real then imaginary part, and one QR with its R diagonal's phases divided out
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def test_stacked_haar_draws_match_sequential_draws_bitwise():
    for dim in range(2, 17):
        for seed in range(3):
            sequential, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            stacked = _haar_unitaries(dim, np.random.default_rng(seed), 2)
            for u in stacked:
                assert np.array_equal(u, haar_random_unitary(dim, sequential))
                assert np.array_equal(u, haar_by_one_qr(dim, reference))


def test_haar_random_unitary_entry_statistics():
    # under the Haar measure every |entry|^2 has mean 1/dim and |tr U|^2 has mean 1;
    # without the phase fix of R's diagonal E|tr U|^2 reads 1.36 (dim 2) to 2.65 (dim 8)
    samples = 4000
    for dim in (3, 8):
        rng = np.random.default_rng(8)
        draws = [haar_random_unitary(dim, rng) for _ in range(samples)]
        mean = sum(np.abs(u) ** 2 for u in draws) / samples
        assert np.max(np.abs(mean - 1.0 / dim)) < 0.05 / dim
        assert abs(np.mean([abs(np.trace(u)) ** 2 for u in draws]) - 1.0) < 0.1


def test_complete_isometry_preserves_inputs():
    rng = np.random.default_rng(9)
    for n, k in ((2, 1), (4, 2), (6, 3), (5, 5)):
        cols = haar_random_unitary(n, rng)[:, :k]
        u = complete_isometry(cols)
        assert u.shape == (n, n)
        assert np.array_equal(u[:, :k], cols)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < EXACT


def test_complete_isometry_vector_promotion_and_errors():
    u = complete_isometry(basis_state(3, 1))
    assert np.array_equal(u[:, 0], basis_state(3, 1))
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < EXACT
    with pytest.raises(ValueError):
        complete_isometry(np.ones((2, 2)))  # not orthonormal
    with pytest.raises(ValueError):
        complete_isometry(np.eye(2, 3))  # 3 columns in dimension 2
    # the input gate is max |C*C - I| <= 1e-8; (1 + eps) C is off by 2 eps + eps^2
    complete_isometry((1.0 + 0.45e-8) * np.eye(4)[:, :2])
    with pytest.raises(ValueError, match="not orthonormal"):
        complete_isometry((1.0 + 0.55e-8) * np.eye(4)[:, :2])
    # no columns are trivially orthonormal: residual 0, completed to a full unitary
    assert _isometry_residual(np.zeros((3, 0), dtype=complex)) == 0.0
    u = complete_isometry(np.zeros((3, 0)))
    assert u.shape == (3, 3) and np.max(np.abs(u.conj().T @ u - np.eye(3))) < EXACT

