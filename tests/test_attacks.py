"""Tests for protocol simulation, attack types, and the reductions."""
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kron_reference import permute_factors
from sqkd.attacks import (
    MEASURE_RESEND,
    REFLECT,
    CollectiveAttack,
    NoiseStats,
    ReducedAttack,
    RestrictedAttack,
    _ROUNDS,
    _disc_sample,
    _probabilities,
    _reflect_a1a2,
    alice_states,
    bob_operation,
    build_rewind,
    derive_reduced_attack,
    derive_restricted_from_collective,
    estimate_noise_stats,
    forward_isometry,
    random_collective_attack,
    random_restricted_attack,
    random_symmetric_attack,
    reduced_round_states,
    simulate_entangled_sqkd,
    simulate_reduced,
    simulate_sqkd,
)
from sqkd.linalg import (
    DensityOperator,
    SubsystemLayout,
    basis_state,
    binary_entropy,
    complete_isometry,
    embed_operator,
    haar_random_unitary,
    layout,
    partial_trace,
    trace_distance,
    trace_norm,
)
from sqkd.verification import restricted_reduction_residual, symmetric_attack_diagnostics

EXACT = 1e-12
# the identity attack's images of |000> and |110> on (A1, A2, E) with d_e = 2
IDENTITY_REDUCED = np.eye(8)[:, [0, 6]]

# a hand-picked parameter set satisfying the constraint:
# q1 * conj(eta0) * sqrt(1-q0^2) = -q0 * eta1 * sqrt(1-q1^2)
HAND_Q0, HAND_Q1 = 0.6, 0.8
HAND_ETA0 = 0.5
HAND_ETA1 = -HAND_Q1 * HAND_ETA0 * 0.8 / (HAND_Q0 * 0.6)  # = -8/9


def hand_attack(u=None, d_e=2):
    if u is None:
        u = np.eye(2 * d_e, dtype=complex)
    return RestrictedAttack(HAND_Q0, HAND_Q1, HAND_ETA0, HAND_ETA1, u, d_e)


def identity_symmetric(d_e=2):
    return RestrictedAttack(1.0, 1.0, 0.0, 0.0, np.eye(2 * d_e, dtype=complex), d_e)


def test_alice_states_geometry():
    zero, one, plus, minus = alice_states()
    for state in (zero, one, plus, minus):
        assert abs(np.linalg.norm(state) - 1.0) < EXACT
    assert abs(np.vdot(zero, one)) < EXACT
    assert abs(np.vdot(plus, minus)) < EXACT
    assert abs(abs(np.vdot(zero, plus)) - math.sqrt(0.5)) < EXACT
    assert np.allclose(plus, (zero + one) / math.sqrt(2.0))


def test_collective_attack_validation():
    with pytest.raises(ValueError):
        CollectiveAttack(np.ones((4, 4)), np.eye(4), 2)
    with pytest.raises(ValueError):
        CollectiveAttack(np.eye(4), np.eye(4), 0)
    with pytest.raises(ValueError):
        CollectiveAttack(np.eye(20), np.eye(20), 10)
    attack = CollectiveAttack(np.eye(4), np.eye(4), 2)
    with pytest.raises(ValueError):
        attack.u_forward[0, 0] = 2.0  # stored matrices are read-only


def test_restricted_attack_constraint():
    attack = hand_attack()
    assert attack.q0 == HAND_Q0 and attack.q1 == HAND_Q1
    # the constraint is the gate F*F = I on the forward isometry, named with its residual
    with pytest.raises(ValueError, match=r"parameter constraint .* not an isometry within tolerance \(residual "):
        RestrictedAttack(HAND_Q0, HAND_Q1, HAND_ETA0, -HAND_ETA1, np.eye(4), 2)
    with pytest.raises(ValueError):
        RestrictedAttack(1.2, 0.0, 0.0, 0.0, np.eye(4), 2)
    with pytest.raises(ValueError):
        RestrictedAttack(1.0, 1.0, 1.5, 0.0, np.eye(4), 2)
    with pytest.raises(ValueError):
        RestrictedAttack(1.0, 1.0, 0.0, 0.0, np.eye(2), 1)  # ancilla too small


def test_symmetric_attack_expansion():
    rng = np.random.default_rng(11)
    for d_e in (2, 3):
        attack = random_symmetric_attack(0.05, rng, d_e)
        assert isinstance(attack, RestrictedAttack) and attack.d_e == d_e
        amp = math.sqrt(0.95)
        assert attack.q0 == amp and attack.q1 == amp
        assert attack.eta1 == -np.conj(attack.eta0)


@pytest.mark.parametrize("d_e", [2, 3, 4, 8])
def test_symmetric_reverse_unitary_is_the_controlled_rotation_bitwise(d_e):
    # U = C (R (x) I), built block by block, equals the product built by kron and matmul
    for seed in range(20):
        for q in (0.0, 0.02, 0.05, 0.1, 0.5):
            attack = random_symmetric_attack(q, np.random.default_rng(seed), d_e)
            rng = np.random.default_rng(seed)
            _disc_sample(rng)  # eta comes first
            controlled = np.zeros((2 * d_e, 2 * d_e), dtype=complex)
            controlled[:d_e, :d_e] = haar_random_unitary(d_e, rng)
            controlled[d_e:, d_e:] = haar_random_unitary(d_e, rng)
            half_theta = math.asin(math.sqrt(q))
            cos, sin = math.cos(half_theta), math.sin(half_theta)
            rotation = np.array([[cos, -sin], [sin, cos]], dtype=complex)
            assert np.array_equal(attack.u, controlled @ np.kron(rotation, np.eye(d_e, dtype=complex)))


def _simulated_layouts(attack, reduced) -> list[SubsystemLayout]:
    # the layout of every state simulated from a two-way attack and its reduced form
    states = [simulate_sqkd(attack, a, op) for op in (MEASURE_RESEND, REFLECT) for a in alice_states()]
    states += [simulate_entangled_sqkd(attack, op) for op in (MEASURE_RESEND, REFLECT)]
    states += [simulate_reduced(reduced, op) for op in (MEASURE_RESEND, REFLECT)]
    return [rho.layout for rho in states]


def test_attacks_hold_their_layouts():
    # a layout is built once per (labels, d_E) and shared by every state simulated on it
    rng = np.random.default_rng(41)
    restricted = random_restricted_attack(3, rng)
    for attack in (random_collective_attack(3, rng), restricted):
        states = [simulate_sqkd(attack, a, op) for op in (MEASURE_RESEND, REFLECT) for a in alice_states()]
        assert all(rho.layout is states[0].layout for rho in states)
        entangled = [simulate_entangled_sqkd(attack, op) for op in (MEASURE_RESEND, REFLECT)]
        assert entangled[0].layout is entangled[1].layout
    reduced = derive_reduced_attack(restricted)
    rounds = [simulate_reduced(reduced, op) for op in (MEASURE_RESEND, REFLECT)]
    assert rounds[0].layout is rounds[1].layout
    assert rounds[0].layout.factors == (("A1", 2), ("A2", 2), ("B", 2), ("E", 3))
    assert not reduced_round_states(reduced).flags.writeable
    # two attacks with one d_E share every layout; an attack with another d_E shares none
    first = _simulated_layouts(restricted, reduced)
    other = random_restricted_attack(3, rng)
    second = _simulated_layouts(other, derive_reduced_attack(other))
    assert all(a is b for a, b in zip(first, second))
    wider = random_restricted_attack(4, rng)
    third = _simulated_layouts(wider, derive_reduced_attack(wider))
    assert not any(a is b or a == b for a, b in zip(first, third))


def test_reduced_attack_validation():
    attack = ReducedAttack(0.5, IDENTITY_REDUCED)
    assert attack.d_e == 2 and attack.v.shape == (8, 2)
    with pytest.raises(ValueError):
        attack.v[0, 0] = 0.0
    with pytest.raises(ValueError):
        ReducedAttack(1.5, IDENTITY_REDUCED)
    with pytest.raises(ValueError):
        ReducedAttack(0.5, np.eye(6)[:, :2])  # not a multiple of 4
    with pytest.raises(ValueError):
        ReducedAttack(0.5, np.eye(8))  # a unitary, not the two-column isometry
    with pytest.raises(ValueError):
        ReducedAttack(0.5, np.ones((8, 2)))  # columns not orthonormal


def test_noise_stats_validation():
    stats = NoiseStats(-1e-13, 0.5, 1.0 + 1e-13)
    assert stats.q_fwd == 0.0 and stats.q_x == 1.0
    with pytest.raises(ValueError):
        NoiseStats(-0.1, 0.0, 0.0)


def test_forward_isometry_entries():
    f = forward_isometry(hand_attack())
    s0 = math.sqrt(1.0 - HAND_Q0**2)
    s1 = math.sqrt(1.0 - HAND_Q1**2)
    e = np.array([HAND_ETA0, math.sqrt(1.0 - abs(HAND_ETA0) ** 2)])
    anc = np.array([HAND_ETA1, math.sqrt(1.0 - abs(HAND_ETA1) ** 2)])
    expected0 = np.concatenate(([HAND_Q0, 0.0], s0 * e))
    expected1 = np.concatenate((s1 * anc, [HAND_Q1, 0.0]))
    assert np.allclose(f[:, 0], expected0)
    assert np.allclose(f[:, 1], expected1)
    assert np.max(np.abs(f.conj().T @ f - np.eye(2))) < EXACT


def test_forward_isometry_is_built_once_and_held_read_only():
    attack = hand_attack(d_e=3)
    f = forward_isometry(attack)
    assert forward_isometry(attack) is f
    with pytest.raises(ValueError):
        f[0, 0] = 0.0
    # the explicit construction of test_forward_isometry_entries, on E's first two of three levels
    s0, s1 = math.sqrt(1.0 - HAND_Q0**2), math.sqrt(1.0 - HAND_Q1**2)
    expected = np.zeros((2, 3, 2), dtype=complex)  # (T, E, input)
    expected[0, 0, 0], expected[1, 0, 1] = HAND_Q0, HAND_Q1
    expected[1, :2, 0] = s0 * np.array([HAND_ETA0, math.sqrt(1.0 - abs(HAND_ETA0) ** 2)])
    expected[0, :2, 1] = s1 * np.array([HAND_ETA1, math.sqrt(1.0 - abs(HAND_ETA1) ** 2)])
    assert np.array_equal(f, expected.reshape(6, 2))


def test_bob_operation_measure_resend_copies_key_bit():
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    psi, lay = bob_operation(np.kron(plus, basis_state(2, 0)), layout(("T", 2), ("E", 2)), MEASURE_RESEND)
    assert lay.labels == ("T", "B", "E")
    out = DensityOperator.from_state(psi, lay)
    # the purified measurement leaves (T, B) in a maximally entangled state ...
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = math.sqrt(0.5)
    assert np.allclose(partial_trace(out, {"T", "B"}).matrix, np.outer(bell, bell.conj()))
    # ... so the transit qubit alone is fully decohered
    assert np.allclose(partial_trace(out, {"T"}).matrix, np.eye(2) / 2.0)


def test_bob_operation_reflect_appends_zero():
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    psi, lay = bob_operation(np.kron(plus, basis_state(2, 0)), layout(("T", 2), ("E", 2)), REFLECT)
    assert lay.labels == ("T", "B", "E")
    out = DensityOperator.from_state(psi, lay)
    assert np.allclose(partial_trace(out, {"T"}).matrix, np.outer(plus, plus.conj()))
    assert np.allclose(partial_trace(out, {"B"}).matrix, np.diag([1.0, 0.0]))


def test_bob_operation_insert_position_and_errors():
    psi = np.kron(np.kron(basis_state(2, 0), basis_state(2, 0)), basis_state(3, 0))
    lay = layout(("A1", 2), ("T", 2), ("E", 3))
    out, out_layout = bob_operation(psi, lay, REFLECT)
    assert out_layout.labels == ("A1", "T", "B", "E")
    with pytest.raises(ValueError):
        bob_operation(out, out_layout, REFLECT)  # already has a B register
    with pytest.raises(ValueError):
        bob_operation(basis_state(2, 0), layout(("A1", 2)), MEASURE_RESEND)
    with pytest.raises(ValueError):
        bob_operation(psi, lay, "teleport")
    # the output layout is built once per input layout and held in its plans
    assert bob_operation(psi, lay, MEASURE_RESEND)[1] is out_layout


@pytest.mark.parametrize("length", [2, 3, 8])
def test_bob_operation_names_a_state_of_the_wrong_length(length):
    # a wrong length once failed inside numpy: "cannot reshape array of size 8 into shape (1,2,1,2)"
    for op in (MEASURE_RESEND, REFLECT):
        with pytest.raises(ValueError, match=f"^state vector length {length} is not the layout dimension 4$"):
            bob_operation(np.ones(length) / math.sqrt(length), layout(("T", 2), ("E", 2)), op)


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_bob_operation_refuses_a_transit_register_that_is_not_a_qubit(dim):
    # B's axis went in after T's second index: reflect on T = 1 of (T:4) left its amplitude
    # at T = 0, B = 1, not at T = 1, B = 0
    for op in (MEASURE_RESEND, REFLECT):
        with pytest.raises(ValueError, match="^register 'T' is not a qubit$"):
            bob_operation(basis_state(dim, dim - 1), layout(("T", dim)), op)


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def bob_operation_by_kron(matrix, lay, op):
    """Reference: append |0><0| on B by kron, move B after T, then CNOT T -> B."""
    appended = np.kron(matrix, np.diag([1.0, 0.0]))
    factors = lay.factors + (("B", 2),)
    n = len(factors)
    t_pos = lay.position("T")
    order = tuple(list(range(t_pos + 1)) + [n - 1] + list(range(t_pos + 1, n - 1)))
    new_layout = SubsystemLayout(tuple(factors[i] for i in order))
    out = permute_factors(appended, tuple(d for _, d in factors), order)
    if op == MEASURE_RESEND:
        cnot = embed_operator(CNOT, new_layout, ["T", "B"])
        out = cnot @ out @ cnot.conj().T
    return new_layout, out


@pytest.mark.parametrize(
    "factors",
    [
        (("T", 2), ("E", 2)),
        (("T", 2), ("E", 8)),
        (("E", 3), ("T", 2)),
        (("A1", 2), ("T", 2), ("E", 4)),
        (("A1", 2), ("E", 5), ("T", 2), ("A2", 2)),
    ],
)
def test_bob_operation_matches_kron_construction(factors):
    rng = np.random.default_rng(len(factors) * 10 + factors[-1][1])
    lay = layout(*factors)
    # a random pure state, so coherences between T values are nonzero
    psi = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
    psi /= np.linalg.norm(psi)
    for op in (MEASURE_RESEND, REFLECT):
        expected_layout, expected = bob_operation_by_kron(np.outer(psi, psi.conj()), lay, op)
        out, out_layout = bob_operation(psi, lay, op)
        assert out_layout == expected_layout
        assert np.max(np.abs(np.outer(out, out.conj()) - expected)) < EXACT


def forward_map_by_kron(attack):
    """Reference forward map T -> T (x) E, the ancilla starting in |0>."""
    if isinstance(attack, CollectiveAttack):
        return attack.u_forward @ np.kron(np.eye(2), basis_state(attack.d_e, 0).reshape(-1, 1))
    # the normal form's two-dimensional ancilla sits in the first two levels of E: take those
    # levels of F and embed them here, so the reference does not rely on F's zero rows
    f = forward_isometry(attack).reshape(2, attack.d_e, 2)
    assert not np.any(f[:, 2:, :])
    return np.kron(np.eye(2), np.eye(attack.d_e)[:, :2]) @ f[:, :2, :].reshape(4, 2)


def two_way_round_by_kron(attack, forward_state, lay, op):
    """Reference round: projector of the forward state, B by kron, reverse unitary embedded."""
    u_rev = attack.u_reverse if isinstance(attack, CollectiveAttack) else attack.u
    out_layout, rho = bob_operation_by_kron(np.outer(forward_state, forward_state.conj()), lay, op)
    u_full = embed_operator(u_rev, out_layout, ["T", "E"])
    return out_layout, u_full @ rho @ u_full.conj().T


@pytest.mark.parametrize("d_e", [2, 3, 4, 8])
def test_two_way_round_matches_kron_construction(d_e):
    rng = np.random.default_rng(300 + d_e)
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    for attack in (random_collective_attack(d_e, rng), random_restricted_attack(d_e, rng)):
        forward = forward_map_by_kron(attack)
        for op in (MEASURE_RESEND, REFLECT):
            # random complex unit states too, so both round-map columns and their phases count
            randoms = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            for state in [*alice_states(), *(randoms / np.linalg.norm(randoms, axis=1, keepdims=True))]:
                expected_layout, expected = two_way_round_by_kron(
                    attack, forward @ state, layout(("T", 2), ("E", d_e)), op
                )
                out = simulate_sqkd(attack, state, op)
                assert out.layout == expected_layout
                assert np.max(np.abs(out.matrix - expected)) < EXACT
            held = attack._maps[op]
            expected_layout, expected = two_way_round_by_kron(
                attack, np.kron(np.eye(2), forward) @ bell, layout(("A1", 2), ("T", 2), ("E", d_e)), op
            )
            out = simulate_entangled_sqkd(attack, op)
            assert out.layout.factors == (("A1", 2), ("A2", 2), ("B", 2), ("E", d_e))
            assert expected_layout.labels == ("A1", "T", "B", "E")
            assert np.max(np.abs(out.matrix - expected)) < EXACT
            # the map is built once: both simulators read the same read-only matrix
            assert attack._maps[op] is held
            assert held.shape == (4 * d_e, 2)
            with pytest.raises(ValueError):
                held[0, 0] = 0.0
        assert sorted(attack._maps) == sorted((MEASURE_RESEND, REFLECT))


def test_round_map_validation_holds_no_map():
    rng = np.random.default_rng(19)
    for attack in (random_collective_attack(2, rng), identity_symmetric()):
        with pytest.raises(ValueError):
            simulate_sqkd(attack, basis_state(2, 0), "teleport")
        with pytest.raises(ValueError):
            simulate_entangled_sqkd(attack, "teleport")
        with pytest.raises(ValueError):
            simulate_sqkd(attack, np.array([1.0, 1.0]), REFLECT)
        assert attack._maps == {}
    reduced = ReducedAttack(0.5, IDENTITY_REDUCED)
    with pytest.raises(TypeError):
        simulate_sqkd(reduced, basis_state(2, 0), REFLECT)
    with pytest.raises(TypeError):
        simulate_entangled_sqkd(reduced, MEASURE_RESEND)
    # the mirror case: a two-way attack's held round maps are not round vectors
    for attack in (random_collective_attack(2, rng), identity_symmetric()):
        for held in ((), (MEASURE_RESEND, REFLECT)):
            for op in held:
                simulate_entangled_sqkd(attack, op)
            assert set(attack._maps) == set(held)
            for op in (MEASURE_RESEND, REFLECT):
                with pytest.raises(TypeError, match="unsupported attack type"):
                    simulate_reduced(attack, op)
            with pytest.raises(TypeError, match="unsupported attack type"):
                reduced_round_states(attack)
            assert set(attack._maps) == set(held)


def test_simulate_sqkd_identity_attack():
    attack = identity_symmetric()
    one = basis_state(2, 1)
    out = simulate_sqkd(attack, one, MEASURE_RESEND)
    assert out.layout.labels == ("T", "B", "E")
    expected = np.kron(np.kron(np.diag([0.0, 1.0]), np.diag([0.0, 1.0])), np.diag([1.0, 0.0]))
    assert np.allclose(out.matrix, expected.astype(complex))
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    reflected = simulate_sqkd(attack, plus, REFLECT)
    assert np.allclose(partial_trace(reflected, {"T"}).matrix, np.outer(plus, plus.conj()))


def test_simulate_sqkd_validation():
    attack = identity_symmetric()
    with pytest.raises(ValueError):
        simulate_sqkd(attack, np.array([1.0, 1.0]), REFLECT)
    with pytest.raises(ValueError):
        simulate_sqkd(attack, np.array([1.0, 0.0, 0.0]), REFLECT)
    with pytest.raises(ValueError):
        simulate_sqkd(attack, basis_state(2, 0), "teleport")
    with pytest.raises(TypeError):
        simulate_sqkd(ReducedAttack(0.5, IDENTITY_REDUCED), basis_state(2, 0), REFLECT)


def test_alice_state_gate_names_the_alice_state():
    # A's state takes from_state's |norm^2 - 1| <= 1e-10 gate, so a state just off it is
    # rejected as A's state, never as the round's output vector
    attack = identity_symmetric()
    for op in (MEASURE_RESEND, REFLECT):
        assert simulate_sqkd(attack, (1.0 + 4e-11) * basis_state(2, 0), op).layout.labels == ("T", "B", "E")
        for norm in (1.0 + 7.5e-11, 1.0 - 7.5e-11, 1.0 + 1.5e-10):
            with pytest.raises(ValueError, match="alice state is not normalized"):
                simulate_sqkd(attack, norm * basis_state(2, 0), op)


def _scaled(m, two_eps):
    # (1 + eps) m, whose Gram matrix is off the identity by 2 eps + eps^2 on its diagonal
    return (1.0 + two_eps / 2.0) * np.asarray(m, dtype=complex)


def test_isometry_bound_is_one_bound():
    # every V*V = I gate and the parameter constraint share the 1e-10 isometry bound
    for two_eps, accepted in ((0.9e-10, True), (1.1e-10, False)):
        builds = [
            lambda: CollectiveAttack(_scaled(np.eye(4), two_eps), np.eye(4), 2),
            lambda: CollectiveAttack(np.eye(4), _scaled(np.eye(4), two_eps), 2),
            lambda: RestrictedAttack(1.0, 1.0, 0.0, 0.0, _scaled(np.eye(4), two_eps), 2),
            lambda: ReducedAttack(0.5, _scaled(IDENTITY_REDUCED, two_eps)),
            # q0 = 1, q1 = 0: the constraint's left side, F*F's off-diagonal entry, is eta1
            lambda: RestrictedAttack(1.0, 0.0, 0.0, two_eps, np.eye(4), 2),
        ]
        for build in builds:
            if accepted:
                build()
            else:
                with pytest.raises(ValueError):
                    build()


def test_derive_restricted_clamps_flip_amplitudes():
    # a forward unitary 4.9e-11 over unit norm passes the gate; its amplitudes clamp to 1
    attack = CollectiveAttack(_scaled(np.eye(4), 9.8e-11), np.eye(4), 2)
    derived = derive_restricted_from_collective(attack)
    assert derived.q0 == 1.0 and derived.q1 == 1.0


def test_simulate_entangled_layout():
    rng = np.random.default_rng(12)
    attack = random_collective_attack(3, rng)
    out = simulate_entangled_sqkd(attack, MEASURE_RESEND)
    assert out.layout.labels == ("A1", "A2", "B", "E")
    assert out.dim == 8 * 3


def test_derive_restricted_from_swap_forward():
    # forward SWAP on (T, E): |v, 0> -> |0, v>, so T always lands on 0
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    rng = np.random.default_rng(13)
    attack = CollectiveAttack(swap, haar_random_unitary(4, rng), 2)
    derived = derive_restricted_from_collective(attack)
    assert abs(derived.q0 - 1.0) < EXACT
    assert abs(derived.q1 - 0.0) < EXACT
    assert abs(derived.eta1) < EXACT
    for op in (MEASURE_RESEND, REFLECT):
        for state in alice_states():
            lhs = simulate_sqkd(attack, state, op)
            rhs = simulate_sqkd(derived, state, op)
            assert trace_distance(lhs, rhs) < EXACT


def test_derive_restricted_from_bit_flip_forward():
    # forward X (x) I: both basis states flip deterministically
    x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
    rng = np.random.default_rng(14)
    attack = CollectiveAttack(np.kron(x_gate, np.eye(2)), haar_random_unitary(4, rng), 2)
    derived = derive_restricted_from_collective(attack)
    assert abs(derived.q0) < EXACT and abs(derived.q1) < EXACT
    for op in (MEASURE_RESEND, REFLECT):
        for state in alice_states():
            assert (
                trace_distance(
                    simulate_sqkd(attack, state, op), simulate_sqkd(derived, state, op)
                )
                < EXACT
            )


@pytest.mark.parametrize("d_e", [2, 3, 4])
def test_derive_restricted_random_spot(d_e):
    rng = np.random.default_rng(100 + d_e)
    for _ in range(4):
        attack = random_collective_attack(d_e, rng)
        derived = derive_restricted_from_collective(attack)
        assert 0.0 <= derived.q0 <= 1.0 and 0.0 <= derived.q1 <= 1.0
        assert abs(derived.eta0) <= 1.0 + EXACT and abs(derived.eta1) <= 1.0 + EXACT
        for op in (MEASURE_RESEND, REFLECT):
            lhs = simulate_entangled_sqkd(attack, op)
            rhs = simulate_entangled_sqkd(derived, op)
            assert trace_distance(lhs, rhs) < EXACT


SWAP_FORWARD = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
BIT_FLIP_FORWARD = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2))


@pytest.mark.parametrize(
    "make_attack",
    [
        *(lambda rng, d_e=d_e: random_collective_attack(d_e, rng) for d_e in (2, 3, 4, 8)),
        lambda rng: CollectiveAttack(SWAP_FORWARD, haar_random_unitary(4, rng), 2),
        lambda rng: CollectiveAttack(BIT_FLIP_FORWARD, haar_random_unitary(4, rng), 2),
    ],
    ids=["d_e=2", "d_e=3", "d_e=4", "d_e=8", "swap", "bit-flip"],
)
def test_derived_v_preserves_transit_z(make_attack):
    # U = u_reverse . V with V block-diagonal in T's Z value, so V commutes
    # with B's CNOT; swap and bit-flip take the degenerate-eta branches
    rng = np.random.default_rng(17)
    for _ in range(3):
        attack = make_attack(rng)
        d_e = attack.d_e
        v = attack.u_reverse.conj().T @ derive_restricted_from_collective(attack).u
        assert np.max(np.abs(v[:d_e, d_e:])) < EXACT
        assert np.max(np.abs(v[d_e:, :d_e])) < EXACT
        assert np.max(np.abs(v.conj().T @ v - np.eye(2 * d_e))) < EXACT


def test_derive_restricted_rejects_one_dimensional_ancilla():
    small = CollectiveAttack(np.eye(2), np.eye(2), 1)
    with pytest.raises(ValueError):
        derive_restricted_from_collective(small)


def test_nan_inputs_are_rejected():
    nan = float("nan")
    nan_unitary = np.full((4, 4), nan, dtype=complex)
    with pytest.raises(ValueError):
        DensityOperator(np.full((2, 2), nan), layout(("T", 2)))
    with pytest.raises(ValueError):
        CollectiveAttack(nan_unitary, np.eye(4), 2)
    with pytest.raises(ValueError):
        ReducedAttack(0.5, np.full((8, 2), nan, dtype=complex))
    with pytest.raises(ValueError):
        RestrictedAttack(1, 1, nan, nan, np.eye(4), 2)
    with pytest.raises(ValueError):
        complete_isometry([[nan], [0]])
    with pytest.raises(ValueError):
        trace_norm(np.full((2, 2), nan))
    with pytest.raises(ValueError):
        binary_entropy(nan)


def test_build_rewind_columns():
    attack = hand_attack()
    rewind = build_rewind(attack)
    assert rewind.shape == (8, 2)
    assert np.max(np.abs(rewind.conj().T @ rewind - np.eye(2))) < EXACT
    s0, s1 = 0.8, 0.6
    e = np.array([HAND_ETA0, math.sqrt(1.0 - abs(HAND_ETA0) ** 2)])
    anc = np.array([HAND_ETA1, math.sqrt(1.0 - abs(HAND_ETA1) ** 2)])
    c00 = np.zeros(8, dtype=complex)
    c00[0] = HAND_Q0  # |0,0,0>
    c00[4:6] = s1 * anc  # |1,0,f>
    c00 /= math.sqrt(1.0 - HAND_Q1**2 + HAND_Q0**2)
    c11 = np.zeros(8, dtype=complex)
    c11[2:4] = s0 * e  # |0,1,e>
    c11[6] = HAND_Q1  # |1,1,0>
    c11 /= math.sqrt(1.0 - HAND_Q0**2 + HAND_Q1**2)
    assert np.allclose(rewind[:, 0], c00)
    assert np.allclose(rewind[:, 1], c11)


@pytest.mark.parametrize(
    "q0,q1,eta0,eta1",
    [(0.0, 1.0, 0.0, 0.3 + 0.2j), (1.0, 0.0, 0.7j, 0.0)],
)
def test_rewind_degenerate_columns(q0, q1, eta0, eta1):
    rng = np.random.default_rng(16)
    attack = RestrictedAttack(q0, q1, eta0, eta1, haar_random_unitary(4, rng), 2)
    rewind = build_rewind(attack)
    assert not np.any(np.isnan(rewind))
    assert np.max(np.abs(rewind.conj().T @ rewind - np.eye(2))) < EXACT
    # (0, 1) loses the |00> column and (1, 0) the |11> column; the vanished
    # column is its branch's own basis ket, and that branch has weight zero
    vanished, ket, p0 = (0, 0, 0.0) if q0 == 0.0 else (1, 6, 1.0)
    assert np.array_equal(rewind[:, vanished], basis_state(8, ket))
    reduced = derive_reduced_attack(attack)
    assert reduced.p0 == p0
    for op in (MEASURE_RESEND, REFLECT):
        lhs = simulate_entangled_sqkd(attack, op)
        rhs = simulate_reduced(reduced, op)
        assert trace_distance(lhs, rhs) < EXACT


def forward_two_level(attack):
    """Reference (T, ancilla, input) entries of F on the normal form's two-level ancilla, from
    the attack's parameters."""
    e = np.array([attack.eta0, math.sqrt(max(0.0, 1.0 - abs(attack.eta0) ** 2))], dtype=complex)
    f = np.array([attack.eta1, math.sqrt(max(0.0, 1.0 - abs(attack.eta1) ** 2))], dtype=complex)
    out = np.zeros((2, 2, 2), dtype=complex)
    out[0, 0, 0] = attack.q0
    out[1, :, 0] = math.sqrt(max(0.0, 1.0 - attack.q0**2)) * e
    out[0, :, 1] = math.sqrt(max(0.0, 1.0 - attack.q1**2)) * f
    out[1, 0, 1] = attack.q1
    return out


def rewind_by_padding(attack):
    """Reference rewind: its 8 rows on (A1, A2) (x) C^2, then zero-padded into E."""
    f = forward_two_level(attack)
    columns = []
    for t, fallback in ((0, 0), (1, 6)):
        column = np.zeros((2, 2, 2), dtype=complex)  # (A1, A2, ancilla)
        column[:, t, :] = f[t].T
        norm = float(np.linalg.norm(column))
        columns.append(column.reshape(8) / norm if norm > 1e-12 else basis_state(8, fallback))
    padded = np.zeros((4, attack.d_e, 2), dtype=complex)
    padded[:, :2, :] = np.column_stack(columns).reshape(4, 2, 2)
    return padded.reshape(4 * attack.d_e, 2)


@pytest.mark.parametrize("d_e", [2, 3, 4, 8])
@pytest.mark.parametrize("case", ["random", "q0=0", "q1=0"])
def test_forward_and_rewind_on_e_equal_the_padded_two_level_construction(d_e, case):
    rng = np.random.default_rng(700 + d_e)
    u = haar_random_unitary(2 * d_e, rng)
    attack = {
        "random": random_restricted_attack(d_e, rng),
        "q0=0": RestrictedAttack(0.0, 1.0, 0.0, 0.3 + 0.2j, u, d_e),  # the |00> column falls back
        "q1=0": RestrictedAttack(1.0, 0.0, 0.7j, 0.0, u, d_e),  # the |11> column falls back
    }[case]
    forward = forward_isometry(attack)
    assert forward.shape == (2 * d_e, 2)
    forward = forward.reshape(2, d_e, 2)
    assert np.array_equal(forward[:, :2, :], forward_two_level(attack))
    assert not np.any(forward[:, 2:, :])  # the rows beyond E's first two levels are exactly zero
    expected = rewind_by_padding(attack)
    rewind = build_rewind(attack)
    assert rewind.shape == (4 * d_e, 2)
    assert np.array_equal(rewind, expected)
    reverse = embed_operator(attack.u, layout(("A1", 2), ("A2", 2), ("E", d_e)), ["A2", "E"])
    assert np.array_equal(derive_reduced_attack(attack).v, reverse @ expected)
    if case != "random":
        vanished, ket = (0, 0) if case == "q0=0" else (1, 3 * d_e)
        assert np.array_equal(rewind[:, vanished], basis_state(4 * d_e, ket))


def test_derive_reduced_attack_weight():
    attack = hand_attack()
    reduced = derive_reduced_attack(attack)
    assert abs(reduced.p0 - 0.5 * (1.0 - HAND_Q1**2 + HAND_Q0**2)) < EXACT
    assert reduced.d_e == 2 and reduced.v.shape == (8, 2)
    assert np.max(np.abs(reduced.v.conj().T @ reduced.v - np.eye(2))) < EXACT


@pytest.mark.parametrize("d_e", [2, 3])
def test_reduced_protocol_equivalence_spot(d_e):
    rng = np.random.default_rng(200 + d_e)
    for _ in range(4):
        attack = random_restricted_attack(d_e, rng)
        reduced = derive_reduced_attack(attack)
        for op in (MEASURE_RESEND, REFLECT):
            lhs = simulate_entangled_sqkd(attack, op)
            rhs = simulate_reduced(reduced, op)
            assert trace_distance(lhs, rhs) < EXACT


def reduced_round_by_kron(reduced, amp1_sign, b_bit):
    """Reference round: a unitary extending V, embedded on (A1, A2, E), applied to a
    kron-built preparation."""
    kets = [basis_state(2, 0), basis_state(2, 1)]
    d_e = reduced.d_e
    e0 = basis_state(d_e, 0)
    amp0, amp1 = math.sqrt(reduced.p0), amp1_sign * math.sqrt(1.0 - reduced.p0)
    prep = amp0 * np.kron(np.kron(np.kron(kets[0], kets[0]), kets[0]), e0) + amp1 * np.kron(
        np.kron(np.kron(kets[1], kets[1]), kets[b_bit]), e0
    )
    lay = layout(("A1", 2), ("A2", 2), ("B", 2), ("E", d_e))
    # V's columns are the images of |000> and |110>, columns 0 and 3 d_e of a unitary
    order = [0, 3 * d_e] + [i for i in range(4 * d_e) if i not in (0, 3 * d_e)]
    u = np.empty((4 * d_e, 4 * d_e), dtype=complex)
    u[:, order] = complete_isometry(reduced.v)
    return embed_operator(u, lay, ["A1", "A2", "E"]) @ prep


def key_state_by_vector(psi, d_e):
    """The (A1, E) state after measuring A1 in Z and tracing out A2 and B."""
    branches = psi.reshape(2, 2, 2, d_e)
    out = np.zeros((2, d_e, 2, d_e), dtype=complex)
    for a in range(2):
        out[a, :, a, :] = np.einsum("xbe,xbf->ef", branches[a], branches[a].conj())
    return out.reshape(2 * d_e, 2 * d_e)


class _ReadLog(np.ndarray):
    """A view type that logs every array numpy derives from it: the views and results a reader takes."""

    log: list = []

    def __array_finalize__(self, obj) -> None:
        _ReadLog.log.append(self)


@pytest.mark.parametrize("d_e", [2, 3, 4, 8])
def test_reduced_round_matches_kron_construction(d_e):
    attack = random_restricted_attack(d_e, np.random.default_rng(500 + d_e))
    reduced = derive_reduced_attack(attack)
    vectors = {
        REFLECT: reduced_round_by_kron(reduced, 1.0, 0),
        MEASURE_RESEND: reduced_round_by_kron(reduced, 1.0, 1),
        "aux": reduced_round_by_kron(reduced, -1.0, 0),
    }
    # the constructor builds the round stack, in _ROUNDS order, and holds it read-only
    assert "_rounds" in vars(reduced)
    stack = reduced._rounds
    assert stack.shape == (3, 8 * d_e) and not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0] = 0.0
    # each row is the per-name formula amp0 v0 |B=0> + amp1 v1 |B=b>, bit for bit, and matches the reference
    amp0, amp1 = math.sqrt(reduced.p0), math.sqrt(max(0.0, 1.0 - reduced.p0))
    v = reduced.v.reshape(4, 1, d_e, 2)
    for row, name, column1 in zip(stack, _ROUNDS, ((amp1, 0.0), (0.0, amp1), (-amp1, 0.0))):
        amps = np.array([(amp0, 0.0), column1]).reshape(2, 2, 1)
        assert row.tobytes() == (amps[0] * v[..., 0] + amps[1] * v[..., 1]).tobytes()
        assert np.max(np.abs(row - vectors[name])) < EXACT
    returned = [simulate_reduced(reduced, op) for op in (REFLECT, MEASURE_RESEND)]
    for out, op in zip(returned, (REFLECT, MEASURE_RESEND)):
        assert out.layout.labels == ("A1", "A2", "B", "E")
        assert np.max(np.abs(out.matrix - np.outer(vectors[op], vectors[op].conj()))) < EXACT
    blocks = reduced_round_states(reduced)
    assert blocks.shape == (3, 2, d_e, d_e)
    for round_blocks, name in zip(blocks, _ROUNDS):
        reference = key_state_by_vector(vectors[name], d_e).reshape(2, d_e, 2, d_e)
        for a in range(2):
            assert np.max(np.abs(round_blocks[a] - reference[a, :, a])) < EXACT
    # every returned state, and the key-state blocks, cannot be written to either
    for matrix in [state.matrix for state in returned] + [blocks]:
        with pytest.raises(ValueError):
            matrix.flat[0] = 0.0
    # every reader takes rows of that one array: seen through a logging view, each reader derives
    # views that share the memory of the rows it reads, and gives what it gave before
    ops = (REFLECT, MEASURE_RESEND)
    readers = {  # each reader and the rows it reads
        "simulate_reduced": (lambda: [simulate_reduced(reduced, op).matrix for op in ops], {0, 1}),
        "reduced_round_states": (lambda: [reduced_round_states(reduced)], {0, 1, 2}),
        "estimate_noise_stats": (lambda: list(estimate_noise_stats(reduced)), {0, 1}),
    }
    before = {name: read() for name, (read, _) in readers.items()}
    object.__setattr__(reduced, "_rounds", stack.view(_ReadLog))
    for name, (read, rows) in readers.items():
        _ReadLog.log.clear()
        assert all(np.array_equal(x, y) for x, y in zip(read(), before[name])), name
        assert {i for i in range(3) if any(np.shares_memory(view, stack[i]) for view in _ReadLog.log)} == rows, name
    _ReadLog.log.clear()


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_probabilities_match_partial_trace(seed):
    # P over a pure state's leading factors is the diagonal of its marginal on them, on the
    # two-way (T, B, E) states and the reduced (A1, A2, B, E) ones, for every leading prefix
    rng = np.random.default_rng(seed)
    d_e = int(rng.integers(1, 9))
    for labels in (("T", "B"), ("A1", "A2", "B")):
        lay = layout(*((lab, 2) for lab in labels), ("E", d_e))
        psi = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
        psi /= np.linalg.norm(psi)
        for k in range(1, len(labels) + 1):
            reference = partial_trace(DensityOperator.from_state(psi, lay), labels[:k]).matrix
            p = _probabilities(psi, (2,) * k)
            assert p.shape == (2,) * k
            assert np.max(np.abs(p.reshape(-1) - np.diagonal(reference))) <= EXACT


@pytest.mark.parametrize("d_e", [2, 3, 4, 8])
def test_reflect_marginal_matches_partial_trace(d_e):
    rng = np.random.default_rng(600 + d_e)
    for attack in (random_restricted_attack(d_e, rng), random_symmetric_attack(0.1, rng, d_e)):
        reduced = derive_reduced_attack(attack)
        marginal = _reflect_a1a2(reduced)
        reference = partial_trace(simulate_reduced(reduced, REFLECT), ("A1", "A2"))
        assert marginal.layout == reference.layout
        assert np.max(np.abs(marginal.matrix - reference.matrix)) <= EXACT
        assert not marginal.matrix.flags.writeable


def test_simulate_reduced_validation():
    with pytest.raises(ValueError):
        simulate_reduced(ReducedAttack(0.5, IDENTITY_REDUCED), "teleport")


def test_reduced_round_states_decomposition():
    rng = np.random.default_rng(17)
    for attack in (
        random_symmetric_attack(0.05, rng),
        random_restricted_attack(2, rng),  # asymmetric preparation weight
    ):
        reduced = derive_reduced_attack(attack)
        blocks = reduced_round_states(reduced)
        assert blocks.shape == (3, 2, reduced.d_e, reduced.d_e) and blocks.dtype == complex
        reflect, resend, aux = blocks
        assert np.max(np.abs(resend - (0.5 * reflect + 0.5 * aux))) < 1e-10
        # each round's sum_a |a><a| (x) rho_a is a state: every rho_a Hermitian and positive
        # semidefinite, and the two traces sum to 1
        assert np.max(np.abs(blocks - np.swapaxes(blocks, 2, 3).conj())) <= EXACT
        assert np.min(np.linalg.eigvalsh(blocks)) >= -EXACT
        traces = np.trace(blocks, axis1=2, axis2=3).sum(axis=1)
        assert np.max(np.abs(traces - 1.0)) <= EXACT


def test_reduced_round_states_refuses_a_broken_decomposition():
    # the resend state must be the equal mixture of the reflect and aux states: a held aux
    # vector (the last row of the held stack) with one entry moved by 1e-6, then renormalized,
    # breaks it and trips the gate
    reduced = derive_reduced_attack(random_symmetric_attack(0.05, np.random.default_rng(3), 2))
    reduced_round_states(reduced)  # intact, it passes
    rounds = np.array(reduced._rounds)
    rounds[2, 0] += 1e-6
    rounds[2] /= np.linalg.norm(rounds[2])
    rounds.setflags(write=False)
    object.__setattr__(reduced, "_rounds", rounds)
    with pytest.raises(ArithmeticError, match="^round-state decomposition residual "):
        reduced_round_states(reduced)


@pytest.mark.parametrize("q", [0.0, 0.02, 0.1, 0.3])
def test_symmetric_noise_rates_exact(q):
    rng = np.random.default_rng(int(q * 1000) + 18)
    attack = random_symmetric_attack(q, rng)
    stats = estimate_noise_stats(attack)
    assert abs(stats.q_fwd - q) < EXACT
    assert abs(stats.q_rev - q) < EXACT
    assert 0.0 <= stats.q_x <= 1.0


def test_identity_attack_stats_vanish():
    stats = estimate_noise_stats(identity_symmetric())
    assert stats.q_fwd == 0.0 and stats.q_rev == 0.0 and abs(stats.q_x) < EXACT


def test_phase_only_attack_disturbs_x_basis():
    # reverse Z on the transit qubit: no Z errors, maximal X errors
    attack = RestrictedAttack(1.0, 1.0, 0.0, 0.0, np.diag([1.0, 1.0, -1.0, -1.0]), 2)
    stats = estimate_noise_stats(attack)
    assert stats.q_fwd < EXACT and stats.q_rev < EXACT
    assert abs(stats.q_x - 1.0) < EXACT


def test_reduced_stats_match_direct_protocol():
    rng = np.random.default_rng(19)
    for q in (0.0, 0.05, 0.1):
        attack = random_symmetric_attack(q, rng, d_e=3)
        direct = estimate_noise_stats(attack)
        reduced = estimate_noise_stats(derive_reduced_attack(attack))
        assert abs(direct.q_fwd - reduced.q_fwd) < EXACT
        assert abs(direct.q_rev - reduced.q_rev) < EXACT
        assert abs(direct.q_x - reduced.q_x) < EXACT


@pytest.mark.parametrize("d_e", [2, 3, 4, 8])
def test_noise_stats_agree_across_attack_forms(d_e):
    # asymmetric attacks: B's two resend bits occur with unequal weight, so
    # q_rev must be the joint P(T != B) on every form, not an average of
    # conditional flip rates
    rng = np.random.default_rng(40 + d_e)
    for _ in range(8):
        collective = random_collective_attack(d_e, rng)
        restricted = derive_restricted_from_collective(collective)
        sampled = random_restricted_attack(d_e, rng)
        for chain in (
            (collective, restricted, derive_reduced_attack(restricted)),
            (sampled, derive_reduced_attack(sampled)),
        ):
            stats = [estimate_noise_stats(attack) for attack in chain]
            for other in stats[1:]:
                assert abs(other.q_fwd - stats[0].q_fwd) < EXACT
                assert abs(other.q_rev - stats[0].q_rev) < EXACT
                assert abs(other.q_x - stats[0].q_x) < EXACT


def test_random_samplers_deterministic_and_valid():
    a = random_restricted_attack(3, np.random.default_rng(77))
    b = random_restricted_attack(3, np.random.default_rng(77))
    assert a.q0 == b.q0 and a.q1 == b.q1 and a.eta0 == b.eta0 and a.eta1 == b.eta1
    assert np.array_equal(a.u, b.u)
    rng = np.random.default_rng(20)
    for d_e in (2, 4):
        for _ in range(30):
            attack = random_restricted_attack(d_e, rng)
            assert attack.d_e == d_e  # constraint already enforced by the constructor
        collective = random_collective_attack(d_e, rng)
        assert collective.d_e == d_e
    with pytest.raises(ValueError):
        random_symmetric_attack(0.6, rng)
    with pytest.raises(ValueError):
        random_restricted_attack(9, rng)


def _attack_form(name):
    rng = np.random.default_rng(23)
    if name == "collective":
        return random_collective_attack(2, rng)
    restricted = random_restricted_attack(2, rng)
    return restricted if name == "restricted" else derive_reduced_attack(restricted)


@pytest.mark.parametrize(
    "fn, form",
    [
        *((derive_restricted_from_collective, form) for form in ("restricted", "reduced")),
        *(
            (fn, form)
            for fn in (
                forward_isometry,
                build_rewind,
                derive_reduced_attack,
                restricted_reduction_residual,
                symmetric_attack_diagnostics,
            )
            for form in ("collective", "reduced")
        ),
    ],
)
def test_a_wrong_attack_form_is_a_type_error(fn, form):
    # reading a field the form lacks once raised AttributeError, e.g. "'CollectiveAttack'
    # object has no attribute 'q1'"
    attack = _attack_form(form)
    with pytest.raises(TypeError, match=f"^unsupported attack type {type(attack).__name__}$"):
        fn(attack)


def _copied_form(name):
    if name == "from_state":
        return simulate_sqkd(random_collective_attack(2, np.random.default_rng(24)), alice_states()[2], REFLECT)
    if name == "partial_trace":
        return partial_trace(simulate_entangled_sqkd(_attack_form("collective"), MEASURE_RESEND), ("A1", "E"))
    attack = _attack_form(name)
    estimate_noise_stats(attack)  # a two-way form holds its round maps
    return attack


_HELD_ARRAYS = {
    "collective": ("u_forward", "u_reverse"),
    "restricted": ("u", "_f"),
    "reduced": ("v", "_rounds"),
    "from_state": ("matrix", "_vector"),
    "partial_trace": ("matrix",),
}


@pytest.mark.parametrize(
    "route", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["copy", "deepcopy", "pickle"]
)
@pytest.mark.parametrize("form", list(_HELD_ARRAYS))
def test_copies_and_pickles_rebuild_through_the_constructor(form, route):
    # frozen dataclasses once copied through __dict__, skipping the gates: a deep copy's or an
    # unpickled object's arrays were writable, and the original's held maps came along; a copy
    # rebuilds each held array, a reduced attack's round stack too, equal and distinct
    original = _copied_form(form)
    copied = route(original)
    assert type(copied) is type(original) and copied is not original
    for name in _HELD_ARRAYS[form]:
        assert np.array_equal(getattr(copied, name), getattr(original, name))
        assert not np.shares_memory(getattr(copied, name), getattr(original, name))
        assert not getattr(copied, name).flags.writeable
    if isinstance(copied, DensityOperator):
        assert copied.layout == original.layout
        assert (copied._vector is None) == (original._vector is None)
    else:
        maps = getattr(copied, "_maps", {})  # a two-way form's round maps, built anew on first use
        assert copied.d_e == original.d_e and maps == {}
        assert estimate_noise_stats(copied) == estimate_noise_stats(original)
        assert maps.keys() == getattr(original, "_maps", {}).keys()
