"""Randomized numerical verification of the reduction and bound claims.

Each check draws seeded random instances, measures a residual that should be zero (for
equalities) or the amount by which an inequality is violated, and reports the worst residual
over all trials against a fixed tolerance. A residual and a worst residual are each the largest
term and 0, or NaN if any term is NaN, whatever their order, so a NaN fails its check.

Every suite reads one stream of ``Trial(seed, suite, index, d_e, q)`` records, and ``_draw``
rebuilds each trial from its own counter-based generator trial_rng(seed, suite, index) alone,
so any single trial can be reproduced in isolation and trial order can never change results.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Iterator, Sequence

import numpy as np

from .attacks import (
    MEASURE_RESEND,
    REFLECT,
    CollectiveAttack,
    RestrictedAttack,
    _check_d_e,
    _round_marginal,
    _round_state,
    alice_states,
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
from .keyrate import (
    continuity_bound,
    explicit,
    key_rate,
    reflect_entropy_bound,
    resend_entropy_bound,
)
from .linalg import (
    _check_integer,
    _entropy_bits,
    _isometry_residual,
    binary_entropy,
    conditional_entropy,
    measure_register,
    trace_distance,
)
from .tolerances import DEFAULT as TOL

__all__ = [
    "CHECK_NAMES",
    "Q_GRID",
    "VerifyReport",
    "SymmetricAttackDiagnostics",
    "trial_rng",
    "collective_reduction_residual",
    "restricted_reduction_residual",
    "vector_pair_residual",
    "symmetric_attack_diagnostics",
    "symmetric_diagnostics_sample",
    "uncertainty_residual",
    "continuity_residual",
    "main_bound_residual",
    "epsilon_residual",
    "check_thm1_equivalence",
    "check_thm2_equivalence",
    "check_lemma_trd",
    "check_isometries",
    "run_all_checks",
]

# Suite identifiers keep the RNG streams of different checks disjoint.
SUITE_COLLECTIVE = 1
SUITE_RESTRICTED = 2
SUITE_VECTOR_PAIRS = 3
SUITE_SYMMETRIC = 4

# Z error rates at which the entropy-bound suites sample attacks.
Q_GRID = (0.0, 0.02, 0.05, 0.1)

# Each check in reporting order under its name (an external contract): the suite whose stream it
# reads and its residual of one draw, or on the symmetric suite of one SymmetricAttackDiagnostics.
# Residuals are lambdas reading module globals at call time: perfbench/tracer.py rebinds those
# globals, and a function stored here at import would stay unwrapped, unseen by CI's traced smoke.
_CHECKS = {
    "thm1-equivalence": (SUITE_COLLECTIVE, lambda attack: collective_reduction_residual(attack)),
    "thm2-equivalence": (SUITE_RESTRICTED, lambda attack: restricted_reduction_residual(attack)),
    "lemma-trd": (SUITE_VECTOR_PAIRS, lambda pair: vector_pair_residual(*pair)),
    "uncertainty": (SUITE_SYMMETRIC, lambda diag: uncertainty_residual(diag)),
    "continuity": (SUITE_SYMMETRIC, lambda diag: continuity_residual(diag)),
    "main-ent": (SUITE_SYMMETRIC, lambda diag: main_bound_residual(diag)),
    "epsilon-bound": (SUITE_SYMMETRIC, lambda diag: epsilon_residual(diag)),
}
CHECK_NAMES = tuple(_CHECKS)

DEFAULT_D_E = (2, 3, 4)


def trial_rng(seed: int, suite: int, trial: int) -> np.random.Generator:
    """Independent generator for one verification trial.

    Philox (counter-based, 64-bit) keyed by (seed, suite, trial), each a nonnegative
    integer (3.0 is 3; a fraction, NaN or inf raises ValueError), so streams never overlap
    across suites or trials and a single trial can be replayed without running the others.
    """
    key = (seed, suite, trial)
    key = [v if type(v) is int and v >= 0 else _check_integer("seed component", v, 0) for v in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=key)))


class VerifyReport(namedtuple("VerifyReport", "check trials max_residual tolerance passed")):
    """Outcome of one check: worst residual over all trials vs tolerance, one ``verify`` row."""

    __slots__ = ()

    def __new__(cls, check: str, trials: int, max_residual: float, tolerance: float, passed: bool):
        if passed != (max_residual <= tolerance):
            raise ValueError("passed flag contradicts residual and tolerance")
        return tuple.__new__(cls, (check, trials, max_residual, tolerance, passed))

    @classmethod
    def _make(cls, fields) -> VerifyReport:  # what _replace builds through: checked too
        return cls(*fields)


def _violation(*terms: float) -> float:
    """The largest of ``terms`` and 0.0, or NaN if any is NaN, in any order (``max`` alone is not)."""
    return math.nan if any(map(math.isnan, terms)) else float(max((0.0, *terms)))


def _report(check: str, residuals: Sequence[float], tolerance: float) -> VerifyReport:
    """The report of ``check``: one trial per residual, the worst against ``tolerance``."""
    worst = _violation(*residuals)
    return VerifyReport(check, len(residuals), worst, tolerance, worst <= tolerance)


# One draw of a suite: trial_rng(seed, suite, index) at dimension d_e (the vectors' dimension
# on the vector-pair suite) and, on the symmetric suite, rate q, else None.
Trial = namedtuple("Trial", "seed suite index d_e q")


def _draw(trial: Trial):
    """The attack of ``trial``, or on the vector-pair suite its pair (v0, v1), rebuilt from it alone."""
    rng = trial_rng(trial.seed, trial.suite, trial.index)
    if trial.suite == SUITE_VECTOR_PAIRS:  # complex Gaussians: v0's real, then imaginary parts, then v1's
        return tuple(rng.standard_normal(trial.d_e) + 1j * rng.standard_normal(trial.d_e) for _ in range(2))
    if trial.suite == SUITE_COLLECTIVE:
        return random_collective_attack(trial.d_e, rng)
    if trial.suite == SUITE_RESTRICTED:
        return random_restricted_attack(trial.d_e, rng)
    if trial.suite == SUITE_SYMMETRIC:
        return random_symmetric_attack(trial.q, rng, trial.d_e)
    raise ValueError(f"unknown suite id {trial.suite!r}")


def _dimensions(d_e_list: Iterable[int]) -> tuple[int, ...]:
    """``d_e_list`` read once, as a nonempty tuple of valid ancilla dimensions."""
    if not hasattr(d_e_list, "__iter__"):
        raise ValueError(f"ancilla dimension list {d_e_list!r} is not a sequence")
    if dims := tuple(_check_d_e(d, minimum=2) for d in d_e_list):
        return dims
    raise ValueError("ancilla dimension list is empty")


def _draws(suite: int, trials: int, seed: int, d_e_list: Iterable[int]) -> Iterator:
    """The draw of each trial in ``suite``'s stream, one at a time, after validating the arguments:
    trial t draws at d_E = d_e_list[t % len(d_e_list)], and the symmetric suite runs ``trials``
    trials at each rate Q_GRID[i], under the indices i * trials + t."""
    dims, trials = _dimensions(d_e_list), _check_integer("trials", trials, 1)
    rates = enumerate(Q_GRID if suite == SUITE_SYMMETRIC else (None,))
    return (
        _draw(Trial(seed, suite, i * trials + t, dims[t % len(dims)], q))
        for i, q in rates for t in range(trials)
    )


def _reports(suite: int, sample: Iterable) -> list[VerifyReport]:
    """The reports of ``suite``'s checks in table order, each over its residuals of ``sample``, read once."""
    names, residuals = zip(*[(name, residual) for name, (s, residual) in _CHECKS.items() if s == suite])
    per_item = [[residual(item) for residual in residuals] for item in sample]
    return [_report(name, column, TOL.equivalence) for name, column in zip(names, zip(*per_item))]


def collective_reduction_residual(attack: CollectiveAttack) -> float:
    """Worst trace distance between a collective attack and its restricted form.

    Compares the final joint states over all four preparation states and
    both of B's operations in the prepare-and-measure protocol, and over
    both operations in the entangled variant.
    """
    derived = derive_restricted_from_collective(attack)
    return _violation(*(
        trace_distance(simulate(attack, *args), simulate(derived, *args))
        for op in (MEASURE_RESEND, REFLECT)
        for simulate, args in (
            *((simulate_sqkd, (state, op)) for state in alice_states()),
            (simulate_entangled_sqkd, (op,)),
        )
    ))


def restricted_reduction_residual(attack: RestrictedAttack) -> float:
    """Worst trace distance between the entangled protocol under a restricted
    attack and the B-prepares protocol under the derived one-shot isometry."""
    reduced = derive_reduced_attack(attack)
    return _violation(*(
        trace_distance(simulate_entangled_sqkd(attack, op), simulate_reduced(reduced, op))
        for op in (MEASURE_RESEND, REFLECT)
    ))


def vector_pair_residual(v0: np.ndarray, v1: np.ndarray) -> float:
    """Residual of the rank-two trace-norm identities on one vector pair.

    For M = |v0><v1| + |v1><v0| with <v0|v1> = a + bi, the only possibly
    nonzero eigenvalues are a +/- sqrt(<v0|v0><v1|v1> - b^2), so the trace
    norm is bounded by 2 sqrt(<v0|v0><v1|v1>). Returns the worst of: the
    bound violation, the closed-form-vs-eigensolver eigenvalue mismatch,
    and the trace-norm mismatch between the two routes.
    """
    v0 = np.asarray(v0, dtype=complex).reshape(-1)
    v1 = np.asarray(v1, dtype=complex).reshape(-1)
    if not v0.size == v1.size >= 2:  # the rank-two identities need two dimensions
        raise ValueError(f"vectors must share one length >= 2, got lengths {v0.size} and {v1.size}")
    m = np.outer(v0, v1.conj()) + np.outer(v1, v0.conj())
    w = np.linalg.eigvalsh(m)  # ascending, so lam_plus pairs with w[-1]
    tn = float(np.sum(np.abs(w)))
    n0 = float(np.real(np.vdot(v0, v0)))
    n1 = float(np.real(np.vdot(v1, v1)))
    ip = complex(np.vdot(v0, v1))
    root = math.sqrt(max(0.0, n0 * n1 - ip.imag**2))
    lam_plus, lam_minus = ip.real + root, ip.real - root
    return _violation(
        tn - 2.0 * math.sqrt(n0 * n1),  # bound violation (negative when satisfied)
        abs(w[-1] - lam_plus),
        abs(w[0] - lam_minus),
        abs(tn - (lam_plus - lam_minus)),
    )


class SymmetricAttackDiagnostics(namedtuple(
    "SymmetricAttackDiagnostics", "q d_e q_x s_reflect s_resend s_aux s_x_given_a2 td_reflect_aux h_key_given_b"
)):
    """Exact entropic quantities of one symmetric attack.

    All entropies are conditional von Neumann entropies in bits, computed
    from the exact round states of the derived B-prepares protocol:
    ``s_reflect``, ``s_resend``, ``s_aux`` are S(A1^Z|E) for the three
    round flavors, ``s_x_given_a2`` is S(A1^X|A2) on reflect rounds, and
    ``h_key_given_b`` is the Shannon entropy H(A1^Z|B^Z) on key rounds.
    """

    __slots__ = ()


def symmetric_attack_diagnostics(attack: RestrictedAttack) -> SymmetricAttackDiagnostics:
    """Compute all entropic diagnostics for one symmetric attack (q0 = q1)."""
    reduced = derive_reduced_attack(attack)
    stats = estimate_noise_stats(reduced)
    d_e = attack.d_e
    # Each key state is block-diagonal in A1, with d_E x d_E blocks rho_a, so
    # S(A1^Z|E) = sum_a S(rho_a) - S(rho_0 + rho_1) and td(reflect, aux) is
    # 1/2 sum_a ||rho_a - sigma_a||_1: one eigvalsh over 6 blocks, 3 sums, 2 differences
    key_states = reduced_round_states(reduced)
    blocks = np.stack([np.einsum("aiaj->aij", k.matrix.reshape(2, d_e, 2, d_e)) for k in key_states])
    stack = [blocks.reshape(6, d_e, d_e), blocks.sum(axis=1), blocks[0] - blocks[2]]
    lam = np.linalg.eigvalsh(np.concatenate(stack))
    h = _entropy_bits(lam)
    s_reflect, s_resend, s_aux = map(float, h[:6].reshape(3, 2).sum(axis=1) - h[6:9])
    td_reflect_aux = 0.5 * float(np.sum(np.abs(lam[9:])))

    pinched_x = measure_register(_round_state(reduced, REFLECT, ("A1", "A2")), "A1", "X")
    s_x_given_a2 = conditional_entropy(pinched_x, {"A1"}, {"A2"})

    # H(A1^Z|B^Z) = sum_b P(b) h(P(A1=1|b)), P(A1, B) off the resend (A1, B) marginal
    p_a1_b = np.real(np.diagonal(_round_marginal(reduced, MEASURE_RESEND, ("A1", "B")))).reshape(2, 2)
    p_b = p_a1_b.sum(axis=0)
    h_key_given_b = float(sum(p_b[b] * binary_entropy(p_a1_b[1, b] / p_b[b]) for b in (0, 1) if p_b[b] > 0))

    return SymmetricAttackDiagnostics(
        stats.q_fwd, d_e, stats.q_x, s_reflect, s_resend, s_aux, s_x_given_a2, td_reflect_aux, h_key_given_b
    )


def symmetric_diagnostics_sample(
    trials: int, seed: int, d_e_list: Iterable[int] = DEFAULT_D_E
) -> list[SymmetricAttackDiagnostics]:
    """Diagnostics for ``trials`` seeded attacks at every rate in Q_GRID."""
    return [symmetric_attack_diagnostics(a) for a in _draws(SUITE_SYMMETRIC, trials, seed, d_e_list)]


def _folded(q_x: float) -> float:
    # h is symmetric about 1/2, so the bound only needs the folded rate
    return min(q_x, 1.0 - q_x)


def uncertainty_residual(diag: SymmetricAttackDiagnostics) -> float:
    """Violation of the entropic uncertainty relations on reflect rounds.

    Checks S(A1^Z|E) + S(A1^X|A2) >= 1 and its observable consequence
    S(A1^Z|E) >= 1 - h(Q_X).
    """
    return _violation(
        1.0 - (diag.s_reflect + diag.s_x_given_a2),
        reflect_entropy_bound(_folded(diag.q_x)) - diag.s_reflect,
    )


def continuity_residual(diag: SymmetricAttackDiagnostics) -> float:
    """Violation of the entropy continuity bound on the (reflect, aux) pair."""
    gap = abs(diag.s_reflect - diag.s_aux)
    return _violation(gap - continuity_bound(diag.td_reflect_aux))


def epsilon_residual(diag: SymmetricAttackDiagnostics) -> float:
    """Violation of the trace-distance bound td(reflect, aux) <= 4Q(1-Q)."""
    return _violation(diag.td_reflect_aux - 4.0 * diag.q * (1.0 - diag.q))


def main_bound_residual(diag: SymmetricAttackDiagnostics) -> float:
    """Violation of the key-round entropy bound and of the final rate bound.

    Checks S(A1^Z|E)_resend >= resend_entropy_bound(exact S_reflect, Q)
    and that the analytic rate never exceeds the simulated true rate
    S(A1^Z|E)_resend - H(A1^Z|B^Z).
    """
    f_value, _ = resend_entropy_bound(diag.s_reflect, diag.q)
    analytic = key_rate(diag.q, explicit(_folded(diag.q_x))).r
    true_rate = diag.s_resend - diag.h_key_given_b
    return _violation(f_value - diag.s_resend, analytic - true_rate)


def check_thm1_equivalence(
    trials: int, seed: int, d_e_list: Iterable[int] = DEFAULT_D_E
) -> VerifyReport:
    """Collective-to-restricted reduction over seeded Haar-random attacks."""
    (report,) = _reports(SUITE_COLLECTIVE, _draws(SUITE_COLLECTIVE, trials, seed, d_e_list))
    return report


def check_thm2_equivalence(
    trials: int, seed: int, d_e_list: Iterable[int] = DEFAULT_D_E
) -> VerifyReport:
    """Restricted-to-reduced protocol equivalence over seeded random attacks."""
    (report,) = _reports(SUITE_RESTRICTED, _draws(SUITE_RESTRICTED, trials, seed, d_e_list))
    return report


def check_lemma_trd(trials: int, seed: int) -> VerifyReport:
    """Trace-norm bound and closed-form eigenvalues on random vector pairs.

    Vector dimensions cycle through 2..8; entries are unnormalized complex
    Gaussians, so the identities are exercised away from unit norm.
    """
    (report,) = _reports(SUITE_VECTOR_PAIRS, _draws(SUITE_VECTOR_PAIRS, trials, seed, range(2, 9)))
    return report


def check_isometries(
    trials: int, seed: int, d_e_list: Iterable[int] = DEFAULT_D_E
) -> VerifyReport:
    """Orthonormality residuals of every constructed isometry and unitary.

    Replays the attack streams of the equivalence and entropy suites (the
    collective ones in their derived restricted form) and measures the
    worst Gram-matrix residual of the forward and two-column rewind
    isometries, the reverse unitary, and the derived one-shot isometry.
    """
    def residual(attack: CollectiveAttack | RestrictedAttack) -> float:
        if isinstance(attack, CollectiveAttack):
            attack = derive_restricted_from_collective(attack)
        return _violation(
            _isometry_residual(forward_isometry(attack)),
            _isometry_residual(build_rewind(attack)),
            _isometry_residual(attack.u),
            _isometry_residual(derive_reduced_attack(attack).v),
        )

    suites, d_e_list = (SUITE_COLLECTIVE, SUITE_RESTRICTED, SUITE_SYMMETRIC), _dimensions(d_e_list)
    residuals = [residual(attack) for suite in suites for attack in _draws(suite, trials, seed, d_e_list)]
    return _report("isometries", residuals, TOL.isometry)


def run_all_checks(
    trials: int, seed: int, d_e_list: Iterable[int] = DEFAULT_D_E
) -> list[VerifyReport]:
    """All named checks in reporting order.

    ``trials`` is the number of attacks per equivalence suite and per
    error-rate grid point of the entropy suites. The four entropy checks
    share one attack sample, so their reported trial counts are equal.
    """
    d_e_list = _dimensions(d_e_list)
    return [
        check_thm1_equivalence(trials, seed, d_e_list),
        check_thm2_equivalence(trials, seed, d_e_list),
        check_lemma_trd(trials, seed),
        *_reports(SUITE_SYMMETRIC, symmetric_diagnostics_sample(trials, seed, d_e_list)),
    ]
