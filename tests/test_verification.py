"""Tests for the randomized verification suites and their report type."""
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqkd import verification
from sqkd.attacks import (
    MEASURE_RESEND,
    REFLECT,
    CollectiveAttack,
    RestrictedAttack,
    _round_vector,
    build_rewind,
    derive_reduced_attack,
    derive_restricted_from_collective,
    estimate_noise_stats,
    forward_isometry,
    random_collective_attack,
    random_restricted_attack,
    random_symmetric_attack,
    simulate_reduced,
)
from sqkd.cli import main
from sqkd.keyrate import (
    FLOOR_BRANCH,
    MAIN_BRANCH,
    continuity_bound,
    explicit,
    key_rate,
    reflect_entropy_bound,
    resend_entropy_bound,
)
from sqkd.linalg import (
    DensityOperator,
    conditional_entropy,
    haar_random_unitary,
    layout,
    measure_register,
    partial_trace,
    trace_distance,
)
from sqkd.tolerances import DEFAULT as TOL
from sqkd.verification import (
    CHECK_NAMES,
    Q_GRID,
    SymmetricAttackDiagnostics,
    VerifyReport,
    check_isometries,
    check_lemma_trd,
    check_thm1_equivalence,
    check_thm2_equivalence,
    collective_reduction_residual,
    continuity_residual,
    epsilon_residual,
    main_bound_residual,
    restricted_reduction_residual,
    run_all_checks,
    symmetric_attack_diagnostics,
    symmetric_diagnostics_sample,
    trial_rng,
    uncertainty_residual,
    vector_pair_residual,
)

EXACT = 1e-12
# Z error rates below the grid, where an entropy that drops small positive
# eigenvalues reads up to h(1e-12) ~ 4e-11 bits low
EDGE_Q = (1e-12, 1e-9, 1e-6)


def test_trial_rng_streams():
    a = trial_rng(3, 1, 0).random(4)
    b = trial_rng(3, 1, 0).random(4)
    assert np.array_equal(a, b)
    c = trial_rng(3, 1, 1).random(4)
    d = trial_rng(3, 2, 0).random(4)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        trial_rng(-1, 1, 0)


@pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf")])
def test_non_integral_seeds_raise_value_error(bad):
    for key in ((bad, 1, 0), (3, bad, 0), (3, 1, bad)):
        with pytest.raises(ValueError, match="not an integer"):
            trial_rng(*key)
    with pytest.raises(ValueError, match="not an integer"):
        run_all_checks(1, bad)


def test_integral_float_seed_is_its_integer():
    assert np.array_equal(trial_rng(3.0, 1.0, 0.0).random(4), trial_rng(3, 1, 0).random(4))
    assert np.array_equal(trial_rng(np.int64(3), 1, 0).random(4), trial_rng(3, 1, 0).random(4))
    assert run_all_checks(1, 3.0, (2,)) == run_all_checks(1, 3, (2,))


def test_suite_streams_follow_trial_rng(monkeypatch):
    # trial t of a suite draws from trial_rng(seed, suite, q_index * trials + t), q_index 0 but
    # on the symmetric suite, at d_E = d_e_list[t % len(d_e_list)]; with 3 trials over (2, 3) a
    # d_E read off the symmetric suite's flat index would pick the other dimension
    trials, seed, d_e_list = 3, 8, (2, 3)
    suites = (
        verification.SUITE_COLLECTIVE,
        verification.SUITE_RESTRICTED,
        verification.SUITE_VECTOR_PAIRS,
        verification.SUITE_SYMMETRIC,
    )
    assert suites == (1, 2, 3, 4)  # the ids key the streams, so they belong to the reproducible output

    def rng(suite, index):
        return trial_rng(seed, suite, index)

    collective = [random_collective_attack(d_e_list[t % 2], rng(1, t)) for t in range(trials)]
    restricted = [random_restricted_attack(d_e_list[t % 2], rng(2, t)) for t in range(trials)]
    symmetric = [
        random_symmetric_attack(q, rng(4, q_index * trials + t), d_e_list[t % 2])
        for q_index, q in enumerate(Q_GRID)
        for t in range(trials)
    ]
    # the k-th residual of each equivalence suite, read where the suite calls its per-trial function
    for check, trial_fn, attacks in (
        (check_thm1_equivalence, "collective_reduction_residual", collective),
        (check_thm2_equivalence, "restricted_reduction_residual", restricted),
    ):
        original, seen = getattr(verification, trial_fn), []

        def recorded(attack, original=original, seen=seen):
            seen.append(original(attack))
            return seen[-1]

        monkeypatch.setattr(verification, trial_fn, recorded)
        report = check(trials, seed, d_e_list)
        assert seen == [original(a) for a in attacks]
        assert report.max_residual == max(seen)
    sample = symmetric_diagnostics_sample(trials, seed, d_e_list)
    assert sample == [symmetric_attack_diagnostics(a) for a in symmetric]
    assert [d.d_e for d in sample] == [2, 3, 2] * len(Q_GRID)

    def gram_residual(m):
        return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))

    replayed = [derive_restricted_from_collective(a) for a in collective] + restricted + symmetric
    worst = max(
        max(map(gram_residual, (forward_isometry(a), build_rewind(a), a.u, derive_reduced_attack(a).v)))
        for a in replayed
    )
    report = check_isometries(trials, seed, d_e_list)
    assert report.trials == len(replayed) and report.max_residual == worst

    # the vector-pair suite's trial t draws v0's real and imaginary parts, then v1's, from
    # trial_rng(seed, 3, t) at dimension 2 + t mod 7; nine trials wrap the cycle
    def hand_pair(t):
        generator, dim = rng(3, t), 2 + t % 7
        return [generator.standard_normal(dim) + 1j * generator.standard_normal(dim) for _ in range(2)]

    original, seen = verification.vector_pair_residual, []

    def recorded(v0, v1):
        seen.append((v0, v1))
        return original(v0, v1)

    monkeypatch.setattr(verification, "vector_pair_residual", recorded)
    report = check_lemma_trd(9, seed)
    pairs = [hand_pair(t) for t in range(9)]
    assert len(seen) == len(pairs) == report.trials
    for (v0, v1), (w0, w1) in zip(seen, pairs):
        assert np.array_equal(v0, w0) and np.array_equal(v1, w1)
    assert report.max_residual == max(original(*pair) for pair in pairs)


ENTROPY_RESIDUALS = {
    "uncertainty": uncertainty_residual,
    "continuity": continuity_residual,
    "main-ent": main_bound_residual,
    "epsilon-bound": epsilon_residual,
}


def _trial_residual(check, draw):
    """The residual ``check`` reads off one trial's draw."""
    if check == "thm1-equivalence":
        return collective_reduction_residual(draw)
    if check == "thm2-equivalence":
        return restricted_reduction_residual(draw)
    if check == "lemma-trd":
        return vector_pair_residual(*draw)
    return ENTROPY_RESIDUALS[check](symmetric_attack_diagnostics(draw))


def test_worst_trial_of_every_check_replays_from_its_trial_alone(monkeypatch):
    # the trials of each suite's stream, read where the suites draw them
    drawn, draw = [], verification._draw
    monkeypatch.setattr(verification, "_draw", lambda trial: drawn.append(trial) or draw(trial))
    reports = run_all_checks(3, 11, (2, 3))
    monkeypatch.undo()
    suite_of = {"thm1-equivalence": 1, "thm2-equivalence": 2, "lemma-trd": 3, **dict.fromkeys(ENTROPY_RESIDUALS, 4)}
    assert [r.check for r in reports] == list(suite_of)
    for report in reports:
        trials = [trial for trial in drawn if trial.suite == suite_of[report.check]]
        assert len(trials) == report.trials
        worst = max(trials, key=lambda trial: _trial_residual(report.check, draw(trial)))
        # a fresh draw from the worst trial's fields alone gives the reported residual, bit for bit
        replayed = _trial_residual(report.check, draw(verification.Trial(*worst)))
        assert replayed.hex() == report.max_residual.hex(), (report.check, worst)


def test_each_check_reports_its_own_residual(monkeypatch):
    # distinct constants for the seven residual functions come back in CHECK_NAMES order,
    # so two checks that read each other's residual fail here
    residual_of = {
        "thm1-equivalence": "collective_reduction_residual",
        "thm2-equivalence": "restricted_reduction_residual",
        "lemma-trd": "vector_pair_residual",
        "uncertainty": "uncertainty_residual",
        "continuity": "continuity_residual",
        "main-ent": "main_bound_residual",
        "epsilon-bound": "epsilon_residual",
    }
    assert tuple(residual_of) == CHECK_NAMES
    constants = {check: (k + 1) * 1e-13 for k, check in enumerate(CHECK_NAMES)}
    for check, name in residual_of.items():
        monkeypatch.setattr(verification, name, lambda *args, value=constants[check]: value)
    reports = run_all_checks(1, 1, (2,))
    assert [(report.check, report.max_residual) for report in reports] == list(constants.items())


@pytest.mark.parametrize("q", [0.05, None])
def test_unknown_suite_id_raises_value_error(q):
    # suite 5 owns no stream: it used to be read as the symmetric suite
    with pytest.raises(ValueError, match="unknown suite id 5"):
        verification._draw(verification.Trial(1, 5, 0, 2, q))


def test_verify_report_consistency_gate():
    report = VerifyReport("demo", 5, 1e-12, 1e-9, True)
    assert report.passed
    with pytest.raises(ValueError):
        VerifyReport("demo", 5, 1e-6, 1e-9, True)  # claims pass above tolerance


@pytest.mark.parametrize(
    "terms, expected",
    [((2e-15, -0.3, 1e-15), 2e-15), ((-0.3, -0.0, -1e-15), 0.0), ((1e-15, -0.3, math.nan), math.nan)],
)
def test_violation_is_the_largest_term_and_zero_or_nan_in_any_order(terms, expected):
    for order in itertools.permutations(terms):
        value = verification._violation(*order)
        assert value == expected or (math.isnan(value) and math.isnan(expected)), order
        assert math.copysign(1.0, value) == 1.0 and type(value) is float, order


def test_nan_worst_residual_fails_its_report():
    # max([1e-15, nan]) is 1e-15: the NaN trial would read as a pass
    for residuals in ([1e-15, math.nan], [math.nan, 1e-15]):
        report = verification._report("demo", residuals, 1e-9)
        assert math.isnan(report.max_residual) and report.passed is False
        assert report.trials == 2


@pytest.fixture(scope="module")
def diagnostics():
    return symmetric_attack_diagnostics(random_symmetric_attack(0.05, trial_rng(1, 4, 0), 3))


@pytest.mark.parametrize(
    "residual_fn, field",
    [
        (uncertainty_residual, "s_x_given_a2"),
        (continuity_residual, "s_aux"),
        (epsilon_residual, "td_reflect_aux"),
        (main_bound_residual, "s_resend"),
        (main_bound_residual, "h_key_given_b"),
    ],
)
def test_nan_diagnostic_gives_nan_residual(diagnostics, residual_fn, field):
    assert residual_fn(diagnostics) <= 1e-12
    assert math.isnan(residual_fn(diagnostics._replace(**{field: math.nan})))


def _poison_second_symmetric_trial(monkeypatch):
    # trial 1, not trial 0, so a worst-of-trials that starts from the first trial is tested too
    original = verification.symmetric_attack_diagnostics
    calls = itertools.count()

    def poisoned(attack):
        diag = original(attack)
        return diag._replace(s_aux=math.nan) if next(calls) == 1 else diag

    monkeypatch.setattr(verification, "symmetric_attack_diagnostics", poisoned)


def test_nan_trial_fails_end_to_end(monkeypatch, capsys):
    _poison_second_symmetric_trial(monkeypatch)
    reports = {report.check: report for report in run_all_checks(2, seed=33)}
    assert reports["continuity"].passed is False
    assert math.isnan(reports["continuity"].max_residual)
    assert all(r.passed for name, r in reports.items() if name != "continuity")
    for fmt, cell in (("csv", "continuity,8,nan,1e-09,false"), ("json", '"max_residual": NaN')):
        _poison_second_symmetric_trial(monkeypatch)
        assert main(["verify", "--trials", "2", "--seed", "33", "--format", fmt]) == 1
        assert cell in capsys.readouterr().out


def test_vector_pair_residual_hand_case():
    v0 = np.array([1.0, 0.0], dtype=complex)
    v1 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert vector_pair_residual(v0, v1) < EXACT


@pytest.mark.parametrize("lengths", [(0, 0), (2, 3), (4, 2), (1, 1), (0, 2)])
def test_vector_pair_residual_names_both_lengths(lengths):
    # empty vectors once raised IndexError, unequal ones numpy's broadcast error, and a
    # pair of length 1, with no room for the rank-two identities, read a false residual
    n0, n1 = lengths
    with pytest.raises(ValueError, match=f"^vectors must share one length >= 2, got lengths {n0} and {n1}$"):
        vector_pair_residual(np.ones(n0) / max(n0, 1), np.ones(n1) / max(n1, 1))


def full_gate_from_state(cls, psi, lay):
    """The projector of ``psi`` built as a matrix, through all three matrix gates, after the norm gate."""
    v = np.array(psi, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if not abs(norm * norm - 1.0) <= TOL.trace_one:
        raise ValueError(f"state vector norm {norm} is not 1 within tolerance")
    rho = cls(np.outer(v, v.conj()), lay)
    v.setflags(write=False)
    object.__setattr__(rho, "_vector", v)
    return rho


def test_vector_gated_states_give_the_reports_of_full_gate_states(monkeypatch):
    fast = repr(run_all_checks(2, 7, (2, 8)))
    monkeypatch.setattr(DensityOperator, "from_state", classmethod(full_gate_from_state))
    assert repr(run_all_checks(2, 7, (2, 8))) == fast


def test_simulated_states_run_the_constructor_but_no_cholesky(monkeypatch):
    counts = dict.fromkeys(("init", "cholesky", "simulated"), 0)

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(DensityOperator, "__init__", counting("init", DensityOperator.__init__))
    monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
    for name in ("simulate_sqkd", "simulate_entangled_sqkd", "simulate_reduced"):
        monkeypatch.setattr(verification, name, counting("simulated", getattr(verification, name)))
    run_all_checks(2, 7, (2, 8))
    assert counts["cholesky"] == 0
    assert counts["init"] == counts["simulated"] > 0


def test_equivalence_checks_small():
    report = check_thm1_equivalence(3, seed=21)
    assert report.check == "thm1-equivalence"
    assert report.trials == 3
    assert report.passed and report.max_residual <= report.tolerance
    report = check_thm2_equivalence(3, seed=21)
    assert report.check == "thm2-equivalence"
    assert report.passed


def test_lemma_check_small():
    report = check_lemma_trd(20, seed=21)
    assert report.check == "lemma-trd"
    assert report.passed


def test_isometry_check_small():
    report = check_isometries(3, seed=21)
    assert report.check == "isometries"
    # thm1 and thm2 streams plus the symmetric stream at every Q_GRID rate
    assert report.trials == (2 + len(Q_GRID)) * 3
    assert report.passed and report.tolerance == 1e-10


SUITES = (check_thm1_equivalence, check_thm2_equivalence, check_isometries, symmetric_diagnostics_sample, run_all_checks)


@pytest.mark.parametrize("d_e_list", [(), (2, 9), np.array([], dtype=int), iter([])])
def test_suites_reject_bad_ancilla_dimension_lists(d_e_list):
    # (2, 9) with one trial never reaches the 9, so the list must be checked
    # as a whole before any trial runs; an empty iterator is truthy, so emptiness
    # is read off the values
    for suite in SUITES:
        with pytest.raises(ValueError):
            suite(1, 0, d_e_list)


@pytest.mark.parametrize(
    "dimensions",
    [lambda: np.array([2, 3]), lambda: iter([2, 3]), lambda: (d for d in (2, 3))],
    ids=["numpy", "iterator", "generator"],
)
def test_any_iterable_of_ancilla_dimensions_is_read_once(dimensions):
    # a numpy array failed the emptiness gate's truth test, and a one-shot iterator was used
    # up by the first suite: the next one saw an empty list and divided by zero
    for suite in SUITES:
        assert suite(1, 1, dimensions()) == suite(1, 1, (2, 3)), suite.__name__


def test_symmetric_sample_shape_and_content():
    sample = symmetric_diagnostics_sample(2, seed=21)
    assert len(sample) == 2 * len(Q_GRID)
    for diag in sample:
        assert isinstance(diag, SymmetricAttackDiagnostics)
        # the recorded q is measured from the simulated state, so it matches
        # its grid point only up to numerical precision
        assert min(abs(diag.q - grid_q) for grid_q in Q_GRID) < 1e-12
        assert 0.0 <= diag.q_x <= 1.0
        # entropies of qubit key registers stay in [0, 1]
        assert -EXACT <= diag.s_reflect <= 1.0 + EXACT
        # plain Python numbers, not numpy scalars
        for name, value in diag._asdict().items():
            assert type(value) is (int if name == "d_e" else float), name
    # deterministic under the same seed
    again = symmetric_diagnostics_sample(2, seed=21)
    assert [d.q_x for d in again] == [d.q_x for d in sample]


def _symmetric_attacks(d_e):
    rng = np.random.default_rng(40 + d_e)
    return [random_symmetric_attack(q, rng, d_e) for q in (*Q_GRID, *EDGE_Q)]


def _degenerate_attacks():
    # reduced forms with p0 = 0 and p0 = 1, so one value of B never occurs
    u = haar_random_unitary(4, np.random.default_rng(16))
    return [
        RestrictedAttack(0.0, 1.0, 0.0, 0.3 + 0.2j, u, 2),
        RestrictedAttack(1.0, 0.0, 0.7j, 0.0, u, 2),
    ]


@pytest.mark.parametrize(
    "attacks",
    [*(functools.partial(_symmetric_attacks, d_e) for d_e in (2, 3, 4, 8)), _degenerate_attacks],
    ids=["d_e=2", "d_e=3", "d_e=4", "d_e=8", "degenerate"],
)
def test_key_entropy_given_b_matches_pinch_route(attacks):
    for attack in attacks():
        # reference: pinch A1 and B in Z on the full resend state, then S(A1 B) - S(B)
        resend = simulate_reduced(derive_reduced_attack(attack), MEASURE_RESEND)
        pinched = measure_register(measure_register(resend, "A1", "Z"), "B", "Z")
        reference = conditional_entropy(pinched, {"A1"}, {"B"})
        assert abs(symmetric_attack_diagnostics(attack).h_key_given_b - reference) <= EXACT


def density_matrix_reference(attack):
    """Diagnostics and reduced noise stats from full round density operators."""
    reduced = derive_reduced_attack(attack)
    lay = layout(("A1", 2), ("A2", 2), ("B", 2), ("E", attack.d_e))
    full = {
        name: DensityOperator.from_state(_round_vector(reduced, name), lay)
        for name in (REFLECT, MEASURE_RESEND, "aux")
    }
    key = {
        name: partial_trace(measure_register(rho, "A1", "Z"), {"A1", "E"})
        for name, rho in full.items()
    }
    s_key = {name: conditional_entropy(rho, {"A1"}, {"E"}) for name, rho in key.items()}
    # P(A1, A2, B) off the full resend diagonal; X disagreement from X (x) X projectors
    p = np.real(np.diagonal(full[MEASURE_RESEND].matrix)).reshape(2, 2, 2, -1).sum(axis=3)
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    a1a2 = partial_trace(full[REFLECT], {"A1", "A2"}).matrix
    q_x = np.real(np.trace((np.kron(plus, minus) + np.kron(minus, plus)) @ a1a2))
    pinched_zz = measure_register(measure_register(full[MEASURE_RESEND], "A1", "Z"), "B", "Z")
    diag = SymmetricAttackDiagnostics(
        q=p[0, :, 1].sum() + p[1, :, 0].sum(),
        d_e=attack.d_e,
        q_x=q_x,
        s_reflect=s_key[REFLECT],
        s_resend=s_key[MEASURE_RESEND],
        s_aux=s_key["aux"],
        s_x_given_a2=conditional_entropy(measure_register(full[REFLECT], "A1", "X"), {"A1"}, {"A2"}),
        td_reflect_aux=trace_distance(key[REFLECT], key["aux"]),
        h_key_given_b=conditional_entropy(pinched_zz, {"A1"}, {"B"}),
    )
    stats = (diag.q, p[:, 0, 1].sum() + p[:, 1, 0].sum(), q_x)
    return diag, stats


@pytest.mark.parametrize(
    "attacks",
    [*(functools.partial(_symmetric_attacks, d_e) for d_e in (2, 3, 4, 8)), _degenerate_attacks],
    ids=["d_e=2", "d_e=3", "d_e=4", "d_e=8", "degenerate"],
)
def test_vector_route_matches_density_matrix_route(attacks):
    for attack in attacks():
        reference, reference_stats = density_matrix_reference(attack)
        diag = symmetric_attack_diagnostics(attack)
        for name in SymmetricAttackDiagnostics._fields:
            assert abs(getattr(diag, name) - getattr(reference, name)) <= EXACT, name
        stats = estimate_noise_stats(derive_reduced_attack(attack))
        for value, expected in zip((stats.q_fwd, stats.q_rev, stats.q_x), reference_stats):
            assert abs(value - expected) <= EXACT


@settings(deadline=None, max_examples=25)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(min_value=0.0, max_value=0.5),
    st.sampled_from((2, 3, 4, 8)),
)
@example(0, EDGE_Q[0], 2)
@example(1, EDGE_Q[1], 3)
@example(2, EDGE_Q[2], 8)
def test_e_side_rotation_leaves_every_observable_unchanged(seed, q, d_e):
    # (I_T (x) W) U only rotates E after the last round, so nothing A and B see,
    # and no entropy or distance conditioned on E, may move
    rng = np.random.default_rng(seed)
    attack = random_symmetric_attack(q, rng, d_e)
    w = np.kron(np.eye(2), haar_random_unitary(d_e, rng))
    rotated = RestrictedAttack(attack.q0, attack.q1, attack.eta0, attack.eta1, w @ attack.u, d_e)
    diag, turned = symmetric_attack_diagnostics(attack), symmetric_attack_diagnostics(rotated)
    for name in SymmetricAttackDiagnostics._fields:
        assert abs(getattr(turned, name) - getattr(diag, name)) <= EXACT, name
    # each block-route quantity is a spectrum of E blocks, so a wrong combination of
    # blocks is just as invariant: every field is also checked against the density-matrix route
    reference, reference_stats = density_matrix_reference(attack)
    for name in SymmetricAttackDiagnostics._fields:
        assert abs(getattr(turned, name) - getattr(reference, name)) <= EXACT, name
    for form in (attack, rotated, derive_reduced_attack(rotated)):
        stats = estimate_noise_stats(form)
        for value, expected in zip((stats.q_fwd, stats.q_rev, stats.q_x), reference_stats):
            assert abs(value - expected) <= EXACT


# named d_E = 2 attacks: (forward, reverse) unitaries on (T, E), T the leading factor
CNOT_T_TO_E = np.eye(4)[:, [0, 1, 3, 2]]
Z_ON_T = np.diag([1.0, 1.0, -1.0, -1.0])
SWAP_T_E = np.eye(4)[:, [0, 2, 1, 3]]
NAMED_ATTACKS = {
    "no-attack": (np.eye(4), np.eye(4)),
    "z-copy-intercept": (CNOT_T_TO_E, np.eye(4)),
    "reverse-phase-flip": (np.eye(4), Z_ON_T),
    "swap-forward": (SWAP_T_E, np.eye(4)),
}
# fields in order: q, d_e, q_x, s_reflect, s_resend, s_aux, s_x_given_a2, td_reflect_aux, h_key_given_b
CLOSED_FORMS = {
    "no-attack": SymmetricAttackDiagnostics(0.0, 2, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0),
    "z-copy-intercept": SymmetricAttackDiagnostics(0.0, 2, 0.5, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
    "reverse-phase-flip": SymmetricAttackDiagnostics(0.0, 2, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0),
    "swap-forward": SymmetricAttackDiagnostics(0.5, 2, 0.5, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0),
}
# the true key rate S(A1^Z|E) - H(A1^Z|B^Z) on resend rounds
TRUE_RATES = {"no-attack": 1.0, "z-copy-intercept": 0.0, "reverse-phase-flip": 1.0, "swap-forward": -1.0}
# slack of each verify inequality, in order: S_Z + S_X - 1, S_Z - (1 - h(folded Q_X)),
# continuity_bound(td) - |S_reflect - S_aux|, S_resend - f, true rate - r, 4Q(1-Q) - td;
# then the branch that both f and r take
SLACKS = {
    "no-attack": ((0.0, 0.0, 0.0, 0.0, 0.0, 0.0), MAIN_BRANCH),
    "z-copy-intercept": ((0.0, 0.0, 0.0, 0.0, 0.0, 0.0), MAIN_BRANCH),
    "reverse-phase-flip": ((0.0, 0.0, 0.0, 0.0, 0.0, 0.0), MAIN_BRANCH),
    "swap-forward": ((0.0, 0.0, 0.0, 0.0, 0.0, 1.0), FLOOR_BRANCH),
}


@pytest.mark.parametrize("name", sorted(NAMED_ATTACKS))
def test_named_attacks_match_closed_forms(name):
    """Diagnostics of four named attacks, derived by hand.

    In the entangled picture A1 keeps half of (|00> + |11>)/sqrt(2), A2 is
    the returning transit qubit, B's resend copies its Z value onto B, and
    the aux run negates the |11> branch. A key state is the A1 Z pinch of
    a round's (A1, E) marginal; E starts in |0>.

    - No attack: reflect leaves (|00> + |11>)/sqrt(2) (x) |0>_E and resend
      (|000> + |111>)/sqrt(2) (x) |0>_E. Every key state, aux included, is
      I/2 (x) |0><0|, so S(A1^Z|E) = 1 - 0 = 1 on all three rounds and
      td(reflect, aux) = 0. A2 and B equal A1: q = q_rev = Q_X = 0 and
      H(A1^Z|B^Z) = 0. The Bell pair is (|++> + |-->)/sqrt(2), whose A1 X
      pinch is (|++><++| + |--><--|)/2: S(A1^X|A2) = 1 - 1 = 0.
    - Z-copy intercept (forward CNOT from T onto E, reverse identity):
      reflect leaves (|000> + |111>)/sqrt(2) on (A1, A2, E), so every key
      state is (|00><00| + |11><11|)/2 on (A1, E): S(A1^Z|E) = 1 - 1 = 0
      and td = 0. Z values still agree: q = q_rev = 0, H(A1^Z|B^Z) = 0.
      The (A1, A2) marginal (|00><00| + |11><11|)/2 has <X (x) X> = 0, so
      Q_X = 1/2, and its A1 X pinch is I/4: S(A1^X|A2) = 2 - 1 = 1.
    - Reverse phase flip (forward identity, reverse Z on T): reflect leaves
      (|00> - |11>)/sqrt(2) (x) |0>_E and aux (|00> + |11>)/sqrt(2) (x) |0>_E,
      with key states as under no attack: S(A1^Z|E) = 1, td = 0,
      q = q_rev = 0 and H(A1^Z|B^Z) = 0. (|00> - |11>)/sqrt(2) is
      (|+-> + |-+>)/sqrt(2): X values always differ, Q_X = 1, and the A1 X
      pinch (|+-><+-| + |-+><-+|)/2 gives S(A1^X|A2) = 1 - 1 = 0.
    - SWAP forward (forward SWAP on (T, E), reverse identity): A's qubit
      moves into E and T leaves in E's |0>, so B always reads 0 and A2
      returns |0>. Every round leaves (|00> + |11>)/sqrt(2) on (A1, E)
      beside |0> on A2 (and on B): the key states are
      (|00><00| + |11><11|)/2, the aux sign included, so S(A1^Z|E) =
      1 - 1 = 0 and td = 0. B's bit is 0 against A's uniform one, q = 1/2,
      and the returning Z value is B's, q_rev = 0; B tells nothing about
      A1, H(A1^Z|B^Z) = 1. The (A1, A2) marginal I/2 (x) |0><0| has
      <X (x) X> = 0, so Q_X = 1/2, and its A1 X pinch is itself:
      S(A1^X|A2) = 1 - 0 = 1.

    In all four S(A1^Z|E) + S(A1^X|A2) = 1: the uncertainty relation is
    tight, an edge that Haar-sampled attacks never reach. The true rate
    S(A1^Z|E) - H(A1^Z|B^Z) on resend rounds is 1, 0, 1 and -1 in turn.

    Slack, each inequality's bound side minus its bounded side, in the
    order of SLACKS:

    - Uncertainty: S_Z + S_X - 1 = 0 as above. The folded Q_X is 0, 1/2,
      0 and 1/2, so 1 - h(folded Q_X) is 1, 0, 1 and 0, which is S_Z.
    - Continuity: td = 0 and S_reflect = S_aux in all four, and
      continuity_bound(0) = 0.
    - Main-ent: under the first three Q = 0, so delta = 0 <= S_tau/2 and f
      and r take the main branch. f = S_reflect - 0 = S_resend, and
      r = (1 - h(folded Q_X)) - h(0) = S_resend - H(A1^Z|B^Z), the true
      rate. Under SWAP forward Q = 1/2 and delta(1/2) = 1/2 + h(1/2) = 1.5
      exceeds S_tau/2 = 0, so both take the floor branch S_tau/2 = 0:
      f = 0 = S_resend, and r = 0 - h(1/2) = -1, the true rate.
    - Epsilon: 4Q(1-Q) - td is 0 at Q = 0 and 1 - 0 = 1 under SWAP forward,
      the one inequality with room to spare.
    """
    collective = CollectiveAttack(*NAMED_ATTACKS[name], 2)
    restricted = derive_restricted_from_collective(collective)
    expected = CLOSED_FORMS[name]
    for form in (collective, restricted, derive_reduced_attack(restricted)):
        stats = estimate_noise_stats(form)
        observed = (stats.q_fwd, stats.q_rev, stats.q_x)
        for value, closed_form in zip(observed, (expected.q, 0.0, expected.q_x)):
            assert abs(value - closed_form) <= EXACT
    diag = symmetric_attack_diagnostics(restricted)
    for field in SymmetricAttackDiagnostics._fields:
        assert abs(getattr(diag, field) - getattr(expected, field)) <= EXACT, field
    assert uncertainty_residual(diag) <= EXACT
    assert abs(diag.s_resend - diag.h_key_given_b - TRUE_RATES[name]) <= EXACT
    slacks, branch = SLACKS[name]
    folded_q_x = min(diag.q_x, 1.0 - diag.q_x)
    f_value, f_branch = resend_entropy_bound(diag.s_reflect, diag.q)
    rate = key_rate(diag.q, explicit(folded_q_x))
    observed = (
        diag.s_reflect + diag.s_x_given_a2 - 1.0,
        diag.s_reflect - reflect_entropy_bound(folded_q_x),
        continuity_bound(diag.td_reflect_aux) - abs(diag.s_reflect - diag.s_aux),
        diag.s_resend - f_value,
        diag.s_resend - diag.h_key_given_b - rate.r,
        4.0 * diag.q * (1.0 - diag.q) - diag.td_reflect_aux,
    )
    for value, slack in zip(observed, slacks, strict=True):
        assert abs(value - slack) <= EXACT
    assert (f_branch, rate.branch) == (branch, branch)


def test_run_all_checks_order_and_passes():
    reports = run_all_checks(2, seed=33)
    assert tuple(report.check for report in reports) == CHECK_NAMES
    assert all(report.passed for report in reports)
    assert all(report.max_residual <= report.tolerance for report in reports)
    # trials per equivalence suite and lemma-trd; trials per Q_GRID point in the entropy suites
    assert [report.trials for report in reports] == [2, 2, 2, 8, 8, 8, 8]


@pytest.mark.parametrize("trials, seed, d_e_list", [(20, 42, (2, 3, 4)), (3, 5, (8,))])
def test_verify_residuals_stay_within_precision_budget(trials, seed, d_e_list):
    # every residual is around 1e-14 today; this catches a loss of precision
    # long before it reaches the 1e-9 pass gate
    for report in run_all_checks(trials, seed, d_e_list):
        assert report.max_residual <= 1e-12, (report.check, report.max_residual)
