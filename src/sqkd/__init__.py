"""Numerical toolkit for semi-quantum key distribution security bounds.

Exact density-operator simulation of the two-way protocol under attack,
constructive reductions between the three attack parameterizations, the
entropic key-rate lower bound with its noise-tolerance thresholds, and
seeded randomized verification of every claim the bound rests on.
"""
from .attacks import (
    MEASURE_RESEND,
    REFLECT,
    CollectiveAttack,
    NoiseStats,
    ReducedAttack,
    RestrictedAttack,
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
from .keyrate import (
    DEPOLARIZING,
    EQUAL,
    HALF,
    KeyRateReport,
    QxModel,
    continuity_bound,
    continuity_penalty,
    explicit,
    key_rate,
    keyrate_curve,
    noise_threshold,
    reflect_entropy_bound,
    resend_entropy_bound,
)
from .linalg import (
    DensityOperator,
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
from .tolerances import DEFAULT as TOLERANCES
from .verification import (
    CHECK_NAMES,
    Q_GRID,
    SymmetricAttackDiagnostics,
    VerifyReport,
    check_isometries,
    check_lemma_trd,
    check_thm1_equivalence,
    check_thm2_equivalence,
    run_all_checks,
    symmetric_attack_diagnostics,
    symmetric_diagnostics_sample,
    trial_rng,
)

__version__ = "0.1.0"
