"""Named numerical tolerances.

This record holds the nine tolerances of state and attack validation and the
gates of the verification suites, each named and documented here: ``isometry``
bounds every V*V = I and the parameter constraint, ``trace_one`` every trace and
norm^2. A few fixed constants live next to the code they guard instead: the 1e-12
roundoff slack of range checks (``linalg._check_range`` and the |eta| <= 1
check of ``attacks.RestrictedAttack``), and the 1e-12 floors below which
``derive_restricted_from_collective``, ``build_rewind`` and
``random_restricted_attack`` treat a norm or coefficient as zero. Entropies
take no tolerance: ``linalg._entropy_bits`` counts every positive eigenvalue.

The record is frozen and every module binds ``DEFAULT`` at import
(``from .tolerances import DEFAULT as TOL``), so rebinding ``DEFAULT``
later changes nothing: changing a tolerance means editing this file.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Default numerical tolerances for state validation and verification."""

    hermitian: float = 1e-10        # entrywise Hermiticity of density operators
    hermitian_input: float = 1e-8   # gate for eigensolver / trace-norm inputs
    trace_one: float = 1e-10        # |tr(rho) - 1|, and |norm^2 - 1| of state vectors
    psd: float = 1e-10              # eigenvalues of rho must be >= -psd
    isometry: float = 1e-10         # max |V*V - I| of isometries and unitaries, and the parameter constraint
    orthonormal: float = 1e-8       # input gate for completing isometries
    eta_degenerate: float = 1e-8    # |eta| >= 1 - eta_degenerate is degenerate
    equivalence: float = 1e-9       # trace-distance residual between protocols
    decomposition: float = 1e-10    # resend = (reflect + aux)/2 residual


DEFAULT = Tolerances()
