"""Centralized numerical tolerances.

Every validation threshold used by the toolkit lives in this one record, so
each one is named and documented in one place instead of appearing as a
magic number in the code base. The record is frozen and every module binds
``DEFAULT`` at import (``from .tolerances import DEFAULT as TOL``), so
rebinding ``DEFAULT`` later changes nothing: changing a tolerance means
editing this file.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Default numerical tolerances for state validation and verification."""

    hermitian: float = 1e-10        # entrywise Hermiticity of density operators
    hermitian_input: float = 1e-8   # gate for eigensolver / trace-norm inputs
    trace_one: float = 1e-10        # |tr(rho) - 1|
    psd: float = 1e-10              # eigenvalues of rho must be >= -psd
    unitary: float = 1e-10          # max |U*U - I| for unitaries
    isometry: float = 1e-10         # max |V*V - I| for isometry columns
    orthonormal: float = 1e-8       # input gate for completing isometries
    norm: float = 1e-10             # state-vector normalization
    constraint: float = 1e-10       # restricted-attack parameter constraint
    eta_degenerate: float = 1e-8    # |eta| >= 1 - eta_degenerate is degenerate
    eigen_clamp: float = 1e-12      # entropy eigenvalue clamp
    equivalence: float = 1e-9       # trace-distance residual between protocols
    decomposition: float = 1e-10    # resend = (reflect + aux)/2 residual


DEFAULT = Tolerances()
