"""Truncated Fock-space representation of deformed oscillator algebras.

Operators live on the first N number states, and a state is a
:class:`FockVector`, just its validated coefficient vector.  A ladder
operator is stored as its single off-diagonal, the amplitude vector
amp[n-1] = sqrt(n f^2(n)), and a deformed Hamiltonian as its diagonal.
The one dense matrix kept is :class:`OperatorMatrix`, for the
:func:`matrix_exponential` of the direct displacement route.

Truncation policy: identities that involve a product of a raising and a
lowering step fail on the last basis index because the coupling to level N
is cut off.  All verification helpers therefore exclude index N-1 and
report which indices were checked; nothing is hidden by the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeMismatchError
from .models import DeformationFunction

__all__ = [
    "FockVector",
    "OperatorMatrix",
    "ladder_amplitudes",
    "exp_ladder_apply",
    "deformed_hamiltonian_symmetric",
    "deformed_hamiltonian_antisymmetric",
    "matrix_exponential",
]


@dataclass(frozen=True)
class FockVector:
    """Validated complex coefficient vector on the truncated number basis.

    Instances are treated as immutable values; construction diagnostics
    such as the tail mass live on the result that produced the vector.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.ndim != 1 or self.coeffs.size < 1:
            raise DomainError("FockVector needs a 1-D coefficient array")

    @property
    def cutoff(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "FockVector":
        nrm = self.norm()
        if nrm == 0:
            raise DomainError("cannot normalize the zero vector")
        return FockVector(self.coeffs / nrm)

    @classmethod
    def vacuum(cls, cutoff: int) -> "FockVector":
        return cls.basis_state(0, cutoff)

    @classmethod
    def basis_state(cls, n: int, cutoff: int) -> "FockVector":
        if not 0 <= n < cutoff:
            raise DomainError(f"basis index {n} outside cutoff {cutoff}")
        c = np.zeros(cutoff, dtype=complex)
        c[n] = 1.0
        return cls(c)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix representing an operator on the truncated basis."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=complex))
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise DomainError("OperatorMatrix needs a square 2-D array")


def ladder_amplitudes(f: DeformationFunction, cutoff: int) -> np.ndarray:
    """Off-diagonal of the deformed ladder operators: amp[n-1] = sqrt(n f^2(n)).

    The lowering operator maps |n> to amp[n-1] |n-1> and the raising
    operator maps |n-1> to amp[n-1] |n>, for 1 <= n < cutoff.  For the TPT
    deformation amp[n-1] = sqrt(n (2 lam + n - 1)/(2 lam)).
    """
    if cutoff < 2:
        raise DomainError(f"ladder operators need cutoff >= 2, got {cutoff}")
    f.validate_positive(cutoff)
    n = np.arange(1, cutoff, dtype=float)
    return np.sqrt(n * f.fsq(n))


def exp_ladder_apply(amp: np.ndarray, x: complex, coeffs: np.ndarray, raising: bool) -> np.ndarray:
    """exp(x L) coeffs for the raising (or lowering) operator L with amplitudes ``amp``.

    L is nilpotent on the truncation, so its Taylor series is finite: at
    most cutoff - 1 shifts, stopping as soon as a term vanishes.
    """
    v = np.asarray(coeffs, dtype=complex)
    if v.shape != (amp.size + 1,):
        raise SizeMismatchError(f"vector of size {v.size} for {amp.size} ladder amplitudes")
    dst, src = (np.s_[1:], np.s_[:-1]) if raising else (np.s_[:-1], np.s_[1:])
    result, term = v.copy(), v
    for k in range(1, v.size):
        shifted = np.zeros_like(term)
        shifted[dst] = (x / k) * (amp * term[src])
        if not shifted.any():
            break
        result += shifted
        term = shifted
    return result


def deformed_hamiltonian_symmetric(f: DeformationFunction, cutoff: int, omega: float) -> np.ndarray:
    """Diagonal of (Omega/2)(A^dag A + A A^dag): (Omega/2)(n f^2(n) + (n+1) f^2(n+1)).

    With the TPT deformation and Omega = lam*a^2 this reproduces the TPT
    spectrum (a^2/2)(n^2 + 2 n lam + lam) exactly, including the last
    diagonal entry (both terms are evaluated from f^2, not from the
    truncated product of ladder operators).
    """
    if cutoff < 1:
        raise DomainError(f"need cutoff >= 1, got {cutoff}")
    n = np.arange(cutoff, dtype=float)
    return 0.5 * omega * (n * f.fsq(n) + (n + 1.0) * f.fsq(n + 1.0))


def deformed_hamiltonian_antisymmetric(f: DeformationFunction, cutoff: int) -> np.ndarray:
    """Diagonal of A A^dag - A^dag A: (n+1) f^2(n+1) - n f^2(n).

    For f^2(n) = n + 2 s this equals 2*(n + s + 1/2), the pseudoharmonic
    spectrum; for affine f^2(n) = a n + b it is 2*(a n + (a+b)/2).
    """
    if cutoff < 1:
        raise DomainError(f"need cutoff >= 1, got {cutoff}")
    n = np.arange(cutoff, dtype=float)
    return (n + 1.0) * f.fsq(n + 1.0) - n * f.fsq(n)


# Scaling-and-squaring parameters: reduce the 1-norm below _THETA, apply a
# truncated exponential series whose tail at that radius is below 1e-18,
# then undo the scaling by repeated squaring.
_THETA = 0.5
_SERIES_TERMS = 18
_MAX_SQUARINGS = 64


def matrix_exponential(m: OperatorMatrix) -> OperatorMatrix:
    """exp(M) by scaling and squaring with a truncated-series kernel.

    Backward error is at the 1e-12 level for ||M||_1 up to a few tens
    (series tail < 1e-18 at the scaled radius; roundoff growth is linear
    in the number of squarings).  Overflow or non-finite input is raised,
    never returned silently.
    """
    a = m.entries
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix exponential of non-finite entries")
    norm = float(np.linalg.norm(a, 1))
    squarings = 0
    if norm > _THETA:
        squarings = int(np.ceil(np.log2(norm / _THETA)))
    if squarings > _MAX_SQUARINGS:
        raise OverflowError(
            f"matrix 1-norm {norm:.3e} too large for a reliable exponential "
            f"(would need {squarings} squarings)"
        )
    x = a / (2.0 ** squarings)
    result = np.eye(x.shape[0], dtype=complex)
    term = np.eye(x.shape[0], dtype=complex)
    for k in range(1, _SERIES_TERMS + 1):
        term = term @ x / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    if not np.all(np.isfinite(result)):
        raise OverflowError("matrix exponential overflowed during squaring")
    return OperatorMatrix(result)
