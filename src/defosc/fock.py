"""Truncated Fock-space representation of deformed oscillator algebras.

Operators live on the first N number states, and a state is a plain
complex coefficient array.  :class:`FockVector` is that array validated,
as the ``state`` of the :class:`~defosc.coherent.CoherentStateResult` a
construction route returns.  A ladder operator is stored as its single
off-diagonal, the amplitude vector amp[n-1] = sqrt(n f^2(n)), and a
deformed Hamiltonian as its diagonal.  The one dense matrix kept is
:class:`OperatorMatrix`, for the :func:`matrix_exponential` of the direct
displacement route on up to 128 levels; it keeps the real or complex dtype
it is given, so the real skew generator of that route is exponentiated in
real arithmetic.

Truncation policy: identities that involve a product of a raising and a
lowering step fail on the last basis index because the coupling to level N
is cut off.  All verification helpers therefore exclude index N-1 and
report which indices were checked; nothing is hidden by the cutoff.
"""

from __future__ import annotations

import math
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
    """Validated 1-D complex coefficient array on the truncated number basis.

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


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense real or complex matrix representing an operator on the truncated basis.

    Entries are stored as float64, or as complex128 when they are complex.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        object.__setattr__(self, "entries", entries.astype(np.result_type(entries, float), copy=False))
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

    L is nilpotent on the truncation, so its Taylor series is finite.  Each
    nonzero level m of ``coeffs`` feeds one chain of levels, m+1, m+2, ...
    when raising and m-1, ..., 0 when lowering, and its k-th term there is
    the cumulative product of v[m] with the steps (x/j) amp at orders
    j <= k: one ``np.cumprod`` per occupied level, so O(N) for the vacuum.
    """
    v = np.asarray(coeffs, dtype=complex)
    if v.shape != (amp.size + 1,):
        raise SizeMismatchError(f"vector of size {v.size} for {amp.size} ladder amplitudes")
    result = v.copy()
    for m in np.flatnonzero(v).tolist():
        # the amplitudes met along the chain, and the levels they lead to
        if raising:
            steps, dst = amp[m:], np.s_[m + 1:]
        elif m:
            steps, dst = amp[m - 1::-1], np.s_[m - 1::-1]
        else:
            continue
        orders = np.arange(1, steps.size + 1)
        result[dst] += np.cumprod(np.concatenate(([v[m]], (x / orders) * steps)))[1:]
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
_TAYLOR = [1.0 / math.factorial(k) for k in range(_SERIES_TERMS + 1)]


def _taylor_polynomial(x: np.ndarray) -> np.ndarray:
    """sum_{k<=18} x^k / k! by Paterson-Stockmeyer: 7 matrix products.

    With B_j = sum_{i<4} x^i / (4j+i)! (B_4 stops at x^2), the series is
    B_0 + x^4 (B_1 + x^4 (B_2 + x^4 (B_3 + x^4 B_4))): three products form
    x^2, x^3, x^4 and four more run the Horner recurrence in x^4.
    """
    x2 = x @ x
    powers = (x, x2, x2 @ x)
    x4 = x2 @ x2
    diag = np.diag_indices(x.shape[0])
    result = None
    for start in range(4 * (_SERIES_TERMS // 4), -1, -4):
        block = np.zeros_like(x)
        for i, power in enumerate(powers, start=1):
            if start + i <= _SERIES_TERMS:
                block += _TAYLOR[start + i] * power
        block[diag] += _TAYLOR[start]
        if result is not None:
            block += x4 @ result
        result = block
    return result


def matrix_exponential(m: OperatorMatrix) -> OperatorMatrix:
    """exp(M) by scaling and squaring with a truncated-series kernel.

    M is scaled by 2^-s to 1-norm <= 0.5, the degree-18 Taylor polynomial
    is evaluated there by Paterson-Stockmeyer (7 matrix products instead
    of 18 for the term-by-term series) and the result is squared s times.
    Every product runs in M's dtype, so a real M costs real arithmetic.
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
    result = _taylor_polynomial(a / (2.0 ** squarings))
    for _ in range(squarings):
        result = result @ result
    if not np.all(np.isfinite(result)):
        raise OverflowError("matrix exponential overflowed during squaring")
    return OperatorMatrix(result)
