"""Generalized coherent states built by two independent routes.

Annihilation-eigenstate route: solve A |alpha> = alpha |alpha> on the
number basis, which gives the one-step recurrence
``c_n f(n) sqrt(n) = alpha c_{n-1}``.  For an affine deformation
``f^2(n) = (n + c)/d`` the normalized coefficients have the closed form
``C0 alpha^n sqrt(d^n Gamma(1 + c) / (n! Gamma(n + 1 + c)))``: with
``d = 2 lam, c = 2 lam - 1`` for TPT and ``d = 1, c = 2 s`` for the
pseudoharmonic oscillator.

Displacement route: apply exp(alpha A^dag - alpha* A) to the vacuum.
For affine deformations the operators close an su(1,1) algebra, so the
exponential disentangles into an ordered product
``exp(zeta sqrt(d) A^dag) (1-|zeta|^2)^(k + n) exp(-zeta* sqrt(d) A)``
with level scale d, lowest weight k, and
``zeta = e^{i phi} tanh(|alpha| / sqrt(d))``.  Acting on the vacuum this
yields the negative-binomial family
``(1-|zeta|^2)^(k) sqrt(Gamma(n + 2k) / (n! Gamma(2k))) zeta^n``,
which is exactly normalized over the infinite basis.

Both routes are implemented with distinct arithmetic so that their
agreement is a genuine cross-check rather than a tautology.

Every route builds at the cutoff it is given and reports its tail mass
there; only :func:`grow_cutoff` holds a tail against a tolerance.

Coefficient recurrences are accumulated in log magnitude to avoid
overflow at large |alpha|; normalization constants are computed
numerically (the eigenstate normalization sum has no elementary closed
form).
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, SizeMismatchError, TruncationError
from .fock import FockVector, OperatorMatrix, exp_ladder_apply, ladder_amplitudes, matrix_exponential
from .models import DeformationFunction, ModelParams, tpt_deformation

__all__ = [
    "Method",
    "CoherentStateResult",
    "PhotonStatistics",
    "annihilation_eigenstate",
    "tpt_ladder_coefficients",
    "closed_form_bg_coefficients",
    "zeta_from_alpha",
    "displacement_state_closed_form",
    "deformed_displacement_coefficients",
    "displacement_state_direct",
    "displacement_state_factored",
    "compare_states",
    "photon_statistics",
    "harmonic_limit_deviation",
    "glauber_coefficients",
    "max_auto_cutoff",
    "grow_cutoff",
]

#: Environment variable capping the auto-doubled cutoff of :func:`grow_cutoff`.
MAX_CUTOFF_ENV = "DEFOSC_MAX_CUTOFF"
_DEFAULT_MAX_CUTOFF = 4096


def max_auto_cutoff() -> int:
    raw = os.environ.get(MAX_CUTOFF_ENV)
    if raw is None:
        return _DEFAULT_MAX_CUTOFF
    try:
        val = int(raw)
    except ValueError as exc:
        raise DomainError(f"{MAX_CUTOFF_ENV} must be an integer, got {raw!r}") from exc
    if val < 2:
        raise DomainError(f"{MAX_CUTOFF_ENV} must be >= 2, got {val}")
    return val


class Method(Enum):
    ANNIHILATION_EIGENSTATE = "annihilation-eigenstate"
    DISPLACEMENT_FACTORED = "displacement-factored"
    DISPLACEMENT_DIRECT = "displacement-direct"
    DISPLACEMENT_CLOSED_FORM = "displacement-closed-form"


@dataclass(frozen=True)
class CoherentStateResult:
    """A finished coherent state plus the diagnostics of the route that built it."""

    state: FockVector
    method: Method
    parameter: complex
    normalization_constant: float
    tail_mass: float
    model: Optional[ModelParams] = None


def grow_cutoff(build: Callable[[int], CoherentStateResult], cutoff: int, tail_tol: float,
                max_cutoff: Optional[int] = None) -> CoherentStateResult:
    """``build(n)`` at n = cutoff, 2 cutoff, 4 cutoff, ... until its tail mass is at most ``tail_tol``.

    A doubling past ``max_cutoff`` (default :func:`max_auto_cutoff`, read
    before the first build; ``max_cutoff=cutoff`` pins the cutoff) raises
    :class:`TruncationError`.
    """
    limit = max_auto_cutoff() if max_cutoff is None else max_cutoff
    n = cutoff
    while True:
        result = build(n)
        if result.tail_mass <= tail_tol:
            return result
        if 2 * n > limit:
            hint = f" (raise {MAX_CUTOFF_ENV} to allow larger bases)" if max_cutoff is None else ""
            raise TruncationError(
                f"{result.method.value} tail mass {result.tail_mass:.3e} above tolerance "
                f"{tail_tol:.1e} at cutoff {n}; doubling would exceed the cap {limit}{hint}"
            )
        n *= 2


def _vacuum(cutoff: int) -> np.ndarray:
    c = np.zeros(cutoff, dtype=complex)
    c[0] = 1.0
    return c


def _amplitude(alpha) -> complex:
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise DomainError(f"amplitude must be finite, got {alpha!r}")
    return alpha


def _coefficients_from_log(logmag: np.ndarray, phase_step: float) -> tuple[np.ndarray, float]:
    """Rescale log-magnitude coefficients; returns (normalized coeffs, log of 1/norm of the raw family)."""
    shift = float(np.max(logmag))
    mags = np.exp(logmag - shift)
    norm = float(np.linalg.norm(mags))
    n = np.arange(logmag.size)
    coeffs = (mags / norm) * np.exp(1j * phase_step * n)
    log_norm_const = -(shift + math.log(norm))
    return coeffs, log_norm_const


def annihilation_eigenstate(f: DeformationFunction, alpha: complex, cutoff: int) -> CoherentStateResult:
    """Eigenstate of the deformed annihilation operator A = a f(n).

    Coefficients follow c_n = alpha c_{n-1} / (sqrt(n) f(n)) from c_0 = 1
    and are then normalized; the reported tail mass is |c_{N-1}|^2 of the
    normalized vector.
    """
    if cutoff < 2:
        raise DomainError(f"need cutoff >= 2, got {cutoff}")
    alpha = _amplitude(alpha)
    f.validate_positive(cutoff)
    if alpha == 0:
        return CoherentStateResult(FockVector(_vacuum(cutoff)), Method.ANNIHILATION_EIGENSTATE,
                                   alpha, 1.0, 0.0, f.params)
    n = np.arange(1, cutoff, dtype=float)
    steps = math.log(abs(alpha)) - 0.5 * np.log(n * f.fsq(n))
    logmag = np.concatenate(([0.0], np.cumsum(steps)))
    coeffs, log_nf = _coefficients_from_log(logmag, cmath.phase(alpha))
    return CoherentStateResult(FockVector(coeffs), Method.ANNIHILATION_EIGENSTATE, alpha,
                               math.exp(log_nf), float(abs(coeffs[-1]) ** 2), f.params)


def tpt_ladder_coefficients(lam: float, alpha: complex, cutoff: int) -> np.ndarray:
    """Eigenstate of the TPT ladder operator b, built from its own amplitudes.

    Uses the recurrence c_n sqrt(n (2 lam + n - 1)/(2 lam)) = alpha c_{n-1}
    directly, i.e. the route through the eigenfunction-derived operators;
    kept separate from :func:`annihilation_eigenstate` so the agreement of
    the two constructions can be asserted rather than assumed.
    """
    if lam <= 0.5:
        raise DomainError(f"need lam > 1/2, got {lam}")
    if cutoff < 2:
        raise DomainError(f"need cutoff >= 2, got {cutoff}")
    alpha = _amplitude(alpha)
    if alpha == 0:
        return _vacuum(cutoff)
    n = np.arange(1, cutoff, dtype=float)
    amp = np.sqrt(n * (2.0 * lam + n - 1.0) / (2.0 * lam))
    logmag = np.concatenate(([0.0], np.cumsum(math.log(abs(alpha)) - np.log(amp))))
    coeffs, _ = _coefficients_from_log(logmag, cmath.phase(alpha))
    return coeffs


def closed_form_bg_coefficients(f: DeformationFunction, alpha: complex, cutoff: int) -> CoherentStateResult:
    """Annihilation-eigenstate coefficients from their gamma-function closed form.

    For f^2(n) = (n + c)/d, with d = 1/slope and c = intercept/slope,
    c_n = C0 alpha^n sqrt(d^n Gamma(1 + c) / (n! Gamma(n + 1 + c))).
    Evaluated through log-gamma, then normalized numerically on the
    truncation; the reported tail mass is |c_{N-1}|^2 of the normalized
    vector.
    """
    if cutoff < 2:
        raise DomainError(f"need cutoff >= 2, got {cutoff}")
    d = f.su11_scale
    c = f.intercept / f.slope
    alpha = _amplitude(alpha)
    if alpha == 0:
        coeffs = _vacuum(cutoff)
    else:
        n = np.arange(cutoff, dtype=float)
        half_log = n * math.log(d) + gammaln(1.0 + c) - gammaln(n + 1.0) - gammaln(n + 1.0 + c)
        logmag = n * math.log(abs(alpha)) + 0.5 * half_log
        coeffs, _ = _coefficients_from_log(logmag, cmath.phase(alpha))
    # the raw family has c_0 = 1, so the normalized c_0 is 1/||raw||
    return CoherentStateResult(FockVector(coeffs), Method.ANNIHILATION_EIGENSTATE, alpha,
                               float(abs(coeffs[0])), float(abs(coeffs[-1]) ** 2), f.params)


def zeta_from_alpha(alpha: complex, f: DeformationFunction) -> complex:
    """Map the displacement amplitude to the unit-disk parameter.

    zeta = e^{i phi} tanh(|alpha| / sqrt(d)) with alpha = |alpha| e^{i phi}
    and d the su(1,1) level scale of the deformation (2 lam for TPT, 1 for
    the pseudoharmonic oscillator).
    """
    d = f.su11_scale
    alpha = _amplitude(alpha)
    r = abs(alpha)
    if r == 0:
        return 0j
    zeta = (alpha / r) * math.tanh(r / math.sqrt(d))
    # tanh saturates to 1.0 in floating point for very large |alpha|; keep
    # the result strictly inside the unit disk
    while abs(zeta) >= 1.0:
        zeta *= 1.0 - 4.0 * np.finfo(float).eps
    return zeta


def _nb_log_amplitudes(r_index: float, zeta: complex, cutoff: int) -> np.ndarray:
    """Log magnitudes of the exact negative-binomial displacement family."""
    z = abs(zeta) ** 2
    n = np.arange(cutoff, dtype=float)
    return (
        0.5 * r_index * math.log1p(-z)
        + n * math.log(abs(zeta))
        + 0.5 * (gammaln(n + r_index) - gammaln(n + 1.0) - gammaln(r_index))
    )


def displacement_state_closed_form(f: DeformationFunction, zeta: complex, cutoff: int) -> CoherentStateResult:
    """Displacement coherent state from its closed-form coefficients.

    c_n = (1-|zeta|^2)^(r/2) sqrt(Gamma(n + r) / (n! Gamma(r))) zeta^n with
    r = 2k, twice the lowest weight of the deformation: 2 lam (TPT) or
    2 s + 1 (pseudoharmonic).  The infinite family is exactly normalized,
    so the reported tail mass is 1 - sum_{n<cutoff} |c_n|^2; the stored
    vector is renormalized on the truncation.
    """
    if cutoff < 2:
        raise DomainError(f"need cutoff >= 2, got {cutoff}")
    zeta = complex(zeta)
    if not abs(zeta) < 1:
        raise DomainError("displacement parameter outside unit disk")
    r = 2.0 * f.bargmann_index
    if zeta == 0:
        return CoherentStateResult(
            FockVector(_vacuum(cutoff)), Method.DISPLACEMENT_CLOSED_FORM, zeta, 1.0, 0.0, f.params
        )
    mags = np.exp(_nb_log_amplitudes(r, zeta, cutoff))
    finite = float(np.sum(mags**2))
    tail = max(0.0, 1.0 - finite)
    n = np.arange(cutoff)
    raw = mags * np.exp(1j * cmath.phase(zeta) * n)
    state = FockVector(raw / math.sqrt(finite))
    c0 = (1.0 - abs(zeta) ** 2) ** (r / 2.0)
    return CoherentStateResult(state, Method.DISPLACEMENT_CLOSED_FORM, zeta, c0, tail, f.params)


def deformed_displacement_coefficients(f: DeformationFunction, zeta: complex, cutoff: int) -> np.ndarray:
    """Exact-family displacement coefficients built from the deformation itself.

    Vacuum image of the ordered-exponential product, written with generic
    f:  c_n = (1-|zeta|^2)^k * zeta^n * d^(n/2) * f(n)!/sqrt(n!)  where
    f(n)! = f(n) f(n-1) ... f(1).  Computed as a stepwise product so the
    arithmetic shares nothing with the gamma-function route.
    """
    if cutoff < 2:
        raise DomainError(f"need cutoff >= 2, got {cutoff}")
    zeta = complex(zeta)
    if not abs(zeta) < 1:
        raise DomainError("displacement parameter outside unit disk")
    k = f.bargmann_index
    d = f.su11_scale
    f.validate_positive(cutoff)
    n = np.arange(1, cutoff, dtype=float)
    ratios = zeta * np.sqrt(d * f.fsq(n) / n)
    coeffs = np.concatenate(([1.0 + 0j], np.cumprod(ratios)))
    return (1.0 - abs(zeta) ** 2) ** k * coeffs


def _renormalized_image(image: np.ndarray, method: Method, parameter: complex,
                        f: DeformationFunction) -> CoherentStateResult:
    """Renormalized result of a displacement route; the raw norm (exactly 1
    untruncated) is kept, and the tail mass is the last coefficient's weight."""
    norm = float(np.linalg.norm(image))
    tail = float(abs(image[-1]) ** 2) / norm**2
    return CoherentStateResult(FockVector(image / norm), method, parameter, norm, tail, f.params)


def displacement_state_direct(f: DeformationFunction, alpha: complex, cutoff: int) -> CoherentStateResult:
    """Vacuum image of exp(alpha A^dag - alpha* A) by dense matrix exponential.

    The ladder amplitudes are real, so with alpha = |alpha| e^{i phi} and
    D = diag(e^{i n phi}) the generator is the gauge transform D K D^* of
    the real skew-symmetric tridiagonal K = |alpha| (A^dag - A).  The
    vacuum image is therefore e^{i n phi} exp(K)[n, 0], with exp(K) a
    real dense exponential.  This route is the independent reference of
    the others.
    """
    alpha = _amplitude(alpha)
    amp = ladder_amplitudes(f, cutoff)
    gen = OperatorMatrix(abs(alpha) * (np.diag(amp, -1) - np.diag(amp, 1)))
    phases = np.exp(1j * cmath.phase(alpha) * np.arange(cutoff))
    image = phases * matrix_exponential(gen).entries[:, 0]
    return _renormalized_image(image, Method.DISPLACEMENT_DIRECT, alpha, f)


def displacement_state_factored(f: DeformationFunction, alpha: complex, cutoff: int) -> CoherentStateResult:
    """Vacuum image of the ordered factors of the disentangled displacement.

    On the truncated basis exp(alpha A^dag - alpha* A) equals

        exp(zeta sqrt(d) A^dag) * diag((1-|zeta|^2)^(k+n)) * exp(-zeta* sqrt(d) A)

    with d the su(1,1) level scale of the deformation and k its lowest
    weight; for the TPT model the middle diagonal is (1-|zeta|^2)^(lam+n).
    The factors act right to left on the vacuum, each ladder exponential
    by its finite series (:func:`defosc.fock.exp_ladder_apply`).
    """
    zeta = zeta_from_alpha(alpha, f)
    scale = math.sqrt(f.su11_scale)
    amp = ladder_amplitudes(f, cutoff)
    n = np.arange(cutoff, dtype=float)
    image = exp_ladder_apply(amp, -np.conj(zeta) * scale, _vacuum(cutoff), False)
    image = (1.0 - abs(zeta) ** 2) ** (f.bargmann_index + n) * image
    image = exp_ladder_apply(amp, zeta * scale, image, True)
    return _renormalized_image(image, Method.DISPLACEMENT_FACTORED, zeta, f)


def _unit_state(c, caller: str) -> np.ndarray:
    """``c`` as a complex array, which must be 1-D with norm 1 to within 1e-9."""
    c = np.asarray(c, dtype=complex)
    norm = float(np.linalg.norm(c))
    if c.ndim != 1 or not abs(norm - 1.0) <= 1e-9:
        raise DomainError(f"{caller} expects a normalized 1-D state; shape {c.shape}, norm = {norm!r}")
    return c


def compare_states(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Phase-aligned maximum coefficient difference and infidelity of two states.

    Physical states are rays, so v is rotated by the global phase that
    aligns its largest-|u| coefficient with u before differencing.
    Returns (max_n |u_n - v_n e^{i theta}|, 1 - |<u|v>|^2).
    """
    if np.size(u) != np.size(v):
        raise SizeMismatchError(f"cutoffs differ: {np.size(u)} vs {np.size(v)}")
    u, v = _unit_state(u, "compare_states"), _unit_state(v, "compare_states")
    i = int(np.argmax(np.abs(u)))
    if abs(v[i]) > 0:
        rot = cmath.exp(1j * (cmath.phase(u[i]) - cmath.phase(v[i])))
    else:
        rot = 1.0
    diff = float(np.max(np.abs(u - v * rot)))
    fidelity = abs(complex(np.vdot(u, v))) ** 2
    return diff, max(0.0, 1.0 - fidelity)


@dataclass(frozen=True)
class PhotonStatistics:
    mean_n: float
    variance_n: float
    mandel_q: Optional[float]  # None when the mean occupation vanishes


def photon_statistics(c: np.ndarray) -> PhotonStatistics:
    """Mean occupation, variance, and Mandel Q = Var/<n> - 1 of a normalized state."""
    c = _unit_state(c, "photon_statistics")
    n = np.arange(c.size, dtype=float)
    p = np.abs(c) ** 2
    mean = float(np.sum(n * p))
    var = max(0.0, float(np.sum(n * n * p)) - mean**2)
    q = var / mean - 1.0 if mean > 0 else None
    return PhotonStatistics(mean, var, q)


def glauber_coefficients(alpha: complex, cutoff: int) -> np.ndarray:
    """Harmonic-oscillator coherent-state coefficients e^{-|a|^2/2} alpha^n / sqrt(n!),
    renormalized on the truncation."""
    if cutoff < 2:
        raise DomainError(f"need cutoff >= 2, got {cutoff}")
    alpha = _amplitude(alpha)
    if alpha == 0:
        return _vacuum(cutoff)
    n = np.arange(cutoff, dtype=float)
    logmag = n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
    coeffs, _ = _coefficients_from_log(logmag, cmath.phase(alpha))
    return coeffs


def harmonic_limit_deviation(alpha: complex, lambdas: Sequence[float], cutoff: int) -> list[float]:
    """Max coefficient deviation of the TPT eigenstate family from the Glauber one.

    For each lam the TPT annihilation-eigenstate coefficients are compared
    against the harmonic ones at the same alpha; the deviation decreases
    toward zero as lam grows (at fixed alpha it scales like 1/lam).
    """
    glauber = glauber_coefficients(alpha, cutoff)
    out = []
    for lam in lambdas:
        state = closed_form_bg_coefficients(tpt_deformation(ModelParams.tpt(lam)), alpha, cutoff).state
        out.append(float(np.max(np.abs(state.coeffs - glauber))))
    return out
