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
import functools
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import betainc, gammainc, gammaln

from .errors import DomainError, SizeMismatchError, TruncationError
from .fock import FockVector, OperatorMatrix, exp_ladder_apply, ladder_amplitudes, matrix_exponential
from .models import DeformationFunction, ModelParams, tpt_deformation

__all__ = [
    "Method",
    "CoherentStateResult",
    "PhotonStatistics",
    "annihilation_eigenstate",
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
                max_cutoff: Optional[int] = None,
                tail: Optional[Callable[[int], float]] = None) -> CoherentStateResult:
    """``build(n)`` at n = cutoff, 2 cutoff, 4 cutoff, ... until its tail mass is at most ``tail_tol``.

    ``tail(n)``, when given, is the tail mass ``build(n)`` reports, known
    without building it: a cutoff whose tail is above ``tail_tol`` is passed
    over unbuilt, so a passing state is built once and a failing one never.
    A doubling past ``max_cutoff`` (default :func:`max_auto_cutoff`, read
    before the first build; ``max_cutoff=cutoff`` pins the cutoff) raises
    :class:`TruncationError`.
    """
    limit = max_auto_cutoff() if max_cutoff is None else max_cutoff
    n = cutoff
    while True:
        mass = None if tail is None else tail(n)
        if mass is None or mass <= tail_tol:
            result = build(n)
            if result.tail_mass <= tail_tol:
                return result
            what, mass = f"{result.method.value} tail mass", result.tail_mass
        else:
            what = "tail mass bound"
        if 2 * n > limit:
            hint = f" (raise {MAX_CUTOFF_ENV} to allow larger bases)" if max_cutoff is None else ""
            raise TruncationError(
                f"{what} {mass:.3e} above tolerance "
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


def _phase(z: complex) -> float:
    # cmath.phase's value, but an underflowing atan2 (alpha 1e300+1e-300i)
    # gives 0 instead of raising OverflowError
    return math.atan2(z.imag, z.real)


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
    coeffs, log_nf = _coefficients_from_log(logmag, _phase(alpha))
    return CoherentStateResult(FockVector(coeffs), Method.ANNIHILATION_EIGENSTATE, alpha,
                               math.exp(log_nf), float(abs(coeffs[-1]) ** 2), f.params)


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
        coeffs, _ = _coefficients_from_log(logmag, _phase(alpha))
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
    raw = mags * np.exp(1j * _phase(zeta) * n)
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
                        f: DeformationFunction, tail: Optional[float] = None) -> CoherentStateResult:
    """Renormalized result of a displacement route; the raw norm (exactly 1
    untruncated) is kept, and the tail mass is ``tail`` or, if not given, the
    last coefficient's weight.  A raw norm of 0 or not finite raises DomainError."""
    norm = float(np.linalg.norm(image))
    if not 0.0 < norm < math.inf:
        raise DomainError(f"{method.value} image has norm {norm!r} at cutoff {image.size}")
    if tail is None:
        tail = float(abs(image[-1]) ** 2) / norm**2
    return CoherentStateResult(FockVector(image / norm), method, parameter, norm, tail, f.params)


@functools.cache
def _duhamel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Fixed 32-node Gauss-Legendre rule on [0, 1] for the Duhamel integral
    in t, whose integrand is smooth; built on first use, not at import."""
    t, w = np.polynomial.legendre.leggauss(32)
    return (t + 1.0) / 2.0, w / 2.0


_EPS = float(np.finfo(float).eps)
# Smallest level count the direct route exponentiates on
_DIRECT_MIN_LEVELS = 16
# Most levels the direct route exponentiates densely (the default cutoff);
# past them the tridiagonal eigendecomposition costs far less
_DIRECT_DENSE_LEVELS = 128


def _direct_certificate(f: DeformationFunction, radius: float, n: int) -> tuple[float, float]:
    """Exact tail and Duhamel error bound of the direct route on ``n`` levels.

    The exact vacuum image ``exp(tK) e_0`` at time t is the displacement
    family at amplitude t|alpha| (negative binomial, or Poisson for the
    slope-0 harmonic model).  Returns its weight on levels >= n,
    ``betainc(n, 2k, tanh^2(|alpha|/sqrt(d)))`` (``gammainc(n, |alpha|^2
    f^2)`` for slope 0), and the bound

        ||P_n exp(K) e_0 - exp(K_n) e_0||_2 <= |alpha| sqrt(n f^2(n)) int_0^1 |c_n(t|alpha|)| dt

    from Duhamel's formula: the truncated solution misses only the coupling
    to level n, and ``exp(t K_n)`` is orthogonal.  ``c_n(a)`` is the level-n
    coefficient of the family at amplitude a; ``log(1 - tanh^2 x)`` is taken
    as ``-2 log cosh x`` so that a saturated tanh never enters a logarithm.
    """
    if radius == 0:
        return 0.0, 0.0
    nodes, weights = _duhamel_rule()
    a = radius * nodes
    # an amplitude that underflows (overflows) gives a log of -inf (+inf), a weight of 0 (1)
    with np.errstate(divide="ignore", over="ignore"):
        if f.slope == 0:
            # Glauber family at amplitude a sqrt(f^2): Poisson weights of mean a^2 f^2
            tail = float(gammainc(n, radius**2 * f.intercept))
            log_c = (-0.5 * a**2 * f.intercept + n * (np.log(a) + 0.5 * math.log(f.intercept))
                     - 0.5 * gammaln(n + 1.0))
        else:
            r = 2.0 * f.bargmann_index
            x = a / math.sqrt(f.su11_scale)
            tail = float(betainc(n, r, math.tanh(radius / math.sqrt(f.su11_scale)) ** 2))
            log_cosh = x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)
            log_c = (-r * log_cosh + n * np.log(np.tanh(x))
                     + 0.5 * (gammaln(n + r) - gammaln(n + 1.0) - gammaln(r)))
    coupling = radius * math.sqrt(n * float(f.fsq(n)))
    return tail, coupling * float(weights @ np.exp(log_c))


def _direct_tail_mass(f: DeformationFunction, radius: float, n: int) -> float:
    """Tail mass the direct route reports on ``n`` levels: the larger of the
    exact tail and the squared Duhamel bound."""
    tail, bound = _direct_certificate(f, radius, n)
    return max(tail, bound**2)


def _direct_levels(f: DeformationFunction, radius: float, cutoff: int) -> int:
    """Levels the direct route exponentiates on for a state of ``cutoff`` levels.

    The smallest power of two m, from 16 up to ``cutoff``, where the exact
    tail beyond m is at most eps^2 and the Duhamel bound at most eps, so
    that the zero-padded image of the m-level exponential is the
    ``cutoff``-level one to roundoff; ``cutoff`` if there is none.
    """
    m = _DIRECT_MIN_LEVELS
    while m < cutoff:
        tail, bound = _direct_certificate(f, radius, m)
        if tail <= _EPS**2 and bound <= _EPS:
            return m
        m *= 2
    return cutoff


def _skew_exponential_vacuum(sub: np.ndarray) -> np.ndarray:
    """First column of exp(K), K the real skew tridiagonal with subdiagonal
    ``sub`` and superdiagonal ``-sub``, from the eigendecomposition of the
    symmetric tridiagonal T with off-diagonal ``sub``.

    With Q = diag(i^n), K = -i Q T Q^*; so for T = V diag(lam) V^T,
    exp(K)[n, 0] = i^n (V (e^{-i lam} * V[0, :]))[n], which is real.
    """
    from scipy.linalg import eigh_tridiagonal

    lam, vec = eigh_tridiagonal(np.zeros(sub.size + 1), sub, lapack_driver="stemr")
    quarter_turns = np.array([1, 1j, -1, -1j])[np.arange(sub.size + 1) % 4]
    return (quarter_turns * (vec @ (np.exp(-1j * lam) * vec[0]))).real


def displacement_state_direct(f: DeformationFunction, alpha: complex, cutoff: int) -> CoherentStateResult:
    """Vacuum image of exp(alpha A^dag - alpha* A) by the exponential of its generator.

    The ladder amplitudes are real, so with alpha = |alpha| e^{i phi} and
    D = diag(e^{i n phi}) the generator is the gauge transform D K D^* of
    the real skew-symmetric tridiagonal K = |alpha| (A^dag - A).  The
    vacuum image is therefore e^{i n phi} exp(K)[n, 0].  This route is
    the independent reference of the others.

    The exponential is taken on the m <= cutoff levels that
    :func:`_direct_levels` certifies, where the exact tail and the Duhamel
    bound of :func:`_direct_certificate` are below roundoff, and its image
    is zero-padded to ``cutoff``.  Up to 128 levels exp(K) is the real
    dense :func:`defosc.fock.matrix_exponential`; past them its first
    column comes from the tridiagonal eigendecomposition
    (:func:`_skew_exponential_vacuum`), which at 512 levels takes about a
    tenth of the dense time.  Either is accurate to a small multiple of
    eps ||K||, the conditioning of exp(K) e_0.  The reported tail mass is
    :func:`_direct_tail_mass` at ``cutoff``: the truncated exponential
    reflects at its last level, so its last weight is no tail bound.
    """
    alpha = _amplitude(alpha)
    amp = ladder_amplitudes(f, cutoff)
    m = _direct_levels(f, abs(alpha), cutoff)
    sub = abs(alpha) * amp[: m - 1]
    if m <= _DIRECT_DENSE_LEVELS:
        column = matrix_exponential(OperatorMatrix(np.diag(sub, -1) - np.diag(sub, 1))).entries[:, 0]
    else:
        column = _skew_exponential_vacuum(sub)
    image = np.zeros(cutoff, dtype=complex)
    image[:m] = np.exp(1j * _phase(alpha) * np.arange(m)) * column
    return _renormalized_image(image, Method.DISPLACEMENT_DIRECT, alpha, f,
                               _direct_tail_mass(f, abs(alpha), cutoff))


def displacement_state_factored(f: DeformationFunction, alpha: complex, cutoff: int) -> CoherentStateResult:
    """Vacuum image of the ordered factors of the disentangled displacement.

    On the infinite basis exp(alpha A^dag - alpha* A) equals

        exp(zeta sqrt(d) A^dag) * diag((1-|zeta|^2)^(k+n)) * exp(-zeta* sqrt(d) A)

    with d the su(1,1) level scale of the deformation and k its lowest
    weight; for the TPT model the middle diagonal is (1-|zeta|^2)^(lam+n).
    On the truncated basis the two differ, since the exponential of the
    truncated generator reflects at the last level.  The factors act right
    to left on the vacuum, each ladder exponential by its finite series
    (:func:`defosc.fock.exp_ladder_apply`), and no factor reaches past the
    cutoff, so the image is the first ``cutoff`` coefficients of the exact
    family.
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
        rot = cmath.exp(1j * (_phase(u[i]) - _phase(v[i])))
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
    coeffs, _ = _coefficients_from_log(logmag, _phase(alpha))
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
