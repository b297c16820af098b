"""Coordinate-space eigenfunctions, differential ladder checks, Gauss rules.

TPT eigenfunctions are evaluated in the variable u = sin(ax) through a
derivative-free three-term recurrence instead of general-order Legendre
functions.  The family satisfies two first-order relations, one raising
and one lowering,

    (1-u^2) psi_n' =  (lam+n) u psi_n - (2 lam + n) (N_n/N_{n+1}) psi_{n+1}
    (1-u^2) psi_n' = -(lam+n) u psi_n + n (N_n/N_{n-1}) psi_{n-1}

with N_n^2 = a (lam+n) Gamma(2 lam + n) / n!.  Adding them eliminates the
derivative and gives the recurrence actually used:

    2 (lam+n) u psi_n = (2 lam + n) (N_n/N_{n+1}) psi_{n+1}
                        + n (N_n/N_{n-1}) psi_{n-1},

    N_n/N_{n+1} = sqrt((lam+n)(n+1) / ((lam+n+1)(2 lam + n))),
    N_n/N_{n-1} = sqrt((lam+n)(2 lam + n - 1) / ((lam+n-1) n)),

seeded by the closed-form ground state
psi_0(u) = sqrt(a Gamma(lam+1)/(sqrt(pi) Gamma(lam+1/2))) (1-u^2)^(lam/2),
which is unit-normalized under the measure dx = du/(a sqrt(1-u^2)).

Pseudoharmonic radial functions R_n = N_n rho^s e^(-rho/2) L_n^(2s)(rho),
N_n = sqrt(2 n! / Gamma(n+2s+1)), follow the associated-Laguerre
recurrence rescaled to act on R_n itself.  The rho variable is the
squared radius of the planar problem, so the physical inner product
carries the measure d(rho)/2 (that is r dr); with this measure the
family above is orthonormal.

Both families are psi_n = psi_0 q_n with q_n a multiple of C_n^(lam)(u) or
L_n^(2s)(rho), computed by the same recurrences seeded with 1.  psi_0^2
times the measure is the probability density of (1-u^2)^(lam-1/2) du or
rho^(2s) e^(-rho) d(rho), whose Gauss rule from SciPy (Gegenbauer or
generalized Laguerre) integrates every q_n q_m of its first ``order``
levels exactly.  All inner products here are sums on such a rule; the
Gauss-Legendre grids only place the points where eigenfunctions are sampled.

Differential ladder operators are verified by central finite differences:
the operator image of psi_n is least-squares fitted against psi_{n +/- 1}
and the fitted coefficient compared with the analytic ladder amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import eval_genlaguerre, gammaln, roots_gegenbauer, roots_genlaguerre

from .errors import DomainError, QuadratureError, SizeMismatchError
from .fock import FockVector
from .models import Model, ModelParams

__all__ = [
    "Measure",
    "Grid",
    "GridFunction",
    "tpt_grid",
    "radial_grid",
    "grid_for",
    "gauss_rule",
    "tpt_ground",
    "tpt_eigenfunctions",
    "pseudoharmonic_radials",
    "sample_eigenfunction",
    "LadderFit",
    "ladder_action_fd",
    "pseudoharmonic_ladder_fd",
    "OverlapResult",
    "overlap_quadrature",
    "coherent_wavefunction",
    "orthonormality_gram",
]


class Measure(Enum):
    #: dx = du / (a sqrt(1-u^2)) on u in (-1, 1)
    TPT_DX = "tpt-dx"
    #: d(rho)/2 on rho in (0, inf): the planar r dr measure in the
    #: squared-radius variable
    RADIAL_RHO = "radial-rho"


@dataclass(frozen=True)
class Grid:
    """Points in the model variable (u for TPT, rho for the radial model).

    Functions on a sample grid (``weights`` None) are sampled as they are.
    On a :func:`gauss_rule` the weights are probabilities of psi_0^2 under
    ``measure`` and functions are their polynomial part psi/psi_0, so
    ``sum(w * conj(f) * g)`` is the physical inner product.
    """

    nodes: np.ndarray
    measure: Measure
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise DomainError("grid nodes must be strictly increasing")


@dataclass(frozen=True)
class GridFunction:
    """Function samples on a grid (the polynomial part on a Gauss rule)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.nodes.shape:
            raise SizeMismatchError("values and nodes have different shapes")

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes


def tpt_grid(p: ModelParams, order: int = 256) -> Grid:
    """Sample points u = sin(ax) = sin((pi/2) t) at the ``order`` Gauss-Legendre
    nodes t of x = (pi/2a) t, spread over the whole well."""
    if p.model is not Model.TPT:
        raise DomainError(f"tpt_grid needs TPT parameters, got {p.model}")
    if order < 2:
        raise DomainError(f"need order >= 2, got {order}")
    t, _ = np.polynomial.legendre.leggauss(order)
    u = np.sin((math.pi / 2.0) * t)
    largest = np.nextafter(1.0, 0.0)
    u = np.clip(u, -largest, largest)
    return Grid(nodes=u, measure=Measure.TPT_DX)


def radial_grid(s: float, n_max: int = 10, order: int = 256) -> Grid:
    """Sample points at the ``order`` Gauss-Legendre nodes mapped to (0, rho_max),
    rho_max = max(40, 8s + 8 n_max + 20), over twice the outer turning point
    4 n_max + 2s + 2 of the first n_max+1 levels."""
    if s <= 0:
        raise DomainError(f"need s > 0, got {s}")
    if order < 2:
        raise DomainError(f"need order >= 2, got {order}")
    rho_max = max(40.0, 4.0 * (2.0 * s + 2.0 * n_max) + 20.0)
    t, _ = np.polynomial.legendre.leggauss(order)
    rho = (t + 1.0) * (rho_max / 2.0)
    return Grid(nodes=rho, measure=Measure.RADIAL_RHO)


def grid_for(p: ModelParams, order: int, n_max: int) -> Grid:
    """``order`` sample points for the model, covering the first n_max+1 levels."""
    if p.model is Model.TPT:
        return tpt_grid(p, order)
    if p.model is Model.PSEUDOHARMONIC:
        return radial_grid(p.s, n_max=n_max, order=order)
    raise DomainError("coordinate-space grids exist for the TPT and pseudoharmonic models only")


def gauss_rule(p: ModelParams, order: int) -> Grid:
    """SciPy's Gauss rule for psi_0^2, exact for the first ``order`` levels.

    Gauss-Gegenbauer at lam for TPT, generalized Gauss-Laguerre at 2s for the
    radial model, with the weights scaled to sum to 1.  SciPy's Laguerre
    weights carry Gamma(2s+1), infinite past 2s ~ 171, so they are formed
    from SciPy's L_{order+1}^(2s) at the nodes, w_i ~ rho_i / L(rho_i)^2, in
    log space.  A zero or non-finite weight or node raises QuadratureError:
    Laguerre weights underflow past about 200 nodes, and SciPy's Gegenbauer
    rule fails at large lam.
    """
    if order < 1:
        raise DomainError(f"need order >= 1, got {order}")
    with np.errstate(all="ignore"):
        if p.model is Model.TPT:
            nodes, w = roots_gegenbauer(order, p.lam)
            measure = Measure.TPT_DX
        elif p.model is Model.PSEUDOHARMONIC:
            nodes, _ = roots_genlaguerre(order, 2.0 * p.s)
            log_w = np.log(nodes) - 2.0 * np.log(np.abs(eval_genlaguerre(order + 1, 2.0 * p.s, nodes)))
            w = np.exp(log_w - np.max(log_w))
            measure = Measure.RADIAL_RHO
        else:
            raise DomainError("Gauss rules exist for the TPT and pseudoharmonic models only")
        weights = w / np.sum(w)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights)) and np.all(weights > 0)):
        raise QuadratureError(f"SciPy gave no valid {order}-node Gauss rule for {p}")
    return Grid(nodes=nodes, measure=measure, weights=weights)


# ---------------------------------------------------------------------------
# TPT eigenfunctions


def _check_u(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(u) >= 1.0):
        raise DomainError("u must lie strictly inside (-1, 1)")
    return u


def tpt_ground(u, p: ModelParams):
    """Ground state psi_0(u) = N0 (1-u^2)^(lam/2), unit norm under dx."""
    if p.model is not Model.TPT:
        raise DomainError(f"tpt_ground needs TPT parameters, got {p.model}")
    uu = _check_u(u)
    log_n0 = 0.5 * (
        math.log(p.a) + gammaln(p.lam + 1.0) - 0.5 * math.log(math.pi) - gammaln(p.lam + 0.5)
    )
    vals = math.exp(log_n0) * (1.0 - uu * uu) ** (p.lam / 2.0)
    return float(vals) if vals.ndim == 0 else vals


def _tpt_recurrence(n_max: int, u: np.ndarray, lam: float, seed) -> np.ndarray:
    psi = np.zeros((n_max + 1, u.size))
    psi[0] = seed
    for n in range(n_max):
        up = math.sqrt((lam + n) * (n + 1) / ((lam + n + 1) * (2 * lam + n)))
        lead = 2.0 * (lam + n) * u * psi[n]
        if n >= 1:
            down = math.sqrt((lam + n) * (2 * lam + n - 1) / ((lam + n - 1) * n))
            lead = lead - n * down * psi[n - 1]
        psi[n + 1] = lead / ((2.0 * lam + n) * up)
    return psi


def tpt_eigenfunctions(n_max: int, u, p: ModelParams) -> np.ndarray:
    """psi_0 .. psi_{n_max} at the points u, by the derivative-free recurrence.

    Returns an array of shape (n_max+1, len(u)).
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    uu = np.atleast_1d(_check_u(u))
    return _tpt_recurrence(n_max, uu, p.lam, tpt_ground(uu, p))


# ---------------------------------------------------------------------------
# Pseudoharmonic radial functions


def _check_rho(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise DomainError("rho must be positive")
    return rho


def _radial_recurrence(n_max: int, s: float, rho: np.ndarray, seed) -> np.ndarray:
    two_s = 2.0 * s
    out = np.zeros((n_max + 1, rho.size))
    out[0] = seed
    for k in range(n_max):
        lead = (2.0 * k + two_s + 1.0 - rho) * out[k]
        if k >= 1:
            lead = lead - math.sqrt(k * (k + two_s)) * out[k - 1]
        out[k + 1] = lead / math.sqrt((k + 1.0) * (k + two_s + 1.0))
    return out


def pseudoharmonic_radials(n_max: int, s: float, rho) -> np.ndarray:
    """R_0 .. R_{n_max} at the points rho, shape (n_max+1, len(rho)).

    The Laguerre recurrence rescaled to the normalized functions, which
    keeps rho^s and L_n apart from each other (each overflows at large s):
    sqrt((k+1)(k+2s+1)) R_{k+1} = (2k+2s+1-rho) R_k - sqrt(k(k+2s)) R_{k-1},
    from R_0 = sqrt(2/Gamma(2s+1)) rho^s e^(-rho/2) formed in log space.
    """
    if s <= 0:
        raise DomainError(f"need s > 0, got {s}")
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    rr = np.atleast_1d(_check_rho(rho))
    seed = np.exp(0.5 * (math.log(2.0) - gammaln(2.0 * s + 1.0)) + s * np.log(rr) - rr / 2.0)
    return _radial_recurrence(n_max, s, rr, seed)


def _levels(n_max: int, grid: Grid, p: ModelParams) -> np.ndarray:
    # psi_0 .. psi_{n_max} on a sample grid, their polynomial parts on a rule
    x, rule = grid.nodes, grid.weights is not None
    if p.model is Model.TPT:
        if rule:
            return _tpt_recurrence(n_max, x, p.lam, 1.0)
        return tpt_eigenfunctions(n_max, x, p)
    if p.model is Model.PSEUDOHARMONIC:
        if rule:
            return _radial_recurrence(n_max, p.s, x, 1.0)
        return pseudoharmonic_radials(n_max, p.s, x)
    raise DomainError("coordinate-space families exist for the TPT and pseudoharmonic models only")


def sample_eigenfunction(n: int, grid: Grid, p: ModelParams) -> GridFunction:
    """Eigenfunction number n on a grid (its polynomial part on a Gauss rule)."""
    return GridFunction(grid=grid, values=_levels(n, grid, p)[n])


# ---------------------------------------------------------------------------
# Finite-difference ladder verification


class LadderFit(NamedTuple):
    coeff_minus: float
    coeff_plus: float
    residual_minus: float
    residual_plus: float


def _ls_fit(image: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    denom = float(np.dot(target, target))
    if denom == 0.0:
        raise QuadratureError("least-squares target vanishes on this grid")
    coeff = float(np.dot(image, target)) / denom
    residual = float(np.max(np.abs(image - coeff * target)))
    return coeff, residual


def ladder_action_fd(n: int, p: ModelParams, nodes, h: float = 1e-5) -> LadderFit:
    """Finite-difference check of the TPT differential ladder operators.

    Applies, with eps = lam + n,

        M+ = (1-u^2) (-d/du + eps u / (1-u^2)) sqrt((eps+1)/eps)
        M- = (1-u^2) ( d/du + eps u / (1-u^2)) sqrt((eps-1)/eps)

    to psi_n (the derivative by central differences of step h) and fits the
    images against psi_{n+1} and psi_{n-1}.  The fitted coefficients match
    m+ = sqrt((n+1)(2 lam + n)) and m- = sqrt(n (2 lam + n - 1)).

    For n = 0 the minus branch has no target: coeff_minus is 0 and
    residual_minus is the raw annihilation residual max|(1-u^2) psi_0' +
    lam u psi_0| (the scalar prefactor is omitted there since eps - 1 can
    be negative for lam < 1).
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    u = np.atleast_1d(np.asarray(nodes, dtype=float))
    if np.any(np.abs(u) + h >= 1.0):
        raise DomainError("nodes +/- h must stay inside (-1, 1)")
    if h <= 0:
        raise DomainError("h must be positive")
    stacked = np.concatenate([u - h, u, u + h])
    fam = tpt_eigenfunctions(n + 1, stacked, p)
    m = u.size
    psi_minus_h, psi_n, psi_plus_h = fam[n, :m], fam[n, m : 2 * m], fam[n, 2 * m :]
    dpsi = (psi_plus_h - psi_minus_h) / (2.0 * h)
    eps = p.lam + n
    bracket_plus = -(1.0 - u * u) * dpsi + eps * u * psi_n
    image_plus = bracket_plus * math.sqrt((eps + 1.0) / eps)
    coeff_plus, res_plus = _ls_fit(image_plus, fam[n + 1, m : 2 * m])
    bracket_minus = (1.0 - u * u) * dpsi + eps * u * psi_n
    if n == 0:
        return LadderFit(0.0, coeff_plus, float(np.max(np.abs(bracket_minus))), res_plus)
    image_minus = bracket_minus * math.sqrt((eps - 1.0) / eps)
    coeff_minus, res_minus = _ls_fit(image_minus, fam[n - 1, m : 2 * m])
    return LadderFit(coeff_minus, coeff_plus, res_minus, res_plus)


def pseudoharmonic_ladder_fd(n: int, s: float, nodes, h: float = 1e-5) -> LadderFit:
    """Finite-difference check of the pseudoharmonic ladder operators.

    L- = -rho d/drho + s + n - rho/2 and L+ = rho d/drho + s + n + 1 - rho/2,
    where the number operator is read as the scalar index n of the state
    acted on.  Fitted coefficients match sqrt(n (n + 2s)) and
    sqrt((n+1)(n + 2s + 1)).
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if s <= 0:
        raise DomainError(f"need s > 0, got {s}")
    rho = np.atleast_1d(np.asarray(nodes, dtype=float))
    if np.any(rho - h <= 0.0):
        raise DomainError("nodes - h must stay positive")
    if h <= 0:
        raise DomainError("h must be positive")
    stacked = np.concatenate([rho - h, rho, rho + h])
    fam = pseudoharmonic_radials(n + 1, s, stacked)
    m = rho.size
    r_minus_h, r_n, r_plus_h = fam[n, :m], fam[n, m : 2 * m], fam[n, 2 * m :]
    dr = (r_plus_h - r_minus_h) / (2.0 * h)
    image_minus = -rho * dr + (s + n - rho / 2.0) * r_n
    image_plus = rho * dr + (s + n + 1.0 - rho / 2.0) * r_n
    coeff_plus, res_plus = _ls_fit(image_plus, fam[n + 1, m : 2 * m])
    if n == 0:
        return LadderFit(0.0, coeff_plus, float(np.max(np.abs(image_minus))), res_plus)
    coeff_minus, res_minus = _ls_fit(image_minus, fam[n - 1, m : 2 * m])
    return LadderFit(coeff_minus, coeff_plus, res_minus, res_plus)


# ---------------------------------------------------------------------------
# Quadrature


class OverlapResult(NamedTuple):
    value: complex
    error_estimate: float


def overlap_quadrature(fa: GridFunction, fb: GridFunction) -> OverlapResult:
    """<fa|fb> over the model measure on a Gauss rule, with an error estimate.

    The rule is exact when both functions lie in the span of the levels it
    covers, so the estimate is only a roundoff allowance on the weighted sum.
    """
    if fa.grid.measure is not fb.grid.measure:
        raise SizeMismatchError("grid measures differ")
    if fa.nodes.shape != fb.nodes.shape or not np.array_equal(fa.nodes, fb.nodes):
        raise SizeMismatchError("grids have different nodes")
    w = fa.grid.weights
    if w is None:
        raise DomainError("a sample grid has no weights; integrate on a gauss_rule grid")
    integrand = np.conj(fa.values) * fb.values
    value = np.sum(w * integrand)
    err = 32.0 * np.finfo(float).eps * float(np.sum(np.abs(w * integrand)))
    if not (np.iscomplexobj(fa.values) or np.iscomplexobj(fb.values)):
        return OverlapResult(float(value.real), err)
    return OverlapResult(complex(value), err)


def coherent_wavefunction(c: FockVector, grid: Grid, p: ModelParams) -> GridFunction:
    """Coordinate-space synthesis sum_n c_n psi_n on a grid (sum_n c_n q_n on a rule)."""
    if abs(c.norm() - 1.0) > 1e-9:
        raise DomainError(f"coherent_wavefunction expects a normalized state; norm = {c.norm()!r}")
    values = c.coeffs @ _levels(c.cutoff - 1, grid, p)
    if np.allclose(values.imag, 0.0, atol=0.0):
        values = values.real
    return GridFunction(grid=grid, values=values)


def orthonormality_gram(p: ModelParams, n_max: int = 10, tol: float = 1e-12,
                        max_order: int = 65536) -> tuple[np.ndarray, float, int]:
    """Gram matrix of the first n_max+1 eigenfunctions on the n_max+1 node Gauss rule.

    That rule is exact, so the rule with one node more must give the same
    matrix; their max-entry difference must not exceed ``tol``.  Returns
    (gram, difference, n_max+1).
    """
    if n_max + 2 > max_order:
        raise QuadratureError(f"the Gram check needs {n_max + 2} nodes > max_order {max_order}")

    def build(order: int) -> np.ndarray:
        rule = gauss_rule(p, order)
        q = _levels(n_max, rule, p)
        return (q * rule.weights) @ q.T

    gram = build(n_max + 1)
    diff = float(np.max(np.abs(build(n_max + 2) - gram)))
    if not diff <= tol:
        raise QuadratureError(
            f"Gram matrices on {n_max + 1} and {n_max + 2} nodes differ by {diff:.1e} > {tol:.1e}"
        )
    return gram, diff, n_max + 1
