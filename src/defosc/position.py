"""Coordinate-space eigenfunctions, differential ladder checks, quadrature.

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
N_n = sqrt(2 n! / Gamma(n+2s+1)), use the standard associated-Laguerre
recurrence.  The rho variable is the squared radius of the planar
problem, so the physical inner product carries the measure d(rho)/2
(that is r dr); with this measure the family above is orthonormal.

Differential ladder operators are verified by central finite differences:
the operator image of psi_n is least-squares fitted against psi_{n +/- 1}
and the fitted coefficient compared with the analytic ladder amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammaln

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
    #: d(rho)/2 on rho in (0, rho_max): the planar r dr measure in the
    #: squared-radius variable
    RADIAL_RHO = "radial-rho"


@dataclass(frozen=True)
class Grid:
    """Quadrature nodes and weights for one model measure.

    ``weights`` integrate against the model measure directly, so
    ``sum(w * f * g)`` approximates the physical inner product.
    ``tail_bound`` bounds the part of the domain the nodes do not cover
    (zero for the TPT grid, the analytic large-rho remainder for the
    radial one).
    """

    nodes: np.ndarray
    weights: np.ndarray
    measure: Measure
    tail_bound: float = 0.0

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise DomainError("grid nodes must be strictly increasing")


@dataclass(frozen=True)
class GridFunction:
    """Function samples on a quadrature grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.nodes.shape:
            raise SizeMismatchError("values and nodes have different shapes")

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def measure(self) -> Measure:
        return self.grid.measure


def tpt_grid(p: ModelParams, order: int = 256) -> Grid:
    """Gauss-Legendre grid for the TPT measure.

    Built in the coordinate x itself, where the measure is flat: with
    x = (pi/2a) t and u = sin(ax) = sin((pi/2) t) the inner product
    becomes a plain integral over t in (-1, 1), smooth except for the
    algebraic endpoint factor (1-u^2)^lam, which Gauss-Legendre resolves
    quickly for lam > 1/2.  Covers the whole domain: tail_bound = 0.
    """
    if p.model is not Model.TPT:
        raise DomainError(f"tpt_grid needs TPT parameters, got {p.model}")
    if order < 2:
        raise DomainError(f"need order >= 2, got {order}")
    t, gw = np.polynomial.legendre.leggauss(order)
    u = np.sin((math.pi / 2.0) * t)
    largest = np.nextafter(1.0, 0.0)
    u = np.clip(u, -largest, largest)
    weights = gw * (math.pi / (2.0 * p.a))
    return Grid(nodes=u, weights=weights, measure=Measure.TPT_DX)


def _laguerre_envelope_log(n: int, two_s: float, rho: float) -> float:
    # log of sum_k C(n+2s, n-k) rho^k / k!, an absolute-value majorant of L_n^(2s)
    terms = [
        gammaln(n + two_s + 1.0)
        - gammaln(k + two_s + 1.0)
        - gammaln(n - k + 1.0)
        - gammaln(k + 1.0)
        + k * math.log(rho)
        for k in range(n + 1)
    ]
    m = max(terms)
    return m + math.log(sum(math.exp(t - m) for t in terms))


def _radial_tail_bound(s: float, n_max: int, rho_max: float) -> float:
    """Bound on the neglected integral beyond rho_max for any pair of the
    first n_max+1 radial states."""
    two_s = 2.0 * s
    degree = two_s + 2.0 * n_max
    if rho_max <= 2.0 * (degree + 1.0):
        return math.inf
    # envelope of |R_n R_m| at rho_max, maximized over n, m <= n_max
    log_best = -math.inf
    for n in range(n_max + 1):
        log_norm = 0.5 * (math.log(2.0) + gammaln(n + 1.0) - gammaln(n + two_s + 1.0))
        log_best = max(log_best, log_norm + _laguerre_envelope_log(n, two_s, rho_max))
    log_h = 2.0 * log_best + two_s * math.log(rho_max) - rho_max
    # beyond 2(degree+1) the envelope decays at least like e^(-rho/2),
    # so the tail is bounded by 2 h(rho_max); the measure d(rho)/2 halves it
    return math.exp(log_h + math.log(2.0)) / 2.0


def radial_grid(s: float, n_max: int = 10, order: int = 256, tail_tol: float = 1e-12) -> Grid:
    """Gauss-Legendre grid on (0, rho_max) for the planar radial measure.

    rho_max is grown until the analytic bound on the neglected tail, valid
    for every pair of the first n_max+1 states, drops below tail_tol.
    """
    if s <= 0:
        raise DomainError(f"need s > 0, got {s}")
    if order < 2:
        raise DomainError(f"need order >= 2, got {order}")
    rho_max = max(40.0, 4.0 * (2.0 * s + 2.0 * n_max) + 20.0)
    bound = _radial_tail_bound(s, n_max, rho_max)
    while bound > tail_tol:
        rho_max *= 1.5
        if rho_max > 1e6:
            raise QuadratureError(
                f"could not bound the radial tail below {tail_tol:.1e} (s={s}, n_max={n_max})"
            )
        bound = _radial_tail_bound(s, n_max, rho_max)
    t, gw = np.polynomial.legendre.leggauss(order)
    rho = (t + 1.0) * (rho_max / 2.0)
    weights = gw * (rho_max / 2.0) * 0.5  # d(rho)/2
    return Grid(nodes=rho, weights=weights, measure=Measure.RADIAL_RHO, tail_bound=bound)


def grid_for(p: ModelParams, order: int, n_max: int, tail_tol: float) -> Grid:
    """Quadrature grid of order ``order`` for the model's own measure.

    The grid integrates products of the first n_max+1 eigenfunctions; for
    the radial grid ``tail_tol`` bounds the neglected large-rho part.
    """
    if p.model is Model.TPT:
        return tpt_grid(p, order)
    if p.model is Model.PSEUDOHARMONIC:
        return radial_grid(p.s, n_max=n_max, order=order, tail_tol=tail_tol)
    raise DomainError("coordinate-space grids exist for the TPT and pseudoharmonic models only")


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


def tpt_eigenfunctions(n_max: int, u, p: ModelParams) -> np.ndarray:
    """psi_0 .. psi_{n_max} at the points u, by the derivative-free recurrence.

    Returns an array of shape (n_max+1, len(u)).
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    uu = np.atleast_1d(_check_u(u))
    lam = p.lam
    psi = np.zeros((n_max + 1, uu.size))
    psi[0] = tpt_ground(uu, p)
    for n in range(n_max):
        up = math.sqrt((lam + n) * (n + 1) / ((lam + n + 1) * (2 * lam + n)))
        lead = 2.0 * (lam + n) * uu * psi[n]
        if n >= 1:
            down = math.sqrt((lam + n) * (2 * lam + n - 1) / ((lam + n - 1) * n))
            lead = lead - n * down * psi[n - 1]
        psi[n + 1] = lead / ((2.0 * lam + n) * up)
    return psi


# ---------------------------------------------------------------------------
# Pseudoharmonic radial functions


def _check_rho(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise DomainError("rho must be positive")
    return rho


def pseudoharmonic_radials(n_max: int, s: float, rho) -> np.ndarray:
    """R_0 .. R_{n_max} at the points rho, shape (n_max+1, len(rho)).

    Laguerre part by the three-term recurrence
    (k+1) L_{k+1} = (2k + 2s + 1 - rho) L_k - (k + 2s) L_{k-1}.
    """
    if s <= 0:
        raise DomainError(f"need s > 0, got {s}")
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    rr = np.atleast_1d(_check_rho(rho))
    two_s = 2.0 * s
    lag = np.zeros((n_max + 1, rr.size))
    lag[0] = 1.0
    if n_max >= 1:
        lag[1] = two_s + 1.0 - rr
    for k in range(1, n_max):
        lag[k + 1] = ((2.0 * k + two_s + 1.0 - rr) * lag[k] - (k + two_s) * lag[k - 1]) / (k + 1.0)
    base = rr**s * np.exp(-rr / 2.0)
    out = np.zeros_like(lag)
    for n in range(n_max + 1):
        log_norm = 0.5 * (math.log(2.0) + gammaln(n + 1.0) - gammaln(n + two_s + 1.0))
        out[n] = math.exp(log_norm) * base * lag[n]
    return out


def _family(p: ModelParams) -> Callable[[int, np.ndarray], np.ndarray]:
    if p.model is Model.TPT:
        return lambda n_max, x: tpt_eigenfunctions(n_max, x, p)
    if p.model is Model.PSEUDOHARMONIC:
        return lambda n_max, x: pseudoharmonic_radials(n_max, p.s, x)
    raise DomainError("coordinate-space families exist for the TPT and pseudoharmonic models only")


def sample_eigenfunction(n: int, grid: Grid, p: ModelParams) -> GridFunction:
    """Eigenfunction number n sampled on a quadrature grid."""
    vals = _family(p)(n, grid.nodes)[n]
    return GridFunction(grid=grid, values=vals)


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
    """<fa|fb> over the model measure, with an error estimate.

    The estimate combines the grid's analytic tail bound with a roundoff
    allowance on the weighted sum; it does not include the quadrature
    truncation of the rule itself, which the node-doubling construction
    in :func:`orthonormality_gram` controls.
    """
    if fa.grid.measure is not fb.grid.measure:
        raise SizeMismatchError("grid measures differ")
    if fa.nodes.shape != fb.nodes.shape or not np.array_equal(fa.nodes, fb.nodes):
        raise SizeMismatchError("grids have different nodes")
    w = fa.grid.weights
    integrand = np.conj(fa.values) * fb.values
    value = np.sum(w * integrand)
    roundoff = 32.0 * np.finfo(float).eps * float(np.sum(np.abs(w * integrand)))
    err = fa.grid.tail_bound + roundoff
    if not (np.iscomplexobj(fa.values) or np.iscomplexobj(fb.values)):
        return OverlapResult(float(value.real), err)
    return OverlapResult(complex(value), err)


def coherent_wavefunction(c: FockVector, grid: Grid, p: ModelParams) -> GridFunction:
    """Coordinate-space synthesis sum_n c_n psi_n on a quadrature grid."""
    if abs(c.norm() - 1.0) > 1e-9:
        raise DomainError(f"coherent_wavefunction expects a normalized state; norm = {c.norm()!r}")
    fam = _family(p)(c.cutoff - 1, grid.nodes)
    values = c.coeffs @ fam
    if np.allclose(values.imag, 0.0, atol=0.0):
        values = values.real
    return GridFunction(grid=grid, values=values)


def orthonormality_gram(
    p: ModelParams,
    n_max: int = 10,
    tol: float = 1e-12,
    start_order: int = 64,
    max_order: int = 65536,
) -> tuple[np.ndarray, float, int]:
    """Gram matrix of the first n_max+1 eigenfunctions by quadrature.

    The quadrature order is doubled until two successive estimates agree
    to ``tol`` in the max-entry norm.  Returns (gram, last difference,
    order used).
    """
    def build(order: int) -> np.ndarray:
        grid = grid_for(p, order, n_max, tol)
        fam = _family(p)(n_max, grid.nodes)
        return (fam * grid.weights) @ fam.T

    order = start_order
    prev = build(order)
    while order <= max_order:
        order *= 2
        cur = build(order)
        diff = float(np.max(np.abs(cur - prev)))
        if diff <= tol:
            return cur, diff, order
        prev = cur
    raise QuadratureError(
        f"Gram matrix did not converge to {tol:.1e} below order {max_order}"
    )
