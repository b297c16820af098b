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
L_n^(2s)(rho).  psi_0^2 times the measure is the probability density of
(1-u^2)^(lam-1/2) du or rho^(2s) e^(-rho) d(rho), whose Gauss rule from
SciPy (Gegenbauer or generalized Laguerre) integrates every q_n q_m of its
first ``order`` levels exactly.  :func:`gauss_levels` returns the rule as
one matrix Q[n, i] = sqrt(w_i) q_n(x_i), the same recurrences seeded with
sqrt(w) instead of psi_0, so every inner product is a dot product of its
rows.  The Gauss-Legendre points of :func:`sample_points` only place the
points where eigenfunctions are sampled.  Those nodes come from Newton's
method on P_n, with P_n' = n (x P_n - P_{n-1}) / (x^2 - 1), started from
Tricomi's asymptotic nodes (Hale and Townsend, SIAM J. Sci. Comput. 35,
2013): O(n^2) work in place of the O(n^3) dense eigensolve of NumPy's
``leggauss``, whose nodes it matches to 1 ulp.  They depend on the order
alone, so the nodes of the last 16 orders are cached, as read-only arrays.
:func:`coherent_wavefunction` evaluates the family only up to the last
nonzero coefficient of its state.

The differential ladder operators map psi_n = psi_0 q_n to psi_0 times a
polynomial of degree n+1 in q_n and q_n', so every matrix element
<psi_m|M|psi_n> is exact on the same Gauss rule.  :func:`ladder_matrix`
forms the whole lowering and raising matrices there, off-band entries
included, with q_n' carried by differentiating the level recurrence.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import eval_genlaguerre, eval_legendre, gammaln, roots_gegenbauer, roots_genlaguerre

from .errors import DomainError, QuadratureError
from .models import Model, ModelParams

__all__ = [
    "tpt_ground",
    "tpt_eigenfunctions",
    "pseudoharmonic_radials",
    "sample_points",
    "gauss_levels",
    "coherent_wavefunction",
    "ladder_matrix",
    "orthonormality_gram",
]

_NO_FAMILY = "coordinate-space families exist for the TPT and pseudoharmonic models only"
# Newton on the Legendre nodes stops once its largest step is a few ulp of 1;
# from Tricomi's nodes it takes about three steps
_NEWTON_STOP = 4.0 * np.finfo(float).eps
_NEWTON_MAX_STEPS = 20
# Orders whose Legendre nodes stay cached: at most 16 x 64 KiB at the
# 8192-node cap of cli.MAX_GRID_NODES
_NODE_CACHE_ORDERS = 16


# ---------------------------------------------------------------------------
# TPT eigenfunctions


def _check_u(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if not np.all(np.abs(u) < 1.0):
        raise DomainError("u must be finite and lie strictly inside (-1, 1)")
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


def _three_term(n_max: int, x: np.ndarray, seed, steps, slopes: bool = False):
    """Levels q_0..q_{n_max} of q_{n+1} = (r_n q_n - b_n q_{n-1}) / d_n from q_0 = seed.

    ``steps`` yields (r_n(x), r_n', b_n, d_n) for n = 0 .. n_max-1, with r_n
    affine in x, so q_n is ``seed`` times a polynomial P_n of degree n.
    With ``slopes`` the pair (levels, slopes) is returned, slopes[n] =
    seed P_n', from the same recurrence differentiated:
    P'_{n+1} = (r_n' P_n + r_n P'_n - b_n P'_{n-1}) / d_n from P'_0 = 0.
    """
    out = np.zeros((n_max + 1, x.size))
    out[0] = seed
    d_out = np.zeros_like(out) if slopes else None
    for n, (ramp, ramp_slope, back, divisor) in enumerate(steps):
        lead = ramp * out[n]
        if n >= 1:
            lead = lead - back * out[n - 1]
        out[n + 1] = lead / divisor
        if slopes:
            d_lead = ramp_slope * out[n] + ramp * d_out[n]
            if n >= 1:
                d_lead = d_lead - back * d_out[n - 1]
            d_out[n + 1] = d_lead / divisor
    return (out, d_out) if slopes else out


def _tpt_steps(n_max: int, lam: float, u: np.ndarray):
    for n in range(n_max):
        up = math.sqrt((lam + n) * (n + 1) / ((lam + n + 1) * (2 * lam + n)))
        down = math.sqrt((lam + n) * (2 * lam + n - 1) / ((lam + n - 1) * n)) if n else 0.0
        yield 2.0 * (lam + n) * u, 2.0 * (lam + n), n * down, (2.0 * lam + n) * up


def tpt_eigenfunctions(n_max: int, u, p: ModelParams) -> np.ndarray:
    """psi_0 .. psi_{n_max} at the points u, by the derivative-free recurrence.

    Returns an array of shape (n_max+1, len(u)).
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    uu = np.atleast_1d(_check_u(u))
    return _three_term(n_max, uu, tpt_ground(uu, p), _tpt_steps(n_max, p.lam, uu))


# ---------------------------------------------------------------------------
# Pseudoharmonic radial functions


def _check_rho(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if not np.all((rho > 0.0) & (rho < math.inf)):
        raise DomainError("rho must be positive and finite")
    return rho


def _radial_steps(n_max: int, s: float, rho: np.ndarray):
    two_s = 2.0 * s
    for k in range(n_max):
        yield (2.0 * k + two_s + 1.0 - rho, -1.0, math.sqrt(k * (k + two_s)),
               math.sqrt((k + 1.0) * (k + two_s + 1.0)))


def pseudoharmonic_radials(n_max: int, rho, p: ModelParams) -> np.ndarray:
    """R_0 .. R_{n_max} at the points rho, shape (n_max+1, len(rho)).

    The Laguerre recurrence rescaled to the normalized functions, which
    keeps rho^s and L_n apart from each other (each overflows at large s):
    sqrt((k+1)(k+2s+1)) R_{k+1} = (2k+2s+1-rho) R_k - sqrt(k(k+2s)) R_{k-1},
    from R_0 = sqrt(2/Gamma(2s+1)) rho^s e^(-rho/2) formed in log space.
    """
    if p.model is not Model.PSEUDOHARMONIC:
        raise DomainError(f"pseudoharmonic_radials needs pseudoharmonic parameters, got {p.model}")
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    rr = np.atleast_1d(_check_rho(rho))
    s = p.s
    seed = np.exp(0.5 * (math.log(2.0) - gammaln(2.0 * s + 1.0)) + s * np.log(rr) - rr / 2.0)
    return _three_term(n_max, rr, seed, _radial_steps(n_max, s, rr))


def _family(p: ModelParams):
    if p.model is Model.TPT:
        return tpt_eigenfunctions
    if p.model is Model.PSEUDOHARMONIC:
        return pseudoharmonic_radials
    raise DomainError(_NO_FAMILY)


# ---------------------------------------------------------------------------
# Sample points and Gauss rules


@functools.lru_cache(maxsize=_NODE_CACHE_ORDERS)
def _legendre_nodes(n: int) -> np.ndarray:
    """The n roots of P_n in increasing order, by Newton's method; read-only.

    Tricomi's initial nodes on the positive half,
    (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k-1)/(4n+2)), are corrected until
    the largest step is a few ulp; the half is then mirrored, with 0 in the
    middle for odd n.  The nodes depend on n alone, so they are cached by
    order and returned read-only.
    """
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n ** 3)) * np.cos(
        math.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    for _ in range(_NEWTON_MAX_STEPS):
        p_n = eval_legendre(n, x)
        step = p_n * (x * x - 1.0) / (n * (x * p_n - eval_legendre(n - 1, x)))
        x = x - step
        if np.max(np.abs(step), initial=0.0) <= _NEWTON_STOP:
            break
    else:
        raise QuadratureError(f"Newton's method found no {n}-node Gauss-Legendre rule")
    middle = [0.0] if n % 2 else []
    nodes = np.concatenate([-x, middle, x[::-1]])
    nodes.flags.writeable = False
    return nodes


def sample_points(p: ModelParams, order: int, n_max: int) -> np.ndarray:
    """``order`` points in the model variable, placed at Gauss-Legendre nodes t.

    TPT: u = sin((pi/2) t), the nodes of x = (pi/2a) t over the whole well,
    kept strictly inside (-1, 1).  Pseudoharmonic: rho = (t+1) rho_max/2 with
    rho_max = max(40, 8s + 8 n_max + 20), twice the outer turning point
    4 n_max + 2s + 2 of the first n_max+1 levels.
    """
    if order < 2:
        raise DomainError(f"need order >= 2, got {order}")
    t = _legendre_nodes(order)
    if p.model is Model.TPT:
        largest = np.nextafter(1.0, 0.0)
        return np.clip(np.sin((math.pi / 2.0) * t), -largest, largest)
    if p.model is Model.PSEUDOHARMONIC:
        rho_max = max(40.0, 4.0 * (2.0 * p.s + 2.0 * n_max) + 20.0)
        return (t + 1.0) * (rho_max / 2.0)
    raise DomainError(_NO_FAMILY)


def gauss_levels(p: ModelParams, n_max: int, order: int) -> np.ndarray:
    """Levels 0..n_max on SciPy's ``order``-node Gauss rule for psi_0^2.

    Returns Q of shape (n_max+1, order), Q[n, i] = sqrt(w_i) psi_n(x_i)/psi_0(x_i)
    with w the rule's weights scaled to sum to 1, so Q[n] . Q[m] is the
    inner product <psi_n|psi_m>, exact for n + m < 2 order.  The rule is
    Gauss-Gegenbauer at lam for TPT and generalized Gauss-Laguerre at 2s for
    the radial model.  Its weights are formed and normalized in log space:
    SciPy's Laguerre weights carry Gamma(2s+1), infinite past 2s ~ 171, so
    they are formed from SciPy's L_{order+1}^(2s) at the nodes,
    w_i ~ rho_i / L(rho_i)^2.  A non-finite node or log-weight, or a
    sqrt(w) below the smallest normal float, raises QuadratureError:
    SciPy's Gegenbauer rule fails at large lam, and the Laguerre rule past
    about 360 levels.
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if order < 1:
        raise DomainError(f"need order >= 1, got {order}")
    x, root_w = _gauss_rule(p, order)
    return _three_term(n_max, x, root_w, _steps(p, n_max, x))


def _gauss_rule(p: ModelParams, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and square-root weights of the rule of :func:`gauss_levels`."""
    with np.errstate(all="ignore"):
        if p.model is Model.TPT:
            x, w = roots_gegenbauer(order, p.lam)
            log_w = np.log(w)
        elif p.model is Model.PSEUDOHARMONIC:
            x, _ = roots_genlaguerre(order, 2.0 * p.s)
            log_w = np.log(x) - 2.0 * np.log(np.abs(eval_genlaguerre(order + 1, 2.0 * p.s, x)))
        else:
            raise DomainError(_NO_FAMILY)
        log_w = log_w - np.max(log_w)
        root_w = np.exp(0.5 * (log_w - np.log(np.sum(np.exp(log_w)))))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(log_w))
            and np.all(root_w >= np.finfo(float).tiny)):
        raise QuadratureError(f"SciPy gave no valid {order}-node Gauss rule for {p}")
    return x, root_w


def _steps(p: ModelParams, n_max: int, x: np.ndarray):
    if p.model is Model.TPT:
        return _tpt_steps(n_max, p.lam, x)
    return _radial_steps(n_max, p.s, x)


def ladder_matrix(p: ModelParams, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowering and raising matrices of the differential ladder operators on levels 0..n_max.

    Entry [m, n] is <psi_m|M|psi_n>.  TPT, in u and with eps = lam + n for the level n acted on:

        M+ = sqrt((eps+1)/eps) (-(1-u^2) d/du + eps u)
        M- = sqrt((eps-1)/eps) ( (1-u^2) d/du + eps u)

    Pseudoharmonic, in rho, with the number operator read as n:

        L+ = rho d/drho + s + n + 1 - rho/2,   L- = -rho d/drho + s + n - rho/2

    On psi_n = psi_0 q_n each image is psi_0 times a polynomial of degree n+1,

        M+ psi_n = psi_0 sqrt((eps+1)/eps) ((lam+eps) u q_n - (1-u^2) q_n')
        M- psi_n = psi_0 sqrt((eps-1)/eps) ((eps-lam) u q_n + (1-u^2) q_n')
        L+ R_n = R_0 ((2s+n+1-rho) q_n + rho q_n'),   L- R_n = R_0 (n q_n - rho q_n')

    so every element is exact on the (n_max+2)-node rule of :func:`gauss_levels`:
    Q @ image.T, with q_n' from the differentiated level recurrence.  Column
    0 of the lowering matrix is the bracket alone, since TPT's prefactor is
    imaginary for lam < 1; the bracket vanishes there.  The matrices should
    equal sqrt(d) times the deformed ladder amplitudes
    (:func:`defosc.fock.ladder_amplitudes`) on one off-diagonal and 0
    elsewhere, with d the deformation's su(1,1) level scale.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    x, root_w = _gauss_rule(p, n_max + 2)
    q, dq = _three_term(n_max, x, root_w, _steps(p, n_max, x), slopes=True)
    n = np.arange(n_max + 1, dtype=float)[:, None]
    if p.model is Model.TPT:
        eps = p.lam + n
        edge = (1.0 - x * x) * dq
        raising = np.sqrt((eps + 1.0) / eps) * ((p.lam + eps) * x * q - edge)
        lowering = (eps - p.lam) * x * q + edge
        lowering[1:] *= np.sqrt((eps[1:] - 1.0) / eps[1:])
    else:
        raising = (2.0 * p.s + n + 1.0 - x) * q + x * dq
        lowering = n * q - x * dq
    return q @ lowering.T, q @ raising.T


def coherent_wavefunction(c: np.ndarray, x, p: ModelParams) -> np.ndarray:
    """Coordinate-space synthesis sum_n c_n psi_n of the coefficient array c
    at the points x, real if its imaginary part vanishes.

    Only the levels up to the last nonzero c_n are evaluated; the levels
    past it would add exact zeros."""
    c = np.asarray(c, dtype=complex)
    norm = float(np.linalg.norm(c))
    if c.ndim != 1 or not abs(norm - 1.0) <= 1e-9:
        raise DomainError(f"coherent_wavefunction expects a normalized 1-D state; norm = {norm!r}")
    m = int(np.flatnonzero(c)[-1]) + 1
    psi = _family(p)(m - 1, x, p)
    # two real products; ``c @ psi`` would first copy psi to complex
    values = c.real[:m] @ psi + 1j * (c.imag[:m] @ psi)
    return values if np.any(values.imag) else values.real


def orthonormality_gram(p: ModelParams, n_max: int = 10, tol: float = 1e-12,
                        max_order: int = 65536) -> tuple[np.ndarray, float, int]:
    """Gram matrix of the first n_max+1 eigenfunctions on the n_max+1 node Gauss rule.

    That rule is exact, so the rule with one node more must give the same
    matrix; their max-entry difference must not exceed ``tol``.  Returns
    (gram, difference, n_max+1).
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if n_max + 2 > max_order:
        raise QuadratureError(f"the Gram check needs {n_max + 2} nodes > max_order {max_order}")

    def build(order: int) -> np.ndarray:
        q = gauss_levels(p, n_max, order)
        return q @ q.T

    gram = build(n_max + 1)
    diff = float(np.max(np.abs(build(n_max + 2) - gram)))
    if not diff <= tol:
        raise QuadratureError(
            f"Gram matrices on {n_max + 1} and {n_max + 2} nodes differ by {diff:.1e} > {tol:.1e}"
        )
    return gram, diff, n_max + 1
