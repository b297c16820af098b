"""Model parameters, energy spectra, and deformation functions.

Three systems share one operator framework:

* the trigonometric Poschl-Teller (TPT) well ``V(x) = U0 tan^2(ax)``,
  whose bound spectrum is quadratic in the level index,
* the planar pseudoharmonic oscillator (harmonic plus inverse-square
  term), whose spectrum is linear, and
* the ordinary harmonic oscillator, the undeformed reference.

All formulas are written in dimensionless units ``hbar = mu = 1`` (and
``omega = 1`` for the pseudoharmonic case).  For the TPT well the natural
frequency is fixed to ``Omega = lam * a**2``, which makes the deformed
ladder operators coincide with the ones built directly from the
eigenfunctions; every downstream identity assumes this gauge.

A deformed oscillator replaces the boson operators by ``A = a f(n)`` and
``A^dag = f(n) a^dag`` with a positive deformation function ``f^2`` of the
number operator.  Choosing ``f^2`` appropriately makes a Hamiltonian of
harmonic-oscillator form reproduce a target spectrum; the catalog below
records the choices for the two anharmonic models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "Model",
    "ModelParams",
    "DeformationFunction",
    "solve_lambda",
    "tpt_energy",
    "pseudoharmonic_energy",
    "tpt_deformation",
    "pseudoharmonic_deformation",
    "harmonic_deformation",
    "deformation_for",
]


class Model(Enum):
    TPT = "tpt"
    PSEUDOHARMONIC = "pseudoharmonic"
    HARMONIC = "harmonic"


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of one potential, in units hbar = mu = 1.

    Fields not used by a given model are left at 0 and ignored.  ``lam``
    is the TPT well-depth parameter (lam > 1/2 for a normalizable ground
    state), ``a`` the TPT range, ``s`` the pseudoharmonic index
    ``sqrt(strength + m^2)/2``, and ``omega`` the reference angular
    frequency (``lam * a**2`` for TPT, given for harmonic, 1 for
    pseudoharmonic).
    """

    model: Model
    lam: float = 0.0
    a: float = 0.0
    s: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        for name in ("lam", "a", "s", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.model is Model.TPT:
            if self.lam <= 0.5:
                raise DomainError(f"TPT requires lam > 1/2, got {self.lam}")
            if self.a <= 0:
                raise DomainError(f"TPT requires a > 0, got {self.a}")
        elif self.model is Model.PSEUDOHARMONIC:
            if self.s <= 0:
                raise DomainError(f"pseudoharmonic requires s > 0, got {self.s}")
        else:
            if self.omega <= 0:
                raise DomainError(f"harmonic requires omega > 0, got {self.omega}")

    @classmethod
    def tpt(cls, lam: float, a: float = 1.0) -> "ModelParams":
        return cls(model=Model.TPT, lam=lam, a=a, omega=lam * a * a)

    @classmethod
    def pseudoharmonic(cls, s: float) -> "ModelParams":
        return cls(model=Model.PSEUDOHARMONIC, s=s, omega=1.0)

    @classmethod
    def harmonic(cls, omega: float = 1.0) -> "ModelParams":
        return cls(model=Model.HARMONIC, omega=omega)


@dataclass(frozen=True)
class DeformationFunction:
    """An affine deformation ``f^2(n) = slope*n + intercept`` tagged with its model.

    Every catalog deformation is affine in the number operator, so the pair
    ``(slope, intercept)`` is the whole deformation; ``params`` records the
    model it was built for.  The harmonic reference is the ``slope = 0``
    contraction.
    """

    label: str
    slope: float
    intercept: float
    params: Optional[ModelParams] = None

    def fsq(self, n) -> np.ndarray:
        return self.slope * np.asarray(n, dtype=float) + self.intercept

    def validate_positive(self, cutoff: int) -> None:
        """Require f^2(n) > 0 and finite for 1 <= n < cutoff."""
        n = np.arange(1, max(cutoff, 2))
        vals = self.fsq(n)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            bad = int(n[np.argmin(vals)])
            raise DomainError(
                f"deformation {self.label!r}: f^2({bad}) = {self.fsq(bad)} "
                "must be positive and finite on the truncation range"
            )

    # -- su(1,1) structure ------------------------------------------------
    #
    # For f^2(n) = (n + c)/d with d = 1/slope > 0 and c = intercept/slope,
    # the operators A, A^dag, and K0 = n + (c+1)/2 close an su(1,1)
    # algebra: K+ = sqrt(d) A^dag has matrix elements sqrt((n+1)(n+2k))
    # with lowest weight k = (c+1)/2, and [A, A^dag] = 2*slope*K0.
    # TPT: d = 2*lam, k = lam.  Pseudoharmonic: d = 1, k = s + 1/2.

    def _require_su11(self) -> None:
        if not self.slope > 0:
            raise DomainError(
                f"deformation {self.label!r} has no su(1,1) structure "
                "(f^2 must be affine in n with positive slope)"
            )

    @property
    def su11_scale(self) -> float:
        """d = 1/slope; equals 2*lam for TPT, 1 for pseudoharmonic."""
        self._require_su11()
        return 1.0 / self.slope

    @property
    def bargmann_index(self) -> float:
        """Lowest-weight index k = (intercept/slope + 1)/2; lam for TPT, s + 1/2 for pseudoharmonic."""
        self._require_su11()
        return (self.intercept / self.slope + 1.0) / 2.0


def solve_lambda(u0: float, a: float) -> float:
    """Well-depth parameter lam from the potential strength and range.

    Positive root of lam*(lam+1) = 2*U0/a^2 in units hbar = mu = 1.
    """
    if u0 <= 0 or a <= 0:
        raise DomainError(f"solve_lambda requires U0 > 0 and a > 0, got U0={u0}, a={a}")
    return (-1.0 + math.sqrt(1.0 + 8.0 * u0 / (a * a))) / 2.0


def tpt_energy(n, p: ModelParams):
    """TPT level energy (a^2/2)(n^2 + 2 n lam + lam), i.e. omega*(n + 1/2 + n^2/(2 lam))."""
    if p.model is not Model.TPT:
        raise DomainError(f"tpt_energy needs TPT parameters, got {p.model}")
    n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise DomainError("level index must be nonnegative")
    e = 0.5 * p.a * p.a * (n * n + 2.0 * n * p.lam + p.lam)
    return float(e) if e.ndim == 0 else e


def pseudoharmonic_energy(n, s: float):
    """Pseudoharmonic level energy 2*(n + s + 1/2) in units hbar = mu = omega = 1."""
    if not 0 < s < math.inf:
        raise DomainError(f"pseudoharmonic requires finite s > 0, got {s}")
    n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise DomainError("level index must be nonnegative")
    e = 2.0 * (n + s + 0.5)
    return float(e) if e.ndim == 0 else e


def tpt_deformation(p: ModelParams) -> DeformationFunction:
    """Deformation reproducing the TPT spectrum: f^2(n) = (n + 2 lam - 1)/(2 lam).

    With the gauge Omega = lam*a^2 the deformed annihilation operator acts
    as A|n> = sqrt(n (2 lam + n - 1)/(2 lam)) |n-1>, identical to the
    ladder operator built from the eigenfunctions.  f^2 -> 1 pointwise as
    lam -> infinity (harmonic limit).
    """
    if p.model is not Model.TPT:
        raise DomainError(f"tpt_deformation needs TPT parameters, got {p.model}")
    lam = p.lam
    return DeformationFunction(
        label=f"tpt(lam={lam!r})",
        slope=1.0 / (2.0 * lam),
        intercept=(2.0 * lam - 1.0) / (2.0 * lam),
        params=p,
    )


def pseudoharmonic_deformation(s: float) -> DeformationFunction:
    """Deformation reproducing the pseudoharmonic spectrum: f^2(n) = n + 2 s.

    The antisymmetric factorization A A^dag - A^dag A then has diagonal
    2*(n + s + 1/2), matching the spectrum.
    """
    return DeformationFunction(
        label=f"pseudoharmonic(s={s!r})",
        slope=1.0,
        intercept=2.0 * s,
        params=ModelParams.pseudoharmonic(s),
    )


def harmonic_deformation() -> DeformationFunction:
    """Undeformed reference, f^2(n) = 1 for all n."""
    return DeformationFunction(
        label="harmonic",
        slope=0.0,
        intercept=1.0,
        params=ModelParams.harmonic(1.0),
    )


def deformation_for(p: ModelParams) -> DeformationFunction:
    """Catalog lookup: the deformation attached to a parameter set."""
    if p.model is Model.TPT:
        return tpt_deformation(p)
    if p.model is Model.PSEUDOHARMONIC:
        return pseudoharmonic_deformation(p.s)
    return harmonic_deformation()
