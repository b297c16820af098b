"""Independent closed forms the benchmark checks program output against.

The coefficients are computed here from log-gamma expressions, without
calling defosc, so a wrong but self-consistent program result is caught:

* annihilation eigenstates (Barut-Girardello family), recurrence and
  closed-form methods:
  TPT            |c_n| ~ |alpha|^n sqrt((2 lam)^n / (n! Gamma(2 lam + n)))
  pseudoharmonic |c_n| ~ |alpha|^n sqrt(1 / (n! Gamma(2 s + n + 1)))
  harmonic       |c_n| ~ |alpha|^n / sqrt(n!)
* displacement states (negative-binomial family), all three routes:
  |c_n| ~ |zeta|^n sqrt(Gamma(n + r) / (n! Gamma(r))), r = 2 lam or 2 s + 1,
  zeta = e^{i phi} tanh(|alpha| / sqrt(d)), d = 2 lam or 1.

In both families arg c_n = n arg(alpha).  The program renormalizes on the
truncation, so the oracle does too, over the rows the CSV holds.
"""

from __future__ import annotations

import cmath
import csv
import math

import numpy as np
from scipy.special import gammaln

GRAM_TOL = 1e-8
# A passed result further than this from the closed form is wrong output,
# not just short of the task's check tolerance.  Set far above the
# truncation-edge error of the dense exponential routes (about 1e-11 at
# cutoff 128) and far below the error of a wrong formula.
GROSS_TOL = 1e-6


def _normalized(logmag: np.ndarray, phase: float) -> np.ndarray:
    mags = np.exp(logmag - np.max(logmag))
    mags /= np.linalg.norm(mags)
    return mags * np.exp(1j * phase * np.arange(logmag.size))


def eigenstate_coefficients(settings: dict, cutoff: int) -> np.ndarray:
    """Normalized annihilation-eigenstate coefficients on ``cutoff`` levels."""
    alpha = complex(settings.get("alpha_re", 0.5), settings.get("alpha_im", 0.0))
    n = np.arange(cutoff, dtype=float)
    if alpha == 0:
        return (n == 0).astype(complex)
    model = settings.get("model", "tpt")
    if model == "tpt":
        two_lam = 2.0 * settings.get("lambda", 2.0)
        half = n * math.log(two_lam) - gammaln(n + 1.0) - gammaln(two_lam + n)
    elif model == "pseudoharmonic":
        half = -gammaln(n + 1.0) - gammaln(2.0 * settings.get("s", 1.0) + n + 1.0)
    else:
        half = -gammaln(n + 1.0)
    return _normalized(n * math.log(abs(alpha)) + 0.5 * half, cmath.phase(alpha))


def displacement_coefficients(settings: dict, cutoff: int) -> np.ndarray:
    """Normalized displacement-state coefficients on ``cutoff`` levels."""
    alpha = complex(settings.get("alpha_re", 0.5), settings.get("alpha_im", 0.0))
    n = np.arange(cutoff, dtype=float)
    if alpha == 0:
        return (n == 0).astype(complex)
    if settings.get("model", "tpt") == "tpt":
        lam = settings.get("lambda", 2.0)
        r, d = 2.0 * lam, 2.0 * lam
    else:
        r, d = 2.0 * settings.get("s", 1.0) + 1.0, 1.0
    zeta_abs = math.tanh(abs(alpha) / math.sqrt(d))
    logmag = n * math.log(zeta_abs) + 0.5 * (gammaln(n + r) - gammaln(n + 1.0))
    return _normalized(logmag, cmath.phase(alpha))


def _read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def _max_dev(cols: dict[str, np.ndarray], prefix: str, expected: np.ndarray) -> float:
    got = cols[prefix + "re"] + 1j * cols[prefix + "im"]
    if got.size != expected.size or not np.all(np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got - expected)))


def csv_deviations(task: str, settings: dict, csv_path: str) -> dict[str, float]:
    """Check id -> max coefficient deviation of a ``coherent`` or
    ``displacement-check`` CSV from the closed form (inf if unreadable)."""
    if task == "coherent":
        method = settings.get("method", "annihilation")
        routes = {f"oracle-coherent-{method}": ""}
        family = eigenstate_coefficients if method.startswith("annihilation") else displacement_coefficients
    else:
        routes = {f"oracle-displacement-{r}": r + "_" for r in ("direct", "factored", "closed")}
        family = displacement_coefficients
    try:
        cols = _read_csv(csv_path)
        expected = family(settings, next(iter(cols.values())).size)
        return {check: _max_dev(cols, prefix, expected) for check, prefix in routes.items()}
    except (OSError, ValueError, IndexError, KeyError, StopIteration):
        return {check: math.inf for check in routes}


def gram_deviation(gram: np.ndarray) -> dict[str, float]:
    """Max deviation of an orthonormality Gram matrix from the identity."""
    gram = np.asarray(gram)
    return {"oracle-gram-identity": float(np.max(np.abs(gram - np.eye(gram.shape[0]))))}
