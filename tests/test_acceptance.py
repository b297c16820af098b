"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable; commutator and
spectrum deviations are entrywise relative to the identity's own
magnitude (floored at 1), matching the spectrum criterion's convention,
since absolute 1e-12 is below the roundoff floor of the O(n^2) matrix
elements involved at cutoff 128 and beyond.
"""

import math
import time

import numpy as np
from scipy.special import gammaln

from defosc import (
    ModelParams,
    annihilation_eigenstate,
    closed_form_bg_coefficients,
    deformed_displacement_coefficients,
    deformed_hamiltonian_antisymmetric,
    deformed_hamiltonian_symmetric,
    displacement_state_closed_form,
    displacement_state_direct,
    displacement_state_factored,
    glauber_coefficients,
    harmonic_deformation,
    harmonic_limit_deviation,
    ladder_action_fd,
    ladder_amplitudes,
    orthonormality_gram,
    pseudoharmonic_deformation,
    pseudoharmonic_energy,
    tpt_deformation,
    tpt_energy,
    tpt_ladder_coefficients,
    zeta_from_alpha,
)


def report(name: str, deviation: float, tolerance: float, runtime: float, budget: float) -> None:
    ok = deviation <= tolerance and runtime <= budget
    print(
        f"{'PASS' if ok else 'FAIL'} {name}: max_deviation={deviation:.3e} "
        f"tolerance={tolerance:.0e} runtime={runtime:.2f}s budget={budget:.0f}s"
    )


def rel_dev(computed, target):
    computed = np.asarray(computed)
    target = np.asarray(target)
    return float(np.max(np.abs(computed - target) / np.maximum(1.0, np.abs(target))))


def ladder_operators(f, cutoff):
    # dense complex lowering and raising matrices: the suite's own reference
    amp = ladder_amplitudes(f, cutoff).astype(complex)
    return np.diag(amp, 1), np.diag(amp, -1)


def nb_tail(r_index: float, zeta_mag: float, start: int) -> float:
    # independent continuation of the displacement weight series, closed by
    # a geometric-majorant remainder
    z = zeta_mag**2
    total, n = 0.0, start
    while True:
        log_t = (
            r_index * math.log1p(-z) + n * math.log(z)
            + gammaln(n + r_index) - gammaln(n + 1.0) - gammaln(r_index)
        )
        t = math.exp(log_t)
        total += t
        ratio = z * (n + r_index) / (n + 1.0)
        if ratio < 1.0 and t * ratio / (1.0 - ratio) < 1e-18:
            return total + t * ratio / (1.0 - ratio)
        n += 1


def test_criterion_1_spectrum_identity():
    tol, budget = 1e-12, 1.0
    start = time.perf_counter()
    worst = 0.0
    n = np.arange(257, dtype=float)
    for lam in (0.75, 1.0, 2.0, 10.0, 100.0):
        p = ModelParams.tpt(lam, 1.0)
        diag = deformed_hamiltonian_symmetric(tpt_deformation(p), 257, p.omega)
        worst = max(worst, float(np.max(np.abs(diag - tpt_energy(n, p)) / tpt_energy(n, p))))
    for s in (0.5, 1.0, 3.0):
        diag = deformed_hamiltonian_antisymmetric(pseudoharmonic_deformation(s), 257)
        target = pseudoharmonic_energy(n, s)
        worst = max(worst, float(np.max(np.abs(diag - target) / target)))
    runtime = time.perf_counter() - start
    report("criterion-1 spectrum-identity", worst, tol, runtime, budget)
    assert worst <= tol
    assert runtime <= budget


def test_criterion_2_commutator_suite():
    tol, budget = 1e-12, 1.0
    cutoff = 128
    start = time.perf_counter()
    worst = 0.0
    idx = np.arange(cutoff)
    inner = np.s_[: cutoff - 1, : cutoff - 1]
    for lam in (2.0, 10.0):
        f = tpt_deformation(ModelParams.tpt(lam))
        low, rai = ladder_operators(f, cutoff)
        weight = np.diag((1.0 + idx / lam).astype(complex))
        comm = low @ rai - rai @ low
        worst = max(worst, rel_dev(comm.diagonal()[:-1], 1.0 + idx[:-1] / lam))
        worst = max(worst, rel_dev((low @ weight - weight @ low)[inner], low[inner] / lam))
        worst = max(worst, rel_dev((rai @ weight - weight @ rai)[inner], -rai[inner] / lam))
    for s in (1.0, 3.0):
        f = pseudoharmonic_deformation(s)
        low, rai = ladder_operators(f, cutoff)
        weight = np.diag((idx + s + 0.5).astype(complex))
        comm = low @ rai - rai @ low
        worst = max(worst, rel_dev(comm.diagonal()[:-1], 2.0 * (idx[:-1] + s + 0.5)))
        worst = max(worst, rel_dev((weight @ low - low @ weight)[inner], -low[inner]))
        worst = max(worst, rel_dev((weight @ rai - rai @ weight)[inner], rai[inner]))
    runtime = time.perf_counter() - start
    report("criterion-2 commutator-suite", worst, tol, runtime, budget)
    assert worst <= tol
    assert runtime <= budget


def _random_draws(count=100, seed=20260808):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lam = rng.uniform(0.6, 50.0)
        alpha = rng.uniform(0.0, 4.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        yield lam, alpha


def test_criterion_3_coefficient_identity():
    tol, budget = 1e-12, 5.0
    cutoff = 64
    start = time.perf_counter()
    worst = 0.0
    for lam, alpha in _random_draws():
        f = tpt_deformation(ModelParams.tpt(lam))
        by_deformed = annihilation_eigenstate(f, alpha, cutoff).state.coeffs
        by_ladder = tpt_ladder_coefficients(lam, alpha, cutoff)
        by_gamma = closed_form_bg_coefficients(f, alpha, cutoff).state.coeffs
        worst = max(worst, float(np.max(np.abs(by_deformed - by_ladder))))
        worst = max(worst, float(np.max(np.abs(by_deformed - by_gamma))))
        zeta = zeta_from_alpha(alpha, f)
        res = displacement_state_closed_form(f, zeta, cutoff)
        raw_gamma = res.state.coeffs * math.sqrt(max(0.0, 1.0 - res.tail_mass))
        raw_deformed = deformed_displacement_coefficients(f, zeta, cutoff)
        worst = max(worst, float(np.max(np.abs(raw_gamma - raw_deformed))))
    runtime = time.perf_counter() - start
    report("criterion-3 coefficient-identity", worst, tol, runtime, budget)
    assert worst <= tol
    assert runtime <= budget


def test_criterion_4_disentanglement():
    tol, budget = 1e-9, 10.0
    cutoff = 128
    start = time.perf_counter()
    worst = 0.0
    for lam in (2.0, 10.0):
        f = tpt_deformation(ModelParams.tpt(lam))
        for amag in (0.5, 1.0, 2.0):
            for phase in (0.0, 2.2):
                alpha = amag * np.exp(1j * phase)
                direct = displacement_state_direct(f, alpha, cutoff).state.coeffs
                factored = displacement_state_factored(f, alpha, cutoff).state.coeffs
                worst = max(worst, float(np.max(np.abs(direct - factored))))
    runtime = time.perf_counter() - start
    report("criterion-4 disentanglement", worst, tol, runtime, budget)
    assert worst <= tol
    assert runtime <= budget


def test_criterion_5_displacement_normalization():
    tol, budget = 1e-12, 10.0
    cutoff = 64
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.75, 2.0, 10.0, 20.0):
        for zmag in (0.3, 0.6, 0.9):
            res = displacement_state_closed_form(tpt_deformation(ModelParams.tpt(lam)), zmag * np.exp(0.4j),
                                                cutoff)
            finite = 1.0 - res.tail_mass
            worst = max(worst, abs(finite + nb_tail(2.0 * lam, zmag, cutoff) - 1.0))
    runtime = time.perf_counter() - start
    report("criterion-5 displacement-normalization", worst, tol, runtime, budget)
    assert worst <= tol
    assert runtime <= budget


def test_criterion_6_harmonic_limit():
    budget = 10.0
    start = time.perf_counter()
    lambdas = [1e2, 1e3, 1e4]
    devs = harmonic_limit_deviation(1.0, lambdas, 64)
    decreasing = devs[0] > devs[1] > devs[2]
    final_ok = devs[2] < 1e-2
    # entrywise convergence rate of the ladder amplitudes toward sqrt(n)
    n = np.arange(1, 32, dtype=float)
    entry_devs = []
    for lam in lambdas:
        f = tpt_deformation(ModelParams.tpt(lam))
        entry_devs.append(float(np.max(np.abs(np.sqrt(n * f.fsq(n)) - np.sqrt(n)))))
    slope = float(np.polyfit(np.log(1.0 / np.array(lambdas)), np.log(entry_devs), 1)[0])
    rate_ok = abs(slope - 1.0) <= 0.1
    runtime = time.perf_counter() - start
    ok = decreasing and final_ok and rate_ok and runtime <= budget
    print(
        f"{'PASS' if ok else 'FAIL'} criterion-6 harmonic-limit: deviations={devs} "
        f"rate_exponent={slope:.3f} runtime={runtime:.2f}s budget={budget:.0f}s"
    )
    assert decreasing
    assert final_ok
    assert rate_ok
    assert runtime <= budget


def test_criterion_7_finite_difference_ladders():
    tol, budget = 1e-6, 30.0
    start = time.perf_counter()
    worst = 0.0
    u_nodes = np.linspace(-0.9, 0.9, 241)
    for lam in (1.0, 2.0, 10.0):
        p = ModelParams.tpt(lam, 1.0)
        for n in range(11):
            fit = ladder_action_fd(n, p, u_nodes)
            m_plus = math.sqrt((n + 1) * (2 * lam + n))
            worst = max(worst, abs(fit.coeff_plus - m_plus) / m_plus)
            if n >= 1:
                m_minus = math.sqrt(n * (2 * lam + n - 1))
                worst = max(worst, abs(fit.coeff_minus - m_minus) / m_minus)
    rho_nodes = np.linspace(0.2, 35.0, 301)
    for s in (0.5, 1.0, 3.0):
        for n in range(11):
            fit = ladder_action_fd(n, ModelParams.pseudoharmonic(s), rho_nodes)
            m_plus = math.sqrt((n + 1) * (n + 2 * s + 1))
            worst = max(worst, abs(fit.coeff_plus - m_plus) / m_plus)
            if n >= 1:
                m_minus = math.sqrt(n * (n + 2 * s))
                worst = max(worst, abs(fit.coeff_minus - m_minus) / m_minus)
    runtime = time.perf_counter() - start
    report("criterion-7 finite-difference-ladders", worst, tol, runtime, budget)
    assert worst <= tol
    assert runtime <= budget


def test_criterion_8_orthonormality():
    tol, budget = 1e-8, 30.0
    start = time.perf_counter()
    worst = 0.0
    eye = np.eye(11)
    for lam in (0.75, 2.0):
        gram, _, _ = orthonormality_gram(ModelParams.tpt(lam, 1.0), n_max=10)
        worst = max(worst, float(np.max(np.abs(gram - eye))))
    for s in (0.5, 1.0, 3.0):
        gram, _, _ = orthonormality_gram(ModelParams.pseudoharmonic(s), n_max=10)
        worst = max(worst, float(np.max(np.abs(gram - eye))))
    runtime = time.perf_counter() - start
    report("criterion-8 orthonormality", worst, tol, runtime, budget)
    assert worst <= tol
    assert runtime <= budget


def test_criterion_9_eigenstate_property():
    tol, budget = 1e-10, 10.0
    cutoff = 64
    start = time.perf_counter()
    worst = 0.0
    for lam, alpha in _random_draws():
        f = tpt_deformation(ModelParams.tpt(lam))
        state = annihilation_eigenstate(f, alpha, cutoff).state
        lowering, _ = ladder_operators(f, cutoff)
        image = lowering @ state.coeffs
        worst = max(worst, float(np.max(np.abs(image[:-1] - alpha * state.coeffs[:-1]))))
    runtime = time.perf_counter() - start
    report("criterion-9 eigenstate-property", worst, tol, runtime, budget)
    assert worst <= tol
    assert runtime <= budget


def test_glauber_reference_consistency():
    # sanity anchor for the suite: the undeformed displacement reproduces
    # the Poissonian coefficient family
    direct = displacement_state_direct(harmonic_deformation(), 1.0, 64).state.coeffs
    assert np.max(np.abs(direct - glauber_coefficients(1.0, 64))) < 1e-10
