import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm
from scipy.special import gammaln

from defosc import (
    DomainError,
    Method,
    Model,
    ModelParams,
    TruncationError,
    annihilation_eigenstate,
    closed_form_bg_coefficients,
    compare_states,
    deformation_for,
    deformed_displacement_coefficients,
    displacement_state_closed_form,
    displacement_state_direct,
    displacement_state_factored,
    glauber_coefficients,
    grow_cutoff,
    harmonic_deformation,
    harmonic_limit_deviation,
    ladder_amplitudes,
    photon_statistics,
    pseudoharmonic_deformation,
    tpt_deformation,
    zeta_from_alpha,
)
from defosc import coherent
from defosc.coherent import MAX_CUTOFF_ENV, max_auto_cutoff
from defosc.fock import matrix_exponential
from ladder_route import eigenstate_by_ladder

TPT2 = tpt_deformation(ModelParams.tpt(2.0))


def basis(n, cutoff):
    c = np.zeros(cutoff, dtype=complex)
    c[n] = 1.0
    return c


def negative_binomial_tail(r_index, zeta, start):
    """Independent tail sum of the displacement weights from `start` on,
    closed with a geometric-majorant remainder bound."""
    z = abs(zeta) ** 2
    total = 0.0
    n = start
    while True:
        log_t = (
            r_index * math.log1p(-z)
            + n * math.log(z)
            + gammaln(n + r_index)
            - gammaln(n + 1.0)
            - gammaln(r_index)
        )
        t = math.exp(log_t)
        total += t
        ratio = z * (n + r_index) / (n + 1.0)
        if ratio < 1.0 and t * ratio / (1.0 - ratio) < 1e-18:
            return total + t * ratio / (1.0 - ratio)
        n += 1


class TestAnnihilationEigenstate:
    def test_recurrence_ratios(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        c = annihilation_eigenstate(f, 0.5, 32).state.coeffs
        assert c[1] / c[0] == pytest.approx(0.5, abs=1e-14)
        assert c[2] / c[0] == pytest.approx(0.25 / (math.sqrt(2) * math.sqrt(1.25)), abs=1e-14)

    def test_zero_amplitude_gives_vacuum(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        res = annihilation_eigenstate(f, 0.0, 16)
        assert np.array_equal(res.state.coeffs, basis(0, 16))
        assert res.tail_mass == 0.0

    def test_result_metadata(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        res = annihilation_eigenstate(f, 0.5, 32)
        assert res.method is Method.ANNIHILATION_EIGENSTATE
        assert np.linalg.norm(res.state.coeffs) == pytest.approx(1.0, abs=1e-12)
        assert res.model is not None and res.model.lam == 2.0
        # normalization constant rescales the raw family (c_0 = 1) to unit norm
        assert res.state.coeffs[0].real == pytest.approx(res.normalization_constant, rel=1e-12)

    def test_non_finite_amplitude_is_domain_error(self):
        with pytest.raises(DomainError):
            annihilation_eigenstate(TPT2, complex(math.nan, 0.0), 8)

    def test_eigenstate_property_interior(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        alpha = 0.8 - 0.3j
        c = annihilation_eigenstate(f, alpha, 64).state.coeffs
        lowering = np.diag(ladder_amplitudes(f, 64), 1)
        image = lowering @ c
        assert np.max(np.abs(image[:-1] - alpha * c[:-1])) < 1e-10


class TestGrowCutoff:
    def test_doubles_until_the_tail_meets_the_tolerance(self):
        tried = []

        def build(n):
            tried.append(n)
            return displacement_state_closed_form(TPT2, 0.9, n)

        res = grow_cutoff(build, 16, 1e-12)
        assert tried == [16 * 2**k for k in range(len(tried))] and len(tried) > 1
        assert res.state.cutoff == tried[-1] and res.tail_mass <= 1e-12
        assert displacement_state_closed_form(TPT2, 0.9, tried[-2]).tail_mass > 1e-12

    def test_a_known_tail_skips_the_builds_that_fail(self):
        tried = []

        def build(n):
            tried.append(n)
            return displacement_state_closed_form(TPT2, 0.9, n)

        def tail(n):
            return displacement_state_closed_form(TPT2, 0.9, n).tail_mass

        res = grow_cutoff(build, 16, 1e-12, tail=tail)
        assert tried == [res.state.cutoff] and res.state.cutoff > 16 and res.tail_mass <= 1e-12
        tried.clear()
        with pytest.raises(TruncationError, match="tail mass bound .* at cutoff 32; .* cap 32$"):
            grow_cutoff(build, 16, 1e-12, 32, tail=tail)
        assert tried == []

    def test_recurrence_grows_to_the_reported_cutoff(self):
        res = grow_cutoff(lambda n: annihilation_eigenstate(TPT2, 2.0, n), 4, 1e-12)
        assert res.state.cutoff > 4 and res.tail_mass <= 1e-12
        assert annihilation_eigenstate(TPT2, 2.0, res.state.cutoff // 2).tail_mass > 1e-12

    def test_pinned_cutoff_raises_without_the_env_hint(self):
        with pytest.raises(TruncationError) as info:
            grow_cutoff(lambda n: displacement_state_direct(TPT2, 3.0, n), 8, 1e-12, max_cutoff=8)
        message = str(info.value)
        assert "displacement-direct" in message and "at cutoff 8" in message
        assert MAX_CUTOFF_ENV not in message

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(MAX_CUTOFF_ENV, "8")
        assert max_auto_cutoff() == 8
        with pytest.raises(TruncationError, match=f"cap 8 \\(raise {MAX_CUTOFF_ENV}"):
            grow_cutoff(lambda n: annihilation_eigenstate(TPT2, 4.0, n), 8, 1e-12)
        monkeypatch.setenv(MAX_CUTOFF_ENV, "junk")
        with pytest.raises(DomainError):
            max_auto_cutoff()

    def test_cap(self, monkeypatch):
        with pytest.raises(TruncationError, match="cap 32"):
            grow_cutoff(lambda n: displacement_state_closed_form(TPT2, 0.9, n), 16, 1e-12, 32)
        # a malformed default cap is rejected even when no doubling is needed
        monkeypatch.setenv(MAX_CUTOFF_ENV, "junk")
        with pytest.raises(DomainError):
            grow_cutoff(lambda n: displacement_state_closed_form(TPT2, 0.0, n), 16, 1e-12)


def _closed_form_displacement(f, alpha, cutoff):
    return displacement_state_closed_form(f, zeta_from_alpha(alpha, f), cutoff)


@pytest.mark.parametrize("route", [annihilation_eigenstate, closed_form_bg_coefficients,
                                   _closed_form_displacement, displacement_state_direct,
                                   displacement_state_factored], ids=lambda r: r.__name__)
def test_route_reports_its_tail_at_the_given_cutoff(route):
    # every route builds at the cutoff it is given; only grow_cutoff judges the tail
    res = route(TPT2, 3.0, 8)
    assert res.state.cutoff == 8
    assert res.tail_mass > 1e-12


class TestClosedFormCoefficients:
    def test_tpt_first_ratio(self):
        c = closed_form_bg_coefficients(TPT2, 0.5, 16).state.coeffs
        assert c[1] / c[0] == pytest.approx(0.5, abs=1e-14)

    def test_pseudoharmonic_first_ratio(self):
        f = pseudoharmonic_deformation(1.0)
        c = closed_form_bg_coefficients(f, 1.0, 16).state.coeffs
        assert c[1] / c[0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)

    def test_zero_amplitude(self):
        f = pseudoharmonic_deformation(1.0)
        assert np.array_equal(closed_form_bg_coefficients(f, 0.0, 8).state.coeffs,
                              basis(0, 8))

    def test_harmonic_not_covered(self):
        with pytest.raises(DomainError):
            closed_form_bg_coefficients(harmonic_deformation(), 1.0, 8)

    @pytest.mark.parametrize("p", [ModelParams.tpt(2.0), ModelParams.pseudoharmonic(1.5)])
    def test_result_metadata(self, p):
        alpha, cutoff = 1.3 * np.exp(0.4j), 32
        res = closed_form_bg_coefficients(deformation_for(p), alpha, cutoff)
        rec = annihilation_eigenstate(deformation_for(p), alpha, cutoff)
        assert res.method is Method.ANNIHILATION_EIGENSTATE
        assert res.model == p
        assert res.normalization_constant == pytest.approx(rec.normalization_constant, rel=1e-12)
        assert res.tail_mass == abs(res.state.coeffs[-1]) ** 2

    @pytest.mark.parametrize("lam", [0.75, 2.0, 10.0])
    @pytest.mark.parametrize("amag", [0.5, 2.0, 4.0])
    def test_matches_recurrence_tpt(self, lam, amag):
        f = tpt_deformation(ModelParams.tpt(lam))
        alpha = amag * np.exp(0.4j)
        rec = annihilation_eigenstate(f, alpha, 96)
        closed = closed_form_bg_coefficients(f, alpha, 96)
        assert np.max(np.abs(rec.state.coeffs - closed.state.coeffs)) < 1e-12

    @pytest.mark.parametrize("s", [0.75, 2.0, 10.0])
    @pytest.mark.parametrize("amag", [0.5, 2.0, 4.0])
    def test_matches_recurrence_pseudoharmonic(self, s, amag):
        f = pseudoharmonic_deformation(s)
        alpha = amag * np.exp(-1.1j)
        rec = annihilation_eigenstate(f, alpha, 96)
        closed = closed_form_bg_coefficients(f, alpha, 96)
        assert np.max(np.abs(rec.state.coeffs - closed.state.coeffs)) < 1e-12

    # lam >= 3e4 is left out: gammaln cancellation there costs about 3e-11
    # (lam = 3e4) to 1e-9 (lam = 1e6) against the 50-digit reference
    @pytest.mark.parametrize("p", [ModelParams.tpt(0.5001), ModelParams.tpt(2.0), ModelParams.tpt(40.0),
                                   ModelParams.pseudoharmonic(0.6), ModelParams.pseudoharmonic(150.0)])
    def test_matches_mpmath_oracle(self, p):
        # the paper's per-model forms, (2 lam)^n Gamma(2 lam) / (n! Gamma(2 lam + n)) and
        # Gamma(2 s + 1) / (n! Gamma(2 s + n + 1)), evaluated at 50 digits
        with mp.workdps(50):
            if p.model is Model.TPT:
                d, c = 2 * mp.mpf(p.lam), 2 * mp.mpf(p.lam) - 1
            else:
                d, c = mp.mpf(1), 2 * mp.mpf(p.s)
            for amag in (0.1, 1.0, 2.0, 3.5):
                alpha = amag * np.exp(0.7j)
                raw = [mp.mpc(alpha) ** n
                       * mp.sqrt(d**n * mp.gamma(1 + c) / (mp.factorial(n) * mp.gamma(n + 1 + c)))
                       for n in range(64)]
                norm = mp.sqrt(mp.fsum(abs(v) ** 2 for v in raw))
                ref = np.array([complex(v / norm) for v in raw])
                got = closed_form_bg_coefficients(deformation_for(p), alpha, 64).state.coeffs
                assert np.max(np.abs(got - ref)) < 1e-12

    def test_ladder_route_identical(self):
        # eigenfunction-ladder amplitudes and deformed-operator amplitudes
        # define the same coefficient family
        alpha = 1.7 * np.exp(0.9j)
        for p in (ModelParams.tpt(3.3), ModelParams.pseudoharmonic(2.7)):
            by_ladder = eigenstate_by_ladder(p, alpha, 64)
            deformed = annihilation_eigenstate(deformation_for(p), alpha, 64)
            assert np.max(np.abs(by_ladder - deformed.state.coeffs)) < 1e-13


class TestZetaMap:
    def test_value(self):
        assert zeta_from_alpha(0.5, TPT2) == pytest.approx(math.tanh(0.25), abs=1e-14)

    def test_zero(self):
        assert zeta_from_alpha(0.0, TPT2) == 0

    def test_saturates_inside_unit_disk(self):
        for amag in (10.0, 100.0, 1e4):
            z = zeta_from_alpha(amag * np.exp(0.3j), TPT2)
            assert abs(z) < 1.0
        assert abs(zeta_from_alpha(1e8, TPT2)) == pytest.approx(1.0, abs=1e-12)
        for bad in (math.inf, complex(0.0, -math.inf), math.nan):
            with pytest.raises(DomainError):
                zeta_from_alpha(bad, TPT2)

    def test_phase_carried(self):
        z = zeta_from_alpha(0.5j, TPT2)
        assert z == pytest.approx(1j * math.tanh(0.25), abs=1e-14)


class TestDisplacementClosedForm:
    def test_first_coefficients(self):
        res = displacement_state_closed_form(TPT2, 0.5, 32)
        raw = res.state.coeffs * math.sqrt(1.0 - res.tail_mass)
        assert raw[0].real == pytest.approx(0.5625, abs=1e-13)
        assert raw[1].real == pytest.approx(0.5625, abs=1e-13)
        assert res.normalization_constant == pytest.approx(0.5625, abs=1e-13)

    def test_zero_parameter(self):
        res = displacement_state_closed_form(TPT2, 0.0, 8)
        assert np.array_equal(res.state.coeffs, basis(0, 8))

    def test_outside_unit_disk(self):
        for zeta in (1.0, math.nan, complex(0.0, math.inf)):
            with pytest.raises(DomainError, match="outside unit disk"):
                displacement_state_closed_form(TPT2, zeta, 8)
            with pytest.raises(DomainError, match="outside unit disk"):
                deformed_displacement_coefficients(TPT2, zeta, 8)

    @pytest.mark.parametrize("lam", [0.75, 2.0, 10.0, 20.0])
    @pytest.mark.parametrize("zmag", [0.3, 0.6, 0.9])
    def test_exact_normalization_with_independent_tail(self, lam, zmag):
        res = displacement_state_closed_form(tpt_deformation(ModelParams.tpt(lam)), zmag * np.exp(0.7j), 64)
        finite = 1.0 - res.tail_mass
        tail = negative_binomial_tail(2.0 * lam, zmag, 64)
        assert finite + tail == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_pseudoharmonic_family_normalization(self, s):
        res = displacement_state_closed_form(pseudoharmonic_deformation(s), 0.8, 64)
        finite = 1.0 - res.tail_mass
        tail = negative_binomial_tail(2.0 * s + 1.0, 0.8, 64)
        assert finite + tail == pytest.approx(1.0, abs=1e-12)

    def test_matches_deformed_route(self):
        for f in (TPT2, pseudoharmonic_deformation(1.0)):
            zeta = 0.45 * np.exp(1.3j)
            res = displacement_state_closed_form(f, zeta, 48)
            raw_closed = res.state.coeffs * math.sqrt(1.0 - res.tail_mass)
            raw_deformed = deformed_displacement_coefficients(f, zeta, 48)
            assert np.max(np.abs(raw_closed - raw_deformed)) < 1e-13


class TestDisplacementOperatorRoutes:
    def test_direct_harmonic_matches_glauber(self):
        res = displacement_state_direct(harmonic_deformation(), 1.0, 64)
        assert np.max(np.abs(res.state.coeffs - glauber_coefficients(1.0, 64))) < 1e-10

    def test_direct_matches_closed_form(self):
        res = displacement_state_direct(TPT2, 0.5, 64)
        closed = displacement_state_closed_form(TPT2, zeta_from_alpha(0.5, TPT2), 64)
        assert np.max(np.abs(res.state.coeffs - closed.state.coeffs)) < 1e-9

    def test_direct_zero(self):
        res = displacement_state_direct(tpt_deformation(ModelParams.tpt(2.0)), 0.0, 16)
        assert np.allclose(res.state.coeffs, basis(0, 16), atol=1e-15)

    def test_factored_middle_diagonal(self):
        p = ModelParams.tpt(2.0)
        f = tpt_deformation(p)
        # choose alpha so that zeta = 0.5; the lowering factor leaves the
        # vacuum alone, so the raw c_0 is the middle diagonal's first entry
        alpha = 2.0 * math.atanh(0.5)
        res = displacement_state_factored(f, alpha, 64)
        raw = res.state.coeffs * res.normalization_constant
        assert raw[0].real == pytest.approx(0.5625, abs=1e-13)  # (1-0.25)^(2+0)
        # c_1 = zeta sqrt(d) amp[0] c_0 = 0.5 * 2 * 1 * 0.5625
        assert raw[1].real == pytest.approx(0.5625, abs=1e-13)

    def test_factored_zero_is_identity(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        res = displacement_state_factored(f, 0.0, 6)
        assert np.array_equal(res.state.coeffs, basis(0, 6))
        assert res.normalization_constant == 1.0

    def test_factored_zero_norm_image_rejected(self):
        # (1-|zeta|^2)^(k+n) underflows to 0 on every level at s = 400
        with pytest.raises(DomainError, match="norm 0.0"):
            displacement_state_factored(pseudoharmonic_deformation(400.0), 1.4, 128)

    def test_factored_needs_no_dense_exponential(self, monkeypatch):
        def no_dense(*args):
            raise AssertionError("dense exponential in the factored route")

        monkeypatch.setattr(coherent, "matrix_exponential", no_dense)
        for p, alpha in ((ModelParams.tpt(2.0), 0.5 * np.exp(0.9j)),
                         (ModelParams.tpt(10.0), 1.2 - 0.4j),
                         (ModelParams.pseudoharmonic(1.0), 0.4)):
            f = deformation_for(p)
            fact = displacement_state_factored(f, alpha, 64)
            closed = displacement_state_closed_form(f, zeta_from_alpha(alpha, f), 64)
            assert np.max(np.abs(fact.state.coeffs - closed.state.coeffs)) < 1e-12

    @pytest.mark.parametrize("lam", [2.0, 10.0])
    def test_factored_equals_direct(self, lam):
        f = tpt_deformation(ModelParams.tpt(lam))
        alpha = 0.5 * np.exp(0.9j)
        direct = displacement_state_direct(f, alpha, 64)
        fact = displacement_state_factored(f, alpha, 64)
        assert np.max(np.abs(direct.state.coeffs - fact.state.coeffs)) < 1e-9

    def test_pseudoharmonic_factored_vs_direct(self):
        # the closed algebra uses the level weight n + s + 1/2
        f = pseudoharmonic_deformation(1.0)
        direct = displacement_state_direct(f, 0.4, 64)
        fact = displacement_state_factored(f, 0.4, 64)
        assert np.max(np.abs(direct.state.coeffs - fact.state.coeffs)) < 1e-9
        closed = displacement_state_closed_form(f, zeta_from_alpha(0.4, f), 64)
        assert np.max(np.abs(direct.state.coeffs - closed.state.coeffs)) < 1e-9

    def test_no_su11_structure_for_harmonic_factoring(self):
        with pytest.raises(DomainError):
            displacement_state_factored(harmonic_deformation(), 0.5, 8)


def scipy_vacuum_image(f, alpha, cutoff):
    """Renormalized first column of SciPy's exp(alpha A^dag - alpha* A), complex generator."""
    amp = ladder_amplitudes(f, cutoff)
    col = scipy_expm(alpha * np.diag(amp, -1) - np.conj(alpha) * np.diag(amp, 1))[:, 0]
    return col / np.linalg.norm(col)


GAUGE_MODELS = [ModelParams.tpt(2.0), ModelParams.pseudoharmonic(1.0)]
QUADRANT_AMPLITUDES = [1.2 * np.exp(1j * phase) for phase in (0.4, 2.2, -2.6, -0.9)]


class TestDirectRouteGauge:
    """The real skew generator, rephased by e^{i n phi}, reproduces the complex one."""

    @pytest.mark.parametrize("p", GAUGE_MODELS, ids=lambda p: p.model.value)
    @pytest.mark.parametrize("cutoff", [16, 128])
    @pytest.mark.parametrize("alpha", [0.0] + QUADRANT_AMPLITUDES,
                             ids=["zero", "q1", "q2", "q3", "q4"])
    def test_matches_scipy_complex_generator(self, p, cutoff, alpha):
        f = deformation_for(p)
        res = displacement_state_direct(f, alpha, cutoff)
        assert np.max(np.abs(res.state.coeffs - scipy_vacuum_image(f, alpha, cutoff))) <= 1e-13

    @pytest.mark.parametrize("p, alpha", [(GAUGE_MODELS[0], QUADRANT_AMPLITUDES[1]),
                                          (GAUGE_MODELS[1], QUADRANT_AMPLITUDES[3])],
                             ids=["tpt", "pseudoharmonic"])
    def test_matches_scipy_at_cutoff_512(self, p, alpha):
        f = deformation_for(p)
        res = displacement_state_direct(f, alpha, 512)
        assert np.max(np.abs(res.state.coeffs - scipy_vacuum_image(f, alpha, 512))) <= 1e-13

    def test_dense_exponential_is_real(self, monkeypatch):
        seen = []

        def spy(m):
            seen.append(m.entries.dtype)
            return matrix_exponential(m)

        monkeypatch.setattr(coherent, "matrix_exponential", spy)
        displacement_state_direct(TPT2, 0.3 - 0.7j, 32)
        assert seen == [np.float64]


CERTIFIED_MODELS = ([ModelParams.tpt(lam) for lam in (0.6, 2.0, 50.0)]
                    + [ModelParams.pseudoharmonic(s) for s in (0.5, 1.441, 200.0)]
                    + [ModelParams.harmonic()])


def _level_coefficient(f, m, a):
    """|c_m(a)| of the exact displacement family at amplitude a, scalar by scalar."""
    if a == 0:
        return float(m == 0)
    if f.slope == 0:
        return math.exp(-0.5 * a * a + m * math.log(a) - 0.5 * math.lgamma(m + 1))
    r, x = 2.0 * f.bargmann_index, a / math.sqrt(f.su11_scale)
    return math.exp(-r * math.log(math.cosh(x)) + m * math.log(math.tanh(x))
                    + 0.5 * (math.lgamma(m + r) - math.lgamma(m + 1) - math.lgamma(r)))


class TestDirectRouteCertificate:
    """The exact tail and the Duhamel bound that size the direct route."""

    @pytest.mark.parametrize("p", CERTIFIED_MODELS, ids=lambda p: deformation_for(p).label)
    def test_bound_matches_adaptive_quadrature(self, p):
        from scipy.integrate import quad

        f = deformation_for(p)
        for radius in (0.0, 0.7, 2.0, 4.0):
            for m in (16, 128, 1024):
                _, bound = coherent._direct_certificate(f, radius, m)
                integral, _ = quad(lambda t: _level_coefficient(f, m, t * radius), 0.0, 1.0,
                                   epsabs=0.0, epsrel=1e-10, limit=200)
                ref = radius * math.sqrt(m * float(f.fsq(m))) * integral
                if ref < 1.0:
                    # the 32-node rule decides every bound that can pass
                    assert bound == pytest.approx(ref, rel=0.05, abs=1e-300), (radius, m)
                else:
                    assert bound >= 1.0, (radius, m)

    @pytest.mark.parametrize("p", CERTIFIED_MODELS, ids=lambda p: deformation_for(p).label)
    def test_tail_matches_mpmath(self, p):
        f = deformation_for(p)
        with mp.workdps(40):
            for radius in (0.0, 0.7, 2.0, 4.0):
                for m in (16, 128, 1024):
                    tail, _ = coherent._direct_certificate(f, radius, m)
                    if f.slope == 0:
                        ref = mp.gammainc(m, 0, mp.mpf(radius) ** 2, regularized=True)
                    else:
                        z = mp.tanh(mp.mpf(radius) / mp.sqrt(f.su11_scale)) ** 2
                        ref = mp.betainc(m, 2 * mp.mpf(f.bargmann_index), 0, z, regularized=True)
                    assert tail == pytest.approx(float(ref), rel=1e-10, abs=1e-300), (radius, m)

    def test_reported_tail_is_the_certificate_at_the_cutoff(self):
        res = displacement_state_direct(TPT2, 1.9, 64)
        tail, bound = coherent._direct_certificate(TPT2, 1.9, 64)
        assert res.tail_mass == max(tail, bound**2) == bound**2
        # the truncated exponential reflects at its last level, so its last
        # weight is no tail: at s 400 it is 1.4e-26 where the exact tail is 1
        f = pseudoharmonic_deformation(400.0)
        res = displacement_state_direct(f, 1.4, 128)
        assert float(abs(res.state.coeffs[-1]) ** 2) < 1e-24
        assert res.tail_mass >= coherent._direct_certificate(f, 1.4, 128)[0] > 0.99

    @pytest.mark.parametrize("p, alpha, cutoff", [
        (ModelParams.tpt(2.0), 0.75 * QUADRANT_AMPLITUDES[1], 128),
        (ModelParams.pseudoharmonic(1.0), 0.3 - 0.4j, 128),
        (ModelParams.harmonic(), 2.0 + 0.5j, 128),
        (ModelParams.tpt(6.83), 1.5 - 0.4j, 512),
        (ModelParams.pseudoharmonic(2.5), 1.0j, 512),
        (ModelParams.tpt(2.0), QUADRANT_AMPLITUDES[0], 1024),
        (ModelParams.pseudoharmonic(0.7), -1.1 + 0.2j, 1024),
    ], ids=["tpt-128", "ph-128", "harmonic-128", "tpt-512", "ph-512", "tpt-1024", "ph-1024"])
    def test_padded_state_matches_the_full_build(self, p, alpha, cutoff, monkeypatch):
        f = deformation_for(p)
        assert coherent._direct_levels(f, abs(alpha), cutoff) < cutoff
        padded = displacement_state_direct(f, alpha, cutoff)
        # the reference is the dense exponential on every level of the cutoff
        monkeypatch.setattr(coherent, "_direct_levels", lambda f, radius, n: n)
        monkeypatch.setattr(coherent, "_DIRECT_DENSE_LEVELS", cutoff)
        full = displacement_state_direct(f, alpha, cutoff)
        assert np.max(np.abs(padded.state.coeffs - full.state.coeffs)) <= 1e-13
        assert padded.tail_mass == full.tail_mass

    def test_exponentiates_only_the_certified_levels(self, monkeypatch):
        seen = []

        def spy(m):
            seen.append(m.entries.shape)
            return matrix_exponential(m)

        monkeypatch.setattr(coherent, "matrix_exponential", spy)
        res = displacement_state_direct(TPT2, 1.0, 1024)
        assert seen == [(64, 64)]
        assert res.state.cutoff == 1024 and not np.any(res.state.coeffs[64:])
        closed = _closed_form_displacement(TPT2, 1.0, 1024).state.coeffs
        assert np.max(np.abs(res.state.coeffs - closed)) <= 1e-13

    @pytest.mark.parametrize("p, alpha, cutoff", [
        (ModelParams.pseudoharmonic(2.63), 1.102j, 512),
        (ModelParams.pseudoharmonic(1.46), -1.481 + 0.1j, 1024),
        (ModelParams.tpt(6.83), 3.0 - 1.2j, 512),
    ], ids=["ph-256-levels", "ph-512-levels", "tpt-256-levels"])
    def test_eigendecomposition_past_the_dense_levels(self, p, alpha, cutoff, monkeypatch):
        f = deformation_for(p)
        m = coherent._direct_levels(f, abs(alpha), cutoff)
        assert coherent._DIRECT_DENSE_LEVELS < m < cutoff
        seen = []

        def spy(gen):
            seen.append(gen.entries.shape)
            return matrix_exponential(gen)

        monkeypatch.setattr(coherent, "matrix_exponential", spy)
        res = displacement_state_direct(f, alpha, cutoff)
        assert seen == []
        closed = _closed_form_displacement(f, alpha, cutoff).state.coeffs
        assert np.max(np.abs(res.state.coeffs - closed)) <= 1e-13
        monkeypatch.setattr(coherent, "_DIRECT_DENSE_LEVELS", m)
        dense = displacement_state_direct(f, alpha, cutoff)
        assert seen == [(m, m)]
        assert np.max(np.abs(res.state.coeffs - dense.state.coeffs)) <= 1e-13
        assert res.tail_mass == dense.tail_mass

    def test_levels_stay_within_the_cutoff(self):
        assert coherent._direct_levels(TPT2, 0.0, 1024) == 16
        assert coherent._direct_levels(TPT2, 0.5, 8) == 8
        assert coherent._direct_levels(TPT2, 4.0, 100) == 100

    def test_saturated_amplitude_does_not_warn(self):
        # tanh(|alpha|/sqrt(d)) rounds to 1: the tail is 1 and the bound huge
        for f in (TPT2, pseudoharmonic_deformation(1.0), harmonic_deformation()):
            tail, bound = coherent._direct_certificate(f, 60.0, 128)
            assert tail == pytest.approx(1.0) and bound > 1.0


class TestCompareStates:
    def test_equal_states(self):
        c = closed_form_bg_coefficients(TPT2, 0.5, 16).state.coeffs
        assert compare_states(c, c) == (0.0, 0.0)

    def test_orthogonal_basis_states(self):
        diff, infid = compare_states(basis(0, 8), basis(1, 8))
        assert diff == pytest.approx(1.0)
        assert infid == pytest.approx(1.0)

    def test_bg_and_displacement_families_differ(self):
        alpha = 0.5
        bg = closed_form_bg_coefficients(TPT2, alpha, 48).state.coeffs
        disp = displacement_state_closed_form(TPT2, zeta_from_alpha(alpha, TPT2), 48).state.coeffs
        diff, infid = compare_states(bg, disp)
        assert diff > 1e-3
        assert infid > 1e-5

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(phase=st.floats(min_value=-math.pi, max_value=math.pi))
    def test_global_phase_invariance(self, phase):
        u = closed_form_bg_coefficients(TPT2, 0.7, 24).state.coeffs
        v = u * np.exp(1j * phase)
        diff, infid = compare_states(u, v)
        assert diff < 1e-12
        assert infid < 1e-12

    def test_requires_normalized(self):
        for u in (np.ones(4, dtype=complex), np.full(4, np.nan), np.eye(4)):
            with pytest.raises(DomainError):
                compare_states(u, u)
            with pytest.raises(DomainError):
                photon_statistics(u)


class TestPhotonStatistics:
    def test_vacuum(self):
        stats = photon_statistics(basis(0, 8))
        assert stats.mean_n == 0.0
        assert stats.variance_n == 0.0
        assert stats.mandel_q is None

    def test_glauber_is_poissonian(self):
        stats = photon_statistics(glauber_coefficients(1.0, 64))
        assert stats.mean_n == pytest.approx(1.0, abs=1e-10)
        assert stats.variance_n == pytest.approx(1.0, abs=1e-10)
        assert stats.mandel_q == pytest.approx(0.0, abs=1e-10)

    def test_displacement_state_is_super_poissonian(self):
        # weights |c_n|^2 follow a negative-binomial law: Q = 1/3 at lam=2, zeta=0.5
        res = displacement_state_closed_form(TPT2, 0.5, 128)
        stats = photon_statistics(res.state.coeffs)
        assert stats.mandel_q is not None and stats.mandel_q > 0
        assert stats.mean_n == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert stats.variance_n == pytest.approx(16.0 / 9.0, abs=1e-9)
        assert stats.mandel_q == pytest.approx(1.0 / 3.0, abs=1e-9)


class TestHarmonicLimit:
    def test_strictly_decreasing(self):
        devs = harmonic_limit_deviation(1.0, [100.0, 1000.0, 10000.0], 64)
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2

    def test_zero_amplitude(self):
        devs = harmonic_limit_deviation(0.0, [100.0, 1000.0], 32)
        assert devs == [0.0, 0.0]

    def test_single_lambda_against_oracle(self):
        lam = 500.0
        (dev,) = harmonic_limit_deviation(1.0, [lam], 64)
        oracle = np.max(np.abs(
            closed_form_bg_coefficients(tpt_deformation(ModelParams.tpt(lam)), 1.0, 64).state.coeffs
            - glauber_coefficients(1.0, 64)
        ))
        assert dev == pytest.approx(float(oracle), rel=1e-12)


class TestStructuralIdentity:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        lam=st.floats(min_value=0.6, max_value=50.0),
        amag=st.floats(min_value=0.0, max_value=4.0),
        phase=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_eigenstate_families_coincide(self, lam, amag, phase):
        alpha = amag * np.exp(1j * phase)
        f = tpt_deformation(ModelParams.tpt(lam))
        a = annihilation_eigenstate(f, alpha, 64)
        b = eigenstate_by_ladder(f.params, alpha, 64)
        c = closed_form_bg_coefficients(f, alpha, 64)
        assert np.max(np.abs(a.state.coeffs - b)) < 1e-12
        assert np.max(np.abs(a.state.coeffs - c.state.coeffs)) < 1e-12

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        s=st.floats(min_value=0.5, max_value=50.0),
        amag=st.floats(min_value=0.0, max_value=4.0),
        phase=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_pseudoharmonic_eigenstate_families_coincide(self, s, amag, phase):
        alpha = amag * np.exp(1j * phase)
        p = ModelParams.pseudoharmonic(s)
        a = annihilation_eigenstate(deformation_for(p), alpha, 64)
        assert np.max(np.abs(a.state.coeffs - eigenstate_by_ladder(p, alpha, 64))) < 1e-12

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        lam=st.floats(min_value=0.6, max_value=50.0),
        amag=st.floats(min_value=0.0, max_value=4.0),
        phase=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_displacement_families_coincide(self, lam, amag, phase):
        alpha = amag * np.exp(1j * phase)
        f = tpt_deformation(ModelParams.tpt(lam))
        zeta = zeta_from_alpha(alpha, f)
        res = displacement_state_closed_form(f, zeta, 64)
        raw_closed = res.state.coeffs * math.sqrt(max(0.0, 1.0 - res.tail_mass))
        raw_deformed = deformed_displacement_coefficients(f, zeta, 64)
        assert np.max(np.abs(raw_closed - raw_deformed)) < 1e-12


class TestEigenstateAction:
    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_pseudoharmonic_eigenstate_property(self, s):
        f = pseudoharmonic_deformation(s)
        alpha = 1.2 * np.exp(0.5j)
        c = annihilation_eigenstate(f, alpha, 64).state.coeffs
        image = np.diag(ladder_amplitudes(f, 64), 1) @ c
        assert np.max(np.abs(image[:-1] - alpha * c[:-1])) < 1e-10
