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
