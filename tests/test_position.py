import json
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from defosc import (
    DomainError,
    Model,
    ModelParams,
    QuadratureError,
    annihilation_eigenstate,
    coherent_wavefunction,
    deformation_for,
    gauss_levels,
    ladder_amplitudes,
    ladder_matrix,
    orthonormality_gram,
    pseudoharmonic_radials,
    sample_points,
    tpt_deformation,
    tpt_eigenfunctions,
    tpt_ground,
)
from defosc import position
from defosc.cli import main
from defosc.position import _legendre_nodes


class TestTptGround:
    def test_amplitude_at_origin(self):
        # frozen from sqrt(Gamma(3)/(sqrt(pi) Gamma(5/2))), cross-checked by
        # quadrature normalization below
        p = ModelParams.tpt(2.0, 1.0)
        assert tpt_ground(0.0, p) == pytest.approx(0.9213177319235611, abs=1e-12)

    def test_vanishes_toward_edges(self):
        p = ModelParams.tpt(2.0, 1.0)
        assert tpt_ground(0.999999, p) < 1e-5
        assert tpt_ground(-0.999999, p) < 1e-5

    def test_domain(self):
        p = ModelParams.tpt(2.0, 1.0)
        with pytest.raises(DomainError):
            tpt_ground(1.0, p)
        with pytest.raises(DomainError):
            tpt_ground(-1.5, p)

    @pytest.mark.parametrize("lam", [0.75, 2.0, 10.0])
    def test_unit_norm_by_quadrature(self, lam):
        # adaptive quadrature in x, independent of the Gauss rules, whose
        # weights take the normalization as given
        p = ModelParams.tpt(lam, 1.0)
        val, _ = quad(lambda x: tpt_ground(math.sin(x), p) ** 2, -math.pi / 2, math.pi / 2,
                      epsabs=1e-13, epsrel=1e-13)
        assert val == pytest.approx(1.0, abs=1e-10)


class TestTptEigenfunctions:
    def test_first_excited_proportional_to_u(self):
        p = ModelParams.tpt(2.0, 1.0)
        u = np.linspace(-0.9, 0.9, 11)
        u = u[u != 0]
        psi = tpt_eigenfunctions(1, u, p)
        assert np.allclose(psi[1] / (u * psi[0]), math.sqrt(6.0), rtol=1e-13)

    def test_parity_exact(self):
        p = ModelParams.tpt(1.4, 1.0)
        u = np.linspace(0.05, 0.95, 10)
        plus = tpt_eigenfunctions(8, u, p)
        minus = tpt_eigenfunctions(8, -u[::-1], p)[:, ::-1]
        for n in range(9):
            assert np.array_equal(minus[n], (-1.0) ** n * plus[n])

    @pytest.mark.parametrize("n", range(0, 11, 2))
    def test_unit_norm_by_quadrature(self, n):
        q = gauss_levels(ModelParams.tpt(2.0, 1.0), n, n + 1)
        assert q[n] @ q[n] == pytest.approx(1.0, abs=1e-8)

    def test_scalar_interface(self):
        p = ModelParams.tpt(2.0, 1.0)
        assert tpt_eigenfunctions(0, 0.3, p)[0, 0] == pytest.approx(tpt_ground(0.3, p), rel=1e-14)

    @pytest.mark.parametrize("lam", [0.75, 2.0, 10.0])
    def test_recurrence_matches_extended_precision(self, lam):
        # replay the same recurrence at 50 digits and compare, scaled by
        # the largest amplitude of each level
        mp.mp.dps = 50
        us = [-0.9, -0.53, -0.11, 0.27, 0.66, 0.88]
        p = ModelParams.tpt(lam, 1.0)
        mine = tpt_eigenfunctions(30, np.array(us), p)
        lam_mp = mp.mpf(lam)
        n0 = mp.sqrt(mp.gamma(lam_mp + 1) / (mp.sqrt(mp.pi) * mp.gamma(lam_mp + mp.mpf(1) / 2)))
        ref = np.zeros_like(mine)
        for j, u in enumerate(us):
            u = mp.mpf(u)
            psi = [n0 * (1 - u * u) ** (lam_mp / 2)]
            for n in range(30):
                up = mp.sqrt((lam_mp + n) * (n + 1) / ((lam_mp + n + 1) * (2 * lam_mp + n)))
                lead = 2 * (lam_mp + n) * u * psi[n]
                if n >= 1:
                    down = mp.sqrt((lam_mp + n) * (2 * lam_mp + n - 1) / ((lam_mp + n - 1) * n))
                    lead -= n * down * psi[n - 1]
                psi.append(lead / ((2 * lam_mp + n) * up))
            ref[:, j] = [float(x) for x in psi]
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(mine - ref) / scale) < 1e-9


class TestPseudoharmonicRadial:
    def test_ground_value(self):
        p = ModelParams.pseudoharmonic(1.0)
        assert pseudoharmonic_radials(0, 1.0, p)[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-13)

    def test_first_laguerre_factor(self):
        # R_1/R_0 = (N_1/N_0) (2s + 1 - rho)
        s = 0.8
        rho = np.array([0.3, 1.0, 2.5, 4.0])
        fam = pseudoharmonic_radials(1, rho, ModelParams.pseudoharmonic(s))
        ratio = fam[1] / fam[0]
        n1_over_n0 = math.sqrt(1.0 / (2.0 * s + 1.0))
        assert np.allclose(ratio, n1_over_n0 * (2.0 * s + 1.0 - rho), rtol=1e-12)

    def test_domain(self):
        p = ModelParams.pseudoharmonic(1.0)
        with pytest.raises(DomainError):
            pseudoharmonic_radials(0, 0.0, p)
        with pytest.raises(DomainError):
            pseudoharmonic_radials(0, np.array([1.0, -2.0]), p)
        with pytest.raises(DomainError):
            pseudoharmonic_radials(3, np.array([1.0]), ModelParams.pseudoharmonic(-1.0))
        with pytest.raises(DomainError):
            pseudoharmonic_radials(3, np.array([1.0]), ModelParams.tpt(2.0, 1.0))

    @pytest.mark.parametrize("s", [0.6, 1.0, 3.0, 20.0, 150.0, 200.0])
    def test_matches_mpmath_oracle(self, s):
        # the explicit Laguerre sum, independent of the recurrence; its
        # alternating terms cancel by up to ~130 digits at rho = 900, n = 40,
        # so it is summed at 250 digits.  Errors are scaled by the largest
        # amplitude of each level, as for the TPT family.
        rhos = [0.05, 1.0, 7.5, 40.0, 150.0, 400.0, 900.0]
        levels = [0, 1, 2, 7, 19, 40]
        mine = pseudoharmonic_radials(levels[-1], np.array(rhos), ModelParams.pseudoharmonic(s))[levels]
        ref = np.zeros_like(mine)
        with mp.workdps(250):
            a = 2 * mp.mpf(s)
            for i, n in enumerate(levels):
                norm = mp.sqrt(2 * mp.factorial(n) / mp.gamma(n + a + 1))
                for j, rho in enumerate(rhos):
                    rho = mp.mpf(rho)
                    lag = mp.fsum((-1) ** k * mp.binomial(n + a, n - k) * rho**k / mp.factorial(k)
                                  for k in range(n + 1))
                    ref[i, j] = float(norm * rho ** mp.mpf(s) * mp.exp(-rho / 2) * lag)
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(mine - ref) / scale) < 1e-12

    @pytest.mark.parametrize("n,m", [(0, 0), (0, 1), (2, 2), (1, 4), (6, 6), (3, 6)])
    def test_orthonormality_pairs(self, n, m):
        q = gauss_levels(ModelParams.pseudoharmonic(1.0), 6, 7)
        assert q[n] @ q[m] == pytest.approx(1.0 if n == m else 0.0, abs=1e-8)


def _fd_images(p, n, x, h=1e-5):
    """Levels 0..n+1 at the points x, with M- psi_n and M+ psi_n (L- R_n and
    L+ R_n) there by central differences; the lowering image of n = 0 omits
    TPT's scalar prefactor."""
    family = tpt_eigenfunctions if p.model is Model.TPT else pseudoharmonic_radials
    m = x.size
    fam = family(n + 1, np.concatenate([x - h, x, x + h]), p)
    levels = fam[:, m : 2 * m]
    psi, dpsi = levels[n], (fam[n, 2 * m :] - fam[n, :m]) / (2.0 * h)
    if p.model is Model.TPT:
        eps = p.lam + n
        lowering = (1.0 - x * x) * dpsi + eps * x * psi
        if n >= 1:
            lowering = lowering * math.sqrt((eps - 1.0) / eps)
        raising = (-(1.0 - x * x) * dpsi + eps * x * psi) * math.sqrt((eps + 1.0) / eps)
    else:
        lowering = -x * dpsi + (p.s + n - x / 2.0) * psi
        raising = x * dpsi + (p.s + n + 1.0 - x / 2.0) * psi
    return levels, lowering, raising


class TestLadderFiniteDifference:
    """Columns of ``ladder_matrix`` against the differential operators applied
    to the eigenfunctions by central differences at sample points."""

    TPT_NODES = np.linspace(-0.9, 0.9, 241)
    RHO_NODES = np.linspace(0.2, 35.0, 301)

    def matrices(self, p, n, nodes):
        # column n, summed over the levels, must be the operator image of psi_n
        lowering, raising = ladder_matrix(p, n + 1)
        levels, *images = _fd_images(p, n, nodes)
        for matrix, image in zip((lowering, raising), images):
            scale = max(1.0, np.max(np.abs(image)))
            assert np.max(np.abs(matrix[:, n] @ levels - image)) <= 1e-7 * scale
        return lowering, raising

    def test_raising_from_ground(self):
        lowering, raising = self.matrices(ModelParams.tpt(2.0, 1.0), 0, self.TPT_NODES)
        assert raising[1, 0] == pytest.approx(2.0, rel=1e-12)
        assert np.all(lowering[:, 0] == 0.0)  # ground state is annihilated

    def test_first_level_both_branches(self):
        lowering, raising = self.matrices(ModelParams.tpt(2.0, 1.0), 1, self.TPT_NODES)
        assert lowering[0, 1] == pytest.approx(2.0, rel=1e-12)
        assert raising[2, 1] == pytest.approx(math.sqrt(10.0), rel=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 2.0, 10.0])
    @pytest.mark.parametrize("n", [0, 1, 4, 10])
    def test_tpt_sweep(self, lam, n):
        lowering, raising = self.matrices(ModelParams.tpt(lam, 1.0), n, self.TPT_NODES)
        assert raising[n + 1, n] == pytest.approx(math.sqrt((n + 1) * (2 * lam + n)), rel=1e-12)
        if n >= 1:
            assert lowering[n - 1, n] == pytest.approx(math.sqrt(n * (2 * lam + n - 1)), rel=1e-12)

    def test_pseudoharmonic_examples(self):
        p = ModelParams.pseudoharmonic(1.0)
        lowering, _ = self.matrices(p, 2, self.RHO_NODES)
        assert lowering[1, 2] == pytest.approx(math.sqrt(8.0), rel=1e-12)
        lowering, raising = self.matrices(p, 0, self.RHO_NODES)
        assert raising[1, 0] == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert np.all(lowering[:, 0] == 0.0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("n", [0, 1, 5, 10])
    def test_pseudoharmonic_sweep(self, s, n):
        lowering, raising = self.matrices(ModelParams.pseudoharmonic(s), n, self.RHO_NODES)
        assert raising[n + 1, n] == pytest.approx(math.sqrt((n + 1) * (n + 2 * s + 1)), rel=1e-12)
        if n >= 1:
            assert lowering[n - 1, n] == pytest.approx(math.sqrt(n * (n + 2 * s)), rel=1e-12)


_LADDER_PARAMS = [ModelParams.tpt(lam, 1.0) for lam in (0.75, 1.0, 2.0, 10.0, 100.0)] + [
    ModelParams.pseudoharmonic(s) for s in (0.5, 1.0, 3.0, 20.0, 50.0)]


class TestLadderMatrix:
    @pytest.mark.parametrize("p", _LADDER_PARAMS, ids=lambda p: f"{p.model.value}-{p.lam or p.s}")
    def test_equals_deformed_generators(self, p):
        # every entry, off-band ones included, relative to the entry and floored at 1
        f = deformation_for(p)
        amp = math.sqrt(f.su11_scale) * ladder_amplitudes(f, 61)
        lowering, raising = ladder_matrix(p, 60)
        for got, want in ((lowering, np.diag(amp, 1)), (raising, np.diag(amp, -1))):
            assert got.shape == (61, 61)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-10
        assert np.all(lowering[:, 0] == 0.0)

    def test_single_level(self):
        lowering, raising = ladder_matrix(ModelParams.tpt(2.0, 1.0), 0)
        assert lowering.shape == raising.shape == (1, 1)
        assert lowering[0, 0] == 0.0 and abs(raising[0, 0]) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            ladder_matrix(ModelParams.harmonic(), 4)
        with pytest.raises(DomainError):
            ladder_matrix(ModelParams.tpt(2.0, 1.0), -1)


class TestOverlapQuadrature:
    def test_parity_orthogonality(self):
        q = gauss_levels(ModelParams.tpt(2.0, 1.0), 1, 400)
        assert abs(q[0] @ q[1]) < 1e-12

    def test_radial_error_estimate_is_roundoff(self, tmp_path):
        # the rule is exact, so nothing but roundoff is left to estimate
        q = gauss_levels(ModelParams.pseudoharmonic(1.0), 4, 5)
        assert q[4] @ q[4] == pytest.approx(1.0, abs=1e-13)
        assert main(["wavefunction", "--param", 'model="pseudoharmonic"', "--param", "cutoff=48",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 < report["quadrature_error_estimate"] < 1e-13
        assert report["quadrature_norm"] == pytest.approx(1.0, abs=1e-13)


class TestGramMatrices:
    @pytest.mark.parametrize("lam", [0.75, 2.0, 10.0])
    def test_tpt(self, lam):
        gram, _, _ = orthonormality_gram(ModelParams.tpt(lam, 1.0), n_max=10)
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_pseudoharmonic(self, s):
        gram, _, _ = orthonormality_gram(ModelParams.pseudoharmonic(s), n_max=10)
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8

    # Inputs that Gauss-Legendre with order doubling could not integrate:
    # QuadratureError at the benchmark's max_order for the first two, and
    # MemoryError after about eight minutes for the third.
    def test_tpt_near_lower_bound(self):
        gram, _, _ = orthonormality_gram(ModelParams.tpt(0.6, 1.0), n_max=40, max_order=1024)
        assert np.max(np.abs(gram - np.eye(41))) < 1e-8

    def test_pseudoharmonic_non_integer_2s(self):
        p = ModelParams.pseudoharmonic(0.618)
        gram, _, _ = orthonormality_gram(p, n_max=10, max_order=1024)
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8

    def test_pseudoharmonic_n_max_100(self):
        budget = 5.0
        start = time.perf_counter()
        gram, _, _ = orthonormality_gram(ModelParams.pseudoharmonic(0.5), n_max=100)
        assert time.perf_counter() - start <= budget
        assert np.max(np.abs(gram - np.eye(101))) < 1e-8

    def test_call_shape(self):
        # one rule at n_max+1 nodes, compared with the rule at n_max+2
        gram, diff, order = orthonormality_gram(ModelParams.tpt(2.0, 1.0), n_max=10, max_order=12)
        assert order == 11 and 0.0 <= diff <= 1e-12
        with pytest.raises(QuadratureError):
            orthonormality_gram(ModelParams.tpt(2.0, 1.0), n_max=10, max_order=11)

    @pytest.mark.parametrize("kwargs", [{"n_max": -1}, {"tol": math.nan}, {"tol": math.inf},
                                        {"tol": 0.0}, {"tol": -1e-12}])
    def test_argument_errors(self, kwargs):
        # bad arguments are domain errors (exit 5), not quadrature failures (exit 4)
        with pytest.raises(DomainError):
            orthonormality_gram(ModelParams.tpt(2.0, 1.0), **kwargs)


class TestGaussRule:
    @pytest.mark.parametrize("s", [85.5, 150.0, 200.0, 1000.0])
    def test_large_s_weights_in_log_space(self, s):
        # SciPy's Laguerre weights carry Gamma(2s+1), infinite past 2s ~ 171
        gram, _, _ = orthonormality_gram(ModelParams.pseudoharmonic(s), n_max=100)
        assert np.max(np.abs(gram - np.eye(101))) <= 5e-13

    @pytest.mark.parametrize("s", [0.5, 3.0, 20.0])
    def test_sqrt_weight_seed_reaches_past_200_nodes(self, s):
        # the largest weights underflow to 0 at about 200 nodes, but their
        # square roots, which seed the recurrences, only past about 360
        gram, diff, _ = orthonormality_gram(ModelParams.pseudoharmonic(s), n_max=200)
        assert np.max(np.abs(gram - np.eye(201))) <= 1e-12
        assert diff <= 1e-12

    def test_underflowed_weight_rejected(self):
        # past about 360 levels L_{order+1} overflows at the outer nodes and
        # sqrt(w) underflows; such a rule is rejected, not integrated
        p = ModelParams.pseudoharmonic(3.0)
        with pytest.raises(QuadratureError):
            gauss_levels(p, 400, 401)
        with pytest.raises(QuadratureError):
            orthonormality_gram(p, n_max=400)

    def test_invalid_gegenbauer_rule_rejected(self):
        # SciPy's nodes turn NaN here, with a RuntimeWarning that must not escape
        with pytest.raises(QuadratureError):
            gauss_levels(ModelParams.tpt(1e4, 1.0), 200, 201)


class TestCoherentWavefunction:
    def test_basis_states_reproduce_eigenfunctions(self):
        p = ModelParams.tpt(2.0, 1.0)
        u = sample_points(p, 200, 8)
        for n in (0, 1):
            values = coherent_wavefunction(np.eye(8)[n], u, p)
            assert np.allclose(np.asarray(values, dtype=float), tpt_eigenfunctions(n, u, p)[n],
                               atol=1e-12)

    def test_tpt_state_norm(self):
        p = ModelParams.tpt(2.0, 1.0)
        f = tpt_deformation(p)
        state = annihilation_eigenstate(f, 0.5, 48).state
        on_rule = state.coeffs @ gauss_levels(p, state.cutoff - 1, state.cutoff)
        assert np.vdot(on_rule, on_rule).real == pytest.approx(1.0, abs=1e-6)

    def test_complex_state_is_the_complex_sum(self):
        p = ModelParams.pseudoharmonic(1.5)
        c = annihilation_eigenstate(deformation_for(p), 1.0 + 0.7j, 32).state.coeffs
        rho = sample_points(p, 128, 31)
        psi = pseudoharmonic_radials(31, rho, p)
        values = coherent_wavefunction(c, rho, p)
        assert np.iscomplexobj(values)
        assert np.max(np.abs(values - np.einsum("n,ni->i", c, psi))) <= 1e-14

    def test_requires_normalized_input(self):
        p = ModelParams.tpt(2.0, 1.0)
        with pytest.raises(DomainError):
            coherent_wavefunction(np.ones(4, dtype=complex), sample_points(p, 64, 3), p)

    @staticmethod
    def _all_levels(c, x, p):
        # the synthesis on every level of c, trailing zero coefficients included
        psi = position._family(p)(c.size - 1, x, p)
        values = c.real @ psi + 1j * (c.imag @ psi)
        return values if np.any(values.imag) else values.real

    @pytest.mark.parametrize("p", [ModelParams.tpt(2.0, 1.0), ModelParams.pseudoharmonic(1.5)],
                             ids=["tpt", "pseudoharmonic"])
    def test_trailing_zeros_change_no_byte(self, p):
        states = [np.eye(8)[n] for n in range(8)]
        # the weights of a cutoff-1024 state underflow to exact zeros long before level 1024
        big = annihilation_eigenstate(deformation_for(p), 1.2 + 0.3j, 1024).state.coeffs
        assert int(np.flatnonzero(big)[-1]) < 512
        for c in [*states, big]:
            c = np.asarray(c, dtype=complex)
            for order in (255, 1024):
                x = sample_points(p, order, 0)
                got = coherent_wavefunction(c, x, p)
                want = self._all_levels(c, x, p)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_family_evaluated_up_to_last_nonzero_level(self, monkeypatch):
        p = ModelParams.tpt(2.0, 1.0)
        levels = []
        family = position.tpt_eigenfunctions

        def spy(n_max, u, params):
            levels.append(n_max + 1)
            return family(n_max, u, params)

        monkeypatch.setattr(position, "tpt_eigenfunctions", spy)
        c = np.zeros(64, dtype=complex)
        c[[0, 5]] = (0.6, 0.8j)
        coherent_wavefunction(c, sample_points(p, 32, 5), p)
        assert levels == [6]


class TestSamplePoints:
    def test_tpt_points_fill_the_open_well(self):
        u = sample_points(ModelParams.tpt(2.0, 1.0), 1024, 10)
        assert np.all(np.diff(u) > 0) and np.all(np.abs(u) < 1.0)

    @pytest.mark.parametrize("s,n_max,rho_max", [(1.0, 4, 60.0), (1.0, 0, 40.0), (10.0, 3, 124.0)])
    def test_radial_points_cover_twice_the_turning_point(self, s, n_max, rho_max):
        rho = sample_points(ModelParams.pseudoharmonic(s), 64, n_max)
        assert np.array_equal(rho, (_legendre_nodes(64) + 1.0) * (rho_max / 2.0))

    def test_legendre_nodes_match_leggauss(self):
        # Newton's nodes agree with NumPy's eigensolver nodes to 1 ulp of 1
        for order in [*range(2, 401), 1024, 2048]:
            t = _legendre_nodes(order)
            assert t.shape == (order,)
            reference, _ = np.polynomial.legendre.leggauss(order)
            assert np.max(np.abs(t - reference)) <= 2.2e-16, order
            assert np.all(np.diff(t) > 0) and np.array_equal(t, -t[::-1]), order
        assert _legendre_nodes(3)[1] == 0.0

    def test_legendre_nodes_cached_read_only(self):
        t = _legendre_nodes(96)
        assert _legendre_nodes(96) is t
        with pytest.raises(ValueError):
            t[0] = 0.0

    @pytest.mark.parametrize("p", [ModelParams.tpt(2.0, 1.0), ModelParams.pseudoharmonic(1.0)],
                             ids=["tpt", "pseudoharmonic"])
    def test_sample_points_do_not_alias_the_cache(self, p):
        x = sample_points(p, 96, 4)
        assert x.flags.writeable and not np.shares_memory(x, _legendre_nodes(96))

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_points(ModelParams.tpt(2.0, 1.0), 1, 4)
        with pytest.raises(DomainError):
            sample_points(ModelParams.harmonic(), 64, 4)


_TPT = ModelParams.tpt(2.0, 1.0)
_PH = ModelParams.pseudoharmonic(1.0)


@pytest.mark.parametrize("call", [
    lambda: tpt_eigenfunctions(3, [0.1, math.nan], _TPT),
    lambda: tpt_ground(math.nan, _TPT),
    lambda: tpt_ground(math.inf, _TPT),
    lambda: pseudoharmonic_radials(3, [1.0, math.nan], _PH),
    lambda: pseudoharmonic_radials(3, [1.0, math.inf], _PH),
    lambda: ladder_matrix(ModelParams.pseudoharmonic(math.nan), 3),
], ids=["tpt-levels-nan-u", "tpt-ground-nan", "tpt-ground-inf", "radials-nan-rho",
        "radials-inf-rho", "fd-radial-nan-s"])
def test_non_finite_inputs_rejected(call):
    with pytest.raises(DomainError):
        call()
