import math

import mpmath as mp
import numpy as np
import pytest

from defosc import (
    DomainError,
    FockVector,
    Measure,
    ModelParams,
    QuadratureError,
    SizeMismatchError,
    annihilation_eigenstate,
    coherent_wavefunction,
    ladder_action_fd,
    orthonormality_gram,
    overlap_quadrature,
    pseudoharmonic_ladder_fd,
    pseudoharmonic_radials,
    radial_grid,
    sample_eigenfunction,
    tpt_deformation,
    tpt_eigenfunctions,
    tpt_grid,
    tpt_ground,
)


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
        p = ModelParams.tpt(lam, 1.0)
        grid = tpt_grid(p, 600)
        gf = sample_eigenfunction(0, grid, p)
        val, err = overlap_quadrature(gf, gf)
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
        p = ModelParams.tpt(2.0, 1.0)
        grid = tpt_grid(p, 800)
        gf = sample_eigenfunction(n, grid, p)
        val, _ = overlap_quadrature(gf, gf)
        assert val == pytest.approx(1.0, abs=1e-8)

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
        assert pseudoharmonic_radials(0, 1.0, 1.0)[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-13)

    def test_first_laguerre_factor(self):
        # R_1/R_0 = (N_1/N_0) (2s + 1 - rho)
        s = 0.8
        rho = np.array([0.3, 1.0, 2.5, 4.0])
        fam = pseudoharmonic_radials(1, s, rho)
        ratio = fam[1] / fam[0]
        n1_over_n0 = math.sqrt(1.0 / (2.0 * s + 1.0))
        assert np.allclose(ratio, n1_over_n0 * (2.0 * s + 1.0 - rho), rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            pseudoharmonic_radials(0, 1.0, 0.0)
        with pytest.raises(DomainError):
            pseudoharmonic_radials(0, 1.0, np.array([1.0, -2.0]))
        with pytest.raises(DomainError):
            pseudoharmonic_radials(3, -1.0, np.array([1.0]))

    @pytest.mark.parametrize("n,m", [(0, 0), (0, 1), (2, 2), (1, 4), (6, 6), (3, 6)])
    def test_orthonormality_pairs(self, n, m):
        s = 1.0
        grid = radial_grid(s, n_max=6, order=512)
        fa = sample_eigenfunction(n, grid, ModelParams.pseudoharmonic(s))
        fb = sample_eigenfunction(m, grid, ModelParams.pseudoharmonic(s))
        val, err = overlap_quadrature(fa, fb)
        assert val == pytest.approx(1.0 if n == m else 0.0, abs=1e-8)


class TestLadderFiniteDifference:
    @pytest.fixture
    def tpt_nodes(self):
        return np.linspace(-0.9, 0.9, 241)

    def test_raising_from_ground(self, tpt_nodes):
        p = ModelParams.tpt(2.0, 1.0)
        fit = ladder_action_fd(0, p, tpt_nodes)
        assert fit.coeff_plus == pytest.approx(2.0, rel=1e-6)
        assert fit.coeff_minus == 0.0
        assert fit.residual_minus < 1e-9  # ground state is annihilated

    def test_first_level_both_branches(self, tpt_nodes):
        p = ModelParams.tpt(2.0, 1.0)
        fit = ladder_action_fd(1, p, tpt_nodes)
        assert fit.coeff_minus == pytest.approx(2.0, rel=1e-6)
        assert fit.coeff_plus == pytest.approx(math.sqrt(10.0), rel=1e-6)

    @pytest.mark.parametrize("lam", [1.0, 2.0, 10.0])
    @pytest.mark.parametrize("n", [0, 1, 4, 10])
    def test_tpt_sweep(self, lam, n, tpt_nodes):
        p = ModelParams.tpt(lam, 1.0)
        fit = ladder_action_fd(n, p, tpt_nodes)
        m_plus = math.sqrt((n + 1) * (2 * lam + n))
        assert fit.coeff_plus == pytest.approx(m_plus, rel=1e-6)
        if n >= 1:
            m_minus = math.sqrt(n * (2 * lam + n - 1))
            assert fit.coeff_minus == pytest.approx(m_minus, rel=1e-6)

    def test_pseudoharmonic_examples(self):
        nodes = np.linspace(0.2, 25.0, 241)
        fit = pseudoharmonic_ladder_fd(2, 1.0, nodes)
        assert fit.coeff_minus == pytest.approx(math.sqrt(8.0), rel=1e-6)
        fit0 = pseudoharmonic_ladder_fd(0, 1.0, nodes)
        assert fit0.coeff_plus == pytest.approx(math.sqrt(3.0), rel=1e-6)
        assert fit0.coeff_minus == 0.0
        assert fit0.residual_minus < 1e-8

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("n", [0, 1, 5, 10])
    def test_pseudoharmonic_sweep(self, s, n):
        nodes = np.linspace(0.2, 35.0, 301)
        fit = pseudoharmonic_ladder_fd(n, s, nodes)
        assert fit.coeff_plus == pytest.approx(math.sqrt((n + 1) * (n + 2 * s + 1)), rel=1e-6)
        if n >= 1:
            assert fit.coeff_minus == pytest.approx(math.sqrt(n * (n + 2 * s)), rel=1e-6)

    def test_nodes_too_close_to_edge(self):
        p = ModelParams.tpt(2.0, 1.0)
        with pytest.raises(DomainError):
            ladder_action_fd(1, p, np.array([0.9999999]))

    def test_degenerate_target_rejected(self):
        # single node placed at a zero of the target function
        p = ModelParams.tpt(2.0, 1.0)
        with pytest.raises(QuadratureError):
            ladder_action_fd(0, p, np.array([0.0]))  # psi_1(0) = 0


class TestOverlapQuadrature:
    def test_mismatched_grids(self):
        p = ModelParams.tpt(2.0, 1.0)
        g1, g2 = tpt_grid(p, 64), tpt_grid(p, 128)
        fa = sample_eigenfunction(0, g1, p)
        fb = sample_eigenfunction(0, g2, p)
        with pytest.raises(SizeMismatchError):
            overlap_quadrature(fa, fb)

    def test_mismatched_measures(self):
        p = ModelParams.tpt(2.0, 1.0)
        s = 1.0
        fa = sample_eigenfunction(0, tpt_grid(p, 64), p)
        fb = sample_eigenfunction(0, radial_grid(s, 4, 64), ModelParams.pseudoharmonic(s))
        with pytest.raises(SizeMismatchError):
            overlap_quadrature(fa, fb)

    def test_parity_orthogonality(self):
        p = ModelParams.tpt(2.0, 1.0)
        grid = tpt_grid(p, 400)
        f0 = sample_eigenfunction(0, grid, p)
        f1 = sample_eigenfunction(1, grid, p)
        val, _ = overlap_quadrature(f0, f1)
        assert abs(val) < 1e-12

    def test_radial_error_estimate_includes_tail(self):
        grid = radial_grid(1.0, n_max=4, order=128, tail_tol=1e-12)
        assert 0.0 < grid.tail_bound <= 1e-12
        p = ModelParams.pseudoharmonic(1.0)
        fa = sample_eigenfunction(0, grid, p)
        _, err = overlap_quadrature(fa, fa)
        assert err >= grid.tail_bound


class TestGramMatrices:
    @pytest.mark.parametrize("lam", [0.75, 2.0, 10.0])
    def test_tpt(self, lam):
        gram, _, _ = orthonormality_gram(ModelParams.tpt(lam, 1.0), n_max=10)
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_pseudoharmonic(self, s):
        gram, _, _ = orthonormality_gram(ModelParams.pseudoharmonic(s), n_max=10)
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8


class TestCoherentWavefunction:
    def test_basis_states_reproduce_eigenfunctions(self):
        p = ModelParams.tpt(2.0, 1.0)
        grid = tpt_grid(p, 200)
        for n in (0, 1):
            gf = coherent_wavefunction(FockVector.basis_state(n, 8), grid, p)
            direct = sample_eigenfunction(n, grid, p)
            assert np.allclose(np.asarray(gf.values, dtype=float), direct.values, atol=1e-12)

    def test_tpt_state_norm(self):
        p = ModelParams.tpt(2.0, 1.0)
        f = tpt_deformation(p)
        state = annihilation_eigenstate(f, 0.5, 48).state
        grid = tpt_grid(p, 600)
        gf = coherent_wavefunction(state, grid, p)
        val, _ = overlap_quadrature(gf, gf)
        assert abs(val) == pytest.approx(1.0, abs=1e-6)

    def test_requires_normalized_input(self):
        p = ModelParams.tpt(2.0, 1.0)
        with pytest.raises(DomainError):
            coherent_wavefunction(FockVector(np.ones(4, dtype=complex)), tpt_grid(p, 64), p)

    def test_measure_tags(self):
        p = ModelParams.tpt(2.0, 1.0)
        assert tpt_grid(p, 64).measure is Measure.TPT_DX
        assert radial_grid(1.0, 4, 64).measure is Measure.RADIAL_RHO
