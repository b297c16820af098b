import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defosc import (
    DomainError,
    ModelParams,
    annihilation_eigenstate,
    deformation_for,
    harmonic_deformation,
    pseudoharmonic_deformation,
    pseudoharmonic_energy,
    solve_lambda,
    tpt_deformation,
    tpt_energy,
)


def bisect_root(fn, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(lo) * fn(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSolveLambda:
    def test_unit_case(self):
        assert solve_lambda(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_depth_three(self):
        assert solve_lambda(3.0, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_against_bisection_oracle(self):
        # frozen from the independent bisection solve of lam*(lam+1) = 2*0.5/0.49
        rhs = 2.0 * 0.5 / 0.49
        oracle = bisect_root(lambda x: x * (x + 1.0) - rhs, 0.0, 10.0)
        assert oracle == pytest.approx(1.0135442928869351, abs=1e-12)
        assert solve_lambda(0.5, 0.7) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("u0,a", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive_inputs(self, u0, a):
        with pytest.raises(DomainError):
            solve_lambda(u0, a)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        u0=st.floats(min_value=1e-3, max_value=1e3),
        a=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_roundtrip_recovers_strength(self, u0, a):
        lam = solve_lambda(u0, a)
        assert lam * (lam + 1.0) * a * a / 2.0 == pytest.approx(u0, rel=1e-12)


class TestEnergies:
    @pytest.mark.parametrize("n,expected", [(0, 1.0), (1, 3.5), (2, 7.0)])
    def test_tpt_levels(self, n, expected):
        p = ModelParams.tpt(2.0, 1.0)
        assert tpt_energy(n, p) == pytest.approx(expected, abs=1e-14)

    def test_tpt_equivalent_form(self):
        # (a^2/2)(n^2 + 2 n lam + lam) == omega (n + 1/2 + n^2/(2 lam))
        p = ModelParams.tpt(3.7, 0.9)
        n = np.arange(50)
        alt = p.omega * (n + 0.5 + n**2 / (2.0 * p.lam))
        assert np.allclose(tpt_energy(n, p), alt, rtol=1e-14)

    @pytest.mark.parametrize("n,s,expected", [(0, 1.0, 3.0), (1, 1.0, 5.0), (0, 0.5, 2.0)])
    def test_pseudoharmonic_levels(self, n, s, expected):
        assert pseudoharmonic_energy(n, s) == pytest.approx(expected, abs=1e-14)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            tpt_energy(-1, ModelParams.tpt(2.0))
        with pytest.raises(DomainError):
            pseudoharmonic_energy(-1, 1.0)

    def test_harmonic_limit_is_monotone(self):
        # fixed level, a^2 = omega/lam: deviation from omega*(n+1/2) is
        # omega*n^2/(2 lam), strictly decreasing in lam
        omega, n = 1.0, 5
        devs = []
        for lam in (1e2, 1e3, 1e4):
            p = ModelParams.tpt(lam, np.sqrt(omega / lam))
            devs.append(abs(tpt_energy(n, p) - omega * (n + 0.5)))
            assert devs[-1] == pytest.approx(omega * n * n / (2 * lam), rel=1e-10)
        assert devs[0] > devs[1] > devs[2]


class TestDeformations:
    def test_tpt_values(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        assert f.fsq(0) == pytest.approx(0.75, abs=1e-15)
        assert f.fsq(1) == pytest.approx(1.0, abs=1e-15)

    def test_tpt_tends_to_one(self):
        vals = [float(tpt_deformation(ModelParams.tpt(lam)).fsq(7)) for lam in (1e2, 1e4, 1e6)]
        assert np.allclose(vals[-1], 1.0, atol=1e-5)
        assert abs(vals[0] - 1.0) > abs(vals[1] - 1.0) > abs(vals[2] - 1.0)

    @pytest.mark.parametrize("s,n,expected", [(1.0, 0, 2.0), (1.0, 2, 4.0), (0.5, 0, 1.0)])
    def test_pseudoharmonic_values(self, s, n, expected):
        assert pseudoharmonic_deformation(s).fsq(n) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 7, 100])
    def test_harmonic_is_flat(self, n):
        assert harmonic_deformation().fsq(n) == 1.0

    def test_admissibility_bounds(self):
        with pytest.raises(DomainError):
            ModelParams.tpt(0.5)
        with pytest.raises(DomainError):
            pseudoharmonic_deformation(0.0)
        with pytest.raises(DomainError):
            ModelParams.pseudoharmonic(-1.0)
        for bad in (math.nan, math.inf, -math.inf):
            for build in (
                lambda x: ModelParams.tpt(x),
                lambda x: ModelParams.tpt(2.0, a=x),
                lambda x: ModelParams.pseudoharmonic(x),
                lambda x: ModelParams.harmonic(x),
                pseudoharmonic_deformation,
                lambda x: pseudoharmonic_energy(0, x),
            ):
                with pytest.raises(DomainError):
                    build(bad)

    def test_su11_structure(self):
        p = ModelParams.tpt(2.0)
        assert tpt_deformation(p) == tpt_deformation(p)
        for d, slope, intercept in (
            (tpt_deformation(p), 0.25, 0.75),
            (pseudoharmonic_deformation(1.5), 1.0, 3.0),
            (harmonic_deformation(), 0.0, 1.0),
        ):
            assert (d.slope, d.intercept) == (slope, intercept)
        f = tpt_deformation(p)
        assert f.su11_scale == pytest.approx(4.0)
        assert f.bargmann_index == pytest.approx(2.0)
        g = pseudoharmonic_deformation(1.5)
        assert g.su11_scale == pytest.approx(1.0)
        assert g.bargmann_index == pytest.approx(2.0)  # s + 1/2
        with pytest.raises(DomainError):
            harmonic_deformation().su11_scale

    @pytest.mark.parametrize("p", [ModelParams.tpt(2.0, a=1.5), ModelParams.pseudoharmonic(1.5),
                                   ModelParams.harmonic(2.0)])
    def test_deformation_carries_its_params(self, p):
        f = deformation_for(p)
        assert f.params == p
        assert annihilation_eigenstate(f, 0.5, 32).model == p


class TestSpectrumIdentity:
    @pytest.mark.parametrize("lam", [0.75, 1.0, 2.0, 10.0, 100.0])
    def test_symmetric_combination_matches_spectrum(self, lam):
        # (Omega/2)(n f^2(n) + (n+1) f^2(n+1)) with Omega = lam a^2
        p = ModelParams.tpt(lam, 1.3)
        f = tpt_deformation(p)
        n = np.arange(257, dtype=float)
        combo = 0.5 * p.omega * (n * f.fsq(n) + (n + 1) * f.fsq(n + 1))
        rel = np.abs(combo - tpt_energy(n, p)) / tpt_energy(n, p)
        assert np.max(rel) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_antisymmetric_combination_matches_spectrum(self, s):
        f = pseudoharmonic_deformation(s)
        n = np.arange(257, dtype=float)
        combo = (n + 1) * f.fsq(n + 1) - n * f.fsq(n)
        rel = np.abs(combo - pseudoharmonic_energy(n, s)) / pseudoharmonic_energy(n, s)
        assert np.max(rel) < 1e-12
