import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from defosc import (
    DeformationFunction,
    DomainError,
    FockVector,
    ModelParams,
    OperatorMatrix,
    SizeMismatchError,
    deformed_hamiltonian_antisymmetric,
    deformed_hamiltonian_symmetric,
    displacement_state_closed_form,
    displacement_state_factored,
    exp_ladder_apply,
    glauber_coefficients,
    harmonic_deformation,
    ladder_amplitudes,
    matrix_exponential,
    pseudoharmonic_deformation,
    pseudoharmonic_energy,
    tpt_deformation,
    tpt_energy,
    zeta_from_alpha,
)


def affine_deformation(slope, intercept):
    return DeformationFunction(
        label=f"affine({slope},{intercept})",
        slope=slope,
        intercept=intercept,
    )


def ladder_operators(f, cutoff):
    # dense reference matrices built from the amplitude vector
    amp = ladder_amplitudes(f, cutoff)
    return np.diag(amp, 1), np.diag(amp, -1)


def series_matrix(amp, x, raising):
    # exp(x L) as a matrix, one basis vector at a time
    size = amp.size + 1
    return np.column_stack([exp_ladder_apply(amp, x, col, raising) for col in np.eye(size)])


class TestLadderMatrices:
    def test_tpt_entries(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        lowering, raising = ladder_operators(f, 6)
        assert lowering[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert raising[2, 1] == pytest.approx(math.sqrt(2.5), abs=1e-15)

    def test_harmonic_entries(self):
        amp = ladder_amplitudes(harmonic_deformation(), 9)
        assert np.allclose(amp, np.sqrt(np.arange(1, 9)), rtol=1e-15)

    def test_strictly_one_off_diagonal(self):
        # each power of a ladder operator moves a basis state by exactly one level
        amp = ladder_amplitudes(pseudoharmonic_deformation(1.0), 12)
        start = np.eye(12, dtype=complex)[5]
        up = exp_ladder_apply(amp, 0.3, start, raising=True)
        down = exp_ladder_apply(amp, 0.3, start, raising=False)
        assert np.count_nonzero(up[:5]) == 0 and np.count_nonzero(down[6:]) == 0
        for k in range(1, 7):
            assert up[5 + k] == pytest.approx(0.3**k / math.factorial(k) * np.prod(amp[5 : 5 + k]), rel=1e-14)
        for k in range(1, 6):
            assert down[5 - k] == pytest.approx(0.3**k / math.factorial(k) * np.prod(amp[5 - k : 5]), rel=1e-14)

    def test_raising_is_transpose_for_real_deformation(self):
        for f in (tpt_deformation(ModelParams.tpt(3.3)), pseudoharmonic_deformation(0.7)):
            amp = ladder_amplitudes(f, 20)
            up = series_matrix(amp, 0.4, raising=True)
            down = series_matrix(amp, 0.4, raising=False)
            # equal up to the order in which each entry's product is rounded
            assert np.max(np.abs(up - down.T)) <= 1e-14 * np.max(np.abs(up))

    def test_cutoff_too_small(self):
        with pytest.raises(DomainError):
            ladder_amplitudes(harmonic_deformation(), 1)

    def test_nonpositive_deformation_rejected(self):
        bad = affine_deformation(-1.0, 0.5)
        with pytest.raises(DomainError):
            ladder_amplitudes(bad, 8)


class TestCommutators:
    def test_tpt_interior_diagonal(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        lowering, raising = ladder_operators(f, 16)
        diag = (lowering @ raising - raising @ lowering).diagonal()
        assert diag[0] == pytest.approx(1.0, abs=1e-14)
        assert diag[1] == pytest.approx(1.5, abs=1e-14)
        n = np.arange(15)
        assert np.allclose(diag[:15], 1.0 + n / 2.0, rtol=1e-13)

    def test_harmonic_interior_diagonal(self):
        lowering, raising = ladder_operators(harmonic_deformation(), 16)
        diag = (lowering @ raising - raising @ lowering).diagonal()
        assert np.allclose(diag[:15], 1.0, atol=1e-14)

    def test_last_index_is_truncation_artifact(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        lowering, raising = ladder_operators(f, 16)
        diag = (lowering @ raising - raising @ lowering).diagonal()
        assert diag[15] < 0  # missing coupling to the cut level

    @pytest.mark.parametrize("lam", [0.75, 2.0, 10.0])
    def test_tpt_weight_commutators(self, lam):
        cutoff = 64
        f = tpt_deformation(ModelParams.tpt(lam))
        lowering, raising = ladder_operators(f, cutoff)
        weight = np.diag(1.0 + np.arange(cutoff) / lam)
        inner = np.s_[: cutoff - 1, : cutoff - 1]
        lhs = (lowering @ weight - weight @ lowering)[inner]
        assert np.allclose(lhs, lowering[inner] / lam, rtol=1e-12, atol=1e-15)
        rhs = (raising @ weight - weight @ raising)[inner]
        assert np.allclose(rhs, -raising[inner] / lam, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_pseudoharmonic_commutators(self, s):
        cutoff = 64
        f = pseudoharmonic_deformation(s)
        lowering, raising = ladder_operators(f, cutoff)
        diag = (lowering @ raising - raising @ lowering).diagonal()
        n = np.arange(cutoff - 1)
        target = 2.0 * (n + s + 0.5)
        assert np.max(np.abs(diag[:-1] - target) / target) < 1e-13
        weight = np.diag(np.arange(cutoff) + s + 0.5)
        inner = np.s_[: cutoff - 1, : cutoff - 1]
        assert np.allclose((weight @ lowering - lowering @ weight)[inner],
                           -lowering[inner], rtol=1e-12, atol=1e-15)
        assert np.allclose((weight @ raising - raising @ weight)[inner],
                           raising[inner], rtol=1e-12, atol=1e-15)


class TestHamiltonians:
    def test_symmetric_matches_tpt_energy(self):
        p = ModelParams.tpt(2.0, 1.0)
        diag = deformed_hamiltonian_symmetric(tpt_deformation(p), 8, p.omega)
        assert diag[0] == pytest.approx(1.0, abs=1e-14)
        assert diag[1] == pytest.approx(3.5, abs=1e-14)
        assert np.allclose(diag, tpt_energy(np.arange(8), p), rtol=1e-14)

    def test_symmetric_harmonic_reference(self):
        diag = deformed_hamiltonian_symmetric(harmonic_deformation(), 5, 1.0)
        assert diag[0] == pytest.approx(0.5, abs=1e-15)

    def test_antisymmetric_matches_pseudoharmonic_energy(self):
        f = pseudoharmonic_deformation(1.0)
        diag = deformed_hamiltonian_antisymmetric(f, 8)
        assert diag[0] == pytest.approx(3.0, abs=1e-14)
        assert diag[1] == pytest.approx(5.0, abs=1e-14)
        assert np.allclose(diag, pseudoharmonic_energy(np.arange(8), 1.0), rtol=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        slope=st.floats(min_value=0.05, max_value=5.0),
        intercept=st.floats(min_value=0.05, max_value=5.0),
    )
    def test_antisymmetric_generic_affine(self, slope, intercept):
        # (n+1) f^2(n+1) - n f^2(n) = 2 (slope*n + (slope+intercept)/2)
        f = affine_deformation(slope, intercept)
        diag = deformed_hamiltonian_antisymmetric(f, 32)
        n = np.arange(32)
        target = 2.0 * (slope * n + (slope + intercept) / 2.0)
        assert np.allclose(diag, target, rtol=1e-12)


class TestMatrixExponential:
    def test_exp_zero_is_identity(self):
        z = OperatorMatrix(np.zeros((6, 6)))
        assert np.array_equal(matrix_exponential(z).entries, np.eye(6))

    def test_exp_diagonal(self):
        d = np.array([-2.0, 0.3, 1.7, 4.0])
        m = OperatorMatrix(np.diag(d))
        assert np.allclose(matrix_exponential(m).entries, np.diag(np.exp(d)), rtol=1e-14)

    def test_glauber_coefficients_oracle(self):
        # exp(a+ - a)|0> against e^{-1/2}/sqrt(n!)
        lowering, raising = ladder_operators(harmonic_deformation(), 64)
        gen = OperatorMatrix(raising - lowering)
        col = matrix_exponential(gen).entries[:, 0]
        n = np.arange(64)
        expected = np.exp(-0.5) / np.sqrt([math.factorial(int(k)) for k in n[:20]])
        assert np.allclose(col[:20].real, expected, atol=1e-10)
        assert np.max(np.abs(col - glauber_coefficients(1.0, 64))) < 1e-10

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            size = int(rng.integers(3, 24))
            m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            m *= rng.uniform(0.1, 30.0) / np.linalg.norm(m, 1)
            mine = matrix_exponential(OperatorMatrix(m)).entries
            ref = scipy_expm(m)
            assert np.max(np.abs(mine - ref)) / np.linalg.norm(ref, 2) < 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_unscaled_kernel_matches_term_by_term_series(self, dtype):
        # at 1-norm 0.5 no squaring runs, so this compares the factored
        # evaluation with the plain sum of x^k / k!, k <= 18
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 40)).astype(dtype)
        if dtype is complex:
            x = x + 1j * rng.normal(size=(40, 40))
        x *= 0.5 / np.linalg.norm(x, 1)
        series, term = np.eye(40, dtype=dtype), np.eye(40, dtype=dtype)
        for k in range(1, 19):
            term = term @ x / k
            series = series + term
        mine = matrix_exponential(OperatorMatrix(x)).entries
        assert mine.dtype == series.dtype
        assert np.max(np.abs(mine - series)) < 8 * np.finfo(float).eps

    @pytest.mark.parametrize("size", [5, 64, 200])
    def test_real_skew_input_stays_real_and_orthogonal(self, size):
        rng = np.random.default_rng(size)
        b = rng.normal(size=(size, size))
        k = (b - b.T) * (rng.uniform(1.0, 40.0) / np.linalg.norm(b - b.T, 1))
        mine = matrix_exponential(OperatorMatrix(k)).entries
        assert mine.dtype == np.float64
        assert np.max(np.abs(mine.T @ mine - np.eye(size))) < 1e-12
        ref = scipy_expm(k)
        assert np.max(np.abs(mine - ref)) / np.linalg.norm(ref, 2) < 1e-12

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            matrix_exponential(OperatorMatrix(np.diag([1e30, 1.0])))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            matrix_exponential(OperatorMatrix(np.array([[np.nan, 0.0], [0.0, 0.0]])))


class TestOperatorMatrix:
    def test_real_entries_stay_real(self):
        m = OperatorMatrix(np.array([[0.0, 1.5], [-1.5, 0.0]]))
        assert m.entries.dtype == np.float64

    def test_integer_entries_become_float(self):
        m = OperatorMatrix([[1, 2], [3, 4]])
        assert m.entries.dtype == np.float64
        assert np.array_equal(m.entries, [[1.0, 2.0], [3.0, 4.0]])

    def test_complex_entries_stay_complex(self):
        assert OperatorMatrix(np.eye(3) * 1j).entries.dtype == np.complex128

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))])
    def test_non_square_rejected(self, bad):
        with pytest.raises(DomainError):
            OperatorMatrix(bad)


class TestApply:
    def test_identity(self):
        v = np.array([0.2, 0.5j, -0.1])
        amp = ladder_amplitudes(harmonic_deformation(), 3)
        for raising in (True, False):
            assert np.array_equal(exp_ladder_apply(amp, 0.0, v, raising), v)

    def test_lowering_annihilates_vacuum(self):
        amp = ladder_amplitudes(tpt_deformation(ModelParams.tpt(2.0)), 5)
        vac = np.eye(5, dtype=complex)[0]
        # the lowering series stops after its first term, which vanishes
        assert np.array_equal(exp_ladder_apply(amp, 0.7 - 0.2j, vac, raising=False), vac)

    def test_raising_vacuum_tpt(self):
        amp = ladder_amplitudes(tpt_deformation(ModelParams.tpt(2.0)), 5)
        assert amp[0] == pytest.approx(1.0, abs=1e-15)  # sqrt(1 * (4+0)/4)
        out = exp_ladder_apply(amp, 1e-3, np.eye(5, dtype=complex)[0], raising=True)
        assert out[1] == pytest.approx(1e-3 * amp[0], rel=1e-12)

    def test_size_mismatch(self):
        amp = ladder_amplitudes(harmonic_deformation(), 3)
        with pytest.raises(SizeMismatchError):
            exp_ladder_apply(amp, 0.5, np.eye(4, dtype=complex)[0], raising=True)

    @pytest.mark.parametrize("cutoff", [8, 64])
    @pytest.mark.parametrize("raising", [True, False])
    def test_against_scipy_oracle(self, cutoff, raising):
        rng = np.random.default_rng(cutoff)
        for f in (tpt_deformation(ModelParams.tpt(2.0)), pseudoharmonic_deformation(1.0)):
            amp = ladder_amplitudes(f, cutoff)
            dense = np.diag(amp, -1) if raising else np.diag(amp, 1)
            for _ in range(4):
                x = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                v = rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff)
                ref = scipy_expm(x * dense) @ v
                got = exp_ladder_apply(amp, x, v, raising)
                assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-14

    def test_long_vacuum_series_near_the_unit_circle(self):
        # |zeta| = 0.992: the raising series of the factored route runs over
        # all 4096 levels, and its terms first grow, then fall to a last
        # weight below 1e-27
        f = pseudoharmonic_deformation(1.314)
        alpha = 0.819 + 2.615j
        fact = displacement_state_factored(f, alpha, 4096)
        closed = displacement_state_closed_form(f, zeta_from_alpha(alpha, f), 4096)
        assert fact.tail_mass < 1e-27
        assert np.max(np.abs(fact.state.coeffs - closed.state.coeffs)) < 1e-13


class TestFockVector:
    def test_validated_complex_array(self):
        v = FockVector([1, 0, 0])
        assert v.coeffs.dtype == np.complex128 and v.cutoff == 3
        for bad in (np.zeros(0), np.zeros((2, 2))):
            with pytest.raises(DomainError):
                FockVector(bad)
