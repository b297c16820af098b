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
    apply,
    commutator,
    deformed_hamiltonian_antisymmetric,
    deformed_hamiltonian_symmetric,
    glauber_coefficients,
    harmonic_deformation,
    identity_matrix,
    ladder_matrices,
    matrix_exponential,
    number_matrix,
    pseudoharmonic_deformation,
    pseudoharmonic_energy,
    tpt_deformation,
    tpt_energy,
)


def affine_deformation(slope, intercept):
    return DeformationFunction(
        label=f"affine({slope},{intercept})",
        slope=slope,
        intercept=intercept,
    )


class TestLadderMatrices:
    def test_tpt_entries(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        lowering, raising = ladder_matrices(f, 6)
        assert lowering.entries[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert raising.entries[2, 1] == pytest.approx(math.sqrt(2.5), abs=1e-15)

    def test_harmonic_entries(self):
        lowering, _ = ladder_matrices(harmonic_deformation(), 9)
        n = np.arange(1, 9)
        assert np.allclose(lowering.entries[n - 1, n], np.sqrt(n), rtol=1e-15)

    def test_strictly_one_off_diagonal(self):
        f = pseudoharmonic_deformation(1.0)
        lowering, raising = ladder_matrices(f, 12)
        assert np.count_nonzero(lowering.entries - np.diag(np.diag(lowering.entries, 1), 1)) == 0
        assert np.count_nonzero(raising.entries - np.diag(np.diag(raising.entries, -1), -1)) == 0

    def test_raising_is_transpose_for_real_deformation(self):
        for f in (tpt_deformation(ModelParams.tpt(3.3)), pseudoharmonic_deformation(0.7)):
            lowering, raising = ladder_matrices(f, 20)
            assert np.array_equal(raising.entries, lowering.entries.T)
            assert np.array_equal(raising.entries, lowering.dag().entries)

    def test_cutoff_too_small(self):
        with pytest.raises(DomainError):
            ladder_matrices(harmonic_deformation(), 1)

    def test_nonpositive_deformation_rejected(self):
        bad = affine_deformation(-1.0, 0.5)
        with pytest.raises(DomainError):
            ladder_matrices(bad, 8)


class TestNumberMatrix:
    def test_small(self):
        assert np.array_equal(number_matrix(3).entries, np.diag([0.0, 1.0, 2.0]))
        assert np.array_equal(number_matrix(1).entries, np.diag([0.0]))

    def test_commutes_with_itself(self):
        n = number_matrix(5)
        assert np.count_nonzero(commutator(n, n).entries) == 0


class TestCommutators:
    def test_tpt_interior_diagonal(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        lowering, raising = ladder_matrices(f, 16)
        diag = commutator(lowering, raising).entries.diagonal().real
        assert diag[0] == pytest.approx(1.0, abs=1e-14)
        assert diag[1] == pytest.approx(1.5, abs=1e-14)
        n = np.arange(15)
        assert np.allclose(diag[:15], 1.0 + n / 2.0, rtol=1e-13)

    def test_harmonic_interior_diagonal(self):
        lowering, raising = ladder_matrices(harmonic_deformation(), 16)
        diag = commutator(lowering, raising).entries.diagonal().real
        assert np.allclose(diag[:15], 1.0, atol=1e-14)

    def test_last_index_is_truncation_artifact(self):
        f = tpt_deformation(ModelParams.tpt(2.0))
        lowering, raising = ladder_matrices(f, 16)
        diag = commutator(lowering, raising).entries.diagonal().real
        assert diag[15] < 0  # missing coupling to the cut level

    @pytest.mark.parametrize("lam", [0.75, 2.0, 10.0])
    def test_tpt_weight_commutators(self, lam):
        cutoff = 64
        f = tpt_deformation(ModelParams.tpt(lam))
        lowering, raising = ladder_matrices(f, cutoff)
        weight = identity_matrix(cutoff) + (1.0 / lam) * number_matrix(cutoff)
        inner = np.s_[: cutoff - 1, : cutoff - 1]
        lhs = commutator(lowering, weight).entries[inner]
        assert np.allclose(lhs, lowering.entries[inner] / lam, rtol=1e-12, atol=1e-15)
        rhs = commutator(raising, weight).entries[inner]
        assert np.allclose(rhs, -raising.entries[inner] / lam, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_pseudoharmonic_commutators(self, s):
        cutoff = 64
        f = pseudoharmonic_deformation(s)
        lowering, raising = ladder_matrices(f, cutoff)
        diag = commutator(lowering, raising).entries.diagonal().real
        n = np.arange(cutoff - 1)
        target = 2.0 * (n + s + 0.5)
        assert np.max(np.abs(diag[:-1] - target) / target) < 1e-13
        weight = number_matrix(cutoff) + (s + 0.5) * identity_matrix(cutoff)
        inner = np.s_[: cutoff - 1, : cutoff - 1]
        assert np.allclose(commutator(weight, lowering).entries[inner],
                           -lowering.entries[inner], rtol=1e-12, atol=1e-15)
        assert np.allclose(commutator(weight, raising).entries[inner],
                           raising.entries[inner], rtol=1e-12, atol=1e-15)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            commutator(number_matrix(4), number_matrix(5))


class TestHamiltonians:
    def test_symmetric_matches_tpt_energy(self):
        p = ModelParams.tpt(2.0, 1.0)
        h = deformed_hamiltonian_symmetric(tpt_deformation(p), 8, p.omega)
        diag = h.entries.diagonal().real
        assert diag[0] == pytest.approx(1.0, abs=1e-14)
        assert diag[1] == pytest.approx(3.5, abs=1e-14)
        assert np.allclose(diag, tpt_energy(np.arange(8), p), rtol=1e-14)

    def test_symmetric_harmonic_reference(self):
        h = deformed_hamiltonian_symmetric(harmonic_deformation(), 5, 1.0)
        assert h.entries[0, 0].real == pytest.approx(0.5, abs=1e-15)

    def test_antisymmetric_matches_pseudoharmonic_energy(self):
        f = pseudoharmonic_deformation(1.0)
        h = deformed_hamiltonian_antisymmetric(f, 8)
        diag = h.entries.diagonal().real
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
        diag = deformed_hamiltonian_antisymmetric(f, 32).entries.diagonal().real
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
        lowering, raising = ladder_matrices(harmonic_deformation(), 64)
        gen = OperatorMatrix(raising.entries - lowering.entries)
        col = matrix_exponential(gen).entries[:, 0]
        n = np.arange(64)
        expected = np.exp(-0.5) / np.sqrt([math.factorial(int(k)) for k in n[:20]])
        assert np.allclose(col[:20].real, expected, atol=1e-10)
        assert np.max(np.abs(col - glauber_coefficients(1.0, 64).coeffs)) < 1e-10

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            size = int(rng.integers(3, 24))
            m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            m *= rng.uniform(0.1, 30.0) / np.linalg.norm(m, 1)
            mine = matrix_exponential(OperatorMatrix(m)).entries
            ref = scipy_expm(m)
            assert np.max(np.abs(mine - ref)) / np.linalg.norm(ref, 2) < 1e-12

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            matrix_exponential(OperatorMatrix(np.diag([1e30, 1.0])))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            matrix_exponential(OperatorMatrix(np.array([[np.nan, 0.0], [0.0, 0.0]])))


class TestApply:
    def test_identity(self):
        v = FockVector(np.array([0.2, 0.5j, -0.1]))
        w = apply(identity_matrix(3), v)
        assert np.array_equal(w.coeffs, v.coeffs)

    def test_lowering_annihilates_vacuum(self):
        lowering, _ = ladder_matrices(tpt_deformation(ModelParams.tpt(2.0)), 5)
        out = apply(lowering, FockVector.vacuum(5))
        assert np.count_nonzero(out.coeffs) == 0

    def test_raising_vacuum_tpt(self):
        _, raising = ladder_matrices(tpt_deformation(ModelParams.tpt(2.0)), 5)
        out = apply(raising, FockVector.vacuum(5))
        expected = np.zeros(5, dtype=complex)
        expected[1] = 1.0  # sqrt(1 * (4+0)/4)
        assert np.allclose(out.coeffs, expected, atol=1e-15)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            apply(identity_matrix(3), FockVector.vacuum(4))


class TestFockVector:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=24))
    def test_normalized_has_unit_norm(self, raw):
        v = FockVector(np.array(raw, dtype=complex))
        if v.norm() == 0:
            with pytest.raises(DomainError):
                v.normalized()
        else:
            assert abs(v.normalized().norm() - 1.0) < 1e-12

    def test_basis_state_bounds(self):
        with pytest.raises(DomainError):
            FockVector.basis_state(5, 5)
