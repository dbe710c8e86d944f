import numpy as np
import pytest

from rpmix.models import ModelKind, ModelSingular, RateParams, rhs_function
from rpmix.spinspace import (
    DensityMatrix,
    electron_pair_space,
    random_density_matrix,
    singlet_probability,
    two_level_space,
)

SP2 = two_level_space()
SP4 = electron_pair_space()
K1 = RateParams(k_s=1.0)

PURE_S = DensityMatrix(SP2, np.diag([1.0, 0.0]).astype(complex))
PURE_T = DensityMatrix(SP2, np.diag([0.0, 1.0]).astype(complex))
MIXED = DensityMatrix(SP2, np.diag([0.5, 0.5]).astype(complex))
SUPER = DensityMatrix(SP2, 0.5 * np.ones((2, 2), dtype=complex))


def rhs(kind, rho, params):
    return rhs_function(kind, rho.space, params)(rho.matrix)


class TestRateParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RateParams(k_s=-1.0)


class TestModelKind:
    def test_name_round_trip(self):
        for kind in ModelKind:
            assert ModelKind.from_name(kind.value) is kind

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            ModelKind.from_name("lindblad")


class TestJonesHore:
    def test_pure_singlet(self):
        assert np.allclose(rhs(ModelKind.JONES_HORE, PURE_S, K1), -PURE_S.matrix, atol=1e-15)

    def test_pure_triplet_fixed_point(self):
        assert np.allclose(rhs(ModelKind.JONES_HORE, PURE_T, K1), 0.0, atol=1e-15)

    def test_superposition(self):
        expected = np.array([[-0.5, -0.5], [-0.5, 0.0]], dtype=complex)
        assert np.allclose(rhs(ModelKind.JONES_HORE, SUPER, K1), expected, atol=1e-15)


class TestHaberkorn:
    def test_pure_singlet(self):
        assert np.allclose(rhs(ModelKind.HABERKORN, PURE_S, K1), -PURE_S.matrix, atol=1e-15)

    def test_pure_triplet_fixed_point(self):
        assert np.allclose(rhs(ModelKind.HABERKORN, PURE_T, K1), 0.0, atol=1e-15)

    def test_superposition(self):
        expected = np.array([[-0.5, -0.25], [-0.25, 0.0]], dtype=complex)
        assert np.allclose(rhs(ModelKind.HABERKORN, SUPER, K1), expected, atol=1e-15)

    def test_coherence_decays_at_half_rate(self):
        c = 0.3 + 0.1j
        rho = DensityMatrix(SP2, np.array([[0.5, c], [np.conj(c), 0.5]]))
        jh = rhs(ModelKind.JONES_HORE, rho, K1)
        hab = rhs(ModelKind.HABERKORN, rho, K1)
        assert jh[0, 1] == -c
        assert hab[0, 1] == -0.5 * c

    def test_matches_jones_hore_on_diagonal_states(self):
        for seed in range(10):
            rho = random_density_matrix(SP4, seed)
            diag = DensityMatrix(SP4, np.diag(np.diagonal(rho.matrix)))
            assert np.array_equal(
                rhs(ModelKind.JONES_HORE, diag, K1), rhs(ModelKind.HABERKORN, diag, K1)
            )


class TestNormalizedJonesHore:
    def test_pure_singlet_fixed_point(self):
        assert np.allclose(rhs(ModelKind.NORMALIZED_JONES_HORE, PURE_S, K1), 0.0, atol=1e-15)

    def test_pure_triplet_fixed_point(self):
        assert np.allclose(rhs(ModelKind.NORMALIZED_JONES_HORE, PURE_T, K1), 0.0, atol=1e-15)

    def test_equal_mixture(self):
        expected = np.diag([-0.25, 0.25]).astype(complex)
        assert np.allclose(rhs(ModelKind.NORMALIZED_JONES_HORE, MIXED, K1), expected, atol=1e-15)


class TestNormalizedKominis:
    def test_pure_triplet_fixed_point(self):
        assert np.allclose(rhs(ModelKind.NORMALIZED_KOMINIS, PURE_T, K1), 0.0, atol=1e-15)

    def test_equal_mixture(self):
        expected = np.diag([-0.5, 0.5]).astype(complex)
        assert np.allclose(rhs(ModelKind.NORMALIZED_KOMINIS, MIXED, K1), expected, atol=1e-15)

    def test_pure_singlet_singular(self):
        with pytest.raises(ModelSingular):
            rhs(ModelKind.NORMALIZED_KOMINIS, PURE_S, K1)


def _all_rhs(rho, params):
    return {kind.value: rhs(kind, rho, params) for kind in ModelKind}


class TestSharedInvariants:
    @pytest.mark.parametrize("space", [SP2, SP4], ids=["dim2", "dim4"])
    def test_hermiticity_preserved(self, space):
        for seed in range(20):
            rho = random_density_matrix(space, seed)
            for name, out in _all_rhs(rho, RateParams(k_s=1.7)).items():
                err = np.max(np.abs(out - out.conj().T))
                assert err <= 1e-14, (name, err)

    @pytest.mark.parametrize("space", [SP2, SP4], ids=["dim2", "dim4"])
    def test_trace_laws(self, space):
        k = 2.3
        for seed in range(20):
            rho = random_density_matrix(space, seed)
            expected = -k * singlet_probability(rho)
            params = RateParams(k_s=k)
            assert abs(np.trace(rhs(ModelKind.JONES_HORE, rho, params)).real - expected) < 1e-13
            assert abs(np.trace(rhs(ModelKind.HABERKORN, rho, params)).real - expected) < 1e-13
            assert abs(np.trace(rhs(ModelKind.NORMALIZED_JONES_HORE, rho, params))) < 1e-13
            assert abs(np.trace(rhs(ModelKind.NORMALIZED_KOMINIS, rho, params))) < 1e-13

    def test_triplet_supported_states_are_fixed_points_of_both_normalized_flows(self):
        for seed in range(10):
            raw = random_density_matrix(SP4, seed).matrix
            projected = SP4.triplet_mask * raw
            rho = DensityMatrix(SP4, projected / np.trace(projected).real)
            a = rhs(ModelKind.NORMALIZED_JONES_HORE, rho, K1)
            b = rhs(ModelKind.NORMALIZED_KOMINIS, rho, K1)
            assert np.max(np.abs(a)) < 1e-14
            assert np.max(np.abs(b)) < 1e-14

    def test_rate_scaling_is_exact(self):
        k = 0.73
        for seed in range(5):
            rho = random_density_matrix(SP2, seed)
            single = _all_rhs(rho, RateParams(k_s=k))
            double = _all_rhs(rho, RateParams(k_s=2 * k))
            for name in single:
                assert np.array_equal(double[name], 2.0 * single[name]), name
