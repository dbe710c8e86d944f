import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rpmix.spinspace import (
    DensityMatrix,
    NormalizationSingular,
    electron_pair_space,
    frobenius_distance,
    make_space,
    normalize,
    preset_state,
    random_density_matrix,
    singlet_probability,
    two_level_space,
    validate,
)


def dm(space, entries):
    return DensityMatrix(space, np.array(entries, dtype=complex))


def triplet_population(rho):
    """Tr(Q_T rho) as the diagonal dotted with the triplet diagonal."""
    return float(np.real(np.diagonal(rho.matrix) @ rho.space.triplet_diag))


@st.composite
def spaces(draw):
    dim = draw(st.integers(min_value=2, max_value=8))
    n_singlet = draw(st.integers(min_value=1, max_value=dim - 1))
    idx = draw(
        st.permutations(range(dim)).map(lambda p: tuple(sorted(p[:n_singlet])))
    )
    return make_space(dim, idx)


class TestMakeSpace:
    def test_two_level_projectors(self):
        sp = make_space(2, {0})
        assert np.array_equal(sp.singlet_diag, [1.0, 0.0])
        assert np.array_equal(sp.triplet_diag, [0.0, 1.0])
        assert np.array_equal(sp.triplet_mask, [[0.0, 0.0], [0.0, 1.0]])

    def test_four_level_triplet_complement(self):
        sp = make_space(4, {0})
        assert np.array_equal(sp.triplet_diag, [0.0, 1.0, 1.0, 1.0])

    def test_full_singlet_set_rejected(self):
        with pytest.raises(ValueError):
            make_space(2, {0, 1})

    def test_empty_singlet_set_rejected(self):
        with pytest.raises(ValueError):
            make_space(3, set())

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            make_space(2, {2})

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            make_space(3, (0, 0))

    @given(spaces())
    def test_projector_algebra_exact(self, sp):
        # Q_S and Q_T are the diagonal 0/1 matrices of singlet_diag and triplet_diag
        s, t = sp.singlet_diag, sp.triplet_diag
        assert np.array_equal(s + t, np.ones(sp.dim))
        assert np.array_equal(s * t, np.zeros(sp.dim))
        assert np.array_equal(s * s, s)
        assert np.array_equal(t * t, t)
        # triplet_mask * rho is Q_T rho Q_T
        q_t = np.diag(t)
        rho = np.arange(sp.dim * sp.dim, dtype=float).reshape(sp.dim, sp.dim) + 1.0
        assert np.array_equal(sp.triplet_mask * rho, q_t @ rho @ q_t)
        assert np.array_equal(sp.triplet_mask, np.outer(t, t))


class TestDensityMatrix:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dm(two_level_space(), np.eye(3) / 3)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(two_level_space(), np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dm(two_level_space(), [[np.nan, 0], [0, 1]])

    def test_matrix_is_frozen(self):
        rho = dm(two_level_space(), np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0


class TestNormalize:
    def test_scalar_rescale(self):
        rho = normalize(dm(two_level_space(), np.diag([0.25, 0.25])))
        assert np.allclose(rho.matrix, np.diag([0.5, 0.5]))

    def test_already_normalized(self):
        rho = normalize(dm(two_level_space(), np.diag([1.0, 0.0])))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_zero_trace_raises(self):
        with pytest.raises(NormalizationSingular):
            normalize(dm(two_level_space(), np.zeros((2, 2))))

    def test_idempotent(self):
        rho = random_density_matrix(electron_pair_space(), seed=7)
        once = normalize(rho)
        twice = normalize(once)
        assert frobenius_distance(once, twice) < 1e-15


class TestProbabilities:
    def test_equal_mixture(self):
        rho = dm(two_level_space(), np.diag([0.5, 0.5]))
        assert singlet_probability(rho) == pytest.approx(0.5, abs=1e-15)

    def test_pure_triplet_orthogonal(self):
        rho = dm(two_level_space(), np.diag([0.0, 1.0]))
        assert singlet_probability(rho) == 0.0
        assert triplet_population(rho) == 1.0

    def test_random_state_matches_diagonal_sum(self):
        # independent oracle: explicit summation over singlet diagonal entries
        sp = electron_pair_space()
        rho = random_density_matrix(sp, seed=42)
        expected = sum(rho.matrix[i, i].real for i in sp.singlet_indices)
        assert singlet_probability(rho) == pytest.approx(expected, abs=1e-15)

    def test_probabilities_sum_to_trace(self):
        for seed in range(25):
            for sp in (two_level_space(), electron_pair_space()):
                rho = random_density_matrix(sp, seed)
                total = singlet_probability(rho) + triplet_population(rho)
                assert abs(total - rho.trace) < 1e-14


class TestValidate:
    def test_maximally_mixed_passes(self):
        report = validate(dm(two_level_space(), np.eye(2) / 2))
        assert report.verdict == "pass"
        assert report.min_eigenvalue == pytest.approx(0.5, abs=1e-14)

    def test_indefinite_matrix_fails_psd(self):
        # 2x2 hand formula: eigenvalues 0.5 +/- 0.6 -> {1.1, -0.1}
        report = validate(dm(two_level_space(), [[0.5, 0.6], [0.6, 0.5]]))
        assert report.verdict == "fail"
        assert report.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)

    def test_small_nonhermitian_perturbation_warns(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] += 1e-6
        report = validate(dm(two_level_space(), m))
        assert report.verdict == "warn"
        assert report.hermiticity_error == pytest.approx(1e-6, rel=1e-6)

    def test_trace_zero_fails(self):
        report = validate(dm(two_level_space(), np.zeros((2, 2))))
        assert report.verdict == "fail"

    def test_trace_above_one_fails(self):
        report = validate(dm(two_level_space(), np.diag([1.0, 0.5])))
        assert report.verdict == "fail"


class TestRandomDensityMatrix:
    def test_always_valid(self):
        for seed in range(50):
            rho = random_density_matrix(electron_pair_space(), seed)
            report = validate(rho)
            assert report.verdict == "pass", report
            assert report.hermiticity_error <= 1e-12, report
            assert report.min_eigenvalue >= -1e-12, report

    def test_deterministic(self):
        a = random_density_matrix(two_level_space(), seed=3)
        b = random_density_matrix(two_level_space(), seed=3)
        assert np.array_equal(a.matrix, b.matrix)

    def test_traces_average_to_one(self):
        traces = [
            random_density_matrix(electron_pair_space(), seed).trace
            for seed in range(1000)
        ]
        assert np.mean(traces) == pytest.approx(1.0, abs=1e-14)


class TestFrobeniusDistance:
    def test_identical_is_zero(self):
        rho = random_density_matrix(two_level_space(), seed=1)
        assert frobenius_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = dm(two_level_space(), np.diag([1.0, 0.0]))
        b = dm(two_level_space(), np.diag([0.0, 1.0]))
        assert frobenius_distance(a, b) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_hand_arithmetic(self):
        a = dm(two_level_space(), np.diag([0.5, 0.5]))
        b = dm(two_level_space(), np.diag([0.6, 0.4]))
        assert frobenius_distance(a, b) == pytest.approx(math.sqrt(0.02), abs=1e-15)

    def test_dimension_mismatch(self):
        a = dm(two_level_space(), np.eye(2) / 2)
        b = dm(electron_pair_space(), np.eye(4) / 4)
        with pytest.raises(ValueError):
            frobenius_distance(a, b)

    def test_accepts_plain_arrays(self):
        assert frobenius_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(
            math.sqrt(2.0)
        )


class TestPresets:
    @pytest.mark.parametrize("name", ["pure-singlet", "pure-triplet", "equal-mixture", "st-superposition"])
    @pytest.mark.parametrize("space_fn", [two_level_space, electron_pair_space])
    def test_presets_are_valid_unit_trace_states(self, name, space_fn):
        rho = preset_state(space_fn(), name)
        report = validate(rho)
        assert report.verdict == "pass"
        assert rho.trace == pytest.approx(1.0, abs=1e-14)

    def test_equal_mixture_balances_subspaces(self):
        rho = preset_state(electron_pair_space(), "equal-mixture")
        assert singlet_probability(rho) == pytest.approx(0.5, abs=1e-15)
        assert triplet_population(rho) == pytest.approx(0.5, abs=1e-15)

    def test_superposition_two_level(self):
        rho = preset_state(two_level_space(), "st-superposition")
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_state(two_level_space(), "bogus")
