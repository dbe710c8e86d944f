import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rpmix.kinetics import (
    AllReacted,
    MixtureInconsistent,
    corrected_weights,
    fraction_rates,
    kinetic_fractions,
    kominis_weights,
    mixture_from_initial,
    mixture_rhs,
    reconstruct,
    weight_rate,
    weights_at,
)
from rpmix.models import ModelKind, RateParams, rhs_function
from rpmix.spinspace import (
    DensityMatrix,
    electron_pair_space,
    frobenius_distance,
    random_density_matrix,
    two_level_space,
)

SP2 = two_level_space()
SP4 = electron_pair_space()


def dm(space, entries):
    return DensityMatrix(space, np.array(entries, dtype=complex))


def rk4_fraction_oracle(p_t, k_s, t_end, n_steps):
    """Independent RK4 integration of the fraction rate equations."""
    h = t_end / n_steps
    f = np.array([1.0, 0.0])

    def rhs(y):
        return np.array(fraction_rates(min(y[0], 1.0), p_t, k_s))

    out = [f.copy()]
    for _ in range(n_steps):
        k1 = rhs(f)
        k2 = rhs(f + 0.5 * h * k1)
        k3 = rhs(f + 0.5 * h * k2)
        k4 = rhs(f + h * k3)
        f = f + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(f.copy())
    return np.array(out)


class TestMixtureFromInitial:
    def test_equal_mixture(self):
        mix = mixture_from_initial(dm(SP2, np.diag([0.5, 0.5])))
        assert mix.p_s == pytest.approx(0.5, abs=1e-15)
        assert mix.p_t == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(mix.rho_t.matrix, np.diag([0.0, 1.0]))

    def test_pure_singlet_has_no_rho_t(self):
        mix = mixture_from_initial(dm(SP2, np.diag([1.0, 0.0])))
        assert mix.p_t == 0.0
        assert mix.rho_t is None

    def test_projection_destroys_coherence(self):
        mix = mixture_from_initial(dm(SP2, 0.5 * np.ones((2, 2))))
        assert mix.p_t == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(mix.rho_t.matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            mixture_from_initial(dm(SP2, np.diag([0.25, 0.25])))


class TestFractionRates:
    def test_initial_condition(self):
        assert fraction_rates(1.0, 0.5, 1.0) == (-1.0, 0.5)

    def test_absorbing_at_zero(self):
        assert fraction_rates(0.0, 0.7, 3.0) == (0.0, 0.0)

    def test_substitution(self):
        df0, dft = fraction_rates(0.5, 0.25, 2.0)
        assert df0 == pytest.approx(-1.0, abs=1e-15)
        assert dft == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("f0,pt,k", [(-0.1, 0.5, 1.0), (1.1, 0.5, 1.0), (0.5, 1.5, 1.0), (0.5, 0.5, -1.0)])
    def test_domain_violations(self, f0, pt, k):
        with pytest.raises(ValueError):
            fraction_rates(f0, pt, k)


class TestKineticFractions:
    def test_initial_condition(self):
        assert kinetic_fractions(0.0, 0.5, 1.0) == (1.0, 0.0)

    def test_half_life(self):
        f0, ft = kinetic_fractions(math.log(2.0), 0.5, 1.0)
        assert f0 == pytest.approx(0.5, abs=1e-15)
        assert ft == pytest.approx(0.25, abs=1e-15)

    def test_long_time_asymptote(self):
        f0, ft = kinetic_fractions(50.0, 0.3, 1.0)
        assert f0 == pytest.approx(0.0, abs=1e-20)
        assert ft == pytest.approx(0.3, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            kinetic_fractions(-1.0, 0.5, 1.0)

    def test_array_input(self):
        t = np.array([0.0, 1.0, 2.0])
        f0, ft = kinetic_fractions(t, 0.5, 1.0)
        assert np.allclose(f0, np.exp(-t))
        assert np.allclose(ft, 0.5 * (1.0 - np.exp(-t)))

    @pytest.mark.parametrize("p_t", [0.0, 0.3, 1.0])
    def test_matches_rk4_integration(self, p_t):
        k_s, t_end, n_steps = 1.0, 4.0, 4000
        traj = rk4_fraction_oracle(p_t, k_s, t_end, n_steps)
        times = np.linspace(0.0, t_end, n_steps + 1)
        for idx in range(0, n_steps + 1, 500):
            f0, ft = kinetic_fractions(times[idx], p_t, k_s)
            assert abs(traj[idx, 0] - f0) < 1e-10
            assert abs(traj[idx, 1] - ft) < 1e-10

    def test_survival_identity(self):
        # f_0 + f_T equals the surviving trace p_T + p_S e^{-k t} of the
        # unnormalized flow started from the same state
        for p_t in np.linspace(0.0, 1.0, 11):
            for t in np.linspace(0.0, 20.0, 41):
                f0, ft = kinetic_fractions(t, p_t, 1.0)
                expected = p_t + (1.0 - p_t) * math.exp(-t)
                assert abs(f0 + ft - expected) < 1e-12


class TestWeights:
    def test_corrected_arithmetic(self):
        w0, wt = corrected_weights(0.5, 0.25)
        assert w0 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert wt == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_corrected_time_zero(self):
        assert corrected_weights(1.0, 0.0) == (1.0, 0.0)

    def test_corrected_frozen_value(self):
        # f_0, f_T at k_S t = 1, p_T = 0.5
        e1 = math.exp(-1.0)
        w0, wt = corrected_weights(e1, 0.5 * (1.0 - e1))
        assert w0 == pytest.approx(0.5378828427399902, abs=1e-15)
        assert wt == pytest.approx(0.4621171572600097, abs=1e-15)

    def test_all_reacted(self):
        with pytest.raises(AllReacted):
            corrected_weights(0.0, 0.0)

    def test_all_reacted_on_arrays_names_the_first_total(self):
        f0 = np.array([1.0, 0.5, 1e-301, 0.0])
        with pytest.raises(AllReacted, match=r"^surviving fraction 1\.000e-301 at or below floor 1\.0e-300$"):
            corrected_weights(f0, np.zeros(4))

    @pytest.mark.parametrize("scheme", ["corrected", "kominis"])
    def test_weights_at_over_an_array_is_the_scalar_call_per_time(self, scheme):
        mix = mixture_from_initial(dm(SP2, np.diag([0.7, 0.3])))
        times = np.linspace(0.0, 9.0, 37)
        w_0, w_t = weights_at(times, mix, 1.3, scheme)
        for t, a, b in zip(times, w_0, w_t):
            assert (a, b) == weights_at(t, mix, 1.3, scheme)

    def test_kominis_time_zero(self):
        assert kominis_weights(0.0, 1.0) == (1.0, 0.0)

    def test_kominis_half_life(self):
        w0, wt = kominis_weights(math.log(2.0), 1.0)
        assert w0 == pytest.approx(0.5, abs=1e-15)
        assert wt == pytest.approx(0.5, abs=1e-15)

    def test_kominis_unit_time(self):
        w0, wt = kominis_weights(1.0, 1.0)
        assert w0 == pytest.approx(0.36787944117144233, abs=1e-15)
        assert wt == pytest.approx(0.6321205588285577, abs=1e-15)

    def test_kominis_negative_time(self):
        with pytest.raises(ValueError):
            kominis_weights(-0.5, 1.0)

    @given(
        t=st.floats(min_value=0.0, max_value=50.0),
        p_t=st.floats(min_value=0.0, max_value=1.0),
        k_s=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_weights_sum_to_one(self, t, p_t, k_s):
        f0, ft = kinetic_fractions(t, p_t, k_s)
        w0, wt = corrected_weights(f0, ft)
        assert abs(w0 + wt - 1.0) < 1e-15
        v0, vt = kominis_weights(t, k_s)
        assert abs(v0 + vt - 1.0) < 1e-15

    def test_weights_at_dispatch(self):
        mix = mixture_from_initial(dm(SP2, np.diag([0.5, 0.5])))
        assert weights_at(1.0, mix, 1.0, "corrected")[0] == pytest.approx(
            0.5378828427399902, abs=1e-15
        )
        assert weights_at(1.0, mix, 1.0, "kominis")[0] == pytest.approx(
            math.exp(-1.0), abs=1e-15
        )
        with pytest.raises(ValueError, match="unknown weight scheme"):
            weights_at(1.0, mix, 1.0, "bogus")

    def test_disputed_weights_diverge_except_at_full_triplet(self):
        times = np.linspace(0.01, 10.0, 200)
        for p_t in (0.1, 0.25, 0.5, 0.75, 0.9):
            f0, ft = kinetic_fractions(times, p_t, 1.0)
            w0_corr = f0 / (f0 + ft)
            w0_dis = np.exp(-times)
            assert np.max(np.abs(w0_corr - w0_dis)) > 0.0
        f0, ft = kinetic_fractions(times, 1.0, 1.0)
        assert np.max(np.abs(f0 / (f0 + ft) - np.exp(-times))) < 1e-15


class TestReconstruct:
    def setup_method(self):
        self.mix = mixture_from_initial(dm(SP2, np.diag([0.5, 0.5])))

    def test_pure_initial(self):
        assert reconstruct((1.0, 0.0), self.mix) is self.mix.rho_0

    def test_fully_projected(self):
        rho = reconstruct((0.0, 1.0), self.mix)
        assert frobenius_distance(rho, self.mix.rho_t) == 0.0

    def test_hand_arithmetic(self):
        rho = reconstruct((2.0 / 3.0, 1.0 / 3.0), self.mix)
        assert np.allclose(rho.matrix, np.diag([1.0 / 3.0, 2.0 / 3.0]), atol=1e-15)

    def test_missing_rho_t(self):
        pure = mixture_from_initial(dm(SP2, np.diag([1.0, 0.0])))
        with pytest.raises(ValueError, match="rho_t"):
            reconstruct((0.5, 0.5), pure)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            reconstruct((0.5, 0.4), self.mix)

    def test_reconstruction_is_normalized(self):
        for seed in range(10):
            mix = mixture_from_initial(random_density_matrix(SP4, seed))
            for t in (0.0, 0.3, 1.0, 5.0):
                w = weights_at(t, mix, 1.0, "corrected")
                assert reconstruct(w, mix).trace == pytest.approx(1.0, abs=1e-13)


class TestWeightRate:
    def setup_method(self):
        self.mix = mixture_from_initial(dm(SP2, np.diag([0.5, 0.5])))

    def test_initial_condition(self):
        rate = weight_rate((1.0, 0.0), self.mix.rho_0, self.mix, 1.0)
        assert rate == pytest.approx(-0.5, abs=1e-15)

    def test_zero_weight(self):
        rho_nr = reconstruct((0.0, 1.0), self.mix)
        assert weight_rate((0.0, 1.0), rho_nr, self.mix, 1.0) == 0.0

    def test_hand_value(self):
        rho_nr = dm(SP2, np.diag([1.0 / 3.0, 2.0 / 3.0]))
        rate = weight_rate((2.0 / 3.0, 1.0 / 3.0), rho_nr, self.mix, 1.0)
        assert rate == pytest.approx(-4.0 / 9.0, abs=1e-14)

    def test_inconsistent_state_rejected(self):
        rho_nr = dm(SP2, np.diag([0.9, 0.1]))
        with pytest.raises(MixtureInconsistent):
            weight_rate((0.5, 0.5), rho_nr, self.mix, 1.0)

    def test_trace_form_equals_kinetic_form_on_mixtures(self):
        for space in (SP2, SP4):
            for seed in range(10):
                mix = mixture_from_initial(random_density_matrix(space, seed))
                for t in (0.0, 0.5, 2.0, 8.0):
                    w = weights_at(t, mix, 1.0, "corrected")
                    rho_nr = reconstruct(w, mix)
                    tr_t = float(
                        np.real(np.trace(space.triplet_mask * rho_nr.matrix))
                    )
                    assert abs(tr_t - (w[1] + mix.p_t * w[0])) < 1e-13
                    weight_rate(w, rho_nr, mix, 1.0)  # must not raise

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        four_level=st.booleans(),
        tau=st.floats(min_value=0.0, max_value=10.0),
        k_s=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_never_raises_on_mixture_states_at_any_rate(self, seed, four_level, tau, k_s):
        mix = mixture_from_initial(random_density_matrix(SP4 if four_level else SP2, seed))
        w = weights_at(tau / k_s, mix, k_s, "corrected")
        weight_rate(w, reconstruct(w, mix), mix, k_s)  # must not raise

    def test_finite_difference_identity(self):
        k_s, h = 1.0, 1e-5
        for seed in range(5):
            mix = mixture_from_initial(random_density_matrix(SP2, seed))
            for t in (0.1, 0.5, 1.0, 2.0, 5.0):
                w = weights_at(t, mix, k_s, "corrected")
                rate = weight_rate(w, reconstruct(w, mix), mix, k_s)
                w_plus = weights_at(t + h, mix, k_s, "corrected")
                w_minus = weights_at(t - h, mix, k_s, "corrected")
                fd = (w_plus[0] - w_minus[0]) / (2.0 * h)
                assert abs(rate - fd) < 1e-6

    def test_frozen_unit_time_value(self):
        # closed form: w_0(t) = 2 e^{-t} / (1 + e^{-t}) at p_T = 1/2, k_S = 1
        w = weights_at(1.0, self.mix, 1.0, "corrected")
        rate = weight_rate(w, reconstruct(w, self.mix), self.mix, 1.0)
        assert rate == pytest.approx(-0.39322386648296365, abs=1e-12)

    def test_full_triplet_limit_matches_disputed_rate(self):
        mix = mixture_from_initial(dm(SP2, np.diag([0.0, 1.0])))
        for t in (0.2, 1.0, 3.0):
            w = weights_at(t, mix, 1.0, "corrected")
            rate = weight_rate(w, reconstruct(w, mix), mix, 1.0)
            assert rate == pytest.approx(-w[0], abs=1e-14)


class TestMixtureRhs:
    def test_pure_singlet_is_stationary(self):
        mix = mixture_from_initial(dm(SP2, np.diag([1.0, 0.0])))
        out = mixture_rhs(mix, (1.0, 0.0), 1.0)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_time_zero_equal_mixture(self):
        mix = mixture_from_initial(dm(SP2, np.diag([0.5, 0.5])))
        out = mixture_rhs(mix, (1.0, 0.0), 1.0)
        assert np.allclose(out, np.diag([-0.25, 0.25]), atol=1e-15)

    def test_fully_projected_is_stationary(self):
        mix = mixture_from_initial(dm(SP2, np.diag([0.5, 0.5])))
        out = mixture_rhs(mix, (0.0, 1.0), 1.0)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_matches_normalized_flow_on_mixtures(self):
        params = RateParams(k_s=1.0)
        for space in (SP2, SP4):
            flow = rhs_function(ModelKind.NORMALIZED_JONES_HORE, space, params)
            for seed in range(10):
                mix = mixture_from_initial(random_density_matrix(space, seed))
                for t in (0.0, 0.4, 1.0, 4.0):
                    w = weights_at(t, mix, 1.0, "corrected")
                    lhs = mixture_rhs(mix, w, 1.0)
                    rhs = flow(reconstruct(w, mix).matrix)
                    assert frobenius_distance(lhs, rhs) < 1e-14
