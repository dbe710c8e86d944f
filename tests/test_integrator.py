import math

import numpy as np
import pytest

from rpmix import integrator
from rpmix.integrator import (
    IntegrationError,
    analytic_haberkorn,
    analytic_jones_hore,
    integrate,
)
from rpmix.models import ModelKind, ModelSingular, RateParams, rhs_function
from rpmix.spinspace import (
    DensityMatrix,
    electron_pair_space,
    frobenius_distance,
    make_space,
    preset_state,
    random_density_matrix,
    two_level_space,
)

SP2 = two_level_space()
SP4 = electron_pair_space()
K1 = RateParams(k_s=1.0)


def dm(space, entries):
    return DensityMatrix(space, np.array(entries, dtype=complex))


class TestIntegrateBasics:
    def test_pure_triplet_fixed_point(self):
        traj = integrate(
            ModelKind.JONES_HORE, dm(SP2, np.diag([0.0, 1.0])), K1,
            [0.0, 1.0, 2.0], method="rk4-fixed",
        )
        for state in traj.states:
            assert frobenius_distance(state, traj.states[0]) < 1e-14

    def test_equal_mixture_decay(self):
        traj = integrate(
            ModelKind.JONES_HORE, dm(SP2, np.diag([0.5, 0.5])), K1,
            np.linspace(0.0, 1.0, 11), method="rk4-fixed",
        )
        expected = np.diag([0.5 * math.exp(-1.0), 0.5])
        assert frobenius_distance(traj.states[-1], expected) < 1e-10

    def test_normalized_flow_pure_singlet_constant(self):
        rho = dm(SP2, np.diag([1.0, 0.0]))
        traj = integrate(
            ModelKind.NORMALIZED_JONES_HORE, rho, K1,
            np.linspace(0.0, 5.0, 6), method="rk4-fixed",
        )
        assert frobenius_distance(traj.states[-1], rho) < 1e-13

    def test_first_state_is_initial_state(self):
        rho = random_density_matrix(SP4, 9)
        traj = integrate(ModelKind.HABERKORN, rho, K1, [0.0, 0.5], method="rk4-fixed")
        assert traj.states[0] is rho

    def test_observables_match_states(self):
        rho = dm(SP2, np.diag([0.5, 0.5]))
        traj = integrate(ModelKind.JONES_HORE, rho, K1, [0.0, 1.0], method="rk4-fixed")
        assert traj.observables.trace[0] == pytest.approx(1.0, abs=1e-15)
        assert traj.observables.p_singlet[-1] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-10)
        assert traj.observables.p_triplet[-1] == pytest.approx(0.5, abs=1e-10)


class TestIntegrateValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            integrate(ModelKind.JONES_HORE, random_density_matrix(SP2, 0), K1, [0.0, 1.0], method="euler")

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            integrate(ModelKind.JONES_HORE, random_density_matrix(SP2, 0), K1, [1.0, 2.0])

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            integrate(ModelKind.JONES_HORE, random_density_matrix(SP2, 0), K1, [0.0, 1.0, 1.0])

    def test_invalid_initial_state(self):
        bad = dm(SP2, [[0.5, 0.6], [0.6, 0.5]])
        with pytest.raises(IntegrationError, match="fails validation"):
            integrate(ModelKind.JONES_HORE, bad, K1, [0.0, 1.0])

    def test_normalized_model_needs_unit_trace(self):
        rho = dm(SP2, np.diag([0.25, 0.25]))
        with pytest.raises(IntegrationError, match="unit-trace"):
            integrate(ModelKind.NORMALIZED_JONES_HORE, rho, K1, [0.0, 1.0])

    def test_kominis_from_pure_singlet_is_singular(self):
        rho = dm(SP2, np.diag([1.0, 0.0]))
        with pytest.raises(ModelSingular, match="at t in"):
            integrate(ModelKind.NORMALIZED_KOMINIS, rho, K1, np.linspace(0.0, 1.0, 11), method="rk4-fixed")


class TestAnalyticPropagators:
    def test_identity_at_zero_time(self):
        rho = random_density_matrix(SP4, 2)
        assert frobenius_distance(analytic_jones_hore(rho, K1, 0.0), rho) == 0.0
        assert frobenius_distance(analytic_haberkorn(rho, K1, 0.0), rho) == 0.0

    def test_jones_hore_equal_mixture(self):
        out = analytic_jones_hore(dm(SP2, np.diag([0.5, 0.5])), K1, 1.0)
        assert np.allclose(out.matrix, np.diag([0.5 * math.exp(-1.0), 0.5]), atol=1e-16)

    def test_jones_hore_coherence_decays_at_full_rate(self):
        out = analytic_jones_hore(dm(SP2, 0.5 * np.ones((2, 2))), K1, 1.0)
        e = 0.5 * math.exp(-1.0)
        assert np.allclose(out.matrix, [[e, e], [e, 0.5]], atol=1e-16)

    def test_haberkorn_pure_triplet_constant(self):
        rho = dm(SP2, np.diag([0.0, 1.0]))
        assert frobenius_distance(analytic_haberkorn(rho, K1, 7.3), rho) == 0.0

    def test_haberkorn_coherence_decays_at_half_rate(self):
        out = analytic_haberkorn(dm(SP2, 0.5 * np.ones((2, 2))), K1, 1.0)
        ss = 0.5 * math.exp(-1.0)
        st = 0.5 * math.exp(-0.5)
        assert np.allclose(out.matrix, [[ss, st], [st, 0.5]], atol=1e-16)

    def test_populations_agree_for_diagonal_initial_state(self):
        rho = dm(SP4, np.diag([0.4, 0.3, 0.2, 0.1]))
        a = analytic_jones_hore(rho, K1, 1.0)
        b = analytic_haberkorn(rho, K1, 1.0)
        assert np.allclose(np.diagonal(a.matrix), np.diagonal(b.matrix), atol=1e-16)

    def test_rejects_negative_time(self):
        rho = random_density_matrix(SP2, 1)
        with pytest.raises(ValueError):
            analytic_jones_hore(rho, K1, -0.1)


class TestOracleAgreement:
    GRID = np.linspace(0.0, 10.0, 51)

    @pytest.mark.parametrize("model,oracle", [
        (ModelKind.JONES_HORE, analytic_jones_hore),
        (ModelKind.HABERKORN, analytic_haberkorn),
    ])
    def test_rk4_battery_against_analytic(self, model, oracle):
        worst = 0.0
        for space, n_states in ((SP2, 50), (SP4, 50)):
            for seed in range(n_states):
                rho = random_density_matrix(space, seed)
                traj = integrate(model, rho, K1, self.GRID, method="rk4-fixed", dt=1e-3)
                for t, state in zip(traj.times, traj.states):
                    worst = max(worst, frobenius_distance(state, oracle(rho, K1, t)))
        assert worst <= 1e-8, worst

    def test_rk4_convergence_order(self):
        grid = np.linspace(0.0, 2.0, 21)
        states = [random_density_matrix(SP2, s) for s in range(3)]
        states += [random_density_matrix(SP4, s) for s in range(3)]

        def max_err(dt):
            worst = 0.0
            for rho in states:
                traj = integrate(ModelKind.JONES_HORE, rho, K1, grid, method="rk4-fixed", dt=dt)
                for t, state in zip(traj.times, traj.states):
                    worst = max(worst, frobenius_distance(state, analytic_jones_hore(rho, K1, t)))
            return worst

        coarse, fine = max_err(0.05), max_err(0.025)
        assert coarse / fine >= 12.0

    def test_adaptive_meets_tolerance(self):
        for space in (SP2, SP4):
            for seed in range(10):
                rho = random_density_matrix(space, seed)
                traj = integrate(ModelKind.JONES_HORE, rho, K1, self.GRID, method="rk45-adaptive")
                worst = max(
                    frobenius_distance(s, analytic_jones_hore(rho, K1, t))
                    for t, s in zip(traj.times, traj.states)
                )
                assert worst <= 1e-9, (space.dim, seed, worst)


class TestTrajectoryInvariants:
    def test_normalized_flows_preserve_structure(self):
        grid = np.linspace(0.0, 10.0, 101)
        for seed in range(10):
            rho = random_density_matrix(SP4, seed)
            traj = integrate(ModelKind.NORMALIZED_JONES_HORE, rho, K1, grid, method="rk4-fixed", dt=1e-3)
            assert np.max(np.abs(traj.observables.trace - 1.0)) <= 1e-9
            assert traj.observables.min_eigenvalue.min() >= -1e-9

    def test_snapshots_exactly_hermitian(self):
        rho = random_density_matrix(SP4, 3)
        traj = integrate(ModelKind.NORMALIZED_JONES_HORE, rho, K1, np.linspace(0.0, 5.0, 26), method="rk4-fixed", dt=1e-3)
        for state in traj.states:
            assert state.hermiticity_error() == 0.0

    def test_deterministic_observables(self):
        grid = np.linspace(0.0, 4.0, 41)
        runs = []
        for _ in range(2):
            rho = random_density_matrix(SP4, 17)
            traj = integrate(ModelKind.NORMALIZED_JONES_HORE, rho, K1, grid, method="rk45-adaptive")
            runs.append(
                (
                    traj.observables.trace.tobytes(),
                    traj.observables.p_singlet.tobytes(),
                    traj.observables.p_triplet.tobytes(),
                    traj.observables.min_eigenvalue.tobytes(),
                )
            )
        assert runs[0] == runs[1]


# The generator-sum Fehlberg step the stage-array step replaced, kept
# literally as the reference the new step must reproduce bit for bit.
_REF_A = (
    (),
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_REF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)
_REF_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)


def reference_rkf45_step(f, m, h):
    k = [f(m)]
    for row in _REF_A[1:]:
        stage = m + h * sum(a * ki for a, ki in zip(row, k))
        k.append(f(stage))
    m4 = m + h * sum(b * ki for b, ki in zip(_REF_B4, k) if b != 0.0)
    m5 = m + h * sum(b * ki for b, ki in zip(_REF_B5, k) if b != 0.0)
    return m5, m5 - m4


def reference_observe(states):
    n = len(states)
    trace, p_s, p_t, min_eig = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for i, state in enumerate(states):
        diag = np.diagonal(state.matrix).real
        trace[i] = diag.sum()
        p_s[i] = diag @ state.space.singlet_diag
        p_t[i] = diag @ state.space.triplet_diag
        min_eig[i] = float(np.linalg.eigvalsh(state.matrix)[0])
    return trace, p_s, p_t, min_eig


def assert_bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and np.array_equal(a, b)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


SPACES = (SP2, SP4, make_space(8, (0, 1)))


def step_states(space):
    """Full-rank, diagonal (signed zeros off the diagonal) and coherent states."""
    d = space.dim
    diag = np.diag(np.linspace(1.0, 2.0, d) / np.linspace(1.0, 2.0, d).sum()).astype(complex)
    coherent = 0.5 * diag + 0.5 * np.full((d, d), 1.0 / d)
    negative_zeros = np.where(np.eye(d, dtype=bool), diag, complex(-0.0, -0.0))
    states = [random_density_matrix(space, seed).matrix for seed in (0, 7)]
    return states + [diag, negative_zeros, coherent]


class TestStageArrayStep:
    @pytest.mark.parametrize("space", SPACES, ids=lambda sp: f"d{sp.dim}")
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_matches_generator_sum_reference(self, model, space):
        f = rhs_function(model, space, RateParams(k_s=1.7))
        for m in step_states(space):
            for h in (1e-4, 0.013, 0.37, 2.5):
                new = integrator._rkf45_step(f, m, h)
                ref = reference_rkf45_step(f, m, h)
                assert_bit_equal(new[0], ref[0])
                assert_bit_equal(new[1], ref[1])

    @pytest.mark.parametrize("space", SPACES, ids=lambda sp: f"d{sp.dim}")
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    @pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
    def test_observables_match_per_state_loop(self, model, space, method):
        grid = np.linspace(0.0, 4.0, 201)
        for rho in (random_density_matrix(space, 4), preset_state(space, "equal-mixture")):
            traj = integrate(model, rho, RateParams(k_s=2.3), grid, method=method, dt=1e-2)
            ref = reference_observe(traj.states)
            obs = traj.observables
            for new, old in zip((obs.trace, obs.p_singlet, obs.p_triplet, obs.min_eigenvalue), ref):
                assert_bit_equal(new, old)
            # the gate's stacked trace must equal DensityMatrix.trace
            stack = np.array([s.matrix for s in traj.states])
            assert_bit_equal(np.trace(stack, axis1=1, axis2=2).real, [s.trace for s in traj.states])


class TestSnapshotGate:
    GRID = [0.0, 0.5, 1.0, 1.5, 2.0]

    def run_with_flow(self, monkeypatch, flow):
        monkeypatch.setattr(integrator, "rhs_function", lambda model, space, params: lambda m: flow)
        integrate(ModelKind.JONES_HORE, dm(SP2, np.diag([0.5, 0.5])), K1, self.GRID)

    def test_negative_population_names_first_snapshot(self, monkeypatch):
        # rho_00 = 0.5 - 0.6 t turns negative between t = 0.5 and t = 1
        with pytest.raises(IntegrationError, match=r"^positivity violated at t = 1: min eigenvalue -1\.000e-01$"):
            self.run_with_flow(monkeypatch, np.diag([-0.6, 0.0]).astype(complex))

    def test_trace_above_one_names_first_snapshot(self, monkeypatch):
        with pytest.raises(IntegrationError, match=r"^trace out of range at t = 0\.5: 1\.125$"):
            self.run_with_flow(monkeypatch, np.diag([0.0, 0.25]).astype(complex))

    def test_positivity_reported_before_trace_at_one_snapshot(self, monkeypatch):
        # at t = 1 both rho_00 = -0.5 and the trace 0 are out of range
        with pytest.raises(IntegrationError, match=r"^positivity violated at t = 1: min eigenvalue -5\.000e-01$"):
            self.run_with_flow(monkeypatch, np.diag([-1.0, 0.0]).astype(complex))
