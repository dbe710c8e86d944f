import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpmix import integrator, models
from rpmix.integrator import (
    IntegrationError,
    analytic_haberkorn,
    analytic_jones_hore,
    integrate,
    split_blocks,
)
from rpmix.models import ModelKind, ModelSingular, RateParams, block_rates, rhs_function
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


# The generator-sum one-matrix Fehlberg step, kept literally for the reference loop below.
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


def reference_rkf45_step(f, m, h, k1):
    """One trial step from m, whose first stage k1 = f(m) is given."""
    k = [k1]
    for row in _REF_A[1:]:
        stage = m + h * sum(a * ki for a, ki in zip(row, k))
        k.append(f(stage))
    m4 = m + h * sum(b * ki for b, ki in zip(_REF_B4, k) if b != 0.0)
    m5 = m + h * sum(b * ki for b, ki in zip(_REF_B5, k) if b != 0.0)
    return m5, m5 - m4


def reference_rkf45_states(model, rho, params, grid, rel_tol, abs_tol):
    """The one-matrix Fehlberg loop and controller the block-factor loop replaced, kept literally.

    Returns the (T, d, d) snapshot stack, or raises what integrate raises
    when the loop meets a singular flow, a non-finite error estimate, a
    step underflow or a non-finite state. A singular trial stage rejects
    the step with the 0.2 shrink floor and raises only at MIN_STEP; a
    singular accepted state raises at once.
    """
    f = rhs_function(model, rho.space, params)
    t_end = float(grid[-1]) if grid[-1] > 0 else 1.0
    m = rho.matrix
    states = [m]
    h = 0.1 * t_end
    for t0, t1 in zip(grid[:-1], grid[1:]):
        t = t0
        try:
            while t < t1 - 1e-15 * max(1.0, t1):
                h = min(h, t1 - t)
                k1 = f(m)
                try:
                    trial, err = reference_rkf45_step(f, m, h, k1)
                except ModelSingular:
                    if h <= integrator.MIN_STEP:
                        raise
                    h = max(0.2 * h, integrator.MIN_STEP)
                    continue
                scale = abs_tol + rel_tol * np.maximum(np.abs(m), np.abs(trial))
                err_ratio = float(np.max(np.abs(err) / scale))
                if not math.isfinite(err_ratio):
                    raise IntegrationError(f"non-finite error estimate at t = {t:.12g}")
                if err_ratio <= 1.0:
                    t += h
                    m = 0.5 * (trial + trial.conj().T)
                    factor = 5.0 if err_ratio == 0.0 else min(5.0, 0.9 * err_ratio ** -0.2)
                else:
                    factor = max(0.2, 0.9 * err_ratio ** -0.2)
                    if h <= integrator.MIN_STEP:
                        raise IntegrationError(
                            f"step size underflow at t = {t:.12g} (error ratio {err_ratio:.3g})"
                        )
                h = min(max(h * factor, integrator.MIN_STEP), t_end)
        except ModelSingular as exc:
            raise ModelSingular(f"at t in ({t0:.6g}, {t1:.6g}]: {exc}") from exc
        if not np.all(np.isfinite(m.view(float))):
            raise IntegrationError(f"invalid state at t = {t1:.6g}: density matrix contains non-finite entries")
        states.append(m)
    return np.array(states)


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


class TestSnapshotObservables:
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


NJH, NK = ModelKind.NORMALIZED_JONES_HORE, ModelKind.NORMALIZED_KOMINIS
JH, HAB = ModelKind.JONES_HORE, ModelKind.HABERKORN


class TestTrajectoryStack:
    GRID = np.linspace(0.0, 8.0, 41)

    def test_stack_is_read_only(self):
        traj = integrate(ModelKind.HABERKORN, random_density_matrix(SP4, 9), K1, self.GRID)
        assert not traj.stack.flags.writeable
        with pytest.raises(ValueError):
            traj.stack[1, 0, 0] = 0.0

    @pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
    @pytest.mark.parametrize("space", SPACES, ids=lambda sp: f"d{sp.dim}")
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_states_are_the_stack_bit_for_bit(self, model, space, method):
        k_s = 1.7
        for m in step_states(space):
            rho = DensityMatrix(space, m)
            traj = integrate(model, rho, RateParams(k_s=k_s), self.GRID / k_s, method=method, dt=0.01 / k_s)
            assert traj.stack.shape == (self.GRID.size, space.dim, space.dim)
            assert traj.states[0] is rho
            assert len(traj.states) == self.GRID.size
            # the snapshot list a Trajectory used to hold, signed zeros included
            assert_bit_equal(traj.stack, np.array([s.matrix for s in traj.states]))
            for state, row in zip(traj.states, traj.stack):
                assert state.space is space
                assert_bit_equal(state.matrix, row)

    def test_factors_are_read_only(self):
        traj = integrate(ModelKind.HABERKORN, random_density_matrix(SP4, 9), K1, self.GRID)
        assert traj.factors.shape == (self.GRID.size, 3)
        assert not traj.factors.flags.writeable
        with pytest.raises(ValueError):
            traj.factors[1, 0] = 0.0

    @pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
    @pytest.mark.parametrize("space", SPACES, ids=lambda sp: f"d{sp.dim}")
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_stack_is_the_factors_on_the_blocks(self, model, space, method):
        # snapshot 0 is the caller's matrix; every later one is the factors times the split blocks
        for m in step_states(space):
            rho = DensityMatrix(space, m)
            traj = integrate(model, rho, K1, self.GRID, method=method, dt=0.01)
            blocks, _, _ = split_blocks(rho)
            a_ss, a_st, tau = traj.factors.T[:, :, None, None]
            rebuilt = (a_ss * blocks[0] + a_st * blocks[1] + tau * blocks[2]).view(complex)
            assert_bit_equal(traj.stack[1:], rebuilt[1:])

    def test_split_blocks_add_up_to_the_state(self):
        for seed, space in enumerate(SPACES):
            rho = random_density_matrix(space, seed)
            blocks, p_s, tau0 = split_blocks(rho)
            whole = (blocks[0] + blocks[1] + tau0 * blocks[2]).view(complex)
            assert np.max(np.abs(whole - rho.matrix)) < 1e-15
            assert p_s + tau0 == pytest.approx(1.0, abs=1e-15)
            assert p_s == pytest.approx(float(np.diagonal(rho.matrix).real @ space.singlet_diag), abs=1e-16)

    def test_trajectories_compare_by_identity(self):
        # numpy fields make a field-wise == ambiguous; identity is what is left
        rho = random_density_matrix(SP4, 9)
        a, b = (integrate(ModelKind.HABERKORN, rho, K1, self.GRID) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert a.observables == a.observables and a.observables != b.observables
        assert len({a.observables, b.observables}) == 2

    def test_integrate_builds_no_density_matrix(self, monkeypatch):
        rho = random_density_matrix(SP4, 3)
        built = []
        post_init = DensityMatrix.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting_post_init)
        for method in integrator.METHODS:
            traj = integrate(NJH, rho, K1, self.GRID, method=method)
        assert built == []
        traj.states
        assert len(built) == self.GRID.size - 1

    def test_diverged_run_names_its_first_non_finite_snapshot(self):
        # k_S dt = 10 is far outside RK4's stability region; t = 30 is the first snapshot to overflow
        rho, grid = preset_state(SP2, "equal-mixture"), np.linspace(0.0, 50.0, 6)
        message = r"^invalid state at t = 30: density matrix contains non-finite entries$"
        with pytest.raises(IntegrationError, match=message):
            integrate(NJH, rho, K1, grid, method="rk4-fixed", dt=10.0)


class TestSnapshotGate:
    TIMES = np.array([0.0, 0.5, 1.0, 1.5, 2.0])

    def gate(self, slope):
        # the snapshots of rho(t) = diag(0.5, 0.5) + t * slope, a flow with a constant derivative
        rho = dm(SP2, np.diag([0.5, 0.5]))
        stack = np.array([rho.matrix + t * slope for t in self.TIMES])
        integrator._gate(self.TIMES, SP2, stack)

    def test_negative_population_names_first_snapshot(self):
        # rho_00 = 0.5 - 0.6 t turns negative between t = 0.5 and t = 1
        with pytest.raises(IntegrationError, match=r"^positivity violated at t = 1: min eigenvalue -1\.000e-01$"):
            self.gate(np.diag([-0.6, 0.0]))

    def test_trace_above_one_names_first_snapshot(self):
        with pytest.raises(IntegrationError, match=r"^trace out of range at t = 0\.5: 1\.125$"):
            self.gate(np.diag([0.0, 0.25]))

    def test_positivity_reported_before_trace_at_one_snapshot(self):
        # at t = 1 both rho_00 = -0.5 and the trace 0 are out of range
        with pytest.raises(IntegrationError, match=r"^positivity violated at t = 1: min eigenvalue -5\.000e-01$"):
            self.gate(np.diag([-1.0, 0.0]))


def outcome_of(fn):
    try:
        return fn()
    except (IntegrationError, ModelSingular) as exc:
        return exc


# the largest entry deviation allowed between the block-factor RK4 stepper
# and the literal matrix loop; the worst measured, over 4 flows, d 2/4/8,
# 8 states and k_S dt from 1e-3 to 0.37 (up to 12,000 substeps), is 3.4e-15
RK4_BOUND = 5e-14


def reference_rk4_states(model, rho, params, grid, dt):
    """The one-matrix RK4 loop the block-factor loop replaced, kept literally.

    Returns the (T, d, d) snapshot stack, or raises what integrate raises
    when the loop meets a singular flow or a non-finite state.
    """
    f = rhs_function(model, rho.space, params)
    m = rho.matrix
    states = [m]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        n_sub = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
        h = (t1 - t0) / n_sub
        try:
            for _ in range(n_sub):
                k1 = f(m)
                k2 = f(m + (0.5 * h) * k1)
                k3 = f(m + (0.5 * h) * k2)
                k4 = f(m + h * k3)
                m = m + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
                m = 0.5 * (m + m.conj().T)
        except ModelSingular as exc:
            raise ModelSingular(f"at t in ({t0:.6g}, {t1:.6g}]: {exc}") from exc
        if not np.all(np.isfinite(m.view(float))):
            raise IntegrationError(f"invalid state at t = {t1:.6g}: density matrix contains non-finite entries")
        states.append(m)
    return np.array(states)


def assert_same_outcome(got, want, rho, grid, bound):
    """got's snapshots are want's within bound per entry, or got is want's error."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    if isinstance(got, IntegrationError) and not str(got).startswith("invalid state"):
        # the snapshot gate rejected a state; it must reject the loop's at the same snapshot
        with pytest.raises(IntegrationError) as gate:
            integrator._gate(np.asarray(grid, float), rho.space, want)
        assert str(gate.value).split(":")[0] == str(got).split(":")[0]
        return
    assert not isinstance(got, Exception), got
    assert got.stack.shape == want.shape
    assert np.max(np.abs(got.stack - want)) <= bound


def assert_matches_matrix_loop(model, rho, params, grid, dt):
    """integrate's fixed-step run is the matrix loop's within RK4_BOUND, or raises its error."""
    got = outcome_of(lambda: integrate(model, rho, params, grid, method="rk4-fixed", dt=dt))
    want = outcome_of(lambda: reference_rk4_states(model, rho, params, grid, dt))
    assert_same_outcome(got, want, rho, grid, RK4_BOUND)


def block_state(space, kind, seed):
    """A random full-rank state, a diagonal one with -0.0 off the diagonal, or a pure superposition."""
    if kind == "random":
        return random_density_matrix(space, seed)
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        pops = rng.uniform(0.1, 1.0, space.dim)
        m = np.where(np.eye(space.dim, dtype=bool), np.diag(pops / pops.sum()), complex(-0.0, -0.0))
        return DensityMatrix(space, m)
    psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    psi /= np.linalg.norm(psi)
    return DensityMatrix(space, np.outer(psi, psi.conj()))


class TestBlockRK4:
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    @settings(max_examples=15, deadline=None)
    @given(
        space=st.sampled_from(SPACES),
        kind=st.sampled_from(["random", "diagonal", "superposition"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        k_s=st.sampled_from([0.5, 1.0, 3.7]),
        k_dt=st.sampled_from([0.001, 0.01, 0.037, 0.1, 0.37]),
        steps=st.lists(st.floats(min_value=0.05, max_value=0.5), min_size=1, max_size=5),
    )
    def test_matches_the_matrix_loop(self, model, space, kind, seed, k_s, k_dt, steps):
        rho = block_state(space, kind, seed)
        grid = np.concatenate([[0.0], np.cumsum(steps)]) / k_s
        assert_matches_matrix_loop(model, rho, RateParams(k_s=k_s), grid, k_dt / k_s)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("model", [NJH, NK], ids=lambda m: m.value)
    def test_unstable_step_fails_as_the_matrix_loop_does(self, model):
        # k_S dt = 10 is far outside RK4's stability region
        rho = preset_state(SP2, "equal-mixture")
        with pytest.raises((IntegrationError, ModelSingular)):
            integrate(model, rho, K1, np.linspace(0.0, 50.0, 6), method="rk4-fixed", dt=10.0)
        assert_matches_matrix_loop(model, rho, K1, np.linspace(0.0, 50.0, 6), 10.0)

    @pytest.mark.parametrize("model", [NJH, NK], ids=lambda m: m.value)
    def test_unstable_step_warns_nothing(self, model):
        # the diverged snapshot fails with the matrix loop's error, and no numpy warning escapes
        grid = np.linspace(0.0, 50.0, 6)
        rho = preset_state(SP2, "equal-mixture")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = outcome_of(lambda: reference_rk4_states(model, rho, K1, grid, 10.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome_of(lambda: integrate(model, rho, K1, grid, method="rk4-fixed", dt=10.0))
        assert isinstance(want, Exception)
        assert type(got) is type(want) and str(got) == str(want)

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_snapshots_exactly_hermitian_from_a_non_hermitian_start(self, model):
        m = random_density_matrix(SP4, 5).matrix.copy()
        m[0, 1] += 1e-12  # within the Hermiticity tolerance of validate
        rho = DensityMatrix(SP4, m)
        traj = integrate(model, rho, K1, np.linspace(0.0, 2.0, 11), method="rk4-fixed", dt=1e-2)
        assert traj.states[0] is rho
        assert rho.hermiticity_error() > 0.0
        for state in traj.states[1:]:
            assert state.hermiticity_error() == 0.0

    @pytest.mark.parametrize("k_s, k_t_end", [(0.08619186517694007, 16.004689422986072), (0.096, 16.0)])
    def test_parted_step_sequences_stay_within_the_bound(self, k_s, k_t_end):
        # the two loops' step sequences part ways early in these runs;
        # they are the worst measured (1.85e-12 and 4.4e-12)
        grid = np.linspace(0.0, k_t_end / k_s, 289)
        rho = random_density_matrix(SP2, 3)
        assert_matches_adaptive_loop(JH, rho, RateParams(k_s=k_s), grid, *TOLERANCES["default"])

    def test_singular_flow_raises_the_matrix_loop_error(self):
        # normalized-kominis is undefined from the pure singlet
        rho = preset_state(SP4, "pure-singlet")
        assert_matches_matrix_loop(NK, rho, K1, np.linspace(0.0, 1.0, 11), 1e-2)

    def test_subnormal_triplet_population_reaches_the_triplet(self):
        # a triplet factor tau / tau_0 overflows here; tau itself stays at most 1
        rho = dm(SP2, np.diag([1.0, 5e-324]))
        traj = integrate(NJH, rho, K1, [0.0, 800.0], method="rk4-fixed", dt=1.0)
        assert traj.observables.p_triplet[-1] == 1.0
        assert_matches_matrix_loop(NJH, rho, K1, [0.0, 800.0], 1.0)

    def test_unit_trace_is_required_by_the_normalized_flows(self):
        rho = dm(SP2, np.diag([0.25, 0.25]))
        for model in (JH, HAB):
            assert isinstance(integrate(model, rho, K1, [0.0, 1.0], method="rk4-fixed", dt=0.1), integrator.Trajectory)
        for model in (NJH, NK):
            with pytest.raises(IntegrationError, match="unit-trace"):
                integrate(model, rho, K1, [0.0, 1.0], method="rk4-fixed", dt=0.1)


class TestBlockRates:
    @pytest.mark.parametrize("space", SPACES, ids=lambda sp: f"d{sp.dim}")
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_rates_times_blocks_are_the_flow(self, model, space):
        # route B and the kominis route step these rates, so they must
        # integrate the flow rhs_function defines
        k = 1.7
        f = rhs_function(model, space, RateParams(k_s=k))
        rates = block_rates(model, k)
        tt = space.triplet_mask
        block = np.add.outer(space.triplet_diag, space.triplet_diag).astype(int)  # SS 0, ST 1, TT 2
        states = step_states(space) + [random_density_matrix(space, seed).matrix for seed in range(20, 30)]
        for m in states:
            tau = float((tt * m).trace().real)
            c = np.array(rates(tau))[block]
            bound = 4.0 * np.finfo(float).eps * k * np.abs(m) * (1.0 + 1.0 / tau)
            assert np.all(np.abs(c * m - f(m)) <= bound)

    def test_kominis_rates_are_singular_below_the_floor(self):
        rates = block_rates(NK, 1.0)
        with pytest.raises(ModelSingular, match="normalized-kominis flow undefined") as exc:
            rates(0.5 * models.DENOM_FLOOR)
        with pytest.raises(ModelSingular) as lone:
            rhs_function(NK, SP2, K1)(np.diag([1.0, 0.5 * models.DENOM_FLOOR]).astype(complex))
        assert str(exc.value) == str(lone.value)


FIXED_POINTS = [
    (NJH, "pure-singlet"), (NJH, "pure-triplet"), (NK, "pure-triplet"), (HAB, "pure-triplet"), (JH, "pure-triplet"),
]


class TestFixedPoints:
    GRID = np.linspace(0.0, 3.0, 31)
    DT = 1e-2  # 10 substeps per snapshot, 300 in all

    @pytest.mark.parametrize("space", SPACES, ids=lambda sp: f"d{sp.dim}")
    @pytest.mark.parametrize("model, preset", FIXED_POINTS, ids=lambda v: getattr(v, "value", v))
    def test_initial_state_returns_bit_for_bit(self, model, preset, space):
        rho = preset_state(space, preset)
        traj = integrate(model, rho, RateParams(k_s=1.7), self.GRID, method="rk4-fixed", dt=self.DT)
        for state in traj.states:
            assert_bit_equal(state.matrix, rho.matrix)
        # every snapshot is still its own validated DensityMatrix
        assert len({id(state) for state in traj.states}) == self.GRID.size

    @pytest.mark.parametrize("method, dt", [("rk45-adaptive", None), ("rk4-fixed", 20.0)])
    @pytest.mark.parametrize("space", SPACES, ids=lambda sp: f"d{sp.dim}")
    @pytest.mark.parametrize("model, preset", FIXED_POINTS, ids=lambda v: getattr(v, "value", v))
    def test_long_horizon_returns_bit_for_bit(self, model, preset, space, method, dt):
        # k_S t = 20 per snapshot: a factor of an empty block stepped there
        # would overflow long before t = 2000 and turn its zeros into NaN
        rho = preset_state(space, preset)
        traj = integrate(model, rho, K1, np.linspace(0.0, 2000.0, 101), method=method, dt=dt)
        for state in traj.states:
            assert_bit_equal(state.matrix, rho.matrix)

    @pytest.mark.parametrize("model", [NJH, NK, HAB, JH], ids=lambda m: m.value)
    def test_one_ulp_off_a_fixed_point_matches_the_matrix_loop(self, model):
        rho = dm(SP2, np.diag([np.nextafter(0.0, 1.0), 1.0]))
        assert_matches_matrix_loop(model, rho, RateParams(k_s=1.7), self.GRID, self.DT)


# the largest entry deviation allowed between the block-factor Fehlberg
# stepper and the literal matrix loop. The two choose the same steps only
# up to rounding, and rounding can decide whether a step reaches a
# snapshot or stops just short of it; from there the step sequences part
# ways, and the two runs differ by a share of their own integration error
# rather than by rounding. The worst measured over
# test_matches_the_matrix_loop is 6.6e-13 at the default tolerances and
# 2.2e-16 at the loose ones; the worst measured anywhere is 4.4e-12, in
# the jones-hore run of test_parted_step_sequences_stay_within_the_bound,
# whose snapshots are 5.1e-11 from the exact solution.
RKF45_BOUND = 1e-11
TOLERANCES = {"default": (integrator.DEFAULT_REL_TOL, integrator.DEFAULT_ABS_TOL), "loose": (1e-6, 1e-9)}


def assert_matches_adaptive_loop(model, rho, params, grid, rel_tol, abs_tol, loop_abs_tol=None):
    """integrate's adaptive run is the matrix loop's within RKF45_BOUND, or raises its error.

    loop_abs_tol, when given, replaces abs_tol in the matrix loop only.
    """
    loop_abs_tol = abs_tol if loop_abs_tol is None else loop_abs_tol
    got = outcome_of(lambda: integrate(model, rho, params, grid, rel_tol=rel_tol, abs_tol=abs_tol))
    want = outcome_of(lambda: reference_rkf45_states(model, rho, params, grid, rel_tol, loop_abs_tol))
    assert_same_outcome(got, want, rho, grid, RKF45_BOUND)


class TestBlockRKF45:
    GRID = np.linspace(0.0, 8.0, 41)

    @pytest.mark.parametrize("tol", TOLERANCES)
    @pytest.mark.parametrize("space", SPACES, ids=lambda sp: f"d{sp.dim}")
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_matches_the_matrix_loop(self, model, space, tol):
        k_s = 1.7
        for m in step_states(space):
            rho = DensityMatrix(space, m)
            assert_matches_adaptive_loop(model, rho, RateParams(k_s=k_s), self.GRID / k_s, *TOLERANCES[tol])

    @pytest.mark.parametrize("k_s, k_t_end", [(0.08619186517694007, 16.004689422986072), (0.096, 16.0)])
    def test_parted_step_sequences_stay_within_the_bound(self, k_s, k_t_end):
        # the two loops' step sequences part ways early in these runs;
        # they are the worst measured (1.85e-12 and 4.4e-12)
        grid = np.linspace(0.0, k_t_end / k_s, 289)
        rho = random_density_matrix(SP2, 3)
        assert_matches_adaptive_loop(JH, rho, RateParams(k_s=k_s), grid, *TOLERANCES["default"])

    def test_singular_flow_raises_the_matrix_loop_error(self):
        # normalized-kominis is undefined from the pure singlet
        rho = preset_state(SP4, "pure-singlet")
        assert_matches_adaptive_loop(NK, rho, K1, self.GRID, *TOLERANCES["default"])

    @pytest.mark.parametrize("n_snapshots", [2, 3, 101])
    @pytest.mark.parametrize("space", [SP2, SP4], ids=lambda sp: f"d{sp.dim}")
    def test_singular_trial_stage_rejects_the_step(self, space, n_snapshots):
        # the first step, h = 10, overshoots tau below 0 in a trial stage;
        # along the solution tau = e^{-t} tau_0 + (1 - e^{-t}) stays in [tau_0, 1]
        rho = preset_state(space, "equal-mixture")
        grid = np.linspace(0.0, 100.0, n_snapshots)
        traj = integrate(NK, rho, K1, grid)
        rho_t = space.triplet_mask * rho.matrix / traj.observables.p_triplet[0]
        decay = np.exp(-grid)[:, None, None]
        assert np.max(np.abs(traj.stack - (decay * rho.matrix + (1.0 - decay) * rho_t))) < 1e-8
        assert_matches_adaptive_loop(NK, rho, K1, grid, *TOLERANCES["default"])

    def test_singular_accepted_state_raises_at_once(self):
        # from the pure singlet the first stage is already singular; no step is tried
        with pytest.raises(ModelSingular) as exc:
            integrate(NK, preset_state(SP2, "pure-singlet"), K1, [0.0, 100.0])
        assert str(exc.value) == (
            "at t in (0, 100]: triplet population 0.000e+00 below floor 1.0e-12; normalized-kominis flow undefined"
        )

    @pytest.mark.parametrize(
        "model, t_stop", [(JH, "723.346692565"), (NJH, "724.034217157")], ids=lambda v: getattr(v, "value", None)
    )
    def test_zero_abs_tol_underflow_names_its_cause(self, model, t_stop):
        # rel_tol times the singlet factor underflows to 0 near k_S t = 723 under pure relative control
        rho, grid = preset_state(SP2, "equal-mixture"), np.linspace(0.0, 760.0, 101)
        with pytest.raises(IntegrationError) as exc:
            integrate(model, rho, K1, grid, abs_tol=0.0)
        assert str(exc.value) == (
            f"non-finite error estimate at t = {t_stop}: the error scale abs_tol + rel_tol*|factor|"
            " underflowed to 0 with abs_tol = 0; a positive abs_tol avoids this"
        )
        integrate(model, rho, K1, grid)  # the default abs_tol runs to the end

    @pytest.mark.parametrize("model, error", [
        (JH, "step size underflow"), (HAB, "step size underflow"),
        (NJH, "non-finite error estimate"), (NK, "normalized-kominis flow undefined"),
    ], ids=lambda v: getattr(v, "value", None))
    def test_stiff_run_fails_as_the_matrix_loop_does(self, model, error):
        # at k_S = 1e13 even the smallest step, 1e-12, is far outside the stability region
        rho = preset_state(SP2, "equal-mixture")
        params, grid = RateParams(k_s=1e13), [0.0, 1.0, 2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = outcome_of(lambda: reference_rkf45_states(model, rho, params, grid, *TOLERANCES["default"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome_of(lambda: integrate(model, rho, params, grid))
        assert isinstance(want, Exception) and error in str(want)
        assert type(got) is type(want) and str(got) == str(want)

    @pytest.mark.parametrize("preset", ["equal-mixture", "pure-triplet", "pure-singlet"])
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_zero_abs_tol_is_pure_relative_control(self, model, preset):
        # the matrix loop divides 0 by 0 at every zero entry when abs_tol is 0;
        # an abs_tol far below every nonzero scale stands in for it there
        rho = preset_state(SP4, preset)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_adaptive_loop(model, rho, K1, self.GRID, 1e-9, 0.0, loop_abs_tol=1e-300)
