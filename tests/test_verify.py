import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpmix import integrator, kinetics, models, verify
from rpmix.integrator import IntegrationError, analytic_jones_hore, integrate, split_blocks
from rpmix.kinetics import P_FLOOR, mixture_from_initial, reconstruct, weight_rate, weights_at
from rpmix.models import ModelKind, RateParams
from rpmix.spinspace import (
    PRESET_NAMES,
    DensityMatrix,
    electron_pair_space,
    frobenius_distance,
    make_space,
    normalize,
    preset_state,
    random_density_matrix,
    singlet_probability,
    two_level_space,
)
from rpmix.verify import (
    Scenario,
    check_kominis_discrepancy,
    check_kominis_singularity,
    check_mixture_identity,
    check_route_equivalence,
    check_weight_derivative,
    default_battery,
    route_a,
    route_b,
    run_scenario,
    run_suite,
)

SP2 = two_level_space()
SP4 = electron_pair_space()
SP8 = make_space(8, (0, 1))
GRID = np.linspace(0.0, 10.0, 101)
SHORT_GRID = np.linspace(0.0, 2.0, 21)


def b(rho, grid=GRID, dt=None):
    """Route B on the unit-rate grid the check tests use."""
    return route_b(rho, 1.0, grid, dt)


def kominis_route(rho, k_s=1.0, grid=GRID, dt=None):
    """The alternative normalized flow, integrated as run_scenario does alongside route B."""
    return integrate(
        ModelKind.NORMALIZED_KOMINIS, rho, RateParams(k_s=k_s), grid,
        method="rk4-fixed", dt=dt if dt is not None else verify.BASE_DT_SCALE / k_s,
    )


def dm(entries, space=SP2):
    return DensityMatrix(space, np.array(entries, dtype=complex))


EQUAL_MIX = dm(np.diag([0.5, 0.5]))
PURE_S = dm(np.diag([1.0, 0.0]))
PURE_T = dm(np.diag([0.0, 1.0]))
SUPER = dm(0.5 * np.ones((2, 2)))


class TestRouteEquivalence:
    def test_equal_mixture(self):
        record = check_route_equivalence(EQUAL_MIX, 1.0, b(EQUAL_MIX))
        assert record.passed
        assert record.max_deviation <= 1e-8

    def test_pure_triplet_constant(self):
        record = check_route_equivalence(PURE_T, 1.0, b(PURE_T))
        assert record.passed
        assert record.max_deviation < 1e-13

    def test_pure_singlet_normalization_cancels_decay(self):
        record = check_route_equivalence(PURE_S, 1.0, b(PURE_S))
        assert record.passed
        assert record.max_deviation < 1e-12

    def test_coherent_superposition(self):
        record = check_route_equivalence(SUPER, 1.0, b(SUPER))
        assert record.passed

    def test_tolerance_scales_with_step(self):
        record = check_route_equivalence(EQUAL_MIX, 1.0, b(EQUAL_MIX, dt=2e-3), dt=2e-3)
        assert record.tolerance == pytest.approx(1e-8 * 16.0)


class TestMixtureIdentity:
    def test_equal_mixture_headline_value(self):
        record = check_mixture_identity(EQUAL_MIX, 1.0, b(EQUAL_MIX))
        assert record.passed
        assert record.details["state_deviation"] <= 1e-8
        assert record.details["rhs_deviation"] <= 1e-8

    def test_singlet_probability_at_unit_time(self):
        # reconstruction gives p_S(1) = 0.5 * w_0(1) = e^-1 / (1 + e^-1)
        mix = mixture_from_initial(EQUAL_MIX)
        w = weights_at(1.0, mix, 1.0, "corrected")
        p = singlet_probability(reconstruct(w, mix))
        assert p == pytest.approx(0.2689414213699951, abs=1e-15)

    def test_pure_singlet_trivial(self):
        record = check_mixture_identity(PURE_S, 1.0, b(PURE_S))
        assert record.passed
        assert record.max_deviation < 1e-13

    def test_superposition_tracks_coherence(self):
        record = check_mixture_identity(SUPER, 1.0, b(SUPER))
        assert record.passed

    def test_disputed_scheme_fails_for_mixed_states(self):
        record = check_mixture_identity(EQUAL_MIX, 1.0, b(EQUAL_MIX), scheme="kominis")
        assert not record.passed
        assert record.max_deviation > 1e-3


class TestKominisDiscrepancy:
    def test_equal_mixture_closed_form_values(self):
        record, curve = check_kominis_discrepancy(EQUAL_MIX, 1.0, b(EQUAL_MIX), kominis_route(EQUAL_MIX))
        assert record.passed
        i = 10  # t = 1.0 on this grid
        assert curve.times[i] == pytest.approx(1.0)
        assert curve.p_singlet_corrected[i] == pytest.approx(0.2689414213699951, abs=1e-12)
        assert curve.p_singlet_kominis[i] == pytest.approx(0.18393972058572117, abs=1e-12)
        assert curve.delta[i] == pytest.approx(0.08500170078427394, abs=1e-6)
        assert curve.delta[0] == 0.0

    def test_disputed_route_matches_alternative_flow(self):
        record, _ = check_kominis_discrepancy(EQUAL_MIX, 1.0, b(EQUAL_MIX), kominis_route(EQUAL_MIX))
        assert record.details["alternative_flow_agreement"] <= 1e-8

    def test_requires_mixed_state(self):
        # the ValueError comes before either trajectory is read
        route = b(PURE_T, SHORT_GRID)
        with pytest.raises(ValueError, match="requires 0 < p_T < 1"):
            check_kominis_discrepancy(PURE_T, 1.0, route, route)
        route = b(PURE_S, SHORT_GRID)
        with pytest.raises(ValueError, match="requires 0 < p_T < 1"):
            check_kominis_discrepancy(PURE_S, 1.0, route, route)

    def test_requires_the_route_b_grid(self):
        with pytest.raises(ValueError, match="share route B's grid"):
            check_kominis_discrepancy(EQUAL_MIX, 1.0, b(EQUAL_MIX), kominis_route(EQUAL_MIX, grid=SHORT_GRID))

    def test_divergence_significant_for_all_mixed_battery_states(self):
        for p_t in (0.25, 0.5, 0.75):
            rho = dm(np.diag([1.0 - p_t, p_t]))
            record, curve = check_kominis_discrepancy(rho, 1.0, b(rho), kominis_route(rho))
            assert record.passed
            assert np.max(np.abs(curve.delta)) >= 1e-3


class TestWeightDerivative:
    def test_equal_mixture(self):
        record = check_weight_derivative(EQUAL_MIX, 1.0)
        assert record.passed
        assert record.max_deviation <= 1e-6
        assert record.details["form_disagreement"] <= 1e-13

    def test_full_triplet_limit(self):
        record = check_weight_derivative(PURE_T, 1.0)
        assert record.passed

    def test_requires_triplet_fraction(self):
        with pytest.raises(ValueError, match="p_T > 0"):
            check_weight_derivative(PURE_S, 1.0)


class TestKominisSingularity:
    def test_pure_singlet(self):
        record = check_kominis_singularity(PURE_S, 1.0, b(PURE_S))
        assert record.passed
        assert "below floor" in record.details["singular_message"]
        assert record.details["regular_flow_drift"] < 1e-12

    def test_mixed_state_does_not_raise_so_check_fails(self):
        record = check_kominis_singularity(EQUAL_MIX, 1.0, b(EQUAL_MIX))
        assert not record.passed


@pytest.fixture(scope="module")
def suite_reports():
    return run_suite()


class TestSuite:
    def test_default_battery_all_passes(self, suite_reports):
        assert len(suite_reports) == 10
        for report in suite_reports:
            assert report.all_passed, (report.scenario["label"], [c.to_dict() for c in report.checks if not c.passed])

    def test_battery_check_selection(self, suite_reports):
        reports = {r.scenario["label"]: r for r in suite_reports}
        names = lambda r: [c.name for c in r.checks]  # noqa: E731
        assert names(reports["two-level-mixed-pT-0.00"]) == [
            "route-equivalence", "mixture-identity", "kominis-singularity",
        ]
        assert names(reports["two-level-mixed-pT-0.50"]) == [
            "route-equivalence", "mixture-identity", "weight-derivative", "kominis-discrepancy",
        ]
        assert names(reports["two-level-mixed-pT-1.00"]) == [
            "route-equivalence", "mixture-identity", "weight-derivative",
        ]

    def test_discrepancy_recorded_with_curves(self, suite_reports):
        reports = {r.scenario["label"]: r for r in suite_reports}
        assert reports["two-level-mixed-pT-0.50"].divergence is not None
        assert reports["two-level-mixed-pT-0.00"].divergence is None

    def test_battery_covers_both_dimensions(self, suite_reports):
        assert {r.scenario["dim"] for r in suite_reports} == {2, 4}

    def test_empty_scenario_list(self):
        assert run_suite([]) == []

    def test_single_scenario_report_round_trip(self):
        scenario = Scenario(label="probe", rho_init=random_density_matrix(SP4, 5), t_end=4.0, n_snapshots=41)
        report = run_scenario(scenario)
        assert report.all_passed
        d = report.to_dict(divergence_ref="curve.csv")
        assert d["scenario"]["label"] == "probe"
        assert d["divergence_curve"] == "curve.csv"
        assert all(isinstance(c["name"], str) for c in d["checks"])

    def test_disputed_scheme_suite_reports_failures(self):
        scenario = Scenario(label="disputed", rho_init=EQUAL_MIX, t_end=5.0, n_snapshots=51)
        report = run_scenario(scenario, scheme="kominis")
        mixture_checks = [c for c in report.checks if c.name == "mixture-identity"]
        assert len(mixture_checks) == 1
        assert not mixture_checks[0].passed
        assert not report.all_passed

    def test_default_battery_labels_unique(self):
        labels = [s.label for s in default_battery()]
        assert len(labels) == len(set(labels))


def independent_report(scenario, scheme="corrected"):
    """run_scenario's checks, each called on its own route-B integration."""
    rho, k_s, dt = scenario.rho_init, scenario.k_s, scenario.dt
    p_t = mixture_from_initial(rho).p_t
    traj = route_b(rho, k_s, scenario.grid, dt)
    checks = [
        check_route_equivalence(rho, k_s, traj, dt),
        check_mixture_identity(rho, k_s, traj, dt, scheme),
    ]
    curve = None
    if p_t > P_FLOOR:
        checks.append(check_weight_derivative(rho, k_s))
    if P_FLOOR < p_t < 1.0 - P_FLOOR:
        record, curve = check_kominis_discrepancy(rho, k_s, traj, kominis_route(rho, k_s, scenario.grid, dt), dt)
        checks.append(record)
    elif p_t <= P_FLOOR:
        checks.append(check_kominis_singularity(rho, k_s, traj, dt))
    return checks, curve


class TestSharedRouteB:
    @pytest.mark.parametrize("scheme", ["corrected", "kominis"])
    @pytest.mark.parametrize(
        "rho, kominis_runs",
        [(PURE_S, 1), (PURE_T, 0), (EQUAL_MIX, 1), (SUPER, 1)],
        ids=["pT-0", "pT-1", "mixed", "superposition"],
    )
    def test_route_b_integrated_once_per_scenario(self, monkeypatch, rho, kominis_runs, scheme):
        # every trajectory run_scenario integrates
        models = []
        integrate = verify.integrate

        def counting(model, *args, **kwargs):
            models.append(model)
            return integrate(model, *args, **kwargs)

        monkeypatch.setattr(verify, "integrate", counting)
        run_scenario(Scenario(label="count", rho_init=rho, t_end=2.0, n_snapshots=21), scheme)
        assert models.count(ModelKind.NORMALIZED_JONES_HORE) == 1
        assert models.count(ModelKind.NORMALIZED_KOMINIS) == kominis_runs

    @pytest.mark.parametrize("index", range(10), ids=[s.label for s in default_battery()])
    def test_sharing_is_bit_exact(self, suite_reports, index):
        scenario = default_battery()[index]
        report = suite_reports[index]
        checks, curve = independent_report(scenario)
        assert report.scenario["label"] == scenario.label
        assert report.to_dict() == {
            "scenario": scenario.descriptor(),
            "checks": [c.to_dict() for c in checks],
            "divergence_curve": None,
            "all_passed": all(c.passed for c in checks),
        }
        if curve is None:
            assert report.divergence is None
        else:
            for name in ("times", "p_singlet_corrected", "p_singlet_kominis"):
                assert np.array_equal(getattr(report.divergence, name), getattr(curve, name))

    def test_route_b_failure_fans_out_to_every_dependent_check(self, monkeypatch):
        integrate = verify.integrate

        def failing(model, *args, **kwargs):
            if model is ModelKind.NORMALIZED_JONES_HORE:
                raise IntegrationError("route B broke")
            return integrate(model, *args, **kwargs)

        monkeypatch.setattr(verify, "integrate", failing)
        report = run_scenario(Scenario(label="fan-out", rho_init=EQUAL_MIX, t_end=2.0, n_snapshots=21))
        records = {c.name: c for c in report.checks}
        for name in ("route-equivalence", "mixture-identity", "kominis-discrepancy"):
            assert records[name] == verify.CheckRecord(
                name, None, None, 1e-8, False, error="route B broke"
            )
        assert records["weight-derivative"].passed
        assert report.divergence is None


def nan_when_triplet_above(level):
    """Wrap integrator.block_rates: the normalized-kominis rates turn
    non-finite once the triplet population passes ``level``."""
    build = integrator.block_rates

    def faulty(model, k_s):
        rates = build(model, k_s)
        if model is not ModelKind.NORMALIZED_KOMINIS:
            return rates
        return lambda tau: (math.nan,) * 3 if tau > level else rates(tau)

    return faulty


class TestRouteFailures:
    SCENARIO = Scenario(label="mixed", rho_init=EQUAL_MIX, t_end=2.0, n_snapshots=21)

    @pytest.mark.parametrize("fault", ["singular", "non-finite"])
    def test_kominis_failure_leaves_route_b_checks_unchanged(self, monkeypatch, fault):
        clean = {c.name: c for c in run_scenario(self.SCENARIO).checks}
        if fault == "singular":
            # the kominis route starts at triplet population 0.5, below this floor
            monkeypatch.setattr(models, "DENOM_FLOOR", 0.75)
        else:
            # reached between t = 0.9 and t = 1 on the kominis route
            monkeypatch.setattr(integrator, "block_rates", nan_when_triplet_above(0.8))
        lone = integrate(ModelKind.NORMALIZED_JONES_HORE, EQUAL_MIX, RateParams(k_s=1.0), self.SCENARIO.grid,
                         method="rk4-fixed", dt=1e-3)
        with pytest.raises((models.ModelSingular, IntegrationError)) as alone:
            kominis_route(EQUAL_MIX, grid=self.SCENARIO.grid)
        report = run_scenario(self.SCENARIO)
        records = {c.name: c for c in report.checks}
        for name in ("route-equivalence", "mixture-identity", "weight-derivative"):
            assert records[name] == clean[name]
        assert records["route-equivalence"] == check_route_equivalence(EQUAL_MIX, 1.0, lone)
        assert records["kominis-discrepancy"] == verify.CheckRecord(
            "kominis-discrepancy", None, None, 1e-8, False, error=str(alone.value)
        )
        assert ("below floor 7.5e-01" if fault == "singular" else "invalid state at t = 1:") in str(alone.value)
        assert report.divergence is None


class TestContainedErrors:
    def test_survival_floor_fails_only_the_mixture_check(self):
        # the normalized-jh fixed point makes route B exact at any step, so a
        # coarse dt reaches k_S t = 800, where the kinetic survival fraction is
        # below its floor; route A divides by no survival trace, so it agrees
        scenario = Scenario(label="reacted", rho_init=PURE_S, t_end=800.0, n_snapshots=2, dt=1.0)
        records = {c.name: c for c in run_scenario(scenario).checks}
        assert records["route-equivalence"].passed
        assert records["route-equivalence"].error is None
        assert records["route-equivalence"].max_deviation < 1e-15
        assert not records["mixture-identity"].passed
        assert "surviving fraction" in records["mixture-identity"].error
        assert records["kominis-singularity"].passed

    def test_inconsistent_mixture_becomes_failed_check(self, monkeypatch):
        # run_scenario never builds a non-mixture state, so hand mixture_rhs
        # one: shift 1e-3 of population from the triplet to the singlet level
        reconstruct = kinetics.reconstruct

        def shifted(weights, mix):
            rho = reconstruct(weights, mix)
            return DensityMatrix(rho.space, rho.matrix + np.diag([1e-3, -1e-3]))

        monkeypatch.setattr(kinetics, "reconstruct", shifted)
        records = {c.name: c for c in run_scenario(Scenario("shifted", EQUAL_MIX)).checks}
        assert not records["mixture-identity"].passed
        assert "weight-rate forms disagree" in records["mixture-identity"].error
        assert records["weight-derivative"].passed


class TestRateScale:
    def test_fast_rate_four_level_state_passes_every_check(self):
        # the weight-rate form gap grows with k_S (1.8e-12 here); its bound
        # must grow too, or both mixture checks fail on a correct state
        scenario = Scenario(
            label="fast", rho_init=random_density_matrix(SP4, 3), k_s=1.0e4, t_end=1.0e-3
        )
        report = run_scenario(scenario)
        assert report.all_passed, [(c.name, c.error) for c in report.checks if not c.passed]
        assert {c.name for c in report.checks} == {
            "route-equivalence", "mixture-identity", "weight-derivative", "kominis-discrepancy",
        }

    def test_weight_derivative_tolerance_scales_with_rate(self):
        # the finite-difference deviation is 8.0e-12 k_S on this state at every
        # rate; an absolute 1e-6 bound failed it at k_S = 1e6 (8.0e-6)
        rho = random_density_matrix(SP4, 3)
        record = check_weight_derivative(rho, 1.0e6)
        assert record.passed, record
        assert record.tolerance == pytest.approx(verify.FD_TOL * 1.0e6)
        assert check_weight_derivative(rho, 1.0).tolerance == verify.FD_TOL

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        four_level=st.booleans(),
        c=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_weight_derivative_verdict_invariant_under_rate_rescaling(self, seed, four_level, c):
        rho = random_density_matrix(SP4 if four_level else SP2, seed)
        taus = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
        base = check_weight_derivative(rho, 1.0, t_samples=taus)
        scaled = check_weight_derivative(rho, c, t_samples=taus / c)
        assert scaled.passed == base.passed

    def test_mixture_identity_rhs_bound_scales_with_rate(self):
        # the RHS deviation is 1.75e-16 k_S on this state; against the
        # dimensionless 1e-8 it failed at k_S = 1e9 (2.9e-7) on a correct state
        scenario = Scenario(
            label="faster", rho_init=random_density_matrix(SP4, 3), k_s=1.0e9, t_end=1.0e-8
        )
        report = run_scenario(scenario)
        assert report.all_passed, [(c.name, c.max_deviation, c.error) for c in report.checks if not c.passed]
        record = next(c for c in report.checks if c.name == "mixture-identity")
        assert record.details["rhs_tolerance"] == pytest.approx(record.tolerance * 1.0e9)
        assert record.details["rhs_deviation"] > record.tolerance
        unit = check_mixture_identity(EQUAL_MIX, 1.0, b(EQUAL_MIX))
        assert unit.details["rhs_tolerance"] == unit.tolerance

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        four_level=st.booleans(),
        scheme=st.sampled_from(["corrected", "kominis"]),
        base=st.sampled_from([1.0, 1.0e3]),
        c=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_mixture_identity_verdict_invariant_under_rate_rescaling(self, seed, four_level, scheme, base, c):
        rho = random_density_matrix(SP4 if four_level else SP2, seed)
        taus = np.linspace(0.0, 0.5, 3)

        def verdict(k_s):
            traj = route_b(rho, k_s, taus / k_s, None)
            return check_mixture_identity(rho, k_s, traj, None, scheme).passed

        assert verdict(c * base) == verdict(base)

    @settings(max_examples=20, deadline=None)
    @given(
        space=st.sampled_from([SP2, SP4, SP8]),
        state=st.one_of(st.sampled_from(PRESET_NAMES), st.integers(min_value=0, max_value=2**32 - 1)),
        dt=st.sampled_from([None, 5e-3]),
        c=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_report_verdicts_invariant_under_rate_rescaling(self, space, state, dt, c):
        # the physics depends only on k_S t, so (k_S, t_end, dt) -> (c k_S,
        # t_end / c, dt / c) must leave every check's verdict as it was
        rho = preset_state(space, state) if isinstance(state, str) else random_density_matrix(space, state)
        base = Scenario("base", rho, k_s=1.0, t_end=2.0, n_snapshots=21, dt=dt)
        scaled = Scenario("scaled", rho, k_s=c, t_end=2.0 / c, n_snapshots=21, dt=None if dt is None else dt / c)
        for scheme in ("corrected", "kominis"):
            want = [(check.name, check.passed) for check in run_scenario(base, scheme).checks]
            got = [(check.name, check.passed) for check in run_scenario(scaled, scheme).checks]
            assert got == want, scheme


def assemble(factors, blocks):
    """The (T, d, d) states that (T, 3) block factors scale the split blocks into."""
    a_ss, a_st, tau = np.asarray(factors).T[:, :, None, None]
    return (a_ss * blocks[0] + a_st * blocks[1] + tau * blocks[2]).view(complex)


class TestBlockFactors:
    @pytest.mark.parametrize(
        "space",
        [SP2, SP4, make_space(4, (0, 2)), make_space(8, (0,)), SP8],
        ids=lambda sp: f"d{sp.dim}-s{len(sp.singlet_indices)}",
    )
    def test_factor_distance_is_the_frobenius_distance(self, space):
        rng = np.random.default_rng([space.dim, len(space.singlet_indices)])
        for seed in range(5):
            rho = random_density_matrix(space, seed)
            blocks, _, _ = split_blocks(rho)
            x, y = rng.uniform(-2.0, 2.0, (2, 9, 3))
            want = np.linalg.norm(assemble(x, blocks) - assemble(y, blocks), axis=(1, 2))
            np.testing.assert_allclose(verify._factor_distance(rho, x, y), want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize(
        "rho",
        [PURE_S, PURE_T, EQUAL_MIX, preset_state(SP8, "pure-singlet"), preset_state(SP8, "pure-triplet")],
        ids=["pT-0", "pS-0", "mixed", "d8-pT-0", "d8-pS-0"],
    )
    def test_route_a_stays_finite_far_past_the_old_floor(self, rho):
        # out to k_S t = 1e4: e^{k_S t} would overflow, and at tau_0 = 0 a naive
        # form meets 0 * inf or 0 / 0; underflow to 0 is exact rounding here
        times = np.linspace(0.0, 1.0e4, 201)
        with np.errstate(all="raise"):
            factors = route_a(rho, 1.0, times)
        assert factors.shape == (times.size, 3) and np.isfinite(factors).all()
        mix = mixture_from_initial(rho)
        assert factors[-1, 2] == (1.0 if mix.p_t > 0.0 else 0.0)
        if mix.p_t == 0.0:
            assert np.all(factors[:, :2] == 1.0)
        else:
            assert factors[-1, 0] == factors[-1, 1] == 0.0

    def test_route_a_is_the_normalized_exact_solution(self):
        for seed, space in enumerate((SP2, SP4, SP8)):
            rho = random_density_matrix(space, seed)
            blocks, _, _ = split_blocks(rho)
            got = assemble(route_a(rho, 1.3, GRID), blocks)
            for t, state in zip(GRID, got):
                want = normalize(analytic_jones_hore(rho, RateParams(k_s=1.3), t)).matrix
                assert np.max(np.abs(state - want)) < 1e-15


def outcome(fn):
    """fn's value, or the message of the library error it raised."""
    try:
        return fn()
    except verify.CONTAINED_ERRORS as exc:
        return str(exc)


def matrix_route_equivalence(rho, k_s, traj):
    params = RateParams(k_s=k_s)
    return max(
        frobenius_distance(normalize(analytic_jones_hore(rho, params, t)), state)
        for t, state in zip(traj.times, traj.stack)
    )


def matrix_mixture_states(rho, k_s, traj, scheme):
    mix = mixture_from_initial(rho)
    return max(
        frobenius_distance(reconstruct(weights_at(t, mix, k_s, scheme), mix), state)
        for t, state in zip(traj.times, traj.stack)
    )


def matrix_discrepancy(rho, k_s, traj, alt):
    mix = mixture_from_initial(rho)
    p_corr, p_dis, frob, agreement = [], [], [], []
    for t, state, alt_state in zip(traj.times, traj.stack, alt.stack):
        disputed = reconstruct(weights_at(t, mix, k_s, "kominis"), mix)
        p_corr.append(singlet_probability(reconstruct(weights_at(t, mix, k_s, "corrected"), mix)))
        p_dis.append(singlet_probability(disputed))
        frob.append(frobenius_distance(disputed, state))
        agreement.append(frobenius_distance(disputed, alt_state))
    return np.array(p_corr), np.array(p_dis), max(frob), max(agreement)


def matrix_weight_derivative(rho, k_s):
    mix = mixture_from_initial(rho)
    h = verify.FD_STEP_SCALE / k_s
    devs, gaps = [], []
    for t in np.array([0.1, 0.5, 1.0, 2.0, 5.0]) / k_s:
        w = weights_at(t, mix, k_s, "corrected")
        rate = weight_rate(w, reconstruct(w, mix), mix, k_s)
        gaps.append(abs(-k_s * w[0] * (w[1] + mix.p_t * w[0]) - rate))
        w_plus, w_minus = (weights_at(t + dt, mix, k_s, "corrected")[0] for dt in (h, -h))
        devs.append(abs(rate - (w_plus - w_minus) / (2.0 * h)))
    return max(devs), max(gaps)


class TestMatchesMatrixLoops:
    """Every deviation on factors matches the per-snapshot matrix loops it replaced."""

    @pytest.mark.parametrize("index", range(10), ids=[s.label for s in default_battery()])
    def test_default_battery_under_both_schemes(self, index):
        scenario = default_battery()[index]
        rho, k_s = scenario.rho_init, scenario.k_s
        traj = route_b(rho, k_s, scenario.grid, None)
        record = check_route_equivalence(rho, k_s, traj)
        assert abs(record.max_deviation - matrix_route_equivalence(rho, k_s, traj)) <= 1e-15
        for scheme in ("corrected", "kominis"):
            record = outcome(lambda: check_mixture_identity(rho, k_s, traj, None, scheme))
            want = outcome(lambda: matrix_mixture_states(rho, k_s, traj, scheme))
            if isinstance(want, str):
                assert record == want
            else:
                assert abs(record.details["state_deviation"] - want) <= 1e-15
        p_t = mixture_from_initial(rho).p_t
        if p_t > P_FLOOR:
            record = check_weight_derivative(rho, k_s)
            fd_deviation, form_gap = matrix_weight_derivative(rho, k_s)
            assert abs(record.max_deviation - fd_deviation) <= 1e-15
            assert abs(record.details["form_disagreement"] - form_gap) <= 1e-15
        if P_FLOOR < p_t < 1.0 - P_FLOOR:
            alt = kominis_route(rho, k_s, scenario.grid)
            record, curve = check_kominis_discrepancy(rho, k_s, traj, alt)
            p_corr, p_dis, frob, agreement = matrix_discrepancy(rho, k_s, traj, alt)
            assert np.max(np.abs(curve.p_singlet_corrected - p_corr)) <= 1e-15
            assert np.max(np.abs(curve.p_singlet_kominis - p_dis)) <= 1e-15
            assert abs(record.details["max_frobenius_deviation"] - frob) <= 1e-15
            assert abs(record.details["alternative_flow_agreement"] - agreement) <= 1e-15
        elif p_t <= P_FLOOR:
            record = check_kominis_singularity(rho, k_s, traj)
            drift = max(frobenius_distance(state, rho) for state in traj.stack)
            assert abs(record.details["regular_flow_drift"] - drift) <= 1e-15


class TestDiscrepancySupremum:
    @pytest.mark.parametrize("p_t", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    def test_peak_matches_a_dense_scan(self, p_t):
        mix = mixture_from_initial(dm(np.diag([1.0 - p_t, p_t])))
        times = np.linspace(0.0, 12.0, 200_001)
        gap = mix.p_s * (weights_at(times, mix, 1.0, "corrected")[0] - weights_at(times, mix, 1.0, "kominis")[0])
        peak = int(np.argmax(gap))
        assert abs(gap[peak] - (1.0 - math.sqrt(p_t)) ** 2) < 1e-8
        assert abs(times[peak] - math.log1p(1.0 / math.sqrt(p_t))) < 1e-4

    def test_long_coarse_grid_judges_the_peak(self):
        # the two grid points, t = 0 and k_S t = 100, both see a gap below 1e-43
        scenario = Scenario(label="coarse", rho_init=EQUAL_MIX, t_end=100.0, n_snapshots=2)
        report = run_scenario(scenario)
        assert report.all_passed, [c.to_dict() for c in report.checks if not c.passed]
        record = next(c for c in report.checks if c.name == "kominis-discrepancy")
        assert record.max_deviation == pytest.approx((1.0 - math.sqrt(0.5)) ** 2, abs=1e-15)
        assert record.t_at_max == pytest.approx(math.log1p(math.sqrt(2.0)), abs=1e-15)
        assert np.max(report.divergence.delta) < 1e-43

    @pytest.mark.parametrize("n_snapshots", [2, 3, 7, 51])
    def test_verdict_and_value_do_not_depend_on_the_grid(self, n_snapshots):
        grid = np.linspace(0.0, 4.0, n_snapshots)
        record, curve = check_kominis_discrepancy(
            EQUAL_MIX, 1.0, b(EQUAL_MIX, grid), kominis_route(EQUAL_MIX, grid=grid)
        )
        assert record.passed
        assert record.max_deviation == (1.0 - math.sqrt(0.5)) ** 2
        assert record.t_at_max == math.log1p(1.0 / math.sqrt(0.5))
        assert np.all(curve.delta <= record.max_deviation)

    def test_short_horizon_judges_the_end_point(self):
        # k_S t* = 0.88 for p_T = 1/2: on [0, 0.5] the gap still rises
        grid = np.linspace(0.0, 0.5, 6)
        record, curve = check_kominis_discrepancy(
            EQUAL_MIX, 1.0, b(EQUAL_MIX, grid), kominis_route(EQUAL_MIX, grid=grid)
        )
        assert record.max_deviation == curve.delta[-1] == np.max(curve.delta)
        assert record.t_at_max == 0.5
