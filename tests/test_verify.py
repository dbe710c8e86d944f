import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rpmix import kinetics, verify
from rpmix.integrator import IntegrationError
from rpmix.kinetics import P_FLOOR, mixture_from_initial
from rpmix.models import ModelKind
from rpmix.spinspace import (
    DensityMatrix,
    electron_pair_space,
    random_density_matrix,
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
    route_b,
    run_scenario,
    run_suite,
)

SP2 = two_level_space()
SP4 = electron_pair_space()
GRID = np.linspace(0.0, 10.0, 101)
SHORT_GRID = np.linspace(0.0, 2.0, 21)


def b(rho, grid=GRID, dt=None):
    """Route B on the unit-rate grid the check tests use."""
    return route_b(rho, 1.0, grid, dt)


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
        from rpmix.kinetics import mixture_from_initial, reconstruct, weights_at
        from rpmix.spinspace import singlet_probability

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
        record, curve = check_kominis_discrepancy(EQUAL_MIX, 1.0, b(EQUAL_MIX))
        assert record.passed
        i = 10  # t = 1.0 on this grid
        assert curve.times[i] == pytest.approx(1.0)
        assert curve.p_singlet_corrected[i] == pytest.approx(0.2689414213699951, abs=1e-12)
        assert curve.p_singlet_kominis[i] == pytest.approx(0.18393972058572117, abs=1e-12)
        assert curve.delta[i] == pytest.approx(0.08500170078427394, abs=1e-6)
        assert curve.delta[0] == 0.0

    def test_disputed_route_matches_alternative_flow(self):
        record, _ = check_kominis_discrepancy(EQUAL_MIX, 1.0, b(EQUAL_MIX))
        assert record.details["alternative_flow_agreement"] <= 1e-8

    def test_requires_mixed_state(self):
        with pytest.raises(ValueError, match="requires 0 < p_T < 1"):
            check_kominis_discrepancy(PURE_T, 1.0, b(PURE_T, SHORT_GRID))
        with pytest.raises(ValueError, match="requires 0 < p_T < 1"):
            check_kominis_discrepancy(PURE_S, 1.0, b(PURE_S, SHORT_GRID))

    def test_divergence_significant_for_all_mixed_battery_states(self):
        for p_t in (0.25, 0.5, 0.75):
            rho = dm(np.diag([1.0 - p_t, p_t]))
            record, curve = check_kominis_discrepancy(rho, 1.0, b(rho))
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
        record, curve = check_kominis_discrepancy(rho, k_s, traj, dt)
        checks.append(record)
    elif p_t <= P_FLOOR:
        checks.append(check_kominis_singularity(rho, k_s, traj, dt))
    return checks, curve


class TestSharedRouteB:
    @pytest.mark.parametrize("scheme", ["corrected", "kominis"])
    @pytest.mark.parametrize(
        "rho", [PURE_S, PURE_T, EQUAL_MIX, SUPER], ids=["pT-0", "pT-1", "mixed", "superposition"]
    )
    def test_route_b_integrated_once_per_scenario(self, monkeypatch, rho, scheme):
        models = []
        integrate = verify.integrate

        def counting(model, *args, **kwargs):
            models.append(model)
            return integrate(model, *args, **kwargs)

        monkeypatch.setattr(verify, "integrate", counting)
        run_scenario(Scenario(label="count", rho_init=rho, t_end=2.0, n_snapshots=21), scheme)
        assert models.count(ModelKind.NORMALIZED_JONES_HORE) == 1

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


class TestContainedErrors:
    def test_floors_become_failed_checks_naming_the_cause(self):
        # the normalized-jh fixed point makes route B exact at any step, so a
        # coarse dt reaches k_S t = 800, where both survival floors are crossed
        scenario = Scenario(label="reacted", rho_init=PURE_S, t_end=800.0, n_snapshots=2, dt=1.0)
        records = {c.name: c for c in run_scenario(scenario).checks}
        assert not records["route-equivalence"].passed
        assert "at or below floor" in records["route-equivalence"].error
        assert "normalized state undefined" in records["route-equivalence"].error
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
