"""Consistency checks between the recombination-model evolution routes.

Three routes to the surviving-pair state are compared on a common grid:

A. Normalize the exact solution of the unnormalized projection-
   replacement flow at each time.
B. Integrate the normalized nonlinear flow directly.
C. Reconstruct the kinetic mixture w_0(t) rho_0 + w_T(t) rho_T from the
   closed-form survival fractions and a chosen weight scheme.

With the survival-normalized ("corrected") weights, A, B, and C agree to
integration accuracy; that agreement is the package's headline check.
With the disputed exponential weights, route C instead follows the
alternative normalized equation, and the discrepancy check passes
exactly when the resulting divergence from route B is significantly
nonzero, because a confirmed discrepancy is the expected outcome.

Every route is the initial state's singlet-singlet, singlet-triplet and
triplet-triplet blocks (:func:`~rpmix.integrator.split_blocks`), each
scaled by one real factor, so each is a (T, 3) factor array: A in
closed form (:func:`route_a`), B the integrator's ``Trajectory.factors``,
and C (w_0, w_0, w_0 p_T + w_T). The blocks occupy disjoint entries, so
the Frobenius distance between two routes follows exactly from their
factors and the blocks' norms, and no check builds a matrix per
snapshot, except the derivative part of the mixture identity, which
evaluates the one-matrix right-hand side on the reconstructed state.
A check's tolerance scales as dt^4 when the fixed integration step is
changed. Deviations between time derivatives scale with the rate, so
they are judged against the tolerance times k_S; the verdicts then
depend only on k_S t.

Route B is integrated once per scenario, by :func:`route_b`, and shared
by every check that judges it; when the discrepancy check applies,
:func:`run_scenario` integrates the normalized-kominis route next with
the same fixed step. :func:`run_scenario` turns every library error into
a failed check that names its cause; a failure of route B is recorded
under each check that depends on it, and a failure of the kominis route
under the discrepancy check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .integrator import BASE_DT_SCALE, IntegrationError, Trajectory, integrate, split_blocks
from .kinetics import (
    P_FLOOR,
    AllReacted,
    MixtureInconsistent,
    mixture_from_initial,
    mixture_rhs,
    reconstruct,
    weight_rate,
    weights_at,
)
from .models import ModelKind, ModelSingular, RateParams, rhs_function

# no check calls normalize; it stays bound here for perfbench/tracing.py to wrap
from .spinspace import (
    DensityMatrix,
    electron_pair_space,
    frobenius_distance,
    normalize,
    preset_state,
    random_density_matrix,
    two_level_space,
)

BASE_TOL = 1e-8
DISCREPANCY_MARGIN = 10.0  # "significantly nonzero" = margin x tolerance
FD_STEP_SCALE = 1e-5
FD_TOL = 1e-6  # per unit k_S
FORM_TOL = 1e-13  # per unit k_S

# errors run_scenario records as a failed check instead of propagating
CONTAINED_ERRORS = (ModelSingular, IntegrationError, AllReacted, MixtureInconsistent, ValueError)


@dataclass(frozen=True)
class Scenario:
    """One verification scenario: an initial state and integration setup."""

    label: str
    rho_init: DensityMatrix
    k_s: float = 1.0
    t_end: float = 10.0
    n_snapshots: int = 101
    dt: float | None = None

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_snapshots)

    @property
    def step(self) -> float:
        return _step(self.k_s, self.dt)

    def descriptor(self) -> dict:
        m = self.rho_init.matrix
        return {
            "label": self.label,
            "dim": self.rho_init.dim,
            "singlet_indices": list(self.rho_init.space.singlet_indices),
            "initial_state": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
            "k_S": self.k_s,
            "t_end": self.t_end,
            "n_snapshots": self.n_snapshots,
            "dt": self.step,
            "method": "rk4-fixed",
        }


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one check, with the tolerance it was judged against."""

    name: str
    max_deviation: float | None
    t_at_max: float | None
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DivergenceCurve:
    """Singlet-probability curves of the two weight-scheme reconstructions."""

    times: np.ndarray
    p_singlet_corrected: np.ndarray
    p_singlet_kominis: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        return self.p_singlet_corrected - self.p_singlet_kominis


@dataclass(frozen=True)
class ConsistencyReport:
    """All check outcomes for one scenario."""

    scenario: dict
    checks: tuple[CheckRecord, ...]
    divergence: DivergenceCurve | None = None

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self, divergence_ref: str | None = None) -> dict:
        return {
            "scenario": self.scenario,
            "checks": [check.to_dict() for check in self.checks],
            "divergence_curve": divergence_ref,
            "all_passed": self.all_passed,
        }


def _step(k_s: float, dt: float | None) -> float:
    """The fixed RK4 step of the routes: dt, or BASE_DT_SCALE / k_S when dt is None."""
    return dt if dt is not None else BASE_DT_SCALE / k_s


def _tolerance(k_s: float, dt: float | None) -> float:
    return BASE_TOL * (_step(k_s, dt) * k_s / BASE_DT_SCALE) ** 4


def _fixed_step(model: ModelKind, rho_init: DensityMatrix, k_s: float, grid, dt: float | None) -> Trajectory:
    return integrate(model, rho_init, RateParams(k_s=k_s), grid, method="rk4-fixed", dt=_step(k_s, dt))


def route_b(rho_init: DensityMatrix, k_s: float, grid, dt: float | None) -> Trajectory:
    """Route B: the normalized-jh flow integrated with fixed RK4 steps over the grid.

    The step is dt, or 1e-3 / k_S when dt is None; pass the same dt to
    the checks that judge the trajectory, since it sets their tolerance.
    """
    return _fixed_step(ModelKind.NORMALIZED_JONES_HORE, rho_init, k_s, grid, dt)


def _max_over_grid(times, deviations) -> tuple[float, float]:
    idx = int(np.argmax(deviations))
    return float(deviations[idx]), float(times[idx])


def _factor_distance(rho_init: DensityMatrix, x, y) -> np.ndarray:
    """Row-wise Frobenius distance of states given as block factors on rho_init's blocks.

    The blocks occupy disjoint entries, so ||X - Y||_F^2 = sum_X (x_X - y_X)^2 n_X^2
    holds exactly, n_X being the Frobenius norm of block X.
    """
    norms = np.array([np.linalg.norm(block) for block in split_blocks(rho_init)[0]])
    return np.sqrt((np.subtract(x, y) ** 2) @ norms**2)


def _mixture_factors(w_0, w_t, p_t: float) -> np.ndarray:
    """Route C, the mixture w_0 rho_0 + w_T Q_T rho_0 Q_T / p_T, as block factors."""
    return np.column_stack((w_0, w_0, w_0 * p_t + w_t))


def route_a(rho_init: DensityMatrix, k_s: float, times) -> np.ndarray:
    """Route A: the exact projection-replacement solution, normalized, as (T, 3) block factors.

    With e = exp(-k_S t): a_SS = a_ST = 1 / (p_S + tau_0 / e), written as
    e / (tau_0 + p_S e) so that nothing overflows, and tau = tau_0 / (tau_0 + p_S e).
    At tau_0 = 0, the pure-singlet fixed point, the factors are constant.
    """
    _, p_s, tau0 = split_blocks(rho_init)
    times = np.asarray(times, dtype=float)
    if tau0 == 0.0:
        return np.tile((1.0 / p_s, 1.0 / p_s, 0.0), (times.size, 1))
    # past k_S t ~ 745 the exact e and a are below the smallest float, and round to 0
    with np.errstate(under="ignore"):
        e = np.exp(-k_s * times)
        a = e / (tau0 + p_s * e)
        return np.column_stack((a, a, tau0 / (tau0 + p_s * e)))


def check_route_equivalence(
    rho_init: DensityMatrix, k_s: float, traj: Trajectory, dt: float | None = None
) -> CheckRecord:
    """Route A, the normalized exact unnormalized solution, vs route B, the integrated normalized flow."""
    deviations = _factor_distance(rho_init, route_a(rho_init, k_s, traj.times), traj.factors)
    tol = _tolerance(k_s, dt)
    worst, t_at = _max_over_grid(traj.times, deviations)
    return CheckRecord("route-equivalence", worst, t_at, tol, worst <= tol)


def check_mixture_identity(
    rho_init: DensityMatrix,
    k_s: float,
    traj: Trajectory,
    dt: float | None = None,
    scheme: str = "corrected",
) -> CheckRecord:
    """Kinetic-mixture reconstruction vs route B, the integrated normalized flow.

    Also compares the mixture's derivative against the normalized flow's
    right-hand side at every grid point; that part builds the
    reconstructed matrix and evaluates rhs_function on it. With the
    corrected weights both deviations stay at integration accuracy; with
    the disputed scheme this check is expected to fail for 0 < p_T < 1.
    The states are judged against the tolerance and the derivatives,
    which scale with k_S, against tolerance * k_S.
    """
    flow = rhs_function(ModelKind.NORMALIZED_JONES_HORE, rho_init.space, RateParams(k_s=k_s))
    mix = mixture_from_initial(rho_init)
    weights = weights_at(traj.times, mix, k_s, scheme)
    state_devs = _factor_distance(rho_init, _mixture_factors(*weights, mix.p_t), traj.factors)
    rhs_devs = [
        frobenius_distance(mixture_rhs(mix, w, k_s), flow(reconstruct(w, mix).matrix))
        for w in zip(*weights)
    ]
    tol = _tolerance(k_s, dt)
    rhs_tol = tol * k_s
    state_worst, t_state = _max_over_grid(traj.times, state_devs)
    rhs_worst, t_rhs = _max_over_grid(traj.times, rhs_devs)
    worst, t_at = max((state_worst, t_state), (rhs_worst, t_rhs))
    return CheckRecord(
        "mixture-identity",
        worst,
        t_at,
        tol,
        state_worst <= tol and rhs_worst <= rhs_tol,
        details={
            "scheme": scheme,
            "state_deviation": state_worst,
            "rhs_deviation": rhs_worst,
            "rhs_tolerance": rhs_tol,
        },
    )


def check_kominis_discrepancy(
    rho_init: DensityMatrix,
    k_s: float,
    traj: Trajectory,
    alt_traj: Trajectory,
    dt: float | None = None,
) -> tuple[CheckRecord, DivergenceCurve]:
    """Quantify how far the disputed weights drift from route B, the normalized flow.

    ``alt_traj`` is the alternative normalized (normalized-kominis) flow
    integrated with the same fixed step over route B's grid. Passes when
    the divergence is significantly nonzero (at least DISCREPANCY_MARGIN
    times the integration tolerance) and the disputed reconstruction
    agrees with that trajectory, confirming that the two are the same
    dynamics.

    The divergence p_S (w_0,corrected - w_0,kominis) rises to its peak
    (1 - sqrt(p_T))^2 at k_S t* = ln(1 + 1/sqrt(p_T)) and falls after, so
    it is judged by that peak, or by its value at t_end when t_end < t*.
    """
    mix = mixture_from_initial(rho_init)
    if not 0.0 < mix.p_t < 1.0:
        raise ValueError(
            f"discrepancy check requires 0 < p_T < 1, got p_T = {mix.p_t:.6g}"
        )
    if not np.array_equal(alt_traj.times, traj.times):
        raise ValueError("the alternative-flow trajectory must share route B's grid")

    w_corr, _ = weights_at(traj.times, mix, k_s, "corrected")
    w_dis, w_dis_t = weights_at(traj.times, mix, k_s, "kominis")
    curve = DivergenceCurve(traj.times, w_corr * mix.p_s, w_dis * mix.p_s)
    disputed = _mixture_factors(w_dis, w_dis_t, mix.p_t)
    max_frob = float(_factor_distance(rho_init, disputed, traj.factors).max())
    max_alt = float(_factor_distance(rho_init, disputed, alt_traj.factors).max())

    t_end = float(traj.times[-1])
    t_peak = math.log1p(1.0 / math.sqrt(mix.p_t)) / k_s
    if t_peak <= t_end:
        max_p_diff, t_at = (1.0 - math.sqrt(mix.p_t)) ** 2, t_peak
    else:
        max_p_diff, t_at = float(curve.delta[-1]), t_end
    tol = _tolerance(k_s, dt)
    passed = max_p_diff >= DISCREPANCY_MARGIN * tol and max_alt <= tol
    record = CheckRecord(
        "kominis-discrepancy",
        max_p_diff,
        t_at,
        DISCREPANCY_MARGIN * tol,
        passed,
        details={
            "max_frobenius_deviation": max_frob,
            "alternative_flow_agreement": max_alt,
            "p_T": mix.p_t,
        },
    )
    return record, curve


def check_weight_derivative(rho_init: DensityMatrix, k_s: float, t_samples=None) -> CheckRecord:
    """Central finite difference of the corrected weights vs the weight rate.

    The step is FD_STEP_SCALE / k_S and the deviation is judged against
    FD_TOL * k_S. Also records the largest disagreement between the two
    algebraic forms of the weight derivative along the samples, judged
    against FORM_TOL * k_S. The rate, and with it both errors, scales
    with k_S.
    """
    mix = mixture_from_initial(rho_init)
    if not mix.p_t > 0.0:
        raise ValueError(f"weight-derivative check requires p_T > 0, got {mix.p_t:.6g}")
    if t_samples is None:
        t_samples = np.array([0.1, 0.5, 1.0, 2.0, 5.0]) / k_s
    t_samples = np.asarray(t_samples, dtype=float)
    h = FD_STEP_SCALE / k_s

    w_0, w_t = weights_at(t_samples, mix, k_s, "corrected")
    rates = np.array([weight_rate(w, reconstruct(w, mix), mix, k_s) for w in zip(w_0, w_t)])
    form_gap = float(np.max(np.abs(-k_s * w_0 * (w_t + mix.p_t * w_0) - rates)))
    w_plus, _ = weights_at(t_samples + h, mix, k_s, "corrected")
    w_minus, _ = weights_at(t_samples - h, mix, k_s, "corrected")
    worst, t_at = _max_over_grid(t_samples, np.abs(rates - (w_plus - w_minus) / (2.0 * h)))
    tol = FD_TOL * k_s
    return CheckRecord(
        "weight-derivative",
        worst,
        t_at,
        tol,
        worst <= tol and form_gap <= FORM_TOL * k_s,
        details={"form_disagreement": form_gap, "fd_step": h},
    )


def check_kominis_singularity(
    rho_init: DensityMatrix, k_s: float, traj: Trajectory, dt: float | None = None
) -> CheckRecord:
    """Confirm the alternative normalized flow is undefined from singlet-pure states.

    Passes when integration raises the singular-model error while route
    B, the regular normalized flow from the same state, stays constant.
    """
    raised = False
    message = None
    try:
        _fixed_step(ModelKind.NORMALIZED_KOMINIS, rho_init, k_s, traj.times, dt)
    except ModelSingular as exc:
        raised = True
        message = str(exc)
    drift = float(_factor_distance(rho_init, traj.factors, traj.factors[0]).max())
    tol = _tolerance(k_s, dt)
    return CheckRecord(
        "kominis-singularity",
        drift,
        None,
        tol,
        raised and drift <= tol,
        details={"singular_message": message, "regular_flow_drift": drift},
    )


def default_battery() -> list[Scenario]:
    """Built-in scenario set: two-level mixtures, superpositions, random states."""
    sp2, sp4 = two_level_space(), electron_pair_space()
    skew = np.array([np.sqrt(0.25), np.sqrt(0.75)], dtype=complex)
    states = [
        *((f"two-level-mixed-pT-{p_t:.2f}", DensityMatrix(sp2, np.diag([1.0 - p_t, p_t]).astype(complex)))
          for p_t in (0.0, 0.25, 0.5, 0.75, 1.0)),
        ("two-level-superposition-equal", preset_state(sp2, "st-superposition")),
        ("two-level-superposition-skew", DensityMatrix(sp2, np.outer(skew, skew.conj()))),
        *((f"four-level-random-seed-{seed}", random_density_matrix(sp4, seed)) for seed in (1, 2, 3)),
    ]
    return [Scenario(label=label, rho_init=rho) for label, rho in states]


def run_scenario(scenario: Scenario, scheme: str = "corrected") -> ConsistencyReport:
    """Run every check applicable to the scenario's initial state.

    Route B is integrated once and shared by the checks that judge it;
    when the discrepancy check applies, the kominis route is integrated
    next. Every library error becomes a failed check whose ``error``
    names the cause; if a route itself fails, each check on it records
    that error, route B's first.
    """
    rho, k_s, dt, grid = scenario.rho_init, scenario.k_s, scenario.dt, scenario.grid
    p_t = mixture_from_initial(rho).p_t
    tol = _tolerance(k_s, dt)
    discrepancy = P_FLOOR < p_t < 1.0 - P_FLOOR

    def failed(name, exc):
        return CheckRecord(name, None, None, tol, False, error=str(exc))

    def contained(name, fn):
        try:
            return fn()
        except CONTAINED_ERRORS as exc:
            return failed(name, exc)

    def integrated(route, *args):
        try:
            return route(*args, rho, k_s, grid, dt)
        except CONTAINED_ERRORS as exc:
            return exc

    routes = [integrated(route_b)]
    if discrepancy:
        routes.append(integrated(_fixed_step, ModelKind.NORMALIZED_KOMINIS))

    def on_routes(name, check, routes, *args):
        for route in routes:
            if isinstance(route, Exception):
                return failed(name, route)
        return contained(name, lambda: check(rho, k_s, *routes, dt, *args))

    route_b_only = routes[:1]
    checks = [
        on_routes("route-equivalence", check_route_equivalence, route_b_only),
        on_routes("mixture-identity", check_mixture_identity, route_b_only, scheme),
    ]
    divergence = None
    if p_t > P_FLOOR:
        checks.append(contained("weight-derivative", lambda: check_weight_derivative(rho, k_s)))
    if discrepancy:
        outcome = on_routes("kominis-discrepancy", check_kominis_discrepancy, routes)
        if isinstance(outcome, tuple):
            outcome, divergence = outcome
        checks.append(outcome)
    elif p_t <= P_FLOOR:
        checks.append(on_routes("kominis-singularity", check_kominis_singularity, route_b_only))
    return ConsistencyReport(scenario.descriptor(), tuple(checks), divergence)


def run_suite(scenarios=None, scheme: str = "corrected") -> list[ConsistencyReport]:
    """Run the checks over a scenario battery (the built-in one by default)."""
    if scenarios is None:
        scenarios = default_battery()
    return [run_scenario(s, scheme) for s in scenarios]
