"""Time evolution of the master-equation variants.

Two steppers act on the raw density matrix:

- "rk4-fixed": classic fourth-order Runge-Kutta with a uniform substep,
  the workhorse for convergence-order and consistency tests. It always
  runs on a (B, d, d) stack of one initial state evolved under B models
  (:func:`integrate_stack`); a single-state :func:`integrate` call is a
  one-member stack. Every member rounds exactly as it would alone, and a
  member that fails leaves the stack while the others go on. One probing
  substep is taken before the run: if it finds every stage exactly zero
  and returns the stack bit for bit, the stack is a fixed point for any
  step size, no step is taken and the state is repeated at every later
  snapshot, each still built, validated and gated.
- "rk45-adaptive": Fehlberg embedded 4(5) pair with standard
  error-controlled step adjustment (safety factor 0.9, step clamped to
  [1e-12, t_end]); the fifth-order solution is propagated. A trial step
  keeps its six stages in one (6, d, d) array and forms every stage
  input, and both embedded solutions, as weighted reductions over it.

Every accepted step is followed by re-symmetrization
rho <- (rho + rho^dagger)/2, which keeps snapshots exactly Hermitian.
The snapshots are stacked into one (B, T, d, d) array once the run ends;
the observables and the positivity and trace gate each take one pass
over that stack, and all of them round exactly as a per-snapshot loop
would. Positivity is monitored at each snapshot but never projected: a
violation beyond the fail tolerance aborts the run, naming the first
offending snapshot, because hiding it would mask exactly the model
pathologies this package exists to expose.

The right-hand sides come from :mod:`rpmix.models`: the adaptive stepper
runs the one-matrix closure of :func:`~rpmix.models.rhs_function`, the
fixed-step stepper the stacked closure of
:func:`~rpmix.models.stacked_rhs_function`. None of the flows has a Hamiltonian, so the two linear ones have
exact propagators, kept as oracles: the projection-replacement equation
damps every matrix block except the triplet-triplet one at rate k_S,
while the anticommutator equation damps the singlet-singlet block at k_S
and the singlet-triplet coherences at k_S/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ModelKind, ModelSingular, RateParams, rhs_function, stacked_rhs_function
from .spinspace import (
    PSD_FAIL_TOL,
    TRACE_TOL,
    DensityMatrix,
    validate,
)

METHODS = ("rk4-fixed", "rk45-adaptive")
DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12
BASE_DT_SCALE = 1e-3  # the default RK4 step is BASE_DT_SCALE / k_S
MIN_STEP = 1e-12


class IntegrationError(Exception):
    """Raised when a run cannot be completed (step underflow, invalid state)."""


@dataclass(frozen=True)
class ObservableSeries:
    """Per-snapshot scalar observables, aligned with Trajectory.times."""

    trace: np.ndarray
    p_singlet: np.ndarray
    p_triplet: np.ndarray
    min_eigenvalue: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one integration, aligned with a strictly increasing grid."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    observables: ObservableSeries


def _resymmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _rk4_step(f, m: np.ndarray, h: float):
    """One classic RK4 step, re-symmetrized; returns (new state, the four stages)."""
    k1 = f(m)
    k2 = f(m + (0.5 * h) * k1)
    k3 = f(m + (0.5 * h) * k2)
    k4 = f(m + h * k3)
    return _resymmetrize(m + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)), (k1, k2, k3, k4)


def _is_fixed_point(m: np.ndarray, new: np.ndarray, stages) -> bool:
    """Whether a step returned m bit for bit (sign bits included) from four exactly zero stages.

    Every stage and update then multiplies only exact zeros by a positive
    step size, so a step of any size returns m bit for bit as well.
    """
    return not any(k.any() for k in stages) and new.tobytes() == m.tobytes()


# Fehlberg 4(5) tableau. _FEHLBERG_A[i] holds the coefficients of stages
# 0..i-1 in stage i, shaped (i, 1, 1) to weight a stage stack. The rows of
# _FEHLBERG_W are the 4th- and 5th-order weights of stages 0, 2, 3, 4 and 5;
# stage 1 has zero weight in both orders.
_FEHLBERG_A = tuple(
    np.array(row).reshape(-1, 1, 1)
    for row in (
        (),
        (1.0 / 4.0,),
        (3.0 / 32.0, 9.0 / 32.0),
        (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
        (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
        (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
    )
)
_FEHLBERG_USED = np.array([0, 2, 3, 4, 5])
_FEHLBERG_W = np.array([
    (25.0 / 216.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0),
    (16.0 / 135.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0),
]).reshape(2, 5, 1, 1)


def _rkf45_step(f, m: np.ndarray, h: float):
    """One Fehlberg trial step: returns (5th-order result, error estimate).

    The stages live in one (6, d, d) array. Each weighted stage sum is a
    reduction over the stage axis, which numpy adds term by term from
    zero, so it rounds exactly as a running sum of the terms would.
    """
    k = np.empty((6,) + m.shape, dtype=complex)
    k[0] = f(m)
    for i in range(1, 6):
        k[i] = f(m + h * np.add.reduce(_FEHLBERG_A[i] * k[:i]))
    m4, m5 = m + h * np.add.reduce(_FEHLBERG_W * k[_FEHLBERG_USED], axis=1)
    return m5, m5 - m4


def _substeps(t0: float, t1: float, dt: float) -> tuple[int, float]:
    """The number and size of the uniform RK4 substeps spanning [t0, t1] at most dt apart."""
    n_sub = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
    return n_sub, (t1 - t0) / n_sub


def _advance_fixed(f, m: np.ndarray, n_sub: int, h: float) -> np.ndarray:
    for _ in range(n_sub):
        m, _ = _rk4_step(f, m, h)
    return m


def _advance_adaptive(
    f,
    m: np.ndarray,
    t0: float,
    t1: float,
    h: float,
    rel_tol: float,
    abs_tol: float,
    t_end: float,
):
    """Error-controlled advance over [t0, t1]; returns (state, last step size)."""
    t = t0
    while t < t1 - 1e-15 * max(1.0, t1):
        h = min(h, t1 - t)
        trial, err = _rkf45_step(f, m, h)
        scale = abs_tol + rel_tol * np.maximum(np.abs(m), np.abs(trial))
        err_ratio = float(np.max(np.abs(err) / scale))
        if not math.isfinite(err_ratio):
            raise IntegrationError(f"non-finite error estimate at t = {t:.12g}")
        if err_ratio <= 1.0:
            t += h
            m = _resymmetrize(trial)
            factor = 5.0 if err_ratio == 0.0 else min(5.0, 0.9 * err_ratio ** -0.2)
        else:
            factor = max(0.2, 0.9 * err_ratio ** -0.2)
            if h <= MIN_STEP:
                raise IntegrationError(
                    f"step size underflow at t = {t:.12g} (error ratio {err_ratio:.3g})"
                )
        h = min(max(h * factor, MIN_STEP), t_end)
    return m, h


def _caused(error: Exception, cause: Exception) -> Exception:
    error.__cause__ = cause
    return error


def _prepare(models, rho_init: DensityMatrix, params: RateParams, grid, dt: float | None):
    """The checks made before any step; returns (times, dt, outcomes).

    ``outcomes`` holds, per model, the error for an initial state without
    the unit trace a normalized model needs, or None. dt is resolved and
    checked only when some model is left to run.
    """
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("grid must be a one-dimensional sequence of times")
    if times[0] != 0.0:
        raise ValueError(f"grid must start at 0, got {times[0]}")
    if times.size > 1 and np.any(np.diff(times) <= 0.0):
        raise ValueError("grid times must be strictly increasing")
    report = validate(rho_init)
    if not report.ok:
        raise IntegrationError(f"initial state fails validation: {'; '.join(report.issues)}")
    outcomes = [
        IntegrationError(
            f"{model.value} requires a unit-trace initial state, got trace {rho_init.trace:.12g}"
        )
        if model.is_normalized and abs(rho_init.trace - 1.0) > TRACE_TOL
        else None
        for model in models
    ]
    if not all(outcomes):
        if dt is None:
            dt = BASE_DT_SCALE / params.k_s if params.k_s > 0 else float(times[-1]) / 1000.0
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
    return times, dt, outcomes


def integrate(
    model: ModelKind,
    rho_init: DensityMatrix,
    params: RateParams,
    grid,
    method: str = "rk45-adaptive",
    dt: float | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> Trajectory:
    """Integrate the selected master equation over a snapshot grid.

    Parameters
    ----------
    grid : array-like
        Strictly increasing times starting at 0; a snapshot is recorded
        at every grid point. No interpolation happens between points.
    dt : float, optional
        Substep for "rk4-fixed"; defaults to BASE_DT_SCALE / k_S.

    Raises
    ------
    IntegrationError
        On step underflow or when a snapshot violates the positivity or
        trace tolerances (verdict "fail" from validate).
    ModelSingular
        Propagated from the normalized-kominis flow where the equation
        is genuinely undefined; re-raised with the failure time attached.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid methods: {', '.join(METHODS)}")
    if method == "rk4-fixed":
        (outcome,) = integrate_stack((model,), rho_init, params, grid, dt)
    else:
        outcome = _integrate_adaptive(model, rho_init, params, grid, dt, rel_tol, abs_tol)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def integrate_stack(
    models, rho_init: DensityMatrix, params: RateParams, grid, dt: float | None = None
) -> tuple[Trajectory | Exception, ...]:
    """Integrate one initial state under several models as one fixed-step RK4 stack.

    Member b of the (B, d, d) stack evolves under ``models[b]``. Its
    outcome is, bit for bit, the Trajectory that ``integrate(models[b],
    rho_init, params, grid, method="rk4-fixed", dt=dt)`` returns, or the
    exception with the message that call raises; a failing member leaves
    the stack and the others go on. Errors shared by every member (the
    grid, dt, an invalid initial state) are raised.

    One probing substep, the first interval's, is taken before the run.
    If it finds the stack at a fixed point, no step is taken and the
    state is repeated at every later snapshot; each snapshot is still
    built, validated and gated. Otherwise the probe is discarded.
    """
    times, dt, outcomes = _prepare(models, rho_init, params, grid, dt)
    space = rho_init.space
    live = [b for b, outcome in enumerate(outcomes) if outcome is None]
    states = [[rho_init] for _ in models]
    stack = np.empty((len(models), times.size) + rho_init.matrix.shape, dtype=complex)
    stack[:, 0] = rho_init.matrix
    x = np.array([rho_init.matrix] * len(live))
    f = stacked_rhs_function([models[b] for b in live], space, params) if live else None

    def drop(j, error):
        nonlocal x, f
        outcomes[live.pop(j)] = error
        x = np.delete(x, j, axis=0)
        if live:
            f = stacked_rhs_function([models[b] for b in live], space, params)

    frozen = False
    if live and times.size > 1:
        h = _substeps(float(times[0]), float(times[1]), dt)[1]
        try:
            frozen = _is_fixed_point(x, *_rk4_step(f, x, h))
        except ModelSingular:
            pass  # the first interval below meets it again and drops the member
    for i in range(1, times.size):
        if not live:
            break
        t0, t1 = float(times[i - 1]), float(times[i])
        n_sub, h = _substeps(t0, t1, dt)
        while live and not frozen:
            try:
                x_next = _advance_fixed(f, x, n_sub, h)
            except ModelSingular as exc:
                # the other members restart the interval from the same state
                drop(exc.member, _caused(ModelSingular(f"at t in ({t0:.6g}, {t1:.6g}]: {exc}"), exc))
            else:
                x = x_next
                break
        for j in reversed(range(len(live))):
            try:
                states[live[j]].append(DensityMatrix(space, x[j]))
            except ValueError as exc:
                drop(j, _caused(IntegrationError(f"invalid state at t = {t1:.6g}: {exc}"), exc))
        stack[live, i] = x
    if live:
        for b, outcome in zip(live, _gate(times, [states[b] for b in live], stack[live])):
            outcomes[b] = outcome
    return tuple(outcomes)


def _integrate_adaptive(model, rho_init, params, grid, dt, rel_tol, abs_tol) -> Trajectory | Exception:
    times, _, (error,) = _prepare((model,), rho_init, params, grid, dt)
    if error is not None:
        return error
    space = rho_init.space
    f = rhs_function(model, space, params)
    t_end = float(times[-1]) if times[-1] > 0 else 1.0
    states = [rho_init]
    m = rho_init.matrix
    h = 0.1 * t_end
    for i in range(1, times.size):
        t0, t1 = float(times[i - 1]), float(times[i])
        try:
            m, h = _advance_adaptive(f, m, t0, t1, h, rel_tol, abs_tol, t_end)
        except ModelSingular as exc:
            raise ModelSingular(f"at t in ({t0:.6g}, {t1:.6g}]: {exc}") from exc
        try:
            states.append(DensityMatrix(space, m))
        except ValueError as exc:
            raise IntegrationError(f"invalid state at t = {t1:.6g}: {exc}") from exc
    (outcome,) = _gate(times, [states], np.array([state.matrix for state in states])[None])
    return outcome


def _gate(times, states, stack) -> list[Trajectory | IntegrationError]:
    """Observables and the positivity/trace gate of a (B, T, d, d) snapshot stack.

    Returns one Trajectory per member, or the IntegrationError naming its
    first offending snapshot, positivity before trace. Each observable
    takes one pass over the stack, and all of them round exactly as a
    per-snapshot loop would; p_singlet and p_triplet stay one 1-D dot
    product per snapshot, because a stacked matrix-vector product rounds
    differently for d >= 4. The gate reads np.trace, which equals
    DensityMatrix.trace bit for bit, where the diagonal sum does not.
    """
    space = states[0][0].space
    diag = np.diagonal(stack, axis1=2, axis2=3).real
    diag_sum = diag.sum(axis=2)
    trace = np.trace(stack, axis1=2, axis2=3).real
    min_eigenvalue = np.linalg.eigvalsh(stack)[..., 0]
    outcomes = []
    for j, rows in enumerate(diag):
        negative = min_eigenvalue[j] < -PSD_FAIL_TOL
        bad = np.flatnonzero(negative | (trace[j] <= 0.0) | (trace[j] > 1.0 + TRACE_TOL))
        if not bad.size:
            series = ObservableSeries(
                trace=diag_sum[j],
                p_singlet=np.array([row @ space.singlet_diag for row in rows]),
                p_triplet=np.array([row @ space.triplet_diag for row in rows]),
                min_eigenvalue=min_eigenvalue[j],
            )
            outcomes.append(Trajectory(times=times, states=tuple(states[j]), observables=series))
            continue
        i = bad[0]
        if negative[i]:
            message = f"positivity violated at t = {times[i]:.6g}: min eigenvalue {min_eigenvalue[j, i]:.3e}"
        else:
            message = f"trace out of range at t = {times[i]:.6g}: {trace[j, i]:.12g}"
        outcomes.append(IntegrationError(message))
    return outcomes


def analytic_jones_hore(rho_init: DensityMatrix, params: RateParams, t: float) -> DensityMatrix:
    """Exact solution of the projection-replacement flow.

    rho(t) = Q_T rho_0 Q_T + e^{-k_S t} (rho_0 - Q_T rho_0 Q_T): every
    block except the triplet-triplet one decays at rate k_S.
    """
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    tt = rho_init.space.triplet_mask
    factor = tt + np.exp(-params.k_s * t) * (1.0 - tt)
    return DensityMatrix(rho_init.space, factor * rho_init.matrix)


def analytic_haberkorn(rho_init: DensityMatrix, params: RateParams, t: float) -> DensityMatrix:
    """Exact solution of the anticommutator flow.

    rho(t) = e^{-(k_S/2) Q_S t} rho_0 e^{-(k_S/2) Q_S t}: the
    singlet-singlet block decays at k_S, singlet-triplet coherences at
    k_S/2, and the triplet-triplet block is constant.
    """
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    s = np.exp(-0.5 * params.k_s * t * rho_init.space.singlet_diag)
    return DensityMatrix(rho_init.space, s[:, None] * rho_init.matrix * s[None, :])
