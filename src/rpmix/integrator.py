"""Time evolution of the master-equation variants.

Two steppers; the first snapshot of either is the initial state itself.

- "rk4-fixed": classic fourth-order Runge-Kutta with a uniform substep,
  the workhorse for convergence-order and consistency tests. Every flow
  scales each entry of the singlet-singlet, singlet-triplet and
  triplet-triplet blocks by one real rate (:func:`~rpmix.models.block_rates`),
  so the RK4 iterates are exactly rho_0 scaled blockwise by three real
  factors. The stepper runs RK4 on those three scalars in Python floats
  and scales the re-symmetrized initial state by them once per run. The
  triplet-triplet factor is carried as the triplet population tau
  itself, which stays at most 1, times Q_T rho_0 Q_T / tau_0. At an
  exact fixed point every rate that acts on a nonzero block is exactly
  zero, so the state comes back bit for bit at every snapshot.
- "rk45-adaptive": Fehlberg embedded 4(5) pair with standard
  error-controlled step adjustment (safety factor 0.9, step clamped to
  [1e-12, t_end]); the fifth-order solution is propagated. A trial step
  keeps its six stages in one (6, d, d) array and forms every stage
  input, and both embedded solutions, as weighted reductions over it.

Every accepted adaptive step is followed by re-symmetrization
rho <- (rho + rho^dagger)/2, which keeps snapshots exactly Hermitian; the
fixed-step snapshots are real multiples of the re-symmetrized initial
state and Hermitian too. The snapshots are stacked into one (T, d, d)
array once the run ends; the observables and the positivity and trace
gate each take one pass over that stack, and all of them round exactly
as a per-snapshot loop would. Positivity is monitored at each snapshot
but never projected: a violation beyond the fail tolerance aborts the
run, naming the first offending snapshot, because hiding it would mask
exactly the model pathologies this package exists to expose.

The adaptive stepper runs the one-matrix closure of
:func:`~rpmix.models.rhs_function` on the raw density matrix. The two
linear flows have exact propagators, kept as oracles: the
projection-replacement equation damps every matrix block except the
triplet-triplet one at rate k_S, while the anticommutator equation
damps the singlet-singlet block at k_S and the singlet-triplet
coherences at k_S/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ModelKind, ModelSingular, RateParams, block_rates, rhs_function
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


def _advance_blocks(rates, x: tuple[float, float, float], n_sub: int, h: float):
    """n_sub classic RK4 steps of the block factors x = (a_SS, a_ST, tau).

    Block X scales as da_X/dt = c_X(tau) a_X, with tau = Tr{Q_T rho Q_T}
    standing in for the triplet-triplet factor times tau_0.
    """
    s, c, tau = x
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(n_sub):
        r_s, r_c, r_t = rates(tau)
        k1s, k1c, k1t = r_s * s, r_c * c, r_t * tau
        y_s, y_c, y_t = s + half * k1s, c + half * k1c, tau + half * k1t
        r_s, r_c, r_t = rates(y_t)
        k2s, k2c, k2t = r_s * y_s, r_c * y_c, r_t * y_t
        y_s, y_c, y_t = s + half * k2s, c + half * k2c, tau + half * k2t
        r_s, r_c, r_t = rates(y_t)
        k3s, k3c, k3t = r_s * y_s, r_c * y_c, r_t * y_t
        y_s, y_c, y_t = s + h * k3s, c + h * k3c, tau + h * k3t
        r_s, r_c, r_t = rates(y_t)
        s += sixth * (k1s + 2.0 * (k2s + k3s) + r_s * y_s)
        c += sixth * (k1c + 2.0 * (k2c + k3c) + r_c * y_c)
        tau += sixth * (k1t + 2.0 * (k2t + k3t) + r_t * y_t)
    return s, c, tau


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


def _prepare(model, rho_init: DensityMatrix, params: RateParams, grid, dt: float | None):
    """The checks made before any step; returns (times, dt) with dt resolved."""
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
    if model.is_normalized and abs(rho_init.trace - 1.0) > TRACE_TOL:
        raise IntegrationError(
            f"{model.value} requires a unit-trace initial state, got trace {rho_init.trace:.12g}"
        )
    if dt is None:
        dt = BASE_DT_SCALE / params.k_s if params.k_s > 0 else float(times[-1]) / 1000.0
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return times, dt


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
    times, dt = _prepare(model, rho_init, params, grid, dt)
    if method == "rk4-fixed":
        return _integrate_fixed(model, rho_init, params, times, dt)
    return _integrate_adaptive(model, rho_init, params, times, rel_tol, abs_tol)


def _integrate_fixed(model, rho_init, params, times, dt) -> Trajectory:
    space = rho_init.space
    rates = block_rates(model, params.k_s)
    rho = _resymmetrize(rho_init.matrix)
    ss_part = np.outer(space.singlet_diag, space.singlet_diag) * rho
    tt_part = space.triplet_mask * rho
    tau0 = float(tt_part.trace().real)
    # the blocks as real (d, 2d) views, so that each part is scaled and
    # divided in real arithmetic: complex division by a subnormal tau0
    # overflows
    blocks = [part.view(float) for part in (ss_part, rho - ss_part - tt_part, tt_part)]
    blocks[2] = blocks[2] / tau0 if tau0 != 0.0 else np.zeros_like(blocks[2])
    x = (1.0, 1.0, tau0)
    factors = [x]
    for i in range(1, times.size):
        t0, t1 = float(times[i - 1]), float(times[i])
        try:
            x = _advance_blocks(rates, x, *_substeps(t0, t1, dt))
        except ModelSingular as exc:
            raise ModelSingular(f"at t in ({t0:.6g}, {t1:.6g}]: {exc}") from exc
        factors.append(x)
        if not all(map(math.isfinite, x)):
            break  # this snapshot fails validation below
    a_ss, a_st, tau = np.array(factors).T[:, :, None, None]
    stack = (a_ss * blocks[0] + a_st * blocks[1] + tau * blocks[2]).view(complex)
    stack[0] = rho_init.matrix
    states = [rho_init]
    for i in range(1, len(factors)):
        try:
            states.append(DensityMatrix(space, stack[i]))
        except ValueError as exc:
            raise IntegrationError(f"invalid state at t = {times[i]:.6g}: {exc}") from exc
    return _gate(times, states, stack)


def _integrate_adaptive(model, rho_init, params, times, rel_tol, abs_tol) -> Trajectory:
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
    return _gate(times, states, np.array([state.matrix for state in states]))


def _gate(times, states, stack) -> Trajectory:
    """Observables and the positivity/trace gate of a (T, d, d) snapshot stack.

    Raises the IntegrationError naming the first offending snapshot,
    positivity before trace. Each observable takes one pass over the
    stack, and all of them round exactly as a per-snapshot loop would;
    p_singlet and p_triplet stay one 1-D dot product per snapshot,
    because a stacked matrix-vector product rounds differently for
    d >= 4. The gate reads np.trace, which equals DensityMatrix.trace bit
    for bit, where the diagonal sum does not.
    """
    space = states[0].space
    diag = np.diagonal(stack, axis1=1, axis2=2).real
    trace = np.trace(stack, axis1=1, axis2=2).real
    min_eigenvalue = np.linalg.eigvalsh(stack)[:, 0]
    negative = min_eigenvalue < -PSD_FAIL_TOL
    bad = np.flatnonzero(negative | (trace <= 0.0) | (trace > 1.0 + TRACE_TOL))
    if bad.size:
        i = bad[0]
        if negative[i]:
            raise IntegrationError(
                f"positivity violated at t = {times[i]:.6g}: min eigenvalue {min_eigenvalue[i]:.3e}"
            )
        raise IntegrationError(f"trace out of range at t = {times[i]:.6g}: {trace[i]:.12g}")
    series = ObservableSeries(
        trace=diag.sum(axis=1),
        p_singlet=np.array([row @ space.singlet_diag for row in diag]),
        p_triplet=np.array([row @ space.triplet_diag for row in diag]),
        min_eigenvalue=min_eigenvalue,
    )
    return Trajectory(times=times, states=tuple(states), observables=series)


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
