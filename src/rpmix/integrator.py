"""Time evolution of the master-equation variants.

Every flow scales each entry of the singlet-singlet, singlet-triplet and
triplet-triplet blocks of rho by one real rate
(:func:`~rpmix.models.block_rates`), so both steppers run on the three
block factors (a_SS, a_ST, tau) in Python floats, and `integrate` scales
the re-symmetrized initial state by them once per run. The
triplet-triplet factor is carried as the triplet population tau itself,
which stays at most 1, times Q_T rho_0 Q_T / tau_0.

- "rk4-fixed": classic fourth-order Runge-Kutta with a uniform substep,
  the workhorse for convergence-order and consistency tests.
- "rk45-adaptive": Fehlberg embedded 4(5) pair, propagating the
  fifth-order solution, with standard step control (safety factor 0.9,
  step factor clamped to [0.2, 5], step to [1e-12, t_end]). The error
  norm is the matrix step's max |e_ij| / (abs_tol + rel_tol max(|m_ij|,
  |m'_ij|)) restated on the factors: entry ij of block X has error
  |e_X B_ij|, and its ratio grows with |B_ij|, so the block's maximum
  sits at M_X = max |B_ij|. An exactly zero error counts as ratio 0, so
  abs_tol = 0 is pure relative control.

The first snapshot is the initial state itself; the others are real
multiples of the re-symmetrized initial state's blocks, hence exactly
Hermitian. An empty block's factor starts at exactly 0, and da/dt = c a
keeps it there however unstable the step, so at an exact fixed point,
where every rate acting on a nonzero block is exactly zero, they are the
initial state bit for bit.
A Trajectory holds the factors as one read-only (T, 3) array, on the
blocks of :func:`split_blocks`, and the snapshots stacked into one
read-only (T, d, d) array: the finiteness check, the observables and
the positivity and trace gate each take one pass over the stack, all of
them rounding exactly as a per-snapshot loop would, and DensityMatrix
snapshots are built only when Trajectory.states is read.
Positivity is monitored at each snapshot but never projected: a
violation beyond the fail tolerance aborts the run, naming the first
offending snapshot, because hiding it would mask exactly the model
pathologies this package exists to expose.

:func:`~rpmix.models.rhs_function`, the one-matrix form of each flow,
serves only the checks; no stepper calls it. The two linear flows have
exact propagators, kept as oracles: the projection-replacement equation
damps every matrix block except the triplet-triplet one at rate k_S,
while the anticommutator equation damps the singlet-singlet block at k_S
and the singlet-triplet coherences at k_S/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# no stepper calls rhs_function; it stays bound here for perfbench/tracing.py to wrap
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


@dataclass(frozen=True, eq=False)
class ObservableSeries:
    """Per-snapshot scalar observables, aligned with Trajectory.times."""

    trace: np.ndarray
    p_singlet: np.ndarray
    p_triplet: np.ndarray
    min_eigenvalue: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots of one integration, aligned with a strictly increasing grid.

    factors holds the block factors (a_SS, a_ST, tau) of every snapshot as one
    read-only (T, 3) array, on the blocks of :func:`split_blocks`; stack holds
    the snapshots as one read-only complex (T, d, d) array; states wraps its
    rows as DensityMatrix objects on first access, states[0] being initial itself.
    """

    times: np.ndarray
    factors: np.ndarray
    stack: np.ndarray
    observables: ObservableSeries
    initial: DensityMatrix

    @cached_property
    def states(self) -> tuple[DensityMatrix, ...]:
        space = self.initial.space
        return (self.initial, *(DensityMatrix(space, m) for m in self.stack[1:]))


# Fehlberg 4(5) tableau: _A<i> weights stages 1..i-1 in stage i (_A2 = 1/4 is
# inline); _B4 and _B5 weight stages 1, 3, 4, 5 (and 6): stage 2 has weight 0.
_A3 = (3.0 / 32.0, 9.0 / 32.0)
_A4 = (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0)
_A5 = (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0)
_A6 = (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0)
_B4 = (25.0 / 216.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0)
_B5 = (16.0 / 135.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)


def _fehlberg_blocks(rates, r1, x, h: float):
    """One unrolled Fehlberg trial step from x, whose rates are r1: (5th-order factors, error estimate)."""
    s, c, tau = x
    r_s, r_c, r_t = r1
    k1s, k1c, k1t = r_s * s, r_c * c, r_t * tau
    y_s, y_c, y_t = s + h * (0.25 * k1s), c + h * (0.25 * k1c), tau + h * (0.25 * k1t)
    r_s, r_c, r_t = rates(y_t)
    k2s, k2c, k2t = r_s * y_s, r_c * y_c, r_t * y_t
    a1, a2 = _A3
    y_s = s + h * (a1 * k1s + a2 * k2s)
    y_c = c + h * (a1 * k1c + a2 * k2c)
    y_t = tau + h * (a1 * k1t + a2 * k2t)
    r_s, r_c, r_t = rates(y_t)
    k3s, k3c, k3t = r_s * y_s, r_c * y_c, r_t * y_t
    a1, a2, a3 = _A4
    y_s = s + h * (a1 * k1s + a2 * k2s + a3 * k3s)
    y_c = c + h * (a1 * k1c + a2 * k2c + a3 * k3c)
    y_t = tau + h * (a1 * k1t + a2 * k2t + a3 * k3t)
    r_s, r_c, r_t = rates(y_t)
    k4s, k4c, k4t = r_s * y_s, r_c * y_c, r_t * y_t
    a1, a2, a3, a4 = _A5
    y_s = s + h * (a1 * k1s + a2 * k2s + a3 * k3s + a4 * k4s)
    y_c = c + h * (a1 * k1c + a2 * k2c + a3 * k3c + a4 * k4c)
    y_t = tau + h * (a1 * k1t + a2 * k2t + a3 * k3t + a4 * k4t)
    r_s, r_c, r_t = rates(y_t)
    k5s, k5c, k5t = r_s * y_s, r_c * y_c, r_t * y_t
    a1, a2, a3, a4, a5 = _A6
    y_s = s + h * (a1 * k1s + a2 * k2s + a3 * k3s + a4 * k4s + a5 * k5s)
    y_c = c + h * (a1 * k1c + a2 * k2c + a3 * k3c + a4 * k4c + a5 * k5c)
    y_t = tau + h * (a1 * k1t + a2 * k2t + a3 * k3t + a4 * k4t + a5 * k5t)
    r_s, r_c, r_t = rates(y_t)
    k6s, k6c, k6t = r_s * y_s, r_c * y_c, r_t * y_t
    b1, b3, b4, b5 = _B4
    s4 = s + h * (b1 * k1s + b3 * k3s + b4 * k4s + b5 * k5s)
    c4 = c + h * (b1 * k1c + b3 * k3c + b4 * k4c + b5 * k5c)
    tau4 = tau + h * (b1 * k1t + b3 * k3t + b4 * k4t + b5 * k5t)
    b1, b3, b4, b5, b6 = _B5
    s5 = s + h * (b1 * k1s + b3 * k3s + b4 * k4s + b5 * k5s + b6 * k6s)
    c5 = c + h * (b1 * k1c + b3 * k3c + b4 * k4c + b5 * k5c + b6 * k6c)
    tau5 = tau + h * (b1 * k1t + b3 * k3t + b4 * k4t + b5 * k5t + b6 * k6t)
    return (s5, c5, tau5), (s5 - s4, c5 - c4, tau5 - tau4)


def _rk4_advance(rates, dt: float):
    """The fixed-step advance of the block factors x = (a_SS, a_ST, tau) over one snapshot interval.

    Classic RK4 with uniform substeps at most dt apart. Block X scales as
    da_X/dt = c_X(tau) a_X, with tau = Tr{Q_T rho Q_T} standing in for
    the triplet-triplet factor times tau_0.
    """

    def advance(x, t0: float, t1: float):
        n_sub = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
        h = (t1 - t0) / n_sub
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

    return advance


def _rkf45_advance(rates, peaks, t_end: float, rel_tol: float, abs_tol: float):
    """The error-controlled advance of the block factors over one snapshot interval.

    peaks holds M_X = max |B_ij| of each block; h carries over between intervals.
    A singular trial stage rejects the step, raising only at MIN_STEP; a
    singular accepted state raises at once.
    """
    h = 0.1 * t_end

    def advance(x, t0: float, t1: float):
        nonlocal h
        t = t0
        while t < t1 - 1e-15 * max(1.0, t1):
            h = min(h, t1 - t)
            r1 = rates(x[2])
            try:
                trial, err = _fehlberg_blocks(rates, r1, x, h)
            except ModelSingular:
                if h <= MIN_STEP:
                    raise
                h = max(0.2 * h, MIN_STEP)
                continue
            err_ratio = 0.0
            for e, a, b, peak in zip(err, x, trial, peaks):
                if e:  # a zero error counts as ratio 0; so does an empty block, whose factor stays 0
                    scale = abs_tol + rel_tol * max(abs(a), abs(b)) * peak
                    if not scale:
                        raise IntegrationError(
                            f"non-finite error estimate at t = {t:.12g}: the error scale"
                            f" abs_tol + rel_tol*|factor| underflowed to 0 with abs_tol = {abs_tol:g};"
                            " a positive abs_tol avoids this"
                        )
                    ratio = abs(e) * peak / scale
                    if not math.isfinite(ratio):
                        raise IntegrationError(f"non-finite error estimate at t = {t:.12g}")
                    err_ratio = max(err_ratio, ratio)
            if err_ratio <= 1.0:
                t += h
                x = trial
                factor = 5.0 if err_ratio == 0.0 else min(5.0, 0.9 * err_ratio ** -0.2)
            else:
                factor = max(0.2, 0.9 * err_ratio ** -0.2)
                if h <= MIN_STEP:
                    raise IntegrationError(
                        f"step size underflow at t = {t:.12g} (error ratio {err_ratio:.3g})"
                    )
            h = min(max(h * factor, MIN_STEP), t_end)
        return x

    return advance


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
    rates = block_rates(model, params.k_s)
    blocks, _, tau0 = split_blocks(rho_init)
    if method == "rk4-fixed":
        advance = _rk4_advance(rates, dt)
    else:
        peaks = [float(np.abs(block.view(complex)).max()) for block in blocks]
        advance = _rkf45_advance(rates, peaks, float(times[-1]) or 1.0, rel_tol, abs_tol)
    x = (float(blocks[0].any()), float(blocks[1].any()), tau0)
    factors = [x]
    for i in range(1, times.size):
        t0, t1 = float(times[i - 1]), float(times[i])
        try:
            x = advance(x, t0, t1)
        except ModelSingular as exc:
            raise ModelSingular(f"at t in ({t0:.6g}, {t1:.6g}]: {exc}") from exc
        factors.append(x)
        if not all(map(math.isfinite, x)):
            break  # this snapshot fails the finiteness check below
    factors = np.array(factors)
    a_ss, a_st, tau = factors.T[:, :, None, None]
    # a non-finite factor makes 0 * inf entries; the finiteness check rejects its snapshot
    with np.errstate(invalid="ignore", over="ignore"):
        stack = (a_ss * blocks[0] + a_st * blocks[1] + tau * blocks[2]).view(complex)
    stack[0] = rho_init.matrix
    finite = np.isfinite(stack.view(float)).all(axis=(1, 2))
    if not finite.all():
        raise IntegrationError(
            f"invalid state at t = {times[finite.argmin()]:.6g}: density matrix contains non-finite entries"
        )
    factors.setflags(write=False)
    stack.setflags(write=False)
    observables = _gate(times, rho_init.space, stack)
    return Trajectory(times=times, factors=factors, stack=stack, observables=observables, initial=rho_init)


def split_blocks(rho_init: DensityMatrix) -> tuple[list[np.ndarray], float, float]:
    """Split the re-symmetrized initial state into blocks: (blocks, p_S, tau_0).

    blocks are real (d, 2d) views of SS, ST and TT / tau_0 (zero at tau_0 = 0),
    so that block factors (a_SS, a_ST, tau) make a_SS SS + a_ST ST + tau TT / tau_0;
    p_S and tau_0 are the traces of SS and TT. The real views keep scaling and
    division in real arithmetic: complex division by a subnormal tau_0 overflows.
    """
    space = rho_init.space
    rho = 0.5 * (rho_init.matrix + rho_init.matrix.conj().T)
    ss_part = np.outer(space.singlet_diag, space.singlet_diag) * rho
    tt_part = space.triplet_mask * rho
    tau0 = float(tt_part.trace().real)
    blocks = [part.view(float) for part in (ss_part, rho - ss_part - tt_part, tt_part)]
    blocks[2] = blocks[2] / tau0 if tau0 != 0.0 else np.zeros_like(blocks[2])
    return blocks, float(ss_part.trace().real), tau0


def _gate(times, space, stack) -> ObservableSeries:
    """Observables and the positivity/trace gate of a (T, d, d) snapshot stack.

    Raises the IntegrationError naming the first offending snapshot,
    positivity before trace. Each observable takes one pass over the
    stack, and all of them round exactly as a per-snapshot loop would;
    p_singlet and p_triplet stay one 1-D dot product per snapshot,
    because a stacked matrix-vector product rounds differently for
    d >= 4. The gate reads np.trace, which equals DensityMatrix.trace bit
    for bit, where the diagonal sum does not.
    """
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
    return ObservableSeries(
        trace=diag.sum(axis=1),
        p_singlet=np.array([row @ space.singlet_diag for row in diag]),
        p_triplet=np.array([row @ space.triplet_diag for row in diag]),
        min_eigenvalue=min_eigenvalue,
    )


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
