"""Kinetic-mixture decomposition of the surviving radical-pair ensemble.

The surviving (normalized) state is written as a two-component mixture

    rho_nr = w_0 rho_0 + w_T rho_T

of the unmeasured initial state rho_0 and the triplet-projected state
rho_T = Q_T rho_0 Q_T / p_T, with p_S = Tr(Q_S rho_0) and
p_T = Tr(Q_T rho_0) the initial singlet/triplet fractions. The kinetic
scheme drains rho_0 at rate k_S, sending its singlet fraction to product
and its triplet fraction to rho_T:

    df_0/dt = -k_S f_0              f_0(t) = exp(-k_S t)
    df_T/dt = p_T k_S f_0           f_T(t) = p_T (1 - exp(-k_S t))

The survival probability is f_0 + f_T (the remainder 1 - f_0 - f_T has
formed product), and the normalized mixture weights are

    w_0 = f_0 / (f_0 + f_T)         w_T = f_T / (f_0 + f_T)

An alternative weight assignment, w_0 = exp(-k_S t) and
w_T = 1 - exp(-k_S t) (:func:`kominis_weights`), omits the factor p_T
and is the disputed form: it coincides with the corrected weights only
when p_T = 1, and drives the inconsistent alternative normalized flow.

The weight derivative satisfies two algebraically equal forms,

    dw_0/dt = -k_S w_0 (w_T + p_T w_0) = -k_S w_0 Tr[Q_T rho_nr Q_T]

and :func:`weight_rate` evaluates both, turning the equality into a
runtime consistency assertion on its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinspace import TRACE_TOL, DensityMatrix

P_FLOOR = 1e-12
WEIGHT_FLOOR = 1e-300
RATE_FORM_TOL = 1e-12  # per unit k_S


class AllReacted(Exception):
    """Raised when the surviving fraction f_0 + f_T has decayed to nothing."""


class MixtureInconsistent(Exception):
    """Raised when a state fed to the weight-rate check is not of mixture form."""


@dataclass(frozen=True)
class MixtureState:
    """Frozen ingredients of the kinetic scheme for one initial state.

    p_s, p_t, rho_0, and rho_t are constants of the scheme, fixed by the
    initial state; the time-dependent survival fractions come from
    :func:`kinetic_fractions`. rho_t is None when the initial state has
    no triplet component, so a vanishing projection can never silently
    divide by zero.
    """

    p_s: float
    p_t: float
    rho_0: DensityMatrix
    rho_t: DensityMatrix | None

    def __post_init__(self):
        if abs(self.p_s + self.p_t - 1.0) > 1e-12:
            raise ValueError(f"p_s + p_t must be 1, got {self.p_s + self.p_t!r}")
        if self.rho_t is not None:
            rt = self.rho_t
            if abs(rt.trace - 1.0) > 1e-12:
                raise ValueError("rho_t must be normalized")
            support_err = np.max(
                np.abs(rt.space.singlet_diag[:, None] * rt.matrix)
            )
            if support_err > 1e-12:
                raise ValueError(
                    f"rho_t has singlet support {support_err:.3e}; must live in the triplet subspace"
                )


def mixture_from_initial(rho_init: DensityMatrix) -> MixtureState:
    """Freeze the scheme's constants from a normalized initial state.

    Computes p_S = Tr(Q_S rho_0), p_T = Tr(Q_T rho_0), and the
    renormalized triplet projection rho_T = Q_T rho_0 Q_T / p_T (absent
    when p_T <= P_FLOOR). Note the projection destroys singlet-triplet
    coherences of rho_0.
    """
    tr = rho_init.trace
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"mixture requires a normalized state, got trace {tr:.12g}")
    space = rho_init.space
    diag = np.diagonal(rho_init.matrix).real
    p_s = float(diag @ space.singlet_diag)
    p_t = float(diag @ space.triplet_diag)
    rho_t = None
    if p_t > P_FLOOR:
        rho_t = DensityMatrix(space, space.triplet_mask * rho_init.matrix / p_t)
    return MixtureState(p_s=p_s, p_t=p_t, rho_0=rho_init, rho_t=rho_t)


def fraction_rates(f_0: float, p_t: float, k_s: float) -> tuple[float, float]:
    """Rate equations of the scheme: (df_0/dt, df_T/dt) = (-k_S f_0, p_T k_S f_0)."""
    if not 0.0 <= f_0 <= 1.0:
        raise ValueError(f"f_0 must lie in [0, 1], got {f_0}")
    if not 0.0 <= p_t <= 1.0:
        raise ValueError(f"p_t must lie in [0, 1], got {p_t}")
    if k_s < 0.0:
        raise ValueError(f"k_s must be nonnegative, got {k_s}")
    return (-k_s * f_0, p_t * k_s * f_0)


def kinetic_fractions(t, p_t: float, k_s: float):
    """Closed-form survival fractions f_0 = e^{-k_S t}, f_T = p_T (1 - e^{-k_S t}).

    Accepts a time or an array of times; raises on negative t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be nonnegative")
    f_0 = np.exp(-k_s * t)
    return f_0, p_t * (1.0 - f_0)


def corrected_weights(f_0, f_t):
    """Survival-normalized mixture weights w_0 = f_0/(f_0+f_T), w_T = f_T/(f_0+f_T).

    Takes fractions at one time or arrays of them, elementwise.

    Raises
    ------
    AllReacted
        If f_0 + f_T <= WEIGHT_FLOOR anywhere (every pair has formed
        product), naming the first such total.
    """
    total = f_0 + f_t
    reacted = np.ravel(total <= WEIGHT_FLOOR)
    if reacted.any():
        raise AllReacted(
            f"surviving fraction {np.ravel(total)[reacted.argmax()]:.3e} at or below floor {WEIGHT_FLOOR:.1e}"
        )
    return f_0 / total, f_t / total


def kominis_weights(t, k_s: float):
    """The disputed weights w_0 = e^{-k_S t}, w_T = 1 - e^{-k_S t}.

    These ignore the triplet fraction p_T of the initial state: they are
    the survival fractions at p_T = 1, and are inconsistent with the
    kinetic scheme except there. They are kept as the comparison target
    for the discrepancy checks.
    """
    return kinetic_fractions(t, 1.0, k_s)


# scheme-name strings used by the CLI and the verification suite
WEIGHT_SCHEMES = ("corrected", "kominis")


def weights_at(t, mix: MixtureState, k_s: float, scheme: str):
    """Evaluate the selected weight scheme at time t, or elementwise at an array of times."""
    if scheme == "corrected":
        f_0, f_t = kinetic_fractions(t, mix.p_t, k_s)
        return corrected_weights(f_0, f_t)
    if scheme == "kominis":
        return kominis_weights(t, k_s)
    raise ValueError(f"unknown weight scheme {scheme!r}; valid: {', '.join(WEIGHT_SCHEMES)}")


def reconstruct(weights: tuple[float, float], mix: MixtureState) -> DensityMatrix:
    """Assemble rho_nr = w_0 rho_0 + w_T rho_T from the mixture ingredients."""
    w_0, w_t = weights
    if abs(w_0 + w_t - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {w_0 + w_t!r}")
    if w_t == 0.0:
        return mix.rho_0
    if mix.rho_t is None:
        raise ValueError("nonzero triplet weight but the mixture has no rho_t")
    return DensityMatrix(
        mix.rho_0.space, w_0 * mix.rho_0.matrix + w_t * mix.rho_t.matrix
    )


def weight_rate(
    weights: tuple[float, float],
    rho_nr: DensityMatrix,
    mix: MixtureState,
    k_s: float,
) -> float:
    """dw_0/dt, computed in both algebraic forms and cross-checked.

    The kinetic form -k_S w_0 (w_T + p_T w_0) and the trace form
    -k_S w_0 Tr[Q_T rho_nr Q_T] agree exactly when rho_nr is the mixture
    built from these weights; a disagreement beyond RATE_FORM_TOL * k_S
    means the caller's rho_nr is not of mixture form and raises
    :class:`MixtureInconsistent`. The bound scales with k_S because both
    forms do, so the verdict depends only on the dimensionless rate.
    Returns the trace form. dw_T/dt is its negative.
    """
    w_0, w_t = weights
    kinetic_form = -k_s * w_0 * (w_t + mix.p_t * w_0)
    tr_t = float(np.real(np.trace(rho_nr.space.triplet_mask * rho_nr.matrix)))
    trace_form = -k_s * w_0 * tr_t
    if abs(kinetic_form - trace_form) > RATE_FORM_TOL * k_s:
        raise MixtureInconsistent(
            f"weight-rate forms disagree: kinetic {kinetic_form!r} vs trace {trace_form!r}; "
            "rho_nr is not the mixture built from these weights"
        )
    return trace_form


def mixture_rhs(
    mix: MixtureState, weights: tuple[float, float], k_s: float
) -> np.ndarray:
    """Time derivative of the reconstructed mixture state.

    drho_nr/dt = (dw_0/dt) rho_0 + (dw_T/dt) rho_T, with the weight rate
    evaluated (and cross-checked) at the reconstructed rho_nr. Returns
    the zero matrix when the weight derivative vanishes (pure-singlet
    scheme or fully projected state), where no rho_T is needed.
    """
    rho_nr = reconstruct(weights, mix)
    dw_0 = weight_rate(weights, rho_nr, mix, k_s)
    if dw_0 == 0.0:
        return np.zeros_like(mix.rho_0.matrix)
    if mix.rho_t is None:
        raise ValueError("nonzero weight derivative requires rho_t")
    return dw_0 * mix.rho_0.matrix - dw_0 * mix.rho_t.matrix
