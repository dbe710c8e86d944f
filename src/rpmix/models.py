"""Master-equation right-hand sides for singlet-selective recombination.

Four variants, all with recombination only out of the singlet channel
(rate k_S), no triplet reaction and no coherent (Hamiltonian) term:

- jones-hore (unnormalized):   drho/dt = -k_S (rho - Q_T rho Q_T)
- haberkorn  (unnormalized):   drho/dt = -(k_S/2) (Q_S rho + rho Q_S)
- normalized-jh:     drho/dt = -k_S (Tr{Q_T rho Q_T} rho - Q_T rho Q_T)
- normalized-kominis: drho/dt = -k_S (rho - Q_T rho Q_T / Tr{Q_T rho Q_T})

The two unnormalized flows lose trace at the rate -k_S Tr(Q_S rho). The
two normalized flows act on the unit-trace surviving-pair state and are
traceless.

Each flow is written twice. :func:`rhs_function` returns a closure on
one (d, d) matrix; it serves only the checks (mixture-identity compares
the mixture's derivative against it) and the tests. Every flow also
multiplies each entry of the singlet-singlet (SS), singlet-triplet (ST)
and triplet-triplet (TT) blocks by one real rate that depends only on
tau = Tr{Q_T rho Q_T}; :func:`block_rates` returns those three rates as
a function of tau, which both steppers run:

- jones-hore:         (-k_S, -k_S, 0)
- haberkorn:          (-k_S, -k_S/2, 0)
- normalized-jh:      (-k_S tau, -k_S tau, -k_S (tau - 1))
- normalized-kominis: (-k_S, -k_S, -k_S (1 - 1/tau))

The normalized-jh form is written multiplied out, which removes the
removable 0/0 at pure-singlet states (where it has the fixed point the
unnormalized flow implies). The normalized-kominis form is kept literal:
its division by Tr{Q_T rho Q_T} is a genuine singularity, and evaluation
at a singlet-pure state raises :class:`ModelSingular` instead of being
masked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spinspace import SpinSpace

DENOM_FLOOR = 1e-12


class ModelSingular(Exception):
    """Raised where a master equation is genuinely undefined (zero denominator)."""


class ModelKind(enum.Enum):
    """Selectable master-equation variants; values are the CLI names."""

    JONES_HORE = "jones-hore"
    HABERKORN = "haberkorn"
    NORMALIZED_JONES_HORE = "normalized-jh"
    NORMALIZED_KOMINIS = "normalized-kominis"

    @classmethod
    def from_name(cls, name: str) -> "ModelKind":
        for kind in cls:
            if kind.value == name:
                return kind
        valid = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown model {name!r}; valid models: {valid}")

    @property
    def is_normalized(self) -> bool:
        return self in (ModelKind.NORMALIZED_JONES_HORE, ModelKind.NORMALIZED_KOMINIS)


@dataclass(frozen=True)
class RateParams:
    """Singlet recombination rate k_S (1/time)."""

    k_s: float

    def __post_init__(self):
        if self.k_s < 0:
            raise ValueError(f"k_s must be nonnegative, got {self.k_s}")


def _singular(tr_t: float) -> ModelSingular:
    return ModelSingular(
        f"triplet population {tr_t:.3e} below floor {DENOM_FLOOR:.1e}; "
        "normalized-kominis flow undefined"
    )


def _decay(model: ModelKind, space: SpinSpace, k: float) -> np.ndarray:
    """Entrywise rate matrix of a linear flow: f(m) = decay * m."""
    if model is ModelKind.JONES_HORE:
        return -k * (1.0 - space.triplet_mask)
    s = space.singlet_diag
    return -(k / 2.0) * (s[:, None] + s[None, :])


def rhs_function(
    model: ModelKind, space: SpinSpace, params: RateParams
) -> Callable[[np.ndarray], np.ndarray]:
    """Raw-matrix derivative function for an integrator.

    Returns f with f(m) = drho/dt evaluated at the matrix m under the
    selected model. The closure does no per-call checks: the normalized
    flows assume Tr(m) = 1, which the caller guarantees.

    Raises
    ------
    ModelSingular
        From the normalized-kominis closure when Tr{Q_T m Q_T} falls below
        DENOM_FLOOR; the equation is undefined at singlet-pure states and
        no regularization is applied.
    """
    k = params.k_s
    tt_mask = space.triplet_mask

    if model is ModelKind.JONES_HORE or model is ModelKind.HABERKORN:
        decay = _decay(model, space, k)
        return lambda m: decay * m

    if model is ModelKind.NORMALIZED_JONES_HORE:

        def f_normalized_jh(m: np.ndarray) -> np.ndarray:
            projected = tt_mask * m
            return -k * (projected.trace().real * m - projected)

        return f_normalized_jh

    if model is ModelKind.NORMALIZED_KOMINIS:

        def f_normalized_kominis(m: np.ndarray) -> np.ndarray:
            projected = tt_mask * m
            tr_t = projected.trace().real
            if tr_t < DENOM_FLOOR:
                raise _singular(tr_t)
            return -k * (m - projected / tr_t)

        return f_normalized_kominis

    raise ValueError(f"unhandled model {model!r}")


def block_rates(
    model: ModelKind, k_s: float
) -> Callable[[float], tuple[float, float, float]]:
    """The flow's rates on its SS, ST and TT blocks as a function of tau.

    Returns r with r(tau) = (c_SS, c_ST, c_TT) in Python floats, where
    rhs_function(model, ...)(m) equals c_X * m on block X, up to
    rounding, and tau is Tr{Q_T m Q_T}. The linear flows ignore tau.

    Raises
    ------
    ModelSingular
        From the normalized-kominis rates when tau falls below
        DENOM_FLOOR, with rhs_function's message.
    """
    k = float(k_s)
    if model is ModelKind.JONES_HORE:
        rates = (-k, -k, 0.0)
        return lambda tau: rates
    if model is ModelKind.HABERKORN:
        rates = (-k, -k / 2.0, 0.0)
        return lambda tau: rates
    if model is ModelKind.NORMALIZED_JONES_HORE:

        def normalized_jh(tau: float) -> tuple[float, float, float]:
            c = -k * tau
            return c, c, -k * (tau - 1.0)

        return normalized_jh

    if model is ModelKind.NORMALIZED_KOMINIS:

        def normalized_kominis(tau: float) -> tuple[float, float, float]:
            if tau < DENOM_FLOOR:
                raise _singular(tau)
            return -k, -k, -k * (1.0 - 1.0 / tau)

        return normalized_kominis

    raise ValueError(f"unhandled model {model!r}")
