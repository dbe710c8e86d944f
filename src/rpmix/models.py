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

Each flow is written twice: :func:`rhs_function` returns a closure on
one (d, d) matrix, which the adaptive stepper and the checks run, and
:func:`stacked_rhs_function` a closure on a (B, d, d) stack, one kind
per member, which the fixed-step stepper runs. A stack member rounds
exactly as the one-matrix closure would round it alone.

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
from typing import Callable, Sequence

import numpy as np

from .spinspace import SpinSpace

DENOM_FLOOR = 1e-12


class ModelSingular(Exception):
    """Raised where a master equation is genuinely undefined (zero denominator).

    ``member`` is the index of the offending member when a stacked
    right-hand side raises it, and None otherwise.
    """

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


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


def _singular(tr_t: float, member: int | None = None) -> ModelSingular:
    return ModelSingular(
        f"triplet population {tr_t:.3e} below floor {DENOM_FLOOR:.1e}; "
        "normalized-kominis flow undefined",
        member,
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


def stacked_rhs_function(
    kinds: Sequence[ModelKind], space: SpinSpace, params: RateParams
) -> Callable[[np.ndarray], np.ndarray]:
    """The flows of rhs_function on a (B, d, d) stack, member b under ``kinds[b]``.

    A stack is either all linear or all normalized, and each member
    repeats its one-matrix formula: a linear member is multiplied by its
    decay matrix, a normalized-jh member is scaled in place by its own
    triplet trace and a normalized-kominis member has its projection
    divided in place. Multiplying every member by a coefficient array
    instead would also touch the members whose coefficient is 1 and could
    flip the sign of their exact zeros.

    Raises
    ------
    ModelSingular
        As rhs_function, with the offending member's index in ``member``.
    """
    k = params.k_s
    if not any(kind.is_normalized for kind in kinds):
        decay = np.array([_decay(kind, space, k) for kind in kinds])
        return lambda x: decay * x
    if not all(kind.is_normalized for kind in kinds):
        raise ValueError("a stack cannot mix linear and normalized flows")
    tt_mask = space.triplet_mask
    scaled = [b for b, kind in enumerate(kinds) if kind is ModelKind.NORMALIZED_JONES_HORE]
    divided = [b for b, kind in enumerate(kinds) if kind is ModelKind.NORMALIZED_KOMINIS]

    def f_stack(x: np.ndarray) -> np.ndarray:
        projected = tt_mask * x
        tr_t = projected.trace(axis1=1, axis2=2).real
        for b in divided:
            if tr_t[b] < DENOM_FLOOR:
                raise _singular(tr_t[b], b)
            projected[b] /= tr_t[b]
        if scaled:
            x = x.copy()
            for b in scaled:
                x[b] *= tr_t[b]
        return -k * (x - projected)

    return f_stack
