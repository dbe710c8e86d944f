"""Master-equation right-hand sides for singlet-selective recombination.

Four variants, all with recombination only out of the singlet channel
(rate k_S) and no triplet reaction:

- jones-hore (unnormalized):   drho/dt = -k_S (rho - Q_T rho Q_T)
- haberkorn  (unnormalized):   drho/dt = -(k_S/2) (Q_S rho + rho Q_S)
- normalized-jh:     drho/dt = -k_S (Tr{Q_T rho Q_T} rho - Q_T rho Q_T)
- normalized-kominis: drho/dt = -k_S (rho - Q_T rho Q_T / Tr{Q_T rho Q_T})

The two unnormalized flows lose trace at the rate -k_S Tr(Q_S rho) and
optionally carry a coherent term -i[H, rho]. The two normalized flows
act on the unit-trace surviving-pair state and are traceless; they do
not accept a Hamiltonian.

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

from .spinspace import HERM_TOL, TRACE_TOL, DensityMatrix, SpinSpace

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
    """Recombination rate k_S (1/time) and optional Hamiltonian (angular frequency).

    The Hamiltonian applies only to the unnormalized models; the
    normalized flows reject it.
    """

    k_s: float
    hamiltonian: np.ndarray | None = None

    def __post_init__(self):
        if self.k_s < 0:
            raise ValueError(f"k_s must be nonnegative, got {self.k_s}")
        if self.hamiltonian is not None:
            h = np.array(self.hamiltonian, dtype=complex)
            if h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise ValueError(f"hamiltonian must be square, got shape {h.shape}")
            if np.max(np.abs(h - h.conj().T)) > HERM_TOL:
                raise ValueError("hamiltonian is not Hermitian within tolerance")
            h.setflags(write=False)
            object.__setattr__(self, "hamiltonian", h)


def _check_space(rho: DensityMatrix, params: RateParams) -> None:
    if params.hamiltonian is not None and params.hamiltonian.shape[0] != rho.dim:
        raise ValueError(
            f"hamiltonian dimension {params.hamiltonian.shape[0]} does not match state dimension {rho.dim}"
        )


def _check_normalized(rho: DensityMatrix, trace_tol: float = TRACE_TOL) -> None:
    if abs(rho.trace - 1.0) > trace_tol:
        raise ValueError(f"normalized model requires Tr(rho) = 1, got {rho.trace:.12g}")


def _commutator_term(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    return -1j * (h @ m - m @ h)


def rhs_jones_hore(rho: DensityMatrix, params: RateParams) -> np.ndarray:
    """drho/dt = -k_S (rho - Q_T rho Q_T), plus -i[H, rho] when H is given."""
    _check_space(rho, params)
    m = rho.matrix
    out = -params.k_s * (m - rho.space.triplet_mask * m)
    if params.hamiltonian is not None:
        out = out + _commutator_term(params.hamiltonian, m)
    return out


def rhs_haberkorn(rho: DensityMatrix, params: RateParams) -> np.ndarray:
    """drho/dt = -(k_S/2) (Q_S rho + rho Q_S), plus -i[H, rho] when H is given."""
    _check_space(rho, params)
    m = rho.matrix
    s = rho.space.singlet_diag
    out = -(params.k_s / 2.0) * (s[:, None] + s[None, :]) * m
    if params.hamiltonian is not None:
        out = out + _commutator_term(params.hamiltonian, m)
    return out


def rhs_normalized_jones_hore(rho_nr: DensityMatrix, params: RateParams) -> np.ndarray:
    """Normalized singlet-selective flow, in the multiplied-out regular form.

    drho_nr/dt = -k_S (Tr{Q_T rho_nr Q_T} rho_nr - Q_T rho_nr Q_T).
    Traceless; preserves Tr(rho_nr) = 1. Defined everywhere, with pure
    singlet a fixed point.
    """
    if params.hamiltonian is not None:
        raise ValueError("normalized-jh does not accept a Hamiltonian")
    _check_normalized(rho_nr)
    m = rho_nr.matrix
    projected = rho_nr.space.triplet_mask * m
    tr_t = projected.trace().real
    return -params.k_s * (tr_t * m - projected)


def rhs_normalized_kominis(
    rho_nr: DensityMatrix, params: RateParams, denom_floor: float = DENOM_FLOOR
) -> np.ndarray:
    """Alternative normalized flow with the literal division.

    drho_nr/dt = -k_S (rho_nr - Q_T rho_nr Q_T / Tr{Q_T rho_nr Q_T}).

    Raises
    ------
    ModelSingular
        When Tr{Q_T rho_nr Q_T} < denom_floor; the equation is undefined
        at singlet-pure states and no regularization is applied.
    """
    if params.hamiltonian is not None:
        raise ValueError("normalized-kominis does not accept a Hamiltonian")
    _check_normalized(rho_nr)
    m = rho_nr.matrix
    projected = rho_nr.space.triplet_mask * m
    tr_t = projected.trace().real
    if tr_t < denom_floor:
        raise ModelSingular(
            f"triplet population {tr_t:.3e} below floor {denom_floor:.1e}; "
            "normalized-kominis flow undefined"
        )
    return -params.k_s * (m - projected / tr_t)


def rhs_function(
    model: ModelKind, space: SpinSpace, params: RateParams
) -> Callable[[np.ndarray], np.ndarray]:
    """Raw-matrix derivative function for an integrator.

    Returns f with f(m) = drho/dt evaluated at the matrix m under the
    selected model. Validation (Hamiltonian admissibility, dimensions)
    happens once here; the returned closure does no per-call checks.
    """
    k = params.k_s
    if model.is_normalized and params.hamiltonian is not None:
        raise ValueError(f"{model.value} does not accept a Hamiltonian")
    if params.hamiltonian is not None and params.hamiltonian.shape[0] != space.dim:
        raise ValueError("hamiltonian dimension does not match space dimension")

    h = params.hamiltonian
    tt_mask = space.triplet_mask

    if model is ModelKind.JONES_HORE:
        decay = -k * (1.0 - tt_mask)
        if h is None:
            return lambda m: decay * m
        return lambda m: decay * m + _commutator_term(h, m)

    if model is ModelKind.HABERKORN:
        s = space.singlet_diag
        decay = -(k / 2.0) * (s[:, None] + s[None, :])
        if h is None:
            return lambda m: decay * m
        return lambda m: decay * m + _commutator_term(h, m)

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
                raise ModelSingular(
                    f"triplet population {tr_t:.3e} below floor {DENOM_FLOOR:.1e}; "
                    "normalized-kominis flow undefined"
                )
            return -k * (m - projected / tr_t)

        return f_normalized_kominis

    raise ValueError(f"unhandled model {model!r}")
