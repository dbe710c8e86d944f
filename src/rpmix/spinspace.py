"""Hilbert-space setup for spin-selective radical-pair recombination.

A radical pair lives in a d-dimensional spin space split into a singlet
subspace (the reactive channel) and its triplet complement. This module
builds the split, the associated projectors Q_S and Q_T, and the handful
of density-matrix primitives everything else is built on: normalization
rho -> rho / Tr{rho}, singlet population readout Tr(Q_S rho),
validation diagnostics, seeded random states, and the Frobenius metric
used by all consistency checks.

Projectors are 0/1 diagonal in the chosen basis (the singlet/triplet
eigenbasis) and are kept as their diagonals, which keeps the projector
algebra Q_S + Q_T = I, Q_S Q_T = 0, Q_X^2 = Q_X exact in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

HERM_TOL = 1e-9
PSD_WARN_TOL = 1e-9
PSD_FAIL_TOL = 1e-6
TRACE_TOL = 1e-9
TRACE_FLOOR = 1e-12


class NormalizationSingular(Exception):
    """Raised when a state's trace is too small to normalize (all pairs reacted)."""


@dataclass(frozen=True)
class SpinSpace:
    """Spin space of dimension ``dim`` with a designated singlet subspace.

    ``singlet_indices`` lists the basis indices spanning the singlet
    subspace; the complement spans the triplet subspace. Use
    :func:`make_space` to construct validated instances.
    """

    dim: int
    singlet_indices: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        idx = self.singlet_indices
        if len(set(idx)) != len(idx):
            raise ValueError(f"singlet_indices contains duplicates: {idx}")
        if not idx:
            raise ValueError("singlet_indices must not be empty (no singlet subspace)")
        if len(idx) >= self.dim:
            raise ValueError("singlet_indices must be a strict subset (no triplet subspace)")
        for i in idx:
            if not 0 <= i < self.dim:
                raise ValueError(f"singlet index {i} out of range for dim {self.dim}")

    @cached_property
    def singlet_diag(self) -> np.ndarray:
        """Diagonal of Q_S as a real 0/1 vector."""
        d = np.zeros(self.dim)
        d[list(self.singlet_indices)] = 1.0
        d.setflags(write=False)
        return d

    @cached_property
    def triplet_diag(self) -> np.ndarray:
        """Diagonal of Q_T = I - Q_S as a real 0/1 vector."""
        d = 1.0 - self.singlet_diag
        d.setflags(write=False)
        return d

    @cached_property
    def triplet_mask(self) -> np.ndarray:
        """Entrywise mask of the triplet-triplet block: Q_T rho Q_T = mask * rho."""
        m = np.outer(self.triplet_diag, self.triplet_diag)
        m.setflags(write=False)
        return m


def make_space(dim: int, singlet_indices) -> SpinSpace:
    """Build a :class:`SpinSpace` with materialized projectors.

    Parameters
    ----------
    dim : int
        Matrix dimension d >= 2.
    singlet_indices : iterable of int
        Basis indices of the singlet subspace; must be a nonempty strict
        subset of range(dim).
    """
    return SpinSpace(int(dim), tuple(sorted(int(i) for i in singlet_indices)))


def two_level_space() -> SpinSpace:
    """The minimal {|S>, |T>} space: dim 2, singlet index 0."""
    return make_space(2, (0,))


def electron_pair_space() -> SpinSpace:
    """The four-level electron-pair space {S, T+, T0, T-}: dim 4, singlet index 0."""
    return make_space(4, (0,))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A spin density matrix bound to its :class:`SpinSpace`.

    The container itself checks only structure (square complex matrix of
    the right dimension, finite entries). Value-level properties --
    Hermiticity, positivity, trace bounds -- are diagnosed by
    :func:`validate` and enforced by the operations that rely on them,
    so that diagnostic tools can hold deliberately broken matrices.
    """

    space: SpinSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if m.shape[0] != self.space.dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match space dimension {self.space.dim}"
            )
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("density matrix contains non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def trace(self) -> float:
        """Real part of Tr(rho); the survival probability for unnormalized states."""
        return float(np.trace(self.matrix).real)

    def hermiticity_error(self) -> float:
        """max |rho - rho^dagger| over entries."""
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the Hermitian part of the matrix."""
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostic verdict for a density matrix.

    ``verdict`` is "pass", "warn" (Hermiticity drift above tolerance or a
    mildly negative eigenvalue), or "fail" (clearly negative eigenvalue
    or a trace outside (0, 1 + TRACE_TOL]).
    """

    hermiticity_error: float
    min_eigenvalue: float
    trace: float
    verdict: str
    issues: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"


def validate(rho: DensityMatrix) -> ValidationReport:
    """Diagnose Hermiticity, positivity, and trace of a density matrix.

    Never raises: returns a :class:`ValidationReport` with the measured
    deviations and a pass/warn/fail verdict against HERM_TOL,
    PSD_WARN_TOL, PSD_FAIL_TOL and TRACE_TOL. The minimum eigenvalue is
    that of the Hermitian part, so the report stays meaningful for
    slightly non-Hermitian inputs.
    """
    herm_err = rho.hermiticity_error()
    min_eig = rho.min_eigenvalue()
    trace = rho.trace

    issues = []
    verdict = "pass"
    if herm_err > HERM_TOL:
        verdict = "warn"
        issues.append(f"hermiticity deviation {herm_err:.3e} exceeds {HERM_TOL:.1e}")
    if min_eig < -PSD_WARN_TOL:
        verdict = "warn"
        issues.append(f"minimum eigenvalue {min_eig:.3e} below -{PSD_WARN_TOL:.1e}")
    if min_eig < -PSD_FAIL_TOL:
        verdict = "fail"
        issues.append(f"minimum eigenvalue {min_eig:.3e} below -{PSD_FAIL_TOL:.1e}")
    if trace <= 0.0:
        verdict = "fail"
        issues.append(f"trace {trace:.3e} is not positive")
    elif trace > 1.0 + TRACE_TOL:
        verdict = "fail"
        issues.append(f"trace {trace:.6g} exceeds 1 + {TRACE_TOL:.1e}")
    return ValidationReport(herm_err, min_eig, trace, verdict, tuple(issues))


def normalize(rho: DensityMatrix) -> DensityMatrix:
    """Return rho / Tr{rho}, the state conditioned on not having reacted.

    Raises
    ------
    NormalizationSingular
        If Tr{rho} <= TRACE_FLOOR: essentially all pairs have reacted and
        the conditional state is undefined.
    """
    tr = rho.trace
    if tr <= TRACE_FLOOR:
        raise NormalizationSingular(
            f"trace {tr:.3e} at or below floor {TRACE_FLOOR:.1e}; normalized state undefined"
        )
    return DensityMatrix(rho.space, rho.matrix / tr)


def singlet_probability(rho: DensityMatrix) -> float:
    """Tr(Q_S rho): the singlet population (unnormalized if Tr rho != 1)."""
    return float(np.real(np.diagonal(rho.matrix) @ rho.space.singlet_diag))


def random_density_matrix(space: SpinSpace, seed: int) -> DensityMatrix:
    """Seeded full-rank random state: G G^dagger / Tr, G complex standard normal.

    Deterministic for a fixed seed; always Hermitian positive semidefinite
    with trace exactly 1 up to rounding.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    m = g @ g.conj().T
    return DensityMatrix(space, m / np.trace(m).real)


def frobenius_distance(a, b) -> float:
    """Frobenius distance ||A - B||_F between two matrices.

    Accepts :class:`DensityMatrix` instances or plain arrays (so that
    right-hand-side derivative matrices can be compared with the same
    metric). Raises ValueError on dimension mismatch.
    """
    ma = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a)
    mb = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    return float(np.linalg.norm(ma - mb))


PRESET_NAMES = ("pure-singlet", "pure-triplet", "equal-mixture", "st-superposition")


def preset_state(space: SpinSpace, name: str) -> DensityMatrix:
    """Named initial states used by the CLI and the verification battery.

    - "pure-singlet": uniform mixture over the singlet subspace (a pure
      state when the subspace is one-dimensional).
    - "pure-triplet": uniform mixture over the triplet subspace.
    - "equal-mixture": half the population on each subspace, uniform
      within each, so Tr(Q_S rho) = Tr(Q_T rho) = 1/2.
    - "st-superposition": the pure state (|S> + |T>)/sqrt(2) built from
      the first singlet and first triplet basis vectors.
    """
    n_s = len(space.singlet_indices)
    n_t = space.dim - n_s
    if name == "pure-singlet":
        return DensityMatrix(space, np.diag(space.singlet_diag / n_s).astype(complex))
    if name == "pure-triplet":
        return DensityMatrix(space, np.diag(space.triplet_diag / n_t).astype(complex))
    if name == "equal-mixture":
        diag = 0.5 * space.singlet_diag / n_s + 0.5 * space.triplet_diag / n_t
        return DensityMatrix(space, np.diag(diag).astype(complex))
    if name == "st-superposition":
        psi = np.zeros(space.dim, dtype=complex)
        s_index = space.singlet_indices[0]
        t_index = next(i for i in range(space.dim) if i not in space.singlet_indices)
        psi[s_index] = 1.0 / np.sqrt(2.0)
        psi[t_index] = 1.0 / np.sqrt(2.0)
        return DensityMatrix(space, np.outer(psi, psi.conj()))
    raise ValueError(f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}")
