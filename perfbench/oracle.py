"""Independent expectations for rpmix outputs.

Nothing here imports rpmix. The four flows are written out as their
Hamiltonian-free closed forms, check verdicts follow from the initial
triplet fraction p_T and the weight scheme, and exit codes follow the
README contract (0 success, 1 a failed check, 2 config error,
3 integration failure). Every ``problems_*`` function returns a list of
human-readable mismatches; an empty list means the output is correct.
"""

from __future__ import annotations

import numpy as np

# Largest Frobenius distance allowed between an integrated snapshot and the
# closed form. rk45-adaptive runs at rel_tol 1e-9 and the rk4-fixed steps the
# benchmark uses keep k_S dt <= 1e-2, both far inside this bound; a snapshot
# that is off by 1e-6 is rejected.
TRAJ_TOL = 1e-7
# Closed-form quantities rpmix derives without integrating (weights, p_T,
# divergence curves) must agree to rounding.
EXACT_TOL = 1e-10
# p_T at or below this (or within it of 1) makes a state singlet-pure (triplet-pure).
P_EDGE = 1e-12

MODELS = ("jones-hore", "haberkorn", "normalized-jh", "normalized-kominis")
CHECKS_BY_CLASS = {
    "singlet-pure": ("route-equivalence", "mixture-identity", "kominis-singularity"),
    "mixed": ("route-equivalence", "mixture-identity", "weight-derivative", "kominis-discrepancy"),
    "triplet-pure": ("route-equivalence", "mixture-identity", "weight-derivative"),
}


def singlet_diag(dim: int, singlet_indices) -> np.ndarray:
    s = np.zeros(dim)
    s[list(singlet_indices)] = 1.0
    return s


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random state G G^dagger / Tr, G complex standard normal (the documented recipe)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def preset(name: str, dim: int, singlet_indices) -> np.ndarray:
    """The README's named initial states."""
    s = singlet_diag(dim, singlet_indices)
    t = 1.0 - s
    if name == "pure-singlet":
        return np.diag(s / s.sum()).astype(complex)
    if name == "pure-triplet":
        return np.diag(t / t.sum()).astype(complex)
    if name == "equal-mixture":
        return np.diag(0.5 * s / s.sum() + 0.5 * t / t.sum()).astype(complex)
    if name == "st-superposition":
        psi = np.zeros(dim, dtype=complex)
        psi[min(singlet_indices)] = psi[int(np.flatnonzero(t)[0])] = 1.0 / np.sqrt(2.0)
        return np.outer(psi, psi.conj())
    raise ValueError(f"unknown preset {name!r}")


def triplet_fraction(rho0: np.ndarray, singlet_indices) -> float:
    s = singlet_diag(rho0.shape[0], singlet_indices)
    return float(np.real(np.diagonal(rho0)) @ (1.0 - s))


def closed_form(model: str, rho0: np.ndarray, singlet_indices, k_s: float, times) -> np.ndarray:
    """Exact states of ``model`` from ``rho0`` at ``times``, shape (T, d, d)."""
    times = np.asarray(times, dtype=float)
    rho0 = np.asarray(rho0, dtype=complex)
    s = singlet_diag(rho0.shape[0], singlet_indices)
    tt = np.outer(1.0 - s, 1.0 - s)
    decay = np.exp(-k_s * times)[:, None, None]
    if model == "haberkorn":
        half = np.exp(-0.5 * k_s * times[:, None] * s[None, :])
        return half[:, :, None] * rho0[None] * half[:, None, :]
    jones_hore = tt * rho0 + decay * ((1.0 - tt) * rho0)
    if model == "jones-hore":
        return jones_hore
    if model == "normalized-jh":
        trace = np.einsum("tii->t", jones_hore).real
        return jones_hore / trace[:, None, None]
    if model == "normalized-kominis":
        # drho/dt = -k_S (rho - rho_T) along the exponential-weight mixture
        rho_t = tt * rho0 / triplet_fraction(rho0, singlet_indices)
        return decay * rho0 + (1.0 - decay) * rho_t
    raise ValueError(f"unknown model {model!r}")


def observables(states: np.ndarray, singlet_indices) -> dict:
    """trace, p_singlet, p_triplet per snapshot of a (T, d, d) stack."""
    diag = np.einsum("tii->ti", states).real
    s = singlet_diag(states.shape[1], singlet_indices)
    return {"trace": diag.sum(axis=1), "p_singlet": diag @ s, "p_triplet": diag @ (1.0 - s)}


def problems_states(states: np.ndarray, expected: np.ndarray, tol: float = TRAJ_TOL) -> list[str]:
    if states.shape != expected.shape:
        return [f"state stack shape {states.shape}, expected {expected.shape}"]
    err = np.sqrt(np.sum(np.abs(states - expected) ** 2, axis=(1, 2)))
    worst = int(np.argmax(err))
    if not err[worst] <= tol:
        return [f"snapshot {worst} is {err[worst]:.3e} from the closed form (tol {tol:.0e})"]
    return []


def problems_series(name: str, got, expected, tol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if got.shape != expected.shape:
        return [f"{name}: shape {got.shape}, expected {expected.shape}"]
    err = np.abs(got - expected)
    if err.size and not np.max(err) <= tol:
        return [f"{name}: off by {np.max(err):.3e} (tol {tol:.0e})"]
    return []


def problems_trajectory(
    times, states: np.ndarray, obs: dict, min_eig, model: str, rho0, singlet_indices, k_s: float, grid
) -> list[str]:
    """Compare one integrated trajectory with the closed form at every snapshot."""
    problems = problems_series("times", times, grid, 0.0)
    expected = closed_form(model, rho0, singlet_indices, k_s, grid)
    problems += problems_states(states, expected)
    if problems:
        return problems
    for name, values in observables(expected, singlet_indices).items():
        problems += problems_series(name, obs[name], values, TRAJ_TOL)
    # Weyl: eigenvalues of Hermitian matrices move by at most the Frobenius distance
    problems += problems_series(
        "min_eigenvalue", min_eig, np.linalg.eigvalsh(expected)[:, 0], 2 * TRAJ_TOL
    )
    return problems


def state_class(p_t: float) -> str:
    if p_t <= P_EDGE:
        return "singlet-pure"
    if p_t >= 1.0 - P_EDGE:
        return "triplet-pure"
    return "mixed"


def expected_verdicts(p_t: float, scheme: str) -> dict[str, bool]:
    """Check name -> expected pass for a scenario with triplet fraction p_T.

    With the corrected weights every applicable check passes. The kominis
    weights coincide with the corrected ones only at p_T = 1, so
    mixture-identity is expected to fail for every 0 < p_T < 1.
    """
    names = CHECKS_BY_CLASS[state_class(p_t)]
    verdicts = dict.fromkeys(names, True)
    if scheme == "kominis" and state_class(p_t) != "triplet-pure":
        verdicts["mixture-identity"] = False
    return verdicts


def corrected_p_singlet(p_t: float, k_s: float, times) -> np.ndarray:
    """Singlet probability of the corrected-weight mixture: w_0 p_S."""
    decay = np.exp(-k_s * np.asarray(times, dtype=float))
    return decay * (1.0 - p_t) / (decay + p_t * (1.0 - decay))


def problems_report(report: dict, rho0, singlet_indices, k_s, t_end, n_snapshots, scheme) -> list[str]:
    """Compare one scenario report (``ConsistencyReport.to_dict()`` layout) with the oracle.

    ``report["divergence"]``, when present, holds the (times, p_singlet_corrected,
    p_singlet_kominis) arrays of the divergence curve.
    """
    problems = []
    p_t = triplet_fraction(np.asarray(rho0), singlet_indices)
    verdicts = expected_verdicts(p_t, scheme)
    got = {c["name"]: c for c in report["checks"]}
    if sorted(got) != sorted(verdicts):
        return [f"checks {sorted(got)}, expected {sorted(verdicts)}"]
    for name, passed in verdicts.items():
        if got[name]["passed"] is not passed:
            problems.append(
                f"{name}: passed={got[name]['passed']} (error {got[name]['error']!r}), expected {passed}"
            )
    if report["all_passed"] is not all(verdicts.values()):
        problems.append(f"all_passed={report['all_passed']}, expected {all(verdicts.values())}")
    scenario = report["scenario"]
    for key, value in (("dim", len(rho0)), ("k_S", k_s), ("t_end", t_end), ("n_snapshots", n_snapshots)):
        if scenario[key] != value:
            problems.append(f"scenario {key}={scenario[key]!r}, expected {value!r}")
    if "kominis-discrepancy" in got:
        reported = got["kominis-discrepancy"]["details"].get("p_T")
        if reported is None or abs(reported - p_t) > EXACT_TOL:
            problems.append(f"kominis-discrepancy p_T={reported!r}, expected {p_t!r}")
    curve = report.get("divergence")
    if (curve is not None) != ("kominis-discrepancy" in got):
        problems.append("divergence curve present iff the discrepancy check runs: violated")
    elif curve is not None:
        times, p_corr, p_kom = curve
        problems += problems_series("divergence times", times, np.linspace(0.0, t_end, n_snapshots), 1e-12)
        problems += problems_series("p_singlet_corrected", p_corr, corrected_p_singlet(p_t, k_s, times), EXACT_TOL)
        problems += problems_series(
            "p_singlet_kominis", p_kom, np.exp(-k_s * np.asarray(times)) * (1.0 - p_t), EXACT_TOL
        )
    return problems


def expected_exit(command: str, models, p_t: float, scheme: str) -> int:
    """Exit code the README contract gives for one CLI call on a well-formed config."""
    if command == "verify":
        return 0 if all(expected_verdicts(p_t, scheme).values()) else 1
    if "normalized-kominis" in models and state_class(p_t) == "singlet-pure":
        return 3  # the literal division is singular at singlet-pure states
    return 0


def problems_exit(code, expected) -> list[str]:
    allowed = expected if isinstance(expected, (set, frozenset, tuple)) else {expected}
    if code not in allowed:
        return [f"exit code {code!r}, expected {sorted(allowed) if len(allowed) > 1 else expected}"]
    return []
