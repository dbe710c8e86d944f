"""Seeded inputs and oracle checks for the three benchmark workloads.

Each workload builds a list of ``Call`` objects from the seed. One call
is one closed-loop request into rpmix's public API; it covers ``ops``
ops. ``run`` is the only timed part. ``check`` compares the outcome with
the oracle afterwards and returns one list of problems per op.

Every workload is a fixed cycle of input *shapes* (dimension, state
kind, model, method, k_S t_end band, snapshot count) whose values the
seed draws. The cost of a cycle therefore barely depends on the seed,
which keeps ops/s comparable between seeds; the pool holds several
cycles of fresh inputs and wraps around only if a run outlasts it.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import oracle

REPO = Path(__file__).resolve().parent.parent

DIM_SINGLETS = {2: (0,), 4: (0,), 8: (0, 1)}


@dataclass
class Call:
    run: Callable[[Path], object]
    check: Callable[[object, Path], list]
    ops: int = 1
    label: str = ""


def describe_exception(exc: BaseException) -> str:
    frames = traceback.extract_tb(exc.__traceback__)
    where = f" at {frames[-1].filename.rsplit('/', 1)[-1]}:{frames[-1].lineno}" if frames else ""
    return f"uncaught {type(exc).__name__}{where}: {exc}"


# ---------------------------------------------------------------- states


def make_state(rng: np.random.Generator, kind: str, dim: int, singlets) -> np.ndarray:
    """Initial density matrix of the given kind, as a complex array."""
    if kind in ("singlet-pure", "triplet-pure"):
        return oracle.preset("pure-" + kind.split("-")[0], dim, singlets)
    if kind == "random":
        return oracle.random_state(rng, dim)
    s = oracle.singlet_diag(dim, singlets)
    t = 1.0 - s
    if kind == "diag-random":
        p_t = rng.uniform(0.05, 0.95)
        weights = rng.uniform(0.2, 1.0, dim)
        diag = (1.0 - p_t) * s * weights / (s * weights).sum() + p_t * t * weights / (t * weights).sum()
        return np.diag(diag).astype(complex)
    if kind == "superposition":
        p_s = rng.uniform(0.1, 0.9)
        psi = np.zeros(dim, dtype=complex)
        psi[rng.choice(np.flatnonzero(s))] = np.sqrt(p_s)
        psi[rng.choice(np.flatnonzero(t))] = np.sqrt(1.0 - p_s) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        return np.outer(psi, psi.conj())
    raise ValueError(kind)


# ---------------------------------------------------------------- verify-battery

# (dim, state kind, nominal k_S t_end); every two slots form one run_suite call,
# and the last two calls of each cycle run with the kominis weights. A scenario
# costs about k_S t_end times the number of trajectories it integrates (3 from a
# singlet-pure state, 2 from a triplet-pure one, 4 otherwise); every call sums
# to the same 33 units, so ops/s does not depend on where a run stops.
BATTERY_SLOTS = (
    (2, "singlet-pure", 5.0), (8, "random", 4.5),
    (4, "diag-random", 2.0), (2, "superposition", 6.25),
    (4, "triplet-pure", 12.0), (2, "random", 2.25),
    (8, "diag-random", 3.0), (4, "superposition", 5.25),
    (8, "singlet-pure", 7.0), (4, "random", 3.0),
    (2, "diag-random", 4.0), (8, "superposition", 4.25),
    (2, "triplet-pure", 6.0), (4, "random", 5.25),
    (2, "diag-random", 5.0), (8, "superposition", 3.25),
)
BATTERY_CHUNK = 2
BATTERY_CYCLES = 3
KOMINIS_CHUNKS = {6, 7}


def _battery_call(rpmix, scenarios, inputs, scheme) -> Call:
    def run(_out):
        return rpmix.run_suite(scenarios, scheme)

    def check(reports, _out):
        if isinstance(reports, BaseException):
            return [[describe_exception(reports)]] * len(inputs)
        if len(reports) != len(inputs):
            return [[f"run_suite returned {len(reports)} reports for {len(inputs)} scenarios"]] * len(inputs)
        out = []
        for report, (m, singlets, k_s, t_end, n) in zip(reports, inputs):
            doc = report.to_dict()
            curve = report.divergence
            doc["divergence"] = (
                None if curve is None
                else (curve.times, curve.p_singlet_corrected, curve.p_singlet_kominis)
            )
            out.append(oracle.problems_report(doc, m, singlets, k_s, t_end, n, scheme))
        return out

    return Call(run, check, ops=len(inputs), label=f"run_suite[{scheme}]")


def _battery_calls(rpmix, rng, slots, chunk, kominis_chunks) -> list[Call]:
    calls = []
    for c in range(0, len(slots), chunk):
        scheme = "kominis" if c // chunk in kominis_chunks else "corrected"
        scenarios, inputs = [], []
        for dim, kind, tau in slots[c : c + chunk]:
            singlets = DIM_SINGLETS[dim]
            m = make_state(rng, kind, dim, singlets)
            k_s = float(rng.uniform(0.5, 4.0))
            t_end = tau * float(rng.uniform(0.95, 1.05)) / k_s
            rho = rpmix.DensityMatrix(rpmix.make_space(dim, singlets), m)
            scenarios.append(rpmix.Scenario(label=f"{kind}-d{dim}", rho_init=rho, k_s=k_s, t_end=t_end))
            inputs.append((m, singlets, k_s, t_end, 101))
        calls.append(_battery_call(rpmix, scenarios, inputs, scheme))
    return calls


def build_verify_battery(rpmix, seed: int, workdir: Path) -> list[Call]:
    rng = np.random.default_rng([seed, 1])
    calls = []
    for _ in range(BATTERY_CYCLES):
        calls += _battery_calls(rpmix, rng, BATTERY_SLOTS, BATTERY_CHUNK, KOMINIS_CHUNKS)
    return calls


def warmup_verify_battery(rpmix, workdir: Path) -> list[Call]:
    slots = ((2, "diag-random", 0.5), (4, "random", 0.5))
    return _battery_calls(rpmix, np.random.default_rng(0), slots, 1, {1})


# ---------------------------------------------------------------- trajectories

TRAJ_CYCLE = 20
TRAJ_CYCLES = 40
SNAPSHOTS = (101, 251, 501, 751, 1001)
TAUS = (2.0, 4.5, 7.0, 9.5, 12.0)  # nominal k_S t_end
# state kind per slot; normalized-kominis (every fourth slot, from 3) never starts at p_T = 0
SLOT_KINDS = (
    "random", "diag-random", "superposition", "random",
    "singlet-pure", "diag-random", "singlet-pure", "diag-random",
    "superposition", "triplet-pure", "superposition", "superposition",
    "triplet-pure", "random", "diag-random", "triplet-pure",
    "diag-random", "superposition", "random", "random",
)
RK4_KDT = 5e-3  # k_S dt of the rk4-fixed calls, so one costs about as much as an rk45 call


def _trajectory_slot(i: int):
    model = oracle.MODELS[i % 4]
    dim = (2, 4, 8)[i % 3]
    method = "rk4-fixed" if i % 5 == 0 else "rk45-adaptive"
    n_nominal = SNAPSHOTS[(i + i // 5) % 5]
    tau = TAUS[(2 * i + i // 5) % 5]
    return model, dim, method, n_nominal, tau, SLOT_KINDS[i]


def _trajectory_call(rpmix, model, m, singlets, k_s, grid, method, dt) -> Call:
    kind = rpmix.ModelKind.from_name(model)
    rho = rpmix.DensityMatrix(rpmix.make_space(m.shape[0], singlets), m)
    params = rpmix.RateParams(k_s=k_s)

    def run(_out):
        return rpmix.integrate(kind, rho, params, grid, method=method, dt=dt)

    def check(traj, _out):
        if isinstance(traj, BaseException):
            return [[describe_exception(traj)]]
        states = np.array([s.matrix for s in traj.states])
        obs = {
            "trace": traj.observables.trace,
            "p_singlet": traj.observables.p_singlet,
            "p_triplet": traj.observables.p_triplet,
        }
        return [
            oracle.problems_trajectory(
                traj.times, states, obs, traj.observables.min_eigenvalue, model, m, singlets, k_s, grid
            )
        ]

    return Call(run, check, label=f"integrate[{model},{method},d{m.shape[0]},n{grid.size}]")


def _trajectory_calls(rpmix, rng, n_calls: int, max_snapshots: int) -> list[Call]:
    calls = []
    for i in range(n_calls):
        model, dim, method, n_nominal, tau, kind = _trajectory_slot(i % TRAJ_CYCLE)
        singlets = DIM_SINGLETS[dim]
        m = make_state(rng, kind, dim, singlets)
        k_s = float(rng.uniform(0.5, 4.0))
        tau *= float(rng.uniform(0.95, 1.05))
        n = int(np.clip(round(n_nominal * rng.uniform(0.95, 1.05)), 101, max_snapshots))
        grid = np.linspace(0.0, tau / k_s, n)
        dt = RK4_KDT / k_s if method == "rk4-fixed" else None
        calls.append(_trajectory_call(rpmix, model, m, singlets, k_s, grid, method, dt))
    return calls


def build_trajectories(rpmix, seed: int, workdir: Path) -> list[Call]:
    return _trajectory_calls(rpmix, np.random.default_rng([seed, 2]), TRAJ_CYCLE * TRAJ_CYCLES, 1001)


def warmup_trajectories(rpmix, workdir: Path) -> list[Call]:
    return _trajectory_calls(rpmix, np.random.default_rng(0), 8, 101)


# ---------------------------------------------------------------- cli

SHIPPED = ("equal_mixture.yaml", "random_four_level.yaml", "superposition_compare.yaml")
CLI_GENERATED = 12
CLI_CYCLES = 8


def _matrix_doc(m: np.ndarray) -> dict:
    return {"matrix": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def _generated_cli_docs(rng: np.random.Generator) -> list[tuple]:
    """One cycle of generated configs: (command, YAML document, expected exit or None to derive it)."""

    def doc(dim, state, models, tau, n, method="rk45-adaptive", scheme=None, dt_scale=None):
        k_s = float(rng.uniform(0.5, 4.0))
        d = {
            "space": {"dim": dim, "singlet_indices": list(DIM_SINGLETS[dim])},
            "initial_state": state,
            "k_S": k_s,
            "models": list(models),
            "integrator": {"method": method},
            "time": {"t_end": float(tau * rng.uniform(0.95, 1.05)) / k_s, "n_snapshots": n},
        }
        if scheme is not None:
            d["weight_scheme"] = scheme
        if dt_scale is not None:
            d["integrator"]["dt"] = dt_scale / k_s
        return d

    def state(kind, dim):
        return _matrix_doc(make_state(rng, kind, dim, DIM_SINGLETS[dim]))

    def n_snap(nominal):
        return int(np.clip(round(nominal * rng.uniform(0.95, 1.05)), 101, 1001))

    malformed = doc(2, "equal-mixture", ["jones-hore"], 4.0, 101)
    malformed["time"]["n_snapshot"] = malformed["time"].pop("n_snapshots")
    return [
        ("run", doc(2, "equal-mixture", ["jones-hore", "haberkorn"], 10.0, n_snap(1001)), None),
        ("compare", doc(4, state("random", 4), list(oracle.MODELS), 8.0, n_snap(501)), None),
        ("run", doc(8, state("superposition", 8), ["normalized-jh"], 6.0, n_snap(751)), None),
        ("verify", doc(2, state("diag-random", 2), ["normalized-jh"], 3.0, 101), None),
        ("run", doc(4, "st-superposition", ["haberkorn", "normalized-kominis"], 5.0, n_snap(251),
                    "rk4-fixed", dt_scale=RK4_KDT), None),
        ("compare", doc(2, {"random": int(rng.integers(1 << 30))}, ["jones-hore", "normalized-jh"], 10.0,
                        n_snap(1001)), None),
        ("run", malformed, 2),
        ("run", doc(4, {"random": int(rng.integers(1 << 30))}, ["normalized-jh", "jones-hore"], 7.0,
                    n_snap(1001)), None),
        ("verify", doc(4, state("random", 4), ["jones-hore"], 2.0, 101, scheme="kominis"), None),
        ("compare", doc(8, "pure-triplet", ["haberkorn", "normalized-jh"], 9.0, n_snap(751)), None),
        ("run", doc(2, "pure-singlet", ["jones-hore", "normalized-kominis"], 4.0, 101), None),
        ("run", doc(2, state("diag-random", 2), ["normalized-kominis"], 6.0, n_snap(501)), None),
    ]


# Configs that reproduce known crashes. They are run once per cli run, outside
# the timed loop, and reported on their own (see README.md). k_S = 1000 at
# t_end = 10 is left out: it does not finish (10^7 RK4 steps per route), and a
# hang cannot be measured.
DEFECT_PROBES = (
    (
        "pure-singlet-verify-kS3-t10",
        {
            "space": {"dim": 2, "singlet_indices": [0]}, "initial_state": "pure-singlet",
            "k_S": 3.0, "models": ["normalized-jh"], "time": {"t_end": 10.0, "n_snapshots": 101},
        },
        {0, 1, 2},  # a recorded check outcome or a config error, never a traceback
    ),
    (
        "four-level-verify-kS1e4",
        {
            "space": {"dim": 4, "singlet_indices": [0]}, "initial_state": {"random": 3},
            "k_S": 1.0e4, "models": ["normalized-jh"], "time": {"t_end": 1.0e-3, "n_snapshots": 101},
        },
        0,  # verdicts depend only on k_S t: the k_S = 1 scenario passes
    ),
)


def initial_matrix(doc: dict) -> np.ndarray:
    """The config's initial state, realised independently of rpmix."""
    dim = doc["space"]["dim"]
    state = doc["initial_state"]
    if isinstance(state, str):
        return oracle.preset(state, dim, doc["space"]["singlet_indices"])
    if "random" in state:
        return oracle.random_state(np.random.default_rng(state["random"]), dim)
    return np.array([complex(re, im) for re, im in state["matrix"]]).reshape(dim, dim)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _states_from_row_columns(header, data, dim) -> np.ndarray:
    states = np.zeros((data.shape[0], dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(i, dim):
            z = data[:, header.index(f"re_{i}_{j}")] + 1j * data[:, header.index(f"im_{i}_{j}")]
            states[:, i, j] = z
            states[:, j, i] = z.conj()
    return states


def problems_cli_outputs(command: str, doc: dict, out: Path, code: int) -> list[str]:
    """Check the files one successful (or check-failed) CLI call wrote."""
    dim = doc["space"]["dim"]
    singlets = doc["space"]["singlet_indices"]
    k_s = doc["k_S"]
    grid = np.linspace(0.0, doc["time"]["t_end"], doc["time"]["n_snapshots"])
    m = initial_matrix(doc)
    outputs = doc.get("outputs", {})
    csv_path = outputs.get("csv_path", "trajectory.csv")
    problems = [] if (out / "config_echo.yaml").is_file() else ["config_echo.yaml missing"]
    if command == "run":
        base = Path(csv_path)
        for model in doc["models"]:
            path = out / base.with_name(f"{base.stem}_{model}{base.suffix or '.csv'}")
            if not path.is_file():
                problems.append(f"{path.name} missing")
                continue
            header, data = _read_csv(path)
            got = _states_from_row_columns(header, data, dim)
            expected = oracle.closed_form(model, m, singlets, k_s, grid)
            problems += [f"{path.name}: {p}" for p in oracle.problems_series("t", data[:, 0], grid, 1e-12)]
            problems += [f"{path.name}: {p}" for p in oracle.problems_states(got, expected)]
            for name, values in oracle.observables(expected, singlets).items():
                column = data[:, header.index(name)]
                problems += [f"{path.name}: {p}" for p in oracle.problems_series(name, column, values, oracle.TRAJ_TOL)]
    elif command == "compare":
        path = out / csv_path
        if not path.is_file():
            return problems + [f"{csv_path} missing"]
        header, data = _read_csv(path)
        if header != ["t"] + [f"p_singlet_{name}" for name in doc["models"]]:
            return problems + [f"compare header {header}"]
        problems += oracle.problems_series("t", data[:, 0], grid, 1e-12)
        for col, model in enumerate(doc["models"], start=1):
            expected = oracle.observables(oracle.closed_form(model, m, singlets, k_s, grid), singlets)
            problems += oracle.problems_series(header[col], data[:, col], expected["p_singlet"], oracle.TRAJ_TOL)
    else:
        report_path = out / outputs.get("report_path", "report.json")
        if not report_path.is_file():
            return problems + [f"{report_path.name} missing"]
        document = json.loads(report_path.read_text())
        (report,) = document["reports"]
        if document["all_passed"] is not (code == 0):
            problems.append(f"report all_passed={document['all_passed']} with exit code {code}")
        curve_ref = report["divergence_curve"]
        report["divergence"] = None
        if curve_ref is not None:
            _, data = _read_csv(report_path.parent / curve_ref)
            report["divergence"] = (data[:, 0], data[:, 1], data[:, 2])
        scheme = doc.get("weight_scheme", "corrected")
        problems += oracle.problems_report(report, m, singlets, k_s, doc["time"]["t_end"], len(grid), scheme)
        got = np.array([complex(re, im) for re, im in report["scenario"]["initial_state"]]).reshape(dim, dim)
        if np.max(np.abs(got - m)) > 1e-15:
            problems.append("report initial_state differs from the configured state")
    return problems


def _cli_call(rpmix, command: str, config: Path, doc: dict, expected) -> Call:
    """One ``rpmix.cli.main`` call; ``expected`` is an exit code or a set of allowed ones."""

    def run(out):
        err = io.StringIO()
        argv = [command, "--config", str(config), "--out-dir", str(out), "--quiet"]
        with contextlib.redirect_stderr(err):
            code = rpmix.cli.main(argv)
        return code, err.getvalue()

    def check(outcome, out):
        if isinstance(outcome, BaseException):
            return [[describe_exception(outcome)]]
        code, err = outcome
        problems = oracle.problems_exit(code, expected)
        if problems or code in (2, 3) or isinstance(expected, set):
            if code in (2, 3) and not err.strip():
                problems.append(f"exit {code} without a message naming the cause")
            return [problems]
        return [problems_cli_outputs(command, doc, out, code)]

    return Call(run, check, label=f"cli {command} {config.name}")


def cli_expected_exit(command: str, doc: dict) -> int:
    scheme = doc.get("weight_scheme", "corrected")
    m = initial_matrix(doc)
    p_t = oracle.triplet_fraction(m, doc["space"]["singlet_indices"])
    return oracle.expected_exit(command, doc["models"], p_t, scheme)


def _write_config(path: Path, doc: dict) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def _cli_calls(rpmix, entries) -> list[Call]:
    """Calls for (command, config path, document, expected exit or None to derive it)."""
    return [
        _cli_call(rpmix, command, path, doc, cli_expected_exit(command, doc) if expected is None else expected)
        for command, path, doc, expected in entries
    ]


def build_cli(rpmix, seed: int, workdir: Path) -> list[Call]:
    rng = np.random.default_rng([seed, 3])
    shipped = [(REPO / "configs" / name, yaml.safe_load((REPO / "configs" / name).read_text())) for name in SHIPPED]
    entries = []
    for cycle in range(CLI_CYCLES):
        entries += [(cmd, path, doc, None) for path, doc in shipped for cmd in ("run", "verify", "compare")]
        generated = _generated_cli_docs(rng)
        if len(generated) != CLI_GENERATED:
            raise ValueError(f"CLI_GENERATED is {CLI_GENERATED}, the cycle generates {len(generated)}")
        for k, (command, doc, expected) in enumerate(generated):
            entries.append((command, _write_config(workdir / f"c{cycle:02d}-{k:02d}.yaml", doc), doc, expected))
    return _cli_calls(rpmix, entries)


def warmup_cli(rpmix, workdir: Path) -> list[Call]:
    doc = {
        "space": {"dim": 2, "singlet_indices": [0]}, "initial_state": "equal-mixture", "k_S": 1.0,
        "models": ["jones-hore", "normalized-jh"], "time": {"t_end": 1.0, "n_snapshots": 11},
    }
    path = _write_config(workdir / "warmup.yaml", doc)
    return _cli_calls(rpmix, [(cmd, path, doc, None) for cmd in ("run", "verify", "compare")])


def build_defect_probes(rpmix, workdir: Path) -> list[tuple[str, Call]]:
    return [
        (name, _cli_call(rpmix, "verify", _write_config(workdir / f"{name}.yaml", doc), doc, expected))
        for name, doc, expected in DEFECT_PROBES
    ]


# name -> (build, warm-up, calls per cycle). A timed loop stops only at the end
# of a cycle, so the cheap and dear calls of a cycle are always all counted. Every
# verify-battery call has the same cost, so there a cycle is one call.
WORKLOADS = {
    "verify-battery": (build_verify_battery, warmup_verify_battery, 1),
    "trajectories": (build_trajectories, warmup_trajectories, TRAJ_CYCLE),
    "cli": (build_cli, warmup_cli, len(SHIPPED) * 3 + CLI_GENERATED),
}
