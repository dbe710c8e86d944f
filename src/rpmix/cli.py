"""Scenario-driven command line front end.

Subcommands:

- ``run``: integrate the configured models and write one trajectory CSV
  per model.
- ``verify``: run the consistency checks on the configured scenario and
  write a JSON report (plus a weight-scheme divergence CSV when the
  discrepancy check runs).
- ``compare``: tabulate the singlet probability of every configured
  model on a common grid.

Configuration is a YAML document with nested sections; see
``CONFIG_SCHEMA`` below for the exact keys. Unknown keys are errors,
not warnings. A copy of the parsed config is echoed next to the outputs
so every artifact is reproducible from its own directory.

Exit codes: 0 success / all checks passed, 1 check failure,
2 configuration error, 3 integration failure.

Report JSON schema::

    {
      "reports": [
        {
          "scenario": {label, dim, singlet_indices, initial_state,
                       k_S, t_end, n_snapshots, dt, method},
          "checks": [
            {name, max_deviation, t_at_max, tolerance, passed,
             details, error}
          ],
          "divergence_curve": <csv filename or null>,
          "all_passed": <bool>
        }
      ],
      "all_passed": <bool>
    }

Trajectory CSV columns: t, trace, p_singlet, p_triplet, then re_i_j and
im_i_j for every upper-triangle entry (row-major), 17 significant
digits.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .integrator import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    METHODS,
    IntegrationError,
    Trajectory,
    integrate,
)
from .kinetics import WEIGHT_SCHEMES
from .models import ModelKind, ModelSingular, RateParams
from .spinspace import (
    PRESET_NAMES,
    DensityMatrix,
    SpinSpace,
    make_space,
    preset_state,
    random_density_matrix,
    validate,
)
from .verify import Scenario, run_scenario

CONFIG_SCHEMA = """\
space:                      # required
  dim: <int >= 2>
  singlet_indices: [<int>, ...]
initial_state: <preset name> | {random: <seed>} | {matrix: [[re, im], ...]}
k_S: <float > 0>            # required
models: [<model name>, ...] # required; jones-hore | haberkorn |
                            # normalized-jh | normalized-kominis
weight_scheme: corrected | kominis          # default corrected
integrator:                 # optional
  method: rk45-adaptive | rk4-fixed         # default rk45-adaptive
  dt: <float > 0>                           # default 1e-3 / k_S
  rel_tol: <float > 0>                      # default 1e-9
  abs_tol: <float >= 0>                     # default 1e-12
time:                       # required
  t_end: <float > 0>
  n_snapshots: <int >= 2>
outputs:                    # optional
  csv_path: <path>                          # default trajectory.csv
  report_path: <path>                       # default report.json
"""


class ConfigError(Exception):
    """Raised for malformed configuration documents; message names the key path."""


@dataclass(frozen=True)
class InitialStateSpec:
    """Declarative initial state: a preset name, a seed, or explicit entries."""

    kind: str
    preset: str | None = None
    seed: int | None = None
    matrix: tuple[tuple[float, float], ...] | None = None

    def label(self) -> str:
        if self.kind == "preset":
            return self.preset
        if self.kind == "random":
            return f"random-seed-{self.seed}"
        return "explicit-matrix"


@dataclass(frozen=True)
class ScenarioConfig:
    dim: int
    singlet_indices: tuple[int, ...]
    initial_state: InitialStateSpec
    k_s: float
    models: tuple[ModelKind, ...]
    t_end: float
    n_snapshots: int
    weight_scheme: str = "corrected"
    method: str = "rk45-adaptive"
    dt: float | None = None
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    csv_path: str = "trajectory.csv"
    report_path: str = "report.json"

    @property
    def space(self) -> SpinSpace:
        return make_space(self.dim, self.singlet_indices)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_snapshots)


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that also reads 1e5, 1.0e4 and 1e-3 as floats.

    YAML 1.1, which PyYAML follows, requires a dot and a signed exponent
    (1.0e+4); anything else in exponent form would load as a string.
    """


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required key '{_join(path, key)}'")
    return mapping[key]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"'{path}' must be a mapping, got {type(value).__name__}")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}' must be an integer, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}' must be a number, got {value!r}")
    return float(value)


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{path}' must be a string, got {value!r}")
    return value


def _reject_unknown(mapping: dict, known: tuple, path: str) -> None:
    for key in mapping:
        if key not in known:
            raise ConfigError(f"unknown key '{_join(path, key)}'")


def _parse_initial_state(value, dim: int) -> InitialStateSpec:
    path = "initial_state"
    if isinstance(value, str):
        if value not in PRESET_NAMES:
            raise ConfigError(
                f"'{path}' preset {value!r} unknown; valid presets: {', '.join(PRESET_NAMES)}"
            )
        return InitialStateSpec(kind="preset", preset=value)
    mapping = _as_mapping(value, path)
    _reject_unknown(mapping, ("random", "matrix"), path)
    if len(mapping) != 1:
        raise ConfigError(f"'{path}' must hold exactly one of 'random' or 'matrix'")
    if "random" in mapping:
        return InitialStateSpec(kind="random", seed=_as_int(mapping["random"], f"{path}.random"))
    entries = mapping["matrix"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ConfigError(
            f"'{path}.matrix' must list {dim * dim} [re, im] pairs (row-major), "
            f"got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    pairs = []
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"'{path}.matrix[{i}]' must be a [re, im] pair")
        pairs.append(
            (_as_float(pair[0], f"{path}.matrix[{i}][0]"), _as_float(pair[1], f"{path}.matrix[{i}][1]"))
        )
    return InitialStateSpec(kind="matrix", matrix=tuple(pairs))


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a YAML configuration document."""
    try:
        doc = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    doc = _as_mapping(doc if doc is not None else {}, "config")
    _reject_unknown(
        doc,
        ("space", "initial_state", "k_S", "models", "weight_scheme", "integrator", "time", "outputs"),
        "",
    )

    space_doc = _as_mapping(_require(doc, "space", ""), "space")
    _reject_unknown(space_doc, ("dim", "singlet_indices"), "space")
    dim = _as_int(_require(space_doc, "dim", "space"), "space.dim")
    raw_indices = _require(space_doc, "singlet_indices", "space")
    if not isinstance(raw_indices, list) or not raw_indices:
        raise ConfigError("'space.singlet_indices' must be a nonempty list of integers")
    indices = tuple(_as_int(i, "space.singlet_indices") for i in raw_indices)
    try:
        space = make_space(dim, indices)
    except ValueError as exc:
        raise ConfigError(f"'space.singlet_indices' invalid: {exc}") from exc

    initial_state = _parse_initial_state(_require(doc, "initial_state", ""), dim)
    k_s = _as_float(_require(doc, "k_S", ""), "k_S")
    if k_s <= 0.0:
        raise ConfigError(f"'k_S' must be positive, got {k_s}")

    raw_models = _require(doc, "models", "")
    if not isinstance(raw_models, list) or not raw_models:
        raise ConfigError("'models' must be a nonempty list of model names")
    try:
        models = tuple(ModelKind.from_name(_as_str(m, "models")) for m in raw_models)
    except ValueError as exc:
        raise ConfigError(f"'models' invalid: {exc}") from exc

    weight_scheme = doc.get("weight_scheme", "corrected")
    if weight_scheme not in WEIGHT_SCHEMES:
        raise ConfigError(
            f"'weight_scheme' must be one of {', '.join(WEIGHT_SCHEMES)}, got {weight_scheme!r}"
        )

    integ = _as_mapping(doc.get("integrator", {}), "integrator")
    _reject_unknown(integ, ("method", "dt", "rel_tol", "abs_tol"), "integrator")
    method = _as_str(integ.get("method", "rk45-adaptive"), "integrator.method")
    if method not in METHODS:
        raise ConfigError(
            f"'integrator.method' must be one of {', '.join(METHODS)}, got {method!r}"
        )
    dt = integ.get("dt")
    if dt is not None:
        dt = _as_float(dt, "integrator.dt")
        if dt <= 0.0:
            raise ConfigError(f"'integrator.dt' must be positive, got {dt}")
    rel_tol = _as_float(integ.get("rel_tol", DEFAULT_REL_TOL), "integrator.rel_tol")
    abs_tol = _as_float(integ.get("abs_tol", DEFAULT_ABS_TOL), "integrator.abs_tol")
    if rel_tol <= 0.0 or abs_tol < 0.0:
        raise ConfigError("'integrator' tolerances must be positive (abs_tol may be 0)")

    time_doc = _as_mapping(_require(doc, "time", ""), "time")
    _reject_unknown(time_doc, ("t_end", "n_snapshots"), "time")
    t_end = _as_float(_require(time_doc, "t_end", "time"), "time.t_end")
    if t_end <= 0.0:
        raise ConfigError(f"'time.t_end' must be positive, got {t_end}")
    n_snapshots = _as_int(_require(time_doc, "n_snapshots", "time"), "time.n_snapshots")
    if n_snapshots < 2:
        raise ConfigError(f"'time.n_snapshots' must be at least 2, got {n_snapshots}")

    outputs = _as_mapping(doc.get("outputs", {}), "outputs")
    _reject_unknown(outputs, ("csv_path", "report_path"), "outputs")
    csv_path = _as_str(outputs.get("csv_path", "trajectory.csv"), "outputs.csv_path")
    report_path = _as_str(outputs.get("report_path", "report.json"), "outputs.report_path")

    config = ScenarioConfig(
        dim=dim,
        singlet_indices=space.singlet_indices,
        initial_state=initial_state,
        k_s=k_s,
        models=models,
        t_end=t_end,
        n_snapshots=n_snapshots,
        weight_scheme=weight_scheme,
        method=method,
        dt=dt,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        csv_path=csv_path,
        report_path=report_path,
    )
    if initial_state.kind == "matrix":
        _check_explicit_matrix(config)
    return config


def _check_explicit_matrix(config: ScenarioConfig) -> None:
    rho = realize_initial_state(config)
    report = validate(rho)
    if report.verdict != "pass":
        raise ConfigError(f"'initial_state' matrix fails validation: {'; '.join(report.issues)}")
    if any(m.is_normalized for m in config.models) and abs(rho.trace - 1.0) > 1e-9:
        raise ConfigError(
            f"'initial_state' must have unit trace for normalized models, got {rho.trace:.12g}"
        )


def emit_config(config: ScenarioConfig) -> str:
    """Render a config back to YAML; parse_config(emit_config(c)) == c."""
    state = config.initial_state
    if state.kind == "preset":
        state_doc = state.preset
    elif state.kind == "random":
        state_doc = {"random": state.seed}
    else:
        state_doc = {"matrix": [[re, im] for re, im in state.matrix]}
    integrator_doc = {
        "method": config.method,
        "rel_tol": config.rel_tol,
        "abs_tol": config.abs_tol,
    }
    if config.dt is not None:
        integrator_doc["dt"] = config.dt
    doc = {
        "space": {"dim": config.dim, "singlet_indices": list(config.singlet_indices)},
        "initial_state": state_doc,
        "k_S": config.k_s,
        "models": [m.value for m in config.models],
        "weight_scheme": config.weight_scheme,
        "integrator": integrator_doc,
        "time": {"t_end": config.t_end, "n_snapshots": config.n_snapshots},
        "outputs": {"csv_path": config.csv_path, "report_path": config.report_path},
    }
    return yaml.safe_dump(doc, sort_keys=False)


def realize_initial_state(
    config: ScenarioConfig, seed_override: int | None = None
) -> DensityMatrix:
    """Materialize the configured initial state as a density matrix."""
    space = config.space
    state = config.initial_state
    if state.kind == "preset":
        return preset_state(space, state.preset)
    if state.kind == "random":
        seed = seed_override if seed_override is not None else state.seed
        return random_density_matrix(space, seed)
    values = np.array([complex(re, im) for re, im in state.matrix])
    return DensityMatrix(space, values.reshape(config.dim, config.dim))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    dim = traj.states[0].dim
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    header = ["t", "trace", "p_singlet", "p_triplet"]
    for i, j in pairs:
        header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    lines = [",".join(header)]
    obs = traj.observables
    for idx, (t, state) in enumerate(zip(traj.times, traj.states)):
        row = [_fmt(t), _fmt(obs.trace[idx]), _fmt(obs.p_singlet[idx]), _fmt(obs.p_triplet[idx])]
        for i, j in pairs:
            z = state.matrix[i, j]
            row += [_fmt(z.real), _fmt(z.imag)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _model_csv_path(base: str, model: ModelKind) -> str:
    p = Path(base)
    return str(p.with_name(f"{p.stem}_{model.value}{p.suffix or '.csv'}"))


def _echo_config(config: ScenarioConfig, out_dir: Path) -> None:
    (out_dir / "config_echo.yaml").write_text(emit_config(config))


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _integrate_models(config: ScenarioConfig, args, consume) -> int:
    """Integrate each configured model in turn, handing each trajectory to consume.

    consume(model, traj) runs before the next model is integrated. The
    first model that fails is reported on stderr and returns exit code 3;
    otherwise returns 0.
    """
    rho = realize_initial_state(config, args.seed)
    params = RateParams(k_s=config.k_s)
    grid = config.grid
    for model in config.models:
        try:
            traj = integrate(
                model, rho, params, grid,
                method=config.method, dt=config.dt,
                rel_tol=config.rel_tol, abs_tol=config.abs_tol,
            )
        except (ModelSingular, IntegrationError) as exc:
            print(f"integration of {model.value} failed: {exc}", file=sys.stderr)
            return 3
        consume(model, traj)
    return 0


def cmd_run(config: ScenarioConfig, out_dir: Path, args) -> int:
    def write(model: ModelKind, traj: Trajectory) -> None:
        csv_path = out_dir / _model_csv_path(config.csv_path, model)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(csv_path, traj)
        _say(args.quiet, f"wrote {csv_path}")

    code = _integrate_models(config, args, write)
    if code != 0:
        return code
    _echo_config(config, out_dir)
    return 0


def cmd_verify(config: ScenarioConfig, out_dir: Path, args) -> int:
    rho = realize_initial_state(config, args.seed)
    if abs(rho.trace - 1.0) > 1e-9:
        raise ConfigError(
            f"'initial_state' must have unit trace for verification, got {rho.trace:.12g}"
        )
    scenario = Scenario(
        label=f"config-{config.initial_state.label()}",
        rho_init=rho,
        k_s=config.k_s,
        t_end=config.t_end,
        n_snapshots=config.n_snapshots,
        dt=config.dt,
    )
    report = run_scenario(scenario, scheme=config.weight_scheme)

    report_path = out_dir / config.report_path
    report_path.parent.mkdir(parents=True, exist_ok=True)
    divergence_ref = None
    if report.divergence is not None:
        divergence_ref = f"{report_path.stem}_divergence.csv"
        curve = report.divergence
        lines = ["t,p_singlet_corrected,p_singlet_kominis,delta"]
        for t, pc, pk, d in zip(
            curve.times, curve.p_singlet_corrected, curve.p_singlet_kominis, curve.delta
        ):
            lines.append(",".join([_fmt(t), _fmt(pc), _fmt(pk), _fmt(d)]))
        (report_path.parent / divergence_ref).write_text("\n".join(lines) + "\n")

    document = {
        "reports": [report.to_dict(divergence_ref)],
        "all_passed": report.all_passed,
    }
    report_path.write_text(json.dumps(document, indent=2) + "\n")
    _echo_config(config, out_dir)

    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        if check.error is not None:
            _say(args.quiet, f"{status} {check.name}: error: {check.error}")
        else:
            _say(
                args.quiet,
                f"{status} {check.name}: max deviation {check.max_deviation:.3e} "
                f"(tolerance {check.tolerance:.1e})",
            )
    _say(args.quiet, f"wrote {report_path}")
    return 0 if report.all_passed else 1


def cmd_compare(config: ScenarioConfig, out_dir: Path, args) -> int:
    columns = {}

    def collect(model: ModelKind, traj: Trajectory) -> None:
        columns[model.value] = traj.observables.p_singlet

    code = _integrate_models(config, args, collect)
    if code != 0:
        return code

    grid = config.grid
    names = list(columns)
    csv_path = out_dir / config.csv_path
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(["t"] + [f"p_singlet_{n}" for n in names])]
    for idx, t in enumerate(grid):
        lines.append(",".join([_fmt(t)] + [_fmt(columns[n][idx]) for n in names]))
    csv_path.write_text("\n".join(lines) + "\n")
    _echo_config(config, out_dir)

    if not args.quiet:
        widths = [max(14, len(f"p_S({n})") + 2) for n in names]
        print("t".rjust(12) + "".join(f"p_S({n})".rjust(w) for n, w in zip(names, widths)))
        for idx, t in enumerate(grid):
            print(
                f"{t:12.6g}"
                + "".join(f"{columns[n][idx]:{w}.8f}" for n, w in zip(names, widths))
            )
        print(f"wrote {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpmix",
        description="Spin-selective radical-pair recombination laboratory",
        epilog="Config schema:\n" + CONFIG_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "integrate the configured models and write trajectory CSVs"),
        ("verify", "run the consistency checks and write a JSON report"),
        ("compare", "tabulate singlet probabilities across models"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the YAML config")
        p.add_argument("--out-dir", default=".", help="directory for output artifacts")
        p.add_argument(
            "--seed", type=int, default=None,
            help="override the seed of a random initial state",
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.seed is not None and config.initial_state.kind != "random":
            print("note: --seed only affects random initial states", file=sys.stderr)
        if args.command == "run":
            return cmd_run(config, out_dir, args)
        if args.command == "verify":
            return cmd_verify(config, out_dir, args)
        return cmd_compare(config, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ModelSingular, IntegrationError) as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
