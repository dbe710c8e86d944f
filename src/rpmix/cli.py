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
``CONFIG_SCHEMA`` below for the exact keys. ``_KEYS`` declares each key
once, with its check and default, and parsing, the unknown-key
rejection and the echo all read it. Unknown keys are errors, not
warnings, and every config error names its key path. A copy of the
parsed config, with a ``--seed`` override applied, is echoed next to
the outputs so every artifact is reproducible from its own directory.

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
import math
import re
import sys
from dataclasses import dataclass, replace
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
    TRACE_TOL,
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
  rel_tol: <float > 0>                      # default 1e-9
  abs_tol: <float >= 0>                     # default 1e-12; 0 is pure relative control
  dt: <float > 0>                           # default 1e-3 / k_S
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
    """A parsed config; every field is one row of ``_KEYS``, which holds its default."""

    dim: int
    singlet_indices: tuple[int, ...]
    initial_state: InitialStateSpec
    k_s: float
    models: tuple[ModelKind, ...]
    weight_scheme: str
    method: str
    rel_tol: float
    abs_tol: float
    dt: float | None
    t_end: float
    n_snapshots: int
    csv_path: str
    report_path: str

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


class _ConfigDumper(yaml.SafeDumper):
    """SafeDumper that quotes the strings _ConfigLoader would read as floats."""


for _yaml_class in (_ConfigLoader, _ConfigDumper):
    _yaml_class.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )


# Every check takes (value, key path, the fields parsed so far) and returns
# the field's value or raises a ConfigError naming the key path.


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
    if not math.isfinite(value):
        raise ConfigError(f"'{path}' must be finite, got {value!r}")
    return float(value)


def _as_str(value, path: str, parsed=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{path}' must be a string, got {value!r}")
    return value


def _checked(convert, ok, requirement: str):
    """The check that converts a value and rejects it unless ok(value)."""

    def check(value, path: str, parsed):
        converted = convert(value, path)
        if not ok(converted):
            raise ConfigError(f"'{path}' must be {requirement}, got {converted!r}")
        return converted

    return check


def _one_of(choices: tuple[str, ...]):
    return _checked(_as_str, lambda name: name in choices, f"one of {', '.join(choices)}")


_AT_LEAST_2 = _checked(_as_int, lambda n: n >= 2, "at least 2")
_POSITIVE = _checked(_as_float, lambda x: x > 0.0, "positive")
_NONNEGATIVE = _checked(_as_float, lambda x: x >= 0.0, "nonnegative")


def _singlet_indices(value, path: str, parsed) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{path}' must be a nonempty list of integers")
    try:
        return make_space(parsed["dim"], [_as_int(i, path) for i in value]).singlet_indices
    except ValueError as exc:
        raise ConfigError(f"'{path}' invalid: {exc}") from exc


def _models(value, path: str, parsed) -> tuple[ModelKind, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{path}' must be a nonempty list of model names")
    try:
        return tuple(ModelKind.from_name(_as_str(m, path)) for m in value)
    except ValueError as exc:
        raise ConfigError(f"'{path}' invalid: {exc}") from exc


def _initial_state(value, path: str, parsed) -> InitialStateSpec:
    if isinstance(value, str):
        if value not in PRESET_NAMES:
            raise ConfigError(
                f"'{path}' preset {value!r} unknown; valid presets: {', '.join(PRESET_NAMES)}"
            )
        return InitialStateSpec(kind="preset", preset=value)
    for key in _as_mapping(value, path):
        if key not in ("random", "matrix"):
            raise ConfigError(f"unknown key '{path}.{key}'")
    if len(value) != 1:
        raise ConfigError(f"'{path}' must hold exactly one of 'random' or 'matrix'")
    if "random" in value:
        return InitialStateSpec(kind="random", seed=_as_int(value["random"], f"{path}.random"))
    dim = parsed["dim"]
    entries = value["matrix"]
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


_REQUIRED = object()

# One row per config key: (ScenarioConfig field, key path, check, default or
# _REQUIRED). parse_config reads the rows in order, so a check may use the
# fields of earlier rows; emit_config writes them in the same order and
# leaves out a key whose value is None.
_KEYS = (
    ("dim", "space.dim", _AT_LEAST_2, _REQUIRED),
    ("singlet_indices", "space.singlet_indices", _singlet_indices, _REQUIRED),
    ("initial_state", "initial_state", _initial_state, _REQUIRED),
    ("k_s", "k_S", _POSITIVE, _REQUIRED),
    ("models", "models", _models, _REQUIRED),
    ("weight_scheme", "weight_scheme", _one_of(WEIGHT_SCHEMES), "corrected"),
    ("method", "integrator.method", _one_of(METHODS), "rk45-adaptive"),
    ("rel_tol", "integrator.rel_tol", _POSITIVE, DEFAULT_REL_TOL),
    ("abs_tol", "integrator.abs_tol", _NONNEGATIVE, DEFAULT_ABS_TOL),
    ("dt", "integrator.dt", _POSITIVE, None),
    ("t_end", "time.t_end", _POSITIVE, _REQUIRED),
    ("n_snapshots", "time.n_snapshots", _AT_LEAST_2, _REQUIRED),
    ("csv_path", "outputs.csv_path", _as_str, "trajectory.csv"),
    ("report_path", "outputs.report_path", _as_str, "report.json"),
)
_PATHS = {path for _, path, _, _ in _KEYS}
_SECTIONS = {path.split(".")[0] for path in _PATHS if "." in path}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a YAML configuration document."""
    try:
        doc = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    doc = _as_mapping(doc if doc is not None else {}, "config")
    for key, value in doc.items():
        paths = [f"{key}.{sub}" for sub in _as_mapping(value, key)] if key in _SECTIONS else [key]
        for path in paths:
            if path not in _PATHS:
                raise ConfigError(f"unknown key '{path}'")

    parsed = {}
    for name, path, check, default in _KEYS:
        section, _, key = path.rpartition(".")
        mapping = doc.get(section, {}) if section else doc
        if key in mapping:
            parsed[name] = check(mapping[key], path, parsed)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key '{path}'")
        else:
            parsed[name] = default
    config = ScenarioConfig(**parsed)
    if config.initial_state.kind == "matrix":
        _check_explicit_matrix(config)
    return config


def _check_explicit_matrix(config: ScenarioConfig) -> None:
    rho = realize_initial_state(config)
    report = validate(rho)
    if report.verdict != "pass":
        raise ConfigError(f"'initial_state' matrix fails validation: {'; '.join(report.issues)}")
    if any(m.is_normalized for m in config.models) and abs(rho.trace - 1.0) > TRACE_TOL:
        raise ConfigError(
            f"'initial_state' must have unit trace for normalized models, got {rho.trace:.12g}"
        )


def _plain(value):
    """A field's value as the YAML document holds it."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, ModelKind):
        return value.value
    if isinstance(value, InitialStateSpec):
        if value.kind == "preset":
            return value.preset
        return {value.kind: _plain(value.seed if value.kind == "random" else value.matrix)}
    return value


def emit_config(config: ScenarioConfig) -> str:
    """Render a config back to YAML; parse_config(emit_config(c)) == c."""
    doc = {}
    for name, path, _, _ in _KEYS:
        value = getattr(config, name)
        if value is not None:
            section, _, key = path.rpartition(".")
            (doc.setdefault(section, {}) if section else doc)[key] = _plain(value)
    return yaml.dump(doc, Dumper=_ConfigDumper, sort_keys=False)


def realize_initial_state(config: ScenarioConfig) -> DensityMatrix:
    """Materialize the configured initial state as a density matrix."""
    space = config.space
    state = config.initial_state
    if state.kind == "preset":
        return preset_state(space, state.preset)
    if state.kind == "random":
        return random_density_matrix(space, state.seed)
    values = np.array([complex(re, im) for re, im in state.matrix])
    return DensityMatrix(space, values.reshape(config.dim, config.dim))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns under a header, each value with _fmt."""
    lines = [",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in zip(*(np.asarray(c).tolist() for c in columns))]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    obs = traj.observables
    states = np.array([state.matrix for state in traj.states])
    header = ["t", "trace", "p_singlet", "p_triplet"]
    columns = [traj.times, obs.trace, obs.p_singlet, obs.p_triplet]
    for i, j in zip(*np.triu_indices(states.shape[-1])):  # row-major upper triangle
        header += [f"re_{i}_{j}", f"im_{i}_{j}"]
        columns += [states[:, i, j].real, states[:, i, j].imag]
    _write_csv(path, header, columns)


def _model_csv_path(base: str, model: ModelKind) -> str:
    p = Path(base)
    return str(p.with_name(f"{p.stem}_{model.value}{p.suffix or '.csv'}"))


def _echo_config(config: ScenarioConfig, out_dir: Path) -> None:
    (out_dir / "config_echo.yaml").write_text(emit_config(config))


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _integrate_models(config: ScenarioConfig, consume) -> int:
    """Integrate each configured model in turn, handing each trajectory to consume.

    consume(model, traj) runs before the next model is integrated. The
    first model that fails is reported on stderr and returns exit code 3;
    otherwise returns 0.
    """
    rho = realize_initial_state(config)
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
        write_trajectory_csv(csv_path, traj)
        _say(args.quiet, f"wrote {csv_path}")

    code = _integrate_models(config, write)
    if code != 0:
        return code
    _echo_config(config, out_dir)
    return 0


def cmd_verify(config: ScenarioConfig, out_dir: Path, args) -> int:
    rho = realize_initial_state(config)
    if abs(rho.trace - 1.0) > TRACE_TOL:
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
        _write_csv(
            report_path.parent / divergence_ref,
            ["t", "p_singlet_corrected", "p_singlet_kominis", "delta"],
            [curve.times, curve.p_singlet_corrected, curve.p_singlet_kominis, curve.delta],
        )

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

    code = _integrate_models(config, collect)
    if code != 0:
        return code

    grid = config.grid
    names = list(columns)
    csv_path = out_dir / config.csv_path
    _write_csv(csv_path, ["t"] + [f"p_singlet_{n}" for n in names], [grid, *columns.values()])
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
        if args.seed is not None:
            if config.initial_state.kind == "random":
                config = replace(config, initial_state=replace(config.initial_state, seed=args.seed))
            else:
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
