import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import rpmix
from rpmix.cli import (
    _KEYS,
    ConfigError,
    InitialStateSpec,
    ScenarioConfig,
    emit_config,
    main,
    parse_config,
    realize_initial_state,
)
from rpmix.models import ModelKind
from rpmix.spinspace import PRESET_NAMES

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """\
space:
  dim: 2
  singlet_indices: [0]
initial_state: equal-mixture
k_S: 1.0
models: [jones-hore]
time:
  t_end: 10.0
  n_snapshots: 101
"""

FULL = """\
space:
  dim: 4
  singlet_indices: [0]
initial_state:
  random: 11
k_S: 2.0
models: [jones-hore, haberkorn, normalized-jh]
weight_scheme: kominis
integrator:
  method: rk4-fixed
  dt: 0.002
  rel_tol: 1.0e-10
  abs_tol: 1.0e-13
time:
  t_end: 5.0
  n_snapshots: 51
outputs:
  csv_path: traj.csv
  report_path: checks.json
"""


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_config_defaults(self):
        config = parse_config(MINIMAL)
        assert config.dim == 2
        assert config.singlet_indices == (0,)
        assert config.initial_state == InitialStateSpec(kind="preset", preset="equal-mixture")
        assert config.models == (ModelKind.JONES_HORE,)
        assert config.method == "rk45-adaptive"
        assert config.rel_tol == 1e-9
        assert config.abs_tol == 1e-12
        assert config.weight_scheme == "corrected"
        assert config.dt is None
        assert config.csv_path == "trajectory.csv"
        assert config.report_path == "report.json"

    def test_full_config(self):
        config = parse_config(FULL)
        assert config.dim == 4
        assert config.initial_state.seed == 11
        assert config.method == "rk4-fixed"
        assert config.dt == 0.002
        assert config.weight_scheme == "kominis"
        assert len(config.models) == 3

    def test_negative_rate_names_key(self):
        with pytest.raises(ConfigError, match="k_S"):
            parse_config(MINIMAL.replace("k_S: 1.0", "k_S: -1.0"))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'solver'"):
            parse_config(MINIMAL + "solver: rk4\n")

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="time.step"):
            parse_config(MINIMAL.replace("  n_snapshots: 101", "  n_snapshots: 101\n  step: 2"))

    def test_missing_required_key(self):
        bad = MINIMAL.replace("k_S: 1.0\n", "")
        with pytest.raises(ConfigError, match="k_S"):
            parse_config(bad)

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="models"):
            parse_config(MINIMAL.replace("[jones-hore]", "[lindblad]"))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config(MINIMAL.replace("equal-mixture", "thermal"))

    def test_bad_snapshot_count(self):
        with pytest.raises(ConfigError, match="n_snapshots"):
            parse_config(MINIMAL.replace("n_snapshots: 101", "n_snapshots: 1"))

    def test_bad_singlet_indices(self):
        with pytest.raises(ConfigError, match="singlet_indices"):
            parse_config(MINIMAL.replace("singlet_indices: [0]", "singlet_indices: [0, 1]"))

    def test_non_hermitian_matrix_names_initial_state(self):
        cfg = MINIMAL.replace(
            "initial_state: equal-mixture",
            "initial_state:\n  matrix: [[0.5, 0.0], [0.3, 0.0], [0.0, 0.0], [0.5, 0.0]]",
        )
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config(cfg)

    def test_indefinite_matrix_rejected(self):
        cfg = MINIMAL.replace(
            "initial_state: equal-mixture",
            "initial_state:\n  matrix: [[0.5, 0.0], [0.6, 0.0], [0.6, 0.0], [0.5, 0.0]]",
        )
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config(cfg)

    def test_matrix_trace_must_be_one_for_normalized_models(self):
        cfg = MINIMAL.replace("models: [jones-hore]", "models: [normalized-jh]").replace(
            "initial_state: equal-mixture",
            "initial_state:\n  matrix: [[0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.25, 0.0]]",
        )
        with pytest.raises(ConfigError, match="unit trace"):
            parse_config(cfg)

    def test_wrong_entry_count(self):
        cfg = MINIMAL.replace(
            "initial_state: equal-mixture",
            "initial_state:\n  matrix: [[0.5, 0.0], [0.5, 0.0]]",
        )
        with pytest.raises(ConfigError, match="matrix"):
            parse_config(cfg)

    def test_not_yaml(self):
        with pytest.raises(ConfigError, match="YAML"):
            parse_config("space: [unclosed")

    def test_exponent_without_sign_or_dot_is_a_float(self):
        cfg = MINIMAL.replace("k_S: 1.0", "k_S: 1.0e4").replace(
            "time:", "integrator:\n  method: rk4-fixed\n  dt: 1e-5\n  abs_tol: 1E-12\ntime:"
        )
        config = parse_config(cfg)
        assert config.k_s == 1.0e4
        assert config.dt == 1e-5
        assert config.abs_tol == 1e-12
        assert parse_config(emit_config(config)) == config

    @pytest.mark.parametrize("value", ["fast", "1e", "e5", "1.0e4s"])
    def test_non_numeric_rate_exits_2_naming_key(self, tmp_path, capsys, value):
        config = write_config(tmp_path, MINIMAL.replace("k_S: 1.0", f"k_S: {value}"))
        assert main(["run", "--config", str(config), "--quiet"]) == 2
        assert "'k_S' must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [MINIMAL, FULL])
    def test_emit_round_trip(self, text):
        config = parse_config(text)
        assert parse_config(emit_config(config)) == config

    def test_emit_round_trip_matrix_state(self):
        cfg = MINIMAL.replace(
            "initial_state: equal-mixture",
            "initial_state:\n  matrix: [[0.5, 0.0], [0.0, 0.1], [0.0, -0.1], [0.5, 0.0]]",
        )
        config = parse_config(cfg)
        assert parse_config(emit_config(config)) == config
        rho = realize_initial_state(config)
        assert rho.matrix[0, 1] == 0.1j


FULL_DOC = yaml.safe_load(FULL)

# one invalid value per key path of _KEYS
BAD_VALUES = {
    "space.dim": 1,
    "space.singlet_indices": [0, 5],
    "initial_state": "thermal",
    "k_S": 0.0,
    "models": ["lindblad"],
    "weight_scheme": "exponential",
    "integrator.method": "euler",
    "integrator.rel_tol": 0.0,
    "integrator.abs_tol": -1e-12,
    "integrator.dt": float("nan"),
    "time.t_end": -1.0,
    "time.n_snapshots": 1,
    "outputs.csv_path": 5,
    "outputs.report_path": ["report.json"],
}


class TestKeyTable:
    def test_one_row_per_field(self):
        assert [row[0] for row in _KEYS] == [f.name for f in dataclasses.fields(ScenarioConfig)]

    @pytest.mark.parametrize("path", [row[1] for row in _KEYS])
    def test_bad_value_exits_2_naming_key_path(self, tmp_path, capsys, path):
        doc = json.loads(json.dumps(FULL_DOC))
        section, _, key = path.rpartition(".")
        (doc[section] if section else doc)[key] = BAD_VALUES[path]
        config = write_config(tmp_path, yaml.safe_dump(doc, sort_keys=False))
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"'{path}'" in err, err
        assert "Traceback" not in err

    def test_tolerance_errors_name_their_key(self):
        text = FULL.replace("rel_tol: 1.0e-10", "rel_tol: -1.0e-10")
        with pytest.raises(ConfigError, match=r"'integrator.rel_tol' must be positive, got -1e-10"):
            parse_config(text)
        text = FULL.replace("abs_tol: 1.0e-13", "abs_tol: -1.0e-13")
        with pytest.raises(ConfigError, match=r"'integrator.abs_tol' must be nonnegative, got -1e-13"):
            parse_config(text)

    @pytest.mark.parametrize(
        "old, new, path",
        [
            ("k_S: 2.0", "k_S: .inf", "k_S"),
            ("t_end: 5.0", "t_end: .inf", "time.t_end"),
            ("random: 11", "matrix: [[.nan, 0], [0, 0], [0, 0], [0.5, 0]]", "initial_state.matrix[0][0]"),
        ],
    )
    def test_non_finite_number_exits_2_naming_key_path(self, tmp_path, capsys, old, new, path):
        text = FULL.replace(old, new).replace("dim: 4", "dim: 2")
        config = write_config(tmp_path, text)
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 2
        assert f"'{path}' must be finite" in capsys.readouterr().err

    def test_weight_scheme_must_be_a_string(self):
        with pytest.raises(ConfigError, match="'weight_scheme' must be a string"):
            parse_config(MINIMAL + "weight_scheme: 3\n")


def _number_forms(x: float) -> list[str]:
    """Spellings of x that all read back as x: plain, exponent with and
    without a dot or a sign on the exponent, either case of e."""
    sci = f"{x:.17e}"
    mantissa, exponent = sci.split("e")
    no_dot = f"{mantissa.replace('.', '')}e{int(exponent) - 17}"
    return [repr(x), sci, sci.upper(), sci.replace("e+", "e"), no_dot]


@st.composite
def config_texts(draw):
    """A valid config with each optional key omitted or present, and the
    fields parse_config should give for it."""

    def number(x):
        return draw(st.sampled_from(_number_forms(x)))

    def positive():
        return draw(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False))

    def text():
        # paths spelled like numbers must come back as strings too
        number_like = st.sampled_from(["{}", "{}e5", "{}E-3", "{}.e1"]).map(lambda f: f.format(number(positive())))
        return draw(st.one_of(st.text(alphabet="abe019.+-_/", min_size=1, max_size=8), number_like))

    dim = draw(st.integers(min_value=2, max_value=4))
    singlets = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim - 1, unique=True))
    models = draw(st.lists(st.sampled_from([m.value for m in ModelKind]), min_size=1, max_size=4))
    kind = draw(st.sampled_from(["preset", "random", "matrix"]))
    k_s, t_end = positive(), positive()
    n_snapshots = draw(st.integers(min_value=2, max_value=1000))
    lines = ["space:", f"  dim: {dim}", f"  singlet_indices: {singlets}"]
    if kind == "preset":
        preset = draw(st.sampled_from(PRESET_NAMES))
        state = InitialStateSpec(kind="preset", preset=preset)
        lines.append(f"initial_state: {preset}")
    elif kind == "random":
        seed = draw(st.integers(min_value=0, max_value=2**32))
        state = InitialStateSpec(kind="random", seed=seed)
        lines += ["initial_state:", f"  random: {seed}"]
    else:
        weights = draw(st.lists(st.integers(0, 5), min_size=dim, max_size=dim).filter(any))
        diag = [w / sum(weights) for w in weights]
        pairs = tuple((diag[i] if i == j else 0.0, 0.0) for i in range(dim) for j in range(dim))
        state = InitialStateSpec(kind="matrix", matrix=pairs)
        entries = ", ".join(f"[{number(re)}, {number(im)}]" for re, im in pairs)
        lines += ["initial_state:", f"  matrix: [{entries}]"]
    lines += [f"k_S: {number(k_s)}", "models: [" + ", ".join(models) + "]"]
    expected = dict(
        dim=dim, singlet_indices=tuple(sorted(singlets)), initial_state=state, k_s=k_s,
        models=tuple(ModelKind.from_name(m) for m in models), weight_scheme="corrected",
        method="rk45-adaptive", rel_tol=1e-9, abs_tol=1e-12, dt=None, t_end=t_end,
        n_snapshots=n_snapshots, csv_path="trajectory.csv", report_path="report.json",
    )
    if draw(st.booleans()):
        expected["weight_scheme"] = draw(st.sampled_from(["corrected", "kominis"]))
        lines.append(f"weight_scheme: {expected['weight_scheme']}")
    integrator = []
    if draw(st.booleans()):
        expected["method"] = draw(st.sampled_from(["rk4-fixed", "rk45-adaptive"]))
        integrator.append(f"  method: {expected['method']}")
    for name in ("rel_tol", "dt"):
        if draw(st.booleans()):
            expected[name] = positive()
            integrator.append(f"  {name}: {number(expected[name])}")
    if draw(st.booleans()):
        expected["abs_tol"] = draw(st.sampled_from([0.0, positive()]))
        integrator.append(f"  abs_tol: {number(expected['abs_tol'])}")
    if integrator or draw(st.booleans()):
        lines += ["integrator:" + ("" if integrator else " {}")] + draw(st.permutations(integrator))
    lines += ["time:", f"  t_end: {number(t_end)}", f"  n_snapshots: {n_snapshots}"]
    outputs = []
    for name in ("csv_path", "report_path"):
        if draw(st.booleans()):
            expected[name] = text()
            outputs.append(f"  {name}: {json.dumps(expected[name])}")
    if outputs or draw(st.booleans()):
        lines += ["outputs:" + ("" if outputs else " {}")] + outputs
    return "\n".join(lines) + "\n", ScenarioConfig(**expected)


class TestEmitProperty:
    @settings(max_examples=150, deadline=None)
    @given(config_texts())
    def test_parse_emit_round_trip(self, drawn):
        text, expected = drawn
        config = parse_config(text)
        assert config == expected
        emitted = emit_config(config)
        assert parse_config(emitted) == config
        assert emit_config(parse_config(emitted)) == emitted

    def test_strings_that_read_as_numbers_are_quoted(self):
        config = parse_config(MINIMAL + "outputs:\n  csv_path: '1e5'\n")
        assert config.csv_path == "1e5"
        assert parse_config(emit_config(config)) == config


class TestRunCommand:
    def test_writes_csv_per_model(self, tmp_path):
        config = write_config(tmp_path, MINIMAL.replace("[jones-hore]", "[jones-hore, haberkorn]"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out), "--quiet"]) == 0
        assert (out / "trajectory_jones-hore.csv").exists()
        assert (out / "trajectory_haberkorn.csv").exists()
        assert (out / "config_echo.yaml").exists()

    def test_csv_shape_and_first_row(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out-dir", str(out), "--quiet"])
        lines = (out / "trajectory_jones-hore.csv").read_text().splitlines()
        assert lines[0] == "t,trace,p_singlet,p_triplet,re_0_0,im_0_0,re_0_1,im_0_1,re_1_1,im_1_1"
        assert len(lines) == 1 + 101
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 1.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0]

    def test_pure_triplet_rows_constant(self, tmp_path):
        config = write_config(tmp_path, MINIMAL.replace("equal-mixture", "pure-triplet"))
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out-dir", str(out), "--quiet"])
        lines = (out / "trajectory_jones-hore.csv").read_text().splitlines()
        values = {line.split(",", 1)[1] for line in lines[2:]}
        assert len(values) == 1  # identical except for the time column

    def test_outputs_byte_identical(self, tmp_path):
        config = write_config(tmp_path, FULL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--config", str(config), "--out-dir", str(out), "--quiet"]) == 0
        for name in ("traj_jones-hore.csv", "traj_haberkorn.csv", "traj_normalized-jh.csv", "config_echo.yaml"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_singular_model_exit_code(self, tmp_path, capsys):
        text = MINIMAL.replace("equal-mixture", "pure-singlet").replace(
            "[jones-hore]", "[normalized-kominis]"
        )
        config = write_config(tmp_path, text)
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out"), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "normalized-kominis" in err
        assert "below floor" in err

    def run_recording_warnings(self, tmp_path, text):
        config = write_config(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out"), "--quiet"])
        return code, [str(w.message) for w in caught]

    def test_zero_abs_tol_runs_a_diagonal_preset(self, tmp_path, capsys):
        # abs_tol 0 is pure relative control; the preset's zero entries have zero error
        text = (CONFIGS / "equal_mixture.yaml").read_text() + "integrator:\n  abs_tol: 0\n"
        assert self.run_recording_warnings(tmp_path, text) == (0, [])
        assert capsys.readouterr().err == ""

    def test_diverged_fixed_step_run_prints_only_its_error(self, tmp_path, capsys):
        # k_S dt = 10 is far outside RK4's stability region
        text = MINIMAL.replace("[jones-hore]", "[normalized-jh]").replace("t_end: 10.0", "t_end: 50.0")
        text = text.replace("n_snapshots: 101", "n_snapshots: 6") + "integrator:\n  method: rk4-fixed\n  dt: 10\n"
        assert self.run_recording_warnings(tmp_path, text) == (3, [])
        assert capsys.readouterr().err == (
            "integration of normalized-jh failed: invalid state at t = 30: "
            "density matrix contains non-finite entries\n"
        )

    def test_singular_trial_stage_does_not_end_an_adaptive_run(self, tmp_path, capsys):
        # the first adaptive step, h = 10, overshoots in a trial stage and is rejected
        text = MINIMAL.replace("[jones-hore]", "[normalized-kominis]").replace("t_end: 10.0", "t_end: 100.0")
        text = text.replace("n_snapshots: 101", "n_snapshots: 2")
        assert self.run_recording_warnings(tmp_path, text) == (0, [])
        assert capsys.readouterr().err == ""
        last = (tmp_path / "out" / "trajectory_normalized-kominis.csv").read_text().splitlines()[-1].split(",")
        assert float(last[2]) == pytest.approx(0.0, abs=1e-9)  # p_singlet at k_S t = 100

    def test_zero_abs_tol_underflow_exits_3_naming_its_cause(self, tmp_path, capsys):
        text = MINIMAL.replace("t_end: 10.0", "t_end: 760.0") + "integrator:\n  abs_tol: 0\n"
        assert self.run_recording_warnings(tmp_path, text) == (3, [])
        assert capsys.readouterr().err == (
            "integration of jones-hore failed: non-finite error estimate at t = 723.346692565:"
            " the error scale abs_tol + rel_tol*|factor| underflowed to 0 with abs_tol = 0;"
            " a positive abs_tol avoids this\n"
        )

    def test_seed_override_changes_state(self, tmp_path):
        config = write_config(tmp_path, FULL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config), "--out-dir", str(out_a), "--quiet"])
        main(["run", "--config", str(config), "--out-dir", str(out_b), "--quiet", "--seed", "99"])
        a = (out_a / "traj_jones-hore.csv").read_text()
        b = (out_b / "traj_jones-hore.csv").read_text()
        assert a != b

    def test_seed_override_is_echoed(self, tmp_path):
        # rerunning from the echo of a --seed run reproduces every artifact
        for command in ("run", "verify"):
            first, second = tmp_path / command / "first", tmp_path / command / "second"
            argv = [command, "--config", str(CONFIGS / "random_four_level.yaml"), "--out-dir", str(first)]
            assert main(argv + ["--quiet", "--seed", "99"]) == 0
            argv = [command, "--config", str(first / "config_echo.yaml"), "--out-dir", str(second)]
            assert main(argv + ["--quiet"]) == 0
            names = sorted(path.name for path in first.iterdir())
            assert names == sorted(path.name for path in second.iterdir())
            for name in names:
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
            assert "random: 99" in (first / "config_echo.yaml").read_text()
        document = json.loads((tmp_path / "verify" / "first" / "four_level_report.json").read_text())
        assert document["reports"][0]["scenario"]["label"] == "config-random-seed-99"

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2

    def test_bad_config_exit_code(self, tmp_path):
        config = write_config(tmp_path, MINIMAL + "bogus: 1\n")
        assert main(["run", "--config", str(config), "--quiet"]) == 2


class TestVerifyCommand:
    def test_equal_mixture_report(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        code = main(["verify", "--config", str(config), "--out-dir", str(out), "--quiet"])
        assert code == 0
        document = json.loads((out / "report.json").read_text())
        assert document["all_passed"] is True
        checks = {c["name"]: c for c in document["reports"][0]["checks"]}
        assert checks["mixture-identity"]["max_deviation"] <= 1e-8
        assert checks["route-equivalence"]["max_deviation"] <= 1e-8
        disc = checks["kominis-discrepancy"]
        assert disc["passed"] is True
        # grid maximum of the weight-scheme divergence sits near k_S t = 0.9
        assert disc["max_deviation"] == pytest.approx(0.0857657, abs=1e-4)
        assert 0.7 <= disc["t_at_max"] <= 1.1

    def test_divergence_curve_file(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["verify", "--config", str(config), "--out-dir", str(out), "--quiet"])
        document = json.loads((out / "report.json").read_text())
        ref = document["reports"][0]["divergence_curve"]
        assert ref == "report_divergence.csv"
        lines = (out / ref).read_text().splitlines()
        assert lines[0] == "t,p_singlet_corrected,p_singlet_kominis,delta"
        assert len(lines) == 1 + 101
        row_t1 = [float(x) for x in lines[11].split(",")]
        assert row_t1[0] == pytest.approx(1.0)
        assert row_t1[1] == pytest.approx(math.exp(-1) / (1 + math.exp(-1)), abs=1e-9)
        assert row_t1[2] == pytest.approx(0.5 * math.exp(-1), abs=1e-9)
        assert row_t1[3] == pytest.approx(0.08500170078427394, abs=1e-6)

    def test_pure_singlet_battery_contains_singularity_check(self, tmp_path):
        config = write_config(tmp_path, MINIMAL.replace("equal-mixture", "pure-singlet"))
        out = tmp_path / "out"
        code = main(["verify", "--config", str(config), "--out-dir", str(out), "--quiet"])
        assert code == 0
        document = json.loads((out / "report.json").read_text())
        names = [c["name"] for c in document["reports"][0]["checks"]]
        assert "kominis-singularity" in names
        assert document["reports"][0]["divergence_curve"] is None

    def test_disputed_scheme_fails_and_exits_one(self, tmp_path):
        text = MINIMAL + "weight_scheme: kominis\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = main(["verify", "--config", str(config), "--out-dir", str(out), "--quiet"])
        assert code == 1
        document = json.loads((out / "report.json").read_text())
        checks = {c["name"]: c for c in document["reports"][0]["checks"]}
        assert checks["mixture-identity"]["passed"] is False

    def test_pure_singlet_passes_where_the_survival_trace_vanishes(self, tmp_path):
        # pure singlet at k_S t = 30: the exact survival trace falls below
        # 1e-12 before the end of the grid; route A divides by no trace
        text = MINIMAL.replace("equal-mixture", "pure-singlet").replace("k_S: 1.0", "k_S: 3.0")
        config = write_config(tmp_path, text.replace("[jones-hore]", "[normalized-jh]"))
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(rpmix.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "rpmix.cli", "verify", "--config", str(config),
             "--out-dir", str(out), "--quiet"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        document = json.loads((out / "report.json").read_text())
        checks = {c["name"]: c for c in document["reports"][0]["checks"]}
        assert checks["route-equivalence"]["passed"] is True
        assert checks["route-equivalence"]["error"] is None

    def test_verify_output_prints_status_lines(self, tmp_path, capsys):
        config = write_config(tmp_path, MINIMAL.replace("t_end: 10.0", "t_end: 2.0"))
        main(["verify", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert "PASS route-equivalence" in out
        assert "PASS mixture-identity" in out


class TestCompareCommand:
    def test_table_and_csv(self, tmp_path, capsys):
        text = MINIMAL.replace("[jones-hore]", "[jones-hore, haberkorn, normalized-jh]").replace(
            "t_end: 10.0", "t_end: 2.0"
        ).replace("n_snapshots: 101", "n_snapshots: 5")
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = main(["compare", "--config", str(config), "--out-dir", str(out)])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,p_singlet_jones-hore,p_singlet_haberkorn,p_singlet_normalized-jh"
        assert len(lines) == 1 + 5
        row = [float(x) for x in lines[1].split(",")]
        assert row[1:] == [0.5, 0.5, 0.5]
        printed = capsys.readouterr().out
        assert "p_S(jones-hore)" in printed

    def test_unnormalized_populations_agree_without_coherence(self, tmp_path):
        text = MINIMAL.replace("[jones-hore]", "[jones-hore, haberkorn]")
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        main(["compare", "--config", str(config), "--out-dir", str(out), "--quiet"])
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        for row in rows:
            _, a, b = (float(x) for x in row.split(","))
            assert abs(a - b) < 1e-9
