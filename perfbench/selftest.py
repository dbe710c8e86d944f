"""Self-tests of the benchmark's oracle and span recorder.

    python3 perfbench/selftest.py

Needs only numpy; rpmix is not imported. Exits 0 when every test passes.
"""

from __future__ import annotations

import sys

import numpy as np

import oracle
from spans import SpanRecorder


def test_oracle_accepts_closed_form_and_rejects_perturbation():
    rng = np.random.default_rng(5)
    for dim, singlets in ((2, (0,)), (4, (0,)), (8, (0, 1))):
        rho0 = oracle.random_state(rng, dim)
        grid = np.linspace(0.0, 4.0, 201)
        for model in oracle.MODELS:
            states = oracle.closed_form(model, rho0, singlets, 1.5, grid)
            obs = oracle.observables(states, singlets)
            min_eig = np.linalg.eigvalsh(states)[:, 0]
            args = (model, rho0, singlets, 1.5, grid)
            assert oracle.problems_trajectory(grid, states, obs, min_eig, *args) == [], model
            bumped = states.copy()
            bumped[137, 0, 1] += 1e-6
            bumped[137, 1, 0] += 1e-6
            assert oracle.problems_trajectory(grid, bumped, obs, min_eig, *args), model
            shifted = dict(obs, p_singlet=obs["p_singlet"] + 1e-6)
            assert oracle.problems_trajectory(grid, states, shifted, min_eig, *args), model


def test_closed_forms_solve_their_equations():
    # finite-difference derivative of each closed form against the master equation it solves
    rng = np.random.default_rng(6)
    rho0 = oracle.random_state(rng, 4)
    s = oracle.singlet_diag(4, (0,))
    tt = np.outer(1 - s, 1 - s)
    k, h = 1.3, 1e-5
    rhs = {
        "jones-hore": lambda m: -k * (m - tt * m),
        "haberkorn": lambda m: -(k / 2) * (s[:, None] + s[None, :]) * m,
        "normalized-jh": lambda m: -k * (np.trace(tt * m).real * m - tt * m),
        "normalized-kominis": lambda m: -k * (m - tt * m / np.trace(tt * m).real),
    }
    for model, f in rhs.items():
        plus, mid, minus = oracle.closed_form(model, rho0, (0,), k, [0.7 + h, 0.7, 0.7 - h])
        assert np.max(np.abs((plus - minus) / (2 * h) - f(mid))) < 1e-8, model


def test_expected_verdicts_and_exit_codes():
    assert all(oracle.expected_verdicts(0.3, "corrected").values())
    assert oracle.expected_verdicts(0.3, "kominis")["mixture-identity"] is False
    assert all(oracle.expected_verdicts(1.0, "kominis").values())
    assert "kominis-singularity" in oracle.expected_verdicts(0.0, "corrected")
    assert oracle.expected_exit("verify", [], 0.3, "corrected") == 0
    assert oracle.expected_exit("verify", [], 0.3, "kominis") == 1
    assert oracle.expected_exit("run", ["normalized-kominis"], 0.0, "corrected") == 3
    assert oracle.expected_exit("run", ["normalized-kominis"], 0.5, "corrected") == 0
    assert oracle.problems_exit(0, 0) == []
    assert oracle.problems_exit(1, 0)  # a wrong exit code is rejected
    assert oracle.problems_exit(3, {0, 1, 2})
    assert oracle.problems_exit(2, {0, 1, 2}) == []


def test_report_oracle_rejects_wrong_verdict():
    rho0 = np.diag([0.6, 0.4]).astype(complex)
    grid = np.linspace(0.0, 2.0, 11)
    checks = [
        {"name": n, "passed": True, "error": None, "details": {"p_T": 0.4}}
        for n in oracle.CHECKS_BY_CLASS["mixed"]
    ]
    report = {
        "checks": checks,
        "all_passed": True,
        "scenario": {"dim": 2, "k_S": 1.0, "t_end": 2.0, "n_snapshots": 11},
        "divergence": (grid, oracle.corrected_p_singlet(0.4, 1.0, grid), np.exp(-grid) * 0.6),
    }
    assert oracle.problems_report(report, rho0, (0,), 1.0, 2.0, 11, "corrected") == []
    assert oracle.problems_report(report, rho0, (0,), 1.0, 2.0, 11, "kominis")
    report["divergence"] = (grid, oracle.corrected_p_singlet(0.4, 1.0, grid) + 1e-6, np.exp(-grid) * 0.6)
    assert oracle.problems_report(report, rho0, (0,), 1.0, 2.0, 11, "corrected")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_times_on_nested_trace():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def advance(dt):
        clock.now += dt

    def work():
        advance(1.0)                      # op self: 1
        a = rec.open("a")
        advance(2.0)                      # a self: 2
        b = rec.open("b")
        advance(4.0)                      # b self: 4
        rec.leaf("leaf", 0.5)             # aggregated leaf inside b
        advance(0.5)
        rec.close(b)
        c = rec.open("b")
        advance(3.0)                      # second b: 3
        rec.close(c)
        rec.close(a)
        advance(0.25)                     # op self: 0.25 more

    rec.run_op(7, work)
    rec.run_op(8, lambda: advance(2.0))
    summary = rec.summary()
    assert summary["op"] == {"calls": 2, "self_s": 1.25 + 2.0}
    assert summary["a"] == {"calls": 1, "self_s": 2.0}
    assert summary["b"] == {"calls": 2, "self_s": 7.0}
    assert summary["leaf"] == {"calls": 1, "self_s": 0.5}
    assert rec.op_residuals() == {7: 0.0, 8: 0.0}
    spans = rec.spans
    assert [s[3] for s in spans] == [-1, 0, 1, 1, -1]  # parents
    assert [s[4] for s in spans] == [7, 7, 7, 7, 8]  # op ids


def test_span_close_out_of_order_is_an_error():
    rec = SpanRecorder(FakeClock())
    rec.op_id = 1
    outer = rec.open("outer")
    rec.open("inner")
    try:
        rec.close(outer)
    except RuntimeError:
        return
    raise AssertionError("closing the outer span first must raise")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
