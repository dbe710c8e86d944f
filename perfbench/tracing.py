"""Outside-in tracing of rpmix's layers, and the per-layer metrics derived from it.

rpmix has no spans of its own, so the benchmark wraps public functions
where their callers look them up: ``verify`` and ``cli`` import names
directly, so each name is replaced in the namespace of the module that
calls it, and restored afterwards. Construction of a ``DensityMatrix``
is traced through its ``__post_init__``, which every constructor call
runs. The RHS closure returned by ``models.rhs_function`` is wrapped as
an aggregated leaf (see spans.py).
"""

from __future__ import annotations

import contextlib
import importlib

CHECKS = (
    "route-equivalence", "mixture-identity", "weight-derivative",
    "kominis-discrepancy", "kominis-singularity",
)
KINETICS = ("weights_at", "reconstruct", "mixture_rhs", "weight_rate")

# (calling module, attribute, span name)
PATCHES = (
    ("rpmix", "integrate", "integrator.integrate"),
    ("rpmix.verify", "integrate", "integrator.integrate"),
    ("rpmix.cli", "integrate", "integrator.integrate"),
    ("rpmix.integrator", "validate", "spinspace.validate"),
    ("rpmix.cli", "validate", "spinspace.validate"),
    ("rpmix.verify", "normalize", "spinspace.normalize"),
    ("rpmix.verify", "frobenius_distance", "spinspace.frobenius_distance"),
    *(("rpmix.verify", name, f"kinetics.{name}") for name in KINETICS),
    ("rpmix.kinetics", "reconstruct", "kinetics.reconstruct"),  # called by mixture_rhs
    ("rpmix.kinetics", "weight_rate", "kinetics.weight_rate"),
    *(("rpmix.verify", "check_" + c.replace("-", "_"), f"verify.check.{c}") for c in CHECKS),
    ("rpmix.verify", "run_scenario", "verify.run_scenario"),
    ("rpmix.cli", "run_scenario", "verify.run_scenario"),
    ("rpmix.cli", "parse_config", "cli.parse_config"),
    ("rpmix.cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
)


def _traced(rec, fn, name, before=None):
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return traced


@contextlib.contextmanager
def instrument(rec):
    """Install the wrappers while the block runs; spans record only inside ``rec.run_op``."""
    import rpmix

    clock = rec.clock
    restore = []

    def patch(owner, attr, value):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def count_snapshots(args, kwargs):
        grid = args[3] if len(args) > 3 else kwargs["grid"]
        rec.count("integrator.snapshots", len(grid) - 1)

    def count_route_b(args, kwargs):
        count_snapshots(args, kwargs)
        model = args[0] if args else kwargs["model"]
        if model is rpmix.ModelKind.NORMALIZED_JONES_HORE:
            rec.count("verify.route_b")

    def count_scenario(args, kwargs):
        rec.count("verify.scenarios")

    hooks = {
        ("rpmix.verify", "integrate"): count_route_b,
        ("rpmix", "integrate"): count_snapshots,
        ("rpmix.cli", "integrate"): count_snapshots,
        ("rpmix.verify", "run_scenario"): count_scenario,
        ("rpmix.cli", "run_scenario"): count_scenario,
    }
    try:
        for module, attr, name in PATCHES:
            owner = importlib.import_module(module)
            patch(owner, attr, _traced(rec, getattr(owner, attr), name, hooks.get((module, attr))))

        integrator = importlib.import_module("rpmix.integrator")
        rhs_function = integrator.rhs_function

        def traced_rhs_function(*args, **kwargs):
            f = rhs_function(*args, **kwargs)

            def rhs(m):
                if not rec.active:
                    return f(m)
                start = clock()
                try:
                    return f(m)
                finally:
                    rec.leaf("models.rhs", clock() - start)

            return rhs

        patch(integrator, "rhs_function", traced_rhs_function)
        density = rpmix.DensityMatrix
        patch(density, "__post_init__", _traced(rec, density.__post_init__, "spinspace.DensityMatrix"))
        yield rec
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def layer_metrics(rec, n_ops: int, bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, per op (``trace.ops`` is the base)."""
    summary = rec.summary()

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    per_op = max(n_ops, 1)
    scenarios = rec.counters.get("verify.scenarios", 0)
    snapshots = rec.counters.get("integrator.snapshots", 0)
    kinetics = [f"kinetics.{n}" for n in KINETICS]
    metrics = {
        "models.rhs.calls": (calls("models.rhs") / per_op, "calls/op"),
        "models.rhs.self_s": (self_s("models.rhs") / per_op, "s/op"),
        "integrator.integrate.calls": (calls("integrator.integrate") / per_op, "calls/op"),
        "integrator.integrate.self_s": (self_s("integrator.integrate") / per_op, "s/op"),
        "integrator.rhs_per_snapshot": (
            calls("models.rhs") / snapshots if snapshots else 0.0, "calls/snapshot"
        ),
        "spinspace.DensityMatrix.calls": (calls("spinspace.DensityMatrix") / per_op, "calls/op"),
    }
    for name in ("DensityMatrix", "validate", "normalize", "frobenius_distance"):
        metrics[f"spinspace.{name}.self_s"] = (self_s(f"spinspace.{name}") / per_op, "s/op")
    metrics["kinetics.calls"] = (sum(calls(n) for n in kinetics) / per_op, "calls/op")
    metrics["kinetics.self_s"] = (self_s(*kinetics) / per_op, "s/op")
    metrics["verify.route_b_per_scenario"] = (
        rec.counters.get("verify.route_b", 0) / scenarios if scenarios else 0.0, "calls/scenario"
    )
    metrics["verify.run_scenario.self_s"] = (self_s("verify.run_scenario") / per_op, "s/op")
    for check in CHECKS:
        metrics[f"verify.check.{check}.self_s"] = (self_s(f"verify.check.{check}") / per_op, "s/op")
    metrics["cli.parse_config.self_s"] = (self_s("cli.parse_config") / per_op, "s/op")
    metrics["cli.write_trajectory_csv.self_s"] = (self_s("cli.write_trajectory_csv") / per_op, "s/op")
    metrics["cli.bytes_written"] = (bytes_written / per_op, "B/op")
    metrics["op.self_s"] = (self_s("op") / per_op, "s/op")
    return metrics
