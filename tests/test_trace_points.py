"""Every name the benchmark's tracer wraps must resolve.

perfbench/tracing.py replaces functions by (module, attribute) in the
namespaces where rpmix looks them up. A refactor that drops or renames
one of them breaks the traced benchmark; these tests catch it without
running a benchmark. The tracer file is only read, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rpmix import DensityMatrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.PATCHES]


# the RHS factory is wrapped where the integrator binds it, besides the PATCHES table
PATCH_POINTS = tracer_patches() + [("rpmix.integrator", "rhs_function")]


@pytest.mark.parametrize("module, attr", PATCH_POINTS, ids=lambda v: v)
def test_patch_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_density_matrix_construction_is_traceable():
    # the tracer counts constructions through __post_init__
    assert callable(DensityMatrix.__dict__["__post_init__"])
