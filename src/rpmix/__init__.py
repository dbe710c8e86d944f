"""Numerical laboratory for spin-selective radical-pair recombination.

Implements the competing master equations for singlet-channel
recombination, the kinetic-mixture decomposition of the surviving
ensemble, exact propagator oracles, and an executable consistency suite
that confirms which weight scheme reproduces the normalized evolution.

The top level exports the names of the README quick tour, the entry
points of the consistency suite and the exception classes; everything
else is imported from its submodule (``rpmix.spinspace``,
``rpmix.models``, ``rpmix.kinetics``, ``rpmix.integrator``,
``rpmix.verify``, ``rpmix.cli``).
"""

from .integrator import IntegrationError, integrate
from .kinetics import (
    AllReacted,
    MixtureInconsistent,
    mixture_from_initial,
    reconstruct,
    weights_at,
)
from .models import ModelKind, ModelSingular, RateParams
from .spinspace import DensityMatrix, NormalizationSingular, make_space, two_level_space
from .verify import Scenario, route_b, run_scenario, run_suite

__version__ = "0.1.0"

__all__ = [
    "AllReacted",
    "DensityMatrix",
    "IntegrationError",
    "MixtureInconsistent",
    "ModelKind",
    "ModelSingular",
    "NormalizationSingular",
    "RateParams",
    "Scenario",
    "integrate",
    "make_space",
    "mixture_from_initial",
    "reconstruct",
    "route_b",
    "run_scenario",
    "run_suite",
    "two_level_space",
    "weights_at",
    "__version__",
]
