"""Upper bounds on the length scale of hidden classical computational substrates.

Given a demonstrated operation count (for instance 2^n equivalent classical
operations from n logical qubits), this package bounds how small the grid
spacing of any underlying classical computing substrate would have to be,
for scenarios ranging from an isolated laboratory to the fully connected
observable universe, and solves for the qubit counts at which each scenario
reaches the Planck length.
"""

__version__ = "0.1.0"

from .quantities import LogQuantity, PhysicalConstants, planck_units
from .laws import CosmologyParams, UniverseLaws, universe_laws
from .bounds import Scenario, ScenarioKind
from .thresholds import ThresholdResult, classify_machine, planck_threshold
from .errors import ConfigurationError, QuadratureError

__all__ = [
    "LogQuantity",
    "PhysicalConstants",
    "planck_units",
    "QuadratureError",
    "CosmologyParams",
    "UniverseLaws",
    "universe_laws",
    "Scenario",
    "ScenarioKind",
    "ThresholdResult",
    "planck_threshold",
    "classify_machine",
    "ConfigurationError",
    "__version__",
]
