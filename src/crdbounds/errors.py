"""Shared exception types and the range check every input goes through."""

import math
import operator
import sys
from typing import List, Union


class ConfigurationError(ValueError):
    """A run configuration or scenario wiring problem (bad parameter values,
    missing universe laws, parameter mismatch between scenario and laws)."""


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of panels before reaching tolerance.

    Carries the partial estimate (a float from ``quadrature.integrate``, or
    ``laws.k_integrals``' [k4u, k7u, k8u]) and the relative tolerance
    actually achieved.
    """

    def __init__(self, message: str, estimate: Union[float, List[float]], achieved_rel_tol: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_rel_tol = achieved_rel_tol


def check_range(name, value, low=0.0, high=math.inf, *, low_inclusive=False):
    """Raise a ConfigurationError naming `name` unless value is a finite real
    with low < value <= high (low <= value when low_inclusive), or a numpy
    array of them (empty passes; the message names the first that fails).

    Integers too large for a double count as non-finite. An array is only
    looked for once numpy is loaded: without numpy there can be none.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.ndarray):
        ok = np.isfinite(value) & (value <= high) & (value >= low if low_inclusive else value > low)
        if ok.all():
            return
        value = value[~ok].flat[0].item()
    try:
        ok = math.isfinite(value) and value <= high
        ok = ok and (low <= value if low_inclusive else low < value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        interval = f"{'[' if low_inclusive else '('}{low:g}, {high:g}{']' if high < math.inf else ')'}"
        raise ConfigurationError(f"{name} must be a finite number in {interval}, got {value!r}")


def check_integer(name, value, low, high=math.inf):
    """check_range for a count, low <= value <= high, that must also be an
    integer (``operator.index``: 4096.0 is refused); returns it as an int."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    check_range(name, value, low, high, low_inclusive=True)
    return value
