"""One input check: every number a caller hands the library goes through
errors.check_range, so 0, -1, +-inf and NaN are ConfigurationErrors wherever
a positive finite value is required, and +-inf and NaN wherever any finite
value is. Lengths and operation counts are checked element by element, as a
float or as an array."""

import math
import re

import numpy as np
import pytest

from crdbounds.bounds import (
    Scenario,
    ScenarioKind,
    crd,
    energy_from_length,
    length_for_scenario,
    max_length,
    n_ops_for_scenario,
)
from crdbounds.cosmology import build_tables, scale_factor
from crdbounds.errors import ConfigurationError, check_range
from crdbounds.figure import Annotation
from crdbounds.laws import _H0_MAX, CosmologyParams
from crdbounds.quadrature import CumulativeTable, build_cumulative, integrate
from crdbounds.quantities import SPEED_OF_LIGHT, LogQuantity, planck_units

NOT_POSITIVE_FINITE = [0.0, -1.0, math.inf, -math.inf, math.nan]
NOT_FINITE = [math.inf, -math.inf, math.nan]
LAB = Scenario.lab(1.0, 1.0)

# entry point -> (call taking the bad value, the bad values it must reject)
ENTRY_POINTS = {
    "LogQuantity.from_real": (LogQuantity.from_real, NOT_POSITIVE_FINITE),
    "planck_units c": (lambda x: planck_units(c=x), NOT_POSITIVE_FINITE),
    "planck_units hbar": (lambda x: planck_units(hbar=x), NOT_POSITIVE_FINITE),
    "planck_units G": (lambda x: planck_units(G=x), NOT_POSITIVE_FINITE),
    "crd volume": (lambda x: crd(LogQuantity(10.0), x, 1.0), NOT_POSITIVE_FINITE),
    "crd duration": (lambda x: crd(LogQuantity(10.0), 1.0, x), NOT_POSITIVE_FINITE),
    "Annotation log2_neo": (lambda x: Annotation("a", "b", log2_neo=x), NOT_FINITE),
    "Annotation energy_ev": (lambda x: Annotation("a", "b", energy_ev=x), NOT_POSITIVE_FINITE),
    "n_ops_for_scenario float": (lambda x: n_ops_for_scenario(LAB, x), NOT_POSITIVE_FINITE),
    "n_ops_for_scenario array": (
        lambda x: n_ops_for_scenario(LAB, np.array([1e-20, x, 2e-20])),
        NOT_POSITIVE_FINITE,
    ),
    "energy_from_length float": (energy_from_length, NOT_POSITIVE_FINITE),
    "energy_from_length array": (
        lambda x: energy_from_length(np.array([[1e-20], [x]])),
        NOT_POSITIVE_FINITE,
    ),
    "length_for_scenario float": (lambda x: length_for_scenario(LAB, LogQuantity(x)), NOT_FINITE),
    "length_for_scenario array": (
        lambda x: length_for_scenario(LAB, LogQuantity(np.array([10.0, x]))),
        NOT_FINITE,
    ),
    "max_length operation count": (lambda x: max_length(1.0, 1.0, LogQuantity(x)), NOT_FINITE),
    "CumulativeTable values": (lambda x: CumulativeTable([0.0, 1.0], [[0.0] * 15 + [x]]), NOT_FINITE),
    # a NaN edge fails the ordering check, whose message comes first
    "CumulativeTable last node": (lambda x: CumulativeTable([0.0, 1.0, x], np.zeros((2, 16))), [math.inf]),
    "CumulativeTable first node": (lambda x: CumulativeTable([x, 0.0, 1.0], np.zeros((2, 16))), [-math.inf]),
    "integrate lower bound": (lambda x: integrate(np.cos, x, 1.0), NOT_FINITE),
    "integrate upper bound": (lambda x: integrate(np.cos, 0.0, x), NOT_FINITE),
    "build_cumulative last node": (lambda x: build_cumulative(np.cos, [0.0, 1.0, x]), [math.inf]),
}
CASES = [
    pytest.param(call, bad, id=f"{name}-{bad!r}")
    for name, (call, bads) in ENTRY_POINTS.items()
    for bad in bads
]


@pytest.mark.parametrize("call, bad", CASES)
def test_bad_number_is_a_configuration_error(call, bad):
    # check_range's wording, naming the first element that fails
    with pytest.raises(ConfigurationError, match=rf"must be a finite number in .*, got {re.escape(repr(bad))}$"):
        call(bad)


def test_empty_arrays_pass():
    empty = np.array([])
    assert n_ops_for_scenario(LAB, empty).log2_value.shape == (0,)
    assert energy_from_length(empty).shape == (0,)
    assert length_for_scenario(LAB, LogQuantity(empty)).shape == (0,)


def test_array_check_reports_the_first_failing_element():
    with pytest.raises(ConfigurationError, match=r"got -1\.0$"):
        check_range("x", np.array([[1.0, -1.0], [math.nan, 0.0]]))
    with pytest.raises(ConfigurationError, match=r"x must be a finite number in \[1, 8\], got 9\.0$"):
        check_range("x", np.array([1.0, 8.0, 9.0]), 1.0, 8.0, low_inclusive=True)
    check_range("x", np.array([1.0, 8.0]), 1.0, 8.0, low_inclusive=True)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": ScenarioKind.LAB, "v3": 1.0, "duration": 1.0, "params": "cosmology"},
        {"kind": ScenarioKind.UNIVERSE},
        {"kind": ScenarioKind.UNIVERSE, "v3": 1.0, "params": "cosmology"},
        {"kind": ScenarioKind.LAB, "v3": 1.0, "duration": 1.0, "inputs_per_op": 8},
    ],
)
def test_scenario_wiring_errors_are_configuration_errors(kwargs, fiducial_params):
    if kwargs.get("params") == "cosmology":
        kwargs = {**kwargs, "params": fiducial_params}
    with pytest.raises(ConfigurationError, match="does not take|requires"):
        Scenario(**kwargs)


def test_cumulative_table_shape_and_order_messages_come_first():
    with pytest.raises(ValueError, match="match the edges") as shape:
        CumulativeTable([0.0, 1.0], [[0.0, math.inf, 1.0]])
    with pytest.raises(ValueError, match="strictly increasing") as order:
        CumulativeTable([0.0, math.nan], np.zeros((1, 16)))
    assert not isinstance(shape.value, ConfigurationError)
    assert not isinstance(order.value, ConfigurationError)


@pytest.mark.parametrize("kwargs", [{"hbar": 1e300, "G": 1e300}, {"c": 1e-110}], ids=str)
def test_planck_units_out_of_double_range_are_configuration_errors(kwargs):
    # finite inputs whose l_p overflows, or whose c^3 underflows to 0
    with pytest.raises(ConfigurationError, match="the Planck units leave double range"):
        planck_units(**kwargs)


@pytest.mark.parametrize("t", [math.nan, np.array([1.0, math.nan])])
def test_scale_factor_rejects_nan_time(fiducial_params, t):
    with pytest.raises(ValueError, match="t >= 0"):
        scale_factor(t, fiducial_params)


@pytest.mark.parametrize("h0", [SPEED_OF_LIGHT / _H0_MAX, _H0_MAX])
@pytest.mark.parametrize("omegas", [(0.3, 0.7), (1.0, 0.0)])
def test_accepted_cli_extremes_build_finite_tables(h0, omegas):
    # the H0 range ends and the Omega values the CLI property test draws
    # build tables whose edges and values all pass the check
    tables = build_tables(CosmologyParams(h0, *omegas), grid_points=16)
    assert all(math.isfinite(v) for v in tables.log2_k.values())
