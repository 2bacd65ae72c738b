"""Cross-module property tests (hypothesis where randomness helps)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdbounds.bounds import Scenario, length_for_scenario, max_length, n_ops_for_scenario
from crdbounds.cosmology import comoving_distance, scale_factor
from crdbounds.quadrature import build_cumulative, integrate, interpolate
from crdbounds.quantities import LogQuantity


@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=8),
    st.floats(min_value=-2.0, max_value=1.0),
    st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_polynomials_integrate_to_antiderivative(coeffs, a, width):
    b = a + width
    poly = np.polynomial.Polynomial(coeffs)
    anti = poly.integ()
    expected = anti(b) - anti(a)
    got = integrate(poly, a, b, 1e-12)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=3, max_size=12),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_interpolation_brackets_node_values(coefficients, frac):
    # the running integral of any positive polynomial: the value read between
    # two edges stays inside the values read at them
    x = np.arange(len(coefficients) + 1.0)
    table = build_cumulative(np.polynomial.Polynomial(coefficients), x)
    probe = x[0] + frac * (x[-1] - x[0])
    i = min(int(probe), len(coefficients) - 1)
    low, value, high = (interpolate(table, v) for v in (x[i], probe, x[i + 1]))
    slack = 1e-13 * high
    assert low - slack <= value <= high + slack


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1.0, max_value=1e9),
    st.floats(min_value=-120.0, max_value=520.0),
)
@settings(max_examples=60, deadline=None)
def test_lab_bound_round_trip(v3, duration, log2_n):
    scenario = Scenario.lab(v3, duration)
    n_ops = LogQuantity(log2_n)
    length = length_for_scenario(scenario, n_ops)
    assert length == max_length(v3, duration, n_ops)
    back = n_ops_for_scenario(scenario, length)
    assert back.log2_value == pytest.approx(log2_n, abs=1e-9)


@given(st.floats(min_value=-600.0, max_value=1700.0))
@settings(max_examples=80, deadline=None)
def test_notation_strings_parse_back(log2_value):
    q = LogQuantity(log2_value)
    mantissa, exponent = q.decimal_str().split(" × 10^")
    assert 1.0 <= float(mantissa) < 10.0
    approx_log2 = (math.log10(float(mantissa)) + int(exponent)) / math.log10(2.0)
    assert approx_log2 == pytest.approx(log2_value, abs=2e-3)
    k, n = q.pow2_str().split(" × 2^")
    assert 1.0 <= float(k) < 2.0
    # 3 significant digits on k admit up to 0.005/ln(2) in log2
    assert math.log2(float(k)) + int(n) == pytest.approx(log2_value, abs=8e-3)


@given(st.floats(min_value=1e-8, max_value=1.0), st.floats(min_value=1e-8, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_scale_factor_monotone(frac_a, frac_b):
    from crdbounds.cosmology import CosmologyParams

    params = CosmologyParams.create(70.0, 0.3, 0.7)
    t1, t2 = sorted((frac_a * params.t_universe, frac_b * params.t_universe))
    if t1 == t2:
        return
    assert scale_factor(t1, params) < scale_factor(t2, params)


def test_distance_additivity_random_triples(fiducial_tables, fiducial_params):
    rng = np.random.default_rng(5)
    t_u = fiducial_params.t_universe
    for _ in range(25):
        t1, t2, t3 = np.sort(rng.uniform(0.0, t_u, 3))
        whole = comoving_distance(t1, t3, fiducial_tables)
        split = comoving_distance(t1, t2, fiducial_tables) + comoving_distance(
            t2, t3, fiducial_tables
        )
        assert split == pytest.approx(whole, rel=1e-9, abs=1e-3)
