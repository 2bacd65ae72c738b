import math

import numpy as np
import pytest

from crdbounds.errors import ConfigurationError
from crdbounds.quadrature import (
    CumulativeTable,
    QuadratureError,
    build_cumulative,
    GL_NODES,
    integrate,
    interpolate,
)


def test_polynomial_is_exact():
    assert integrate(lambda x: x**2, 0.0, 1.0, 1e-10) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_inverse_sqrt_endpoint_singularity():
    # integrable singularity at the left endpoint; antiderivative 2 sqrt(x)
    value = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-8, max_panels=20000)
    assert value == pytest.approx(2.0, rel=1e-8)


def test_sine_half_period():
    assert integrate(np.sin, 0.0, math.pi, 1e-10) == pytest.approx(2.0, rel=1e-12)


def test_degenerate_interval_skips_integrand():
    def f(x):
        raise AssertionError("must not be evaluated")

    assert integrate(f, 2.5, 2.5, 1e-9) == 0.0


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError, match="out of order"):
        integrate(np.sin, 1.0, 0.0, 1e-9)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-9, 0.5])
def test_rel_tol_range_enforced(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        integrate(np.sin, 0.0, 1.0, rel_tol)


def test_nonfinite_integrand_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 1e-9)


def test_nonconvergence_carries_partial_estimate():
    with pytest.raises(QuadratureError) as excinfo:
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-12, max_panels=8)
    err = excinfo.value
    assert err.estimate == pytest.approx(2.0, rel=1e-2)
    assert err.achieved_rel_tol > 1e-12


def test_refinement_never_worsens_singular_integral():
    errors = []
    for rel_tol in (1e-4, 1e-6, 1e-8):
        value = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, rel_tol, max_panels=20000)
        errors.append(abs(value - 2.0) / 2.0)
    assert errors[1] <= errors[0] + 5e-16
    assert errors[2] <= errors[1] + 5e-16
    assert all(e <= tol for e, tol in zip(errors, (1e-4, 1e-6, 1e-8)))


def test_deterministic_repeat():
    f = lambda x: np.exp(-x) * np.sin(7.0 * x)
    first = integrate(f, 0.0, 5.0, 1e-11)
    second = integrate(f, 0.0, 5.0, 1e-11)
    assert first == second


def _read(table, xs):
    return [interpolate(table, float(x)) for x in xs]


def test_cumulative_constant():
    table = build_cumulative(lambda x: np.ones_like(x), [0.0, 1.0, 2.0])
    assert _read(table, [0.0, 1.0, 2.0]) == pytest.approx([0.0, 1.0, 2.0], rel=1e-13, abs=1e-15)


def test_cumulative_linear():
    table = build_cumulative(lambda x: 2.0 * x, [0.0, 1.0, 3.0])
    assert _read(table, [0.0, 1.0, 3.0]) == pytest.approx([0.0, 1.0, 9.0], rel=1e-13, abs=1e-15)


def test_cumulative_regularized_power_law():
    # int_0^x t^(-2/3) dt = 3 x^(1/3); after u = x^(1/3) the integrand is
    # 3 u^2 (u^3)^(-2/3) = 3, and panel endpoints are never evaluated
    grid = np.linspace(0.0, 1.0, 5)
    table = build_cumulative(lambda u: 3.0 * u * u * (u**3) ** (-2.0 / 3.0), grid)
    assert _read(table, grid[1:]) == pytest.approx(3.0 * (grid[1:] ** 3) ** (1.0 / 3.0), rel=1e-8)
    assert interpolate(table, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_cumulative_grid_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        build_cumulative(np.sin, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        build_cumulative(np.sin, [1.0])


def test_table_validation():
    with pytest.raises(ValueError, match="1-d array of length >= 2"):
        CumulativeTable(np.array([0.0]), np.zeros((0, 16)))
    with pytest.raises(ValueError, match="1-d array of length >= 2"):
        CumulativeTable(np.array([[0.0, 1.0]]), np.zeros((1, 16)))
    with pytest.raises(ValueError, match="strictly increasing"):
        CumulativeTable(np.array([0.0, 2.0, 1.0]), np.zeros((2, 16)))
    with pytest.raises(ValueError, match="match"):
        CumulativeTable(np.array([0.0, 1.0]), np.zeros((2, 16)))
    with pytest.raises(ValueError, match="shape"):
        CumulativeTable(np.array([0.0, 1.0]), np.zeros(16))


def test_table_is_immutable():
    table = CumulativeTable(np.array([0.0, 1.0]), np.zeros((1, 16)))
    with pytest.raises(ValueError):
        table.values[0, 0] = 5.0


def _nodes(table):
    lo, hi = table.edges[:-1, None], table.edges[1:, None]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * GL_NODES


def test_interpolate_exact_at_nodes():
    # exact to rounding: a node's panel coordinate is recomputed from x
    grid = np.geomspace(0.1, 10.0, 40)
    table = build_cumulative(lambda x: x**1.5, grid)
    nodes = _nodes(table)
    for p, j in ((0, 0), (7, 9), (38, 15)):
        assert interpolate(table, nodes[p, j]) == pytest.approx(table.values[p, j], rel=5e-16)


def test_interpolate_linear_midpoint():
    table = build_cumulative(lambda x: np.ones_like(x), [0.0, 1.0, 2.0])
    assert interpolate(table, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_interpolate_range_error_names_interval():
    table = build_cumulative(lambda x: np.ones_like(x), [0.0, 1.0])
    with pytest.raises(ValueError, match=r"\[0\.0, 1\.0\]"):
        interpolate(table, 1.5)


def test_interpolate_preserves_monotonicity():
    grid = np.linspace(0.0, 4.0, 30)
    table = build_cumulative(lambda x: np.exp(-((x - 2.0) ** 2) * 4.0), grid)
    dense = np.linspace(0.0, 4.0, 2000)
    values = _read(table, dense)
    assert np.all(np.diff(values) >= -1e-15 * values[-1])


def test_interpolate_with_exact_derivatives_is_high_order():
    # the running integral of cos from its exact values at the nodes: the
    # panel polynomials read sin to rounding
    grid = np.linspace(0.0, 1.4, 24)
    probe = np.linspace(0.0, 1.4, 331)
    table = build_cumulative(np.cos, grid)
    assert np.max(np.abs(_read(table, probe) - np.sin(probe))) < 1e-14


def test_exact_derivatives_reproduce_a_cubic():
    # the running integral of a cubic's exact derivative is the cubic, which
    # the panel polynomials hold exactly
    grid = np.array([-2.0, -1.3, -0.2, 0.4, 1.1, 2.0, 3.0])
    table = build_cumulative(lambda x: 3.0 * x**2 + 1.0, grid)
    probe = np.linspace(-2.0, 3.0, 1001)
    got = np.array(_read(table, probe)) + (-8.0 - 2.0 + 20.0)
    np.testing.assert_allclose(got, probe**3 + probe + 20.0, rtol=1e-14, atol=0.0)


def test_interpolate_exact_at_last_node_with_derivatives():
    # built from x^1.5, the exact derivative of its running integral: the last
    # node reads back to rounding, and the last edge gives the integral
    grid = np.geomspace(0.1, 10.0, 40)
    table = build_cumulative(lambda x: x**1.5, grid)
    last = _nodes(table)[-1, -1]
    assert interpolate(table, last) == pytest.approx(table.values[-1, -1], rel=5e-16)
    assert interpolate(table, grid[-1]) == pytest.approx((10.0**2.5 - 0.1**2.5) / 2.5, rel=1e-14)


@pytest.mark.parametrize("x", [math.nan, np.float32(math.nan)])
def test_interpolate_rejects_nan(x):
    table = build_cumulative(lambda x: np.ones_like(x), [0.0, 1.0])
    with pytest.raises(ValueError, match=r"\[0\.0, 1\.0\]"):
        interpolate(table, x)


def test_nonconvergence_message_names_the_acceptance_target():
    with pytest.raises(QuadratureError) as excinfo:
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-12, max_panels=8)
    message = str(excinfo.value)
    achieved = excinfo.value.achieved_rel_tol
    assert f"achieved relative tolerance {achieved:.3e}, needs 1.000e-13" in message
    assert "0.1 times the requested 1.000e-12" in message


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -math.inf])
def test_nonfinite_rel_tol_rejected(rel_tol):
    with pytest.raises(ConfigurationError, match="rel_tol"):
        integrate(np.sin, 0.0, 1.0, rel_tol)
