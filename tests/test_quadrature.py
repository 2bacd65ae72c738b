import math

import numpy as np
import pytest

from crdbounds.errors import ConfigurationError
from crdbounds.quadrature import (
    CumulativeTable,
    QuadratureError,
    build_cumulative,
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


def test_cumulative_constant():
    table = build_cumulative(lambda x: np.ones_like(x), [0.0, 1.0, 2.0], 1e-10)
    assert table.values == pytest.approx([0.0, 1.0, 2.0], rel=1e-13)


def test_cumulative_linear():
    table = build_cumulative(lambda x: 2.0 * x, [0.0, 1.0, 3.0], 1e-10)
    assert table.values == pytest.approx([0.0, 1.0, 9.0], rel=1e-13)


def test_cumulative_regularized_power_law():
    # int_0^x t^(-2/3) dt = 3 x^(1/3); after u = x^(1/3) the integrand is
    # 3 u^2 (u^3)^(-2/3) = 3, and panel endpoints are never evaluated
    grid = np.linspace(0.0, 1.0, 5)
    table = build_cumulative(lambda u: 3.0 * u * u * (u**3) ** (-2.0 / 3.0), grid, 1e-10)
    assert table.values[1:] == pytest.approx(3.0 * (grid[1:] ** 3) ** (1.0 / 3.0), rel=1e-8)
    assert table.values[0] == 0.0


def test_cumulative_propagates_failure_with_panel_index():
    def f(x):
        return 1.0 / np.sqrt(np.abs(x - 2.0))

    with pytest.raises(QuadratureError, match="panel 1"):
        build_cumulative(f, [0.0, 1.0, 2.0], 1e-10, max_panels=8)


def test_cumulative_grid_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        build_cumulative(np.sin, [0.0, 0.0, 1.0], 1e-9)
    with pytest.raises(ValueError, match="strictly increasing"):
        build_cumulative(np.sin, [1.0], 1e-9)


def test_table_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        CumulativeTable(np.array([0.0, 2.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="match"):
        CumulativeTable(np.array([0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="derivatives"):
        CumulativeTable(np.array([0.0, 1.0]), np.zeros(2), np.zeros(3))


def test_table_is_immutable():
    table = CumulativeTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        table.values[0] = 5.0


def test_interpolate_exact_at_nodes():
    grid = np.geomspace(0.1, 10.0, 40)
    table = build_cumulative(lambda x: x**1.5, grid, 1e-10)
    for i in (0, 7, 39):
        assert interpolate(table, grid[i]) == table.values[i]


def test_interpolate_linear_midpoint():
    table = CumulativeTable(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
    assert interpolate(table, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_interpolate_range_error_names_interval():
    table = CumulativeTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match=r"\[0\.0, 1\.0\]"):
        interpolate(table, 1.5)


def test_interpolate_preserves_monotonicity():
    grid = np.linspace(0.0, 4.0, 30)
    table = build_cumulative(lambda x: np.exp(-((x - 2.0) ** 2) * 4.0), grid, 1e-10)
    dense = np.linspace(0.0, 4.0, 2000)
    values = interpolate(table, dense)
    assert np.all(np.diff(values) >= -1e-15 * values[-1])


def test_interpolate_with_exact_derivatives_is_high_order():
    # running integral of cos: sin(x); supplying the exact nodal slopes must
    # beat the slope-estimating fallback by well over an order of magnitude
    grid = np.linspace(0.0, 1.4, 24)
    probe = np.linspace(0.0, 1.4, 331)
    with_derivs = build_cumulative(np.cos, grid, 1e-12, node_derivatives=np.cos(grid))
    without = build_cumulative(np.cos, grid, 1e-12)
    err_with = np.max(np.abs(interpolate(with_derivs, probe) - np.sin(probe)))
    err_without = np.max(np.abs(interpolate(without, probe) - np.sin(probe)))
    assert err_with < 1e-7  # two-point Hermite bound f''''h^4/384 at h = 1.4/23
    assert err_with < err_without / 10.0


def test_interpolate_vectorized_matches_scalar():
    grid = np.linspace(0.0, 2.0, 9)
    table = build_cumulative(lambda x: 1.0 + x**2, grid, 1e-10)
    xs = np.array([0.0, 0.3, 1.0, 1.99, 2.0])
    vector = interpolate(table, xs)
    assert vector.tolist() == [interpolate(table, float(x)) for x in xs]


def test_exact_derivatives_reproduce_a_cubic():
    # cubic Hermite interpolation with exact nodal values and slopes is exact
    # for a cubic; this one is increasing, so no slope is clamped
    grid = np.array([-2.0, -1.3, -0.2, 0.4, 1.1, 2.0, 3.0])
    table = CumulativeTable(grid, grid**3 + grid + 20.0, 3.0 * grid**2 + 1.0)
    probe = np.linspace(-2.0, 3.0, 1001)
    np.testing.assert_allclose(interpolate(table, probe), probe**3 + probe + 20.0, rtol=1e-14, atol=0.0)


def test_fused_rows_match_scalar_builds():
    # the sqrt row needs the adaptive fallback on its first panel
    rows = [np.cos, lambda x: np.exp(-x), lambda x: x * x, np.sqrt]
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 2.0, 12)])
    derivs = np.array([f(grid) for f in rows])
    fused = build_cumulative(
        lambda x: np.stack([f(x) for f in rows]), grid, 1e-10, node_derivatives=derivs
    )
    assert isinstance(fused, tuple) and len(fused) == len(rows)
    probe = np.linspace(0.0, 2.0, 257)
    for f, d, table in zip(rows, derivs, fused):
        single = build_cumulative(f, grid, 1e-10, node_derivatives=d)
        np.testing.assert_allclose(table.values, single.values, rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(table.derivatives, d)
        np.testing.assert_allclose(
            interpolate(table, probe), interpolate(single, probe), rtol=1e-15, atol=0.0
        )


def test_interpolate_exact_at_last_node_with_derivatives():
    grid = np.geomspace(0.1, 10.0, 40)
    table = build_cumulative(lambda x: x**1.5, grid, 1e-10, node_derivatives=grid**1.5)
    assert interpolate(table, grid[-1]) == table.values[-1]
    nodes = grid[[0, 7, 38, 39]]
    assert interpolate(table, nodes).tolist() == table.values[[0, 7, 38, 39]].tolist()


def test_interpolate_stays_within_each_interval_for_nonmonotone_data():
    # supplied slopes are clamped node by node, so every interval's cubic is
    # monotone even where the data turn around
    grid = np.linspace(0.0, 7.0, 15)
    table = CumulativeTable(grid, np.sin(grid), np.cos(grid))
    probe = np.linspace(0.0, 7.0, 3001)
    values = interpolate(table, probe)
    i = np.minimum(np.searchsorted(grid, probe, side="right") - 1, grid.size - 2)
    low = np.minimum(table.values[i], table.values[i + 1])
    high = np.maximum(table.values[i], table.values[i + 1])
    assert np.all(values >= low) and np.all(values <= high)


@pytest.mark.parametrize("x", [math.nan, np.array([0.5, math.nan])])
def test_interpolate_rejects_nan(x):
    table = CumulativeTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
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
