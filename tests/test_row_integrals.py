"""integrate with an integrand that returns R rows: one adaptive pass, the
tolerance held in the max norm over rows, and the one-row doubles unchanged."""

import numpy as np
import pytest

from crdbounds.quadrature import QuadratureError, integrate

# rows of one scale, one with an integrable endpoint singularity
ROWS = [
    np.cos,
    lambda x: 2.0 * np.exp(-x),
    lambda x: x * x,
    lambda x: 1.0 / np.sqrt(x),
    lambda x: np.sin(40.0 * x) + 1.5,
]


def _stacked(rows):
    return lambda x: np.stack([f(x) for f in rows])


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
def test_each_row_agrees_with_that_row_alone(rel_tol):
    fused = integrate(_stacked(ROWS), 0.0, 2.0, rel_tol)
    assert isinstance(fused, np.ndarray) and fused.shape == (len(ROWS),)
    for f, value in zip(ROWS, fused):
        alone = integrate(f, 0.0, 2.0, rel_tol)
        assert abs(value - alone) <= rel_tol * abs(alone)


def test_a_small_row_is_held_to_the_largest_rows_scale():
    # the second row is 1e-8 of the first; its error is judged against the first
    big, small = (lambda x: np.sin(40.0 * x) + 1.5), (lambda x: 1e-8 * np.sin(40.0 * x))
    exact_small = 1e-8 * (1.0 - np.cos(80.0)) / 40.0
    fused = integrate(_stacked([big, small]), 0.0, 2.0, 1e-9)
    assert abs(fused[1] - exact_small) <= 1e-9 * abs(fused[0])


@pytest.mark.parametrize("f", ROWS, ids=["cos", "exp", "square", "inv-sqrt", "sin"])
@pytest.mark.parametrize("copies", [1, 3])
def test_copies_of_one_row_keep_its_doubles(f, copies):
    alone = integrate(f, 0.0, 2.0, 1e-10)
    assert type(alone) is float
    fused = integrate(_stacked([f] * copies), 0.0, 2.0, 1e-10)
    assert fused.tolist() == [alone] * copies


def test_rows_are_exact_for_polynomials():
    got = integrate(_stacked([np.ones_like, lambda x: x, lambda x: x**3]), 0.0, 2.0, 1e-12)
    np.testing.assert_allclose(got, [2.0, 2.0, 4.0], rtol=1e-14, atol=0.0)


def test_degenerate_interval_is_zero():
    assert integrate(_stacked(ROWS), 1.0, 1.0, 1e-9) == 0.0


def test_nonconvergence_carries_every_row():
    with pytest.raises(QuadratureError) as excinfo:
        integrate(_stacked([np.cos, lambda x: 1.0 / np.sqrt(x)]), 0.0, 1.0, 1e-12, max_panels=8)
    err = excinfo.value
    assert err.estimate == pytest.approx([np.sin(1.0), 2.0], rel=1e-2)
    assert err.achieved_rel_tol > 1e-12
    assert f"estimate {err.estimate!r}" in str(err)


def test_nonfinite_row_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        integrate(_stacked([np.cos, lambda x: np.full_like(x, np.inf)]), 0.0, 1.0, 1e-9)
