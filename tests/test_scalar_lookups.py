"""`scale_factor` on a float gives its array path's results to the last
bit, and the lookups read the panel polynomial through the stored node
values."""

import numpy as np
import pytest
from numpy.polynomial import legendre

from crdbounds import cosmology as cz
from crdbounds.cosmology import scale_factor
from crdbounds.quadrature import GL_NODES
from crdbounds.quantities import SPEED_OF_LIGHT

def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.fixture(params=["fiducial_tables", "eds_tables"])
def tables(request):
    return request.getfixturevalue(request.param)


def _probes(table, seed, count):
    """Every edge, then count draws: half uniform over the table's range,
    half log-uniform, where the geometric panels are dense."""
    edges = table.edges
    lo, hi, half = edges[0], edges[-1], count // 2
    rng = np.random.default_rng(seed)
    draws = [rng.uniform(lo, hi, half), lo * (hi / lo) ** rng.random(count - half)]
    return np.clip(np.concatenate([edges, *draws]), lo, hi).tolist()


def test_scalar_scale_factor_matches_zero_d_array_path(tables):
    """The reference is a 0-d array, the path a float takes inside. A
    1-element array is not: numpy's vector pow can differ from its scalar
    pow in the last bit."""
    params = tables.params
    ts = [x**3 / params.h0 for x in _probes(tables.eta, seed=6, count=10_000)]
    scalar = [scale_factor(t, params) for t in ts]
    assert np.array_equal(_bits(scalar), _bits([scale_factor(np.asarray(t), params) for t in ts]))
    assert scale_factor(0, params) == 0.0
    with pytest.raises(ValueError, match="t >= 0"):
        scale_factor(-1.0, params)


def test_lookups_match_their_array_assembly(tables):
    """v4, v4_rate and comoving_distance, above the early-time power laws,
    equal the degree-15 polynomial through the panel's 16 stored values,
    assembled here with numpy's Legendre fit."""
    params = tables.params
    rng = np.random.default_rng(7)
    t_lo, t_u = tables.x_first**3 / params.h0, params.t_universe
    ts = np.concatenate([t_lo * (t_u / t_lo) ** rng.random(300), [t_u]]).tolist()

    def assembled(table, x):
        edges = table.edges
        p = min(np.searchsorted(edges, x, side="right"), edges.size - 1) - 1
        lo, hi = edges[p], edges[p + 1]
        fit = legendre.legfit(GL_NODES, table.values[p], 15)
        return float(legendre.legval((2.0 * x - lo - hi) / (hi - lo), fit))

    for t in ts:
        x = cz._checked_x(t, tables)
        assert cz.v4(t, tables) == pytest.approx(assembled(tables.v4, x), rel=1e-13)
        assert cz.v4_rate(t, tables) == pytest.approx(assembled(tables.rate, x), rel=1e-13)
        x1 = cz._checked_x(0.5 * t, tables)
        if x1 >= tables.x_first:
            expected = SPEED_OF_LIGHT * (assembled(tables.eta, x) - assembled(tables.eta, x1))
            assert cz.comoving_distance(0.5 * t, t, tables) == pytest.approx(expected, rel=1e-12)
