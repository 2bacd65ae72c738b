"""`scale_factor` on a float returns a Python float from its 0-d array
path, and the lookups read the panel polynomial through the stored node
values."""

import numpy as np
import pytest
from numpy.polynomial import legendre

from crdbounds import cosmology as cz
from crdbounds.cosmology import scale_factor
from crdbounds.quadrature import GL_NODES
from crdbounds.quantities import SPEED_OF_LIGHT


@pytest.fixture(params=["fiducial_tables", "eds_tables"])
def tables(request):
    return request.getfixturevalue(request.param)


def test_scalar_scale_factor_matches_zero_d_array_path(tables):
    """A float takes the 0-d array path and comes back a Python float."""
    params = tables.params
    for t in (1e-30, 1e-6, 0.5, 1.0):
        t *= params.t_universe
        a = scale_factor(t, params)
        assert type(a) is float
        assert a == float(scale_factor(np.asarray(t), params))
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
