"""eta and the moment tables share one set of panel edges: v4 holds the
centered moment C_3 and rate C_2 / a, scaled. v4_rate reads its stored
values, at every node and between them."""

import numpy as np
import pytest

from crdbounds import cosmology as cz
from crdbounds.cosmology import CosmologyParams, build_tables
from crdbounds.quadrature import GL_NODES, interpolate

PROBES = 5_000


@pytest.fixture(scope="module")
def drawn_tables():
    rng = np.random.default_rng(2026)
    omega_m = float(rng.uniform(0.15, 0.95))
    return build_tables(CosmologyParams.create(float(rng.uniform(50.0, 90.0)), omega_m, 1.0 - omega_m))


@pytest.fixture(params=["fiducial_tables", "eds_tables", "drawn_tables"])
def tables(request):
    return request.getfixturevalue(request.param)


def _nodes(table):
    lo, hi = table.edges[:-1, None], table.edges[1:, None]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * GL_NODES


def test_eta_and_moments_share_one_grid(tables):
    for table in (tables.v4, tables.rate):
        assert np.array_equal(table.edges, tables.eta.edges)


def test_shared_grid_at_higher_resolution(eds_params):
    tables = build_tables(eds_params, grid_points=5008)
    assert tables.eta.values.shape == (5008 // 16, 16)
    for table in (tables.v4, tables.rate):
        assert np.array_equal(table.edges, tables.eta.edges)


def test_shared_lookup_matches_interpolate_at_every_node(tables):
    # above the first node, v4 and v4_rate read their tables at x = (H0 t)^(1/3)
    h0 = tables.params.h0
    for x in _nodes(tables.eta).ravel().tolist()[1:]:
        t = x**3 / h0
        x_t = cz._checked_x(t, tables)
        assert cz.v4(t, tables) == interpolate(tables.v4, x_t)
        assert cz.v4_rate(t, tables) == interpolate(tables.rate, x_t)


def test_v4_rate_at_every_node(tables):
    # t = x^3 / H0 and x = (H0 t)^(1/3) round, and the rate varies up to
    # x^9, so the node is read back to within a few dozen ulps
    h0 = tables.params.h0
    xs = _nodes(tables.rate).ravel().tolist()
    got = [cz.v4_rate(x**3 / h0, tables) for x in xs]
    assert all(type(v) is float for v in got)
    np.testing.assert_allclose(got, tables.rate.values.ravel(), rtol=3e-14, atol=0.0)


def test_v4_rate_at_random_times(tables):
    # against the same cosmology on 8 times the panels
    fine = build_tables(tables.params, grid_points=8 * 4096)
    rng = np.random.default_rng(7)
    t_u = tables.params.t_universe
    half = PROBES // 2
    ts = np.concatenate([rng.uniform(0.0, t_u, half), t_u * 10.0 ** rng.uniform(-24.0, 0.0, PROBES - half)])
    got = [cz.v4_rate(t, tables) for t in ts.tolist()]
    np.testing.assert_allclose(got, [cz.v4_rate(t, fine) for t in ts.tolist()], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("x", [-1e-300, float("nan"), float("inf")])
def test_shared_lookup_rejects_points_off_the_grid(fiducial_tables, x):
    for table in (fiducial_tables.eta, fiducial_tables.v4, fiducial_tables.rate):
        with pytest.raises(ValueError, match="out of range"):
            interpolate(table, x)
