"""v4_rate finds its node once for the four tables it reads, and gives the
same doubles as four separate scalar interpolate calls."""

import numpy as np
import pytest

from crdbounds import cosmology as cz
from crdbounds.cosmology import CosmologyParams, build_tables, scale_factor
from crdbounds.quadrature import interpolate, interpolate_shared

PROBES = 5_000


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _v4_rate_four_calls(t2, tables):
    """The lookup as it was assembled before: one interpolate (one node
    search) per table."""
    u = cz._checked_u(t2, tables, "t2")
    u2 = tables.v4.abscissae[2]
    if u < u2:
        return float(tables.v4.derivatives[2] / (3.0 * u2 * u2) * (u / u2) ** 9)
    e = float(interpolate(tables.eta, u))
    m0, m1, m2 = (float(interpolate(m, u)) for m in tables.moments[:3])
    return cz._v4_rate(e, m0, m1, m2, scale_factor(u**3, tables.params))


@pytest.fixture(scope="module")
def drawn_tables():
    rng = np.random.default_rng(2026)
    omega_m = float(rng.uniform(0.15, 0.95))
    return build_tables(CosmologyParams.create(float(rng.uniform(50.0, 90.0)), omega_m, 1.0 - omega_m))


@pytest.fixture(params=["fiducial_tables", "eds_tables", "drawn_tables"])
def tables(request):
    return request.getfixturevalue(request.param)


def test_eta_and_moments_share_one_grid(tables):
    for m in tables.moments:
        assert np.array_equal(m.abscissae, tables.eta.abscissae)


def test_shared_grid_at_higher_resolution(eds_params):
    tables = build_tables(eds_params, grid_points=5000)
    for m in tables.moments:
        assert np.array_equal(m.abscissae, tables.eta.abscissae)


def test_shared_lookup_matches_interpolate_at_every_node(tables):
    group = (tables.eta, *tables.moments[:3])
    for x in tables.eta.abscissae.tolist():
        assert _bits(interpolate_shared(group, x)).tolist() == _bits([interpolate(t, x) for t in group]).tolist()


def test_v4_rate_at_every_node(tables):
    ts = [u**3 for u in tables.eta.abscissae.tolist()] + [tables.params.t_universe]
    got = [cz.v4_rate(t, tables) for t in ts]
    assert all(type(v) is float for v in got)
    assert np.array_equal(_bits(got), _bits([_v4_rate_four_calls(t, tables) for t in ts]))


def test_v4_rate_at_random_times(tables):
    rng = np.random.default_rng(7)
    t_u = tables.params.t_universe
    half = PROBES // 2
    ts = np.concatenate([rng.uniform(0.0, t_u, half), t_u * 10.0 ** rng.uniform(-24.0, 0.0, PROBES - half)])
    ts = ts.tolist()
    assert np.array_equal(_bits([cz.v4_rate(t, tables) for t in ts]), _bits([_v4_rate_four_calls(t, tables) for t in ts]))


@pytest.mark.parametrize("x", [-1e-300, float("nan"), float("inf")])
def test_shared_lookup_rejects_points_off_the_grid(fiducial_tables, x):
    with pytest.raises(ValueError, match="out of range"):
        interpolate_shared((fiducial_tables.eta, fiducial_tables.moments[0]), x)
