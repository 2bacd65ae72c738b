"""The scalar branches of `interpolate` and `scale_factor` give the array
path's results to the last bit, and so do the lookups built on them."""

import numpy as np
import pytest

from crdbounds import cosmology as cz
from crdbounds.cosmology import CosmologyParams, build_tables, scale_factor
from crdbounds.quadrature import interpolate
from crdbounds.quantities import SPEED_OF_LIGHT

# random probes per table: 10,200 per cosmology over its six tables
PROBES = 1_700


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _all_tables(tables):
    return [tables.eta, tables.v4, *tables.moments]


@pytest.fixture(params=["fiducial_tables", "eds_tables"])
def tables(request):
    return request.getfixturevalue(request.param)


def _probes(table, seed, count=PROBES):
    """Every node, then count draws: half uniform over the table's range,
    half log-uniform above node 1, where the log-spaced nodes are dense."""
    nodes = table.abscissae
    lo, hi, half = nodes[1], nodes[-1], count // 2
    rng = np.random.default_rng(seed)
    draws = [rng.uniform(nodes[0], hi, half), lo * (hi / lo) ** rng.random(count - half)]
    return np.minimum(np.concatenate([nodes, *draws]), hi).tolist()


@pytest.mark.parametrize("which", range(6), ids=["eta", "v4", "m0", "m1", "m2", "m3"])
def test_scalar_interpolate_matches_one_element_array_path(tables, which):
    table = _all_tables(tables)[which]
    xs = _probes(table, seed=which)
    scalar = [interpolate(table, x) for x in xs]
    assert all(type(v) is float for v in scalar)
    one_element = [interpolate(table, np.array([x]))[0] for x in xs]
    assert np.array_equal(_bits(scalar), _bits(one_element))
    # np.float64 subclasses float and takes the same branch
    assert np.array_equal(_bits([interpolate(table, np.float64(x)) for x in xs[:500]]), _bits(scalar[:500]))


def test_scalar_scale_factor_matches_zero_d_array_path(tables):
    """The reference is a 0-d array, the path a scalar took before it had its
    own branch. A 1-element array is not: numpy's vector pow can differ from
    its scalar pow in the last bit."""
    params = tables.params
    ts = [u**3 for u in _probes(tables.eta, seed=6, count=10_000)]
    scalar = [scale_factor(t, params) for t in ts]
    assert np.array_equal(_bits(scalar), _bits([scale_factor(np.asarray(t), params) for t in ts]))
    assert scale_factor(0, params) == 0.0
    with pytest.raises(ValueError, match="t >= 0"):
        scale_factor(-1.0, params)


def test_lookups_match_their_array_assembly(tables):
    """v4, v4_rate and comoving_distance, above the early-time power laws,
    equal the same formulas assembled from 0-d array interpolate calls."""
    params, eta = tables.params, tables.eta
    u2 = float(tables.v4.abscissae[2])
    rng = np.random.default_rng(7)
    t_lo, t_u = u2**3, params.t_universe
    ts = np.concatenate([t_lo * (t_u / t_lo) ** rng.random(500), [t_u]]).tolist()

    def lookup(table, u):
        return interpolate(table, np.asarray(u))

    for t in ts:
        u = cz._checked_u(t, tables)
        assert cz.v4(t, tables) == lookup(tables.v4, u)
        m0, m1, m2 = (lookup(m, u) for m in tables.moments[:3])
        a = scale_factor(np.asarray(u**3), params)
        assert cz.v4_rate(t, tables) == cz._v4_rate(lookup(eta, u), m0, m1, m2, a)
        t1 = 0.5 * t
        u1 = cz._checked_u(t1, tables)
        expected = SPEED_OF_LIGHT * float(lookup(eta, u) - lookup(eta, u1))
        assert cz.comoving_distance(t1, t, tables) == expected


def test_scalar_rows_are_built_on_the_first_scalar_lookup():
    small = build_tables(CosmologyParams.create(70.0, 0.3, 0.7), grid_points=16)
    assert all("_scalar_rows" not in vars(table) for table in _all_tables(small))
    interpolate(small.eta, np.array([1.0]))
    assert "_scalar_rows" not in vars(small.eta)
    value = interpolate(small.eta, 1.0)
    nodes = vars(small.eta)["_scalar_rows"][0]
    assert nodes == small.eta.abscissae.tolist()
    assert value == interpolate(small.eta, np.asarray(1.0))
