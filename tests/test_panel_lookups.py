"""The lookups read eta, V4 and dV4/dt at the Gauss nodes of geometric
panels: matter-only closed forms to 1e-12 from 1e-26 T_U to T_U, exactly 0
at t = 0, and the default grid within 1e-12 of 8 times the panels."""

import numpy as np
import pytest

import oracles
from crdbounds.cosmology import build_tables, comoving_distance, v4, v4_rate
from crdbounds.quantities import SPEED_OF_LIGHT as C


def _times(params, count=200):
    rng = np.random.default_rng(26)
    return (params.t_universe * 10.0 ** rng.uniform(-26.0, 0.0, count)).tolist()


def test_matter_only_lookups_meet_the_closed_forms(eds_tables, eds_params):
    t_u = eds_params.t_universe
    for t in _times(eds_params):
        assert v4(t, eds_tables) == pytest.approx(float(oracles.eds_v4(t, C)), rel=1e-12)
        assert v4_rate(t, eds_tables) == pytest.approx(float(oracles.eds_v4_rate(t, C)), rel=1e-12)
        expected = float(oracles.eds_comoving_distance(0.0, t, t_u, C))
        assert comoving_distance(0.0, t, eds_tables) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("which", ["fiducial_tables", "eds_tables"])
def test_exactly_zero_at_the_big_bang(request, which):
    tables = request.getfixturevalue(which)
    assert v4(0.0, tables) == v4_rate(0.0, tables) == comoving_distance(0.0, 0.0, tables) == 0.0


def test_default_grid_meets_eight_times_the_panels(fiducial_tables, fiducial_params):
    fine = build_tables(fiducial_params, grid_points=8 * 4096)
    for t in _times(fiducial_params):
        for lookup in (v4, v4_rate):
            assert lookup(t, fiducial_tables) == pytest.approx(lookup(t, fine), rel=1e-12)
        expected = comoving_distance(0.5 * t, t, fine)
        assert comoving_distance(0.5 * t, t, fiducial_tables) == pytest.approx(expected, rel=1e-12)
