"""build_cumulative's batched pass gives the same doubles as one batch."""

import numpy as np
import pytest

from crdbounds import quadrature
from crdbounds.cosmology import CosmologyParams, build_tables

_ONE_BATCH = 1 << 30


def _arrays(tables):
    out = []
    for t in (tables.eta, tables.v4) + tables.moments:
        out += [t.abscissae, t.values, t.derivatives, t._coefficients]
    return out


def _assert_batches_match_one_batch(monkeypatch, params, grid_points, batch):
    if batch is not None:
        monkeypatch.setattr(quadrature, "_BATCH_PANELS", batch)
    batched = build_tables(params, grid_points=grid_points)
    monkeypatch.setattr(quadrature, "_BATCH_PANELS", _ONE_BATCH)
    one = build_tables(params, grid_points=grid_points)
    assert (batched.k4u, batched.k7u, batched.k8u) == (one.k4u, one.k7u, one.k8u)
    assert batched.log2_k == one.log2_k
    for x, y in zip(_arrays(batched), _arrays(one), strict=True):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("omega_m", [0.3, 1.0])
@pytest.mark.parametrize("grid_points, batch", [(16384, 8192), (32768, None), (32768, 8192)])
def test_large_tables_match_one_batch(monkeypatch, omega_m, grid_points, batch):
    params = CosmologyParams.create(70.0, omega_m, 1.0 - omega_m)
    _assert_batches_match_one_batch(monkeypatch, params, grid_points, batch)


@pytest.mark.parametrize(
    "grid_points, batch", [(4096, 1024), (4097, 1024), (4099, 2048), (8193, 4096), (10001, 4096)]
)
def test_a_short_last_batch_matches_one_batch(monkeypatch, fiducial_params, grid_points, batch):
    _assert_batches_match_one_batch(monkeypatch, fiducial_params, grid_points, batch)


def test_fallback_panels_keep_their_place(monkeypatch):
    # sqrt's endpoint singularity at 0 sends panel 0 to adaptive refinement
    grid = np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 300)])
    one = quadrature.build_cumulative(np.sqrt, grid, 1e-12)
    monkeypatch.setattr(quadrature, "_BATCH_PANELS", 8)
    split = quadrature.build_cumulative(np.sqrt, grid, 1e-12)
    assert np.array_equal(one.values, split.values)
