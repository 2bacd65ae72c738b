"""k7u and k8u to 1e-9 by one Richardson step on the tables' own nodes, and a
grid-error bound that covers the error actually made.

The extrapolated values are checked against the matter-only closed form and
the independent fiducial reference; the bound, |f - c|/15 of the fine and
every-other-node integrals, must exceed the error of the extrapolated value.
"""

import functools

import pytest
from click.testing import CliRunner

import oracles
from crdbounds.cli import main
from crdbounds import cosmology as cz
from crdbounds.cosmology import build_tables
from crdbounds.quadrature import CumulativeTable, QuadratureError, integrate

TARGET = 1e-9
FIDUCIAL = (oracles.K4U_FIDUCIAL, oracles.K7U_FIDUCIAL, oracles.K8U_FIDUCIAL)


def _errors(tables, expected):
    got = (tables.k4u, tables.k7u, tables.k8u)
    return [abs(g - e) / e for g, e in zip(got, expected)]


@pytest.fixture(scope="module")
def coarse_tables(eds_params, fiducial_params):
    return {
        "eds": build_tables(eds_params, grid_points=2048),
        "fiducial": build_tables(fiducial_params, grid_points=2048),
    }


def _cases(request, coarse_tables):
    return [
        (request.getfixturevalue("eds_tables"), oracles.eds_k_factors()),
        (request.getfixturevalue("fiducial_tables"), FIDUCIAL),
        (coarse_tables["eds"], oracles.eds_k_factors()),
        (coarse_tables["fiducial"], FIDUCIAL),
    ]


def test_defaults_meet_the_target_on_the_closed_form(eds_tables):
    assert max(_errors(eds_tables, oracles.eds_k_factors())) <= TARGET


@pytest.mark.parametrize("name", ["eds", "fiducial"])
def test_half_the_default_grid_meets_the_target(coarse_tables, name):
    expected = oracles.eds_k_factors() if name == "eds" else FIDUCIAL
    assert max(_errors(coarse_tables[name], expected)) <= TARGET


def test_grid_error_bound_exceeds_the_error(request, coarse_tables):
    for tables, expected in _cases(request, coarse_tables):
        _, err7, err8 = _errors(tables, expected)
        assert tables.k7u_grid_err > err7
        assert tables.k8u_grid_err > err8


def test_grid_error_bound_shrinks_as_h4(request, coarse_tables):
    # halving the node spacing divides the Hermite error by about 16
    cases = _cases(request, coarse_tables)
    for (fine, _), (coarse, _) in zip(cases[:2], cases[2:]):
        for name in ("k7u_grid_err", "k8u_grid_err"):
            assert 12.0 < getattr(coarse, name) / getattr(fine, name) < 20.0


@pytest.mark.parametrize("omega_m", ["0.3", "1.0", "0.15"])
def test_kfactors_at_the_tolerance_floor(omega_m):
    # the build at 2e-13 and the check at 2e-14 both converge
    omega_lambda = repr(1.0 - float(omega_m))
    args = ["kfactors", "--quad-rel-tol", "2e-13", "--omega-m", omega_m, "--omega-lambda", omega_lambda, "--json"]
    result = CliRunner(env={"CRDBOUNDS_CONFIG": None}).invoke(main, args)
    assert result.exit_code == 0, result.output


def test_k_integrals_rejects_tables_off_eta_s_grid(eds_tables):
    t = eds_tables
    shifted = CumulativeTable(t.v4.abscissae * 1.5, t.v4.values, t.v4.derivatives)
    with pytest.raises(ValueError, match="one grid"):
        cz.k_integrals(t.params, t.eta, shifted, t.moments, 1e-9)


def test_k_integrals_failure_carries_k7u_and_k8u(monkeypatch, eds_tables):
    t = eds_tables
    monkeypatch.setattr(cz, "integrate", functools.partial(integrate, max_panels=4))
    with pytest.raises(QuadratureError) as excinfo:
        cz.k_integrals(t.params, t.eta, t.v4, t.moments, 1e-9)
    assert excinfo.value.estimate == pytest.approx([t.k7u, t.k8u], rel=1e-2)


def test_k_integrals_failure_message_shows_k7u_and_k8u(monkeypatch, eds_tables):
    t = eds_tables
    monkeypatch.setattr(cz, "integrate", functools.partial(integrate, max_panels=4))
    with pytest.raises(QuadratureError) as excinfo:
        cz.k_integrals(t.params, t.eta, t.v4, t.moments, 1e-9)
    err = excinfo.value
    assert f"estimate {err.estimate!r}" in str(err)
