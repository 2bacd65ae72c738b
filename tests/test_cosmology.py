import math

import numpy as np
import pytest
from numpy.polynomial import legendre

from crdbounds import cosmology as cz
from crdbounds.cosmology import build_tables, comoving_distance, scale_factor, v4, v4_rate
from crdbounds.errors import ConfigurationError
from crdbounds.laws import CosmologyParams, universe_laws
from crdbounds.quadrature import integrate
from crdbounds.quantities import GYR_IN_S, MPC_IN_M, SPEED_OF_LIGHT

import oracles

C = SPEED_OF_LIGHT


class TestParams:
    def test_fiducial_fields(self, fiducial_params):
        p = fiducial_params
        assert p.h0 == pytest.approx(70e3 / MPC_IN_M, rel=1e-15)
        assert p.t_lambda == pytest.approx(2.0 / (3.0 * p.h0 * math.sqrt(0.7)), rel=1e-15)
        assert p.t_universe / GYR_IN_S == pytest.approx(oracles.T_UNIVERSE_FIDUCIAL_GYR, rel=1e-12)

    def test_flatness_enforced(self):
        with pytest.raises(ValueError, match="flatness"):
            CosmologyParams.create(70.0, 0.3, 0.6)

    @pytest.mark.parametrize(
        "h0, om, ol",
        [(-70.0, 0.3, 0.7), (70.0, 0.0, 1.0), (70.0, 1.2, -0.2)],
    )
    def test_bad_densities_rejected(self, h0, om, ol):
        with pytest.raises(ValueError):
            CosmologyParams.create(h0, om, ol)

    def test_matter_only_limit(self, eds_params):
        assert math.isinf(eds_params.t_lambda)
        assert eds_params.t_universe == pytest.approx(oracles.eds_age(eds_params.h0), rel=1e-15)
        assert eds_params.t_universe / GYR_IN_S == pytest.approx(
            oracles.T_UNIVERSE_EDS_GYR, rel=1e-12
        )


class TestAge:
    def test_fiducial(self, fiducial_params):
        gyr = fiducial_params.t_universe / GYR_IN_S
        assert gyr == pytest.approx(oracles.T_UNIVERSE_FIDUCIAL_GYR, rel=1e-12)

    def test_doubling_h0_halves_age(self):
        a = CosmologyParams.create(70.0, 0.3, 0.7).t_universe
        b = CosmologyParams.create(140.0, 0.3, 0.7).t_universe
        assert 2.0 * b == pytest.approx(a, rel=1e-14)


class TestScaleFactor:
    def test_zero_at_big_bang(self, fiducial_params):
        assert scale_factor(0.0, fiducial_params) == 0.0

    def test_one_today(self, fiducial_params, eds_params):
        assert scale_factor(fiducial_params.t_universe, fiducial_params) == pytest.approx(1.0, abs=1e-10)
        assert scale_factor(eds_params.t_universe, eds_params) == pytest.approx(1.0, abs=1e-10)

    def test_value_at_t_lambda(self, fiducial_params):
        a = scale_factor(fiducial_params.t_lambda, fiducial_params)
        assert a == pytest.approx(oracles.SCALE_FACTOR_AT_T_LAMBDA, rel=1e-12)

    def test_negative_time_rejected(self, fiducial_params):
        with pytest.raises(ValueError):
            scale_factor(-1.0, fiducial_params)

    def test_strictly_increasing(self, fiducial_params):
        ts = np.linspace(0.0, fiducial_params.t_universe, 500)
        assert np.all(np.diff(scale_factor(ts, fiducial_params)) > 0.0)

    def test_matter_only_power_law(self, eds_params):
        ts = np.geomspace(1e-6, 1.0, 50) * eds_params.t_universe
        expected = oracles.eds_scale_factor(ts, eds_params.t_universe)
        assert scale_factor(ts, eds_params) == pytest.approx(expected, rel=1e-13)


class TestTables:
    def test_v4_zero_at_big_bang(self, fiducial_tables):
        assert v4(0.0, fiducial_tables) == 0.0

    def test_node_values_monotone(self, fiducial_tables):
        assert np.all(np.diff(fiducial_tables.eta.values.ravel()) > 0.0)
        assert np.all(np.diff(fiducial_tables.v4.values.ravel()) >= 0.0)

    def test_k_factors_match_independent_reference(self, fiducial_tables):
        assert fiducial_tables.k4u == pytest.approx(oracles.K4U_FIDUCIAL, rel=1e-8)
        assert fiducial_tables.k8u == pytest.approx(oracles.K8U_FIDUCIAL, rel=5e-8)
        assert fiducial_tables.k7u == pytest.approx(oracles.K7U_FIDUCIAL, rel=1e-7)

    def test_frozen_reference_regenerates(self):
        # moderate-resolution rerun of the independent reference implementation
        k4u, k7u, k8u = oracles.kfactors_reference(0.3, 0.7)
        assert k4u == pytest.approx(oracles.K4U_FIDUCIAL, rel=1e-7)
        assert k7u == pytest.approx(oracles.K7U_FIDUCIAL, rel=1e-7)
        assert k8u == pytest.approx(oracles.K8U_FIDUCIAL, rel=1e-7)

    def test_matter_only_k_factors_closed_form(self, eds_tables):
        k4u, k7u, k8u = oracles.eds_k_factors()
        assert eds_tables.k4u == pytest.approx(k4u, rel=1e-7)
        assert eds_tables.k7u == pytest.approx(k7u, rel=1e-7)
        assert eds_tables.k8u == pytest.approx(k8u, rel=1e-7)

    def test_k_factors_independent_of_h0(self):
        fast = dict(rel_tol=1e-9, grid_points=1024)
        ta = build_tables(CosmologyParams.create(70.0, 0.3, 0.7), **fast)
        tb = build_tables(CosmologyParams.create(35.0, 0.3, 0.7), **fast)
        a = (ta.k4u, ta.k7u, ta.k8u)
        b = (tb.k4u, tb.k7u, tb.k8u)
        assert a == pytest.approx(b, rel=1e-9)

    def test_grid_points_validation(self, fiducial_params):
        with pytest.raises(ValueError, match="grid_points"):
            build_tables(fiducial_params, grid_points=4)


class TestEta:
    def test_table_agrees_with_direct_quadrature(self, fiducial_params, fiducial_tables):
        def integrand(u):
            u = np.asarray(u)
            return 3.0 * u * u / scale_factor(u**3, fiducial_params)

        rng = np.random.default_rng(7)
        t_max = fiducial_params.t_universe
        for t in rng.uniform(1e-6 * t_max, t_max, 20):
            direct = C * integrate(integrand, 0.0, t ** (1.0 / 3.0), 1e-12)
            assert comoving_distance(0.0, t, fiducial_tables) == pytest.approx(direct, rel=1e-7)


class TestComovingDistance:
    def test_null_distance(self, fiducial_tables, fiducial_params):
        assert comoving_distance(0.5 * fiducial_params.t_universe,
                                 0.5 * fiducial_params.t_universe,
                                 fiducial_tables) == 0.0

    def test_additivity(self, fiducial_tables, fiducial_params):
        t3 = fiducial_params.t_universe
        t1, t2 = 0.1 * t3, 0.6 * t3
        whole = comoving_distance(t1, t3, fiducial_tables)
        split = comoving_distance(t1, t2, fiducial_tables) + comoving_distance(t2, t3, fiducial_tables)
        assert split == pytest.approx(whole, rel=1e-9)

    def test_reversed_times_rejected(self, fiducial_tables, fiducial_params):
        with pytest.raises(ValueError, match="t1"):
            comoving_distance(2.0, 1.0, fiducial_tables)

    def test_out_of_range_rejected(self, fiducial_tables, fiducial_params):
        with pytest.raises(ValueError, match="range"):
            comoving_distance(0.0, 2.0 * fiducial_params.t_universe, fiducial_tables)

    def test_matter_only_particle_horizon(self, eds_tables, eds_params):
        # closed form: d(0, T) = 3 c T = 2 c / H0
        d = comoving_distance(0.0, eds_params.t_universe, eds_tables)
        assert d == pytest.approx(2.0 * C / eds_params.h0, rel=1e-9)

    def test_matter_only_closed_form(self, eds_tables, eds_params):
        t_u = eds_params.t_universe
        for t1, t2 in [(0.0, 0.3 * t_u), (0.1 * t_u, 0.9 * t_u), (0.5 * t_u, t_u)]:
            expected = oracles.eds_comoving_distance(t1, t2, t_u, C)
            assert comoving_distance(t1, t2, eds_tables) == pytest.approx(expected, rel=1e-9)


class TestV4:
    def test_monotone_on_random_pairs(self, fiducial_tables, fiducial_params):
        rng = np.random.default_rng(11)
        t_max = fiducial_params.t_universe
        for _ in range(100):
            t1, t2 = sorted(rng.uniform(0.0, t_max, 2))
            assert v4(t1, fiducial_tables) <= v4(t2, fiducial_tables)

    def test_today_value_defines_k4u(self, fiducial_tables, fiducial_params):
        p = fiducial_params
        value = v4(p.t_universe, fiducial_tables)
        assert p.h0**4 * value / C**3 == pytest.approx(fiducial_tables.k4u, rel=1e-12)

    def test_matter_only_closed_form(self, eds_tables, eds_params):
        ts = np.geomspace(1e-3, 1.0, 20) * eds_params.t_universe
        for t in ts:
            assert v4(t, eds_tables) == pytest.approx(float(oracles.eds_v4(t, C)), rel=1e-6)

    def test_out_of_range_rejected(self, fiducial_tables, fiducial_params):
        with pytest.raises(ValueError, match="range"):
            v4(-1.0, fiducial_tables)


class TestV4Rate:
    def test_zero_at_big_bang(self, fiducial_tables):
        assert v4_rate(0.0, fiducial_tables) == 0.0

    def test_finite_difference_agreement_midpoint(self, fiducial_tables, fiducial_params):
        t = 0.5 * fiducial_params.t_universe
        h = 1e-4 * fiducial_params.t_universe
        fd = (v4(t + h, fiducial_tables) - v4(t - h, fiducial_tables)) / (2.0 * h)
        assert v4_rate(t, fiducial_tables) == pytest.approx(fd, rel=1e-5)

    def test_finite_difference_agreement_interior(self, fiducial_tables, fiducial_params):
        t_u = fiducial_params.t_universe
        h = 1e-4 * t_u
        for t in np.linspace(0.05, 0.95, 20) * t_u:
            fd = (v4(t + h, fiducial_tables) - v4(t - h, fiducial_tables)) / (2.0 * h)
            assert v4_rate(t, fiducial_tables) == pytest.approx(fd, rel=1e-5)

    def test_matter_only_closed_form(self, eds_tables, eds_params):
        ts = np.geomspace(1e-3, 1.0, 20) * eds_params.t_universe
        for t in ts:
            assert v4_rate(t, eds_tables) == pytest.approx(float(oracles.eds_v4_rate(t, C)), rel=1e-6)


class TestParamLimits:
    def test_flatness_tolerance_matches_config(self):
        CosmologyParams.create(70.0, 0.3, 0.7 + 1e-10)
        with pytest.raises(ValueError, match="flatness"):
            CosmologyParams.create(70.0, 0.3, 0.7 + 1e-8)

    @pytest.mark.parametrize("h0", [math.inf, math.nan, 1e300, 1e-300])
    def test_unrepresentable_h0_rejected(self, h0):
        with pytest.raises(ValueError, match="H0"):
            CosmologyParams.create(h0, 0.3, 0.7)

    @pytest.mark.parametrize("h0", [9.3e-11, 3.0e57])
    def test_k_factors_hold_at_h0_limits(self, h0):
        # the k-factors are dimensionless, independent of H0
        fast = {"grid_points": 256}
        ref = build_tables(CosmologyParams.create(70.0, 0.3, 0.7), **fast)
        got = build_tables(CosmologyParams.create(h0, 0.3, 0.7), **fast)
        for a, b in ((got.k4u, ref.k4u), (got.k7u, ref.k7u), (got.k8u, ref.k8u)):
            assert a == pytest.approx(b, rel=1e-9)


class TestEarlyTimes:
    """Below the first node, where the lookups take the matter-era laws."""

    @pytest.mark.parametrize("fraction", [1e-26, 1e-25, 1e-24, 1.0045e-24, 1.01e-24])
    def test_matter_only_closed_form(self, eds_tables, eds_params, fraction):
        t = fraction * eds_params.t_universe
        assert v4(t, eds_tables) == pytest.approx(float(oracles.eds_v4(t, C)), rel=1e-9)
        assert v4_rate(t, eds_tables) == pytest.approx(float(oracles.eds_v4_rate(t, C)), rel=1e-9)

    @pytest.mark.parametrize("which", ["fiducial_tables", "eds_tables"])
    def test_rate_matches_v4_node_slopes(self, request, which):
        # the rate (from C_2) is the time derivative of v4 (from C_3): each
        # panel's v4 polynomial, differentiated, gives the stored rate at
        # the nodes; differentiation amplifies V4's rounding about n^2-fold
        tables = request.getfixturevalue(which)
        nodes, _ = legendre.leggauss(16)
        edges, h0 = tables.v4.edges, tables.params.h0
        for p, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            dv4_ds = legendre.legval(nodes, legendre.legder(legendre.legfit(nodes, tables.v4.values[p], 15)))
            x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
            slope = dv4_ds * 2.0 / (hi - lo) / (3.0 * x * x / h0)  # dt/dx = 3 x^2 / H0
            assert np.max(np.abs(slope / tables.rate.values[p] - 1.0)) <= 1e-11


@pytest.mark.parametrize("omega_m", [1e-7, 1e-12, 1e-17, 1e-30, 1e-60])
def test_near_lambda_one_tables_build(omega_m):
    # V4 no longer cancels, and panels longer than t_lambda are split: these
    # cosmologies build, their lookups are finite and positive, and V4(T)
    # gives k4u
    omega_lambda = min(1.0 - omega_m, 0.9999999999999999)
    tables = build_tables(CosmologyParams.create(70.0, omega_m, omega_lambda))
    p = tables.params
    assert p.h0**4 * v4(p.t_universe, tables) / C**3 == pytest.approx(tables.k4u, rel=1e-12)
    for t in p.t_universe * np.geomspace(1e-26, 1.0, 200):
        values = (v4(t, tables), v4_rate(t, tables), comoving_distance(0.0, t, tables))
        assert all(math.isfinite(v) and v > 0.0 for v in values)


def test_tables_refused_where_the_universe_laws_are_not():
    # at Omega_M 1e-270 the k-integrals converge, but the tables' earliest
    # values underflow to 0, so only the build is refused
    params = CosmologyParams.create(70.0, 1e-270, 0.9999999999999999)
    laws = universe_laws(params)
    assert laws.k4u == pytest.approx(860.5056533020614, rel=1e-9)
    assert max(laws.k_shift) <= 1e-9
    with pytest.raises(ConfigurationError, match="the panels do not resolve it"):
        build_tables(params)


@pytest.mark.parametrize("name", ["eds", "fiducial"])
def test_tables_carry_the_universe_laws_exactly(request, name):
    tables = request.getfixturevalue(f"{name}_tables")
    laws = universe_laws(tables.params)
    for key in ("params", "k4u", "k7u", "k8u", "k_shift", "log2_k"):
        assert getattr(tables, key) == getattr(laws, key), key


def test_tables_that_miss_the_lambda_era_are_refused(monkeypatch):
    # unsplit, the last geometric panels cannot follow a^3 ~ e^(2 t / t_lambda)
    monkeypatch.setattr(cz, "_LAMBDA_SPAN", math.inf)
    with pytest.raises(ConfigurationError, match="the panels do not resolve it"):
        build_tables(CosmologyParams.create(70.0, 1e-30, 0.9999999999999999))
