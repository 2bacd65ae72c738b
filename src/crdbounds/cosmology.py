"""Flat Lambda-CDM light-cone tables: the scale factor, and the conformal
time, past light-cone 4-volume and its growth rate over the whole age of
the universe, with their lookups.

The universe laws (``CosmologyParams``, the k-factors, ``universe_laws``)
are ``laws``', in Python floats; no CLI verb reads these tables, and this
module imports numpy. ``build_tables`` starts from the laws and adds eta, V4
and V4dot at the nodes of geometric panels in x = (H0 t)^(1/3) from
x = 1e-8 x_T to x_T (t = 1e-24 T to T), splitting any panel longer than
t_lambda. ``_light_cone`` computes them: ``laws._light_cone_rows``'
operations on arrays, so the two agree to a few ulps. ``v4``, ``v4_rate``
and ``comoving_distance`` read the tables by barycentric interpolation.

Early times: below the first node x0 of the first panel, the lookups return
the matter-era laws through that node, V4 ~ x^12, V4dot ~ x^9 and eta ~ x,
so t = 0 gives exactly 0. The Lambda correction there is O((t/t_lambda)^2),
below 1e-40.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, check_integer
from .laws import DEFAULT_REL_TOL, CosmologyParams, UniverseLaws, _carry, _in_double_range, _scale_law, universe_laws
from .quadrature import GL_INTEGRATION, GL_REMAINDER, GL_WEIGHTS, CumulativeTable, interpolate, panel_nodes
from .quantities import SPEED_OF_LIGHT

DEFAULT_GRID_POINTS = 4096
# Largest table accepted, twice the 65536-node reference grid; it takes
# seconds and a few hundred MB to build.
MAX_GRID_POINTS = 1 << 17

# The tables' first edge as a fraction of x_T = (H0 T)^(1/3), so t = 1e-24 T;
# the geometric panels above it keep the nodes log-dense.
_FIRST_EDGE = 1e-8
# At least this many geometric panels, so each spans at most a factor
# 10^(8/64) = 1.33 in x: V4 ~ x^12 then rises at most 32-fold across one,
# and its nodes meet the matter-only closed form to 4e-15. With 16 panels
# the first nodes are off by 8e-10, and with 4 they turn negative.
_MIN_PANELS = 64
# Panels longer than this many t_lambda are split into equal parts in x, so
# that a^3 ~ e^(2 t / t_lambda) grows at most e^2 across one. Without it,
# near Omega_L = 1 (H0 T above about 9) the last panels miss the Lambda era's
# growth: V4(T) misses k4u by 1.6e-9 at Omega_M 1e-17 and turns negative at
# 1e-60. With it, V4(T) meets k4u within 3e-13 for 60 values of Omega_M from
# 1e-250 to 1e-3, at 1024, 4096 and 32768 nodes.
_LAMBDA_SPAN = 1.0
# How far the tables' V4(T) may sit from k4u, beyond the k-factors' rel_tol,
# before the tables are refused as not resolving the cosmology.
_TABLE_TOL = 1e-12

_REL_SLACK = 1.0 + 1e-12  # tolerate float noise when callers pass t = T_U


def scale_factor(t, params: CosmologyParams):
    """a(t), a(today) = 1: ``laws._scale_law`` on numpy arrays.

    Accepts a scalar or array time in seconds; t must be >= 0, and a scalar
    gives a float.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all(ts >= 0.0):  # NaN fails too
        raise ValueError("scale factor is only defined for t >= 0")
    a = _scale_law(params, np.sinh)(ts)
    return float(a) if ts.ndim == 0 else a


class LightconeTables(UniverseLaws):
    """The universe laws plus the light cone at the Gauss nodes of geometric
    panels in x = (H0 t)^(1/3), from 1e-8 x_max to x_max.

    eta is the conformal time int dt/a (s), v4 the past light-cone 4-volume
    (m^3 s) and rate its time derivative (m^3); the three tables share their
    edges, and H0^4 V4(T) / c^3 meets k4u. x_max is the last edge and
    x_first the first node, below which the lookups take the matter-era laws;
    both are derived and left out of equality and repr, like log2_k.
    """

    _fields = UniverseLaws._fields + ("eta", "v4", "rate")
    __slots__ = ("eta", "v4", "rate", "x_max", "x_first")

    def _check(self):
        super()._check()
        object.__setattr__(self, "x_max", float(self.eta.edges[-1]))
        object.__setattr__(self, "x_first", float(panel_nodes(self.eta.edges[:2])[1][0, 0]))


def build_tables(
    params: CosmologyParams,
    rel_tol: float = DEFAULT_REL_TOL,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> LightconeTables:
    """The ``universe_laws`` at rel_tol, with eta, V4 and dV4/dt over [0, T].

    The tables have grid_points / 16 geometric panels of 16 nodes each,
    from t = 1e-24 T to T, but at least 64 (``_MIN_PANELS``); panels longer
    than t_lambda are split (``_LAMBDA_SPAN``). grid_points sets only the
    lookups' resolution, not the k-factors. A grid_points that is not an
    integer in [16, MAX_GRID_POINTS] and a multiple of 16 (so every panel
    holds 16 of the nodes asked for), a cosmology whose values leave double
    range, or one whose tables do not resolve it (a node value that is not
    positive, or V4(T) off k4u by more than rel_tol + 1e-12), is a
    ConfigurationError.
    """
    grid_points = check_integer("grid_points", grid_points, 16, MAX_GRID_POINTS)
    if grid_points % 16:
        raise ConfigurationError(f"grid_points must be a multiple of 16, got {grid_points!r}")
    laws = universe_laws(params, rel_tol)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        return _in_double_range(params, lambda: _tabulate(laws, rel_tol, grid_points))


def _tabulate(laws: UniverseLaws, rel_tol: float, grid_points: int) -> LightconeTables:
    params = laws.params
    c, h0 = SPEED_OF_LIGHT, params.h0
    x_max = (h0 * params.t_universe) ** (1.0 / 3.0)
    edges = np.geomspace(_FIRST_EDGE * x_max, x_max, max(grid_points // 16, _MIN_PANELS) + 1)
    parts = np.maximum(np.ceil(np.diff(edges**3) / (_LAMBDA_SPAN * h0 * params.t_lambda)), 1.0)
    at = np.append(0.0, np.cumsum(np.repeat(1.0 / parts, parts.astype(int))))  # in panel indices
    edges = np.append(0.0, np.interp(at, np.arange(edges.size), edges))
    a, eta, c2, c3 = _light_cone(params, edges)
    # the panel [0, first edge] is integrated but not stored
    edges, a, eta, c2, c3 = edges[1:], a[1:], eta[1:], c2[1:], c3[1:]
    values = (eta / h0, (4.0 * math.pi / 3.0) * c**3 / h0**4 * c3, 4.0 * math.pi * c**3 / h0**3 * c2 / a)
    eta, v4, rate = (CumulativeTable(edges, v) for v in values)
    v4_today = h0**4 / c**3 * interpolate(v4, float(edges[-1]))
    smallest = min(float(v.min()) for v in values)
    if smallest <= 0.0 or abs(v4_today / laws.k4u - 1.0) > rel_tol + _TABLE_TOL:
        raise ValueError(
            f"the panels do not resolve it: H0^4 V4(T) / c^3 = {v4_today!r} against "
            f"k4u = {laws.k4u!r}, smallest stored value {smallest!r}"
        )
    return LightconeTables(params, laws.k4u, laws.k7u, laws.k8u, laws.k_shift, eta, v4, rate)


def _light_cone(params: CosmologyParams, edges: np.ndarray):
    """``laws._light_cone_rows`` on arrays, for the panels between edges in
    x = (H0 t)^(1/3), with edges[0] = 0: a, eta, C_2 and C_3 in tau = H0 t
    and H0 eta, each of shape (panels, 16).
    """
    half, x = panel_nodes(edges)
    a = scale_factor(x**3 / params.h0, params)
    dtau = 3.0 * x * x  # dtau/dx
    weight = half * dtau * a**3  # a^3 dtau/dx, times the half width
    de = half * dtau / a  # d(eta)/dx, times the half width
    since_lo = de @ GL_INTEGRATION.T  # eta(x_j) - eta(lo), per panel
    to_hi = de @ GL_REMAINDER.T  # eta(hi) - eta(x_j)
    span = de @ GL_WEIGHTS  # eta(hi) - eta(lo)
    eta = np.append(0.0, np.cumsum(span[:-1]))[:, None] + since_lo

    # each panel's own part of C_2, C_3 at its nodes, and of C_0..C_3 at its end
    lag = since_lo[:, :, None] - since_lo[:, None, :]
    own = weight[:, None, :] * GL_INTEGRATION
    power = lag * lag  # lag^2, then lag^3 in place: no third (panels, 16, 16) array
    inside2 = np.einsum("pjl,pjl->pj", own, power)
    power *= lag
    inside3 = np.einsum("pjl,pjl->pj", own, power)
    ends = [weight * to_hi**k @ GL_WEIGHTS for k in range(4)]
    b = _carry(span.tolist(), zip(*(e.tolist() for e in ends)))
    b0, b1, b2, b3 = (column[:-1, None] for column in np.array(b).T)
    c2 = inside2 + b2 + 2.0 * since_lo * b1 + since_lo**2 * b0
    c3 = inside3 + b3 + 3.0 * since_lo * b2 + 3.0 * since_lo**2 * b1 + since_lo**3 * b0
    return a, eta, c2, c3


def _checked_x(t: float, tables: LightconeTables, name: str = "t") -> float:
    params = tables.params
    if not 0.0 <= t <= params.t_universe * _REL_SLACK:
        raise ValueError(f"{name}={t!r} outside the tabulated range [0, {params.t_universe!r}]")
    return min((params.h0 * float(t)) ** (1.0 / 3.0), tables.x_max)


def _read(table: CumulativeTable, x: float, power: int, tables: LightconeTables) -> float:
    """The table at x; below the first node x0, the matter-era law through
    it, value(x0) * (x / x0)**power (see the module docstring)."""
    x0 = tables.x_first
    if x < x0:
        return float(table.values[0, 0]) * (x / x0) ** power
    return interpolate(table, x)


def comoving_distance(t1: float, t2: float, tables: LightconeTables) -> float:
    """d(t1, t2) = c * (eta(t2) - eta(t1)) in meters, 0 <= t1 <= t2 <= T."""
    if t1 > t2:
        raise ValueError(f"t1={t1!r} must not exceed t2={t2!r}")
    x1 = _checked_x(t1, tables, "t1")
    x2 = _checked_x(t2, tables, "t2")
    return SPEED_OF_LIGHT * (_read(tables.eta, x2, 1, tables) - _read(tables.eta, x1, 1, tables))


def v4(t2: float, tables: LightconeTables) -> float:
    """Past light-cone 4-volume V4(t2) in m^3 s, read from its table; below
    the first node, the matter-era law V4 ~ t^4 = x^12 (see the module
    docstring)."""
    return _read(tables.v4, _checked_x(t2, tables, "t2"), 12, tables)


def v4_rate(t2: float, tables: LightconeTables) -> float:
    """dV4/dt at t2 in m^3, read from its table; below the first node, the
    matter-era law dV4/dt ~ t^3 = x^9, which gives 0 at t2 = 0 (see the
    module docstring)."""
    return _read(tables.rate, _checked_x(t2, tables, "t2"), 9, tables)
