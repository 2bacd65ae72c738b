"""Flat Lambda-CDM light-cone kernel.

Provides the scale factor, age of the universe, conformal time, the past
light-cone 4-volume and its growth rate, comoving distances, and the three
dimensionless prefactors (k4u, k7u, k8u) that convert powers of c/(H0 l)
into operation counts for the universe-scale bounds.

Times are SI seconds at the interface, and a(t) is normalized to 1 today;
radiation density is ignored. Inside, everything is computed in tau = H0 t
on 16-node Gauss-Legendre panels in x = tau^(1/3), a substitution that
removes the matter-era integrable singularity 1/a(t) ~ t^(-2/3).
``_light_cone`` gives, at every node, a, the conformal time
eta = int_0^t dt1 / a and the centered moments

    C_k(t) = int_0^t a(t1)^3 (eta(t) - eta(t1))^k dt1,   k = 2, 3,

carried from panel to panel by the binomial shift (Chan, Golub & LeVeque,
Am. Stat. 37 (1983) 242), whose terms are all non-negative, so nothing
cancels. The 4-volume and its time derivative are

    V4(t)    = (4 pi / 3) c^3 C_3(t)
    V4dot(t) = 4 pi c^3 C_2(t) / a(t)

``k_integrals`` evaluates them on equal panels for the k-factors, in Python
floats (``_light_cone_rows``), and ``universe_laws`` makes those the laws the
CLI reads; numpy is not imported for them. ``build_tables`` adds eta, V4 and
V4dot at the nodes of geometric panels from x = 1e-8 x_T to x_T (t = 1e-24 T
to T), splitting any panel longer than t_lambda, in numpy (``_light_cone``:
the same operations on arrays, so the two agree to a few ulps); ``v4``,
``v4_rate`` and ``comoving_distance`` read them by barycentric interpolation.

Early times: below the first node x0 of the first panel, the lookups return
the matter-era laws through that node, V4 ~ x^12, V4dot ~ x^9 and eta ~ x,
so t = 0 gives exactly 0. The Lambda correction there is O((t/t_lambda)^2),
below 1e-40.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul, sub
from typing import Dict, List, Sequence, Tuple

from .quadrature import (
    DEFAULT_MAX_PANELS,
    DEFAULT_REL_TOL,
    GL_INTEGRATION_ROWS,
    GL_NODE_LIST,
    GL_WEIGHT_LIST,
    CumulativeTable,
    QuadratureError,
    gl_arrays,
    interpolate,
    panel_nodes,
)
from .errors import ConfigurationError, check_integer, check_range
from .quantities import LOG2_SPEED_OF_LIGHT, MPC_IN_M, SPEED_OF_LIGHT

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


# H0^8 and (c/H0)^8 enter the k-factors and the universe bounds; with H0
# in [c / _H0_MAX, _H0_MAX] s^-1 (about 1e-10 to 3e57 km/s/Mpc) both stay
# below 1e304, well inside double range.
_H0_MAX = 1e38

_FLATNESS_TOL = 1e-9

# W - S: row j integrates each Lagrange basis polynomial from node j to 1
_GL_REMAINDER_ROWS = tuple(tuple(map(sub, GL_WEIGHT_LIST, row)) for row in GL_INTEGRATION_ROWS)


@dataclass(frozen=True)
class CosmologyParams:
    """Flat Lambda-CDM parameters with derived timescales.

    h0 is in s^-1 (use ``create`` to convert from km/s/Mpc). t_lambda is the
    dark-energy timescale 2/(3 H0 sqrt(Omega_L)), infinite in the matter-only
    limit; t_universe solves a(t) = 1. Both are derived here, after the
    inputs are checked; this is the only place cosmological inputs are
    validated.
    """

    h0: float
    omega_m: float
    omega_lambda: float
    t_lambda: float = field(init=False)
    t_universe: float = field(init=False)

    def __post_init__(self):
        check_range("H0 (s^-1)", self.h0, SPEED_OF_LIGHT / _H0_MAX, _H0_MAX, low_inclusive=True)
        check_range("omega_m", self.omega_m, 0.0, 1.0)
        if not 0.0 <= self.omega_lambda < 1.0:
            raise ConfigurationError(
                f"omega_lambda must lie in [0, 1), got {self.omega_lambda!r}"
            )
        if abs(self.omega_m + self.omega_lambda - 1.0) > _FLATNESS_TOL:
            raise ConfigurationError(
                "flatness violated: omega_m + omega_lambda = "
                f"{self.omega_m + self.omega_lambda!r} must equal 1 within {_FLATNESS_TOL}"
            )
        if self.omega_lambda == 0.0:
            t_lambda = math.inf
        else:
            t_lambda = 2.0 / (3.0 * self.h0 * math.sqrt(self.omega_lambda))
        t_universe = age_of_universe(self.h0, self.omega_m, self.omega_lambda)
        check_range("t_universe (s)", t_universe)
        object.__setattr__(self, "t_lambda", t_lambda)
        object.__setattr__(self, "t_universe", t_universe)

    @classmethod
    def create(
        cls,
        h0_km_s_mpc: float = 70.0,
        omega_m: float = 0.3,
        omega_lambda: float = 0.7,
    ) -> "CosmologyParams":
        return cls(h0_km_s_mpc * 1e3 / MPC_IN_M, omega_m, omega_lambda)


def age_of_universe(h0: float, omega_m: float, omega_lambda: float) -> float:
    """Age in seconds, solving a(T) = 1.

    T = t_lambda * asinh(sqrt(Omega_L / Omega_M)); the omega_lambda -> 0 limit
    is the matter-only closed form 2/(3 H0), applied analytically to avoid the
    0 * inf indeterminacy in t_lambda.
    """
    if omega_lambda == 0.0:
        return 2.0 / (3.0 * h0)
    t_lambda = 2.0 / (3.0 * h0 * math.sqrt(omega_lambda))
    return t_lambda * math.asinh(math.sqrt(omega_lambda / omega_m))


def scale_factor(t, params: CosmologyParams):
    """a(t) = (Omega_M/Omega_L)^(1/3) sinh^(2/3)(t / t_lambda), a(today) = 1.

    Accepts a scalar or array time in seconds; t must be >= 0. The matter-only
    limit is the power law (t / T)^(2/3). A Python ``float`` or ``int`` becomes
    an ``np.float64``, not a 0-d array: numpy computes a 0-d array's quotient
    as a numpy scalar anyway, so both take numpy's scalar ``sinh`` and ``**``
    and give the same double (``math.sinh`` would not; it differs from
    numpy's in the last bit).
    """
    import numpy as np

    scalar = isinstance(t, (float, int))
    ts = np.float64(t) if scalar else np.asarray(t, dtype=float)
    if not (t >= 0.0 if scalar else np.all(ts >= 0.0)):  # NaN fails too
        raise ValueError("scale factor is only defined for t >= 0")
    if params.omega_lambda == 0.0:
        a = (ts / params.t_universe) ** (2.0 / 3.0)
    else:
        amp = (params.omega_m / params.omega_lambda) ** (1.0 / 3.0)
        a = amp * np.sinh(ts / params.t_lambda) ** (2.0 / 3.0)
    return float(a) if np.isscalar(t) or getattr(t, "ndim", 1) == 0 else a


@dataclass(frozen=True)
class UniverseLaws:
    """One cosmology's k-factors from ``k_integrals``, which reads no table,
    and k_shift, each one's relative shift between its last two panel counts.
    log2_k, derived once, here, maps each universe exponent p (4, 7, 8) to
    log2 K of the law N_ops = K / l^p, K = k_p (c/H0)^p, which the universe
    scenarios' power laws read.
    """

    params: CosmologyParams
    k4u: float
    k7u: float
    k8u: float
    k_shift: Tuple[float, float, float]
    log2_k: Dict[int, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        log2_c_over_h0 = LOG2_SPEED_OF_LIGHT - math.log2(self.params.h0)
        object.__setattr__(self, "log2_k", {
            p: math.log2(k_p) + p * log2_c_over_h0
            for p, k_p in ((4, self.k4u), (7, self.k7u), (8, self.k8u))
        })


@dataclass(frozen=True)
class LightconeTables(UniverseLaws):
    """The universe laws plus the light cone at the Gauss nodes of geometric
    panels in x = (H0 t)^(1/3), from 1e-8 x_max to x_max.

    eta is the conformal time int dt/a (s), v4 the past light-cone 4-volume
    (m^3 s) and rate its time derivative (m^3); the three tables share their
    edges, and H0^4 V4(T) / c^3 meets k4u. x_max is the last edge and
    x_first the first node, below which the lookups take the matter-era laws.
    """

    eta: CumulativeTable
    v4: CumulativeTable
    rate: CumulativeTable
    x_max: float = field(init=False, repr=False, compare=False)
    x_first: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "x_max", float(self.eta.edges[-1]))
        object.__setattr__(self, "x_first", float(panel_nodes(self.eta.edges[:2])[1][0, 0]))


def universe_laws(params: CosmologyParams, rel_tol: float = DEFAULT_REL_TOL) -> UniverseLaws:
    """UniverseLaws from ``k_integrals`` at rel_tol; out of double range, a ConfigurationError."""
    k, k_shift = _in_double_range(params, lambda: k_integrals(params, rel_tol))
    return UniverseLaws(params, *k, k_shift)


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
    import numpy as np

    grid_points = check_integer("grid_points", grid_points, 16, MAX_GRID_POINTS)
    if grid_points % 16:
        raise ConfigurationError(f"grid_points must be a multiple of 16, got {grid_points!r}")
    laws = universe_laws(params, rel_tol)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        return _in_double_range(params, lambda: _tabulate(laws, rel_tol, grid_points))


def _in_double_range(params: CosmologyParams, compute):
    """compute(); a float error (ArithmeticError) or ValueError it raises becomes a ConfigurationError."""
    try:
        return compute()
    except (ArithmeticError, ValueError) as exc:
        raise ConfigurationError(
            f"H0={params.h0!r} s^-1, omega_m={params.omega_m!r}, omega_lambda="
            f"{params.omega_lambda!r}: the light cone cannot be computed ({exc})"
        ) from exc


def _tabulate(laws: UniverseLaws, rel_tol: float, grid_points: int) -> LightconeTables:
    import numpy as np

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


def k_integrals(
    params: CosmologyParams, rel_tol: float
) -> Tuple[Tuple[float, float, float], Tuple[float, float, float]]:
    """(k4u, k7u, k8u) to rel_tol from the cosmology alone, and each one's
    relative shift between the last two panel counts. With
    d(t, T) = c (eta(T) - eta(t)):

    k4u = H0^4 V4(T) / c^3
    k7u = (4 pi H0^7 / 3 c^6) int_0^T a^3(t) d^3(t, T) V4dot(t) dt
    k8u = (4 pi H0^8 / 3 c^6) int_0^T V4(t) a^3(t) d^3(t, T) dt

    ``_light_cone_rows`` gives every quantity at the nodes of equal panels in
    x, in Python floats, where all are dimensionless and of order one: k4u is
    (4 pi / 3) C_3(T), and k7u and k8u are composite Gauss-Legendre sums.

    The panel count starts at 4 and doubles until two successive results
    agree within rel_tol in every k-factor; the finer one is returned. The
    convergence is spectral, so the finer result is far closer than that
    shift: at 8 panels the matter-only closed form is met to about 2e-15.
    A sum that is not finite (a product overflowed on panels too coarse for
    the cosmology) has an infinite shift, so the panels keep doubling. If
    the next count would pass DEFAULT_MAX_PANELS, a QuadratureError carries
    the last estimate [k4u, k7u, k8u], and its message shows it; if that
    estimate is not finite, an OverflowError is raised instead.
    """
    check_range("rel_tol", rel_tol, 0.0, 1e-2)
    panels, shifts = 4, (math.inf,)
    k = _k_sums(params, panels)
    while not max(shifts) <= rel_tol:
        if 2 * panels > DEFAULT_MAX_PANELS:
            if not all(map(math.isfinite, k)):
                raise OverflowError(f"the k-factor sums are not finite at {panels} panels")
            estimate = list(k)
            raise QuadratureError(
                f"k-factors: no convergence after {panels} panels: estimate {estimate!r}, "
                f"achieved relative tolerance {max(shifts):.3e}, needs {rel_tol:.3e}",
                estimate=estimate,
                achieved_rel_tol=max(shifts),
            )
        panels *= 2
        coarse, k = k, _k_sums(params, panels)
        shifts = tuple(abs((f - c) / f) if math.isfinite(f - c) else math.inf for f, c in zip(k, coarse))
    return k, shifts


def _k_sums(params: CosmologyParams, panels: int) -> Tuple[float, float, float]:
    """k4u, k7u and k8u from ``panels`` equal panels (see ``k_integrals``).
    Time is tau = H0 t and conformal time H0 eta; the light-cone prefactors
    in c and H0 then cancel. The edges are the doubles ``numpy.linspace``
    gives."""
    x_t = (params.h0 * params.t_universe) ** (1.0 / 3.0)
    step = x_t / panels
    a, weight, to_today, c2, c3, c3_today = _light_cone_rows(params, [i * step for i in range(panels)] + [x_t])
    k7, k8 = [], []  # the terms of each composite sum, added exactly rounded
    for a_p, weight_p, to_today_p, c2_p, c3_p in zip(a, weight, to_today, c2, c3):
        cone = [w * t**3 for w, t in zip(weight_p, to_today_p)]
        k7 += map(mul, [q / x * c for q, x, c in zip(cone, a_p, c2_p)], GL_WEIGHT_LIST)
        k8 += map(mul, map(mul, cone, c3_p), GL_WEIGHT_LIST)
    return (
        (4.0 * math.pi / 3.0) * c3_today,
        (16.0 * math.pi**2 / 3.0) * _fsum(k7),
        (16.0 * math.pi**2 / 9.0) * _fsum(k8),
    )


def _fsum(terms: List[float]) -> float:
    """math.fsum, or inf where fsum refuses: infinite terms of both signs, or
    a sum that leaves double range (panels too coarse for the cosmology)."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.inf


def _carry(spans: Sequence[float], ends) -> List[Tuple[float, float, float, float]]:
    """C_0..C_3 of the light cone centered at each edge, from each panel's
    span in eta and its own C_0..C_3 at its end (``ends``, one 4-tuple per
    panel), carried from edge to edge by the binomial shift in Python floats."""
    b = [(0.0, 0.0, 0.0, 0.0)]
    for d, (e0, e1, e2, e3) in zip(spans, ends):
        b0, b1, b2, b3 = b[-1]
        b.append((
            b0 + e0,
            b1 + d * b0 + e1,
            b2 + 2.0 * d * b1 + d * d * b0 + e2,
            b3 + 3.0 * d * b2 + 3.0 * d * d * b1 + d**3 * b0 + e3,
        ))
    return b


def _light_cone(params: CosmologyParams, edges):
    """Light-cone values at the Gauss nodes of the panels between edges in
    x = (H0 t)^(1/3), a numpy array with edges[0] = 0, in tau = H0 t and
    H0 eta: a, eta, C_2 and C_3, each of shape (panels, 16).

    eta at the nodes comes from the spectral integration matrix S
    (``gl_arrays()``) on each panel, and eta(hi) - eta from W - S, so it
    takes no difference of nearby values. C_2 and C_3 are each panel's own
    part, sum_l S[j][l] weight_l (eta_j - eta_l)^k, plus the moments of the
    panels before it, shifted (``_carry``).
    """
    import numpy as np

    _, gl_weights, gl_integration = gl_arrays()
    half, x = panel_nodes(edges)
    a = scale_factor(x**3 / params.h0, params)
    dtau = 3.0 * x * x  # dtau/dx
    weight = half * dtau * a**3  # a^3 dtau/dx, times the half width
    de = half * dtau / a  # d(eta)/dx, times the half width
    since_lo = de @ gl_integration.T  # eta(x_j) - eta(lo), per panel
    to_hi = de @ (gl_weights - gl_integration).T  # eta(hi) - eta(x_j)
    span = de @ gl_weights  # eta(hi) - eta(lo)
    eta = np.append(0.0, np.cumsum(span[:-1]))[:, None] + since_lo

    # each panel's own part of C_2, C_3 at its nodes, and of C_0..C_3 at its end
    lag = since_lo[:, :, None] - since_lo[:, None, :]
    own = weight[:, None, :] * gl_integration
    power = lag * lag  # lag^2, then lag^3 in place: no third (panels, 16, 16) array
    inside2 = np.einsum("pjl,pjl->pj", own, power)
    power *= lag
    inside3 = np.einsum("pjl,pjl->pj", own, power)
    ends = [weight * to_hi**k @ gl_weights for k in range(4)]
    b = _carry(span.tolist(), zip(*(e.tolist() for e in ends)))
    b0, b1, b2, b3 = (column[:-1, None] for column in np.array(b).T)
    c2 = inside2 + b2 + 2.0 * since_lo * b1 + since_lo**2 * b0
    c3 = inside3 + b3 + 3.0 * since_lo * b2 + 3.0 * since_lo**2 * b1 + since_lo**3 * b0
    return a, eta, c2, c3


def _light_cone_rows(params: CosmologyParams, edges: Sequence[float]):
    """``_light_cone`` in Python floats, for the k-factors, on a list of
    edges starting at 0: lists with one row of 16 node values per panel of
    a; the weight a^3 dtau/dx times the half width; eta(T) - eta, T at the
    last edge; C_2 and C_3. Then C_3 at the last edge, a float.

    The operations are ``_light_cone``'s, in its order, except that sums
    run in sequence, so the two agree to a few ulps. eta(T) - eta is summed
    from the panel's remaining part and the later panels.
    """
    h0 = params.h0
    if params.omega_lambda == 0.0:
        def scale(t):
            return (t / params.t_universe) ** (2.0 / 3.0)
    else:
        amp = (params.omega_m / params.omega_lambda) ** (1.0 / 3.0)

        def scale(t):
            return amp * math.sinh(t / params.t_lambda) ** (2.0 / 3.0)

    a, weight, since_lo, to_hi, spans, ends = [], [], [], [], [], []
    for lo, hi in zip(edges, edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        x = [mid + half * node for node in GL_NODE_LIST]
        a_p = [scale(xj**3 / h0) for xj in x]
        dtau = [half * (3.0 * xj * xj) for xj in x]  # times the half width
        weight_p = [d * aj**3 for d, aj in zip(dtau, a_p)]
        de = [d / aj for d, aj in zip(dtau, a_p)]
        to_hi_p = [sum(map(mul, de, row)) for row in _GL_REMAINDER_ROWS]
        a.append(a_p)
        weight.append(weight_p)
        since_lo.append([sum(map(mul, de, row)) for row in GL_INTEGRATION_ROWS])
        to_hi.append(to_hi_p)
        spans.append(sum(map(mul, de, GL_WEIGHT_LIST)))
        moments = (  # weight (eta(hi) - eta)^k, k = 0..3, to integrate over the panel
            weight_p,
            list(map(mul, weight_p, to_hi_p)),
            [w * (t * t) for w, t in zip(weight_p, to_hi_p)],
            [w * t**3 for w, t in zip(weight_p, to_hi_p)],
        )
        ends.append(tuple(sum(map(mul, m, GL_WEIGHT_LIST)) for m in moments))
    b = _carry(spans, ends)

    to_today, c2, c3, later = [], [], [], 0.0
    for p in reversed(range(len(spans))):  # eta(T) - eta(hi), from the last panel back
        to_today.append(list(map(later.__add__, to_hi[p])))
        later += spans[p]
    to_today.reverse()
    for (b0, b1, b2, b3), s_p, weight_p in zip(b, since_lo, weight):
        c2_p, c3_p = [], []
        for sj, row in zip(s_p, GL_INTEGRATION_ROWS):
            inside2 = inside3 = 0.0
            for own, sl in zip(map(mul, weight_p, row), s_p):
                lag = sj - sl
                lag2 = lag * lag
                inside2 += own * lag2
                inside3 += own * (lag2 * lag)
            c2_p.append(inside2 + b2 + 2.0 * sj * b1 + sj * sj * b0)
            c3_p.append(inside3 + b3 + 3.0 * sj * b2 + 3.0 * (sj * sj) * b1 + sj**3 * b0)
        c2.append(c2_p)
        c3.append(c3_p)
    return a, weight, to_today, c2, c3, b[-1][3]


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
    if x1 == x2:
        return 0.0
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
