"""Flat Lambda-CDM light-cone kernel.

Provides the scale factor, age of the universe, conformal-time and past
light-cone 4-volume tables, comoving distances, the 4-volume growth rate, and
the three dimensionless prefactors (k4u, k7u, k8u) that convert powers of
c/(H0 l) into operation counts for the universe-scale bounds.

All times are SI seconds internally (``k_integrals`` alone works in H0 t);
a(t) is normalized to 1 today. Radiation density is ignored. The matter-era
integrable singularity 1/a(t) ~ t^(-2/3) is removed by the substitution
u = t^(1/3): every table is sampled on a grid of u values, and integrands
are written as functions of u. The nested 4-volume integral

    V4(t2) = (4 pi / 3) * int_0^t2 a(t1)^3 [c (eta(t2) - eta(t1))]^3 dt1

is reduced to cumulative moment tables M_k(t) = int_0^t a^3 eta^k dt by
expanding the cube, so V4 and its time derivative are O(1) table lookups:

    V4(t)    = (4 pi / 3) c^3 (eta^3 M0 - 3 eta^2 M1 + 3 eta M2 - M3)
    V4dot(t) = 4 pi c^3 / a(t) * (eta^2 M0 - 2 eta M1 + M2)

k4u is the last V4 node. k7u and k8u read no table: ``k_integrals`` computes
them from the cosmology alone, on Gauss-Legendre panels with centered
moments that do not cancel, so they do not depend on the grid.

Early times: below the third node u2 (t = 1.0136e-24 T at 4096 nodes), where a
cubic cannot follow u^12, v4 and v4_rate return the matter-era power laws
V4 ~ u^12 and V4dot ~ u^9 through node 2. The Lambda correction there is
O((t/t_lambda)^2), below 1e-40.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .quadrature import (
    DEFAULT_MAX_PANELS,
    DEFAULT_REL_TOL,
    GL_INTEGRATION,
    GL_NODES,
    GL_WEIGHTS,
    CumulativeTable,
    QuadratureError,
    build_cumulative,
    interpolate,
    interpolate_shared,
)
from .errors import ConfigurationError, check_range
from .quantities import LOG2_SPEED_OF_LIGHT, MPC_IN_M, SPEED_OF_LIGHT

DEFAULT_GRID_POINTS = 4096
# Largest table accepted, twice the 65536-node reference grid; it takes
# seconds and a few hundred MB to build.
MAX_GRID_POINTS = 1 << 17

# Smallest tabulated time as a fraction of the age of the universe; in u this
# spans 8 decades, plenty for interpolation while keeping nodes log-dense.
_T_MIN_FRACTION = 1e-24

_REL_SLACK = 1.0 + 1e-12  # tolerate float noise when callers pass t = T_U


# H0^8 and (c/H0)^8 enter the k-factors and the universe bounds; with H0
# in [c / _H0_MAX, _H0_MAX] s^-1 (about 1e-10 to 3e57 km/s/Mpc) both stay
# below 1e304, well inside double range.
_H0_MAX = 1e38

_FLATNESS_TOL = 1e-9


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


def _early_coefficient(params: CosmologyParams) -> float:
    """Limit of a(t)/t^(2/3) as t -> 0 (matter-era expansion amplitude)."""
    if params.omega_lambda == 0.0:
        return params.t_universe ** (-2.0 / 3.0)
    amp = (params.omega_m / params.omega_lambda) ** (1.0 / 3.0)
    return amp * params.t_lambda ** (-2.0 / 3.0)


@dataclass(frozen=True)
class LightconeTables:
    """Sampled light-cone integrals for one cosmology, keyed by u = t^(1/3).

    eta accumulates conformal time int dt/a (seconds); v4 holds the past
    light-cone 4-volume (m^3 s). moments holds the four cumulative integrals
    of a^3 eta^k (k = 0..3) that v4, v4_rate and the k-factors are assembled
    from. eta and the moments share one grid (equal abscissae), so v4_rate
    finds its node once for all four. Precomputed: k4u = H0^4 V4(T) / c^3, the
    last v4 node, and k7u, k8u from ``k_integrals``, which reads no table.

    log2_k maps each universe exponent p (4, 7, 8) to log2 K of the law
    N_ops = K / l^p, K = k_p (c/H0)^p. It is derived once, here, from the
    k-factors and H0; the universe scenarios' power laws read it.
    """

    params: CosmologyParams
    eta: CumulativeTable
    v4: CumulativeTable
    moments: Tuple[CumulativeTable, CumulativeTable, CumulativeTable, CumulativeTable]
    k4u: float
    k7u: float
    k8u: float
    log2_k: Dict[int, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        log2_c_over_h0 = LOG2_SPEED_OF_LIGHT - math.log2(self.params.h0)
        object.__setattr__(self, "log2_k", {
            p: math.log2(k_p) + p * log2_c_over_h0
            for p, k_p in ((4, self.k4u), (7, self.k7u), (8, self.k8u))
        })

    @property
    def u_max(self) -> float:
        return self.eta.abscissae[-1]


def build_tables(
    params: CosmologyParams,
    rel_tol: float = DEFAULT_REL_TOL,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> LightconeTables:
    """Build the conformal-time, moment and 4-volume tables over [0, T].

    The tables hold grid_points log-spaced u nodes plus the u = 0 anchor.
    Each panel integral meets rel_tol. k4u is the last V4 node; k7u and k8u
    come from ``k_integrals`` at rel_tol and do not depend on grid_points.
    A cosmology whose tables overflow or whose V4 nodes lose rel_tol to
    cancellation is a ConfigurationError.
    """
    check_range("grid_points", grid_points, 16, MAX_GRID_POINTS, low_inclusive=True)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return _tabulate(params, rel_tol, grid_points)
    except (ArithmeticError, ValueError) as exc:
        raise ConfigurationError(
            f"H0={params.h0!r} s^-1, omega_m={params.omega_m!r}, omega_lambda="
            f"{params.omega_lambda!r}: the light-cone tables cannot be computed in doubles ({exc})"
        ) from exc


def _tabulate(params: CosmologyParams, rel_tol: float, grid_points: int) -> LightconeTables:
    c = SPEED_OF_LIGHT
    u_max = params.t_universe ** (1.0 / 3.0)
    grid = np.concatenate(
        [[0.0], np.geomspace(u_max * _T_MIN_FRACTION ** (1.0 / 3.0), u_max, grid_points)]
    )
    # integrands are evaluated on inner; the u = 0 anchor takes their limits
    inner = grid[1:]

    def a(u):
        return scale_factor(u**3, params)

    def eta_integrand(u):
        return 3.0 * u * u / a(u)

    eta_derivs = np.concatenate([[3.0 / _early_coefficient(params)], eta_integrand(inner)])
    eta = build_cumulative(eta_integrand, grid, rel_tol, node_derivatives=eta_derivs)

    def moment_integrands(u):
        """The four rows 3 u^2 a^3 eta^k, k = 0..3, filled in place."""
        rows = np.empty((4,) + u.shape)
        rows[0] = 3.0 * u * u * a(u) ** 3
        e = interpolate(eta, u)
        for k in (1, 2, 3):
            np.multiply(rows[0], e**k, out=rows[k])
        return rows

    # 3 u^2 a^3 eta^k, dV4/dt and dV4/du all vanish at u = 0
    moment_derivs = np.zeros((4, grid.size))
    moment_derivs[:, 1:] = moment_integrands(inner)
    moments = build_cumulative(moment_integrands, grid, rel_tol, node_derivatives=moment_derivs)

    eta_n = eta.values
    m0, m1, m2, m3 = (m.values for m in moments)
    terms = np.stack([eta_n**3 * m0, 3.0 * eta_n**2 * m1, 3.0 * eta_n * m2, m3])
    cube = terms[0] - terms[1] + terms[2] - terms[3]
    # The sum's rounding error is at least 2^-53 of its largest term; where
    # that exceeds rel_tol of the sum (or the sum is not positive), v4 has
    # cancelled beyond the tolerance asked of it.
    cancelled = np.flatnonzero(2.0**-53 * terms[:, 1:].max(axis=0) > rel_tol * cube[1:])
    if cancelled.size:
        i = cancelled[0] + 1
        raise ConfigurationError(
            f"cancellation leaves V4 short of rel_tol={rel_tol!r} at t={float(grid[i]) ** 3!r} "
            f"s: its four terms, the largest {float(terms[:, i].max())!r}, sum to "
            f"{float(cube[i])!r}"
        )
    v4_nodes = (4.0 * math.pi / 3.0) * c**3 * cube
    v4_derivs = np.zeros_like(grid)  # dV4/du = 3 u^2 dV4/dt
    v4_derivs[1:] = 3.0 * inner**2 * _v4_rate(eta_n[1:], m0[1:], m1[1:], m2[1:], a(inner))
    v4 = CumulativeTable(grid, v4_nodes, v4_derivs)

    k7u, k8u = k_integrals(params, rel_tol)
    return LightconeTables(
        params, eta, v4, moments, k4u=float(params.h0**4 * v4_nodes[-1] / c**3), k7u=k7u, k8u=k8u
    )


def k_integrals(params: CosmologyParams, rel_tol: float) -> Tuple[float, float]:
    """(k7u, k8u) to rel_tol from the cosmology alone, d(t, T) = c (eta(T) - eta(t)):

    k7u = (4 pi H0^7 / 3 c^6) int_0^T a^3(t) d^3(t, T) V4dot(t) dt
    k8u = (4 pi H0^8 / 3 c^6) int_0^T V4(t) a^3(t) d^3(t, T) dt

    Everything is computed at the nodes of equal 16-point Gauss-Legendre
    panels in x = (H0 t)^(1/3), where every quantity is dimensionless and of
    order one. eta at the nodes comes from the spectral integration matrix
    (``GL_INTEGRATION``) on each panel; eta(T) - eta(t) is summed from the
    panel's remaining part and the later panels, so d(t, T) takes no
    difference of nearby values. The centered moments
    C_k(t) = int_0^t a^3 (eta(t) - eta)^k dt, k = 2 and 3, are carried from
    panel to panel by the binomial shift (Chan, Golub & LeVeque, Am. Stat. 37
    (1983) 242), whose terms are all non-negative; V4 = (4 pi / 3) c^3 C_3 and
    V4dot = 4 pi c^3 C_2 / a, so neither cancels. k7u and k8u are then
    composite Gauss-Legendre sums.

    The panel count starts at 4 and doubles until two successive results
    agree within rel_tol; the finer one is returned. The convergence is
    spectral, so the finer result is far closer than that shift: at 8 panels
    the matter-only closed form is met to about 2e-15. If the next count
    would pass DEFAULT_MAX_PANELS, a QuadratureError carries the last
    estimate [k7u, k8u], and its message shows that estimate.
    """
    check_range("rel_tol", rel_tol, 0.0, 1e-2)
    panels, shift = 4, math.inf
    k = _k_sums(params, panels)
    while shift > rel_tol:
        if 2 * panels > DEFAULT_MAX_PANELS:
            estimate = list(k)
            raise QuadratureError(
                f"k7u and k8u: no convergence after {panels} panels: estimate {estimate!r}, "
                f"achieved relative tolerance {shift:.3e}, needs {rel_tol:.3e}",
                estimate=estimate,
                achieved_rel_tol=shift,
            )
        panels *= 2
        coarse, k = k, _k_sums(params, panels)
        shift = max(abs(f - c) / f for f, c in zip(k, coarse))
    return k


def _k_sums(params: CosmologyParams, panels: int) -> Tuple[float, float]:
    """k7u and k8u from ``panels`` equal Gauss-Legendre panels (see
    ``k_integrals``). Time is tau = H0 t and conformal time H0 eta; the
    light-cone prefactors in c and H0 then cancel."""
    edges = np.linspace(0.0, (params.h0 * params.t_universe) ** (1.0 / 3.0), panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * GL_NODES
    a = scale_factor(x**3 / params.h0, params)
    dtau = 3.0 * x * x  # dtau/dx
    weight = half * dtau * a**3  # a^3 dtau/dx, times the half width
    de = half * dtau / a  # d(eta)/dx, times the half width
    since_lo = de @ GL_INTEGRATION.T  # eta(x_j) - eta(lo), per panel
    to_hi = de @ (GL_WEIGHTS - GL_INTEGRATION).T  # eta(hi) - eta(x_j)
    span = de @ GL_WEIGHTS  # eta(hi) - eta(lo)
    later = np.append(np.cumsum(span[:0:-1])[::-1], 0.0)  # eta(T) - eta(hi)
    to_today = later[:, None] + to_hi

    # each panel's own part of C_2, C_3 at its nodes, and of C_0..C_3 at its end
    lag = since_lo[:, :, None] - since_lo[:, None, :]
    own = weight[:, None, :] * GL_INTEGRATION
    inside2 = np.einsum("pjl,pjl->pj", own, lag**2)
    inside3 = np.einsum("pjl,pjl->pj", own, lag**3)
    ends = [weight * to_hi**k @ GL_WEIGHTS for k in range(4)]
    # B[p] = C_0..C_3 centered at panel p's lower edge, carried by the binomial shift
    b = np.zeros((panels, 4))
    for p in range(panels - 1):
        b0, b1, b2, b3 = b[p]
        d = span[p]
        b[p + 1] = (
            b0 + ends[0][p],
            b1 + d * b0 + ends[1][p],
            b2 + 2.0 * d * b1 + d * d * b0 + ends[2][p],
            b3 + 3.0 * d * b2 + 3.0 * d * d * b1 + d**3 * b0 + ends[3][p],
        )
    b0, b1, b2, b3 = (column[:, None] for column in b.T)
    c2 = inside2 + b2 + 2.0 * since_lo * b1 + since_lo**2 * b0
    c3 = inside3 + b3 + 3.0 * since_lo * b2 + 3.0 * since_lo**2 * b1 + since_lo**3 * b0
    cone = weight * to_today**3
    k7 = (16.0 * math.pi**2 / 3.0) * float(np.sum(cone / a * c2 @ GL_WEIGHTS))
    k8 = (16.0 * math.pi**2 / 9.0) * float(np.sum(cone * c3 @ GL_WEIGHTS))
    return k7, k8


def _v4_rate(e, m0, m1, m2, a):
    """dV4/dt from eta, the first three moments and a at one time (or array)."""
    return 4.0 * math.pi * SPEED_OF_LIGHT**3 / a * (e * e * m0 - 2.0 * e * m1 + m2)


def _checked_u(t: float, tables: LightconeTables, name: str = "t") -> float:
    t_max = tables.params.t_universe
    if not 0.0 <= t <= t_max * _REL_SLACK:
        raise ValueError(f"{name}={t!r} outside the tabulated range [0, {t_max!r}]")
    return min(float(t) ** (1.0 / 3.0), tables.u_max)


def comoving_distance(t1: float, t2: float, tables: LightconeTables) -> float:
    """d(t1, t2) = c * (eta(t2) - eta(t1)) in meters, 0 <= t1 <= t2 <= T."""
    if t1 > t2:
        raise ValueError(f"t1={t1!r} must not exceed t2={t2!r}")
    u1 = _checked_u(t1, tables, "t1")
    u2 = _checked_u(t2, tables, "t2")
    if u1 == u2:
        return 0.0
    return SPEED_OF_LIGHT * float(interpolate(tables.eta, u2) - interpolate(tables.eta, u1))


def v4(t2: float, tables: LightconeTables) -> float:
    """Past light-cone 4-volume V4(t2) in m^3 s, from the sampled table.

    Below the third node u2 it is the matter-era law V4 ~ t^4 = u^12 through
    node 2 (see the module docstring).
    """
    u = _checked_u(t2, tables, "t2")
    u2 = tables.v4.abscissae[2]
    if u < u2:
        return float(tables.v4.values[2] * (u / u2) ** 12)
    return float(interpolate(tables.v4, u))


def v4_rate(t2: float, tables: LightconeTables) -> float:
    """dV4/dt at t2 in m^3, assembled from the moment tables.

    Below the third node u2 it is the matter-era law dV4/dt ~ t^3 = u^9
    through node 2, which gives 0 at t2 = 0 (see the module docstring).
    Above it, eta and the first three moments are read with one node search
    (``interpolate_shared``), bit-identical to four ``interpolate`` calls.
    """
    u = _checked_u(t2, tables, "t2")
    u2 = tables.v4.abscissae[2]
    if u < u2:
        return float(tables.v4.derivatives[2] / (3.0 * u2 * u2) * (u / u2) ** 9)
    e, m0, m1, m2 = interpolate_shared((tables.eta, *tables.moments[:3]), float(u))
    return _v4_rate(e, m0, m1, m2, scale_factor(u**3, tables.params))
