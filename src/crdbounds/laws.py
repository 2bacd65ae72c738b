"""The universe laws: flat Lambda-CDM parameters and the k-factors, in Python floats.

``CosmologyParams`` checks a cosmology and derives its timescales; the three
dimensionless prefactors k4u, k7u and k8u convert powers of c/(H0 l) into
operation counts for the universe-scale bounds, and ``universe_laws`` makes
them the laws N_ops = K / l^p that every CLI verb reads. Nothing here
imports numpy; the lookup tables over the whole light cone are
``cosmology``'s.

Times are SI seconds at the interface, and a(t) is normalized to 1 today;
radiation density is ignored. Inside, everything is computed in tau = H0 t
on 16-node Gauss-Legendre panels in x = tau^(1/3), a substitution that
removes the matter-era integrable singularity 1/a(t) ~ t^(-2/3).
``_light_cone_rows`` gives, at every node, a, the conformal time
eta = int_0^t dt1 / a and the centered moments

    C_k(t) = int_0^t a(t1)^3 (eta(t) - eta(t1))^k dt1,   k = 2, 3,

carried from panel to panel by the binomial shift (``_carry``; Chan, Golub &
LeVeque, Am. Stat. 37 (1983) 242), whose terms are all non-negative, so
nothing cancels. The 4-volume and its time derivative are

    V4(t)    = (4 pi / 3) c^3 C_3(t)
    V4dot(t) = 4 pi c^3 C_2(t) / a(t)

and ``k_integrals`` evaluates the k-factors from them on equal panels.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, List, Sequence, Tuple

from ._gauss16 import GL_INTEGRATION_ROWS, GL_NODE_LIST, GL_REMAINDER_ROWS, GL_WEIGHT_LIST
from .errors import ConfigurationError, QuadratureError, _Record, check_range
from .quantities import LOG2_SPEED_OF_LIGHT, MPC_IN_M, SPEED_OF_LIGHT

# The defaults of the k-factors and of ``quadrature.integrate``.
DEFAULT_REL_TOL = 1e-9
DEFAULT_MAX_PANELS = 4096

# H0^8 and (c/H0)^8 enter the k-factors and the universe bounds; with H0
# in [c / _H0_MAX, _H0_MAX] s^-1 (about 1e-10 to 3e57 km/s/Mpc) both stay
# below 1e304, well inside double range.
_H0_MAX = 1e38

_FLATNESS_TOL = 1e-9


class CosmologyParams(_Record):
    """Flat Lambda-CDM parameters with derived timescales.

    h0 is in s^-1 (use ``create`` to convert from km/s/Mpc). t_lambda is the
    dark-energy timescale 2/(3 H0 sqrt(Omega_L)), infinite in the matter-only
    limit; t_universe solves a(t) = 1: t_lambda asinh(sqrt(Omega_L / Omega_M)),
    or 2/(3 H0) in that limit. Both are derived here, after the inputs are
    checked, and compare and show like the inputs; this is the only place
    cosmological inputs are validated.
    """

    _fields = ("h0", "omega_m", "omega_lambda")
    _shown = ("t_lambda", "t_universe")
    __slots__ = _fields + _shown

    def _check(self):
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
        if self.omega_lambda == 0.0:  # the limit, without t_lambda's 0 * inf
            t_lambda, t_universe = math.inf, 2.0 / (3.0 * self.h0)
        else:
            t_lambda = 2.0 / (3.0 * self.h0 * math.sqrt(self.omega_lambda))
            t_universe = t_lambda * math.asinh(math.sqrt(self.omega_lambda / self.omega_m))
        check_range("t_universe (s)", t_universe)
        object.__setattr__(self, "t_lambda", t_lambda)
        object.__setattr__(self, "t_universe", t_universe)

    @classmethod
    def create(cls, h0_km_s_mpc: float, omega_m: float, omega_lambda: float) -> "CosmologyParams":
        return cls(h0_km_s_mpc * 1e3 / MPC_IN_M, omega_m, omega_lambda)


class UniverseLaws(_Record):
    """One cosmology's k-factors from ``k_integrals``, which reads no table,
    and k_shift, each one's relative shift between its last two panel counts.
    log2_k, derived once, here, and left out of equality and repr, maps each
    universe exponent p (4, 7, 8) to log2 K of the law N_ops = K / l^p,
    K = k_p (c/H0)^p, which the universe scenarios' power laws read.
    """

    _fields = ("params", "k4u", "k7u", "k8u", "k_shift")
    __slots__ = _fields + ("log2_k",)

    def _check(self):
        log2_c_over_h0 = LOG2_SPEED_OF_LIGHT - math.log2(self.params.h0)
        object.__setattr__(self, "log2_k", {
            p: math.log2(k_p) + p * log2_c_over_h0
            for p, k_p in ((4, self.k4u), (7, self.k7u), (8, self.k8u))
        })


def universe_laws(params: CosmologyParams, rel_tol: float = DEFAULT_REL_TOL) -> UniverseLaws:
    """UniverseLaws from ``k_integrals`` at rel_tol; out of double range, a ConfigurationError."""
    k, k_shift = _in_double_range(params, lambda: k_integrals(params, rel_tol))
    return UniverseLaws(params, *k, k_shift)


def _in_double_range(params: CosmologyParams, compute):
    """compute(); a float error (ArithmeticError) or ValueError it raises becomes a ConfigurationError."""
    try:
        return compute()
    except (ArithmeticError, ValueError) as exc:
        raise ConfigurationError(
            f"H0={params.h0!r} s^-1, omega_m={params.omega_m!r}, omega_lambda="
            f"{params.omega_lambda!r}: the light cone cannot be computed ({exc})"
        ) from exc


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
    convergence is spectral, so its truncation error is far below that
    shift, but its rounding error is not: at 8 panels the matter-only closed
    form is met to 8.3e-16 at worst (k8u), above k8u's shift of 6.3e-16
    (tests/test_kfactor_accuracy.py, against the closed form at 40 digits).
    No sum on this path is the builtin ``sum``, whose rounding changed in
    Python 3.12, so the bits are the same on every Python.
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


def _fsum(terms: Iterable[float]) -> float:
    """math.fsum, or inf where fsum refuses: infinite terms of both signs, or
    a sum that leaves double range (panels too coarse for the cosmology)."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.inf


def _scale_law(params: CosmologyParams, sinh=math.sinh):
    """The function a(t), t in seconds: (Omega_M/Omega_L)^(1/3)
    sinh^(2/3)(t / t_lambda), so a(today) = 1, or the matter-only limit
    (t / T)^(2/3). sinh is ``math.sinh`` for floats, ``numpy.sinh`` for
    arrays."""
    if params.omega_lambda == 0.0:
        return lambda t: (t / params.t_universe) ** (2.0 / 3.0)
    amp = (params.omega_m / params.omega_lambda) ** (1.0 / 3.0)
    return lambda t: amp * sinh(t / params.t_lambda) ** (2.0 / 3.0)


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


def _light_cone_rows(params: CosmologyParams, edges: Sequence[float]):
    """The light cone on a list of edges in x starting at 0: lists with one
    row of 16 node values per panel of a; the weight a^3 dtau/dx times the
    half width; eta(T) - eta, T at the last edge; C_2 and C_3. Then C_3 at
    the last edge, a float.

    eta at the nodes comes from the spectral integration matrix S
    (``GL_INTEGRATION_ROWS``) on each panel, and eta(hi) - eta from W - S
    (``GL_REMAINDER_ROWS``), so it takes no difference of nearby values;
    eta(T) - eta adds the later panels. C_2 and C_3 are each panel's own
    part, sum_l S[j][l] weight_l (eta_j - eta_l)^k, plus the moments of the
    panels before it, shifted (``_carry``). The products with S, W - S and
    W are added by ``_fsum``, exactly rounded, as are the k-factors' sums,
    so no bit depends on the Python version (the builtin ``sum`` compensates
    from 3.12 on and did not before). ``cosmology._light_cone`` runs
    the same operations, in this order, on numpy arrays, except that its
    sums are numpy's, so the two agree to a few ulps.
    """
    h0, scale = params.h0, _scale_law(params)
    a, weight, since_lo, to_hi, spans, ends = [], [], [], [], [], []
    for lo, hi in zip(edges, edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        x = [mid + half * node for node in GL_NODE_LIST]
        a_p = [scale(xj**3 / h0) for xj in x]
        dtau = [half * (3.0 * xj * xj) for xj in x]  # times the half width
        weight_p = [d * aj**3 for d, aj in zip(dtau, a_p)]
        de = [d / aj for d, aj in zip(dtau, a_p)]
        to_hi_p = [_fsum(map(mul, de, row)) for row in GL_REMAINDER_ROWS]
        a.append(a_p)
        weight.append(weight_p)
        since_lo.append([_fsum(map(mul, de, row)) for row in GL_INTEGRATION_ROWS])
        to_hi.append(to_hi_p)
        spans.append(_fsum(map(mul, de, GL_WEIGHT_LIST)))
        moments = (  # weight (eta(hi) - eta)^k, k = 0..3, to integrate over the panel
            weight_p,
            list(map(mul, weight_p, to_hi_p)),
            [w * (t * t) for w, t in zip(weight_p, to_hi_p)],
            [w * t**3 for w, t in zip(weight_p, to_hi_p)],
        )
        ends.append(tuple(_fsum(map(mul, m, GL_WEIGHT_LIST)) for m in moments))
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
