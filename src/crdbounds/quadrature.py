"""Deterministic adaptive quadrature and cumulative-integral tables.

Integration uses a fixed-order Gauss-Legendre rule per panel with global
adaptive bisection: the panel with the largest error estimate is split until
the summed estimate meets the requested relative tolerance. Node placement is
a pure function of the inputs, so results are bit-identical across runs on a
given platform.

Integrands must be vectorized: ``f(x)`` receives a 1-d numpy array and returns
an array of the same shape. ``integrate`` and ``build_cumulative`` also accept
an integrand that returns one row per component, shape ``(R, x.size)``:
``integrate`` refines all R integrals in one adaptive pass, and
``build_cumulative`` tabulates all R running integrals from the same
evaluations. Panel endpoints are never evaluated, which makes integrable
endpoint singularities (after a suitable substitution) safe.

``interpolate`` evaluates one monotone cubic per node in power form. A Python
``float`` or ``int`` takes a scalar branch with no numpy array work: the
table's nodes and coefficient rows are converted to Python lists on its
first scalar lookup (``CumulativeTable._scalar_rows``), and the node is found
by ``bisect``. The branch does the array path's operations in the same order,
so its results are bit-identical to it, in a few microseconds per call.
``interpolate_shared`` does the same for several tables on one grid, with one
``bisect`` for all of them.

``GL_NODES`` and ``GL_WEIGHTS`` are the 16-point Gauss-Legendre rule on
[-1, 1]; ``GL_INTEGRATION`` is its spectral integration matrix, S[j][l] the
integral of the l-th Lagrange basis polynomial of the nodes from -1 to node j
(Greengard, SIAM J. Numer. Anal. 28 (1991) 1071), so ``S @ f`` is the running
integral of f at the nodes, exact for polynomials of degree 15 or less.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legval, legvander

from .errors import check_range

_GL_ORDER = 16
GL_NODES, GL_WEIGHTS = leggauss(_GL_ORDER)
# Column l holds the Legendre coefficients of the l-th Lagrange basis
# polynomial, (n + 1/2) w_l P_n(x_l) for n = 0..15 (the rule is exact for it)
_LAGRANGE_IN_LEGENDRE = (
    legvander(GL_NODES, _GL_ORDER - 1).T * (np.arange(_GL_ORDER)[:, None] + 0.5) * GL_WEIGHTS
)
GL_INTEGRATION = legval(GL_NODES, legint(_LAGRANGE_IN_LEGENDRE, lbnd=-1)).T

# The bisection error estimate |I_halves - I_whole| tracks the error of the
# *coarse* value; the refined value kept is far better. A singular panel is the
# exception (self-similar refinement), where the estimate can trail the true
# residual by a small factor, hence the safety margin on acceptance.
_SAFETY = 0.1
_ABS_FLOOR = 1e-300

DEFAULT_REL_TOL = 1e-9
DEFAULT_MAX_PANELS = 4096

# build_cumulative's vectorised pass takes at most this many panels per
# integrand call, which caps a 32768-node build at 49 MB of arrays instead of
# 90 MB; tables of up to 16384 nodes are one batch. Smaller batches save more
# memory but make later builds refault the heap glibc trims (8192 panels:
# 8192-node builds about 20% slower). Keep it a power of two: BLAS sums the
# last (rows mod 4) rows of a matrix-vector product by another path, so a
# power of two gives every panel the same double as one batch does (a batch
# of 5 panels does not).
_BATCH_PANELS = 16384

Integrand = Callable[[np.ndarray], np.ndarray]


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of panels before reaching tolerance.

    Carries the partial estimate (a list of row values for an integrand with
    rows) and the relative tolerance actually achieved.
    """

    def __init__(self, message: str, estimate: Union[float, List[float]], achieved_rel_tol: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_rel_tol = achieved_rel_tol


def _check_rel_tol(rel_tol: float) -> None:
    check_range("rel_tol", rel_tol, 0.0, 1e-2)


def _panel_sums(f: Integrand, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre estimates for a batch of intervals, one f call total.

    Returns shape (P,) for P intervals, or (R, P) if f returns R rows.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * GL_NODES[None, :]
    values = np.asarray(f(nodes.ravel()), dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("integrand returned a non-finite value inside the interval")
    sums = values.reshape(-1, _GL_ORDER) @ GL_WEIGHTS
    return half * sums.reshape(values.shape[:-1] + half.shape)


def integrate(
    f: Integrand,
    a: float,
    b: float,
    rel_tol: float = DEFAULT_REL_TOL,
    max_panels: int = DEFAULT_MAX_PANELS,
):
    """Integrate f over [a, b] to a relative tolerance.

    The returned value I satisfies |I - integral| <= rel_tol*|I| + 1e-300 for
    integrands the refinement can resolve; if ``max_panels`` panels are
    exhausted first a QuadratureError carrying the partial estimate is raised.

    If f returns R rows, shape (R, x.size), the rows share one adaptive pass
    and the result is an array of R integrals. The tolerance then holds in
    the max norm over rows: every row's error is within rel_tol times the
    largest row's magnitude, and the panel split next is the one with the
    largest error in any row. Rows should be scaled alike; a row much smaller
    than the largest is held to the largest's scale. With one row this is the
    bound above, and the result is a float.
    """
    _check_rel_tol(rel_tol)
    check_range("lower integration bound", a, -math.inf)
    check_range("upper integration bound", b, -math.inf)
    if a > b:
        raise ValueError(f"integration bounds out of order: a={a!r} > b={b!r}")
    if a == b:
        return 0.0

    mid = 0.5 * (a + b)
    # transposed, each interval's sum is a float, or its R row sums
    whole, left, right = _panel_sums(f, np.array([a, a, mid]), np.array([b, mid, b])).T
    total = left + right
    err = abs(total - whole)
    total_err = err.copy()  # updated in place; err stays with its heap entry
    # heap entries: (-largest row error, lo, hi, coarse value of each half, row errors)
    heap = [(-err.max(), a, b, left, right, err)]
    panels = 1

    while total_err.max() > _SAFETY * (rel_tol * abs(total).max() + _ABS_FLOOR):
        _, lo, hi, v_left, v_right, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # interval has collapsed to float resolution
            total_err -= err
            continue
        lo_mid = 0.5 * (lo + mid)
        mid_hi = 0.5 * (mid + hi)
        quarters = _panel_sums(
            f,
            np.array([lo, lo_mid, mid, mid_hi]),
            np.array([lo_mid, mid, mid_hi, hi]),
        ).T
        refined_left = quarters[0] + quarters[1]
        refined_right = quarters[2] + quarters[3]
        err_left = abs(refined_left - v_left)
        err_right = abs(refined_right - v_right)
        total += (refined_left + refined_right) - (v_left + v_right)
        total_err += (err_left + err_right) - err
        heapq.heappush(heap, (-err_left.max(), lo, mid, quarters[0], quarters[1], err_left))
        heapq.heappush(heap, (-err_right.max(), mid, hi, quarters[2], quarters[3], err_right))
        panels += 1
        if panels > max_panels:
            scale = abs(total).max()
            achieved = float(total_err.max() / scale) if scale != 0.0 else math.inf
            estimate = total.tolist()
            raise QuadratureError(
                f"no convergence after {max_panels} panels on [{a}, {b}]: "
                f"estimate {estimate!r}, achieved relative tolerance {achieved:.3e}, "
                f"needs {_SAFETY * rel_tol:.3e} ({_SAFETY:g} times the requested {rel_tol:.3e})",
                estimate=estimate,
                achieved_rel_tol=achieved,
            )
    return float(total) if np.ndim(total) == 0 else total


@dataclass(frozen=True, eq=False)  # identity semantics: fields hold arrays
class CumulativeTable:
    """A sampled running integral: values[i] accumulates from abscissae[0].

    Abscissae are strictly increasing; ``derivatives`` optionally stores the
    integrand at the nodes, which upgrades interpolation from slope-estimated
    monotone cubics to Hermite cubics with exact nodal slopes. Every node,
    value and derivative must be finite (a ConfigurationError otherwise). The
    cubic's coefficients are computed once, here.
    """

    abscissae: np.ndarray
    values: np.ndarray
    derivatives: Optional[np.ndarray] = None
    # shape (4, nodes): see _hermite_coefficients
    _coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.abscissae, dtype=float)
        y = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("abscissae must be a 1-d array of length >= 2")
        if y.shape != x.shape:
            raise ValueError("values must match abscissae in length")
        if not np.all(np.diff(x) > 0.0):
            raise ValueError("abscissae must be strictly increasing")
        d = self.derivatives
        if d is not None:
            d = np.asarray(d, dtype=float)
            if d.shape != x.shape:
                raise ValueError("derivatives must match abscissae in length")
            d.setflags(write=False)
        for name, column in (("abscissae", x), ("values", y), ("derivatives", d)):
            if column is not None:
                check_range(name, column, -math.inf)
        x.setflags(write=False)
        y.setflags(write=False)
        coefficients = _hermite_coefficients(x, y, d)
        coefficients.setflags(write=False)
        object.__setattr__(self, "abscissae", x)
        object.__setattr__(self, "values", y)
        object.__setattr__(self, "derivatives", d)
        object.__setattr__(self, "_coefficients", coefficients)

    @cached_property
    def _scalar_rows(self) -> Tuple[list, list, list, list, list]:
        """Nodes and coefficient rows (c0, c1, c2, c3) as Python lists, built on
        the first scalar lookup (cached in the instance dict; the class has no
        ``__slots__``, so this works on the frozen dataclass)."""
        c3, c2, c1, c0 = self._coefficients.tolist()
        return self.abscissae.tolist(), c0, c1, c2, c3


def _monotone_slopes(h: np.ndarray, secants: np.ndarray, derivs: Optional[np.ndarray]) -> np.ndarray:
    """Nodal slopes clamped into the Fritsch-Carlson box, so the cubic is
    monotone wherever the data are (Fritsch & Carlson, SIAM J. Numer. Anal.
    17 (1980) 238-246).

    The slopes are ``derivs`` if given, else the PCHIP estimate: the
    Fritsch-Butland weighted harmonic mean of the adjacent secants inside, a
    one-sided three-point formula at the ends. The clamp is zero where the
    adjacent secants differ in sign, else [0, 3 min|secant|] in their
    direction.
    """
    if derivs is None:
        if h.size == 1:  # two nodes: the straight line
            return np.repeat(secants, 2)
        derivs = np.empty(h.size + 1)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):  # zero secants are clamped below
            derivs[1:-1] = 1.0 / ((w1 / secants[:-1] + w2 / secants[1:]) / (w1 + w2))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], secants[[0, -1]], secants[[1, -2]]
        derivs[[0, -1]] = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    left = np.concatenate([secants[:1], secants])
    right = np.concatenate([secants, secants[-1:]])
    sign = np.sign(right)
    cap = np.where(np.sign(left) == sign, 3.0 * np.minimum(np.abs(left), np.abs(right)), 0.0)
    with np.errstate(invalid="ignore"):
        return np.where(cap > 0.0, sign * np.clip(sign * derivs, 0.0, cap), 0.0)


def _hermite_coefficients(x: np.ndarray, y: np.ndarray, derivs: Optional[np.ndarray]) -> np.ndarray:
    """Rows (c3, c2, c1, c0) per node i: the cubic c0 + c1 s + c2 s^2 + c3 s^3
    in s = x - x_i on [x_i, x_i+1]. The last node gets its own constant cubic,
    so evaluation at s = 0 returns every stored value exactly.

    These coefficient formulas and the power-form sum in ``interpolate``
    (rather than Horner's rule) keep every table and k-factor bit-identical
    to the compiled piecewise-polynomial evaluation they were validated with.
    """
    h = np.diff(x)
    secants = np.diff(y) / h
    d = _monotone_slopes(h, secants, derivs)
    curvature = (d[:-1] + d[1:] - 2.0 * secants) / h
    zero = np.zeros(1)
    return np.stack([
        np.concatenate([curvature / h, zero]),
        np.concatenate([(secants - d[:-1]) / h - curvature, zero]),
        np.concatenate([d[:-1], zero]),
        y,
    ])


def build_cumulative(
    f: Integrand,
    grid: Sequence[float],
    rel_tol: float = DEFAULT_REL_TOL,
    node_derivatives: Optional[Sequence[float]] = None,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> Union[CumulativeTable, Tuple[CumulativeTable, ...]]:
    """Running integral of f over a strictly increasing grid.

    Each grid panel is integrated to rel_tol; values[0] = 0. A fast vectorized
    pass handles panels the base rule already resolves, and only stubborn
    panels fall back to full adaptive refinement.

    If f returns R rows, the result is a tuple of R tables, and
    ``node_derivatives`` (if given) has one row per table.
    """
    _check_rel_tol(rel_tol)
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 2 or not np.all(np.diff(x) > 0.0):
        raise ValueError("grid must be strictly increasing with at least 2 points")
    check_range("grid", x, -math.inf)

    lo, hi = x[:-1], x[1:]
    mid = 0.5 * (lo + hi)
    whole, refined = [], []  # per batch of panels, see _BATCH_PANELS
    for start in range(0, lo.size, _BATCH_PANELS):
        b = slice(start, start + _BATCH_PANELS)
        whole.append(_panel_sums(f, lo[b], hi[b]))
        halves = _panel_sums(f, np.concatenate([lo[b], mid[b]]), np.concatenate([mid[b], hi[b]]))
        left, right = np.split(halves, 2, axis=-1)
        refined.append(left + right)
    whole = np.concatenate(whole, axis=-1)
    refined = np.concatenate(refined, axis=-1)
    err = np.abs(refined - whole)
    needs_work = err > _SAFETY * (rel_tol * np.abs(refined) + _ABS_FLOOR)
    rows = refined.reshape(-1, lo.size)  # a view: writes land in refined
    for r, i in zip(*np.nonzero(needs_work.reshape(rows.shape))):

        def row(u, r=r):
            return np.asarray(f(u), dtype=float).reshape(len(rows), -1)[r]

        try:
            rows[r, i] = integrate(row, lo[i], hi[i], rel_tol, max_panels)
        except QuadratureError as exc:
            raise QuadratureError(
                f"panel {i} ([{float(lo[i])!r}, {float(hi[i])!r}]) failed: {exc}",
                estimate=exc.estimate,
                achieved_rel_tol=exc.achieved_rel_tol,
            ) from exc
    values = np.concatenate([np.zeros_like(refined[..., :1]), np.cumsum(refined, axis=-1)], axis=-1)
    if values.ndim == 1:
        return CumulativeTable(x, values, node_derivatives)
    derivs = [None] * len(values) if node_derivatives is None else node_derivatives
    return tuple(CumulativeTable(x, v, d) for v, d in zip(values, derivs, strict=True))


def interpolate(table: CumulativeTable, x: Union[float, np.ndarray]):
    """Monotone cubic interpolation of a table; exact at the stored nodes.

    x (scalar or array) must lie within [first, last] abscissa. Each point
    takes the cubic of the last node at or below it and sums
    c0 + c1 s + c2 s^2 + c3 s^3 in s = x - x_i, in that order. A Python
    ``float`` or ``int`` (``np.float64`` included) returns a float from the
    scalar branch: ``bisect`` over the table's lazily built lists and Python
    float arithmetic in the same operation order, so the result is the same
    double the array path gives. Arrays, 0-d arrays and other numpy scalars
    take the array path.
    """
    if isinstance(x, (float, int)):
        nodes, c0, c1, c2, c3 = table._scalar_rows
        x = float(x)
        if not nodes[0] <= x <= nodes[-1]:  # NaN fails too
            raise _out_of_range(nodes[0], nodes[-1])
        i = bisect_right(nodes, x) - 1
        s = x - nodes[i]
        return c0[i] + c1[i] * s + c2[i] * (s * s) + c3[i] * ((s * s) * s)
    xs = np.asarray(x, dtype=float)
    nodes = table.abscissae
    lo, hi = float(nodes[0]), float(nodes[-1])
    if not ((xs >= lo).all() and (xs <= hi).all()):  # NaN fails both
        raise _out_of_range(lo, hi)
    idx = np.searchsorted(nodes, xs, side="right") - 1
    c3, c2, c1, c0 = table._coefficients
    # one gathered coefficient array at a time keeps large batches light on memory
    s = xs - nodes.take(idx)
    result = c0.take(idx) + c1.take(idx) * s
    power = s * s
    result += c2.take(idx) * power
    power *= s
    result += c3.take(idx) * power
    return float(result) if result.ndim == 0 else result


def interpolate_shared(tables: Sequence[CumulativeTable], x: float) -> List[float]:
    """``interpolate(table, x)`` for each of several tables on one grid, with
    one node search.

    x is a Python float. ``bisect`` runs once over the first table's nodes,
    and each table's cubic is summed in the order of ``interpolate``'s scalar
    branch, so every value is the double ``interpolate`` gives. The tables'
    abscissae must be equal; this is not checked.
    """
    nodes = tables[0]._scalar_rows[0]
    if not nodes[0] <= x <= nodes[-1]:  # NaN fails too
        raise _out_of_range(nodes[0], nodes[-1])
    i = bisect_right(nodes, x) - 1
    s = x - nodes[i]
    s2 = s * s
    s3 = s2 * s
    return [
        c0[i] + c1[i] * s + c2[i] * s2 + c3[i] * s3
        for _, c0, c1, c2, c3 in (table._scalar_rows for table in tables)
    ]


def _out_of_range(lo: float, hi: float) -> ValueError:
    return ValueError(f"interpolation point out of range: permitted interval is [{lo!r}, {hi!r}]")
