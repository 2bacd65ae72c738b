"""Gauss-Legendre quadrature: adaptive integrals, and running integrals
tabulated at the nodes of fixed panels.

``integrate`` uses a fixed-order Gauss-Legendre rule per panel with global
adaptive bisection: the panel with the largest error estimate is split until
the summed estimate meets the requested relative tolerance. Node placement is
a pure function of the inputs, so results are bit-identical across runs on a
given platform. Integrands must be vectorized: ``f(x)`` receives a 1-d numpy
array and returns an array of the same shape. Panel endpoints are never
evaluated, which makes integrable endpoint singularities (after a suitable
substitution) safe.

``GL_NODES`` and ``GL_WEIGHTS`` are the nodes and weights of the 16-point
Gauss-Legendre rule on [-1, 1], and ``GL_INTEGRATION`` its spectral
integration matrix S, S[j][l] the integral of the l-th Lagrange basis
polynomial of the nodes from -1 to node j (Greengard, SIAM J. Numer. Anal.
28 (1991) 1071), so ``S @ f`` is the running integral of f at the nodes,
exact for polynomials of degree 15 or less. ``GL_REMAINDER`` is W - S, the
integral from each node to 1. They are read-only numpy arrays of the Python
floats in ``_gauss16``, which the k-factors (``laws``) read without numpy;
no CLI verb imports this module.

A ``CumulativeTable`` holds a function's values at the 16 nodes of each
panel between its edges; ``build_cumulative`` fills one with a running
integral. ``interpolate`` reads it with the barycentric formula for
Gauss-Legendre nodes, weights (-1)^j sqrt((1 - x_j^2) w_j) (Berrut &
Trefethen, SIAM Review 46 (2004) 501): the degree-15 polynomial through the
panel's 16 values, read at one real number in Python floats in a few
microseconds. ``panel_nodes`` places the nodes for both, and for the
light-cone tables.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from typing import Callable, Sequence, Tuple

import numpy as np

from ._gauss16 import GL_INTEGRATION_ROWS, GL_NODE_LIST, GL_REMAINDER_ROWS, GL_WEIGHT_LIST
from .errors import QuadratureError, _Record, check_range
from .laws import DEFAULT_MAX_PANELS, DEFAULT_REL_TOL

_GL_ORDER = 16
_BARYCENTRIC = [
    (-1.0) ** j * math.sqrt((1.0 - x * x) * w) for j, (x, w) in enumerate(zip(GL_NODE_LIST, GL_WEIGHT_LIST))
]


def _read_only(values) -> np.ndarray:
    array = np.array(values)
    array.setflags(write=False)
    return array


GL_NODES, GL_WEIGHTS, GL_INTEGRATION, GL_REMAINDER = map(
    _read_only, (GL_NODE_LIST, GL_WEIGHT_LIST, GL_INTEGRATION_ROWS, GL_REMAINDER_ROWS)
)

# The bisection error estimate |I_halves - I_whole| tracks the error of the
# *coarse* value; the refined value kept is far better. A singular panel is the
# exception (self-similar refinement), where the estimate can trail the true
# residual by a small factor, hence the safety margin on acceptance.
_SAFETY = 0.1
_ABS_FLOOR = 1e-300

Integrand = Callable[[np.ndarray], np.ndarray]


def _panel_sums(f: Integrand, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre estimates for P intervals, shape (P,), from one f call."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * GL_NODES[None, :]
    values = np.asarray(f(nodes.ravel()), dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("integrand returned a non-finite value inside the interval")
    return half * (values.reshape(-1, _GL_ORDER) @ GL_WEIGHTS)


def integrate(
    f: Integrand,
    a: float,
    b: float,
    rel_tol: float = DEFAULT_REL_TOL,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> float:
    """Integrate f over [a, b] to a relative tolerance.

    The returned value I satisfies |I - integral| <= rel_tol*|I| + 1e-300 for
    integrands the refinement can resolve; if ``max_panels`` panels are
    exhausted first a QuadratureError carrying the partial estimate is raised.
    """
    check_range("rel_tol", rel_tol, 0.0, 1e-2)
    check_range("lower integration bound", a, -math.inf)
    check_range("upper integration bound", b, -math.inf)
    if a > b:
        raise ValueError(f"integration bounds out of order: a={a!r} > b={b!r}")
    if a == b:
        return 0.0
    mid = 0.5 * (a + b)
    whole, left, right = _panel_sums(f, np.array([a, a, mid]), np.array([b, mid, b])).tolist()
    total = left + right
    total_err = err = abs(total - whole)
    # heap entries: (-error, lo, hi, coarse value of each half, error)
    heap = [(-err, a, b, left, right, err)]
    panels = 1

    while total_err > _SAFETY * (rel_tol * abs(total) + _ABS_FLOOR):
        _, lo, hi, v_left, v_right, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # interval has collapsed to float resolution
            total_err -= err
            continue
        quarter_edges = np.array([lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi])
        quarters = _panel_sums(f, quarter_edges[:-1], quarter_edges[1:]).tolist()
        refined_left = quarters[0] + quarters[1]
        refined_right = quarters[2] + quarters[3]
        err_left = abs(refined_left - v_left)
        err_right = abs(refined_right - v_right)
        total += (refined_left + refined_right) - (v_left + v_right)
        total_err += (err_left + err_right) - err
        heapq.heappush(heap, (-err_left, lo, mid, quarters[0], quarters[1], err_left))
        heapq.heappush(heap, (-err_right, mid, hi, quarters[2], quarters[3], err_right))
        panels += 1
        if panels > max_panels:
            scale = abs(total)
            achieved = total_err / scale if scale != 0.0 else math.inf
            raise QuadratureError(
                f"no convergence after {max_panels} panels on [{a}, {b}]: "
                f"estimate {total!r}, achieved relative tolerance {achieved:.3e}, "
                f"needs {_SAFETY * rel_tol:.3e} ({_SAFETY:g} times the requested {rel_tol:.3e})",
                estimate=total,
                achieved_rel_tol=achieved,
            )
    return total


class CumulativeTable(_Record):
    """One function's values at the 16 Gauss-Legendre nodes of each panel.

    Panel p is [edges[p], edges[p + 1]]; row p of ``values`` holds its node
    values, in the order of ``GL_NODE_LIST``. Edges are strictly increasing,
    and every edge and value must be finite (a ConfigurationError otherwise).
    The Python lists that ``interpolate`` reads are made once, here. Tables
    compare and hash by identity, as their fields hold arrays.
    """

    _fields = ("edges", "values")
    __slots__ = _fields + ("_lists",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def _check(self):
        edges = np.asarray(self.edges, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must be a 1-d array of length >= 2")
        if values.shape != (edges.size - 1, _GL_ORDER):
            raise ValueError(f"values must have shape (panels, {_GL_ORDER}) to match the edges")
        if not np.all(np.diff(edges) > 0.0):
            raise ValueError("edges must be strictly increasing")
        check_range("edges", edges, -math.inf)
        check_range("values", values, -math.inf)
        edges.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_lists", (edges.tolist(), values.tolist()))


def panel_nodes(edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each panel's half width, shape (panels, 1), and its 16 Gauss nodes,
    shape (panels, 16), in the order of ``GL_NODE_LIST``, for the panels
    between the given edges."""
    half = 0.5 * np.diff(edges)[:, None]
    return half, 0.5 * (edges[:-1] + edges[1:])[:, None] + half * GL_NODES


def build_cumulative(f: Integrand, grid: Sequence[float]) -> CumulativeTable:
    """The running integral of f from grid[0], at the Gauss nodes of each
    panel of grid.

    f is called once, on every node. Within a panel the integral is the
    integration matrix's (``GL_INTEGRATION``), exact for polynomials of
    degree 15 or less; the panels before it add their 16-point
    Gauss-Legendre sums.
    """
    edges = np.asarray(grid, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0.0):
        raise ValueError("grid must be strictly increasing with at least 2 points")
    check_range("grid", edges, -math.inf)
    half, nodes = panel_nodes(edges)
    scaled = half * np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    sums = scaled @ GL_WEIGHTS
    before = np.append(0.0, np.cumsum(sums[:-1]))  # the panels before each
    return CumulativeTable(edges, before[:, None] + scaled @ GL_INTEGRATION.T)


def interpolate(table: CumulativeTable, x: float) -> float:
    """The table's degree-15 panel polynomial at the real number x (a Python
    ``float`` or ``int``, ``np.float64`` included), by the barycentric formula.

    x must lie within [first edge, last edge]. A panel is found by bisection
    and its 16-term sum evaluated in Python floats; where x maps onto a node
    exactly, the stored value is returned.
    """
    edges, rows = table._lists
    x = float(x)
    if not edges[0] <= x <= edges[-1]:  # NaN fails too
        raise ValueError(f"interpolation point out of range: permitted interval is [{edges[0]!r}, {edges[-1]!r}]")
    p = min(bisect_right(edges, x), len(rows)) - 1  # the last edge reads the last panel
    lo, hi = edges[p], edges[p + 1]
    s = ((x - lo) - (hi - x)) / (hi - lo)
    num = den = 0.0
    for w, node, f in zip(_BARYCENTRIC, GL_NODE_LIST, rows[p]):
        d = s - node
        if d == 0.0:
            return f
        q = w / d
        num += q * f
        den += q
    return num / den
