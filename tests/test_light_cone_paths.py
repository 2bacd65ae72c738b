"""The light cone's two implementations: the k-factors' pass in Python floats
(``laws._light_cone_rows``) and the tables' numpy pass
(``cosmology._light_cone``), on shared equal panels.

They run the same operations; only the sums differ, exactly rounded in the
Python pass (``laws._fsum``) and numpy's own in the other, so C_2 and C_3
agree to a few ulps of each panel's largest value, and the k-factors to
2e-15. Both read the 16-point rule of ``_gauss16``, whose Python literals
are checked here against numpy's Legendre module.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legint, legval, legvander

from crdbounds import cosmology as cz
from crdbounds import laws as lz
from crdbounds.laws import CosmologyParams
from crdbounds.quadrature import (
    GL_INTEGRATION,
    GL_INTEGRATION_ROWS,
    GL_NODE_LIST,
    GL_NODES,
    GL_REMAINDER,
    GL_WEIGHT_LIST,
    GL_WEIGHTS,
    panel_nodes,
)

NEAR_LAMBDA_ONE = 0.9999999999999999
# (Omega_M, Omega_L) and the panel count k_integrals stops at for each, at 1e-9
COSMOLOGIES = {
    "eds": ((1.0, 0.0), 8),
    "fiducial": ((0.3, 0.7), 8),
    "1e-7": ((1e-7, 1.0 - 1e-7), 8),
    "1e-200": ((1e-200, NEAR_LAMBDA_ONE), 256),
}
EPS = np.finfo(float).eps


def test_gl_literals_are_numpys_rule():
    nodes, weights = leggauss(16)
    assert GL_NODE_LIST == tuple(nodes.tolist())
    assert GL_WEIGHT_LIST == tuple(weights.tolist())


def test_integration_literals_match_legint():
    nodes, weights = leggauss(16)
    # column l: the Legendre coefficients of the l-th Lagrange basis polynomial
    lagrange = legvander(nodes, 15).T * (np.arange(16)[:, None] + 0.5) * weights
    reference = legval(nodes, legint(lagrange, lbnd=-1)).T
    assert np.abs(np.array(GL_INTEGRATION_ROWS) - reference).max() <= 4 * EPS * np.abs(reference).max()


def test_the_arrays_hold_the_literals():
    assert GL_NODES.tolist() == list(GL_NODE_LIST)
    assert GL_WEIGHTS.tolist() == list(GL_WEIGHT_LIST)
    assert GL_INTEGRATION.tolist() == [list(row) for row in GL_INTEGRATION_ROWS]
    # W - S, as both light-cone passes read it, is the rule's own difference
    assert np.array_equal(GL_REMAINDER, GL_WEIGHTS - GL_INTEGRATION)
    assert not any(array.flags.writeable for array in (GL_NODES, GL_WEIGHTS, GL_INTEGRATION, GL_REMAINDER))


def _equal_panels(params, panels):
    """_k_sums' edges; numpy.linspace gives the same doubles."""
    x_t = (params.h0 * params.t_universe) ** (1.0 / 3.0)
    edges = [i * (x_t / panels) for i in range(panels)] + [x_t]
    assert np.array_equal(edges, np.linspace(0.0, x_t, panels + 1))
    return edges


def _numpy_k_factors(params, edges):
    """The k-factors from the numpy pass, each summed over the nodes: k4u as
    (4 pi / 3) sum a^3 (eta(T) - eta)^3 dtau, not by the binomial shift."""
    half, x = panel_nodes(edges)
    a, _, c2, c3 = cz._light_cone(params, edges)
    dtau = half * (3.0 * x * x)
    de = dtau / a
    span = de @ GL_WEIGHTS
    later = np.append(np.cumsum(span[:0:-1])[::-1], 0.0)
    cone = dtau * a**3 * (later[:, None] + de @ (GL_WEIGHTS - GL_INTEGRATION).T) ** 3
    return (
        4.0 * math.pi / 3.0 * np.sum(cone @ GL_WEIGHTS),
        16.0 * math.pi**2 / 3.0 * np.sum(cone / a * c2 @ GL_WEIGHTS),
        16.0 * math.pi**2 / 9.0 * np.sum(cone * c3 @ GL_WEIGHTS),
    )


@pytest.fixture(scope="module", params=sorted(COSMOLOGIES))
def shared(request):
    (omega_m, omega_lambda), panels = COSMOLOGIES[request.param]
    params = CosmologyParams.create(70.0, omega_m, omega_lambda)
    return params, _equal_panels(params, panels)


def test_the_panel_counts_are_k_integrals(monkeypatch):
    counts, real = [], lz._k_sums
    monkeypatch.setattr(lz, "_k_sums", lambda params, n: counts.append(n) or real(params, n))
    for (omega_m, omega_lambda), panels in COSMOLOGIES.values():
        lz.k_integrals(CosmologyParams.create(70.0, omega_m, omega_lambda), 1e-9)
        assert counts[-1] == panels


def test_moments_agree(shared):
    params, edges = shared
    _, _, _, c2, c3, _ = lz._light_cone_rows(params, edges)
    _, _, c2_numpy, c3_numpy = cz._light_cone(params, np.array(edges))
    for rows, want in ((c2, c2_numpy), (c3, c3_numpy)):
        # the signed sums over S run in another order: measured up to 25 ulps
        # (C_2 at Omega_M 1e-200), 13 elsewhere
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(np.array(rows) - want) <= 32 * EPS * scale)


def test_k_factors_agree(shared):
    params, edges = shared
    got = lz._k_sums(params, len(edges) - 1)
    assert got == pytest.approx(_numpy_k_factors(params, np.array(edges)), rel=2e-15, abs=0.0)

