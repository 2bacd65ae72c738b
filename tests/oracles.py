"""Independent reference values and reference implementations for the tests.

The frozen constants below were computed before the library was built, with
methods that share no code with it:

* cosmological prefactors: cumulative trapezoid sums over fine grids
  (240001/480001 nodes in the cube-root time variable; `kfactors_reference`
  below regenerates them at configurable resolution), converged to ~1e-11;
* threshold exponents, Planck scales and unit combinations: 40-digit mpmath
  arithmetic;
* matter-only (Einstein-de Sitter) results: closed forms derived by hand
  (beta-function integrals), checked against direct numerical integration;
  `eds_k_factors_exact` evaluates the k-factors' closed forms at 40 digits
  with the standard library alone.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

# fiducial cosmology: H0 = 70 km/s/Mpc, Omega_M = 0.3, Omega_L = 0.7
K4U_FIDUCIAL = 0.12920741564
K8U_FIDUCIAL = 8.5958874030e-4
K7U_FIDUCIAL = 6.1865524894e-3
T_UNIVERSE_FIDUCIAL_GYR = 13.466983947061877
T_UNIVERSE_EDS_GYR = 9.3123068731503733
SCALE_FACTOR_AT_T_LAMBDA = 0.8396195729447655  # (3/7)^(1/3) sinh(1)^(2/3)

# Planck scales from CODATA 2018 c, hbar, G
PLANCK_LENGTH_M = 1.6162550239285501e-35
PLANCK_TIME_S = 5.3912464466619439e-44
PLANCK_ENERGY_EV = 1.2208901282098641e28
PLANCK_CRD_LOG2 = 490.45870271468449

# exact log2 operation counts at l = l_p for the canonical scenario set
# (1000 m^3 lab running one Julian year; fiducial cosmology)
THRESHOLD_LOG2 = {
    "lab": 525.33597115408827,
    "lab-nearest-neighbor": 528.33597115408827,
    "lab-fully-connected": 1049.6719423081765,
    "lab-broadcast": 882.02624083847939,
    "universe": 806.43638247971934,
    "universe-fully-connected": 1608.5931776079045,
    "universe-broadcast": 1409.0934393712886,
}
THRESHOLD_QUBITS = {
    "lab": 525,
    "lab-nearest-neighbor": 528,
    "lab-fully-connected": 1050,
    "lab-broadcast": 882,
    "universe": 806,
    "universe-fully-connected": 1609,
    "universe-broadcast": 1409,
}

# misc spot values
GPU_MAX_LENGTH_M = 5.07893210378e-4  # 744 mm^3, 3.352e15 ops, 1 s
GPU_CRD = 4.505376344086e21  # 3.352e15 / 7.44e-7
LHC_LENGTH_M = 1.97326980338e-20  # hbar c / 1e13 eV


def eds_age(h0: float) -> float:
    """Matter-only age of the universe, 2/(3 H0)."""
    return 2.0 / (3.0 * h0)


def eds_scale_factor(t, t_universe):
    return (np.asarray(t) / t_universe) ** (2.0 / 3.0)


def eds_eta(t, t_universe):
    """Conformal time: 3 T (t/T)^(1/3)."""
    return 3.0 * t_universe * (np.asarray(t) / t_universe) ** (1.0 / 3.0)


def eds_comoving_distance(t1, t2, t_universe, c):
    return c * (eds_eta(t2, t_universe) - eds_eta(t1, t_universe))


def eds_v4(t, c):
    """Past light-cone 4-volume: (3 pi / 55) c^3 t^4."""
    return (3.0 * math.pi / 55.0) * c**3 * np.asarray(t) ** 4


def eds_v4_rate(t, c):
    """d/dt of eds_v4: (12 pi / 55) c^3 t^3."""
    return (12.0 * math.pi / 55.0) * c**3 * np.asarray(t) ** 3


def _beta_exact(p: int, q: int) -> Fraction:
    return Fraction(math.factorial(p - 1) * math.factorial(q - 1), math.factorial(p + q - 1))


def _beta(p: int, q: int) -> float:
    return float(_beta_exact(p, q))


def eds_k_factors():
    """Closed-form matter-only prefactors (k4u, k7u, k8u)."""
    pi = math.pi
    k4u = 16.0 * pi / 1485.0
    k7u = (4.0 * pi / 3.0) * (2.0 / 3.0) ** 7 * 27.0 * (12.0 * pi / 55.0) * 3.0 * _beta(18, 4)
    k8u = (4.0 * pi / 3.0) * (2.0 / 3.0) ** 8 * (81.0 * pi / 55.0) * 3.0 * _beta(21, 4)
    return k4u, k7u, k8u


def _arctan_of_inverse(n: int) -> Decimal:
    """arctan(1/n) by its Taylor series, at the current decimal precision."""
    x = Decimal(1) / n
    total = term = x
    k = 1
    while True:
        term *= -x * x
        k += 2
        if total + term / k == total:
            return total
        total += term / k


def eds_k_factors_exact():
    """The closed forms of ``eds_k_factors`` as 40-digit Decimals: the rational
    factors exact in Fraction, pi by Machin's formula. The doubles of
    ``eds_k_factors`` are off by up to 7e-16, too much to judge the library's
    last bits."""
    # k4u = f4 pi, k7u = f7 pi^2, k8u = f8 pi^2, with the factors of eds_k_factors
    f4 = Fraction(16, 1485)
    f7 = Fraction(4, 3) * Fraction(2, 3) ** 7 * 27 * Fraction(12, 55) * 3 * _beta_exact(18, 4)
    f8 = Fraction(4, 3) * Fraction(2, 3) ** 8 * Fraction(81, 55) * 3 * _beta_exact(21, 4)
    with localcontext() as ctx:
        ctx.prec = 40
        pi = 16 * _arctan_of_inverse(5) - 4 * _arctan_of_inverse(239)
        return tuple(Decimal(f.numerator) / f.denominator * pi**n for f, n in ((f4, 1), (f7, 2), (f8, 2)))


def kfactors_reference(omega_m: float, omega_lambda: float, n: int = 60001, m: int = 801):
    """Fine-grid trapezoid computation of (k4u, k7u, k8u), sharing no code
    with the library. Requires omega_lambda > 0.

    Works in x = t/t_lambda with the sinh^(2/3) expansion law; the conformal
    time integral is regularized by w = x^(1/3). n is the fine-grid size, m
    the number of prefix integrals evaluated for the outer nested integrals.
    """
    if not omega_lambda > 0.0:
        raise ValueError("reference computation requires omega_lambda > 0")
    x_today = np.arcsinh(np.sqrt(omega_lambda / omega_m))
    w = np.linspace(0.0, x_today ** (1.0 / 3.0), n)
    x = w**3
    with np.errstate(divide="ignore", invalid="ignore"):
        de_dw = 3.0 * w**2 * np.sinh(x) ** (-2.0 / 3.0)
    de_dw[0] = 3.0
    dw = w[1] - w[0]
    conformal = np.concatenate([[0.0], np.cumsum(0.5 * (de_dw[1:] + de_dw[:-1]) * dw)])

    base = np.sinh(x) ** 2 * 3.0 * w**2
    idx = np.linspace(0, n - 1, m).round().astype(int)

    def prefix(power):
        out = np.empty(m)
        for k, j in enumerate(idx):
            if j == 0:
                out[k] = 0.0
                continue
            g = base[: j + 1] * (conformal[j] - conformal[: j + 1]) ** power
            out[k] = np.trapezoid(g, dx=dw)
        return out

    v_tilde = prefix(3)
    w_tilde = prefix(2)
    xs, ws, es = x[idx], w[idx], conformal[idx]
    pre = 2.0 / (3.0 * np.sqrt(omega_lambda))

    k4u = (4.0 * np.pi / 3.0) * pre**4 * v_tilde[-1]
    outer8 = v_tilde * np.sinh(xs) ** 2 * (es[-1] - es) ** 3 * 3.0 * ws**2
    k8u = (4.0 * np.pi / 3.0) ** 2 * pre**8 * np.trapezoid(outer8, ws)
    outer7 = np.sinh(xs) ** (4.0 / 3.0) * (es[-1] - es) ** 3 * w_tilde * 3.0 * ws**2
    outer7[0] = 0.0
    k7u = (4.0 * np.pi) ** 2 / 3.0 * pre**7 * np.trapezoid(outer7, ws)
    return float(k4u), float(k7u), float(k8u)
