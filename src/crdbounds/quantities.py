"""Base-2 logarithms for numbers far beyond double range, plus physical constants.

Operation counts in this package reach 2^1700 and beyond, so positive
quantities are carried as base-2 logarithms and only exponentiated when the
result is known to fit in a double.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigurationError, check_range

# CODATA 2018 values (c and the eV are exact by definition since the 2019
# SI redefinition); Mpc per the IAU definition, year = Julian year.
SPEED_OF_LIGHT = 299_792_458.0  # m / s
LOG2_SPEED_OF_LIGHT = math.log2(SPEED_OF_LIGHT)  # enters every power law's log2 K
HBAR = 1.054_571_817e-34  # J s
GRAVITATIONAL_CONSTANT = 6.674_30e-11  # m^3 kg^-1 s^-2
EV_IN_JOULES = 1.602_176_634e-19  # J / eV
MPC_IN_M = 3.085_677_581_491_367_3e22  # m / Mpc
JULIAN_YEAR_S = 3.155_76e7  # s / yr
GYR_IN_S = JULIAN_YEAR_S * 1e9  # s / Gyr

_LOG10_2 = math.log10(2.0)


class LogQuantity(NamedTuple):
    """A strictly positive real carried as its base-2 logarithm.

    The represented quantity is ``2**log2_value`` in whatever unit the caller
    declared.
    """

    log2_value: float

    @classmethod
    def from_real(cls, x: float) -> "LogQuantity":
        check_range("LogQuantity value", x)
        # log2(x) = exponent + log2(mantissa) with log2(mantissa) in [-1, 0);
        # the integer part is exact
        mantissa, exponent = math.frexp(x)
        return cls(exponent + math.log2(mantissa))

    def decimal_str(self) -> str:
        """Scientific notation "m × 10^e" with 1 <= m < 10, 4 significant digits."""
        return _scientific(self.log2_value * _LOG10_2, 10.0, 3)

    def pow2_str(self) -> str:
        """Binary-exponent form "k × 2^n" with 1 <= k < 2, 3 significant digits."""
        return _scientific(self.log2_value, 2.0, 2)


def _scientific(log_value: float, base: float, decimals: int) -> str:
    """base**log_value as "m × base^e", m to ``decimals`` places; an m that rounds to base carries."""
    e = math.floor(log_value)
    m = base ** (log_value - e)
    if float(f"{m:.{decimals}f}") >= base:
        m /= base
        e += 1
    return f"{m:.{decimals}f} × {base:g}^{e}"


class PhysicalConstants(NamedTuple):
    """Fundamental constants and the Planck scales derived from them.

    e_p_ev is the Planck energy expressed in eV.
    """

    c: float  # m / s
    hbar: float  # J s
    G: float  # m^3 kg^-1 s^-2
    l_p: float  # m
    t_p: float  # s
    e_p_ev: float  # eV


def planck_units(
    c: float = SPEED_OF_LIGHT,
    hbar: float = HBAR,
    G: float = GRAVITATIONAL_CONSTANT,
) -> PhysicalConstants:
    """Derive the Planck length, time and energy from c, hbar and G.

    l_p = sqrt(hbar G / c^3), t_p = l_p / c, E_p = hbar / t_p (converted to eV).
    Inputs whose units (or c^3) leave double range are a ConfigurationError.
    """
    for name, value in (("c", c), ("hbar", hbar), ("G", G)):
        check_range(name, value)
    try:
        l_p = math.sqrt(hbar * G / c**3)
        t_p = l_p / c
        e_p_ev = hbar / t_p / EV_IN_JOULES
        for name, value in (("l_p", l_p), ("t_p", t_p), ("e_p_ev", e_p_ev)):
            check_range(name, value)
    except (ArithmeticError, ConfigurationError) as exc:
        raise ConfigurationError(
            f"c={c!r}, hbar={hbar!r}, G={G!r}: the Planck units leave double range ({exc})"
        ) from exc
    return PhysicalConstants(
        c=c,
        hbar=hbar,
        G=G,
        l_p=l_p,
        t_p=t_p,
        e_p_ev=e_p_ev,
    )


# The CODATA Planck units, the default wherever a function takes constants.
PLANCK_UNITS = planck_units()


def s_to_gyr(time_s: float) -> float:
    return time_s / GYR_IN_S
