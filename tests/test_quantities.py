import math

import pytest

from crdbounds.quantities import (
    EV_IN_JOULES,
    GRAVITATIONAL_CONSTANT,
    HBAR,
    SPEED_OF_LIGHT,
    LogQuantity,
    planck_units,
)

import oracles


def test_from_real_round_trip():
    for x in (1.0, 2.0, 3.352e15, 7.44e-7, 1e-300, 1e300):
        q = LogQuantity.from_real(x)
        assert 2.0**q.log2_value == pytest.approx(x, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300])
def test_from_real_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        LogQuantity.from_real(bad)


@pytest.mark.parametrize(
    "log2_value, expected",
    [(0.0, "1.000 × 10^0"), (10.0, "1.024 × 10^3")],
)
def test_decimal_str(log2_value, expected):
    assert LogQuantity(log2_value).decimal_str() == expected


def test_decimal_str_mantissa_carry():
    # log2(9.9999e3) rounds to a mantissa of 10.000; must carry into the exponent
    q = LogQuantity.from_real(9.9999e3)
    assert q.decimal_str() == "1.000 × 10^4"


def test_pow2_str_mantissa_carry():
    # 2^0.9999 rounds to a mantissa of 2.00; must carry into the exponent
    assert LogQuantity(5.9999).pow2_str() == "1.00 × 2^6"


def test_pow2_str():
    assert LogQuantity(490.4554).pow2_str() == "1.37 × 2^490"
    assert LogQuantity(10.0).pow2_str() == "1.00 × 2^10"


def test_planck_units_values():
    k = planck_units()
    assert k.l_p == pytest.approx(oracles.PLANCK_LENGTH_M, rel=1e-12)
    assert k.t_p == pytest.approx(oracles.PLANCK_TIME_S, rel=1e-12)
    assert k.e_p_ev == pytest.approx(oracles.PLANCK_ENERGY_EV, rel=1e-12)


def test_planck_units_internal_consistency():
    k = planck_units()
    assert k.l_p == pytest.approx(math.sqrt(HBAR * GRAVITATIONAL_CONSTANT / SPEED_OF_LIGHT**3), rel=1e-9)
    assert k.t_p == pytest.approx(k.l_p / k.c, rel=1e-12)
    assert k.e_p_ev == pytest.approx(k.hbar / k.t_p / EV_IN_JOULES, rel=1e-12)


@pytest.mark.parametrize("field", ["c", "hbar", "G"])
def test_planck_units_rejects_nonpositive(field):
    with pytest.raises(ValueError, match=field):
        planck_units(**{field: -1.0})
