import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crdbounds.quantities import (
    EV_IN_JOULES,
    GRAVITATIONAL_CONSTANT,
    HBAR,
    SPEED_OF_LIGHT,
    LogQuantity,
    log_quantity_from_product,
    m_to_mpc,
    mpc_to_m,
    planck_units,
)

import oracles

positive_floats = st.floats(min_value=1e-150, max_value=1e150, allow_nan=False)


def test_from_real_round_trip():
    for x in (1.0, 2.0, 3.352e15, 7.44e-7, 1e-300, 1e300):
        q = LogQuantity.from_real(x)
        assert q.to_real() == pytest.approx(x, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300])
def test_from_real_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        LogQuantity.from_real(bad)


def test_product_power_of_two_is_exact():
    assert log_quantity_from_product([(2.0, 10)]).log2_value == 10.0


def test_product_identity():
    assert log_quantity_from_product([(1.0, 999)]).log2_value == 0.0


def test_product_large_mixed_factors():
    q = log_quantity_from_product([(10.0, 158), (1.3866, 1)])
    assert q.log2_value == pytest.approx(oracles.LOG2_PRODUCT_10E158_13866, abs=1e-9)


def test_product_is_order_independent():
    factors = [(3.7, 5), (10.0, 158), (0.25, -3), (1.3866, 1)]
    a = log_quantity_from_product(factors)
    b = log_quantity_from_product(list(reversed(factors)))
    assert a.log2_value == b.log2_value


def test_product_rejects_nonpositive_base():
    with pytest.raises(ValueError, match="factor 1"):
        log_quantity_from_product([(2.0, 3), (-1.0, 2)])


@given(positive_floats, positive_floats)
@settings(max_examples=50)
def test_product_matches_from_real(a, b):
    q = log_quantity_from_product([(a, 1), (b, 1)])
    direct = LogQuantity.from_real(a * b)
    scale = max(1.0, abs(direct.log2_value))
    assert abs(q.log2_value - direct.log2_value) <= 1e-12 * scale


@given(positive_floats, positive_floats)
@example(math.nextafter(1e-150, 1.0), 1e-150)  # log2 rounds both to one double
@settings(max_examples=50)
def test_ordering_tracks_magnitude(a, b):
    if a == b:
        return
    small, large = sorted((a, b))
    assert LogQuantity.from_real(small) < LogQuantity.from_real(large)


def test_log_space_arithmetic():
    a = LogQuantity(10.0)
    b = LogQuantity(3.0)
    assert (a * b).log2_value == 13.0
    assert (a / b).log2_value == 7.0
    assert (a**2).log2_value == 20.0


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


@given(st.floats(min_value=1e-10, max_value=1e30, allow_nan=False))
@settings(max_examples=50)
def test_mpc_round_trip(x):
    assert m_to_mpc(mpc_to_m(x)) == pytest.approx(x, rel=1e-12)
