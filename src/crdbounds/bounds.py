"""Scenario bounds relating a substrate length scale to an operation count.

Seven scenarios, each a power law N_ops = K / l^p evaluated in log2 space:

    LAB                       V3 c T / l^4
    LAB_NEAREST_NEIGHBOR      inputs_per_op * V3 c T / l^4
    LAB_FULLY_CONNECTED       (V3 c T / l^4)^2 / 2
    LAB_BROADCAST             (V3 / l^3)^2 * T / tau,  tau = l / c
    UNIVERSE                  k4u * (c / (H0 l))^4
    UNIVERSE_FULLY_CONNECTED  k8u * (c / (H0 l))^8
    UNIVERSE_BROADCAST        k7u * (c / (H0 l))^7

so each ScenarioKind member carries one row (p, n_V, n_T, weight): lab
kinds have K = weight * V3^n_V * (c T)^n_T, universe kinds (n_V = 0)
K = k_p (c/H0)^p. Each law is computed once, where its inputs live: a lab
kind's when its Scenario is built, a universe kind's log2 K in its
cosmology's UniverseLaws (``laws.universe_laws``;
``cosmology.LightconeTables`` carry them too).
The broadcast clock is pinned at the causal limit tau = l/c.
Lengths and operation counts may be floats or numpy arrays; floats take
math, so numpy is imported only for arrays.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Optional

from .errors import ConfigurationError, _Record, check_integer, check_range
from .laws import CosmologyParams, UniverseLaws
from .quantities import (
    EV_IN_JOULES,
    LOG2_SPEED_OF_LIGHT,
    PLANCK_UNITS,
    LogQuantity,
    PhysicalConstants,
)


class ScenarioKind(enum.Enum):
    """A scenario kind: its CLI name (the value) and its law's row
    (p, n_V, n_T, weight); a weight of None is the inputs_per_op."""

    LAB = "lab", 4, 1, 1, 1.0
    LAB_NEAREST_NEIGHBOR = "lab-nearest-neighbor", 4, 1, 1, None
    LAB_FULLY_CONNECTED = "lab-fully-connected", 8, 2, 2, 0.5
    LAB_BROADCAST = "lab-broadcast", 7, 2, 1, 1.0
    UNIVERSE = "universe", 4, 0, 0, 1.0
    UNIVERSE_FULLY_CONNECTED = "universe-fully-connected", 8, 0, 0, 1.0
    UNIVERSE_BROADCAST = "universe-broadcast", 7, 0, 0, 1.0

    def __new__(cls, value, *row):
        member = object.__new__(cls)
        member._value_ = value
        member.row = row
        member.exponent = row[0]  # p in N_ops = K / l^p
        return member


class Scenario(_Record):
    """One bound model: a kind plus exactly the parameters that kind needs.

    Lab kinds take a volume (m^3) and a duration (s); the nearest-neighbor
    variant additionally takes the input count per operation; universe kinds
    take cosmological parameters instead.

    law is a lab kind's PowerLaw N_ops = K / l^p, derived from the other
    fields when the scenario is built and left out of equality and repr. It
    is None for universe kinds, whose K lives in their cosmology's laws
    (UniverseLaws.log2_k).
    """

    _fields = ("kind", "v3", "duration", "inputs_per_op", "params")
    _defaults = dict.fromkeys(_fields[1:])
    __slots__ = _fields + ("law",)

    def _check(self):
        p, n_v, n_t, weight = self.kind.row
        if n_v:
            check_range(f"{self.kind.name} volume", self.v3)
            check_range(f"{self.kind.name} duration", self.duration)
            if self.params is not None:
                raise ConfigurationError(f"{self.kind.name} does not take cosmological parameters")
        elif self.params is None:
            raise ConfigurationError(f"{self.kind.name} requires cosmological parameters")
        elif self.v3 is not None or self.duration is not None:
            raise ConfigurationError(f"{self.kind.name} does not take a lab volume or duration")
        if weight is None:
            check_integer("inputs_per_op", self.inputs_per_op, 1)
        elif self.inputs_per_op is not None:
            raise ConfigurationError(f"{self.kind.name} does not take inputs_per_op")
        law = None
        if n_v:
            w = self.inputs_per_op if weight is None else weight
            law = PowerLaw(
                n_v * math.log2(self.v3)
                + n_t * LOG2_SPEED_OF_LIGHT
                + n_t * math.log2(self.duration)
                + math.log2(w),
                p,
            )
        object.__setattr__(self, "law", law)

    @classmethod
    def lab(cls, v3: float, duration: float) -> "Scenario":
        return cls(ScenarioKind.LAB, v3=v3, duration=duration)

    @classmethod
    def lab_nearest_neighbor(cls, v3: float, duration: float, inputs_per_op: int) -> "Scenario":
        return cls(
            ScenarioKind.LAB_NEAREST_NEIGHBOR,
            v3=v3,
            duration=duration,
            inputs_per_op=inputs_per_op,
        )

    @classmethod
    def lab_fully_connected(cls, v3: float, duration: float) -> "Scenario":
        return cls(ScenarioKind.LAB_FULLY_CONNECTED, v3=v3, duration=duration)

    @classmethod
    def lab_broadcast(cls, v3: float, duration: float) -> "Scenario":
        return cls(ScenarioKind.LAB_BROADCAST, v3=v3, duration=duration)

    @classmethod
    def universe(cls, params: CosmologyParams) -> "Scenario":
        return cls(ScenarioKind.UNIVERSE, params=params)

    @classmethod
    def universe_fully_connected(cls, params: CosmologyParams) -> "Scenario":
        return cls(ScenarioKind.UNIVERSE_FULLY_CONNECTED, params=params)

    @classmethod
    def universe_broadcast(cls, params: CosmologyParams) -> "Scenario":
        return cls(ScenarioKind.UNIVERSE_BROADCAST, params=params)


class PowerLaw(NamedTuple):
    """N_ops = 2^log2_k / l^p, the form every scenario bound takes."""

    log2_k: float
    p: int

    def log2_n_ops(self, length):
        """log2 N_ops at element spacing `length` (m; a float or an array)."""
        if isinstance(length, (float, int)):
            return self.log2_k - self.p * math.log2(length)
        import numpy as np

        return self.log2_k - self.p * np.log2(length)

    def length(self, log2_n_ops):
        """Element spacing (m) at which the bound allows 2^log2_n_ops operations."""
        return 2.0 ** ((self.log2_k - log2_n_ops) / self.p)


def power_law(scenario: Scenario, laws: Optional[UniverseLaws] = None) -> PowerLaw:
    """The scenario's law, read, not recomputed: a lab kind's stored on the
    scenario, a universe kind's log2 K from the UniverseLaws (or
    LightconeTables) of its cosmological parameters."""
    if scenario.law is not None:
        return scenario.law
    if laws is None:
        raise ConfigurationError(
            f"{scenario.kind.name} requires light-cone tables or its cosmology's laws; "
            "compute the laws with laws.universe_laws(scenario.params)"
        )
    if laws.params is not scenario.params and laws.params != scenario.params:
        raise ConfigurationError(
            f"the laws were computed for different cosmological parameters than "
            f"the {scenario.kind.name} scenario"
        )
    p = scenario.kind.exponent
    return PowerLaw(laws.log2_k[p], p)


def max_length(v3: float, duration: float, n_ops: LogQuantity) -> float:
    """Upper limit l <= (V3 c T / N_ops)^(1/4) on the element spacing, the
    inverse of the LAB bound."""
    return length_for_scenario(Scenario.lab(v3, duration), n_ops)


def crd(n_ops: LogQuantity, v3: float, duration: float) -> LogQuantity:
    """Computational rate density N_ops / (V3 T) in ops m^-3 s^-1."""
    check_range("volume", v3)
    check_range("duration", duration)
    return LogQuantity(n_ops.log2_value - math.log2(v3) - math.log2(duration))


def planck_crd(constants: PhysicalConstants = PLANCK_UNITS) -> LogQuantity:
    """The Planck rate-density ceiling 1/(l_p^3 t_p) in ops m^-3 s^-1."""
    return LogQuantity(-3.0 * math.log2(constants.l_p) - math.log2(constants.t_p))


def neo_from_qubits(n: int) -> LogQuantity:
    """Equivalent classical operation count 2^n for n logical qubits.

    n must be a finite number >= 1 (a ConfigurationError otherwise, NaN, inf
    and integers too large for a double included)."""
    check_range("qubit count", n, 1, low_inclusive=True)
    return LogQuantity(float(n))


def n_ops_for_scenario(
    scenario: Scenario,
    length,
    laws: Optional[UniverseLaws] = None,
) -> LogQuantity:
    """Operation count the scenario makes available at element spacing l."""
    check_range("length", length)
    return LogQuantity(power_law(scenario, laws).log2_n_ops(length))


def length_for_scenario(
    scenario: Scenario,
    n_ops: LogQuantity,
    laws: Optional[UniverseLaws] = None,
):
    """Exact analytic inverse of n_ops_for_scenario. A length past the
    largest double is a ConfigurationError."""
    check_range("log2 operation count", n_ops.log2_value, -math.inf)
    try:
        return power_law(scenario, laws).length(n_ops.log2_value)
    except OverflowError:
        raise ConfigurationError(
            f"the {scenario.kind.value} length at log2 N_ops = {n_ops.log2_value!r} "
            "exceeds the largest double"
        ) from None


def energy_from_length(length, constants: PhysicalConstants = PLANCK_UNITS):
    """Energy scale hbar c / l in eV (l a float or an array); reproduces the
    Planck energy at l = l_p. An energy past the largest double is a
    ConfigurationError."""
    check_range("length", length)
    energy = constants.hbar * constants.c / length / EV_IN_JOULES
    check_range("energy", energy)
    return energy
