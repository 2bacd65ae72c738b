"""Planck-scale qubit thresholds and machine classification.

For each scenario the threshold is the logical-qubit count at which the
probed length equals the Planck length: n = round(log2 N_ops(l_p)), rounding
to the nearest integer with ties going up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .bounds import Scenario, ScenarioKind, energy_from_length, neo_from_qubits, power_law
from .cosmology import LightconeTables
from .errors import check_range
from .quantities import PhysicalConstants, planck_units


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ThresholdResult:
    """Where one scenario's bound line crosses the Planck length."""

    scenario_kind: ScenarioKind
    log2_nops_exact: float
    qubits: int
    length_at_threshold: float  # m, the Planck length by construction


def planck_threshold(
    scenario: Scenario,
    tables: Optional[LightconeTables] = None,
    constants: Optional[PhysicalConstants] = None,
) -> ThresholdResult:
    k = constants if constants is not None else planck_units()
    exact = float(power_law(scenario, tables).log2_n_ops(k.l_p))
    return ThresholdResult(
        scenario_kind=scenario.kind,
        log2_nops_exact=exact,
        qubits=round_half_up(exact),
        length_at_threshold=k.l_p,
    )


@dataclass(frozen=True)
class ScenarioAssessment:
    """One scenario probed by a machine of n logical qubits."""

    scenario_kind: ScenarioKind
    threshold_qubits: int
    probed_length_m: float
    energy_ev: float
    sub_planckian: bool


def classify_machine(
    n: int,
    scenarios: Sequence[Scenario],
    tables: Optional[LightconeTables] = None,
    constants: Optional[PhysicalConstants] = None,
) -> List[ScenarioAssessment]:
    """Probe every scenario with a 2^n operation count.

    Returns one assessment per scenario, sorted by threshold, flagging those
    whose probed length falls below the Planck length. A probed length that
    underflows to 0 m is a ConfigurationError.
    """
    k = constants if constants is not None else planck_units()
    log2_n = neo_from_qubits(n).log2_value
    laws = [power_law(scenario, tables) for scenario in scenarios]
    probed = [law.length(log2_n) for law in laws]
    for scenario, length in zip(scenarios, probed):
        check_range(f"the {scenario.kind.value} length probed by {n} qubits", length)
    energies = energy_from_length(np.array(probed), k).tolist()
    assessments = [
        ScenarioAssessment(
            scenario_kind=scenario.kind,
            threshold_qubits=round_half_up(law.log2_n_ops(k.l_p)),
            probed_length_m=length,
            energy_ev=energy,
            sub_planckian=length < k.l_p,
        )
        for scenario, law, length, energy in zip(scenarios, laws, probed, energies)
    ]
    assessments.sort(key=lambda a: a.threshold_qubits)
    return assessments
