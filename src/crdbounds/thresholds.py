"""Planck-scale qubit thresholds and machine classification.

For each scenario the threshold is the logical-qubit count at which the
probed length equals the Planck length: n = round(log2 N_ops(l_p)), rounding
to the nearest integer with ties going up.

Each scenario's law N_ops = 2^log2_k / l^p is computed once, where its inputs
live (see ``bounds``), so ``classify_machine`` reads the stored laws and
evaluates them through ``PowerLaw``, in Python floats, and takes the energies
of the probed lengths from one ``bounds.energies_from_lengths`` call.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import List, NamedTuple, Optional, Sequence

from .bounds import Scenario, ScenarioKind, energies_from_lengths, neo_from_qubits, power_law
from .errors import check_range
from .laws import UniverseLaws
from .quantities import PLANCK_UNITS, PhysicalConstants


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


class ThresholdResult(NamedTuple):
    """Where one scenario's bound line crosses the Planck length."""

    scenario_kind: ScenarioKind
    log2_nops_exact: float
    qubits: int
    length_at_threshold: float  # m, the Planck length by construction


def planck_threshold(
    scenario: Scenario,
    laws: Optional[UniverseLaws] = None,
    constants: PhysicalConstants = PLANCK_UNITS,
) -> ThresholdResult:
    """The scenario's threshold; a universe kind's law is read from ``laws``."""
    exact = power_law(scenario, laws).log2_n_ops(constants.l_p)
    return ThresholdResult(
        scenario_kind=scenario.kind,
        log2_nops_exact=exact,
        qubits=round_half_up(exact),
        length_at_threshold=constants.l_p,
    )


class ScenarioAssessment(NamedTuple):
    """One scenario probed by a machine of n logical qubits."""

    scenario_kind: ScenarioKind
    threshold_qubits: int
    probed_length_m: float
    energy_ev: float
    sub_planckian: bool


def classify_machine(
    n: int,
    scenarios: Sequence[Scenario],
    laws: Optional[UniverseLaws] = None,
    constants: PhysicalConstants = PLANCK_UNITS,
) -> List[ScenarioAssessment]:
    """Probe every scenario with a 2^n operation count.

    Returns one assessment per scenario, sorted by threshold, flagging those
    whose probed length falls below the Planck length. A probed length that
    underflows to 0 m, or an energy past the largest double, is a
    ConfigurationError.
    """
    log2_n = neo_from_qubits(n).log2_value
    stored = [power_law(scenario, laws) for scenario in scenarios]
    lengths = [law.length(log2_n) for law in stored]
    # 0 m has no energy: the energies stop before the first such length,
    # whose check the scenario-by-scenario loop reaches first
    energies = energies_from_lengths(lengths[: lengths.index(0.0)] if 0.0 in lengths else lengths, constants)
    l_p = constants.l_p
    assessments = []
    for i, (scenario, law, length) in enumerate(zip(scenarios, stored, lengths)):
        if not 0.0 < length < math.inf:
            check_range(f"the {scenario.kind.value} length probed by {n} qubits", length)
        energy = energies[i]
        if not energy < math.inf:
            check_range(f"the {scenario.kind.value} energy probed by {n} qubits", energy)
        threshold = round_half_up(law.log2_n_ops(l_p))
        assessments.append(ScenarioAssessment(scenario.kind, threshold, length, energy, length < l_p))
    assessments.sort(key=attrgetter("threshold_qubits"))
    return assessments
