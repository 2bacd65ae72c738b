import pytest

from crdbounds.bounds import Scenario, ScenarioKind, length_for_scenario, neo_from_qubits
from crdbounds.quantities import planck_units
from crdbounds.thresholds import classify_machine, planck_threshold, round_half_up

import oracles


@pytest.mark.parametrize(
    "x, expected",
    [(0.4, 0), (0.5, 1), (1.49, 1), (525.336, 525), (-0.5, 0), (-0.51, -1)],
)
def test_round_half_up(x, expected):
    assert round_half_up(x) == expected


class TestPlanckThreshold:
    def test_all_scenarios(self, paper_scenarios, fiducial_tables, constants):
        for s in paper_scenarios:
            r = planck_threshold(s, fiducial_tables, constants)
            name = s.kind.value
            assert r.qubits == oracles.THRESHOLD_QUBITS[name], name
            assert r.log2_nops_exact == pytest.approx(oracles.THRESHOLD_LOG2[name], abs=1e-5)
            assert r.length_at_threshold == constants.l_p

    def test_rounding_stays_within_half(self, paper_scenarios, fiducial_tables, constants):
        for s in paper_scenarios:
            r = planck_threshold(s, fiducial_tables, constants)
            assert abs(r.log2_nops_exact - r.qubits) <= 0.5

    def test_threshold_length_consistency(self, paper_scenarios, fiducial_tables, constants):
        # probing with 2^qubits lands within a factor 2^(0.5/exponent) of l_p
        for s in paper_scenarios:
            r = planck_threshold(s, fiducial_tables, constants)
            probed = length_for_scenario(s, neo_from_qubits(r.qubits), fiducial_tables)
            factor = 2.0 ** (0.5 / s.kind.exponent)
            assert 1.0 / factor <= probed / constants.l_p <= factor


class TestClassifyMachine:
    def test_rsa_scale_machine_clears_everything(self, paper_scenarios, fiducial_tables, constants):
        report = classify_machine(2048, paper_scenarios, fiducial_tables, constants)
        assert len(report) == 7
        assert all(a.sub_planckian for a in report)

    def test_single_qubit_clears_nothing(self, paper_scenarios, fiducial_tables, constants):
        report = classify_machine(1, paper_scenarios, fiducial_tables, constants)
        assert not any(a.sub_planckian for a in report)

    def test_900_qubits_split(self, paper_scenarios, fiducial_tables, constants):
        report = classify_machine(900, paper_scenarios, fiducial_tables, constants)
        sub = {a.scenario_kind for a in report if a.sub_planckian}
        assert sub == {
            ScenarioKind.LAB,
            ScenarioKind.LAB_NEAREST_NEIGHBOR,
            ScenarioKind.UNIVERSE,
            ScenarioKind.LAB_BROADCAST,
        }

    def test_sorted_by_threshold(self, paper_scenarios, fiducial_tables, constants):
        report = classify_machine(900, paper_scenarios, fiducial_tables, constants)
        thresholds = [a.threshold_qubits for a in report]
        assert thresholds == sorted(thresholds)

    def test_monotone_in_qubit_count(self, paper_scenarios, fiducial_tables, constants):
        previous = set()
        for n in (400, 600, 900, 1100, 1500, 1700):
            report = classify_machine(n, paper_scenarios, fiducial_tables, constants)
            current = {a.scenario_kind for a in report if a.sub_planckian}
            assert previous <= current
            previous = current

    def test_rejects_nonpositive(self, paper_scenarios, fiducial_tables, constants):
        with pytest.raises(ValueError):
            classify_machine(0, paper_scenarios, fiducial_tables, constants)

    def test_energy_reported(self, paper_scenarios, fiducial_tables, constants):
        report = classify_machine(1609, paper_scenarios, fiducial_tables, constants)
        for a in report:
            assert a.energy_ev > 0.0
            assert a.probed_length_m > 0.0


def test_underflowing_probe_rejected(paper_scenarios, fiducial_tables, constants):
    from crdbounds.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="probed"):
        classify_machine(1_000_000, paper_scenarios, fiducial_tables, constants)


def test_energy_past_the_largest_double_rejected(paper_scenarios, fiducial_tables, constants):
    from crdbounds.errors import ConfigurationError

    # the lab's probed length is about 1.4e-319 m: positive, but hbar c / l overflows
    with pytest.raises(ConfigurationError, match="lab energy probed by 4300 qubits"):
        classify_machine(4300, paper_scenarios, fiducial_tables, constants)
    report = classify_machine(4248, paper_scenarios, fiducial_tables, constants)
    assert all(0.0 < a.energy_ev < float("inf") for a in report)


def test_default_constants_are_the_planck_units(paper_scenarios, fiducial_tables):
    explicit = planck_units()
    for s in paper_scenarios:
        assert planck_threshold(s, fiducial_tables) == planck_threshold(s, fiducial_tables, explicit)
    for n in (1, 900, 2048):
        assert classify_machine(n, paper_scenarios, fiducial_tables) == classify_machine(
            n, paper_scenarios, fiducial_tables, explicit
        )
