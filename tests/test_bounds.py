import math
import pickle

import numpy as np
import pytest

from crdbounds.bounds import (
    Scenario,
    ScenarioKind,
    crd,
    energy_from_length,
    length_for_scenario,
    max_length,
    n_ops_for_scenario,
    neo_from_qubits,
    planck_crd,
)
from crdbounds.errors import ConfigurationError
from crdbounds.quantities import JULIAN_YEAR_S, SPEED_OF_LIGHT, LogQuantity

import oracles

EXPECTED_EXPONENTS = {
    ScenarioKind.LAB: 4,
    ScenarioKind.LAB_NEAREST_NEIGHBOR: 4,
    ScenarioKind.LAB_FULLY_CONNECTED: 8,
    ScenarioKind.LAB_BROADCAST: 7,
    ScenarioKind.UNIVERSE: 4,
    ScenarioKind.UNIVERSE_FULLY_CONNECTED: 8,
    ScenarioKind.UNIVERSE_BROADCAST: 7,
}

# (p, n_V, n_T, weight) from the README's scenario table; None is the
# inputs_per_op, and a universe kind's weight, "-" there, is unused
README_ROWS = {
    ScenarioKind.LAB: (4, 1, 1, 1.0),
    ScenarioKind.LAB_NEAREST_NEIGHBOR: (4, 1, 1, None),
    ScenarioKind.LAB_FULLY_CONNECTED: (8, 2, 2, 0.5),
    ScenarioKind.LAB_BROADCAST: (7, 2, 1, 1.0),
    ScenarioKind.UNIVERSE: (4, 0, 0, 1.0),
    ScenarioKind.UNIVERSE_FULLY_CONNECTED: (8, 0, 0, 1.0),
    ScenarioKind.UNIVERSE_BROADCAST: (7, 0, 0, 1.0),
}


class TestScenarioValidation:
    def test_lab_requires_volume_and_duration(self):
        with pytest.raises(ValueError, match="volume"):
            Scenario(ScenarioKind.LAB, duration=1.0)
        with pytest.raises(ValueError, match="duration"):
            Scenario(ScenarioKind.LAB, v3=1.0)

    def test_lab_rejects_cosmology(self, fiducial_params):
        with pytest.raises(ValueError, match="cosmological"):
            Scenario(ScenarioKind.LAB, v3=1.0, duration=1.0, params=fiducial_params)

    def test_universe_requires_params(self):
        with pytest.raises(ValueError, match="cosmological"):
            Scenario(ScenarioKind.UNIVERSE)

    def test_universe_rejects_lab_fields(self, fiducial_params):
        with pytest.raises(ValueError, match="volume"):
            Scenario(ScenarioKind.UNIVERSE, v3=1.0, duration=1.0, params=fiducial_params)

    def test_inputs_per_op_only_for_nearest_neighbor(self, fiducial_params):
        with pytest.raises(ValueError, match="inputs_per_op"):
            Scenario(ScenarioKind.LAB, v3=1.0, duration=1.0, inputs_per_op=8)
        with pytest.raises(ValueError, match="inputs_per_op"):
            Scenario.lab_nearest_neighbor(1.0, 1.0, inputs_per_op=0)
        with pytest.raises(ValueError, match="inputs_per_op must be an integer"):
            Scenario.lab_nearest_neighbor(1000.0, 1.0, 2.5)

    def test_exponents(self):
        for kind, exponent in EXPECTED_EXPONENTS.items():
            assert kind.exponent == exponent
        assert set(README_ROWS) == set(ScenarioKind)
        for kind, row in README_ROWS.items():
            assert kind.row == row
            assert ScenarioKind(kind.value) is kind
            assert pickle.loads(pickle.dumps(kind)) is kind


class TestMaxLength:
    def test_gpu_die(self):
        length = max_length(7.44e-7, 1.0, LogQuantity.from_real(3.352e15))
        assert length == pytest.approx(oracles.GPU_MAX_LENGTH_M, rel=1e-9)
        assert 4.8e-4 <= length <= 5.3e-4

    def test_unit_identity(self):
        # V3 = 1 m^3 and cT = 1 m make the bound exactly 1 m at N = 1
        assert max_length(1.0, 1.0 / SPEED_OF_LIGHT, LogQuantity(0.0)) == pytest.approx(1.0, rel=1e-12)

    def test_lab_threshold_inverts_to_planck_length(self, constants):
        length = max_length(1000.0, JULIAN_YEAR_S, LogQuantity(oracles.THRESHOLD_LOG2["lab"]))
        assert length == pytest.approx(constants.l_p, rel=1e-9)
        # the coarser 525.33 quoted for the crossing still lands within 0.5%
        coarse = max_length(1000.0, JULIAN_YEAR_S, LogQuantity(525.33))
        assert abs(coarse - constants.l_p) / constants.l_p < 5e-3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            max_length(-1.0, 1.0, LogQuantity(0.0))


class TestCrd:
    def test_power_of_two(self):
        assert crd(LogQuantity(10.0), 1.0, 1.0).log2_value == 10.0

    def test_gpu_die(self):
        rate = crd(LogQuantity.from_real(3.352e15), 7.44e-7, 1.0)
        assert 2.0**rate.log2_value == pytest.approx(oracles.GPU_CRD, rel=1e-9)

    def test_grid_definition(self):
        # elements at l = 1 mm clocked at tau = 1 ns: 1/(l^3 tau) = 1e18
        l, tau = 1e-3, 1e-9
        rate = crd(LogQuantity.from_real(1.0), l**3, tau)
        assert 2.0**rate.log2_value == pytest.approx(1e18, rel=1e-12)


class TestPlanckCrd:
    def test_value(self, constants):
        ceiling = planck_crd(constants)
        assert ceiling.log2_value == pytest.approx(oracles.PLANCK_CRD_LOG2, abs=1e-9)
        assert ceiling.pow2_str() == "1.37 × 2^490"

    def test_quadrupling_planck_cell_subtracts_two(self, constants):
        scale = 4.0**0.25
        stretched = constants._replace(
            l_p=constants.l_p * scale, t_p=constants.t_p * scale
        )
        assert planck_crd(stretched).log2_value == pytest.approx(
            planck_crd(constants).log2_value - 2.0, abs=1e-12
        )


class TestNeoFromQubits:
    @pytest.mark.parametrize("n", [1, 525, 2048])
    def test_exact_power(self, n):
        assert neo_from_qubits(n).log2_value == float(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            neo_from_qubits(0)


class TestNOpsForScenario:
    def test_lab_at_planck_length(self, constants):
        s = Scenario.lab(1000.0, JULIAN_YEAR_S)
        got = n_ops_for_scenario(s, constants.l_p).log2_value
        assert got == pytest.approx(oracles.THRESHOLD_LOG2["lab"], abs=1e-6)

    def test_fully_connected_universe_at_planck_length(self, constants, fiducial_tables, fiducial_params):
        s = Scenario.universe_fully_connected(fiducial_params)
        got = n_ops_for_scenario(s, constants.l_p, fiducial_tables).log2_value
        assert got == pytest.approx(oracles.THRESHOLD_LOG2["universe-fully-connected"], abs=1e-5)

    def test_fully_connected_lab_scaling(self):
        s = Scenario.lab_fully_connected(1000.0, JULIAN_YEAR_S)
        l = 1e-20
        doubled = n_ops_for_scenario(s, l / 2.0).log2_value - n_ops_for_scenario(s, l).log2_value
        assert doubled == pytest.approx(8.0, abs=1e-9)

    def test_universe_kind_requires_tables(self, fiducial_params):
        with pytest.raises(ConfigurationError, match="tables"):
            n_ops_for_scenario(Scenario.universe(fiducial_params), 1e-20)

    def test_mismatched_tables_rejected(self, fiducial_tables):
        from crdbounds.cosmology import CosmologyParams

        other = CosmologyParams.create(67.0, 0.3, 0.7)
        with pytest.raises(ConfigurationError, match="different"):
            n_ops_for_scenario(Scenario.universe(other), 1e-20, fiducial_tables)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            n_ops_for_scenario(Scenario.lab(1.0, 1.0), 0.0)

    def test_single_input_nearest_neighbor_equals_lab(self):
        lab = Scenario.lab(1000.0, JULIAN_YEAR_S)
        nn = Scenario.lab_nearest_neighbor(1000.0, JULIAN_YEAR_S, inputs_per_op=1)
        for l in (1e-35, 1e-20, 1e-9):
            assert n_ops_for_scenario(nn, l).log2_value == n_ops_for_scenario(lab, l).log2_value


class TestLengthForScenario:
    def test_round_trips_all_kinds(self, paper_scenarios, fiducial_tables):
        rng = np.random.default_rng(3)
        lengths = 10.0 ** rng.uniform(-40, -3, 50)
        for s in paper_scenarios:
            for l in lengths:
                n_ops = n_ops_for_scenario(s, l, fiducial_tables)
                back = length_for_scenario(s, n_ops, fiducial_tables)
                assert abs(math.log2(back) - math.log2(l)) <= 1e-10 * abs(math.log2(l))

    def test_universe_threshold_neighborhood(self, constants, fiducial_tables, fiducial_params):
        # a rounded 2^806 operation count probes within a few percent of l_p
        s = Scenario.universe(fiducial_params)
        length = length_for_scenario(s, LogQuantity(806.0), fiducial_tables)
        assert abs(length / constants.l_p - 1.0) < 0.1

    def test_broadcast_lab_threshold_neighborhood(self, constants):
        s = Scenario.lab_broadcast(1000.0, JULIAN_YEAR_S)
        length = length_for_scenario(s, LogQuantity(882.0), None)
        assert abs(length / constants.l_p - 1.0) < 0.01

    def test_length_past_the_largest_double_rejected(self):
        with pytest.raises(ConfigurationError, match="exceeds the largest double"):
            length_for_scenario(Scenario.lab(1.0, 1.0), LogQuantity(-1e6))

    def test_log_slope_matches_exponent(self, paper_scenarios, fiducial_tables):
        l1, l2 = 1e-10, 1e-30
        for s in paper_scenarios:
            n1 = n_ops_for_scenario(s, l1, fiducial_tables).log2_value
            n2 = n_ops_for_scenario(s, l2, fiducial_tables).log2_value
            slope = (n2 - n1) / (math.log2(1.0 / l2) - math.log2(1.0 / l1))
            assert slope == pytest.approx(s.kind.exponent, abs=1e-9)

    def test_ordering_at_planck_length(self, paper_scenarios, fiducial_tables, constants):
        by_kind = {
            s.kind: n_ops_for_scenario(s, constants.l_p, fiducial_tables).log2_value
            for s in paper_scenarios
        }
        expected_order = [
            ScenarioKind.LAB,
            ScenarioKind.LAB_NEAREST_NEIGHBOR,
            ScenarioKind.UNIVERSE,
            ScenarioKind.LAB_BROADCAST,
            ScenarioKind.LAB_FULLY_CONNECTED,
            ScenarioKind.UNIVERSE_BROADCAST,
            ScenarioKind.UNIVERSE_FULLY_CONNECTED,
        ]
        values = [by_kind[k] for k in expected_order]
        assert values == sorted(values)


class TestEnergy:
    def test_planck_length_gives_planck_energy(self, constants):
        assert energy_from_length(constants.l_p, constants) == pytest.approx(
            constants.e_p_ev, rel=1e-12
        )

    def test_doubling_length_halves_energy(self, constants):
        assert energy_from_length(2e-20, constants) == pytest.approx(
            0.5 * energy_from_length(1e-20, constants), rel=1e-15
        )

    def test_collider_scale(self, constants):
        assert energy_from_length(oracles.LHC_LENGTH_M, constants) == pytest.approx(1e13, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            energy_from_length(0.0)

    def test_rejects_energy_past_the_largest_double(self):
        with pytest.raises(ConfigurationError, match="energy"):
            energy_from_length(5e-324)


class TestArrayValued:
    def test_arrays_match_scalar_loop(self, paper_scenarios, fiducial_tables):
        # numpy's vector log2 and pow may round differently from libm's
        lengths = 10.0 ** np.linspace(-40.0, -3.0, 101)
        log2_n = np.linspace(1.0, 2000.0, 101)
        for s in paper_scenarios:
            n_ops = n_ops_for_scenario(s, lengths, fiducial_tables).log2_value
            back = length_for_scenario(s, LogQuantity(log2_n), fiducial_tables)
            for i in range(len(lengths)):
                scalar_n = n_ops_for_scenario(s, float(lengths[i]), fiducial_tables).log2_value
                scalar_l = length_for_scenario(s, LogQuantity(float(log2_n[i])), fiducial_tables)
                assert abs(n_ops[i] - scalar_n) <= 4 * np.spacing(abs(scalar_n))
                assert abs(back[i] - scalar_l) <= 4 * np.spacing(scalar_l)

    def test_energy_of_array(self, constants):
        lengths = np.array([constants.l_p, 2e-20, 1e-20])
        expected = [energy_from_length(float(l), constants) for l in lengths]
        assert energy_from_length(lengths, constants).tolist() == expected

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(ValueError):
            n_ops_for_scenario(Scenario.lab(1.0, 1.0), np.array([1e-20, 0.0]))
        with pytest.raises(ValueError):
            energy_from_length(np.array([1e-20, np.nan]))


@pytest.mark.parametrize("field", ["v3", "duration"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_lab_scenario_rejects_nonfinite(field, value):
    kwargs = {"v3": 1.0, "duration": 1.0, field: value}
    with pytest.raises(ConfigurationError, match="finite"):
        Scenario(ScenarioKind.LAB, **kwargs)
