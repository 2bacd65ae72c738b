"""Stored power laws: classify_machine against a reference written from the
law formulas, and the stored log2 K changing nothing else about scenarios."""

import math
import random

import numpy as np
import pytest

from crdbounds.bounds import (
    PowerLaw,
    Scenario,
    energy_from_length,
    neo_from_qubits,
    power_law,
)
from crdbounds.cosmology import CosmologyParams, build_tables
from crdbounds.errors import ConfigurationError
from crdbounds.quantities import JULIAN_YEAR_S, SPEED_OF_LIGHT
from crdbounds.thresholds import ScenarioAssessment, classify_machine, round_half_up

_LOG2_C = math.log2(SPEED_OF_LIGHT)


def reference_law(scenario, tables):
    """The law rebuilt from its kind's row, as power_law computed it."""
    p, n_v, n_t, weight = scenario.kind.row
    if n_v:
        w = scenario.inputs_per_op if weight is None else weight
        return PowerLaw(
            n_v * math.log2(scenario.v3)
            + n_t * _LOG2_C
            + n_t * math.log2(scenario.duration)
            + math.log2(w),
            p,
        )
    k_p = {4: tables.k4u, 7: tables.k7u, 8: tables.k8u}[p]
    return PowerLaw(math.log2(k_p) + p * (_LOG2_C - math.log2(tables.params.h0)), p)


def reference_classify(n, scenarios, tables, k):
    laws = [reference_law(s, tables) for s in scenarios]
    probed = [law.length(float(n)) for law in laws]
    energies = energy_from_length(np.array(probed), k).tolist()
    rows = [
        (s.kind, round_half_up(law.log2_n_ops(k.l_p)), length, energy, length < k.l_p)
        for s, law, length, energy in zip(scenarios, laws, probed, energies)
    ]
    rows.sort(key=lambda r: r[1])
    return rows


def seven(params, v3=1000.0, duration=JULIAN_YEAR_S, inputs_per_op=8):
    return [
        Scenario.lab(v3, duration),
        Scenario.lab_nearest_neighbor(v3, duration, inputs_per_op),
        Scenario.lab_fully_connected(v3, duration),
        Scenario.lab_broadcast(v3, duration),
        Scenario.universe(params),
        Scenario.universe_fully_connected(params),
        Scenario.universe_broadcast(params),
    ]


@pytest.fixture(scope="module")
def drawn():
    rng = random.Random(20261018)
    h0, omega_m = rng.uniform(50.0, 90.0), rng.uniform(0.15, 0.95)
    params = CosmologyParams.create(h0, omega_m, 1.0 - omega_m)
    scenarios = seven(params, rng.uniform(1e-3, 1e6), rng.uniform(1.0, 1e10), rng.randint(2, 64))
    return scenarios, build_tables(params)


@pytest.fixture(params=["fiducial", "eds", "drawn"])
def case(request, paper_scenarios, fiducial_tables, eds_params, eds_tables, drawn):
    if request.param == "fiducial":
        return paper_scenarios, fiducial_tables
    if request.param == "eds":
        return seven(eds_params), eds_tables
    return drawn


def _orders(scenarios):
    shuffled = list(scenarios)
    random.Random(7).shuffle(shuffled)
    return [list(scenarios), list(reversed(scenarios)), shuffled] + [[s] for s in scenarios]


def test_classify_equals_the_reference_formulas(case, constants):
    scenarios, tables = case
    for order in _orders(scenarios):
        for n in range(1, 2001):
            got = classify_machine(n, order, tables, constants)
            assert [tuple(a) for a in got] == reference_classify(n, order, tables, constants), (n, order)


def test_classify_types_and_fields(paper_scenarios, fiducial_tables):
    report = classify_machine(806, paper_scenarios, fiducial_tables)
    assert ScenarioAssessment._fields == (
        "scenario_kind", "threshold_qubits", "probed_length_m", "energy_ev", "sub_planckian",
    )
    for a in report:
        assert type(a.threshold_qubits) is int
        assert type(a.probed_length_m) is float and type(a.energy_ev) is float
        assert type(a.sub_planckian) is bool


def test_lab_scenarios_need_no_tables(paper_scenarios, constants):
    labs = paper_scenarios[:4]
    for n in (1, 525, 900, 2048):
        assert [tuple(a) for a in classify_machine(n, labs, None, constants)] == reference_classify(
            n, labs, None, constants
        )


def test_missing_tables_reported_before_any_probed_length(paper_scenarios, constants):
    with pytest.raises(ConfigurationError, match="requires light-cone tables"):
        classify_machine(1_000_000, paper_scenarios, None, constants)


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 10**400])
def test_bad_qubit_counts_are_configuration_errors(n, paper_scenarios, fiducial_tables, constants):
    with pytest.raises(ConfigurationError, match="qubit count"):
        neo_from_qubits(n)
    with pytest.raises(ConfigurationError, match="qubit count"):
        classify_machine(n, paper_scenarios, fiducial_tables, constants)


class TestStoredLaws:
    def test_equal_scenarios_stay_equal_and_hash_alike(self, fiducial_params):
        for make in (
            lambda: Scenario.lab(1000.0, JULIAN_YEAR_S),
            lambda: Scenario.lab_nearest_neighbor(1000.0, JULIAN_YEAR_S, 8),
            lambda: Scenario.universe_broadcast(fiducial_params),
            lambda: Scenario.universe_broadcast(CosmologyParams.create(70.0, 0.3, 0.7)),
        ):
            a, b = make(), make()
            assert a == b and hash(a) == hash(b)
            assert "log2_k" not in repr(a)
        assert Scenario.lab(1000.0, 2.0) != Scenario.lab(1000.0, 3.0)

    def test_replace_gives_the_new_law(self):
        s = Scenario.lab_nearest_neighbor(1000.0, JULIAN_YEAR_S, 8)
        for changes in ({"v3": 8000.0}, {"duration": 1.0}, {"inputs_per_op": 3}):
            t = s._replace(**changes)
            assert power_law(t) == reference_law(t, None)
            assert power_law(t) != power_law(s)
            assert t == Scenario.lab_nearest_neighbor(**{
                "v3": 1000.0, "duration": JULIAN_YEAR_S, "inputs_per_op": 8, **changes
            })

    def test_tables_store_every_universe_law(self, paper_scenarios, fiducial_tables, eds_params, eds_tables):
        for tables, scenarios in ((fiducial_tables, paper_scenarios[4:]), (eds_tables, seven(eds_params)[4:])):
            for s in scenarios:
                assert power_law(s, tables) == reference_law(s, tables)

    def test_equal_but_distinct_params_are_accepted(self, fiducial_tables):
        s = Scenario.universe(CosmologyParams.create(70.0, 0.3, 0.7))
        assert s.params is not fiducial_tables.params
        assert power_law(s, fiducial_tables) == reference_law(s, fiducial_tables)

    def test_universe_raises_on_every_call(self, fiducial_params, eds_tables, constants):
        for s in seven(fiducial_params)[4:]:
            for _ in range(3):
                with pytest.raises(ConfigurationError, match="requires light-cone tables"):
                    power_law(s)
                with pytest.raises(ConfigurationError, match="different cosmological parameters"):
                    power_law(s, eds_tables)
                with pytest.raises(ConfigurationError, match="requires light-cone tables"):
                    classify_machine(900, [s], None, constants)
                with pytest.raises(ConfigurationError, match="different cosmological parameters"):
                    classify_machine(900, [s], eds_tables, constants)
