"""The records' contract: every record class is immutable and hashable,
copies and pickles round-trip, ``_replace`` checks and derives again like
the constructor, and derived fields stay out of equality and repr."""

import copy
import pickle

import numpy as np
import pytest

from crdbounds.bounds import Scenario, ScenarioKind, power_law
from crdbounds.config import RunConfig
from crdbounds.cosmology import LightconeTables
from crdbounds.errors import ConfigurationError
from crdbounds.figure import Annotation, FigureSeries, SeriesPoints
from crdbounds.laws import CosmologyParams, UniverseLaws, universe_laws
from crdbounds.quantities import JULIAN_YEAR_S, LogQuantity, PhysicalConstants, planck_units


def _params():
    return CosmologyParams.create(70.0, 0.3, 0.7)


# Each record class, made from scratch; LightconeTables are the session's
# fiducial tables, whose build is too slow to repeat.
MAKERS = {
    LogQuantity: lambda tables: LogQuantity(3.5),
    PhysicalConstants: lambda tables: planck_units(),
    CosmologyParams: lambda tables: _params(),
    UniverseLaws: lambda tables: universe_laws(_params()),
    LightconeTables: lambda tables: tables,
    Scenario: lambda tables: Scenario.lab_nearest_neighbor(1000.0, JULIAN_YEAR_S, 8),
    RunConfig: lambda tables: RunConfig(h0_km_s_mpc=67.0),
    FigureSeries: lambda tables: FigureSeries("s", ScenarioKind.LAB, "dotted", ((1.0, 2.0, 3.0),)),
    SeriesPoints: lambda tables: SeriesPoints((1.0, 4.0), (2.0, 5.0), (3.0, 6.0)),
    Annotation: lambda tables: Annotation("a", "b", log2_neo=1.0),
}

# The derived fields, which equality and repr leave out.
HIDDEN = {
    Scenario: ("law",),
    UniverseLaws: ("log2_k",),
    LightconeTables: ("log2_k", "x_max", "x_first"),
    RunConfig: ("params",),
}


@pytest.fixture(params=list(MAKERS), ids=lambda cls: cls.__name__)
def make(request, fiducial_tables):
    def make():
        record = MAKERS[request.param](fiducial_tables)
        assert type(record) is request.param
        return record

    return make


def test_fields_cannot_be_set_or_deleted(make):
    record = make()
    for name in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_equal_records_hash_alike(make):
    a, b = make(), make()
    c = a._replace()
    assert c is not a
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)


def test_copies_and_pickles_round_trip(make):
    record = make()
    for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(other) is type(record)
        if isinstance(record, LightconeTables):
            # the tables compare by identity, so compare their arrays
            for name in ("eta", "v4", "rate"):
                old, new = getattr(record, name), getattr(other, name)
                assert np.array_equal(old.edges, new.edges) and np.array_equal(old.values, new.values)
            other = other._replace(eta=record.eta, v4=record.v4, rate=record.rate)
        assert other == record and hash(other) == hash(record)
        for name in HIDDEN.get(type(record), ()):
            assert getattr(other, name) == getattr(record, name)


def test_repr_omits_derived_fields(make):
    record = make()
    text = repr(record)
    assert text.startswith(f"{type(record).__qualname__}(")
    for name in record._fields:
        assert f"{name}=" in text
    for name in HIDDEN.get(type(record), ()):
        assert f"{name}=" not in text


def test_repr_is_the_dataclass_form():
    assert repr(Annotation("a", "b", log2_neo=1.0)) == "Annotation(label='a', note='b', log2_neo=1.0, energy_ev=None)"
    # a cosmology's derived timescales are compared and shown, after its inputs
    p = _params()
    assert repr(p) == (
        f"CosmologyParams(h0={p.h0!r}, omega_m=0.3, omega_lambda=0.7, "
        f"t_lambda={p.t_lambda!r}, t_universe={p.t_universe!r})"
    )


def test_derived_fields_do_not_decide_equality():
    laws = universe_laws(_params())
    assert laws == UniverseLaws(laws.params, laws.k4u, laws.k7u, laws.k8u, laws.k_shift)
    assert laws != UniverseLaws(laws.params, 2.0 * laws.k4u, laws.k7u, laws.k8u, laws.k_shift)
    assert Scenario.universe(_params()) == Scenario.universe(_params())
    assert Scenario.universe(_params()) != Scenario.universe_broadcast(_params())


def test_replace_runs_the_checks():
    with pytest.raises(ConfigurationError, match="flatness"):
        _params()._replace(omega_m=0.5)
    with pytest.raises(ConfigurationError, match="flatness"):
        RunConfig()._replace(omega_m=0.5)
    with pytest.raises(ConfigurationError, match="inputs_per_op"):
        MAKERS[Scenario](None)._replace(inputs_per_op=0)
    with pytest.raises(ConfigurationError, match="lab volume"):
        Scenario.universe(_params())._replace(v3=1.0)
    with pytest.raises(ValueError, match="style hint"):
        MAKERS[FigureSeries](None)._replace(style_hint="zigzag")
    with pytest.raises(ValueError, match="exactly one"):
        MAKERS[Annotation](None)._replace(energy_ev=1.0)


def test_replace_derives_again(fiducial_tables):
    s = Scenario.lab(1000.0, JULIAN_YEAR_S)
    assert s._replace(v3=8000.0).law == Scenario.lab(8000.0, JULIAN_YEAR_S).law != s.law
    assert s._replace(kind=ScenarioKind.LAB_BROADCAST).law == Scenario.lab_broadcast(1000.0, JULIAN_YEAR_S).law

    p = _params()
    q = p._replace(omega_m=0.25, omega_lambda=0.75)
    assert q.t_universe == CosmologyParams.create(70.0, 0.25, 0.75).t_universe != p.t_universe
    assert q.t_lambda == CosmologyParams.create(70.0, 0.25, 0.75).t_lambda != p.t_lambda
    assert RunConfig()._replace(omega_m=0.25, omega_lambda=0.75).params == CosmologyParams.create(70.0, 0.25, 0.75)

    for laws in (universe_laws(p), fiducial_tables):
        doubled = laws._replace(k4u=2.0 * laws.k4u)
        assert doubled.log2_k[4] == pytest.approx(laws.log2_k[4] + 1.0, abs=1e-12)
        assert doubled.log2_k[7] == laws.log2_k[7]
        assert power_law(Scenario.universe(laws.params), doubled).log2_k == doubled.log2_k[4]


def test_asdict_follows_the_field_order():
    # the CLI's metadata block prints a RunConfig in this order
    assert list(RunConfig()._asdict()) == [
        "h0_km_s_mpc", "omega_m", "omega_lambda", "lab_volume_m3", "lab_duration_s", "inputs_per_op",
    ]
    assert RunConfig()._asdict()["inputs_per_op"] == 8


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # a field without a default missing
    (("a", "b"), {"colour": 1}),  # an unknown field
    (("a", "b", 1.0, None, 2.0), {}),  # too many fields
    (("a", "b"), {"label": "c"}),  # a field given twice
])
def test_constructor_refuses_bad_fields(args, kwargs):
    with pytest.raises(TypeError):
        Annotation(*args, **kwargs)
