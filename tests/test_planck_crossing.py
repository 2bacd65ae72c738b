"""planck_crossing reads the crossing off a series' end points; these tests
hold it to the law's own crossing, planck_threshold, on sampled figures."""

import pytest

from crdbounds.bounds import Scenario, ScenarioKind
from crdbounds.config import RunConfig
from crdbounds.figure import (
    SMALL_LAB_DURATION_S,
    SMALL_LAB_VOLUME_M3,
    FigurePoint,
    FigureSeries,
    build_figure,
    planck_crossing,
)
from crdbounds.thresholds import planck_threshold


def _figure_scenarios(params):
    """The scenarios behind build_figure's five series, in series order."""
    cfg = RunConfig()
    return [
        Scenario.lab(SMALL_LAB_VOLUME_M3, SMALL_LAB_DURATION_S),
        Scenario.lab(cfg.lab_volume_m3, cfg.lab_duration_s),
        Scenario.universe(params),
        Scenario.lab_fully_connected(cfg.lab_volume_m3, cfg.lab_duration_s),
        Scenario.universe_fully_connected(params),
    ]


@pytest.mark.parametrize("step", [1.0, 0.37, 0.01])
@pytest.mark.parametrize("tables_fixture", ["fiducial_tables", "eds_tables"])
def test_crossing_matches_threshold(request, tables_fixture, step, constants):
    tables = request.getfixturevalue(tables_fixture)
    series, _ = build_figure((450.0, 1700.0), step, tables, constants)
    for s, scenario in zip(series, _figure_scenarios(tables.params), strict=True):
        assert s.kind == scenario.kind
        exact = planck_threshold(scenario, tables, constants).log2_nops_exact
        assert planck_crossing(s, constants.l_p) == pytest.approx(exact, rel=0.0, abs=1e-9)


def test_range_that_misses_the_planck_length(fiducial_tables, constants):
    # the fully connected universe crosses near 1609 qubits, the lab near 525
    above, _ = build_figure((450.0, 500.0), 1.0, fiducial_tables, constants)
    below, _ = build_figure((600.0, 700.0), 1.0, fiducial_tables, constants)
    assert planck_crossing(above[4], constants.l_p) is None
    assert planck_crossing(below[1], constants.l_p) is None


def test_empty_series_has_no_crossing(constants):
    empty = FigureSeries(label="empty", kind=ScenarioKind.LAB, style_hint="dotted", points=())
    assert planck_crossing(empty, constants.l_p) is None


@pytest.mark.parametrize("factors, end", [((1.0, 0.5, 0.25), 0), ((4.0, 2.0, 1.0), -1)])
def test_end_point_on_the_planck_length_is_returned_exactly(constants, factors, end):
    l_p = constants.l_p
    points = tuple(
        FigurePoint(log2_neo, f * l_p, 1.0) for log2_neo, f in zip((100.1, 200.3, 300.7), factors)
    )
    s = FigureSeries(label="s", kind=ScenarioKind.LAB, style_hint="dotted", points=points)
    assert planck_crossing(s, l_p) == points[end].log2_neo


def test_single_point_series(constants):
    l_p = constants.l_p
    on, off = (
        FigureSeries(label="s", kind=ScenarioKind.LAB, style_hint="dotted", points=(FigurePoint(7.5, length, 1.0),))
        for length in (l_p, 2.0 * l_p)
    )
    assert planck_crossing(on, l_p) == 7.5
    assert planck_crossing(off, l_p) is None
