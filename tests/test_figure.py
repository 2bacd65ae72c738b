import json
import math

import numpy as np
import pytest

from crdbounds.figure import (
    CSV_HEADER,
    MAX_FIGURE_POINTS,
    SMALL_LAB_DURATION_S,
    SMALL_LAB_VOLUME_M3,
    Annotation,
    FigureSeries,
    _arange,
    build_figure,
    planck_crossing,
    read_series_json,
    write_series,
)
from crdbounds.thresholds import planck_threshold

import oracles


@pytest.fixture(scope="module")
def fiducial_figure(fiducial_tables, constants):
    return build_figure((450.0, 1700.0), 1.0, fiducial_tables, constants)


def test_five_series_with_canonical_styles(fiducial_figure):
    series, _ = fiducial_figure
    assert len(series) == 5
    assert [s.style_hint for s in series] == [
        "dotted",
        "solid_lower",
        "solid_upper",
        "dashed",
        "dashdot",
    ]
    assert len({s.label for s in series}) == 5


def test_points_sorted_and_strictly_decreasing(fiducial_figure):
    series, _ = fiducial_figure
    for s in series:
        qs = [p.log2_neo for p in s.points]
        ls = [p.length_m for p in s.points]
        assert qs == sorted(qs)
        assert all(a > b for a, b in zip(ls, ls[1:]))


def test_log_log_slope_is_inverse_exponent(fiducial_figure):
    series, _ = fiducial_figure
    for s in series:
        p0, p1 = s.points[0], s.points[-1]
        slope = (math.log2(p1.length_m) - math.log2(p0.length_m)) / (p1.log2_neo - p0.log2_neo)
        assert slope == pytest.approx(-1.0 / s.kind.exponent, abs=1e-9)


def test_planck_crossings_match_thresholds(fiducial_figure, fiducial_tables, constants, paper_scenarios):
    series, _ = fiducial_figure
    exact = {
        s.kind: planck_threshold(s, fiducial_tables, constants).log2_nops_exact
        for s in paper_scenarios
    }
    for s in series[1:]:  # the small 1 m^3 lab is not in the canonical scenario set
        crossing = planck_crossing(s, constants.l_p)
        assert crossing == pytest.approx(exact[s.kind], abs=0.01)


def test_small_lab_crossing_is_planck_crd(fiducial_figure, constants):
    # a 1 m^3, 1 s lab reaches the Planck length exactly at the Planck
    # rate-density ceiling
    series, _ = fiducial_figure
    crossing = planck_crossing(series[0], constants.l_p)
    assert crossing == pytest.approx(oracles.PLANCK_CRD_LOG2, abs=0.01)


def test_energy_axis_consistent(fiducial_figure, constants):
    series, _ = fiducial_figure
    p = series[0].points[0]
    assert p.energy_ev == pytest.approx(constants.hbar * constants.c / p.length_m / 1.602176634e-19, rel=1e-12)


def test_annotations(fiducial_figure, constants):
    _, annotations = fiducial_figure
    by_label = {a.label: a for a in annotations}
    assert by_label["planck_scale"].energy_ev == constants.e_p_ev
    assert by_label["rsa_qubits_min"].log2_neo == 1000.0
    assert by_label["rsa_qubits_max"].log2_neo == 10000.0
    assert by_label["2026"].energy_ev == 1e13
    assert by_label["1960"].energy_ev == 3e10
    assert by_label["1900"].energy_ev == 5e6


def test_annotation_requires_exactly_one_axis():
    with pytest.raises(ValueError):
        Annotation(label="x", note="y")
    with pytest.raises(ValueError):
        Annotation(label="x", note="y", log2_neo=1.0, energy_ev=1.0)


def test_bad_range_and_step_rejected(fiducial_tables):
    with pytest.raises(ValueError, match="min < max"):
        build_figure((600.0, 600.0), 1.0, fiducial_tables)
    with pytest.raises(ValueError, match="step"):
        build_figure((450.0, 500.0), 0.0, fiducial_tables)


def test_style_hint_validated():
    with pytest.raises(ValueError, match="style"):
        FigureSeries(label="x", kind=None, style_hint="zigzag", points=())


def test_csv_schema(tmp_path, fiducial_figure):
    series, annotations = fiducial_figure
    path = tmp_path / "fig.csv"
    write_series(series, annotations, path, "csv")
    raw = path.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + sum(len(s.points) for s in series)
    # full-precision float rendering: fields parse back to the exact doubles
    first = series[0].points[0]
    cells = lines[1].split(",")
    assert cells[0] == series[0].kind.value
    assert cells[1] == series[0].label
    assert float(cells[2]) == first.log2_neo
    assert float(cells[3]) == first.length_m
    assert float(cells[4]) == first.energy_ev
    assert cells[3] == format(first.length_m, ".17g")


def test_csv_header_only_for_empty_series(tmp_path):
    path = tmp_path / "empty.csv"
    write_series([], [], path, "csv")
    assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"


def test_json_round_trip_bit_exact(tmp_path, fiducial_figure):
    series, annotations = fiducial_figure
    path = tmp_path / "fig.json"
    write_series(series, annotations, path, "json")
    series_back, annotations_back = read_series_json(path)
    assert series_back == list(series)
    assert annotations_back == list(annotations)


def test_json_structure_field_names(tmp_path, fiducial_figure):
    series, annotations = fiducial_figure
    path = tmp_path / "fig.json"
    write_series(series, annotations, path, "json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"series", "annotations"}
    assert set(doc["series"][0]) == {"label", "kind", "style_hint", "points"}
    assert set(doc["series"][0]["points"][0]) == {"log2_neo", "length_m", "energy_ev"}
    assert set(doc["annotations"][0]) == {"label", "note", "log2_neo", "energy_ev"}


def test_unknown_format_rejected(tmp_path, fiducial_figure):
    series, annotations = fiducial_figure
    with pytest.raises(ValueError, match="format"):
        write_series(series, annotations, tmp_path / "fig.xml", "xml")


def test_unwritable_path_raises_oserror(tmp_path, fiducial_figure):
    series, annotations = fiducial_figure
    with pytest.raises(OSError):
        write_series(series, annotations, tmp_path / "missing" / "fig.csv", "csv")


def test_config_overrides_lab_parameters(fiducial_tables, constants):
    series, _ = build_figure(
        (450.0, 550.0), 1.0, fiducial_tables, constants, lab_volume_m3=1.0, lab_duration_s=1.0
    )
    # solid_lower now coincides with the dotted small-lab line
    dotted, solid_lower = series[0], series[1]
    assert planck_crossing(solid_lower, constants.l_p) == pytest.approx(
        planck_crossing(dotted, constants.l_p), abs=1e-9
    )


def test_points_match_scalar_loop(fiducial_figure, fiducial_tables, paper_scenarios, constants):
    from crdbounds.bounds import Scenario, energy_from_length, length_for_scenario
    from crdbounds.quantities import LogQuantity

    series, _ = fiducial_figure
    by_kind = {s.kind: s for s in paper_scenarios}
    small_lab = Scenario.lab(SMALL_LAB_VOLUME_M3, SMALL_LAB_DURATION_S)
    scenarios = [small_lab] + [by_kind[s.kind] for s in series[1:]]
    assert len(series) == len(scenarios) == 5
    for s, scenario in zip(series, scenarios):
        for p in s.points:
            length = length_for_scenario(scenario, LogQuantity(p.log2_neo), fiducial_tables)
            assert p.length_m == length
            assert p.energy_ev == energy_from_length(length, constants)


def _bits(xs):
    return [x.hex() for x in xs]  # tells -0.0 from 0.0, unlike ==


@pytest.mark.parametrize("step", [1.0, 0.1, 0.01])
def test_log2_neo_is_np_arange_bit_for_bit(fiducial_tables, step):
    series, _ = build_figure((450.0, 1700.0), step, fiducial_tables)
    want = _bits(np.arange(450.0, 1700.0 + 0.5 * step, step).tolist())
    for s in series:
        assert _bits(s.points.log2_neo) == want


@pytest.mark.parametrize(
    "lo, hi, step",
    [
        (-5.0, -5.0 + 0.37 * (MAX_FIGURE_POINTS - 1), 0.37),  # the off-grid row at the point cap
        (-0.0, 3.0, 0.1),  # np.arange keeps the sign of a zero start
    ],
)
def test_grid_is_np_arange_bit_for_bit(lo, hi, step):
    stop = hi + 0.5 * step
    assert _bits(_arange(lo, stop, step)) == _bits(np.arange(lo, stop, step).tolist())


@pytest.mark.parametrize(
    "qubit_range, step",
    [
        ((math.nan, 500.0), 1.0),
        ((450.0, math.inf), 1.0),
        ((450.0, 500.0), math.inf),
        ((450.0, 1700.0), 1e-9),  # too many points; rejected before allocating
        ((0.0, 1e300), 1e299),  # probed lengths underflow to 0 m
    ],
)
def test_unusable_grids_rejected(fiducial_tables, qubit_range, step):
    from crdbounds.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        build_figure(qubit_range, step, fiducial_tables)


@pytest.mark.parametrize(
    "qubit_range, step, quantity, got",
    [
        ((-1e6, 500.0), 1e5, "probed length", "inf"),  # 2.0 ** x raises OverflowError
        ((0.0, 1e300), 1e299, "probed length", "0.0"),
        ((0.0, 4300.0), 100.0, "energy", "inf"),  # a subnormal length
        ((-4000.0, 450.0), 50.0, "energy", "0.0"),  # hbar c / 1.4e303 m underflows
    ],
)
def test_values_outside_double_range_name_series_and_quantity(fiducial_tables, qubit_range, step, quantity, got):
    from crdbounds.errors import ConfigurationError

    want = f"small lab 1 m3 for 1 s: {quantity} must be a finite number in (0, inf), got {got}"
    with pytest.raises(ConfigurationError) as info:
        build_figure(qubit_range, step, fiducial_tables)
    assert str(info.value) == want


def test_an_empty_range_is_a_configuration_error(fiducial_tables):
    from crdbounds.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="min < max"):
        build_figure((600.0, 600.0), 1.0, fiducial_tables)


def test_csv_label_with_percent_sign_is_literal(tmp_path, fiducial_figure):
    series, annotations = fiducial_figure
    s = series[0]
    renamed = FigureSeries(label="100% %s", kind=s.kind, style_hint=s.style_hint, points=s.points[:2])
    path = tmp_path / "fig.csv"
    write_series([renamed], annotations, path, "csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    p = s.points[0]
    assert lines[1] == f"{s.kind.value},100% %s,{p.log2_neo:.17g},{p.length_m:.17g},{p.energy_ev:.17g}"
