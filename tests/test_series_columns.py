"""A figure series keeps its points as three columns behind a read-only
sequence view, and the writers give the same bytes as the row-by-row writer
they replaced, which is kept below as the reference."""

import copy
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from crdbounds.bounds import ScenarioKind
from crdbounds.errors import ConfigurationError
from crdbounds.figure import (
    CSV_HEADER,
    MAX_FIGURE_POINTS,
    Annotation,
    FigurePoint,
    FigureSeries,
    SeriesPoints,
    build_figure,
    check_grid,
    read_series_json,
    write_series,
)


def reference_write_series(series, annotations, path, fmt="csv"):
    """The row-by-row writer, verbatim."""
    path = Path(path)
    if fmt == "csv":
        lines = [CSV_HEADER]
        for s in series:
            # the prefix stays out of the format string, so a % in a label is literal
            prefix = f"{s.kind.value},{s.label},"
            lines.extend(prefix + "%.17g,%.17g,%.17g" % p for p in s.points)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    elif fmt == "json":
        doc = {
            "series": [
                {
                    "label": s.label,
                    "kind": s.kind.value,
                    "style_hint": s.style_hint,
                    "points": [
                        {
                            "log2_neo": p.log2_neo,
                            "length_m": p.length_m,
                            "energy_ev": p.energy_ev,
                        }
                        for p in s.points
                    ],
                }
                for s in series
            ],
            "annotations": [
                {
                    "label": a.label,
                    "note": a.note,
                    "log2_neo": a.log2_neo,
                    "energy_ev": a.energy_ev,
                }
                for a in annotations
            ],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n")
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


ROWS = (FigurePoint(450.0, 2.5e-20, 7.9e12), FigurePoint(451.0, 2.25e-20, 8.7e12), FigurePoint(452.0, 2e-20, 9.8e12))


def _series(label="s", points=ROWS, kind=ScenarioKind.LAB, style="dotted"):
    return FigureSeries(label=label, kind=kind, style_hint=style, points=points)


# -- the columns and their view -----------------------------------------------


def test_rows_become_columns():
    s = _series()
    assert isinstance(s.points, SeriesPoints)
    assert s.points.log2_neo == (450.0, 451.0, 452.0)
    assert s.points.length_m == (2.5e-20, 2.25e-20, 2e-20)
    assert s.points.energy_ev == (7.9e12, 8.7e12, 9.8e12)
    assert all(type(c) is tuple for c in (s.points.log2_neo, s.points.length_m, s.points.energy_ev))


def test_no_points_become_empty_columns():
    s = _series(points=())
    assert isinstance(s.points, SeriesPoints)
    assert (s.points.log2_neo, s.points.length_m, s.points.energy_ev) == ((), (), ())
    assert len(s.points) == 0 and not s.points and list(s.points) == []


def test_index_gives_a_figure_point():
    s = _series()
    assert type(s.points[1]) is FigurePoint
    assert s.points[1] == ROWS[1]
    assert s.points[-1] == ROWS[-1]
    assert s.points[0].length_m == 2.5e-20
    with pytest.raises(IndexError):
        s.points[3]


def test_slices():
    s = _series()
    assert tuple(s.points[0:2]) == ROWS[0:2]
    assert tuple(s.points[::2]) == ROWS[::2]
    assert tuple(s.points[::-1]) == ROWS[::-1]
    assert tuple(s.points[5:]) == ()
    assert isinstance(s.points[1:], SeriesPoints)


def test_len_iteration_and_sequence_methods():
    s = _series()
    assert len(s.points) == 3
    assert tuple(s.points) == ROWS
    assert all(type(p) is FigurePoint for p in s.points)
    assert list(reversed(s.points)) == list(ROWS[::-1])
    assert ROWS[2] in s.points
    assert s.points.index(ROWS[1]) == 1
    # a view prints as its columns
    neo, length, energy = zip(*ROWS)
    assert repr(s.points) == f"SeriesPoints(log2_neo={neo!r}, length_m={length!r}, energy_ev={energy!r})"


def test_equality_and_hash_as_with_row_tuples():
    a, b = _series(), _series(points=SeriesPoints(*zip(*ROWS)))
    assert a == b and a.points == b.points
    assert tuple(a.points) == ROWS == tuple(b.points)
    # a view compares and hashes as its columns, not as the tuple of its rows
    assert a.points != ROWS and ROWS != a.points
    assert hash(a.points) == hash(tuple(zip(*ROWS))) == hash(b.points)
    assert hash(a) == hash(("s", ScenarioKind.LAB, "dotted", b.points)) == hash(b)
    assert a != _series(points=ROWS[:2])
    assert a != _series(label="t")
    assert a.points != list(ROWS)  # a tuple never equalled a list either


def test_view_is_read_only():
    s = _series()
    with pytest.raises(TypeError):
        s.points[0] = ROWS[1]
    with pytest.raises(AttributeError):
        s.points.log2_neo = ()


def test_copies_and_pickles_are_equal():
    s = _series()
    for other in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert other == s and hash(other) == hash(s)
        assert isinstance(other.points, SeriesPoints)


def test_columns_must_agree_in_length():
    with pytest.raises(ValueError, match="length"):
        SeriesPoints((1.0, 2.0), (1.0,), (1.0, 2.0))


def test_json_round_trip_gives_equal_series(tmp_path, fiducial_tables, constants):
    series, annotations = build_figure((450.0, 1700.0), 0.37, fiducial_tables, constants)
    path = tmp_path / "fig.json"
    write_series(series, annotations, path, "json")
    back, annotations_back = read_series_json(path)
    assert back == series and annotations_back == annotations
    for s, b in zip(series, back):
        for name in FigurePoint._fields:
            got, want = getattr(b.points, name), getattr(s.points, name)
            assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def test_series_of_one_figure_share_one_log2_neo_tuple(fiducial_tables, constants):
    series, _ = build_figure((450.0, 500.0), 0.5, fiducial_tables, constants)
    neo = series[0].points.log2_neo
    assert type(neo) is tuple and len(neo) == 101
    assert all(s.points.log2_neo is neo for s in series)
    assert all(type(v) is float for s in series for c in (s.points.length_m, s.points.energy_ev) for v in c)


# -- byte identity of the writers -----------------------------------------------


def _assert_same_bytes(tmp_path, series, annotations):
    for fmt in ("csv", "json"):
        got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
        write_series(series, annotations, got, fmt)
        reference_write_series(series, annotations, want, fmt)
        assert got.read_bytes() == want.read_bytes(), fmt


@pytest.mark.parametrize("step", [1.0, 0.37])
def test_fiducial_figure_bytes(tmp_path, fiducial_tables, constants, step):
    _assert_same_bytes(tmp_path, *build_figure((450.0, 1700.0), step, fiducial_tables, constants))


def test_eds_figure_bytes(tmp_path, eds_tables, constants):
    _assert_same_bytes(tmp_path, *build_figure((450.0, 1700.0), 1.0, eds_tables, constants))


def test_empty_series_list_bytes(tmp_path):
    _assert_same_bytes(tmp_path, [], [])
    _assert_same_bytes(tmp_path, [], [Annotation(label="a", note="b", log2_neo=1.0)])


def test_series_without_points_bytes(tmp_path):
    annotations = [Annotation(label="x", note="y", energy_ev=3.0)]
    _assert_same_bytes(tmp_path, [_series(points=())], annotations)
    _assert_same_bytes(tmp_path, [_series(points=()), _series(), _series(points=())], annotations)


def test_awkward_label_bytes(tmp_path):
    labels = ['100% "lab", \\ back', "énergie Ω ≥ 1 – 東京", "%s %d %%", ""]
    series = [_series(label=label, kind=kind) for label, kind in zip(labels, ScenarioKind)]
    annotations = [Annotation(label='%"\\,é', note="ü %% \"quoted\"", log2_neo=2.0)]
    _assert_same_bytes(tmp_path, series, annotations)


def test_special_value_bytes(tmp_path):
    rows = (
        (3, -0.0, math.inf),
        (-0.0, math.nan, 5e-324),
        (math.inf, -math.inf, 0),
        (1e308, 1.0, -7),
    )
    neo, length, energy = (tuple(c) for c in zip(*rows))
    series = [
        _series(points=rows),
        # a second series whose log2_neo column compares equal but is another
        # tuple, then one whose column differs
        _series(label="b", points=SeriesPoints(tuple(list(neo)), length, energy)),
        _series(label="c", points=SeriesPoints((1, 2, 3, 4), length, energy)),
    ]
    _assert_same_bytes(tmp_path, series, [])


def test_unknown_format_writes_no_file(tmp_path):
    path = tmp_path / "fig.xml"
    with pytest.raises(ValueError, match="format"):
        write_series([_series()], [], path, "xml")
    assert not path.exists()


# -- the point cap ----------------------------------------------------------------


def _arange_points(lo, hi, step):
    return len(np.arange(lo, hi + 0.5 * step, step))


@pytest.mark.parametrize(
    "lo, hi, step",
    [
        (0.0, 262143.0, 1.0),
        (450.0, 450.0 + 0.01 * (MAX_FIGURE_POINTS - 1), 0.01),
        (-5.0, -5.0 + 0.37 * (MAX_FIGURE_POINTS - 1), 0.37),
    ],
)
def test_grid_at_the_cap_accepted(lo, hi, step):
    assert _arange_points(lo, hi, step) == MAX_FIGURE_POINTS
    check_grid(lo, hi, step)


@pytest.mark.parametrize(
    "lo, hi, step",
    [
        (0.0, 262143.9, 1.0),
        (0.0, 262144.0, 1.0),
        (450.0, 450.0 + 0.01 * MAX_FIGURE_POINTS, 0.01),
        (-5.0, -5.0 + 0.37 * (MAX_FIGURE_POINTS - 0.4), 0.37),
    ],
)
def test_grid_one_point_over_the_cap_rejected(lo, hi, step):
    assert _arange_points(lo, hi, step) == MAX_FIGURE_POINTS + 1
    with pytest.raises(ConfigurationError, match="exceeds"):
        check_grid(lo, hi, step)


def test_overflowing_grid_rejected():
    with pytest.raises(ConfigurationError, match="exceeds"):
        check_grid(-1e308, 1e308, 1.0)
