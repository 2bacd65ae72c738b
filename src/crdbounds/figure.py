"""Machine-readable data series for the probed-length-versus-NEO figure.

Emits the five canonical bound lines (small lab, large lab, universe, fully
connected lab, fully connected universe) sampled on a log2-NEO grid, plus
annotation markers (Planck scale, RSA qubit range, historical collider
energies). The small lab and the markers are conventions, fixed below as
module constants; only the large lab's volume and duration are settable
(build_figure's keywords, RunConfig's lab by default). Rendering is left to
external tools; this module only writes CSV and JSON files.

A series holds its points as three columns of Python floats in tuples
(log2_neo, length_m, energy_ev); the five series of one figure share one
log2_neo tuple. The lengths are ``PowerLaw.lengths`` of the grid and the
energies ``bounds.energies_from_lengths`` of the lengths, so every point is
the double the scalar API returns; both columns are range-checked at the
grid's ends, where the extremes lie. ``FigureSeries.points`` is a
``SeriesPoints``, a read-only record of the columns that compares, hashes
and prints as them and is a sequence of ``FigurePoint`` rows. A tuple of
columns is three container objects where a tuple of rows is one per point,
so a dense figure builds without the cyclic collector scanning hundreds of
thousands of rows.

CSV schema: header ``series,label,log2_neo,length_m,energy_ev``, UTF-8, LF
line endings, floats rendered with %.17g. The writer streams one block per
series into the open file, each block one % format over the interleaved
columns; the shared log2_neo column is formatted once. JSON mirrors the
series and annotation structure with identical field names, in
``json.dumps(doc, indent=2)``'s layout byte for byte, so a write/read round
trip reproduces every point bit-exactly. json.dumps renders every number (one
call per column) and string; only the whitespace and punctuation between them
come from fixed templates.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .bounds import Scenario, ScenarioKind, energies_from_lengths, power_law
from .config import RunConfig
from .errors import ConfigurationError, _Record, check_range
from .laws import UniverseLaws
from .quantities import PLANCK_UNITS, PhysicalConstants

STYLE_HINTS = ("dotted", "solid_lower", "solid_upper", "dashed", "dashdot")

CSV_HEADER = "series,label,log2_neo,length_m,energy_ev"

# Largest number of points per series, about twice the 125001 points of the
# default range at step 0.01.
MAX_FIGURE_POINTS = 1 << 18

# Conventions, not computed quantities: the 1 m^3, 1 s small lab, the edges
# of the RSA-2048 logical-qubit estimate range, and (year, energy in eV,
# source) for the right-hand axis markers.
SMALL_LAB_VOLUME_M3 = 1.0
SMALL_LAB_DURATION_S = 1.0
RSA_QUBITS_MIN = 1000.0
RSA_QUBITS_MAX = 10000.0
ENERGY_MARKERS = (
    (1900, 5.0e6, "radioactivity"),
    (1960, 3.0e10, "Alternating Gradient Synchrotron"),
    (2026, 1.0e13, "Large Hadron Collider"),
)


class FigurePoint(NamedTuple):
    log2_neo: float
    length_m: float
    energy_ev: float


class SeriesPoints(_Record, Sequence):
    """Read-only sequence view of a series' points over its three columns.

    ``points[i]`` is a ``FigurePoint``; a slice is another view over sliced
    columns. Views compare, hash and print as their columns; ``tuple(points)``
    gives the rows.
    """

    __slots__ = _fields = FigurePoint._fields

    def _check(self):
        if not len(self.log2_neo) == len(self.length_m) == len(self.energy_ev):
            raise ValueError("point columns differ in length")

    def __len__(self) -> int:
        return len(self.log2_neo)

    def __getitem__(self, i):
        columns = (self.log2_neo[i], self.length_m[i], self.energy_ev[i])
        return SeriesPoints(*columns) if isinstance(i, slice) else FigurePoint(*columns)


class FigureSeries(_Record):
    """One bound line: label, kind (a ScenarioKind), style_hint and points.
    ``points`` is a ``SeriesPoints`` view over the columns; a sequence of
    ``FigurePoint`` rows (or 3-tuples) given instead is turned into columns
    here, as given, with no conversion of the values."""

    __slots__ = _fields = ("label", "kind", "style_hint", "points")

    def _check(self):
        if self.style_hint not in STYLE_HINTS:
            raise ValueError(f"unknown style hint {self.style_hint!r}")
        if not isinstance(self.points, SeriesPoints):
            columns = tuple(zip(*self.points)) or ((), (), ())
            object.__setattr__(self, "points", SeriesPoints(*columns))


class Annotation(_Record):
    """A marker, label and note, keyed either to the x axis (log2_neo) or the
    right-hand energy axis (energy_ev, > 0), each a finite number."""

    __slots__ = _fields = ("label", "note", "log2_neo", "energy_ev")
    _defaults = {"log2_neo": None, "energy_ev": None}

    def _check(self):
        if (self.log2_neo is None) == (self.energy_ev is None):
            raise ValueError("exactly one of log2_neo or energy_ev must be set")
        if self.energy_ev is None:
            check_range("annotation log2_neo", self.log2_neo, -math.inf)
        else:
            check_range("annotation energy_ev", self.energy_ev)


def check_grid(lo: float, hi: float, step: float) -> None:
    """Reject a log2-NEO range or step that is not finite, a reversed range
    (min > max), a step that is not positive, and grids of more than
    MAX_FIGURE_POINTS points, before any grid is allocated."""
    check_range("min log2 NEO", lo, -math.inf)
    check_range("max log2 NEO", hi, -math.inf)
    if lo > hi:
        raise ConfigurationError(f"min log2 NEO {lo!r} exceeds max log2 NEO {hi!r}")
    check_range("step", step)
    # build_figure samples _arange(lo, hi + 0.5 * step, step), whose length
    # (np.arange's) is the ceiling of this quotient; the ceiling exceeds the
    # integer cap exactly when the quotient does (an overflow to inf is
    # rejected too)
    if (hi + 0.5 * step - lo) / step > MAX_FIGURE_POINTS:
        raise ConfigurationError(
            f"range [{lo!r}, {hi!r}] at step {step!r} exceeds {MAX_FIGURE_POINTS} points"
        )


def build_figure(
    qubit_range: Tuple[float, float],
    step: float,
    laws: UniverseLaws,
    constants: PhysicalConstants = PLANCK_UNITS,
    *,
    lab_volume_m3: float = RunConfig._defaults["lab_volume_m3"],
    lab_duration_s: float = RunConfig._defaults["lab_duration_s"],
) -> Tuple[List[FigureSeries], List[Annotation]]:
    """Sample the five canonical series over a log2-NEO grid.

    qubit_range is (min, max) with min < max; step > 0. Every series is
    strictly decreasing in length along the grid; the universe series read ``laws``.
    A length or an energy that is not a positive double, an energy that
    underflows to 0 included, is a ConfigurationError naming the series.
    """
    lo, hi = qubit_range
    check_grid(lo, hi, step)
    if not lo < hi:
        raise ConfigurationError(f"qubit range must satisfy min < max, got ({lo!r}, {hi!r})")
    params = laws.params

    small = f"{SMALL_LAB_VOLUME_M3:g} m3 for {SMALL_LAB_DURATION_S:g} s"
    lab = f"{lab_volume_m3:g} m3 for {lab_duration_s:g} s"
    specs = [
        (f"small lab {small}", Scenario.lab(SMALL_LAB_VOLUME_M3, SMALL_LAB_DURATION_S), "dotted"),
        (f"lab {lab}", Scenario.lab(lab_volume_m3, lab_duration_s), "solid_lower"),
        ("universe", Scenario.universe(params), "solid_upper"),
        (f"fully connected lab {lab}", Scenario.lab_fully_connected(lab_volume_m3, lab_duration_s), "dashed"),
        ("fully connected universe", Scenario.universe_fully_connected(params), "dashdot"),
    ]

    grid = _arange(lo, hi + 0.5 * step, step)
    log2_neo = tuple(grid)
    series = []
    for label, scenario, style in specs:
        # lengths fall and energies rise along the grid, so its ends hold
        # the extremes; ** raises OverflowError past the largest double
        law = power_law(scenario, laws)
        for end in (grid[0], grid[-1]):
            try:
                length = law.length(end)
            except OverflowError:
                length = math.inf
            check_range(f"{label}: probed length", length)
        lengths = tuple(law.lengths(grid))
        energies = tuple(energies_from_lengths(lengths, constants))
        for energy in (energies[0], energies[-1]):
            check_range(f"{label}: energy", energy)
        points = SeriesPoints(log2_neo, lengths, energies)
        series.append(FigureSeries(label=label, kind=scenario.kind, style_hint=style, points=points))

    annotations = [
        Annotation(
            label="planck_scale",
            note=f"l_p = {constants.l_p:.6e} m",
            energy_ev=constants.e_p_ev,
        ),
        Annotation(
            label="rsa_qubits_min",
            note="lower edge of the RSA-2048 logical-qubit estimate range",
            log2_neo=RSA_QUBITS_MIN,
        ),
        Annotation(
            label="rsa_qubits_max",
            note="upper edge of the RSA-2048 logical-qubit estimate range",
            log2_neo=RSA_QUBITS_MAX,
        ),
    ]
    for year, energy_ev, source in ENERGY_MARKERS:
        annotations.append(
            Annotation(label=str(year), note=source, energy_ev=float(energy_ev))
        )
    return series, annotations


def _arange(lo: float, stop: float, step: float) -> List[float]:
    """np.arange(lo, stop, step).tolist(), bit for bit, by numpy's own rule:
    ceil((stop - lo) / step) points lo, lo + step, then lo + i * delta with
    delta = (lo + step) - lo."""
    n = max(0, math.ceil((stop - lo) / step))
    delta = (lo + step) - lo
    return [lo, lo + step][:n] + [lo + i * delta for i in range(2, n)]


def planck_crossing(series: FigureSeries, l_p: float) -> Optional[float]:
    """log2 NEO at which the series crosses length = l_p.

    Every series emitted here is a power law, a straight line in
    (log2_neo, log2 length), so the crossing is the linear interpolation
    between the first and last points; no point in between is read. None if
    the series is empty or l_p lies outside [last length, first length].
    """
    neo, length = series.points.log2_neo, series.points.length_m
    if not neo:
        return None
    for i in (0, -1):
        if length[i] == l_p:
            return neo[i]
    if not length[-1] < l_p < length[0]:
        return None
    f = (math.log2(length[0]) - math.log2(l_p)) / (
        math.log2(length[0]) - math.log2(length[-1])
    )
    return neo[0] + f * (neo[-1] - neo[0])


# json.dumps(doc, indent=2)'s layout around one series' fields, and around
# one point inside its "points" list
_JSON_SERIES = (
    '    {\n'
    '      "label": %s,\n'
    '      "kind": %s,\n'
    '      "style_hint": %s,\n'
    '      "points": '
)
_JSON_POINT = (
    '        {\n'
    '          "log2_neo": %s,\n'
    '          "length_m": %s,\n'
    '          "energy_ev": %s\n'
    '        }'
)


def write_series(
    series: Sequence[FigureSeries],
    annotations: Sequence[Annotation],
    path: Union[str, Path],
    fmt: str = "csv",
) -> None:
    """Write series (and, for JSON, annotations) to a file.

    CSV holds the point rows only; its fixed schema has no annotation columns.
    Both formats are written one series at a time into the open file.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        if fmt == "csv":
            _write_csv(series, f)
        else:
            _write_json(series, annotations, f)


def _interleave(*columns: Sequence) -> tuple:
    """The columns' items row by row: a0, b0, c0, a1, b1, c1, ..."""
    flat = [None] * (len(columns) * len(columns[0]))
    for j, column in enumerate(columns):
        flat[j :: len(columns)] = column
    return tuple(flat)


def _write_csv(series: Sequence[FigureSeries], f) -> None:
    f.write(CSV_HEADER + "\n")
    neo, neo_text = None, None
    for s in series:
        points = s.points
        if not points:
            continue
        if points.log2_neo != neo:  # the series of one figure share the column
            neo = points.log2_neo
            neo_text = ("\n".join(["%.17g"] * len(neo)) % neo).split("\n")
        # doubling % keeps a % in the kind or label literal
        row = f"{s.kind.value},{s.label},".replace("%", "%%") + "%s,%.17g,%.17g\n"
        f.write(row * len(points) % _interleave(neo_text, points.length_m, points.energy_ev))


def _write_json(series: Sequence[FigureSeries], annotations: Sequence[Annotation], f) -> None:
    f.write('{\n  "series": [')
    for i, s in enumerate(series):
        f.write(",\n" if i else "\n")
        f.write(_JSON_SERIES % (json.dumps(s.label), json.dumps(s.kind.value), json.dumps(s.style_hint)))
        points = s.points
        if not points:
            f.write("[]\n    }")
            continue
        # one C-encoder call per column: "[x0, x1, ...]" split into its numbers
        numbers = [
            json.dumps(column)[1:-1].split(", ")
            for column in (points.log2_neo, points.length_m, points.energy_ev)
        ]
        body = ",\n".join([_JSON_POINT] * len(points)) % _interleave(*numbers)
        f.write("[\n" + body + "\n      ]\n    }")
    marks = [
        {"label": a.label, "note": a.note, "log2_neo": a.log2_neo, "energy_ev": a.energy_ev}
        for a in annotations
    ]
    close = "\n  ]" if series else "]"
    # a JSON string holds no raw newline, so this indents every line one level
    marks_text = json.dumps(marks, indent=2).replace("\n", "\n  ")
    f.write(f'{close},\n  "annotations": {marks_text}\n}}\n')


def read_series_json(path: Union[str, Path]) -> Tuple[List[FigureSeries], List[Annotation]]:
    """Inverse of write_series(..., fmt="json")."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    series = [
        FigureSeries(
            label=s["label"],
            kind=ScenarioKind(s["kind"]),
            style_hint=s["style_hint"],
            points=tuple(
                FigurePoint(p["log2_neo"], p["length_m"], p["energy_ev"])
                for p in s["points"]
            ),
        )
        for s in doc["series"]
    ]
    annotations = [
        Annotation(
            label=a["label"],
            note=a["note"],
            log2_neo=a["log2_neo"],
            energy_ev=a["energy_ev"],
        )
        for a in doc["annotations"]
    ]
    return series, annotations
