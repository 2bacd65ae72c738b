"""Machine-readable data series for the probed-length-versus-NEO figure.

Emits the five canonical bound lines (small lab, large lab, universe, fully
connected lab, fully connected universe) sampled on a log2-NEO grid, plus
annotation markers (Planck scale, RSA qubit range, historical collider
energies). The small lab and the markers are conventions, fixed below as
module constants; only the large lab's volume and duration are settable
(FigureConfig). Rendering is left to external tools; this module only writes
CSV and JSON files.

CSV schema: header ``series,label,log2_neo,length_m,energy_ev``, UTF-8, LF
line endings, floats rendered with %.17g. JSON mirrors the series and
annotation structure with identical field names, so a write/read round trip
reproduces every point bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .bounds import Scenario, ScenarioKind, energy_from_length, length_for_scenario
from .cosmology import LightconeTables
from .errors import ConfigurationError, check_range
from .quantities import JULIAN_YEAR_S, LogQuantity, PhysicalConstants, planck_units

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


@dataclass(frozen=True)
class FigureSeries:
    label: str
    kind: ScenarioKind
    style_hint: str
    points: Tuple[FigurePoint, ...]

    def __post_init__(self):
        if self.style_hint not in STYLE_HINTS:
            raise ValueError(f"unknown style hint {self.style_hint!r}")


@dataclass(frozen=True)
class Annotation:
    """A marker keyed either to the x axis (log2_neo) or the right-hand
    energy axis (energy_ev)."""

    label: str
    note: str
    log2_neo: Optional[float] = None
    energy_ev: Optional[float] = None

    def __post_init__(self):
        if (self.log2_neo is None) == (self.energy_ev is None):
            raise ValueError("exactly one of log2_neo or energy_ev must be set")
        value = self.log2_neo if self.log2_neo is not None else self.energy_ev
        if not math.isfinite(value):
            raise ValueError(f"annotation value must be finite, got {value!r}")


@dataclass(frozen=True)
class FigureConfig:
    """The large lab drawn by the lab and fully connected lab series."""

    lab_volume_m3: float = 1000.0
    lab_duration_s: float = JULIAN_YEAR_S


def check_grid(lo: float, hi: float, step: float) -> None:
    """Reject a log2-NEO range or step that is not finite, a step that is not
    positive, and grids of more than MAX_FIGURE_POINTS points, before any
    grid is allocated."""
    check_range("min log2 NEO", lo, -math.inf)
    check_range("max log2 NEO", hi, -math.inf)
    check_range("step", step)
    if (hi - lo) / step >= MAX_FIGURE_POINTS:
        raise ConfigurationError(
            f"range [{lo!r}, {hi!r}] at step {step!r} exceeds {MAX_FIGURE_POINTS} points"
        )


def build_figure(
    qubit_range: Tuple[float, float],
    step: float,
    tables: LightconeTables,
    constants: Optional[PhysicalConstants] = None,
    config: Optional[FigureConfig] = None,
) -> Tuple[List[FigureSeries], List[Annotation]]:
    """Sample the five canonical series over a log2-NEO grid.

    qubit_range is (min, max) with min < max; step > 0. Every series is
    strictly decreasing in length along the grid.
    """
    lo, hi = qubit_range
    check_grid(lo, hi, step)
    if not lo < hi:
        raise ValueError(f"qubit range must satisfy min < max, got ({lo!r}, {hi!r})")
    k = constants if constants is not None else planck_units()
    cfg = config if config is not None else FigureConfig()
    params = tables.params

    specs = [
        (
            f"small lab {SMALL_LAB_VOLUME_M3:g} m3 for {SMALL_LAB_DURATION_S:g} s",
            Scenario.lab(SMALL_LAB_VOLUME_M3, SMALL_LAB_DURATION_S),
            "dotted",
        ),
        (
            f"lab {cfg.lab_volume_m3:g} m3 for {cfg.lab_duration_s:g} s",
            Scenario.lab(cfg.lab_volume_m3, cfg.lab_duration_s),
            "solid_lower",
        ),
        ("universe", Scenario.universe(params), "solid_upper"),
        (
            f"fully connected lab {cfg.lab_volume_m3:g} m3 for {cfg.lab_duration_s:g} s",
            Scenario.lab_fully_connected(cfg.lab_volume_m3, cfg.lab_duration_s),
            "dashed",
        ),
        (
            "fully connected universe",
            Scenario.universe_fully_connected(params),
            "dashdot",
        ),
    ]

    grid = np.arange(lo, hi + 0.5 * step, step)
    neo = LogQuantity(grid)
    log2_neo = grid.tolist()
    series = []
    for label, scenario, style in specs:
        # the range checks report overflow; lengths fall along the grid, so
        # the ends of each array hold its extremes
        with np.errstate(over="ignore"):
            lengths = length_for_scenario(scenario, neo, tables)
            for length in (lengths[0], lengths[-1]):
                check_range(f"{label}: probed length", float(length))
            energies = energy_from_length(lengths, k)
        check_range(f"{label}: energy", float(energies[-1]))
        points = tuple(map(FigurePoint, log2_neo, lengths.tolist(), energies.tolist()))
        series.append(FigureSeries(label=label, kind=scenario.kind, style_hint=style, points=points))

    annotations = [
        Annotation(
            label="planck_scale",
            note=f"l_p = {k.l_p:.6e} m",
            energy_ev=k.e_p_ev,
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


def planck_crossing(series: FigureSeries, l_p: float) -> Optional[float]:
    """log2 NEO at which the series crosses length = l_p.

    Every series emitted here is a power law, a straight line in
    (log2_neo, log2 length), so the crossing is the linear interpolation
    between the first and last points; no point in between is read. None if
    the series is empty or l_p lies outside [last length, first length].
    """
    if not series.points:
        return None
    first, last = series.points[0], series.points[-1]
    for end in (first, last):
        if end.length_m == l_p:
            return end.log2_neo
    if not last.length_m < l_p < first.length_m:
        return None
    f = (math.log2(first.length_m) - math.log2(l_p)) / (
        math.log2(first.length_m) - math.log2(last.length_m)
    )
    return first.log2_neo + f * (last.log2_neo - first.log2_neo)


def write_series(
    series: Sequence[FigureSeries],
    annotations: Sequence[Annotation],
    path: Union[str, Path],
    fmt: str = "csv",
) -> None:
    """Write series (and, for JSON, annotations) to a file.

    CSV holds the point rows only; its fixed schema has no annotation columns.
    """
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
