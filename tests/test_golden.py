"""CLI outputs against stored golden files: published numbers must not move.

The files in tests/golden/ hold the --json output of threshold, kfactors and
scale --qubits 2048 at the fiducial and matter-only cosmologies. Floats must
agree to a relative 1e-12; integers, strings and booleans exactly.
achieved_rel_delta is a difference of two nearly equal k-factors, so it is
compared at an absolute 1e-14. They also hold the figure file, as CSV and as
JSON, over a range that brackets the universe series' Planck crossing at
806.4; the written bytes must match exactly.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from crdbounds.cli import main

GOLDEN = Path(__file__).parent / "golden"
COSMOLOGIES = {"fiducial": [], "eds": ["--omega-m", "1", "--omega-lambda", "0"]}
VERBS = {"threshold": ["threshold"], "kfactors": ["kfactors"], "scale": ["scale", "--qubits", "2048"]}


def _assert_matches(got, want, path, abs_tol=None):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            tol = 1e-14 if key == "achieved_rel_delta" else abs_tol
            _assert_matches(got[key], want[key], f"{path}.{key}", tol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]", abs_tol)
    elif isinstance(want, float):
        assert isinstance(got, float), path
        if abs_tol is None:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
        else:
            assert got == pytest.approx(want, rel=0.0, abs=abs_tol), path
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.parametrize("cosmology", sorted(COSMOLOGIES))
@pytest.mark.parametrize("verb", sorted(VERBS))
def test_json_output_matches_golden(verb, cosmology):
    runner = CliRunner(env={"CRDBOUNDS_CONFIG": None})
    result = runner.invoke(main, VERBS[verb] + COSMOLOGIES[cosmology] + ["--json"])
    assert result.exit_code == 0, result.output
    want = json.loads((GOLDEN / f"{verb}_{cosmology}.json").read_text())
    _assert_matches(json.loads(result.stdout), want, verb)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_figure_file_matches_golden(tmp_path, fmt):
    out = tmp_path / f"figure.{fmt}"
    runner = CliRunner(env={"CRDBOUNDS_CONFIG": None})
    args = ["figure", "--min", "800", "--max", "812", "--step", "4", "--format", fmt, "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / f"figure_fiducial.{fmt}").read_bytes()
