"""No CLI verb builds light-cone tables, and one error boundary for the
quadrature behind the k-factors the verbs read.

`kfactors` reports, as its convergence delta, the k-factors' shift between
the last two panel counts of the one k-integral it makes.
"""

import json

import pytest
from click.testing import CliRunner

import crdbounds.cli as cli
import crdbounds.cosmology as cosmology
import crdbounds.laws as laws
from crdbounds.errors import QuadratureError

EDS = ["--omega-m", "1", "--omega-lambda", "0"]
FIGURE = ["figure", "--min", "500", "--max", "600", "--step", "5"]
MACHINE = ["scale", "--ops", "3.352e15", "--volume", "7.44e-7", "--duration", "1"]


def _invoke(args):
    return CliRunner(env={"CRDBOUNDS_CONFIG": None}).invoke(cli.main, args)


def _with_out(args, tmp_path):
    return [*args, "--out", str(tmp_path / "fig.csv")] if args[0] == "figure" else args


@pytest.fixture()
def builds(monkeypatch):
    """The arguments of every table tabulation, the step of build_tables
    after the k-integrals, made while the test runs."""
    calls = []
    real = cosmology._tabulate

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cosmology, "_tabulate", counting)
    return calls


@pytest.mark.parametrize(
    "args",
    [["constants"], ["kfactors"], ["threshold"], ["scale", "--qubits", "2048"], MACHINE, FIGURE],
    ids=" ".join,
)
def test_no_verb_builds_a_table(builds, tmp_path, args, eds_params):
    result = _invoke(_with_out(args, tmp_path))
    assert result.exit_code == 0, result.output
    assert builds == []
    # the count does see a library build
    cosmology.build_tables(eds_params, grid_points=64)
    assert len(builds) == 1


@pytest.mark.parametrize("cosmology_args", [[], EDS], ids=["fiducial", "eds"])
def test_delta_is_the_shift_between_the_last_two_panel_counts(request, cosmology_args):
    doc = json.loads(_invoke(["kfactors", "--json", *cosmology_args]).stdout)
    name = "eds" if cosmology_args else "fiducial"
    params = request.getfixturevalue(f"{name}_params")
    _, shifts = laws.k_integrals(params, 1e-9)
    assert doc["achieved_rel_delta"] == dict(zip(("k4u", "k7u", "k8u"), shifts))
    # spectral convergence: 4 and 8 panels already agree to rounding
    assert 0.0 < max(shifts) <= 1e-14


def _failing_k_integrals(monkeypatch, below):
    """Make every k-integral asked for a tolerance under `below` fail."""
    real = laws.k_integrals

    def k_integrals(params, rel_tol):
        if rel_tol < below:
            raise QuadratureError("ran out of panels", 0.0, 1e-3)
        return real(params, rel_tol)

    monkeypatch.setattr(laws, "k_integrals", k_integrals)


@pytest.mark.parametrize(
    "args, below",
    [
        (["kfactors"], 1.0),
        (["threshold"], 1.0),
        (["scale", "--qubits", "2048"], 1.0),
        (FIGURE, 1.0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else f"below {v:g}",
)
def test_quadrature_failure_is_one_line_exit_1(monkeypatch, tmp_path, args, below):
    _failing_k_integrals(monkeypatch, below)
    result = _invoke(_with_out(args, tmp_path))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == ["Error: quadrature failed: ran out of panels"]
