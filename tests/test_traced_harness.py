"""The benchmark's traced run wraps crdbounds functions by name and reads
some of their arguments by name or position (``perfbench/tracing.py``). A
renamed function or a moved parameter would break every ``--trace 1`` run
without failing any other test, so both are checked here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(qualname):
    modname, attr = qualname.rsplit(".", 1)
    return getattr(importlib.import_module(modname), attr)


def test_every_traced_name_is_a_function(tracing):
    for qualname, _ in tracing.TRACED:
        assert callable(_resolve(qualname)), qualname


@pytest.mark.parametrize(
    "qualname, position, name",
    [
        ("crdbounds.quadrature.integrate", 0, "f"),
        ("crdbounds.quadrature.build_cumulative", 0, "f"),
        ("crdbounds.quadrature.build_cumulative", 1, "grid"),
        ("crdbounds.quadrature.interpolate", 1, "x"),
        ("crdbounds.figure.write_series", 2, "path"),
        ("crdbounds.figure.write_series", 3, "fmt"),
    ],
)
def test_hooked_arguments_keep_their_names_and_positions(qualname, position, name):
    parameters = list(inspect.signature(_resolve(qualname)).parameters)
    assert parameters[position] == name


def test_install_wraps_and_restore_unwraps(tracing):
    from crdbounds import quadrature

    original = quadrature.interpolate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        table = quadrature.build_cumulative(np.cos, [0.0, 1.0])
        quadrature.interpolate(table, 0.5)
        quadrature.integrate(np.cos, 0.0, 1.0)
    finally:
        tracer.restore()
    assert quadrature.interpolate is original
    for name in ("build_cumulative", "interpolate", "integrate"):
        assert tracer.calls[f"quadrature.{name}"] == 1
    assert tracer.counters["quadrature.interpolate.points"] == 1
    assert tracer.counters["quadrature.integrand_points"] > 0
