"""Property test: no CLI invocation ends in a traceback."""

import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

from crdbounds.cli import main

SPECIAL = ["nan", "inf", "-inf", "0", "-0.0", "-1", "5e-324", "1e-300", "1e300", "1.7976931348623157e+308"]
FLOATS = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
POSITIVE = FLOATS | st.floats(min_value=1e-300, max_value=1e300).map(repr)
INTS = st.sampled_from(["0", "-3", "1", "8", str(10**400)]) | st.integers().map(str)

# Every build is kept small: grid_points draws are tiny or invalid, and the
# figure range draws give at most a few hundred points or are rejected.
COMMON = {
    "--h0": POSITIVE,
    "--omega-m": FLOATS | st.sampled_from(["0.3", "1"]),
    "--omega-lambda": FLOATS | st.sampled_from(["0.7", "0"]),
    "--lab-volume": POSITIVE,
    "--lab-duration": POSITIVE,
    "--inputs-per-op": INTS,
    "--quad-rel-tol": st.sampled_from(["1e-9", "1e-6", "0", "-1", "0.5", "nan", "inf"]),
    "--grid-points": st.sampled_from(["16", "64", "0", "-5", "1000000000", str(10**400)]),
}
VERB_FLAGS = {
    "constants": {},
    "kfactors": {},
    "threshold": {},
    "scale": {"--qubits": INTS, "--ops": POSITIVE, "--volume": POSITIVE, "--duration": POSITIVE},
    "figure": {
        "--min": st.sampled_from(SPECIAL + ["450", "1000", "-1e300"]),
        "--max": st.sampled_from(SPECIAL + ["500", "1700"]),
        "--step": st.sampled_from(SPECIAL + ["5", "50", "1e-9", "1e299"]),
        "--format": st.sampled_from(["csv", "json"]),
    },
}


@st.composite
def invocations(draw):
    verb = draw(st.sampled_from(sorted(VERB_FLAGS)))
    flags = {**COMMON, **VERB_FLAGS[verb]}
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5))
    args = [verb, "--grid-points", "16"]
    for flag in chosen:
        args += [flag, draw(flags[flag])]
    return args


@given(invocations(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_every_invocation_exits_cleanly(args, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        if args[0] == "figure":
            args = [*args, "--out", str(Path(tmp) / "fig.out")]
        if as_json:
            args = [*args, "--json"]
        result = CliRunner().invoke(main, args)
    event(f"exit {result.exit_code}")
    assert result.exit_code in {0, 1, 2}, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
