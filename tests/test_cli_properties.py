"""Property test: no CLI invocation ends in a traceback, and every
successful --json invocation prints strict JSON."""

import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from crdbounds.cli import main
from crdbounds.config import RunConfig

SPECIAL = ["nan", "inf", "-inf", "0", "-0.0", "-1", "5e-324", "1e-300", "1e300", "1.7976931348623157e+308"]
FLOATS = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
POSITIVE = FLOATS | st.floats(min_value=1e-300, max_value=1e300).map(repr)
INTS = st.sampled_from(["0", "-3", "1", "8", "4300", str(10**400)]) | st.integers().map(str)

# The figure range draws give at most a few hundred points or are rejected.
COMMON = {
    "--h0": POSITIVE,
    "--omega-m": FLOATS | st.sampled_from(["0.3", "1", "1e-300"]),
    "--omega-lambda": FLOATS | st.sampled_from(["0.7", "0", "0.9999999999999999"]),
    "--lab-volume": POSITIVE,
    "--lab-duration": POSITIVE,
    "--inputs-per-op": INTS,
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

# A config file's lines: known keys with drawn values, unknown keys, and text
# without "=".
CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(list(RunConfig._fields)), FLOATS | INTS),
    st.builds("{}={}".format, st.sampled_from(["hubble", "quad_rel_tol", "", " # note"]), FLOATS),
    st.text(max_size=20),
)
# (how the config is given, what it is): a file of random bytes or of drawn
# lines, the temporary directory itself, or a path that does not exist
CONFIGS = st.tuples(
    st.sampled_from(["--config", "CRDBOUNDS_CONFIG"]),
    st.one_of(
        st.binary(max_size=64),
        st.lists(CONFIG_LINES, max_size=4).map(lambda lines: "\n".join(lines).encode("utf-8")),
        st.sampled_from(["directory", "missing"]),
    ),
)
# figure --out: a file, the temporary directory itself, a missing parent
OUTS = st.sampled_from(["fig.out", ".", "no/fig.out"])


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _config_path(tmp: Path, content) -> Path:
    if content == "directory":
        return tmp
    if content == "missing":
        return tmp / "absent.cfg"
    path = tmp / "run.cfg"
    path.write_bytes(content)
    return path


@st.composite
def invocations(draw):
    verb = draw(st.sampled_from(sorted(VERB_FLAGS)))
    flags = {**COMMON, **VERB_FLAGS[verb]}
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5))
    args = [verb]
    for flag in chosen:
        args += [flag, draw(flags[flag])]
    return args


@given(invocations(), st.booleans(), st.none() | CONFIGS, OUTS)
# the lab's probed length at 4300 qubits is positive, its energy past the largest double
@example(["scale", "--qubits", "4300"], True, None, "fig.out")
@settings(max_examples=120, deadline=None)
def test_every_invocation_exits_cleanly(args, as_json, config, out):
    env = {"CRDBOUNDS_CONFIG": None}
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            route, content = config
            path = str(_config_path(Path(tmp), content))
            if route == "--config":
                args = [*args, "--config", path]
            else:
                env["CRDBOUNDS_CONFIG"] = path
        if args[0] == "figure":
            args = [*args, "--out", str(Path(tmp) / out)]
        if as_json:
            args = [*args, "--json"]
        result = CliRunner(env=env).invoke(main, args)
    event(f"exit {result.exit_code}")
    assert result.exit_code in {0, 1, 2}, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    if as_json and result.exit_code == 0:
        # strict JSON: NaN and Infinity are no answers
        json.loads(result.stdout, parse_constant=_reject_constant)
