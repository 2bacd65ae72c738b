import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from crdbounds import __version__, cli, laws
from crdbounds.bounds import Scenario, ScenarioKind
from crdbounds.cli import main
from crdbounds.figure import read_series_json
from crdbounds.thresholds import planck_threshold

import oracles


@pytest.fixture()
def runner():
    return CliRunner()


def _json_out(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output == f"crdbounds, version {__version__}\n"


def test_no_verb_is_one_line_usage_error(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2, result.output
    assert result.output == "Error: the following arguments are required: COMMAND\n"


@pytest.mark.parametrize(
    "args, error",
    [
        (["constants", "--"], None),
        (["constants", "--", "--json"], "Error: Got unexpected extra argument (--json)"),
        (["constants", "--json", "extra"], "Error: Got unexpected extra argument (extra)"),
    ],
    ids=["marker", "flag after marker", "stray word"],
)
def test_end_of_options_marker_is_dropped_once(runner, args, error):
    # everything after "--" is an argument, and constants takes none
    result = runner.invoke(main, args)
    assert result.exit_code == (2 if error else 0), result.output
    assert [line for line in result.output.splitlines() if line.startswith("Error:")] == ([error] if error else [])


SCENARIO_CHOICES = (
    "'all', 'lab', 'lab-nearest-neighbor', 'lab-fully-connected', 'lab-broadcast', "
    "'universe', 'universe-fully-connected', 'universe-broadcast'"
)


@pytest.mark.parametrize(
    "args, error",
    [
        (["threshold", "--h0", "abc"], "argument --h0: invalid float value: 'abc'"),
        (["scale", "--qubits", "1.5"], "argument --qubits: invalid int value: '1.5'"),
        (["threshold", "--h0"], "argument --h0: expected one argument"),
        (["threshold", "--scenario", "bogus"], f"argument --scenario: invalid choice: 'bogus' (choose from {SCENARIO_CHOICES})"),
        (["figure", "--format", "xml"], "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
        (["bogus"], "argument COMMAND: invalid choice: 'bogus' (choose from 'constants', 'kfactors', 'threshold', 'scale', 'figure')"),
        (["figure"], "the following arguments are required: --out"),
        ([], "the following arguments are required: COMMAND"),
        (["constants", "--json=1"], "argument --json: ignored explicit argument '1'"),
        (["threshold", "--bogus"], "No such option '--bogus'."),
        (["constants", "extra"], "Got unexpected extra argument (extra)"),
    ],
    ids=[
        "float", "int", "missing value", "scenario choice", "format choice", "verb choice",
        "missing --out", "missing verb", "switch given a value", "unknown flag", "stray word",
    ],
)
def test_parser_error_wording(runner, args, error):
    # each parse failure is one Error: line in argparse's (3.11) wording, or click's for the last two
    result = runner.invoke(main, args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"Error: {error}\n")


def _metadata(runner, args):
    return _json_out(runner.invoke(main, [*args, "--json"]))["metadata"]


def test_flag_value_after_equals_sign(runner):
    assert _metadata(runner, ["constants", "--h0=71"]) == _metadata(runner, ["constants", "--h0", "71"])
    assert _metadata(runner, ["constants", "--h0=71"])["h0_km_s_mpc"] == 71.0


def test_repeated_flag_last_value_wins(runner):
    assert _metadata(runner, ["constants", "--h0", "60", "--lab-volume=5", "--h0", "71"])["h0_km_s_mpc"] == 71.0


@pytest.mark.parametrize(
    "args, error",
    [
        # a verb's flag before the verb, and a top-level flag after it
        (["--json", "threshold"], "No such option '--json'."),
        (["threshold", "--version"], "No such option '--version'."),
        # no abbreviations
        (["threshold", "--inputs", "8"], "No such option '--inputs'."),
        # int() refuses more than 4300 digits with a ValueError
        (["scale", "--qubits", "7" * 5000], f"argument --qubits: invalid int value: '{'7' * 5000}'"),
        # "--" after "=" is the flag's value, not the end-of-options marker
        (["threshold", "--h0=--"], "argument --h0: invalid float value: '--'"),
        (["threshold", "--scenario=--"], f"argument --scenario: invalid choice: '--' (choose from {SCENARIO_CHOICES})"),
    ],
    ids=["verb flag first", "version after verb", "abbreviation", "5000 digits", "h0=--", "scenario=--"],
)
def test_flag_placement_is_one_line_usage_error(runner, args, error):
    result = runner.invoke(main, args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"Error: {error}\n")


VERB_NAMES = ["constants", "kfactors", "threshold", "scale", "figure"]


@pytest.mark.parametrize("verb", VERB_NAMES)
def test_help_names_the_flags_the_parser_takes(runner, tmp_path, verb):
    taken = [flag for flag, row in cli._FLAGS.items() if verb in row[4]]
    result = runner.invoke(main, [verb, "--help"])
    assert (result.exit_code, result.stderr) == (0, "")
    assert sorted(set(re.findall(r"--[a-z0-9-]+", result.stdout))) == sorted(taken)
    out = ["--out", str(tmp_path / "f.csv")] if verb == "figure" else []
    for flag in cli._FLAGS:
        if flag not in ("--help", "--version"):
            # a flag the verb takes wants a value or runs the verb; any other is unknown
            unknown = f"Error: No such option '{flag}'.\n"
            assert (runner.invoke(main, [verb, *out, flag]).stderr == unknown) == (flag not in taken), flag


def test_top_level_help_lists_the_verbs(runner):
    result = runner.invoke(main, ["--help"])
    assert (result.exit_code, result.stderr) == (0, "")
    lines = [line.split() for line in result.stdout.splitlines()]
    for verb in VERB_NAMES:
        assert [verb, *getattr(cli, verb).__doc__.splitlines()[0].split()] in lines
    assert sorted(set(re.findall(r"--[a-z0-9-]+", result.stdout))) == ["--help", "--version"]


class TestConstants:
    def test_text_output(self, runner):
        result = runner.invoke(main, ["constants"])
        assert result.exit_code == 0
        assert "1.37 × 2^490" in result.output
        assert "1.6162550239e-35" in result.output
        assert "eV" in result.output

    def test_json_output(self, runner):
        doc = _json_out(runner.invoke(main, ["constants", "--json"]))
        assert doc["l_p_m"] == pytest.approx(oracles.PLANCK_LENGTH_M, rel=1e-12)
        assert doc["t_p_s"] == pytest.approx(oracles.PLANCK_TIME_S, rel=1e-12)
        assert doc["e_p_ev"] == pytest.approx(oracles.PLANCK_ENERGY_EV, rel=1e-12)
        assert doc["c_p_log2"] == pytest.approx(oracles.PLANCK_CRD_LOG2, abs=1e-9)
        assert doc["c_p_pow2"] == "1.37 × 2^490"
        assert doc["metadata"]["h0_km_s_mpc"] == 70.0

    def test_json_is_stable(self, runner):
        a = runner.invoke(main, ["constants", "--json"]).output
        b = runner.invoke(main, ["constants", "--json"]).output
        assert a == b


class TestKfactors:
    def test_defaults(self, runner):
        doc = _json_out(runner.invoke(main, ["kfactors", "--json"]))
        assert abs(doc["k4u"] - 0.13) <= 0.005
        assert abs(doc["k8u"] - 8.6e-4) <= 0.01 * 8.6e-4
        assert abs(doc["k7u"] - 6.2e-3) <= 0.01 * 6.2e-3
        assert doc["t_universe_gyr"] == pytest.approx(13.467, abs=1e-3)
        for delta in doc["achieved_rel_delta"].values():
            assert delta < 1e-6

    def test_matter_only_limit_is_finite(self, runner):
        doc = _json_out(
            runner.invoke(main, ["kfactors", "--json", "--omega-m", "1.0", "--omega-lambda", "0.0"])
        )
        eds_k4u, eds_k7u, eds_k8u = oracles.eds_k_factors()
        assert doc["k4u"] == pytest.approx(eds_k4u, rel=1e-6)
        assert doc["k7u"] == pytest.approx(eds_k7u, rel=1e-6)
        assert doc["k8u"] == pytest.approx(eds_k8u, rel=1e-6)

    def test_flatness_violation_is_usage_error(self, runner):
        result = runner.invoke(main, ["kfactors", "--omega-m", "0.4"])
        assert result.exit_code == 2
        assert "flatness" in result.output


class TestThreshold:
    def test_all_scenarios(self, runner):
        doc = _json_out(runner.invoke(main, ["threshold", "--json"]))
        got = {row["scenario"]: row["qubits"] for row in doc["thresholds"]}
        assert got == oracles.THRESHOLD_QUBITS

    def test_single_scenario(self, runner):
        doc = _json_out(runner.invoke(main, ["threshold", "--json", "--scenario", "lab"]))
        assert len(doc["thresholds"]) == 1
        assert doc["thresholds"][0]["qubits"] == 525

    def test_unknown_scenario_is_usage_error(self, runner):
        result = runner.invoke(main, ["threshold", "--scenario", "bogus"])
        assert result.exit_code == 2

    def test_text_contains_integers(self, runner):
        result = runner.invoke(main, ["threshold"])
        assert result.exit_code == 0
        for qubits in (525, 528, 806, 882, 1050, 1409, 1609):
            assert f" {qubits} " in result.output.replace("\n", " ")

    def test_small_lab_threshold(self, runner):
        doc = _json_out(
            runner.invoke(
                main,
                ["threshold", "--json", "--scenario", "lab", "--lab-volume", "1", "--lab-duration", "1"],
            )
        )
        row = doc["thresholds"][0]
        # a 1 m^3, 1 s lab crosses the Planck length at the Planck CRD
        assert row["log2_nops_exact"] == pytest.approx(oracles.PLANCK_CRD_LOG2, abs=1e-6)
        assert row["qubits"] == 490


class TestScale:
    def test_rsa_scale_machine(self, runner):
        doc = _json_out(runner.invoke(main, ["scale", "--json", "--qubits", "2048"]))
        assert len(doc["scenarios"]) == 7
        assert all(row["sub_planckian"] for row in doc["scenarios"])

    def test_single_qubit(self, runner):
        doc = _json_out(runner.invoke(main, ["scale", "--json", "--qubits", "1"]))
        assert not any(row["sub_planckian"] for row in doc["scenarios"])

    def test_machine_mode_gpu(self, runner):
        doc = _json_out(
            runner.invoke(
                main,
                ["scale", "--json", "--ops", "3.352e15", "--volume", "7.44e-7", "--duration", "1"],
            )
        )
        assert 4.8e-4 <= doc["max_length_m"] <= 5.3e-4

    def test_qubits_and_ops_conflict(self, runner):
        result = runner.invoke(main, ["scale", "--qubits", "10", "--ops", "1e15"])
        assert result.exit_code == 2

    def test_machine_mode_requires_triple(self, runner):
        result = runner.invoke(main, ["scale", "--ops", "1e15"])
        assert result.exit_code == 2

    def test_nonpositive_qubits_rejected(self, runner):
        result = runner.invoke(main, ["scale", "--qubits", "0"])
        assert result.exit_code == 2

    def test_infinite_energy_is_one_line_usage_error(self, runner):
        # the lab's probed length is positive, but hbar c / l is past the largest double
        result = runner.invoke(main, ["scale", "--qubits", "4300", "--json"])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "lab energy" in errors[0]

    @pytest.mark.parametrize("ops, shown", [("-1e3", "-1000.0"), ("-inf", "-inf")])
    def test_negative_ops_is_a_value_that_its_check_rejects(self, runner, ops, shown):
        # a token float() parses is a value, never a flag, in exponent form
        # and as -inf too
        result = runner.invoke(main, ["scale", "--ops", ops, "--volume", "1", "--duration", "1"])
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: --ops must be a finite number in (0, inf), got {shown}"]

    def test_last_finite_energy(self, runner):
        doc = _json_out(runner.invoke(main, ["scale", "--qubits", "4248", "--json"]))
        assert all(0.0 < row["energy_ev"] < math.inf for row in doc["scenarios"])


@pytest.mark.parametrize("kind", [k.value for k in ScenarioKind])
@pytest.mark.parametrize(
    "args, rows",
    [(["threshold"], "thresholds"), (["scale", "--qubits", "900"], "scenarios")],
    ids=["threshold", "scale"],
)
def test_scenario_option_selects_one_row(runner, args, rows, kind):
    # threshold and scale share one --scenario option, its choices ScenarioKind's values
    doc = _json_out(runner.invoke(main, [*args, "--scenario", kind, "--json"]))
    assert [row["scenario"] for row in doc[rows]] == [kind]


def test_scale_unknown_scenario_is_one_line_usage_error(runner):
    result = runner.invoke(main, ["scale", "--scenario", "bogus"])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert len([line for line in result.output.splitlines() if line.startswith("Error:")]) == 1


class TestFigure:
    def test_csv_default(self, runner, tmp_path):
        out = tmp_path / "fig.csv"
        result = runner.invoke(main, ["figure", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "series: 5" in result.output
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "series,label,log2_neo,length_m,energy_ev"
        labels = {line.split(",")[1] for line in lines[1:]}
        assert len(labels) == 5

    def test_crossing_summary(self, runner, tmp_path):
        out = tmp_path / "fig.csv"
        result = runner.invoke(main, ["figure", "--out", str(out)])
        for fragment in ("525.3", "806.4", "1049.7", "1608.6"):
            assert fragment in result.output

    def test_json_format_round_trips(self, runner, tmp_path):
        out = tmp_path / "fig.json"
        args = ["figure", "--out", str(out), "--format", "json"]
        args += ["--min", "500", "--max", "600", "--step", "5"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        series, annotations = read_series_json(out)
        assert len(series) == 5
        assert len(annotations) >= 4

    def test_empty_range_writes_header_only(self, runner, tmp_path):
        out = tmp_path / "empty.csv"
        result = runner.invoke(main, ["figure", "--out", str(out), "--min", "600", "--max", "600"])
        assert result.exit_code == 0, result.output
        assert "series: 0" in result.output
        assert out.read_text(encoding="utf-8") == "series,label,log2_neo,length_m,energy_ev\n"

    def test_reversed_range_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "reversed.csv"
        result = runner.invoke(main, ["figure", "--out", str(out), "--min", "600", "--max", "500"])
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: min log2 NEO 600.0 exceeds max log2 NEO 500.0"]
        assert not out.exists()

    def test_negative_min_in_exponent_form(self, runner, tmp_path):
        out = tmp_path / "neg.csv"
        args = ["figure", "--min", "-1e1", "--max", "20", "--step", "10", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert sorted({float(row.split(",")[2]) for row in rows}) == [-10.0, 0.0, 10.0, 20.0]

    def test_unwritable_path_is_runtime_error(self, runner, tmp_path):
        result = runner.invoke(main, ["figure", "--out", str(tmp_path / "no" / "fig.csv")])
        assert result.exit_code == 1

    def test_bad_step_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["figure", "--out", str(tmp_path / "f.csv"), "--step", "0"])
        assert result.exit_code == 2

    def test_lab_flags_reach_the_figure(self, runner, tmp_path):
        args = ["figure", "--out", str(tmp_path / "f.csv"), "--lab-volume", "8", "--lab-duration", "2"]
        crossings = _json_out(runner.invoke(main, [*args, "--json"]))["planck_crossings_log2_neo"]
        for label, scenario in (
            ("lab 8 m3 for 2 s", Scenario.lab(8.0, 2.0)),
            ("fully connected lab 8 m3 for 2 s", Scenario.lab_fully_connected(8.0, 2.0)),
        ):
            exact = planck_threshold(scenario).log2_nops_exact
            assert crossings[label] == pytest.approx(exact, rel=0.0, abs=1e-9)

    def test_default_lab_is_the_run_config_lab(self, runner, tmp_path):
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        assert runner.invoke(main, ["figure", "--out", str(default)]).exit_code == 0
        args = ["figure", "--out", str(explicit), "--lab-volume", "1000", "--lab-duration", "31557600"]
        assert runner.invoke(main, args).exit_code == 0
        assert default.read_bytes() == explicit.read_bytes()


class TestConfigWiring:
    def test_config_file_read(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h0_km_s_mpc = 67\n", encoding="utf-8")
        doc = _json_out(runner.invoke(main, ["constants", "--json", "--config", str(cfg)]))
        assert doc["metadata"]["h0_km_s_mpc"] == 67.0

    def test_env_config(self, runner, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("lab_volume_m3 = 500\n", encoding="utf-8")
        monkeypatch.setenv("CRDBOUNDS_CONFIG", str(cfg))
        doc = _json_out(runner.invoke(main, ["constants", "--json"]))
        assert doc["metadata"]["lab_volume_m3"] == 500.0

    def test_flags_override_config_file(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h0_km_s_mpc = 67\n", encoding="utf-8")
        doc = _json_out(
            runner.invoke(main, ["constants", "--json", "--config", str(cfg), "--h0", "73"])
        )
        assert doc["metadata"]["h0_km_s_mpc"] == 73.0

    def test_missing_config_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["constants", "--config", str(tmp_path / "nope.cfg")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("route", ["flag", "env"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_is_usage_error(self, tmp_path, route, kind):
        path = tmp_path
        if kind == "not-utf8":
            path = tmp_path / "latin1.cfg"
            path.write_bytes("h0_km_s_mpc = 70 # \xb5\n".encode("latin-1"))
        env = {"CRDBOUNDS_CONFIG": str(path) if route == "env" else None}
        args = ["threshold"] + (["--config", str(path)] if route == "flag" else [])
        result = CliRunner(env=env).invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and f"cannot read config file {path}" in errors[0]

    def test_lab_parameters_shift_thresholds(self, runner):
        doc = _json_out(
            runner.invoke(
                main,
                ["threshold", "--json", "--scenario", "lab-nearest-neighbor", "--inputs-per-op", "16"],
            )
        )
        assert doc["thresholds"][0]["qubits"] == 529  # 525.34 + log2(16) = 529.34

    @pytest.mark.parametrize(
        "args",
        [["kfactors"], ["threshold"], ["scale", "--qubits", "2048"], ["figure", "--out", "fig.csv"]],
        ids=" ".join,
    )
    def test_one_cosmology_per_call(self, tmp_path, monkeypatch, capsys, args):
        # the verb reads the CosmologyParams its RunConfig built
        built, check = [], laws.CosmologyParams._check
        monkeypatch.setattr(laws.CosmologyParams, "_check", lambda params: built.append(params) or check(params))
        monkeypatch.delenv("CRDBOUNDS_CONFIG", raising=False)
        monkeypatch.chdir(tmp_path)
        main(args)
        assert len(built) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["threshold", "--h0", "inf"],
        ["threshold", "--h0", "1e300"],
        ["threshold", "--h0", "1e-300"],
        ["threshold", "--lab-volume", "inf"],
        ["figure", "--step", "inf"],
        ["figure", "--min", "nan"],
        ["figure", "--min", "0", "--max", "1e300", "--step", "1e299"],
        ["scale", "--ops", "inf", "--volume", "1", "--duration", "1"],
        ["scale", "--ops", "nan", "--volume", "1", "--duration", "1"],
        ["scale", "--qubits", "1000000"],
        # size caps, checked before any grid or table is allocated
        ["figure", "--step", "1e-9"],
        # grid_points is no run option: even its old default is refused
        ["threshold", "--grid-points", "4096"],
    ],
    ids=" ".join,
)
def test_bad_input_is_one_line_usage_error(runner, tmp_path, args):
    out = tmp_path / "fig.csv"
    if args[0] == "figure":
        args = [*args, "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert len([line for line in result.output.splitlines() if line.startswith("Error:")]) == 1
    assert not out.exists()


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# Every verb in sequence, in one cold interpreter for each numpy mode: first
# the verbs that must never load crdbounds.figure, then the two figure calls.
# A module one call loads stays loaded, so the first failing call is the one
# that loaded it.
_COLD_INVOCATIONS = [
    ["constants"],
    ["threshold", "--json"],
    ["kfactors", "--json"],
    ["scale", "--qubits", "2048", "--json"],
    ["scale", "--ops", "3.352e15", "--volume", "7.44e-7", "--duration", "1", "--json"],
    ["figure", "--out", "{out}.csv", "--json"],
    ["figure", "--format", "json", "--out", "{out}.json"],
]

# Prints one JSON report: the modules loaded by `import crdbounds.cli`, then
# each invocation's stdout, traceback (None on success) and loaded modules,
# and with numpy importable, those loaded once the table side is imported.
_COLD_SCRIPT = """
import contextlib, io, json, sys, traceback
invocations = json.loads(sys.argv[1])
if sys.argv[2] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy now fails
def loaded():
    modules = ("argparse", "gettext", "click", "numpy", "scipy", "dataclasses", "crdbounds.cosmology", "crdbounds.quadrature", "crdbounds.figure")
    return [m for m in modules if sys.modules.get(m) is not None]
from crdbounds.cli import main
report = {"import": loaded(), "runs": []}
for args in invocations:
    out, error = io.StringIO(), None
    try:
        with contextlib.redirect_stdout(out):
            main(args)
    except Exception:
        error = traceback.format_exc()
    report["runs"].append({"stdout": out.getvalue(), "error": error, "loaded": loaded()})
if sys.argv[2] != "blocked":
    import crdbounds.cosmology
    report["tables"] = loaded()
print(json.dumps(report))
"""


def _cold_run(tmp_path_factory, numpy_mode):
    out = tmp_path_factory.mktemp(numpy_mode) / "figure"
    invocations = [[a.format(out=out) for a in args] for args in _COLD_INVOCATIONS]
    result = subprocess.run(
        [sys.executable, "-c", _COLD_SCRIPT, json.dumps(invocations), numpy_mode],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout), out


@pytest.fixture(scope="module")
def numpy_importable_run(tmp_path_factory):
    return _cold_run(tmp_path_factory, "importable")


@pytest.fixture(scope="module")
def numpy_blocked_run(tmp_path_factory):
    return _cold_run(tmp_path_factory, "blocked")


def _cold_result(run, args):
    """One invocation's record; it must have succeeded and printed."""
    record = run[0]["runs"][_COLD_INVOCATIONS.index(args)]
    assert record["error"] is None, record["error"]
    assert record["stdout"]
    return record


def _assert_figure_files(out):
    assert out.with_suffix(".csv").read_text().startswith("series,label,log2_neo,length_m,energy_ev\n")
    assert read_series_json(out.with_suffix(".json"))[0]


@pytest.mark.parametrize("args", _COLD_INVOCATIONS[:5], ids=" ".join)
def test_verb_runs_without_numpy(numpy_importable_run, args):
    # numpy is importable, and no verb imports it; nor click, dataclasses, the
    # table modules or crdbounds.figure
    assert _cold_result(numpy_importable_run, args)["loaded"] == []


def test_figure_still_writes_its_file(numpy_importable_run):
    for args in _COLD_INVOCATIONS[5:]:
        assert _cold_result(numpy_importable_run, args)["loaded"] == ["crdbounds.figure"]
    _assert_figure_files(numpy_importable_run[1])


@pytest.mark.parametrize("args", _COLD_INVOCATIONS, ids=" ".join)
def test_every_verb_runs_with_numpy_blocked(numpy_blocked_run, args):
    loads_figure = args[0] == "figure"
    assert _cold_result(numpy_blocked_run, args)["loaded"] == (["crdbounds.figure"] if loads_figure else [])
    if loads_figure:
        _assert_figure_files(numpy_blocked_run[1])


def test_cli_import_loads_no_table_module(numpy_importable_run):
    # cosmology and quadrature, nor click, numpy, scipy or dataclasses, nor
    # the figure module, which only the figure verb imports
    assert numpy_importable_run[0]["import"] == []


def test_table_side_loads_no_dataclasses(numpy_importable_run):
    # the tables' one record type is the package's own; numpy loads no dataclasses
    assert numpy_importable_run[0]["tables"] == ["numpy", "crdbounds.cosmology", "crdbounds.quadrature", "crdbounds.figure"]


@pytest.mark.parametrize(
    "args, buffered",
    [(["threshold", "--json"], True), (["threshold", "--json"], False), (["--version"], True), (["--version"], False)],
    ids=["buffered", "unbuffered", "version", "version unbuffered"],
)
def test_closed_stdout_is_exit_1_with_nothing_on_stderr(args, buffered):
    # stdout's reader is gone before the call prints, as in `... | head -c 0`:
    # no traceback from the write, nor "Exception ignored" from the flush at
    # exit, whichever of the two meets the closed pipe
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "crdbounds.cli", *args],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


def test_ascii_stdout_gets_utf8():
    # constants prints a multiplication sign; an ASCII stdout gets its UTF-8
    # bytes, not a UnicodeEncodeError
    env = dict(_src_env(), PYTHONIOENCODING="ascii")
    result = subprocess.run(
        [sys.executable, "-m", "crdbounds.cli", "constants"], env=env, capture_output=True, timeout=120
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert "1.37 × 2^490".encode("utf-8") in result.stdout


def test_quad_rel_tol_is_no_run_setting(runner, tmp_path):
    # the k-factors are computed at the library default: neither a flag nor
    # a config key sets their tolerance
    path = tmp_path / "run.cfg"
    path.write_text("quad_rel_tol = 1e-9\n", encoding="utf-8")
    for args, names in (
        (["--quad-rel-tol", "1e-9"], ("No such option", "--quad-rel-tol")),
        (["--config", str(path)], ("unknown configuration key 'quad_rel_tol'",)),
    ):
        result = runner.invoke(main, ["threshold", *args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert all(name in error for name in names), error


NEAR_LAMBDA_ONE = ["--omega-lambda", "0.9999999999999999"]


@pytest.mark.parametrize(
    "args, code",
    [
        # t_universe is inf
        (["kfactors", "--omega-m", "5e-324", *NEAR_LAMBDA_ONE], 2),
        # the coarsest panels' sums overflow, but finer ones converge
        (["kfactors", "--omega-m", "1e-300", *NEAR_LAMBDA_ONE], 0),
        # eta(T) is about 1e103 (H0 = 1), so a panel's span cubed overflows at every count
        (["kfactors", "--omega-m", "1e-308", *NEAR_LAMBDA_ONE], 2),
        # the panels resolve it: V4 comes from centered moments, which do not cancel
        (["threshold", "--omega-m", "1e-200", *NEAR_LAMBDA_ONE], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_cosmology_near_omega_lambda_one_ends_in_one_line(runner, args, code):
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == (1 if code else 0)
    if code == 2:
        assert isinstance(result.exception, SystemExit)
        omega_m = args[args.index("--omega-m") + 1]
        assert f"omega_m={omega_m}, omega_lambda=0.9999999999999999: " in errors[0]


@pytest.mark.parametrize(
    "omega_m, omega_lambda",
    [
        ("1e-07", "0.9999999"),
        ("1e-12", "0.999999999999"),
        *[(omega_m, "0.9999999999999999") for omega_m in ("1e-17", "1e-30", "1e-60")],
        # the k-integrals converge; only the tables, which no verb builds,
        # would underflow
        ("1e-270", "0.9999999999999999"),
    ],
)
def test_near_lambda_one_kfactors_exit_0(runner, omega_m, omega_lambda):
    # V4 comes from centered moments, which do not cancel, so the k-integrals
    # converge
    args = ["kfactors", "--omega-m", omega_m, "--omega-lambda", omega_lambda]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "Error" not in result.output
    assert f"# omega_m = {float(omega_m)!r}" in result.output.splitlines()


def test_kfactors_converge_where_the_coarsest_panels_overflow(runner):
    # at 4 panels the k8u sum leaves double range; 8 and more do not
    doc = _json_out(runner.invoke(main, ["kfactors", "--omega-m", "1e-300", *NEAR_LAMBDA_ONE, "--json"]))
    assert doc["k4u"] == pytest.approx(956.9561121342662, rel=1e-13)
    assert doc["k7u"] == pytest.approx(3976.125595029638, rel=1e-13)
    assert max(doc["achieved_rel_delta"].values()) <= 1e-9


def _patch_k_sums(monkeypatch, bad, at=None):
    """k_sums returns the k-factors ``bad`` at the panel count ``at``, or at every count."""
    real = laws._k_sums
    monkeypatch.setattr(laws, "DEFAULT_MAX_PANELS", 64)
    monkeypatch.setattr(laws, "_k_sums", lambda params, n: bad if at in (None, n) else real(params, n))


@pytest.mark.parametrize(
    "bad", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.inf), (math.inf, -math.inf, math.nan)]
)
def test_kfactor_sums_that_never_turn_finite_are_one_line_exit_2(runner, monkeypatch, bad):
    _patch_k_sums(monkeypatch, bad)
    result = runner.invoke(main, ["kfactors", "--json"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "the k-factor sums are not finite at 64 panels" in errors[0]
    assert "nan" not in result.output.lower() and "inf" not in result.output.lower()


@pytest.mark.parametrize("at", [4, 8, 16])
def test_a_pass_that_is_not_finite_is_never_accepted(runner, monkeypatch, at):
    # only a NaN in the middle slot: max() over the shifts would skip it
    want = _json_out(runner.invoke(main, ["kfactors", "--json"]))
    _patch_k_sums(monkeypatch, (want["k4u"], math.nan, want["k8u"]), at)
    got = _json_out(runner.invoke(main, ["kfactors", "--json"]))
    assert [got[k] for k in ("k4u", "k7u", "k8u")] == pytest.approx([want[k] for k in ("k4u", "k7u", "k8u")], rel=1e-13)


def test_v4_within_rel_tol_is_accepted(runner):
    result = runner.invoke(main, ["kfactors", "--omega-m", "1e-5", "--omega-lambda", "0.99999"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "args",
    [
        ["constants"],
        ["kfactors"],
        ["threshold"],
        ["scale", "--qubits", "2048"],
        ["scale", "--ops", "3.352e15", "--volume", "7.44e-7", "--duration", "1"],
        ["figure", "--min", "500", "--max", "600", "--step", "5"],
    ],
    ids=" ".join,
)
def test_text_output_begins_with_the_json_metadata(runner, tmp_path, args):
    if args[0] == "figure":
        args = [*args, "--out", str(tmp_path / "fig.csv")]
    metadata = _json_out(runner.invoke(main, [*args, "--json"]))["metadata"]
    text = runner.invoke(main, args)
    assert text.exit_code == 0, text.output
    lines = text.output.splitlines()
    assert lines[: len(metadata)] == [f"# {key} = {value}" for key, value in metadata.items()]
    assert not lines[len(metadata)].startswith("#")
