import re

import pytest

from crdbounds.config import ENV_CONFIG_PATH, RunConfig, load_config, parse_config_file
from crdbounds.cosmology import MAX_GRID_POINTS, build_tables
from crdbounds.errors import ConfigurationError
from crdbounds.quantities import JULIAN_YEAR_S


def test_defaults():
    config = load_config()
    assert config == RunConfig()
    assert config.h0_km_s_mpc == 70.0
    assert config.omega_m == 0.3
    assert config.omega_lambda == 0.7
    assert config.lab_volume_m3 == 1000.0
    assert config.lab_duration_s == JULIAN_YEAR_S
    assert config.inputs_per_op == 8


def test_parse_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# cosmology\n"
        "h0_km_s_mpc = 67.4\n"
        "omega_m=0.315\n"
        "omega_lambda = 0.685   # flat\n"
        "\n"
        "inputs_per_op = 4\n",
        encoding="utf-8",
    )
    values = parse_config_file(path)
    assert values == {
        "h0_km_s_mpc": 67.4,
        "omega_m": 0.315,
        "omega_lambda": 0.685,
        "inputs_per_op": 4,
    }
    assert isinstance(values["inputs_per_op"], int)


# grid_points sets only the library's lookup tables, which no verb reads,
# so it is not a run configuration key
@pytest.mark.parametrize("line", ["hubble = 70\n", "grid_points = 4096\n"])
def test_unknown_key_rejected(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(line, encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unknown"):
        parse_config_file(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("omega_m = zero point three\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="bad value"):
        parse_config_file(path)


def test_missing_separator_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("omega_m 0.3\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="key=value"):
        parse_config_file(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(tmp_path / "absent.cfg")


def test_missing_parent_is_not_found(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(tmp_path / "absent" / "run.cfg")


def test_directory_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match=re.escape(f"cannot read config file {tmp_path}")):
        parse_config_file(tmp_path)


def test_non_utf8_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"omega_m = 0.3\n\xff\xfe\n")
    with pytest.raises(ConfigurationError, match="cannot read config file .*utf-8"):
        parse_config_file(path)


def test_byte_order_mark_ignored(tmp_path):
    # Windows Notepad saves UTF-8 with a leading BOM; it is not part of the first key
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xef\xbb\xbfh0_km_s_mpc = 72\n")
    assert load_config(path).h0_km_s_mpc == 72.0


def test_env_var_honored(tmp_path, monkeypatch):
    path = tmp_path / "env.cfg"
    path.write_text("h0_km_s_mpc = 72\n", encoding="utf-8")
    monkeypatch.setenv(ENV_CONFIG_PATH, str(path))
    assert load_config().h0_km_s_mpc == 72.0


def test_explicit_path_beats_env(tmp_path, monkeypatch):
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("h0_km_s_mpc = 72\n", encoding="utf-8")
    explicit = tmp_path / "explicit.cfg"
    explicit.write_text("h0_km_s_mpc = 68\n", encoding="utf-8")
    monkeypatch.setenv(ENV_CONFIG_PATH, str(env_cfg))
    assert load_config(explicit).h0_km_s_mpc == 68.0


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("h0_km_s_mpc = 72\nomega_m = 0.31\nomega_lambda = 0.69\n", encoding="utf-8")
    config = load_config(path, {"h0_km_s_mpc": 74.0, "omega_m": None})
    assert config.h0_km_s_mpc == 74.0  # flag wins
    assert config.omega_m == 0.31  # None overrides are ignored


def test_overrides_merge_before_the_check(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("inputs_per_op = 0\n", encoding="utf-8")
    assert load_config(path, {"inputs_per_op": 4}).inputs_per_op == 4


@pytest.mark.parametrize("values", [{"inputs_per_op": 0}, {"omega_m": 0.5}])
def test_run_config_checks_itself(values):
    with pytest.raises(ConfigurationError):
        RunConfig(**values)
    assert not hasattr(RunConfig, "validate")


def test_flatness_validated():
    with pytest.raises(ConfigurationError, match="flatness"):
        load_config(overrides={"omega_m": 0.3, "omega_lambda": 0.75})


def test_flatness_tolerance_is_loose_enough():
    config = load_config(overrides={"omega_m": 0.3, "omega_lambda": 0.7 + 1e-10})
    assert config.omega_lambda == pytest.approx(0.7)


@pytest.mark.parametrize(
    "field, value",
    [
        ("h0_km_s_mpc", 0.0),
        ("lab_volume_m3", -1.0),
        ("lab_duration_s", 0.0),
        ("inputs_per_op", 0),
        ("inputs_per_op", 2.5),
    ],
)
def test_positivity_and_ranges(field, value):
    with pytest.raises(ConfigurationError, match=field):
        load_config(overrides={field: value})


def test_unknown_override_rejected():
    with pytest.raises(ConfigurationError, match="unknown"):
        load_config(overrides={"hubble": 70.0})


@pytest.mark.parametrize("field", ["h0_km_s_mpc", "omega_m", "lab_volume_m3", "lab_duration_s"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_nonfinite_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        load_config(overrides={field: value})


@pytest.mark.parametrize("grid_points", [10001, 17, 4096.0, MAX_GRID_POINTS + 16])
def test_build_tables_takes_the_same_grid_points_rule(eds_params, grid_points):
    # no node count is rounded down, floored to the minimum or clamped to the
    # cap, and a float is refused; a build at the cap itself takes seconds
    with pytest.raises(ConfigurationError, match="grid_points"):
        build_tables(eds_params, grid_points=grid_points)
