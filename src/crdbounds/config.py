"""Run configuration: defaults, flat key=value config files, flag overrides."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping, Optional, Union

from .errors import ConfigurationError, _Record, check_integer, check_range
from .laws import CosmologyParams
from .quantities import JULIAN_YEAR_S

ENV_CONFIG_PATH = "CRDBOUNDS_CONFIG"


class RunConfig(_Record):
    """One run's parameters, checked when the instance is built: a bad
    value is a ConfigurationError naming it. Every field has a default, and
    its type is the default's. ``params`` is the CosmologyParams the check
    builds, derived like a field but not one."""

    _defaults = dict(
        h0_km_s_mpc=70.0, omega_m=0.3, omega_lambda=0.7,
        lab_volume_m3=1000.0, lab_duration_s=JULIAN_YEAR_S, inputs_per_op=8,
    )
    _fields = tuple(_defaults)
    __slots__ = _fields + ("params",)

    def _check(self):
        try:
            params = CosmologyParams.create(self.h0_km_s_mpc, self.omega_m, self.omega_lambda)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"h0_km_s_mpc={self.h0_km_s_mpc!r}, omega_m={self.omega_m!r}, "
                f"omega_lambda={self.omega_lambda!r}: {exc}"
            ) from exc
        check_range("lab_volume_m3", self.lab_volume_m3)
        check_range("lab_duration_s", self.lab_duration_s)
        check_integer("inputs_per_op", self.inputs_per_op, 1)
        object.__setattr__(self, "params", params)


def parse_config_file(path: Union[str, Path]) -> dict:
    """Parse a flat key=value file; '#' starts a comment, blank lines ignored.

    A leading UTF-8 byte-order mark is ignored. A file that is missing or
    cannot be read as UTF-8 text is a ConfigurationError naming the path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in RunConfig._defaults:
            raise ConfigurationError(f"{path}:{lineno}: unknown configuration key {key!r}")
        try:
            values[key] = type(RunConfig._defaults[key])(value)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def load_config(
    path: Optional[Union[str, Path]] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> RunConfig:
    """Build one checked RunConfig from the defaults, then the config file
    (explicit path or $CRDBOUNDS_CONFIG), then the non-None overrides. The
    values are merged before the RunConfig is built, so an override that
    mends a bad file value loads."""
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH) or None
    values = parse_config_file(path) if path is not None else {}
    cleaned = {k: v for k, v in (overrides or {}).items() if v is not None}
    unknown = set(cleaned) - set(RunConfig._fields)
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
    return RunConfig(**{**values, **cleaned})
