"""Command-line front end.

Verbs: constants | kfactors | threshold | scale | figure. Each verb runs in
one frame, ``common_options``: the verb gets the loaded RunConfig and returns
its numbers, (fields, text lines). The frame alone adds the metadata block
(parameter values, version), so every published number carries what
produced it, and maps errors to the exit codes: 0 success, 1 runtime or I/O
failure, 2 usage or configuration error. Diagnostics go to stderr, data to
stdout.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import __version__
from .bounds import (
    Scenario,
    ScenarioKind,
    crd,
    energy_from_length,
    max_length,
    planck_crd,
)
from .config import RunConfig, load_config
from .errors import ConfigurationError, QuadratureError, check_range
from .laws import CosmologyParams, universe_laws
from .quantities import PLANCK_UNITS, LogQuantity, s_to_gyr
from .thresholds import classify_machine, planck_threshold

_scenario_option = click.option(
    "--scenario",
    "scenario_name",
    type=click.Choice(["all"] + [k.value for k in ScenarioKind]),
    default="all",
    help="Restrict to one scenario.",
)


def common_options(fn):
    """The frame every verb runs in. It takes the shared flags, loads the
    config once and calls fn(config, **the verb's own options), which
    returns (fields, text lines). It prints them after the metadata block
    (the RunConfig's fields and the version), as JSON or as "# key = value"
    lines. The verbs compute the k-factors at the library's default
    tolerance, laws.DEFAULT_REL_TOL. Every bad input value (a
    ConfigurationError, wherever raised) is a usage error, exit 2, and a
    QuadratureError exit 1."""
    options = [
        click.option("--h0", "h0_km_s_mpc", type=float, default=None, help="Hubble constant in km/s/Mpc."),
        click.option("--omega-m", "omega_m", type=float, default=None, help="Matter density parameter."),
        click.option("--omega-lambda", "omega_lambda", type=float, default=None, help="Dark-energy density parameter."),
        click.option("--lab-volume", "lab_volume_m3", type=float, default=None, help="Lab volume in m^3."),
        click.option("--lab-duration", "lab_duration_s", type=float, default=None, help="Lab run time in seconds."),
        click.option("--inputs-per-op", "inputs_per_op", type=int, default=None, help="Inputs per operation for the nearest-neighbor lab."),
        click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text."),
        click.option("--config", "config_path", type=click.Path(), default=None, help="Flat key=value config file (also honored via $CRDBOUNDS_CONFIG)."),
    ]

    @functools.wraps(fn)
    def verb(config_path, as_json, **kwargs):
        overrides = {name: kwargs.pop(name) for name in RunConfig._fields}
        try:
            config = load_config(config_path, overrides)
            fields, lines = fn(config, **kwargs)
        except ConfigurationError as exc:
            raise click.UsageError(str(exc)) from exc
        except QuadratureError as exc:
            raise click.ClickException(f"quadrature failed: {exc}") from exc
        metadata = {"artifact": "crdbounds", "version": __version__, **config._asdict()}
        if as_json:
            click.echo(json.dumps({"metadata": metadata, **fields}, indent=2))
        else:
            for key, value in metadata.items():
                click.echo(f"# {key} = {value}")
            for line in lines:
                click.echo(line)

    for option in reversed(options):
        verb = option(verb)
    return verb


def _scenarios(config: RunConfig, params: CosmologyParams, name: str):
    scenarios = [
        Scenario.lab(config.lab_volume_m3, config.lab_duration_s),
        Scenario.lab_nearest_neighbor(
            config.lab_volume_m3, config.lab_duration_s, config.inputs_per_op
        ),
        Scenario.lab_fully_connected(config.lab_volume_m3, config.lab_duration_s),
        Scenario.lab_broadcast(config.lab_volume_m3, config.lab_duration_s),
        Scenario.universe(params),
        Scenario.universe_fully_connected(params),
        Scenario.universe_broadcast(params),
    ]
    return [s for s in scenarios if name in ("all", s.kind.value)]


@click.group()
@click.version_option(__version__)
def main():
    """Bounds on hidden classical computational substrates."""


@main.command()
@common_options
def constants(config):
    """Planck length, time, energy and rate-density ceiling."""
    k = PLANCK_UNITS
    ceiling = planck_crd()
    return {
        "l_p_m": k.l_p,
        "t_p_s": k.t_p,
        "e_p_ev": k.e_p_ev,
        "c_p_log2": ceiling.log2_value,
        "c_p_pow2": ceiling.pow2_str(),
        "c_p_decimal": ceiling.decimal_str(),
    }, [
        f"l_P = {k.l_p:.10e} m",
        f"t_P = {k.t_p:.10e} s",
        f"E_P = {k.e_p_ev:.10e} eV",
        f"C_P = {ceiling.pow2_str()} ops m^-3 s^-1 "
        f"= {ceiling.decimal_str()} ops m^-3 s^-1 (log2 = {ceiling.log2_value:.6f})",
    ]


@main.command()
@common_options
def kfactors(config):
    """Dimensionless cosmological prefactors k4u, k7u, k8u.

    All three come from the cosmology alone (laws.universe_laws).
    achieved_rel_delta is each one's relative shift between the last two
    panel counts of that computation, the coarser result's error bar. It
    allows nothing for rounding, which is most of the printed result's
    error: for matter only, k7u and k8u are off by 7.3e-16 and 8.3e-16,
    above their shifts of 5.7e-16 and 6.3e-16.
    """
    laws = universe_laws(config.cosmology())
    params = laws.params
    deltas = dict(zip(("k4u", "k7u", "k8u"), laws.k_shift))
    return {
        "t_universe_gyr": s_to_gyr(params.t_universe),
        "k4u": laws.k4u,
        "k7u": laws.k7u,
        "k8u": laws.k8u,
        "achieved_rel_delta": deltas,
    }, [
        f"T_U  = {s_to_gyr(params.t_universe):.6f} Gyr",
        f"k4u  = {laws.k4u:.10e}   (convergence delta {deltas['k4u']:.2e})",
        f"k7u  = {laws.k7u:.10e}   (convergence delta {deltas['k7u']:.2e})",
        f"k8u  = {laws.k8u:.10e}   (convergence delta {deltas['k8u']:.2e})",
    ]


@main.command()
@_scenario_option
@common_options
def threshold(config, scenario_name):
    """Logical-qubit thresholds at which each scenario reaches the Planck scale."""
    laws = universe_laws(config.cosmology())
    rows = [planck_threshold(s, laws) for s in _scenarios(config, laws.params, scenario_name)]
    width = max(len(r.scenario_kind.value) for r in rows)
    lines = [f"{'scenario':<{width}}  qubits  log2_nops_exact"]
    lines += [
        f"{r.scenario_kind.value:<{width}}  {r.qubits:>6d}  {r.log2_nops_exact:.6f}"
        for r in rows
    ]
    return {
        "thresholds": [
            {
                "scenario": r.scenario_kind.value,
                "qubits": r.qubits,
                "log2_nops_exact": r.log2_nops_exact,
                "length_at_threshold_m": r.length_at_threshold,
            }
            for r in rows
        ],
    }, lines


@main.command()
@click.option("--qubits", "qubits", type=int, default=None, help="Logical qubit count n (operation count 2^n).")
@click.option("--ops", "ops", type=float, default=None, help="Demonstrated classical operations per --duration (machine mode).")
@click.option("--volume", "volume", type=float, default=None, help="Machine volume in m^3 (machine mode).")
@click.option("--duration", "duration", type=float, default=None, help="Machine run time in seconds (machine mode).")
@_scenario_option
@common_options
def scale(config, qubits, ops, volume, duration, scenario_name):
    """Probed length and energy scale for a given machine."""
    machine_mode = ops is not None or volume is not None or duration is not None
    if machine_mode == (qubits is not None):
        raise ConfigurationError("give either --qubits or the --ops/--volume/--duration triple")

    if machine_mode:
        if ops is None or volume is None or duration is None:
            raise ConfigurationError("machine mode needs --ops, --volume and --duration together")
        for name, value in (("--ops", ops), ("--volume", volume), ("--duration", duration)):
            check_range(name, value)
        n_ops = LogQuantity.from_real(ops)
        length = max_length(volume, duration, n_ops)
        rate = crd(n_ops, volume, duration)
        energy = energy_from_length(length)
        return {
            "max_length_m": length,
            "energy_ev": energy,
            "crd_log2": rate.log2_value,
            "crd_decimal": rate.decimal_str(),
        }, [
            f"max length = {length:.6e} m",
            f"energy     = {energy:.6e} eV",
            f"CRD        = {rate.decimal_str()} ops m^-3 s^-1",
        ]

    check_range("--qubits", qubits, 1, low_inclusive=True)
    laws = universe_laws(config.cosmology())
    scenarios = _scenarios(config, laws.params, scenario_name)
    report = classify_machine(qubits, scenarios, laws)
    width = max(len(a.scenario_kind.value) for a in report)
    lines = [f"{'scenario':<{width}}  threshold  probed_length_m  energy_ev      sub_planckian"]
    for a in report:
        lines.append(
            f"{a.scenario_kind.value:<{width}}  {a.threshold_qubits:>9d}  "
            f"{a.probed_length_m:.6e}     {a.energy_ev:.6e}   "
            f"{'yes' if a.sub_planckian else 'no'}"
        )
    return {
        "qubits": qubits,
        "scenarios": [
            {
                "scenario": a.scenario_kind.value,
                "threshold_qubits": a.threshold_qubits,
                "probed_length_m": a.probed_length_m,
                "energy_ev": a.energy_ev,
                "sub_planckian": a.sub_planckian,
            }
            for a in report
        ],
    }, lines


@main.command()
@click.option("--min", "lo", type=float, default=450.0, help="Smallest log2 NEO to sample.")
@click.option("--max", "hi", type=float, default=1700.0, help="Largest log2 NEO to sample.")
@click.option("--step", type=float, default=1.0, help="Sampling step in log2 NEO.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", "out_path", type=click.Path(), required=True, help="Output file path.")
@common_options
def figure(config, lo, hi, step, fmt, out_path):
    """Emit the probed-length-versus-NEO data series."""
    # imported here, so that the other verbs never load the figure module
    from .figure import build_figure, check_grid, planck_crossing, write_series

    check_grid(lo, hi, step)
    if lo < hi:
        laws = universe_laws(config.cosmology())
        series, annotations = build_figure(
            (lo, hi), step, laws, lab_volume_m3=config.lab_volume_m3, lab_duration_s=config.lab_duration_s
        )
    else:
        series, annotations = [], []
    try:
        write_series(series, annotations, out_path, fmt)
    except OSError as exc:
        raise click.ClickException(f"cannot write {out_path}: {exc}") from exc
    crossings = {
        s.label: crossing for s in series if (crossing := planck_crossing(s, PLANCK_UNITS.l_p)) is not None
    }
    lines = [f"wrote {out_path} ({fmt}), series: {len(series)}"]
    for label, value in crossings.items():
        lines.append(f"planck crossing: {label} at log2 NEO = {value:.1f}")
    return {
        "out": str(out_path),
        "format": fmt,
        "series_count": len(series),
        "planck_crossings_log2_neo": crossings,
    }, lines


if __name__ == "__main__":
    sys.exit(main())
