"""Command-line front end, on the standard library's argparse.

Verbs: constants | kfactors | threshold | scale | figure. ``main`` parses the
command line with one parser, built once, and runs the verb in one frame:
the verb gets the loaded RunConfig and returns its numbers, (fields, text
lines). The frame alone adds the metadata block (parameter values,
version), so every published number carries what produced it, and maps
errors to the exit codes: 0 success, 1 runtime or I/O failure, 2 usage or
configuration error, each failure one ``Error:`` line. Diagnostics go to
stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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


def _fail(code: int, message):
    """End the call with one ``Error:`` line on stderr and exit code 1 or 2."""
    sys.stderr.write(f"Error: {message}\n")
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``Error:`` line, exit 2, and a token that
    float() parses is a value, never a flag: argparse alone would take
    ``--min -1e1`` or ``--ops -inf`` for two flags."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    def error(self, message):
        _fail(2, message)

    def exit(self, status=0, message=None):
        sys.stdout.flush()  # after --help or --version, so that main sees a closed stdout
        super().exit(status, message)


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
        _fail(1, f"cannot write {out_path}: {exc}")
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


@functools.cache
def _parser(prog: str) -> _Parser:
    """The one parser: a subcommand per verb, each with its own flags, then
    --scenario where it applies, then the flags every verb takes. An unset
    run flag is None, so the config file or RunConfig's default decides."""
    parser = _Parser(prog=prog, description="Bounds on hidden classical computational substrates.", add_help=False, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}", help="Show the version and exit.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    verbs = parser.add_subparsers(metavar="COMMAND", required=True)
    for verb in (constants, kfactors, threshold, scale, figure):
        doc = verb.__doc__
        sub = verbs.add_parser(verb.__name__, help=doc.splitlines()[0], description=doc, add_help=False, allow_abbrev=False)
        sub.set_defaults(verb=verb)
        add = sub.add_argument
        if verb is scale:
            add("--qubits", type=int, help="Logical qubit count n (operation count 2^n).")
            add("--ops", type=float, help="Demonstrated classical operations per --duration (machine mode).")
            add("--volume", type=float, help="Machine volume in m^3 (machine mode).")
            add("--duration", type=float, help="Machine run time in seconds (machine mode).")
        if verb is figure:
            add("--min", dest="lo", type=float, default=450.0, help="Smallest log2 NEO to sample.")
            add("--max", dest="hi", type=float, default=1700.0, help="Largest log2 NEO to sample.")
            add("--step", type=float, default=1.0, help="Sampling step in log2 NEO.")
            add("--format", dest="fmt", choices=["csv", "json"], default="csv")
            add("--out", dest="out_path", required=True, help="Output file path.")
        if verb in (threshold, scale):
            add("--scenario", dest="scenario_name", choices=["all"] + [k.value for k in ScenarioKind], default="all", help="Restrict to one scenario.")
        add("--h0", dest="h0_km_s_mpc", type=float, help="Hubble constant in km/s/Mpc.")
        add("--omega-m", dest="omega_m", type=float, help="Matter density parameter.")
        add("--omega-lambda", dest="omega_lambda", type=float, help="Dark-energy density parameter.")
        add("--lab-volume", dest="lab_volume_m3", type=float, help="Lab volume in m^3.")
        add("--lab-duration", dest="lab_duration_s", type=float, help="Lab run time in seconds.")
        add("--inputs-per-op", dest="inputs_per_op", type=int, help="Inputs per operation for the nearest-neighbor lab.")
        add("--json", dest="as_json", action="store_true", help="Emit JSON instead of text.")
        add("--config", dest="config_path", help="Flat key=value config file (also honored via $CRDBOUNDS_CONFIG).")
        add("--help", action="help", help="Show this message and exit.")
    return parser


def _run(parser: _Parser, args) -> str:
    """The frame every verb runs in: parse args, load the config once, call
    the verb, which returns (fields, text lines), and return them after the
    metadata block (the RunConfig's fields and the version), as JSON or as
    "# key = value" lines. The k-factors are computed at the library's
    default tolerance, laws.DEFAULT_REL_TOL. Every bad input value (a
    ConfigurationError, wherever raised) exits 2, a QuadratureError 1."""
    options, extra = parser.parse_known_args(args)
    marker = extra[:1] == ["--"]  # argparse passes the end-of-options marker on
    if extra[marker:]:
        first = extra[marker]
        parser.error(f"No such option '{first}'." if first.startswith("-") and not marker else f"Got unexpected extra argument ({first})")
    options = vars(options)
    verb, config_path, as_json = options.pop("verb"), options.pop("config_path"), options.pop("as_json")
    overrides = {name: options.pop(name) for name in RunConfig._fields}
    try:
        config = load_config(config_path, overrides)
        fields, lines = verb(config, **options)
    except ConfigurationError as exc:
        _fail(2, exc)
    except QuadratureError as exc:
        _fail(1, f"quadrature failed: {exc}")
    metadata = {"artifact": "crdbounds", "version": __version__, **config._asdict()}
    if as_json:
        return json.dumps({"metadata": metadata, **fields}, indent=2)
    return "\n".join([*(f"# {key} = {value}" for key, value in metadata.items()), *lines])


def main(args=None, prog_name: str = "crdbounds") -> None:
    """Run one verb on ``args`` (default: the command line's) and print its
    numbers. Returns None; a failure prints one ``Error:`` line to stderr
    and raises SystemExit(2) for a usage or configuration error, SystemExit(1)
    for a runtime or I/O failure. --help and --version raise SystemExit(0)."""
    try:
        text = _run(_parser(prog_name), args)
        try:
            print(text)
        except UnicodeEncodeError:  # an ASCII stdout writes UTF-8, as it did under click
            sys.stdout.reconfigure(encoding="utf-8")
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone (``| head``): exit 1 with nothing on stderr,
        # and let the flush at interpreter exit write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1) from None


# click's runner protocol (CliRunner.invoke), which perfbench's reference pass and the tests use
main.name = "crdbounds"
main.main = main


if __name__ == "__main__":
    sys.exit(main())
