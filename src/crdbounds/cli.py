"""Command-line front end: one flag table, ``_FLAGS``, and a short parse loop.

Verbs: constants | kfactors | threshold | scale | figure. Each prints its
numbers after a metadata block (parameter values, version), so every number
carries what produced it. Exit codes: 0 success, 1 runtime or I/O failure,
2 usage or configuration error, each failure one ``Error:`` line on stderr.
"""

from __future__ import annotations

import json
import os
import sys

from . import __version__
from .bounds import Scenario, ScenarioKind, crd, energy_from_length, max_length, planck_crd
from .config import RunConfig, load_config
from .errors import ConfigurationError, QuadratureError, check_range
from .laws import CosmologyParams, universe_laws
from .quantities import PLANCK_UNITS, LogQuantity, s_to_gyr
from .thresholds import classify_machine, planck_threshold


def _fail(code: int, message):
    """End the call with one ``Error:`` line on stderr and exit code 1 or 2."""
    sys.stderr.write(f"Error: {message}\n")
    raise SystemExit(code)


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
    error: for matter only, k8u is off by 8.3e-16, above its shift of
    6.3e-16; k4u and k7u are within theirs.
    """
    laws = universe_laws(config.params)
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
    laws = universe_laws(config.params)
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
    laws = universe_laws(config.params)
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
        laws = universe_laws(config.params)
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


# The flag table: flag -> (dest, converter, default, help, the verbs that take it, None meaning
# before the verb). The converter is float, int, str, a tuple of choices or None, for a switch. A
# default of ... marks a required flag; an unset run flag is None, so RunConfig's loader decides.
_VERBS = {verb.__name__: verb for verb in (constants, kfactors, threshold, scale, figure)}
_FLAGS = {
    "--qubits": ("qubits", int, None, "Logical qubit count n (operation count 2^n).", ("scale",)),
    "--ops": ("ops", float, None, "Demonstrated classical operations per --duration (machine mode).", ("scale",)),
    "--volume": ("volume", float, None, "Machine volume in m^3 (machine mode).", ("scale",)),
    "--duration": ("duration", float, None, "Machine run time in seconds (machine mode).", ("scale",)),
    "--min": ("lo", float, 450.0, "Smallest log2 NEO to sample.", ("figure",)),
    "--max": ("hi", float, 1700.0, "Largest log2 NEO to sample.", ("figure",)),
    "--step": ("step", float, 1.0, "Sampling step in log2 NEO.", ("figure",)),
    "--format": ("fmt", ("csv", "json"), "csv", "Output file format.", ("figure",)),
    "--out": ("out_path", str, ..., "Output file path (required).", ("figure",)),
    "--scenario": ("scenario_name", ("all", *(k.value for k in ScenarioKind)), "all", "Only this scenario.", ("threshold", "scale")),
    "--h0": ("h0_km_s_mpc", float, None, "Hubble constant in km/s/Mpc.", _VERBS),
    "--omega-m": ("omega_m", float, None, "Matter density parameter.", _VERBS),
    "--omega-lambda": ("omega_lambda", float, None, "Dark-energy density parameter.", _VERBS),
    "--lab-volume": ("lab_volume_m3", float, None, "Lab volume in m^3.", _VERBS),
    "--lab-duration": ("lab_duration_s", float, None, "Lab run time in seconds.", _VERBS),
    "--inputs-per-op": ("inputs_per_op", int, None, "Inputs per operation for the nearest-neighbor lab.", _VERBS),
    "--json": ("as_json", None, False, "Emit JSON instead of text.", _VERBS),
    "--config": ("config_path", str, None, "Flat key=value config file (also honored via $CRDBOUNDS_CONFIG).", _VERBS),
    "--version": (None, None, None, "Show the version and exit.", (None,)),
    "--help": (None, None, None, "Show this message and exit.", (None, *_VERBS)),
}


def _help(prog: str, name) -> str:
    """The --help text, from the table: one verb's docstring and flags, or the verbs."""
    commands = [f"  {verb:<9}  {function.__doc__.splitlines()[0]}" for verb, function in _VERBS.items()]
    doc = [line.strip() for line in _VERBS[name].__doc__.splitlines()] if name else ["commands:", *commands]
    lines = [f"usage: {prog} {name or '[--version] [--help] COMMAND'} [options]", "", *doc, "", "options:"]
    for flag, (_, convert, _, text, verbs) in _FLAGS.items():
        metavar = " {" + ",".join(convert) + "}" if isinstance(convert, tuple) else f" {convert.__name__.upper()}" if convert else ""
        lines += [f"  {flag}{metavar}", f"      {text}"] if name in verbs else []
    return "\n".join(lines)


def _value(name: str, convert, value: str):
    """``value`` through a converter, or one of a tuple of choices; else exit 2."""
    if callable(convert) or value in convert:
        try:
            return convert(value) if callable(convert) else value
        except ValueError:
            _fail(2, f"argument {name}: invalid {convert.__name__} value: {value!r}")
    _fail(2, f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, convert))})")


def _option(token: str, flags):
    """(flag, text after "=" or None) if ``token`` is a flag, maybe unknown; None for a value: a number, "-", text with a space."""
    try:
        float(token)
    except ValueError:
        if token[:1] == "-" and len(token) > 1:
            flag, eq, value = token.partition("=")
            return (flag, value) if eq and flag in flags else None if " " in token else (token, None)


def _run(prog: str, args: list) -> str:
    """The frame every verb runs in. In ``args`` the first value is the verb,
    before which only --help and --version are flags; a flag takes the next
    token or the text after "=", the last of a repeated flag wins, and only
    the first "--" is dropped. A bad value, then a missing flag, then an
    unknown flag or a stray value exits 2, as does a ConfigurationError; a
    QuadratureError exits 1. Returns the text to print."""
    name, flags, options, stray, tokens = None, ("--version", "--help"), {}, [], iter(args)
    for token in tokens:
        option = _option(token, flags)
        if name and token == "--":  # each token after it is a value
            stray += [f"Got unexpected extra argument ({value})" for value in tokens]
        elif name is None and (option is None or token == "--" and next(tokens, None) is not None):  # the verb, or a "--" not last
            name = _value("COMMAND", _VERBS, token)
            flags = [flag for flag, row in _FLAGS.items() if name in row[4]]
            options = {_FLAGS[flag][0]: _FLAGS[flag][2] for flag in flags if _FLAGS[flag][0]}
        elif option is None or option[0] not in flags:
            stray.append(f"No such option '{token}'." if token.startswith("-") else f"Got unexpected extra argument ({token})")
        else:
            (flag, value), (dest, convert) = option, _FLAGS[option[0]][:2]
            if convert is None and value is not None:
                _fail(2, f"argument {flag}: ignored explicit argument {value!r}")
            if dest is None:
                return _help(prog, name) if flag == "--help" else f"{prog}, version {__version__}"
            if convert and value is None and ((value := next(tokens, None)) is None or _option(value, flags)):
                _fail(2, f"argument {flag}: expected one argument")
            options[dest] = _value(flag, convert, value) if convert else True
    missing = [flag for flag in flags if options.get(_FLAGS[flag][0]) is ...] if name else ["COMMAND"]
    if missing or stray:
        _fail(2, f"the following arguments are required: {', '.join(missing)}" if missing else stray[0])
    as_json = options.pop("as_json")
    try:
        config = load_config(options.pop("config_path"), {key: options.pop(key) for key in RunConfig._fields})
        fields, lines = _VERBS[name](config, **options)
    except ConfigurationError as exc:
        _fail(2, exc)
    except QuadratureError as exc:
        _fail(1, f"quadrature failed: {exc}")
    metadata = {"artifact": "crdbounds", "version": __version__, **config._asdict()}
    if as_json:
        return json.dumps({"metadata": metadata, **fields}, indent=2)
    return "\n".join([*(f"# {key} = {value}" for key, value in metadata.items()), *lines])


def main(args=None, prog_name: str = "crdbounds") -> None:
    """Run one verb on ``args`` (default: the command line's), print its text and return None.
    A failure raises SystemExit(2) for a usage or configuration error, else SystemExit(1)."""
    try:
        text = _run(prog_name, sys.argv[1:] if args is None else list(args))
        try:
            print(text)
        except UnicodeEncodeError:  # an ASCII stdout writes UTF-8, as it did under click
            sys.stdout.reconfigure(encoding="utf-8")
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone (``| head``): exit 1, and flush to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1) from None


# click's runner protocol (CliRunner.invoke), which perfbench's reference pass and the tests use
main.name = "crdbounds"
main.main = main


if __name__ == "__main__":
    sys.exit(main())
