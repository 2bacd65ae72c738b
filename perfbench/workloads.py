"""The three workloads and the reference pass every workload ends with.

Each workload has a set-up, which the parent process times, and a measured
loop that runs for the requested seconds and returns its per-step times
("steps") and the times of its headline job ("jobs"), each paired with the
time of ref_kernel run right after it:

* cli-cold: a step is one fresh ``python -m crdbounds.cli`` process; a job is
  one shuffled deck of all six verbs.
* tables-build: a step is one ``build_tables`` call at the default knobs; a
  job is the build at the cheapest ladder grid whose k-factors meet 1e-9.
* eval-dense: a step is a batch of 64 evaluation queries (``v4``,
  ``v4_rate``, ``comoving_distance`` and ``classify_machine`` at seeded
  inputs); a job is the dense figure written as CSV plus the coarse one
  written as JSON.
"""

from __future__ import annotations

import gc
import inspect
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import checks as ck

VERBS = ("constants", "threshold", "kfactors", "scale", "scale-machine", "figure")
LADDER = (1024, 2048, 4096, 8192, 16384, 32768)
KFACTOR_TARGET = 1e-9
FIGURE_RANGE = (450.0, 1700.0)
CLI_FIGURE_STEP = 1.0  # the CLI default
DENSE_STEP = 0.01
JSON_STEP = 0.1
# Query times are log-uniform over [EARLY_FRACTION T_U, T_U], plus t = 0 and
# T_U. The range is fixed. Below about 1.014e-24 T_U, in the tables' first two
# panels, EdS v4 and v4_rate are wrong (relative errors from 6e-3 up to 6e6 at
# 1e-26 T_U); the queries stay above them, and the reference pass reports the
# error at the fixed EARLY_PROBES as early_lookup_rel_err.
EARLY_FRACTION = 1e-23
EARLY_PROBES = (1.0045e-24, 10**-24.5, 1e-25, 10**-25.5, 1e-26)
CLI_TIMEOUT_S = 60
# The host's speed drifts by up to 1.5x within and between runs. Every timed
# step and job is scaled by REF_KERNEL_S over the time of ref_kernel run next
# to it (see worker.py), which follows that drift. 2.5 ms is about the loop's
# time on a 2-vCPU x86_64 VM, so that scaled figures read close to raw seconds
# there.
REF_KERNEL_S = 2.5e-3


def grid_points(step: float) -> int:
    """Points per figure series, as build_figure samples them."""
    lo, hi = FIGURE_RANGE
    return int(math.floor((hi + 0.5 * step - lo) / step - 1e-9)) + 1


def ref_kernel() -> float:
    """Time one pass of a fixed pure-Python loop that does not touch crdbounds."""
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return time.perf_counter() - start


def knobs(lib) -> dict:
    """The knobs of this run: build_tables' own defaults and the workload constants."""
    defaults = inspect.signature(lib.cosmology.build_tables).parameters
    return {
        "grid_points": defaults["grid_points"].default,
        "rel_tol": defaults["rel_tol"].default,
        "ladder_grid_points": list(LADDER),
        "figure_range": list(FIGURE_RANGE),
        "figure_steps": {"cli": CLI_FIGURE_STEP, "dense_csv": DENSE_STEP, "json": JSON_STEP},
        "query_early_fraction": EARLY_FRACTION,
        "early_probes": list(EARLY_PROBES),
    }


def random_cosmology(rng: random.Random):
    """A flat cosmology with H0 in [50, 90] km/s/Mpc and omega_m in [0.15, 1]."""
    return round(rng.uniform(50.0, 90.0), 3), round(rng.uniform(0.15, 1.0), 4)


class Context:
    """What a worker knows: inputs, the library, checks and the tracer."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, tmp: Path, trace: bool):
        self.root = root
        self.seconds = seconds
        self.tmp = tmp
        self.trace = trace
        self.rng = random.Random(f"{workload}:{seed}")
        self.checks = ck.Checks()
        self.tracer = None
        self.lib = None
        self.oracles = None
        self._expected = {}
        self.extras = {}
        self.kernel_s = []

    def import_library(self):
        src = self.root / "src"
        sys.path.insert(0, str(src))
        import crdbounds
        import crdbounds.cli
        from crdbounds import bounds, cosmology, figure, quantities, thresholds

        if Path(crdbounds.__file__).resolve().parent != (src / "crdbounds").resolve():
            raise SystemExit(f"crdbounds imported from {crdbounds.__file__}, not from {src}")
        self.lib = SimpleNamespace(
            cli=crdbounds.cli,
            bounds=bounds,
            cosmology=cosmology,
            figure=figure,
            quantities=quantities,
            thresholds=thresholds,
        )
        self.oracles = ck.load_oracles(self.root)
        if self.trace:
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.install()

    def calibrate(self, passes: int = 1) -> float:
        """The host's speed right now, as the median time of `passes` ref_kernel passes."""
        kernel_s = statistics.median(ref_kernel() for _ in range(passes))
        self.kernel_s.append(kernel_s)
        return kernel_s

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def request(self, rid):
        if self.tracer is not None:
            self.tracer.request = rid

    def expected(self, h0_km_s_mpc: float, omega_m: float) -> ck.Expected:
        key = (h0_km_s_mpc, omega_m)
        if key not in self._expected:
            self._expected[key] = ck.Expected(self.oracles, h0_km_s_mpc, omega_m)
        return self._expected[key]

    def params(self, h0_km_s_mpc: float, omega_m: float):
        return self.lib.cosmology.CosmologyParams.create(h0_km_s_mpc, omega_m, 1.0 - omega_m)

    def build(self, h0_km_s_mpc: float, omega_m: float, **knobs):
        return self.lib.cosmology.build_tables(self.params(h0_km_s_mpc, omega_m), **knobs)


# -- CLI requests ----------------------------------------------------------


def cli_request(verb: str, cosmology, rng: random.Random, out: Path):
    """Arguments for one CLI call and the inputs its check needs."""
    h0, omega_m = cosmology
    flags = ["--h0", repr(h0), "--omega-m", repr(omega_m), "--omega-lambda", repr(1.0 - omega_m)]
    request = {"verb": verb, "cosmology": cosmology}
    if verb == "constants":
        return ["constants"], request
    if verb in ("threshold", "kfactors"):
        return [verb, "--json", *flags], request
    if verb == "scale":
        request["qubits"] = rng.randint(1, 2000)
        return ["scale", "--qubits", str(request["qubits"]), "--json", *flags], request
    if verb == "scale-machine":
        request.update(
            ops=10.0 ** rng.uniform(3.0, 30.0),
            volume=10.0 ** rng.uniform(-9.0, 3.0),
            duration=10.0 ** rng.uniform(-3.0, 8.0),
        )
        args = ["--ops", repr(request["ops"]), "--volume", repr(request["volume"])]
        return ["scale", *args, "--duration", repr(request["duration"]), "--json"], request
    request["points"] = grid_points(CLI_FIGURE_STEP)
    return ["figure", "--out", str(out), "--json", *flags], request


def check_cli_output(ctx: Context, request: dict, returncode: int, stdout: str, what: str):
    verb = request["verb"]
    if not ctx.checks.check(returncode == 0, f"{what}: {verb} exited {returncode}"):
        return
    if verb == "constants":
        ck.check_constants_text(ctx.checks, ctx.oracles, stdout, what)
    else:
        ck.check_cli_json(ctx.checks, ctx.expected(*request["cosmology"]), verb, request, stdout, what)


# -- reference pass ----------------------------------------------------------


def paper_scenarios(lib, params):
    s = lib.bounds.Scenario
    v, t = ck.LAB_VOLUME_M3, ck.JULIAN_YEAR_S
    return [
        s.lab(v, t),
        s.lab_nearest_neighbor(v, t, ck.INPUTS_PER_OP),
        s.lab_fully_connected(v, t),
        s.lab_broadcast(v, t),
        s.universe(params),
        s.universe_fully_connected(params),
        s.universe_broadcast(params),
    ]


def assessment_rows(report):
    return [
        (a.scenario_kind.value, a.threshold_qubits, a.probed_length_m, a.energy_ev, a.sub_planckian)
        for a in report
    ]


def check_eds_lookups(ctx: Context, tables, t: float, t1: float, t2: float, got, what: str):
    """v4, v4_rate and comoving distance against the matter-only closed forms."""
    o, c = ctx.oracles, ck.SPEED_OF_LIGHT
    t_u = tables.params.t_universe
    v4, rate, dist = got
    expected_dist = float(o.eds_comoving_distance(t1, t2, t_u, c))
    # the distance is a difference of conformal times: allow their rounding
    dist_floor = 1e-12 * float(o.eds_comoving_distance(0.0, t2, t_u, c))
    if t == 0.0:
        ok = v4 == 0.0 and rate == 0.0
    else:
        ok = (
            ck.rel_err(v4, float(o.eds_v4(t, c))) <= 1e-6
            and ck.rel_err(rate, float(o.eds_v4_rate(t, c))) <= 1e-6
        )
    ok = ok and abs(dist - expected_dist) <= 1e-9 * abs(expected_dist) + dist_floor
    ctx.checks.check(ok, f"{what}: EdS lookups t={t!r} t1={t1!r} t2={t2!r} got {got}")


def kfactor_errors(tables, expect: ck.Expected):
    return [ck.rel_err(v, e) for v, e in zip((tables.k4u, tables.k7u, tables.k8u), expect.k)]


def early_lookup_error(ctx: Context, eds) -> float:
    """Worst relative error of EdS v4 and v4_rate against their closed forms
    at the fixed EARLY_PROBES, as fractions of T_U."""
    o, cz, c = ctx.oracles, ctx.lib.cosmology, ck.SPEED_OF_LIGHT
    errors = []
    for fraction in EARLY_PROBES:
        t = eds.params.t_universe * fraction
        errors.append(ck.rel_err(cz.v4(t, eds), float(o.eds_v4(t, c))))
        errors.append(ck.rel_err(cz.v4_rate(t, eds), float(o.eds_v4_rate(t, c))))
    return max(errors)


def reference_pass(ctx: Context):
    """Fixed, seed-independent checks of every layer against the oracles.

    Returns kfactor_digits, -log10 of the worst k-factor relative error at
    the default knobs against the matter-only closed form, and
    early_lookup_rel_err from early_lookup_error.
    """
    lib, o, checks = ctx.lib, ctx.oracles, ctx.checks
    fid_exp, eds_exp = ctx.expected(*ck.FIDUCIAL), ctx.expected(*ck.EDS)
    checks.check(fid_exp.thresholds() == o.THRESHOLD_QUBITS, "expectation model thresholds")
    worst = max(abs(fid_exp.log2_at_planck[k] - v) for k, v in o.THRESHOLD_LOG2.items())
    checks.check(worst <= 1e-9, f"expectation model log2 thresholds off by {worst:.1e}")

    ctx.request("reference-tables")
    fid = ctx.build(*ck.FIDUCIAL)
    eds = ctx.build(*ck.EDS)
    fid_exp.check_k_factors(checks, (fid.k4u, fid.k7u, fid.k8u), "reference fiducial")
    eds_exp.check_k_factors(checks, (eds.k4u, eds.k7u, eds.k8u), "reference EdS")
    digits = -math.log10(max(kfactor_errors(eds, eds_exp)))
    ctx.extras["kfactor_rel_err_defaults"] = {
        "eds": kfactor_errors(eds, eds_exp),
        "fiducial": kfactor_errors(fid, fid_exp),
    }

    ctx.request("reference-thresholds")
    k = lib.quantities.planck_units()
    scenarios = paper_scenarios(lib, fid.params)
    got = {
        r.scenario_kind.value: r.qubits
        for r in (lib.thresholds.planck_threshold(s, fid, k) for s in scenarios)
    }
    checks.check(got == o.THRESHOLD_QUBITS, f"reference thresholds {got}")
    for n in (1, 500, 525, 526, 806, 807, 1408, 1410, 1609, 2048):
        report = lib.thresholds.classify_machine(n, scenarios, fid, k)
        fid_exp.check_assessment(checks, n, assessment_rows(report), "reference classify")

    ctx.request("reference-lookups")
    cz = lib.cosmology
    t_u = eds.params.t_universe
    for i in range(20):
        t = t_u * 10.0 ** (-3.0 + 3.0 * i / 19)
        got = (cz.v4(t, eds), cz.v4_rate(t, eds), cz.comoving_distance(0.5 * t, t, eds))
        check_eds_lookups(ctx, eds, t, 0.5 * t, t, got, "reference")
    early = early_lookup_error(ctx, eds)

    ctx.request("reference-figure")
    fg = lib.figure
    series, annotations = fg.build_figure(FIGURE_RANGE, CLI_FIGURE_STEP, fid, k)
    check_figure(ctx, series, k.l_p, fid_exp, grid_points(CLI_FIGURE_STEP), "reference figure")
    csv_path, json_path = ctx.tmp / "reference.csv", ctx.tmp / "reference.json"
    fg.write_series(series, annotations, csv_path, "csv")
    fg.write_series(series, annotations, json_path, "json")
    check_written(ctx, csv_path, json_path, grid_points(CLI_FIGURE_STEP), "reference figure")

    from click.testing import CliRunner

    runner = CliRunner(env={"CRDBOUNDS_CONFIG": None})
    rng = random.Random(0)
    for verb in VERBS:
        ctx.request(f"reference-cli-{verb}")
        args, request = cli_request(verb, ck.FIDUCIAL, rng, ctx.tmp / "reference-cli.csv")
        with ctx.span(f"cli.{verb}"):
            result = runner.invoke(lib.cli.main, args)
        check_cli_output(ctx, request, result.exit_code, result.stdout, "reference cli")
    ctx.request(None)
    return digits, early


def check_figure(ctx: Context, series, l_p: float, expect: ck.Expected, points: int, what: str):
    problems = [] if len(series) == 5 else [f"{len(series)} series"]
    for s in series:
        crossing = ctx.lib.figure.planck_crossing(s, l_p)
        if len(s.points) != points:
            problems.append(f"{s.label}: {len(s.points)} points")
        if crossing is None or abs(crossing - expect.crossing(s.label)) > 1e-6:
            problems.append(f"{s.label}: crossing {crossing}")
    ctx.checks.check(not problems, f"{what}: {problems}")


def check_written(ctx: Context, csv_path: Path, json_path: Path, json_points: int, what: str):
    raw = csv_path.read_bytes()
    header = raw[: raw.index(b"\n")].decode()
    ctx.checks.check(header == ctx.lib.figure.CSV_HEADER, f"{what}: CSV header {header!r}")
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    counts = [len(s["points"]) for s in doc["series"]]
    ctx.checks.check(counts == [json_points] * 5, f"{what}: JSON point counts {counts}")
    return raw.count(b"\n") - 1


# -- workloads ---------------------------------------------------------------


class CliCold:
    """Closed loop, one client: each step is a fresh CLI process."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        rng = ctx.rng
        self.pool = [ck.FIDUCIAL, ck.EDS, random_cosmology(rng), random_cosmology(rng)]
        self.env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        self.env.pop("CRDBOUNDS_CONFIG", None)

    def _run(self, args):
        cmd = [sys.executable, "-m", "crdbounds.cli", *args]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=self.env, cwd=self.ctx.tmp, timeout=CLI_TIMEOUT_S
        )
        return time.perf_counter() - start, proc

    def setup(self):
        # a warm-up call fills the OS file cache, as any earlier use would have
        _, proc = self._run(["--version"])
        if proc.returncode != 0:
            raise SystemExit(f"crdbounds CLI does not start: {proc.stderr.strip()}")

    def measure(self):
        ctx, rng = self.ctx, self.ctx.rng
        steps, jobs, calls = [], [], []
        start = time.perf_counter()
        while not jobs or keep_going(start, _mean([deck_s for deck_s, _ in jobs]), ctx.seconds):
            deck = list(VERBS)
            rng.shuffle(deck)
            deck_s, deck_kernel_s = 0.0, []
            for verb in deck:
                out = ctx.tmp / f"figure-{len(calls)}.csv"
                args, request = cli_request(verb, rng.choice(self.pool), rng, out)
                wall, proc = self._run(args)
                deck_kernel_s.append(ctx.calibrate())
                steps.append((wall, deck_kernel_s[-1]))
                deck_s += wall
                calls.append((request, proc.returncode, proc.stdout, proc.stderr))
            jobs.append((deck_s, statistics.median(deck_kernel_s)))

        ctx.import_library()  # the checks need the oracles; the loop never imports crdbounds
        per_verb = {}
        for i, (request, returncode, stdout, stderr) in enumerate(calls):
            per_verb[request["verb"]] = per_verb.get(request["verb"], 0) + 1
            check_cli_output(ctx, request, returncode, stdout, f"cli-cold call {i} {stderr[-200:]}")
        ctx.extras["calls_per_verb"] = per_verb
        return steps, jobs


class TablesBuild:
    """In process: one accuracy ladder over grid_points on the EdS and
    fiducial references, then cycles of builds at the defaults over a seeded
    pool of flat cosmologies, each cycle ending with builds of both
    references at the cheapest ladder grid that meets 1e-9."""

    POOL = 24  # EdS plus 23 seeded cosmologies

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self):
        ctx = self.ctx
        ctx.import_library()
        for ref in (ck.EDS, ck.FIDUCIAL):
            ctx.expected(*ref)

    def _timed_build(self, cosmology, rid, **knobs):
        ctx = self.ctx
        params = ctx.params(*cosmology)
        ctx.request(rid)
        start = time.perf_counter()
        with ctx.span("request"):
            tables = ctx.lib.cosmology.build_tables(params, **knobs)
        elapsed = time.perf_counter() - start
        return (elapsed, ctx.calibrate()), tables

    def _target_builds(self, grid: int):
        """Both references at one grid: their times and the worst k-factor error."""
        times, worst = [], 0.0
        for ref in (ck.EDS, ck.FIDUCIAL):
            timed, tables = self._timed_build(ref, f"ladder-{grid}", grid_points=grid)
            times.append(timed)
            worst = max(worst, *kfactor_errors(tables, self.ctx.expected(*ref)))
        return times, worst

    def measure(self):
        ctx, rng = self.ctx, self.ctx.rng
        start = time.perf_counter()
        ladder, target = {}, None
        for grid in LADDER:
            _, ladder[grid] = self._target_builds(grid)
            if target is None and ladder[grid] <= KFACTOR_TARGET:
                target = grid
        ctx.extras["ladder_worst_kfactor_rel_err"] = {str(g): e for g, e in ladder.items()}
        ctx.extras["grid_at_1e-9"] = target
        if not ctx.checks.check(target is not None, f"no ladder grid meets {KFACTOR_TARGET:g}"):
            target = LADDER[-1]

        pool = [ck.EDS] + [random_cosmology(rng) for _ in range(self.POOL - 1)]
        steps, jobs, cycle_s = [], [], 0.0
        while not jobs or keep_going(start, cycle_s, ctx.seconds):
            cycle_start = time.perf_counter()
            rng.shuffle(pool)
            for cosmology in pool:
                timed, tables = self._timed_build(cosmology, len(steps))
                steps.append(timed)
                got = (tables.k4u, tables.k7u, tables.k8u)
                ctx.expected(*cosmology).check_k_factors(ctx.checks, got, f"sweep {cosmology}")
            for _ in range(2):
                times, worst = self._target_builds(target)
                ctx.checks.check(worst <= KFACTOR_TARGET, f"grid {target}: k-factor error {worst:.2e}")
                jobs.extend(times)
            cycle_s = time.perf_counter() - cycle_start
        return steps, jobs


class EvalDense:
    """In process, tables built in set-up. Each cycle runs batches of seeded
    evaluation queries for QUERY_SLICE_S, then one dense figure job, so both
    are sampled over the whole run."""

    QUERY_BATCH = 64  # queries per step: one step is long enough to time reliably
    QUERY_SLICE_S = 1.0

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self):
        ctx = self.ctx
        ctx.import_library()
        ctx.request("setup")
        self.fid = ctx.build(*ck.FIDUCIAL)
        self.eds = ctx.build(*ck.EDS)
        ctx.request(None)
        self.k = ctx.lib.quantities.planck_units()
        self.scenarios = paper_scenarios(ctx.lib, self.fid.params)
        self.fid_exp = ctx.expected(*ck.FIDUCIAL)
        self.lookup_s = self.classify_s = 0.0
        self.queries = 0

    def _time(self, tables):
        rng = self.ctx.rng
        r = rng.random()
        t_u = tables.params.t_universe
        if r < 0.02:
            return 0.0
        if r < 0.04:
            return t_u
        return t_u * EARLY_FRACTION ** rng.random()

    def _query_batch(self, rid) -> float:
        """Time one batch of queries, then check every answer."""
        ctx, rng, lib = self.ctx, self.ctx.rng, self.ctx.lib
        cz, th = lib.cosmology, lib.thresholds
        inputs = []
        for _ in range(self.QUERY_BATCH):
            tables = self.eds if rng.random() < 0.5 else self.fid
            t = self._time(tables)
            t1, t2 = sorted((self._time(tables), self._time(tables)))
            inputs.append((tables, t, t1, t2, rng.randint(1, 2000)))
        answers = []
        lookup_s = classify_s = 0.0
        perf_counter = time.perf_counter
        ctx.request(rid)
        with ctx.span("request"):
            start = perf_counter()
            for tables, t, t1, t2, n in inputs:
                s0 = perf_counter()
                got = (cz.v4(t, tables), cz.v4_rate(t, tables), cz.comoving_distance(t1, t2, tables))
                s1 = perf_counter()
                report = th.classify_machine(n, self.scenarios, self.fid, self.k)
                s2 = perf_counter()
                lookup_s += s1 - s0
                classify_s += s2 - s1
                answers.append((got, report))
            elapsed = perf_counter() - start
        self.lookup_s += lookup_s
        self.classify_s += classify_s
        self.queries += len(inputs)
        for (tables, t, t1, t2, n), (got, report) in zip(inputs, answers):
            if tables is self.eds:
                check_eds_lookups(ctx, tables, t, t1, t2, got, "eval-dense")
            else:
                ctx.checks.check(all(math.isfinite(v) and v >= 0.0 for v in got), f"lookups {got}")
            self.fid_exp.check_assessment(ctx.checks, n, assessment_rows(report), "eval-dense classify")
        return elapsed

    def _figure_job(self, rid, csv_path: Path, json_path: Path):
        """One dense figure written as CSV plus the coarse one as JSON: the job
        time and the dense points per second of build plus CSV write."""
        ctx, fg = self.ctx, self.ctx.lib.figure
        ctx.request(rid)
        with ctx.span("request"):
            s0 = time.perf_counter()
            series, annotations = fg.build_figure(FIGURE_RANGE, DENSE_STEP, self.fid, self.k)
            fg.write_series(series, annotations, csv_path, "csv")
            s1 = time.perf_counter()
            coarse, annotations = fg.build_figure(FIGURE_RANGE, JSON_STEP, self.fid, self.k)
            fg.write_series(coarse, annotations, json_path, "json")
            s2 = time.perf_counter()
        dense_points = grid_points(DENSE_STEP)
        check_figure(ctx, series, self.k.l_p, self.fid_exp, dense_points, "dense figure")
        rows = check_written(ctx, csv_path, json_path, grid_points(JSON_STEP), "dense figure")
        ctx.checks.check(rows == 5 * dense_points, f"dense CSV has {rows} rows")
        # unlinked before its pages are written back, so no disk write overlaps the next slice
        csv_path.unlink()
        return s2 - s0, 5 * dense_points / (s1 - s0)

    def measure(self):
        ctx = self.ctx
        csv_path, json_path = ctx.tmp / "dense.csv", ctx.tmp / "dense.json"
        steps, jobs, rates, cycle_s = [], [], [], 0.0
        start = time.perf_counter()
        while not jobs or keep_going(start, cycle_s, ctx.seconds):
            cycle_start = time.perf_counter()
            gc.collect()  # each slice starts from the same heap, whatever the last figure left
            slice_start = len(steps)
            while time.perf_counter() - cycle_start < self.QUERY_SLICE_S:
                batch_s = self._query_batch(len(steps))
                steps.append((batch_s, ctx.calibrate()))
            gc.collect()
            job_s, rate = self._figure_job(f"figure-{len(jobs)}", csv_path, json_path)
            # the host's speed drifts over a job's seconds, which one calibration
            # misses: scale the job by the median kernel over its whole cycle
            cycle_kernel_s = [k for _, k in steps[slice_start:]] + [ctx.calibrate() for _ in range(5)]
            jobs.append((job_s, statistics.median(cycle_kernel_s)))
            rates.append(rate)
            cycle_s = time.perf_counter() - cycle_start

        ctx.extras.update(
            {
                "lookups_per_s": 3 * self.queries / self.lookup_s,
                "classify_per_s": self.queries / self.classify_s,
                "figure_points_per_s": statistics.median(rates),
            }
        )
        return steps, jobs


WORKLOADS = {"cli-cold": CliCold, "tables-build": TablesBuild, "eval-dense": EvalDense}


def keep_going(start: float, cycle_s: float, seconds: float) -> bool:
    """Whether to start another cycle of cycle_s: not when it would end more
    than half a cycle past the seconds, so that a run measures the seconds on
    average, however long its cycles are."""
    return time.perf_counter() - start + 0.5 * cycle_s <= seconds


def _mean(values):
    return sum(values) / len(values)


def tail(values):
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the maximum when there are 20 samples or fewer, where that
    percentile would not lie above the median."""
    ordered = sorted(values)
    index = len(ordered) - 11 if len(ordered) > 20 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)
