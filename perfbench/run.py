"""crdbounds benchmark.

    python3 perfbench/run.py --workload {cli-cold,tables-build,eval-dense} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The package is used from ``src/``
(byte-compiled first), and the outputs are checked against
``tests/oracles.py``. Each workload runs in a fresh worker interpreter; the
set-up of that worker is timed several times and its median is ``setup_s``.
All end-to-end times are scaled to a reference speed by ``ref_kernel`` (see
``workloads.REF_KERNEL_S``); the raw ones are printed and recorded too.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once under the tracing wrappers, each for half the
seconds, and prints the per-layer metrics and the tracing overhead. The last
line of standard output is the JSON result; a record with provenance goes to
``.bench_out/`` in the checkout. A failed check shows as ``"correct": false``
in that result, and the exit code is still 0; the exit code is 2 outside a
crdbounds source checkout and 1 when a worker fails, with no result printed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import REF_KERNEL_S, ref_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "tables-build", "eval-dense")
SETUP_RUNS = 3  # set-up-only workers, besides the measured one
KERNEL_PASSES = 20  # ref_kernel passes before each set-up
DEADLINE_S = 170.0  # the whole run must end within 180 s

E2E = {
    "setup_s": "s",
    "step_s.p50": "s",
    "step_s.tail": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "kfactor_digits": "digits",
    "early_lookup_rel_err": "ratio",
}
# what the generic end-to-end names stand for on each workload
ALIASES = {
    "cli-cold": {"step_s.p50": "cli_wall_s.p50", "step_s.tail": "cli_wall_s.tail", "job_s": "cli_deck_s"},
    "tables-build": {"step_s.p50": "build_s.p50", "step_s.tail": "build_s.tail", "job_s": "time_to_1e-9_s"},
    "eval-dense": {"step_s.p50": "query_s.p50", "step_s.tail": "query_s.tail", "job_s": "dense_figure_s"},
}
EXTRA_UNITS = {"lookups_per_s": "1/s", "classify_per_s": "1/s", "figure_points_per_s": "1/s"}
OVERHEAD = ("setup_s", "step_s.p50", "step_s.tail", "job_s", "peak_rss_mb")
IMPORTS = {"cli.import_s": "crdbounds.cli", "cli.import.numpy_s": "numpy", "cli.import.scipy_s": "scipy.interpolate"}
# all load on one thread: no BLAS or OpenMP worker threads in the workers or the CLI
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def layer_unit(name: str) -> str:
    if name.startswith("overhead."):
        return E2E[name.removeprefix("overhead.")]
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class WorkerError(RuntimeError):
    pass


def run_worker(args, seconds: float, tmp: Path, deadline: float, trace=False, setup_only=False, spans=None):
    """Start a worker, time its set-up up to READY, and return (result, setup_s)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(seconds), "--tmp", str(tmp),
    ]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    # a session of its own, so that a timeout also stops the CLI processes it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=ENV, start_new_session=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker for {args.workload} failed (exit {code})")
    if setup_only:
        return None, setup_s
    return json.loads(lines[-1]), setup_s


def import_times(tmp: Path, deadline: float) -> dict:
    """Cumulative import times from ``python -X importtime`` in fresh
    interpreters, median of three."""
    env = dict(ENV, PYTHONPATH=str(ROOT / "src"))
    samples = {name: [] for name in IMPORTS}
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import crdbounds.cli"],
            capture_output=True, text=True, env=env, cwd=tmp,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if proc.returncode != 0:
            raise WorkerError(f"import crdbounds.cli failed: {proc.stderr[-500:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for name, module in IMPORTS.items():
            samples[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def provenance(args, knobs: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "knobs": knobs,
    }


def measure(args, tmp: Path, deadline: float, out: Path):
    if not args.trace:
        setups, kernel_s = [], []
        for i in range(SETUP_RUNS + 1):
            kernel_s += [ref_kernel() for _ in range(KERNEL_PASSES)]
            if i < SETUP_RUNS:
                setups.append(run_worker(args, args.seconds, tmp, deadline, setup_only=True)[1])
        result, setup_s = run_worker(args, args.seconds, tmp, deadline)
        setups.append(setup_s)
        speed = REF_KERNEL_S / statistics.median(kernel_s)
        values = dict(result["e2e"], setup_s=statistics.median(setups) * speed)
        metrics = {name: values[name] for name in E2E}
        result["raw"]["setup_s"] = statistics.median(setups)
        return result, metrics, {"setup_samples_s": setups, "setup_kernel_s": statistics.median(kernel_s)}

    half = max(args.seconds / 2.0, 1.0)
    plain, plain_setup = run_worker(args, half, tmp, deadline)
    spans = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
    result, traced_setup = run_worker(args, half, tmp, deadline, trace=True, spans=spans)
    metrics = dict(result["layers"])
    metrics.update(import_times(tmp, deadline))
    traced = dict(result["e2e"], setup_s=traced_setup)
    untraced = dict(plain["e2e"], setup_s=plain_setup)
    for name in OVERHEAD:
        metrics[f"overhead.{name}"] = traced[name] - untraced[name]
    return result, metrics, {"untraced_e2e": untraced, "traced_e2e": traced, "spans_file": spans.name}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/crdbounds/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a crdbounds source checkout, missing {missing}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("perfbench: src/ does not compile", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out"
    tmp = out / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result, metrics, details = measure(args, tmp, deadline, out)
    except (WorkerError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = E2E if not args.trace else {name: layer_unit(name) for name in metrics}
    record = {
        "provenance": provenance(args, result["knobs"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "samples": result["samples"],
        "extras": result["extras"],
        "raw_e2e": result["raw"],
        "kernel_s": result["kernel_s"],
        **details,
    }
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    samples = result["samples"]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
        f"{samples['steps']} steps, {samples['jobs']} jobs, tail = p{samples['tail_percentile']:.4g}"
    )
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    aliases = ALIASES[args.workload]
    for name, value in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases and not args.trace else ""
        print(f"{name:<42} {value:.6g} {units[name]}{alias}")
    if not args.trace:
        for name, value in result["raw"].items():
            print(f"{'raw ' + name:<42} {value:.6g} s")
        print(f"{'kernel_s':<42} {result['kernel_s']:.6g} s  (reference {REF_KERNEL_S:g} s)")
        for name, value in result["extras"].items():
            if name in EXTRA_UNITS:
                print(f"{name:<42} {value:.6g} {EXTRA_UNITS[name]}")
        print(f"{'failed_ratio':<42} {result['failed'] / result['attempted']:.6g} ratio")
    for failure in result["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
