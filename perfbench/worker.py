"""Runs one workload in a fresh interpreter; started by run.py.

It sets up, prints ``READY`` (the parent times set-up up to that line),
measures, checks every output, runs the reference pass, and prints one JSON
line with the end-to-end figures and, when traced, the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
from pathlib import Path

import workloads as wl


def _difference(after: dict, before: dict) -> dict:
    return {
        key: {k: v - before[key].get(k, 0) for k, v in after[key].items()}
        for key in ("calls", "nested", "counters")
    }


def _timings(steps: list, jobs: list) -> dict:
    return {
        "step_s.p50": statistics.median(steps),
        "step_s.tail": wl.tail(steps)[0],
        "job_s": statistics.median(jobs),
    }


def _scaled(timed: list) -> list:
    """Times at the reference speed: each scaled by the kernel time measured for it."""
    return [t * wl.REF_KERNEL_S / kernel_s for t, kernel_s in timed]


def _bracketed(steps: list) -> list:
    """Each step with the mean of the kernel times right before it (after the
    step before) and right after it. Over ten seeds this halved the spread of
    the tables-build tail against the kernel after alone; for jobs it did not
    help, so they keep their own kernel time."""
    after = [kernel_s for _, kernel_s in steps]
    before = after[:1] + after[:-1]
    return [(t, 0.5 * (k0 + k1)) for (t, k1), k0 in zip(steps, before)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ctx = wl.Context(args.root, args.workload, args.seed, args.seconds, args.tmp, args.trace)
    workload = wl.WORKLOADS[args.workload](ctx)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    steps, jobs = workload.measure()
    before = ctx.tracer.snapshot() if ctx.tracer else None
    digits, early = wl.reference_pass(ctx)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    percentile = wl.tail(steps)[1]
    checks = ctx.checks
    result = {
        "e2e": {
            **_timings(_scaled(_bracketed(steps)), _scaled(jobs)),
            "peak_rss_mb": peak_mb,
            "pass_ratio": 1.0 - checks.failed / checks.attempted,
            "kfactor_digits": digits,
            "early_lookup_rel_err": early,
        },
        "raw": _timings([t for t, _ in steps], [t for t, _ in jobs]),
        "kernel_s": statistics.median(ctx.kernel_s),
        "samples": {"steps": len(steps), "jobs": len(jobs), "tail_percentile": percentile},
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "extras": ctx.extras,
        "knobs": wl.knobs(ctx.lib),
    }
    if ctx.tracer is not None:
        from tracing import layer_metrics

        ctx.tracer.restore()
        ref = _difference(ctx.tracer.snapshot(), before)
        result["layers"] = layer_metrics(ctx.tracer, ref)
        if args.spans is not None:
            ctx.tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
