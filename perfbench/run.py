#!/usr/bin/env python3
"""Benchmark for blowup1d: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload hat_blowup --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload's pass is repeated until
``--seconds`` have elapsed (at least one pass).  With ``--trace 0`` the
metrics are the end-to-end ones, measured with no tracing installed; with
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones, plus the tracing overhead between the two kinds of pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON object ``{"detail": ...}`` with everything that does not fit
that shape: the environment, per-pass counts, the latency tail where it
has enough samples, and, for a traced run, hook coverage and the call
tree.  Failed checks are listed on standard error.  Exit code 0 means the
run completed, whether or not its checks passed; any other code means no
result was printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent

# Fresh processes timed for set-up; the median is reported.
SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("node_steps_per_s", "1/s"),
    ("run_ms_p50", "ms"),
)

PER_LAYER = (
    ("parabolic.solve.busy_s", "s"),
    ("parabolic.solve.nodes", "count"),
    ("parabolic.solve.ns_per_node", "ns"),
    ("parabolic.solve.bytes_computed", "bytes"),
    ("parabolic.assemble.busy_s", "s"),
    ("hyperbolic.compute_slopes.calls", "count"),
    ("hyperbolic.compute_slopes.per_step", "count"),
    ("hyperbolic.compute_slopes.busy_s", "s"),
    ("hyperbolic.hopf_lax_step.self_s", "s"),
    ("mesh.regrid.calls", "count"),
    ("mesh.regrid.busy_s", "s"),
    ("mesh.new_nodes", "count"),
    ("driver.advance.calls", "count"),
    ("driver.advance.self_s", "s"),
    ("driver.halvings", "count"),
    ("driver.node_steps", "count"),
    ("driver.run.busy_s", "s"),
    ("driver.run.self_s", "s"),
    ("analysis.certificate_search.busy_pct", "%"),
    ("analysis.certificate_search.tries", "count"),
    ("analysis.find_plateau.busy_pct", "%"),
    ("analysis.feasibility.calls", "count"),
    ("analysis.domination_check.calls", "count"),
    ("analysis.domination_check.busy_pct", "%"),
    ("analysis.subsolution_snapshot.busy_pct", "%"),
    ("analysis.step_check.busy_pct", "%"),
    ("cli.parse_config.busy_pct", "%"),
    ("cli.run_experiment.self_pct", "%"),
    ("cli.bytes_written", "bytes"),
    ("cli.files_written", "count"),
    ("trace.overhead_share", "%"),
    ("process.peak_rss_mb", "MB"),
)

# Percentile reported for latency only where at least this many samples
# lie beyond it.
TAIL_SAMPLES = 10


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of fresh processes that import the program, build
    the workload's inputs and take one warm-up step (a JIT compiles here)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds up by as much as
        # 50 ms, a third of the figure measured.
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_passes(workload, inputs, seconds: float, tracer=None, hooks=()):
    """Repeat the pass until ``seconds`` have elapsed; with a tracer,
    alternate untraced and traced passes, starting untraced."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        # Start every pass from the same heap state: no garbage left by the
        # previous pass for the cyclic collector to find in this one.
        gc.collect()
        if tracer is not None and len(untraced) > len(traced):
            with tracing.installed(tracer, hooks):
                traced.append(workload.run_pass(inputs))
        else:
            untraced.append(workload.run_pass(inputs))
        if time.perf_counter() - start >= seconds and (tracer is None or traced):
            return untraced, traced


def end_to_end_metrics(passes, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "steps_per_s": statistics.median(p.steps / p.wall_s for p in passes),
        "node_steps_per_s": statistics.median(p.node_steps / p.wall_s for p in passes),
        "run_ms_p50": 1e3 * statistics.median(t for p in passes for t in p.run_s),
    }


def per_layer_metrics(tracer, traced, untraced) -> dict:
    """Per traced pass; shares are of the traced passes' wall time."""
    n = len(traced)
    wall = sum(p.wall_s for p in traced)
    spans, counters = tracer.spans, tracer.counters

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    steps = counters["driver.accepted_steps"]
    nodes = counters["parabolic.solve.nodes"]
    slopes = spans["hyperbolic.compute_slopes"]
    solve = spans["parabolic.solve"]
    overhead = (statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in untraced) - 1.0)
    return {
        "parabolic.solve.busy_s": solve.busy_s / n,
        "parabolic.solve.nodes": nodes / n,
        "parabolic.solve.ns_per_node": 1e9 * solve.busy_s / nodes if nodes else 0.0,
        "parabolic.solve.bytes_computed": counters["parabolic.solve.bytes_computed"] / n,
        "parabolic.assemble.busy_s": spans["parabolic.assemble"].busy_s / n,
        "hyperbolic.compute_slopes.calls": slopes.calls / n,
        "hyperbolic.compute_slopes.per_step": slopes.calls / steps if steps else 0.0,
        "hyperbolic.compute_slopes.busy_s": slopes.busy_s / n,
        "hyperbolic.hopf_lax_step.self_s": spans["hyperbolic.hopf_lax_step"].self_s / n,
        "mesh.regrid.calls": spans["mesh.regrid"].calls / n,
        "mesh.regrid.busy_s": spans["mesh.regrid"].busy_s / n,
        "mesh.new_nodes": counters["mesh.new_nodes"] / n,
        "driver.advance.calls": spans["driver.advance"].calls / n,
        "driver.advance.self_s": spans["driver.advance"].self_s / n,
        # Propagation attempts beyond one per accepted step.
        "driver.halvings": (spans["hyperbolic.hopf_lax_step"].calls - steps) / n,
        "driver.node_steps": counters["driver.node_steps"] / n,
        "driver.run.busy_s": spans["driver.run"].busy_s / n,
        "driver.run.self_s": spans["driver.run"].self_s / n,
        "analysis.certificate_search.busy_pct": pct(spans["analysis.certificate_search"].busy_s),
        "analysis.certificate_search.tries": counters["analysis.certificate_search.tries"] / n,
        "analysis.find_plateau.busy_pct": pct(spans["analysis.find_plateau"].busy_s),
        "analysis.feasibility.calls": spans["analysis.feasibility"].calls / n,
        "analysis.domination_check.calls": spans["analysis.domination_check"].calls / n,
        "analysis.domination_check.busy_pct": pct(spans["analysis.domination_check"].busy_s),
        "analysis.subsolution_snapshot.busy_pct": pct(spans["analysis.subsolution_snapshot"].busy_s),
        "analysis.step_check.busy_pct": pct(spans["analysis.step_check"].busy_s),
        "cli.parse_config.busy_pct": pct(spans["cli.parse_config"].busy_s),
        "cli.run_experiment.self_pct": pct(spans["cli.run_experiment"].self_s),
        "cli.bytes_written": sum(p.bytes_written for p in traced) / n,
        "cli.files_written": sum(p.files_written for p in traced) / n,
        "trace.overhead_share": 100.0 * overhead,
        "process.peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def coverage(tracer, expected) -> dict:
    """Calls per hooked binding; an expected binding never called is missing."""
    report = {b: tracer.binding_calls.get(b, 0) or "missing" for b in expected}
    report.update({b: c for b, c in tracer.binding_calls.items() if b not in report})
    return report


def detail(workload, passes, environment: dict, tracer=None, traced=()) -> dict:
    run_s = [t for p in passes for t in p.run_s]
    certify_s = [t for p in passes for t in p.certify_s]
    out = {
        "workload": workload.name,
        "environment": environment,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "steps_per_pass": passes[0].steps,
        "node_steps_per_pass": passes[0].node_steps,
        "runs": len(run_s),
    }
    if len(run_s) >= 100 * TAIL_SAMPLES:
        out["run_ms_p99"] = 1e3 * statistics.quantiles(run_s, n=100)[98]
    if certify_s:
        out["certify_ms_p50"] = 1e3 * statistics.median(certify_s)
        out["certify_searches"] = len(certify_s)
    if tracer is None:
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        out["traced_pass_wall_s"] = [p.wall_s for p in traced]
        out["coverage"] = coverage(tracer, workload.expected)
        out["call_tree"] = tracer.call_tree()
    return out


def main(argv=None, workload_table=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        import workloads
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    table = workload_table if workload_table is not None else workloads.WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(table)}")
    workload = table[args.workload]

    workloads.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workloads.WORK_ROOT))
    try:
        setup_s = None if args.trace else measure_setup(workload.name, args.seed, workdir)
        inputs = workload.prepare(args.seed, workdir)
        workload.warm_up(inputs)
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced = run_passes(workload, inputs, args.seconds, tracer,
                                      workloads.HOOKS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workloads.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    passes = untraced + traced
    if args.trace:
        values, units = per_layer_metrics(tracer, traced, untraced), dict(PER_LAYER)
    else:
        values, units = end_to_end_metrics(untraced, setup_s), dict(END_TO_END)
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    for message in [e for p in passes for e in p.errors][:20]:
        print(f"check failed: {message}", file=sys.stderr)

    print(json.dumps({"detail": detail(workload, untraced, workloads.environment(), tracer, traced)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
