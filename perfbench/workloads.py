"""The benchmark's workloads: inputs, one timed pass, and the output checks.

Every call into the program goes through a module attribute looked up at
call time (``cli.run_experiment``, ``driver.run``,
``analysis.certificate_search``), so that the hooks in ``HOOKS`` see it
when a pass is traced.  Checks run after a pass's clock has stopped.

Run ``python3 perfbench/run.py --help`` for the command line; README.md in
this directory explains the choice of workloads.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Scratch space for the files a workload writes; removed after each run.
WORK_ROOT = ROOT / ".bench_work"

if not (SRC / "blowup1d" / "__init__.py").is_file():
    raise ImportError(f"program source not found: {SRC / 'blowup1d'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import blowup1d  # noqa: E402
from blowup1d import analysis, cli, driver, hyperbolic, mesh, parabolic, testing  # noqa: E402

if Path(blowup1d.__file__).resolve().parent != SRC / "blowup1d":
    raise ImportError(f"blowup1d was imported from {blowup1d.__file__}, not from {SRC}")

from tracing import Hook  # noqa: E402

# Relative agreement required with the recorded reference values.
REFERENCE_RTOL = 1e-12

# Values recorded by make_reference.py from the code the benchmark was
# introduced with.
REFERENCE = (json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
             if REFERENCE_PATH.is_file() else {})


@dataclass
class PassResult:
    """What one pass did.  ``wall_s`` covers the ops only, not the checks."""

    wall_s: float
    steps: int = 0
    node_steps: int = 0
    run_s: list[float] = field(default_factory=list)
    certify_s: list[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    files_written: int = 0
    bytes_written: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def _node_steps(h: float, supports) -> int:
    """Grid nodes summed over accepted steps, from the per-step supports
    ``(s_minus, s_plus)``."""
    return sum(mesh.regrid(float(a), float(b), h).num_nodes for a, b in supports)


def _trace_supports(trace):
    return ((r.s_minus, r.s_plus) for r in trace.reports)


def _rel_gap(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _error_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# --------------------------------------------------------------------------
# hat_blowup: the standard run, as `blowup1d run <config>` performs it.

HAT_CONFIG = """\
m = 1.0
p = 1.5
s0 = 1.0
n = {n}
t_end = 50.0
initial = hat
strict = true
# blow-up threshold: the default, 1e6 times the initial sup
snapshot_times = 0, 1, 2, 3, 4
output_dir = {output_dir}
"""


class HatBlowup:
    name = "hat_blowup"
    expected = (
        "cli.parse_config", "cli.run_experiment", "cli.run",
        "driver.advance", "driver.compute_slopes", "driver.hopf_lax_step",
        "driver.parabolic_step", "hyperbolic.compute_slopes", "hyperbolic.regrid",
        "parabolic.assemble", "parabolic.solve",
    )

    def __init__(self, n: int = 20) -> None:
        self.n = n

    def prepare(self, seed: int, workdir: Path) -> dict:
        # One run with fixed inputs: the seed has nothing to vary.
        outdir = workdir / self.name
        return {"outdir": outdir,
                "config": HAT_CONFIG.format(n=self.n, output_dir=outdir)}

    def warm_up(self, inputs: dict) -> None:
        cfg = cli.parse_config(inputs["config"])
        driver.advance(cli.build_initial_field(cfg), cfg.scheme_params())

    def run_pass(self, inputs: dict) -> PassResult:
        outdir = inputs["outdir"]
        shutil.rmtree(outdir, ignore_errors=True)
        error = None
        start = time.perf_counter()
        try:
            code, _ = cli.run_experiment(cli.parse_config(inputs["config"]))
        except Exception as exc:  # one failed op; the benchmark reports it
            error = _error_text(exc)
        wall = time.perf_counter() - start

        res = PassResult(wall_s=wall, run_s=[wall], ops=1)
        if error is None and code != cli.EXIT_OK:
            error = f"run exited with code {code}"
        if error is None:
            try:
                error = self._check(outdir, res)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {_error_text(exc)}"
        if error is not None:
            res.fail(f"{self.name}: {error}")
        return res

    def _check(self, outdir: Path, res: PassResult) -> str | None:
        files = [p for p in outdir.iterdir() if p.is_file()]
        res.files_written = len(files)
        res.bytes_written = sum(p.stat().st_size for p in files)
        summary = dict(
            line.split(" = ", 1)
            for line in (outdir / "summary.txt").read_text(encoding="utf-8").splitlines()
        )
        table = np.loadtxt(outdir / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        res.steps = table.shape[0]
        res.node_steps = _node_steps(1.0 / self.n, table[:, 5:7])

        if summary["termination"] != "blowup":
            return f"termination {summary['termination']!r}, expected 'blowup'"
        if int(summary["monitor_violations"]) != 0:
            return f"{summary['monitor_violations']} monitor violations"
        if int(summary["steps"]) != res.steps:
            return f"summary says {summary['steps']} steps, trace.csv has {res.steps}"
        snapshots = sum(1 for p in files if p.name.startswith("snapshot_"))
        if snapshots != 5:
            return f"{snapshots} snapshot files, expected 5"
        for key, ref in REFERENCE[self.name][str(self.n)].items():
            if _rel_gap(float(summary[key]), ref) > REFERENCE_RTOL:
                return f"{key} = {summary[key]}, reference {ref!r}"
        return None


# --------------------------------------------------------------------------
# lifetime_batch: many short strict runs inside the guaranteed-lifetime window.

# Generator seed of the acceptance suite's randomized runs: the first 100
# runs of the pool are exactly the runs criteria 2-4 check.
POOL_SEED = 424242


def lifetime_pool(size: int) -> list[tuple]:
    """(field, params) pairs drawn as the acceptance suite draws them."""
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for _ in range(size):
        m = float(rng.uniform(0.5, 4.0))
        p = float(1.0 + rng.uniform(0.1, 0.9) * m)
        q = (p - 1.0) / m
        fld = testing.random_field(rng, 8, 48)
        sup = fld.sup_norm()
        t1 = np.inf if sup == 0.0 else 1.0 / (m * q * sup**q)
        horizon = float(rng.uniform(0.3, 0.7)) * (t1 if np.isfinite(t1) else 1.0)
        pool.append((fld, driver.SchemeParams(m=m, p=p, t_end=horizon, strict=True)))
    return pool


class LifetimeBatch:
    name = "lifetime_batch"
    expected = (
        "driver.run", "driver.advance", "driver.compute_slopes",
        "driver.hopf_lax_step", "driver.parabolic_step",
        "hyperbolic.compute_slopes", "hyperbolic.regrid",
        "parabolic.assemble", "parabolic.solve",
    )

    def __init__(self, runs: int = 750) -> None:
        self.runs = runs

    def prepare(self, seed: int, workdir: Path) -> dict:
        # The pool is fixed and the seed only sets the order of the runs:
        # run costs are so heavy-tailed that a pool drawn per seed would
        # change a pass's cost between seeds by more than any bound.
        order = np.random.default_rng(seed).permutation(self.runs)
        return {"pool": lifetime_pool(self.runs), "order": [int(i) for i in order]}

    def warm_up(self, inputs: dict) -> None:
        fld, params = inputs["pool"][0]
        driver.advance(fld, params)

    def run_pass(self, inputs: dict) -> PassResult:
        pool, order = inputs["pool"], inputs["order"]
        traces, latencies = [], []
        start = time.perf_counter()
        for i in order:
            t0 = time.perf_counter()
            try:
                traces.append(driver.run(*pool[i]))
            except Exception as exc:  # one failed op; the benchmark reports it
                traces.append(_error_text(exc))
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start

        res = PassResult(wall_s=wall, run_s=latencies, ops=len(order))
        ref = REFERENCE[self.name]
        for i, trace in zip(order, traces):
            error = trace if isinstance(trace, str) else self._check(trace, ref, i)
            if error is not None:
                res.fail(f"{self.name} run {i}: {error}")
            if not isinstance(trace, str):
                res.steps += len(trace.reports)
                res.node_steps += _node_steps(pool[i][0].grid.h, _trace_supports(trace))
        return res

    @staticmethod
    def _check(trace, ref: dict, i: int) -> str | None:
        if trace.cause != "horizon":
            return f"cause {trace.cause!r}, expected 'horizon'"
        if trace.violation_count != 0:
            return f"{trace.violation_count} monitor violations"
        if len(trace.reports) != ref["steps"][i]:
            return f"{len(trace.reports)} steps, reference {ref['steps'][i]}"
        sup, ref_sup = trace.final_field.sup_norm(), ref["final_sup"][i]
        if _rel_gap(sup, ref_sup) > REFERENCE_RTOL:
            return f"final sup {sup!r}, reference {ref_sup!r}"
        return None


# --------------------------------------------------------------------------
# certify_dominate: the acceptance suite's criterion-7 matrix.

def _hat(n: int, peak: float = 1.0, width: float = 1.0):
    g = mesh.build_initial_grid(1.0, n)
    return mesh.NodalField(g, peak * np.maximum(0.0, 1.0 - np.abs(g.nodes()) / width))


def _cap(n: int, peak: float = 1.0):
    g = mesh.build_initial_grid(1.0, n)
    return mesh.NodalField(g, peak * np.maximum(0.0, 1.0 - g.nodes() ** 2))


# Threshold as a multiple of the initial sup.  Criterion 7 runs to 1e4; at
# 1e2 the 24 cases take 4 s instead of 55 s, which fits a pass in
# the benchmark's run length, and all 24 still certify.
CERTIFY_THRESHOLD = 1e2

PHI_TOL = -1e-12


def certify_cases() -> list[tuple]:
    """(m, p, field, ratio_scale) for 3 (m, p) x 4 fields x 2 ratio scales."""
    cases = []
    for m, p in ((1.0, 1.5), (2.0, 2.2), (1.0, 1.3)):
        for fld in (_hat(28), _hat(28, peak=0.7), _cap(28, peak=1.2), _hat(36, width=0.8)):
            for ratio_scale in (1.0, 2.0):
                cases.append((m, p, fld, ratio_scale))
    return cases


def check_step(state: dict, sub_params, q: float, h: float, fld, report) -> None:
    """Per-step verification of a certified run (as demos/certificate.py)."""
    sub = analysis.subsolution_snapshot(sub_params, report.t, h)
    if not analysis.domination_check(sub, fld):
        state["dominated"] = False
    a, b, c = analysis.phi_coefficients(sub_params, report.t - report.dt, report.dt)
    if analysis.phi_min_value(a, b, c, sub_params.lam, q) < PHI_TOL:
        state["phi_ok"] = False


class CertifyDominate:
    name = "certify_dominate"
    expected = (
        "analysis.certificate_search", "analysis.find_plateau",
        "analysis.feasibility", "analysis.domination_check",
        "analysis.subsolution_snapshot", "workloads.check_step",
        "driver.run", "driver.advance", "driver.compute_slopes",
        "driver.hopf_lax_step", "driver.parabolic_step",
        "hyperbolic.compute_slopes", "hyperbolic.regrid",
        "parabolic.assemble", "parabolic.solve",
    )

    def __init__(self, cases: int = 24) -> None:
        self.cases = cases

    def prepare(self, seed: int, workdir: Path) -> dict:
        # Fixed matrix; the seed sets the order in which the cases run.
        order = np.random.default_rng(seed).permutation(self.cases)
        return {"cases": certify_cases()[:self.cases], "order": [int(i) for i in order]}

    def warm_up(self, inputs: dict) -> None:
        m, p, fld, _ = inputs["cases"][0]
        driver.advance(fld, driver.SchemeParams(m=m, p=p, t_end=1.0))

    def run_pass(self, inputs: dict) -> PassResult:
        cases, order = inputs["cases"], inputs["order"]
        outcomes = []
        certify_s, run_s = [], []
        start = time.perf_counter()
        for i in order:
            m, p, fld, ratio_scale = cases[i]
            q = (p - 1.0) / m
            threshold = CERTIFY_THRESHOLD * fld.sup_norm()
            state = {"dominated": True, "phi_ok": True}
            t0 = time.perf_counter()
            try:
                search = analysis.certificate_search(
                    fld, m, q, blowup_threshold=threshold, ratio_scale=ratio_scale)
            except Exception as exc:  # one failed op; the benchmark reports it
                search = _error_text(exc)
            t1 = time.perf_counter()
            certify_s.append(t1 - t0)
            if isinstance(search, str) or not search.found:
                outcomes.append((search, None, state))
                continue
            cert = search.certificate
            sub_params, h = cert.params, fld.grid.h
            params = driver.SchemeParams(m=m, p=p, t_end=1.01 * cert.t_star,
                                         blowup_threshold=threshold, strict=True)
            try:
                trace = driver.run(fld, params, observer=lambda _, f, r: check_step(
                    state, sub_params, q, h, f, r))
            except Exception as exc:  # one failed op; the benchmark reports it
                trace = _error_text(exc)
            run_s.append(time.perf_counter() - t1)
            outcomes.append((search, trace, state))
        wall = time.perf_counter() - start

        res = PassResult(wall_s=wall, run_s=run_s, certify_s=certify_s, ops=2 * len(order))
        for i, (search, trace, state) in zip(order, outcomes):
            label = f"{self.name} case {i}"
            if isinstance(search, str):
                res.fail(f"{label}: search raised {search}")
            elif not search.found:
                res.fail(f"{label}: no certificate")
            if trace is None:
                res.fail(f"{label}: run skipped")
                continue
            error = trace if isinstance(trace, str) else self._check(
                trace, search.certificate, state)
            if error is not None:
                res.fail(f"{label}: {error}")
            if not isinstance(trace, str):
                res.steps += len(trace.reports)
                res.node_steps += _node_steps(cases[i][2].grid.h, _trace_supports(trace))
        return res

    @staticmethod
    def _check(trace, cert, state: dict) -> str | None:
        if not state["dominated"]:
            return "the run stopped dominating the subsolution"
        if not state["phi_ok"]:
            return f"Phi fell below {PHI_TOL}"
        if trace.cause != "blowup":
            return f"cause {trace.cause!r}, expected 'blowup'"
        if not trace.blowup_time <= cert.t_star:
            return f"blow-up at {trace.blowup_time} after t_star = {cert.t_star}"
        return None


WORKLOADS = {w.name: w for w in (HatBlowup(), LifetimeBatch(), CertifyDominate())}


# --------------------------------------------------------------------------
# Tracing hooks: the module attributes the program calls through.

def _count_advance(tracer, args, result) -> None:
    new_field, report = result
    tracer.count("driver.accepted_steps", 1)
    tracer.count("driver.node_steps", new_field.grid.num_nodes)
    tracer.count("mesh.new_nodes", int(report.new_node_left) + int(report.new_node_right))


def _count_solve(tracer, args, result) -> None:
    arrays = [v for v in vars(args[0]).values() if isinstance(v, np.ndarray)]
    tracer.count("parabolic.solve.nodes", result.values.size)
    tracer.count("parabolic.solve.bytes_computed",
                 result.values.nbytes + sum(a.nbytes for a in arrays))


def _count_search(tracer, args, result) -> None:
    tracer.count("analysis.certificate_search.tries", result.tries)


HOOKS = (
    Hook(driver, "run", "driver.run"),
    Hook(cli, "run", "driver.run"),
    Hook(driver, "advance", "driver.advance", _count_advance),
    Hook(driver, "compute_slopes", "hyperbolic.compute_slopes"),
    Hook(hyperbolic, "compute_slopes", "hyperbolic.compute_slopes"),
    Hook(driver, "hopf_lax_step", "hyperbolic.hopf_lax_step"),
    Hook(hyperbolic, "regrid", "mesh.regrid"),
    Hook(driver, "parabolic_step", "parabolic.parabolic_step"),
    Hook(parabolic, "assemble", "parabolic.assemble"),
    Hook(parabolic, "solve", "parabolic.solve", _count_solve),
    Hook(cli, "parse_config", "cli.parse_config"),
    Hook(cli, "run_experiment", "cli.run_experiment"),
    Hook(cli, "certificate_search", "analysis.certificate_search", _count_search),
    Hook(analysis, "certificate_search", "analysis.certificate_search", _count_search),
    Hook(analysis, "find_plateau", "analysis.find_plateau"),
    Hook(analysis, "feasibility", "analysis.feasibility"),
    Hook(analysis, "domination_check", "analysis.domination_check"),
    Hook(analysis, "subsolution_snapshot", "analysis.subsolution_snapshot"),
    Hook(sys.modules[__name__], "check_step", "analysis.step_check"),
)


def environment() -> dict:
    """What the numbers depend on besides the code: solver build and versions."""
    thomas = getattr(parabolic, "_thomas", None)
    if thomas is None:
        solver = "no _thomas kernel"
    elif hasattr(thomas, "py_func"):
        solver = "_thomas compiled by numba"
    else:
        solver = "_thomas pure-Python fallback"

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "tridiagonal_solver": solver,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "numba": version("numba"),
        "nproc": len(os.sched_getaffinity(0)),
    }
