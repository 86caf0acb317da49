"""ibshell benchmark: end-to-end and per-layer timings, measured from outside.

    python3 perfbench/run.py --workload study|wave|snapshots --seed N \\
        --seconds S --trace 0|1

Run from the repository root. The program is imported from `src/` of the
same checkout; the run fails, printing no result, when it is not there.

A run builds `Simulation` once for each configuration the workload uses in
each of SETUP_ROUNDS rounds, half before the units and half after them
(setup_s is the sum of the per-configuration medians). It runs whole units
of the workload until the next would overrun `--seconds` (at least one).
With `--trace 0` only `Simulation.step` is timed and the last line carries
the end-to-end metrics. With `--trace 1` plain units (only steps timed)
alternate with traced ones, in which every callable named in
`trace_targets` records a span, and the last line carries the per-layer
metrics. Both print the machine block, the checks and a detail table
first, and write the same to `.perfbench_out/` in the checkout.

The last line is one JSON object: correct, attempted and failed count the
output checks (checks_failed = failed / attempted), metrics maps each
metric name to its value and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_ROUNDS = 12
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: (name, unit, better, bound); BENCHMARK.json lists the same.
#: On a shared 2-core host, load from other tenants slows a step by up to
#: 1.5x for seconds to minutes at a time. Over ten runs that spread wall_s,
#: the step median and the fastest step by up to 28%, 33% and 36% of their
#: medians, the tail step at the workload's largest N by at most 19%, so the
#: tail alone is bounded. The others are printed per N beside it.
END_TO_END = [
    ("step_ms_tail", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
#: (name, unit, better); stage times are medians per step at the workload's
#: largest N, set-up times medians per call at that N, io and loop times
#: totals per unit
PER_LAYER = [
    ("geometry.build_ms", "ms", "lower"),
    ("shell.coefficients_ms", "ms", "lower"),
    ("fluid.solver_init_ms", "ms", "lower"),
    ("simulation.init_self_ms", "ms", "lower"),
    ("shell.force_ms", "ms", "lower"),
    ("shell.decompose_ms", "ms", "lower"),
    ("simulation.clamp_ms", "ms", "lower"),
    ("coupling.spread_ms", "ms", "lower"),
    ("coupling.interp_ms", "ms", "lower"),
    ("fluid.step_ms", "ms", "lower"),
    ("fluid.advection_ms", "ms", "lower"),
    ("simulation.step_self_ms", "ms", "lower"),
    ("coupling.nodes", "count", "lower"),
    ("simulation.steps", "count", "lower"),
    ("simulation.instability_errors", "count", "lower"),
    ("fluid.pressure_reads_per_solve", "ratio", "lower"),
    ("io.write_ms", "ms", "lower"),
    ("io.read_ms", "ms", "lower"),
    ("io.snapshots", "count", "lower"),
    ("io.snapshot_mb", "MB", "lower"),
    ("harness.samples", "count", "lower"),
    ("loop.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]
#: per-step span name behind each stage metric
STAGES = {
    "shell.force_ms": "shell.force",
    "shell.decompose_ms": "shell.decompose",
    "simulation.clamp_ms": "simulation.clamp",
    "coupling.spread_ms": "coupling.spread",
    "coupling.interp_ms": "coupling.interp",
    "fluid.step_ms": "fluid.step",
    "fluid.advection_ms": "fluid.advection",
    "simulation.step_self_ms": "simulation.step",
}
SETUP_STAGES = {
    "geometry.build_ms": "geometry.build",
    "shell.coefficients_ms": "shell.coefficients",
    "fluid.solver_init_ms": "fluid.solver_init",
    "simulation.init_self_ms": "simulation.init",
}
#: the span that owns each workload's step loop
LOOP_SPANS = ("harness.study", "harness.wave", "cli.run")


def pin_threads() -> dict:
    """Hold the BLAS/OpenMP thread counts at <= nproc (1 unless set)."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, "1"))
        except ValueError:
            n = 1
        os.environ[var] = str(min(max(n, 1), nproc))
    return {var: os.environ[var] for var in THREAD_VARS}


def import_program():
    """Import ibshell from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ibshell
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ibshell from {src}: {exc}")
    if Path(ibshell.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: ibshell resolved outside {src}")
    return ibshell


def trace_targets(full: bool):
    """(owner, attribute, span name, tag) at the names callers look up.

    `simulation` imported its stage functions by name, so they are wrapped
    in that module: wrapping `ibshell.coupling.spread_force` would miss them.
    """
    import ibshell.cli as cli
    import ibshell.fluid as fluid
    import ibshell.harness as harness
    import ibshell.io as io
    import ibshell.simulation as sim

    sim_n = lambda args: args[0].cfg.N  # noqa: E731
    step = (sim.Simulation, "step", "simulation.step", sim_n)
    if not full:
        return [step]
    return [
        step,
        (sim.Simulation, "__init__", "simulation.init", lambda a: a[1].N),
        (sim.Simulation, "omega", "simulation.omega", sim_n),
        (sim, "compute_force", "shell.force", None),
        (sim, "decompose_displacement", "shell.decompose", None),
        (sim, "clamp_force", "simulation.clamp", None),
        (sim, "spread_force", "coupling.spread", None),
        (sim, "interpolate_velocity", "coupling.interp", None),
        (sim, "build_geometry", "geometry.build", None),
        (sim, "compute_coefficients", "shell.coefficients", None),
        (fluid.FluidSolver, "__init__", "fluid.solver_init", lambda a: a[1].N),
        (fluid.FluidSolver, "step", "fluid.step", None),
        (fluid, "upwind_advection", "fluid.advection", None),
        (harness, "run_convergence_study", "harness.study", None),
        (harness, "run_traveling_wave", "harness.wave", None),
        (harness, "restrict_to_common_grid", "harness.sample", None),
        (harness, "convergence_rates", "harness.rates", None),
        (harness, "write_csv", "io.write_csv", None),
        (io, "read_csv", "io.read_csv", None),
        (io, "write_snapshot", "io.write_snapshot", None),
        (io, "read_snapshot", "io.read_snapshot", None),
        (io, "write_displacement_map", "io.write_graymap", None),
        (io, "read_displacement_map", "io.read_graymap", None),
        (cli, "main", "cli.main", None),
        (cli, "_cmd_run", "cli.run", None),
        (cli, "_cmd_render", "cli.render", None),
    ]


@dataclass
class Unit:
    run: str
    traced: bool
    wall_s: float
    checks: list
    info: dict


def build_rounds(wl, tracer, targets, rounds, times):
    """Build every configuration of the workload once per round."""
    from ibshell.simulation import Simulation

    tracer.run = "setup"
    with tracer.patched(targets):
        for _ in range(rounds):
            for i, cfg in enumerate(wl.configs()):
                t0 = time.perf_counter()
                sim = Simulation(cfg)
                times[i].append(time.perf_counter() - t0)
                del sim


def run_unit(wl, tracer, targets, traced, work, index) -> Unit:
    run = f"unit-{index}"
    tracer.run = run
    work.mkdir(parents=True)
    try:
        with tracer.patched(targets):
            t0 = time.perf_counter()
            checks, info = wl.run(work)
            wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return Unit(run, traced, wall, checks, info)


def tail(samples, per_unit):
    """Highest percentile with >= 10 samples of a unit beyond it."""
    import numpy as np

    q = 100.0 * (1.0 - 10.0 / per_unit) if per_unit > 20 else 50.0
    return float(np.percentile(samples, q, method="lower")), q


def end_to_end(wl, tracer, units, setup_s):
    """Metrics a user sees, from the untraced units; plus per-N detail."""
    runs = {u.run for u in units if not u.traced}
    steps = defaultdict(list)
    for s in tracer.spans:
        if s.name == "simulation.step" and s.run in runs:
            steps[s.tag].append(s.seconds * 1e3)
    metrics, detail = {}, {}
    for N in sorted(steps):
        xs = steps[N]
        per_unit = len(xs) / len(runs)
        value, q = tail(xs, per_unit)
        detail[f"step_ms_min.n{N}"] = min(xs)
        detail[f"step_ms_p50.n{N}"] = statistics.median(xs)
        detail[f"step_ms_tail.n{N}"] = value
        detail[f"step_ms_tail.n{N}.note"] = f"p{q:g} of {len(xs)} steps"
    top_n, _ = wl.top()
    detail["wall_s"] = statistics.median(u.wall_s for u in units if not u.traced)
    metrics["step_ms_tail"] = detail[f"step_ms_tail.n{top_n}"]
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    )
    return metrics, detail


def per_layer(wl, tracer, units):
    """Per-layer metrics from the traced units and the traced set-up."""
    traced = [u for u in units if u.traced]
    runs = {u.run for u in traced}
    spans, selfs = tracer.spans, tracer.self_seconds()
    top_n, _ = wl.top()
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731

    calls = defaultdict(list)        # (name, N) -> self ms per call
    totals = defaultdict(list)       # (name, N) -> whole-span ms per call
    per_unit = defaultdict(float)    # (run, name) -> self ms
    unit_total = defaultdict(float)  # (run, name) -> whole-span ms
    counts = Counter()               # (run, name) -> calls
    errors = Counter()               # run -> InstabilityError spans
    for s, own in zip(spans, selfs):
        if s.run not in runs and s.run != "setup":
            continue
        calls[(s.name, s.tag)].append(own * 1e3)
        totals[(s.name, s.tag)].append(s.seconds * 1e3)
        per_unit[(s.run, s.name)] += own * 1e3
        unit_total[(s.run, s.name)] += s.seconds * 1e3
        counts[(s.run, s.name)] += 1
        if s.error == "InstabilityError":
            errors[s.run] += 1

    rows = tracer.per_step(runs)
    by_n = defaultdict(list)
    gap = 0.0
    for i, row in rows.items():
        by_n[spans[i].tag].append(row)
        gap = max(gap, abs(sum(row.values()) - spans[i].seconds) / spans[i].seconds)

    def unit_med(fn):
        return med([fn(u.run) for u in traced])

    def unit_sum(prefix):
        return unit_med(lambda r: sum(
            v for (run, name), v in per_unit.items()
            if run == r and name.startswith(prefix)))

    metrics, detail = {}, {"trace.partition_gap": gap}
    for N in sorted(by_n):
        for metric, name in STAGES.items():
            detail[f"{metric}.n{N}"] = med([r.get(name, 0.0) * 1e3 for r in by_n[N]])
    for N in sorted({n for (_, n) in calls if n is not None}):
        for metric, name in SETUP_STAGES.items():
            if calls[(name, N)]:
                detail[f"{metric}.n{N}"] = med(calls[(name, N)])
    for metric in STAGES:
        metrics[metric] = detail.get(f"{metric}.n{top_n}", 0.0)
    for metric in SETUP_STAGES:
        metrics[metric] = detail.get(f"{metric}.n{top_n}", 0.0)

    top_cfg = max(wl.configs(), key=lambda c: c.N)
    metrics["coupling.nodes"] = top_cfg.n1 * top_cfg.n2
    metrics["simulation.steps"] = unit_med(lambda r: counts[(r, "simulation.step")])
    metrics["simulation.instability_errors"] = unit_med(lambda r: errors[r])
    metrics["fluid.pressure_reads_per_solve"] = unit_med(
        lambda r: counts[(r, "io.write_snapshot")]
        / max(1, counts[(r, "fluid.step")]))
    metrics["io.write_ms"] = unit_sum("io.write")
    metrics["io.read_ms"] = unit_sum("io.read")
    metrics["io.snapshots"] = unit_med(lambda r: counts[(r, "io.write_snapshot")])
    metrics["io.snapshot_mb"] = med(
        [u.info.get("snapshot_bytes", 0) / 1e6 for u in traced])
    metrics["harness.samples"] = unit_med(
        lambda r: counts[(r, "harness.sample")] + counts[(r, "simulation.omega")])
    metrics["loop.self_ms"] = unit_med(
        lambda r: sum(per_unit[(r, name)] for name in LOOP_SPANS))
    plain = statistics.median(u.wall_s for u in units if not u.traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(u.wall_s for u in traced) / plain - 1.0)

    # workload-specific layers: zero where a workload does not reach them
    detail["harness.sample_ms"] = med(calls[("harness.sample", None)])
    detail["harness.rates_ms"] = unit_sum("harness.rates")
    detail["harness.omega_ms"] = med(totals[("simulation.omega", top_n)])
    detail["io.write_snapshot_ms"] = med(calls[("io.write_snapshot", None)])
    detail["io.read_snapshot_ms"] = med(calls[("io.read_snapshot", None)])
    detail["cli.run_self_ms"] = unit_sum("cli.run")
    detail["cli.render_ms"] = unit_med(lambda r: unit_total[(r, "cli.render")])
    return metrics, detail


def machine_block(wl, threads) -> dict:
    """Machine, library builds, thread settings and computed working set."""
    import numpy as np
    import scipy

    from ibshell.simulation import ModelConfig

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = f"{size} (shared by cpus {shared})"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    top_n, _ = wl.top()
    cfg = max(wl.configs(), key=lambda c: c.N)
    n_params = len(fields(ModelConfig))
    snapshot = (4 + 16 + 16 + 4 + 32 * n_params + 8 * cfg.n1 * cfg.n2 * 3
                + 8 * 4 * top_n**3)
    writes = wl.name == "snapshots"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": threads,
        "caches_per_core": caches or "unknown",
        "working_set_computed": {
            "N": top_n,
            "velocity_bytes": 3 * top_n**3 * 8,
            "snapshot_bytes": snapshot if writes else 0,
        },
    }


def bench(wl, seconds, trace, setup_rounds=SETUP_ROUNDS):
    """One benchmark run of workload `wl`: result object, report, spans."""
    from tracer import Tracer

    tracer = Tracer()
    light, full = trace_targets(False), trace_targets(True)
    work = WORK_DIR / f"{wl.name}-{os.getpid()}"
    setup_targets = full if trace else []
    build_times = defaultdict(list)
    build_rounds(wl, tracer, setup_targets, setup_rounds // 2, build_times)
    modes = (False, True) if trace else (False,)
    units = []
    t0 = time.perf_counter()
    while True:
        for traced in modes:
            units.append(run_unit(wl, tracer, full if traced else light,
                                  traced, work, len(units)))
        last_round = sum(u.wall_s for u in units[-len(modes):])
        if time.perf_counter() - t0 + last_round > seconds:
            break
    build_rounds(wl, tracer, setup_targets, setup_rounds - setup_rounds // 2,
                 build_times)
    setup_s = sum(statistics.median(t) for t in build_times.values())

    if trace:
        metrics, detail = per_layer(wl, tracer, units)
        specs = PER_LAYER
    else:
        metrics, detail = end_to_end(wl, tracer, units, setup_s)
        specs = END_TO_END
    checks = [c for u in units for c in u.checks]
    failed = sum(not c.passed for c in checks)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in specs},
    }
    report = {
        "workload": wl.name, "trace": trace,
        "units": [(u.run, u.traced, u.wall_s) for u in units],
        "checks": [(u.run, c.name, c.passed, c.detail)
                   for u in units for c in u.checks],
        "checks_failed": failed / len(checks),
        "detail": detail,
    }
    return result, report, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("study", "wave", "snapshots"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads = pin_threads()
    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    machine = machine_block(wl, threads)
    print("# machine " + json.dumps(machine))
    result, report, tracer = bench(wl, args.seconds, bool(args.trace))
    report["seed"] = args.seed
    report["machine"] = machine
    for run, name, passed, detail in report["checks"]:
        print(f"# check {run} [{'PASS' if passed else 'FAIL'}] {name}"
              + (f": {detail}" if detail else ""))
    print(f"# checks_failed {report['checks_failed']:g} "
          f"({result['failed']} of {result['attempted']})")
    for run, traced, wall in report["units"]:
        print(f"# unit {run} {'traced' if traced else 'untraced'} {wall:.3f} s")
    for name, value in report["detail"].items():
        print(f"# detail {name} = {value}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report["result"] = result
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
