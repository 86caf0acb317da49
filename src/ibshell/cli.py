"""Command-line entry point.

Subcommands:

  run             advance the model problem and write snapshots
  study           grid-refinement convergence study with CSV reports
  plate-check     flat-limit equivalences of the force operator
  kernel-check    delta-kernel invariants
  geometry-check  convergence order of the discrete surface geometry
  render          displacement graymap (PGM) from a snapshot file

Check subcommands print one line per assertion and exit nonzero when any
fails.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, io
from .geometry import build_geometry
from .shell import decompose_displacement
from .simulation import InstabilityError, ModelConfig, Simulation, build_model_shell


@contextlib.contextmanager
def _reading(source: str):
    """An error met while reading an input becomes a usage error naming it."""
    try:
        yield
    except (OSError, ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentError(None, f"{source}: {exc}") from exc


def _load_config(args) -> ModelConfig:
    with _reading("--config"):
        return ModelConfig.from_file(args.config) if args.config else ModelConfig()


def _out_dir(args) -> Path:
    """The --out directory, made up front so a bad one stops the command
    before any step is run."""
    out = Path(args.out)
    with _reading("--out"):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if args.n is not None:
        with _reading("--n"):
            cfg = cfg.with_resolution(args.n, cfg.dt)
    if args.dt is not None:
        with _reading("--dt"):
            cfg = replace(cfg, dt=args.dt)
    steps = args.steps if args.steps is not None else int(round(cfg.T0 / cfg.dt))
    out = _out_dir(args)
    sim = Simulation(cfg)
    params = io.config_param_block(cfg)
    cadence = cfg.snapshot_every
    written = []

    def snap(tag):
        path = out / f"snapshot_{tag}.ibsh"
        io.write_snapshot(path, sim.X, sim.u, sim.p, sim.t, cfg.dt, params)
        written.append(path)

    for k in range(cadence, steps + 1, cadence) if cadence > 0 else ():
        sim.run(k - sim.step_count)
        snap(f"{k:06d}")
    sim.run(steps - sim.step_count)
    snap("final")
    drift = np.abs(sim.X - sim.grid.X0).max()
    print(f"ran {steps} steps to t = {sim.t:.6e} s on N = {cfg.N}; "
          f"max |X - X0| = {drift:.3e} cm")
    for p in written:
        print(f"wrote {p}")
    return 0


def nonnegative_int(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _parse_ladder(text, cast):
    return tuple(cast(tok) for tok in text.split(",") if tok.strip())


def _cmd_study(args) -> int:
    base = _load_config(args)
    with _reading("--n"):
        N_list = _parse_ladder(args.n, int) if args.n else harness.STUDY_N
        dt_list = tuple(harness.STUDY_DT_SCALE / N for N in N_list)
    if args.dt:
        with _reading("--dt"):
            dt_list = _parse_ladder(args.dt, float)
    with _reading("--n/--dt ladder"):
        harness.study_configs(base, N_list, dt_list)
    _out_dir(args)
    study = harness.run_convergence_study(
        base, N_list=N_list, dt_list=dt_list, out_dir=args.out,
        progress=lambda rec: print(
            f"run {rec.label}: {len(rec.times)} samples, "
            f"{rec.wall_seconds:.1f} s wall"
        ),
    )
    for fine, mid, coarse, p, r in study.rates():
        if args.norm in (None, p):
            print(f"rate L{p}: {r:.4f}   ({fine} | {mid} | {coarse})")
    for path in study.csv_paths:
        print(f"wrote {path}")
    return 0


def _run_checks(results) -> int:
    ok = True
    for r in results:
        print(r.line())
        ok = ok and r.passed
    return 0 if ok else 1


def _cmd_render(args) -> int:
    if args.vmax is not None and not 0.0 < args.vmax < np.inf:
        raise argparse.ArgumentError(
            None, f"--vmax: must be positive and finite, got {args.vmax!r}")
    with _reading("snapshot"):
        snap = io.read_snapshot(args.snapshot)  # its errors name the file
    with _reading(f"snapshot: {args.snapshot}"):
        cfg = io.params_to_config(snap.params)
    geom = build_geometry(build_model_shell(cfg))
    omega = decompose_displacement(snap.X, geom).omega
    out = Path(args.out) if args.out else Path(args.snapshot).with_suffix(".pgm")
    with _reading("--out"):
        io.write_displacement_map(omega, out, vmax=args.vmax)
    print(f"wrote {out} ({omega.shape[0]}x{omega.shape[1]}, "
          f"max |omega| = {np.abs(omega).max():.3e} cm)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ibshell", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="advance the model problem")
    run.add_argument("--config", help="flat key=value config file")
    run.add_argument("--out", default="out", help="snapshot directory")
    run.add_argument("--n", type=int, help="fluid grid points per side")
    run.add_argument("--dt", type=float, help="time step (s)")
    run.add_argument("--steps", type=nonnegative_int,
                     help="step count (default T0/dt)")
    run.set_defaults(func=_cmd_run)

    study = sub.add_parser("study", help="grid-refinement convergence study")
    study.add_argument("--config", help="flat key=value config file")
    study.add_argument("--out", default="study_out", help="CSV directory")
    study.add_argument("--n", help="comma-separated N ladder (default 16,32,64)")
    study.add_argument("--dt", help="comma-separated dt ladder "
                       f"(default {harness.STUDY_DT_SCALE:g}/N)")
    study.add_argument("--norm", choices=["1", "2", "inf"],
                       help="print only this norm's rates")
    study.set_defaults(func=_cmd_study)

    for name, fn in (
        ("plate-check", harness.plate_check),
        ("kernel-check", harness.kernel_check),
        ("geometry-check", harness.geometry_check),
    ):
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')}")
        p.set_defaults(func=lambda args, fn=fn: _run_checks(fn()))

    render = sub.add_parser("render", help="graymap of a snapshot's displacement")
    render.add_argument("snapshot", help="snapshot file")
    render.add_argument("--out", help="output PGM path (default beside input)")
    render.add_argument("--vmax", type=float,
                        help="gray scale saturates at this |omega| (> 0)")
    render.set_defaults(func=_cmd_render)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))  # exits with status 2
    except (InstabilityError, OSError) as exc:  # failed once started
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
