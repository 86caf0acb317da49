"""The benchmark's workloads: inputs from a seed, one unit of work, checks.

Each workload is a closed batch job run from one process. A unit runs the
job once through the program's public entry points and returns the checks
made on its outputs. The seed only scales the impulse F_imp within +-10% of
its reference value 4e-7; the response is linear at these amplitudes, so the
checks do not move with it.

Sizes are scaled so that one unit fits a benchmark run:

- study: the N = 16/32/64 ladder over the full T0 = 2e-6 s, with dt =
  1.28e-6/N (8e-8, 4e-8, 2e-8 s; the stable pairings named beside
  `ModelConfig.k_clamp`) and 25 samples. That is 25, 50 and 100 steps. The
  default ladder (3.2e-7/N) takes 400 steps at N = 64; a shorter T0 on that
  ladder leaves the rates below the [0.8, 1.6] band.
- wave: N = 32, dt = 4e-8, ten snapshots 50 steps apart (500 steps). The
  extremum path is already monotone there; at a 20-step stride the first
  snapshots fall inside the start-up transient and it is not.
- snapshots: `ibshell run` at N = 64, dt = 2e-8, 100 steps with a snapshot
  every 10, then `ibshell render` on the final one.
"""

from __future__ import annotations

import contextlib
import io as stdio
import random
import re
from dataclasses import dataclass, replace

import numpy as np

import ibshell.cli
import ibshell.fluid
import ibshell.harness
import ibshell.io
import ibshell.simulation
from ibshell.simulation import ModelConfig

F_IMP = 4.0e-7
F_IMP_SPREAD = 0.1
RATE_BAND = (0.8, 1.6)
#: roundoff bound on max |D0.u| relative to max |u| / h (acceptance criterion 2)
DIVERGENCE_TOL = 1e-10


def impulse_for(seed: int) -> float:
    """F_imp drawn uniformly within +-10% of its reference value."""
    return F_IMP * (1.0 + F_IMP_SPREAD * random.Random(seed).uniform(-1.0, 1.0))


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


class Study:
    """harness.run_convergence_study on the N = 16/32/64 ladder, CSVs on disk."""

    name = "study"

    def __init__(self, seed, N_list=(16, 32, 64), dt_scale=1.28e-6, T0=2.0e-6,
                 n_samples=25):
        self.base = ModelConfig(T0=T0, F_imp=impulse_for(seed))
        self.N_list = tuple(N_list)
        self.dt_list = tuple(dt_scale / N for N in self.N_list)
        self.n_samples = n_samples

    def configs(self):
        return [self.base.with_resolution(N, dt)
                for N, dt in zip(self.N_list, self.dt_list)]

    def top(self):
        """Largest lattice N and the steps one unit takes at it."""
        cfg = max(self.configs(), key=lambda c: c.N)
        return cfg.N, round(cfg.T0 / cfg.dt)

    def run(self, work):
        harness = ibshell.harness
        out = work / "study"
        study = harness.run_convergence_study(
            self.base, N_list=self.N_list, dt_list=self.dt_list,
            n_samples=self.n_samples, out_dir=out,
        )
        fine, mid, coarse = study.records
        checks = []
        rates = {}
        for p in (1, 2):
            rates[p] = harness.convergence_rates(fine, mid, coarse, p)
            lo, hi = RATE_BAND
            checks.append(Check(f"r_L{p} in [{lo}, {hi}]", lo <= rates[p] <= hi,
                                f"{rates[p]:.4f}"))
        # criterion 7: on [T0/2, T0] the mean of E(t) over the last quarter
        # must not exceed the mean over the first quarter
        window = fine.times >= 0.5 * fine.T0 * (1 - 1e-12)
        for i, j in ((0, 1), (1, 2)):
            for p in (1, 2):
                E = study.relative_difference_series(i, j, p)[window]
                q = max(1, len(E) // 4)
                first, last = E[:q].mean(), E[-q:].mean()
                checks.append(Check(
                    f"E(t) shape {study.records[i].label}|"
                    f"{study.records[j].label} L{p}",
                    bool(last <= first), f"{first:.4f} -> {last:.4f}",
                ))
        header, rows = ibshell.io.read_csv(out / "study_rates.csv")
        written = {row[header.index("p")]: float(row[header.index("rate")])
                   for row in rows}
        checks.append(Check(
            "study_rates.csv holds the rates",
            written.get("1") == rates[1] and written.get("2") == rates[2],
        ))
        return checks, {}


class Wave:
    """harness.run_traveling_wave, then one graymap per snapshot."""

    name = "wave"

    def __init__(self, seed, N=32, dt=4.0e-8, stride=50, n_snapshots=10):
        self.base = ModelConfig(F_imp=impulse_for(seed))
        self.N, self.dt = N, dt
        self.stride, self.n_snapshots = stride, n_snapshots

    def configs(self):
        return [replace(self.base, N=self.N, dt=self.dt, n1=None, n2=None,
                        thickness_law="table")]

    def top(self):
        return self.N, self.stride * self.n_snapshots

    def run(self, work):
        rec = ibshell.harness.run_traveling_wave(
            N=self.N, dt=self.dt, thickness_law="table",
            first_snapshot_step=self.stride, snapshot_stride=self.stride,
            n_snapshots=self.n_snapshots, base_cfg=self.base,
        )
        out = work / "wave"
        out.mkdir(parents=True)
        vmax = float(np.abs(rec.omega_full).max())
        paths = [out / f"wave_{i:02d}.pgm" for i in range(len(rec.times))]
        for w, path in zip(rec.omega_full, paths):
            ibshell.io.write_displacement_map(w, path, vmax=vmax)

        # criterion 8: downward start, then the 21-node smoothed extremum of
        # |omega| runs monotonically toward the base over >= 10 snapshots
        w0 = rec.omega[0]
        sm = np.array([np.convolve(np.abs(w), np.ones(21) / 21, mode="same")
                       for w in rec.omega])
        path = [int(k) for k in np.argmax(sm, axis=1)]
        shapes = {ibshell.io.read_displacement_map(p).shape for p in paths}
        checks = [
            Check("mean omega at first snapshot < 0",
                  bool(w0.mean() < 0.0 and w0.min() < 0.0), f"{w0.mean():.3e}"),
            Check("extremum path monotone over >= 10 snapshots",
                  bool(np.all(np.diff(path) <= 0)) and len(path) >= 10,
                  str(path)),
            Check("graymaps are n1 x n2", shapes == {rec.omega_full.shape[1:]},
                  str(sorted(shapes))),
        ]
        return checks, {}


class Snapshots:
    """`ibshell run` with a snapshot cadence, then `ibshell render`."""

    name = "snapshots"

    def __init__(self, seed, N=64, dt=2.0e-8, steps=100, every=10):
        self.cfg = ModelConfig(N=N, dt=dt, F_imp=impulse_for(seed),
                               snapshot_every=every)
        self.steps = steps

    def configs(self):
        return [self.cfg]

    def top(self):
        return self.cfg.N, self.steps

    def run(self, work):
        cfg, cli, io = self.cfg, ibshell.cli, ibshell.io
        out = work / "snapshots"
        cfg_path = work / "snapshots.cfg"
        cfg_path.write_text(cfg.to_file_text())
        final, pgm = out / "snapshot_final.ibsh", out / "final.pgm"
        printed = stdio.StringIO()
        with contextlib.redirect_stdout(printed):
            run_code = cli.main(["run", "--config", str(cfg_path), "--out",
                                 str(out), "--steps", str(self.steps)])
            render_code = cli.main(["render", str(final), "--out", str(pgm)])

        snap = io.read_snapshot(final)
        N, h = snap.N, cfg.a / snap.N
        t_want = self.steps * cfg.dt
        n_files = len(list(out.glob("snapshot_*.ibsh")))
        n_want = self.steps // cfg.snapshot_every + 1
        div = np.abs(ibshell.fluid.divergence(snap.u, h)).max()
        div_bound = DIVERGENCE_TOL * (np.abs(snap.u).max() / h + 1e-300)
        m = re.search(r"max \|X - X0\| = (\S+) cm", printed.getvalue())
        X0 = ibshell.simulation.build_model_shell(io.params_to_config(snap.params)).X0
        drift = f"{np.abs(snap.X - X0).max():.3e}"
        img = io.read_displacement_map(pgm)
        checks = [
            Check("run and render exit 0", run_code == 0 and render_code == 0),
            Check(f"{n_want} snapshot files", n_files == n_want, str(n_files)),
            Check("final snapshot shapes and t = steps * dt",
                  snap.X.shape == (cfg.n1, cfg.n2, 3)
                  and snap.u.shape == (3, N, N, N) and snap.p.shape == (N, N, N)
                  and abs(snap.t - t_want) <= 1e-9 * t_want,
                  f"t = {snap.t!r}"),
            Check("max |D0.u| at roundoff", bool(div <= div_bound),
                  f"{div:.3e} <= {div_bound:.3e}"),
            Check("printed drift equals drift from X",
                  m is not None and m.group(1) == drift,
                  f"{m.group(1) if m else None} vs {drift}"),
            Check("graymap is n1 x n2", img.shape == (cfg.n1, cfg.n2),
                  str(img.shape)),
        ]
        return checks, {"snapshot_bytes": final.stat().st_size}


WORKLOADS = {w.name: w for w in (Study, Wave, Snapshots)}
