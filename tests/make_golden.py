"""Regenerate the golden trajectory and the gate's recorded bits in
tests/golden/.

    PYTHONPATH=src python tests/make_golden.py

`test_golden.py` and `test_acceptance.py` hold every later build to these
numbers, so only a change meant to move them runs this script (it takes the
gate's two long runs, about a minute), and says so in CHANGES.md.

For each run (N, steps) and each thickness closure the file holds X after
the run, and SHA-256 digests of u, p, the ten coefficient fields and the
geometry's g, ginv, b, Gamma and gradb. The geometry's digests are taken
from `build_geometry(sim.grid)`, since a `Simulation` releases g, ginv, b
and gradb once its coefficients are built. Each digest is taken over the
C-ordered bytes of the field's lattice-first (n1, n2, ...) view, so it does
not depend on how the field is stored. For X - X0, u, p and the coefficient
fields it also holds a summary (`summary`) that another build can be held
to: the largest magnitude, the root mean square and SAMPLES values at fixed
positions of the same view. The file also records the numpy and
scipy versions and the SIMD extensions numpy found at runtime, since the
summation kernels, and with them the last bits, depend on all three.

`gate.npz` holds the acceptance gate's two long runs, the convergence study
and the traveling wave, as `test_acceptance.py` runs them: the digest of
each study record's sampled X, the two convergence rates, and the wave's
centerline omega with its digest, beside the same build record.
"""

import hashlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy

from ibshell.geometry import build_geometry
from ibshell.harness import convergence_rates, run_convergence_study, run_traveling_wave
from ibshell.shell import ShellCoefficients
from ibshell.simulation import ModelConfig, Simulation
from oracles import lattice_view

GOLDEN = Path(__file__).parent / "golden" / "trajectory.npz"
GATE = GOLDEN.parent / "gate.npz"

#: (N, steps) of each recorded run, at dt = 3.2e-7 / N
RUNS = ((16, 30), (32, 20), (64, 4))
CLOSURES = ("leading", "quadratic")
GEOMETRY = ("g", "ginv", "b", "Gamma", "gradb")
#: the acceptance gate's traveling wave: `run_traveling_wave(**WAVE)`
WAVE = dict(thickness_law="table", first_snapshot_step=200, snapshot_stride=200,
            n_snapshots=10)
#: the norms of the study's convergence rates
NORMS = (1, 2)
#: values at fixed positions in each summarized field (`summary`)
SAMPLES = 64


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def simd_found():
    """The SIMD extensions `np.show_runtime()` reports as found."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f])


def build_info():
    return {"numpy": np.__version__, "scipy": scipy.__version__, "simd": simd_found()}


def recorded_build(data):
    """The build record of a recorded file's `data`."""
    return {k: str(data[f"build.{k}"]) for k in build_info()}


def key(N, closure):
    return f"N{N}-{closure}"


def summary(a):
    """The largest magnitude, the root mean square and SAMPLES values of a,
    at flat positions of its C order spread by a multiplicative hash."""
    flat = np.ascontiguousarray(a).reshape(-1)
    picks = np.arange(SAMPLES) * 2654435761 % flat.size
    return {"max": np.abs(flat).max(), "rms": np.sqrt(np.mean(flat**2)),
            "sample": flat[picks]}


def run(N, steps, closure):
    """X after the run, the digest of every recorded field, and the summary
    of X - X0, u, p and each coefficient field."""
    sim = Simulation(ModelConfig(N=N, dt=3.2e-7 / N, coefficients_order=closure))
    coeff = {f.name: lattice_view(getattr(sim.coeff, f.name))
             for f in fields(ShellCoefficients)}
    geom = build_geometry(sim.grid)
    digests = {name: digest(a) for name, a in coeff.items()}
    digests.update((name, digest(lattice_view(getattr(geom, name))))
                   for name in GEOMETRY)
    summaries = {name: summary(a) for name, a in coeff.items()}
    sim.run(steps)
    digests.update(u=digest(sim.u), p=digest(sim.p))
    summaries.update({"X-X0": summary(sim.X - sim.grid.X0), "u": summary(sim.u),
                      "p": summary(sim.p)})
    return sim.X, digests, summaries


def record():
    data = {f"build.{k}": np.str_(v) for k, v in build_info().items()}
    for N, steps in RUNS:
        for closure in CLOSURES:
            X, digests, summaries = run(N, steps, closure)
            data[f"{key(N, closure)}.X"] = X
            for name, d in digests.items():
                data[f"{key(N, closure)}.sha256.{name}"] = np.str_(d)
            for name, values in summaries.items():
                for what, v in values.items():
                    data[f"{key(N, closure)}.{what}.{name}"] = v
    return data


def study_rates(study):
    """The study's convergence rate at each of NORMS."""
    return np.array([convergence_rates(*study.records, p) for p in NORMS])


def gate_record(study, wave):
    """What `gate.npz` holds of the gate's study and wave."""
    data = {f"build.{k}": np.str_(v) for k, v in build_info().items()}
    for i, rec in enumerate(study.records):
        data[f"study.{i}.sha256.X"] = np.str_(digest(rec.X))
    data["study.rates"] = study_rates(study)
    data["wave.omega"] = wave.omega
    data["wave.sha256.omega"] = np.str_(digest(wave.omega))
    return data


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **record())
    print(f"wrote {GOLDEN}")
    np.savez_compressed(GATE, **gate_record(run_convergence_study(),
                                            run_traveling_wave(**WAVE)))
    print(f"wrote {GATE}")
