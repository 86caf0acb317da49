"""Experiment harness: error norms, convergence rates, and self-checks.

The grid-refinement study runs the model problem at a ladder of resolutions
with dt proportional to 1/N, samples shell positions at times common to all
runs, restricts them to the common subsampling grid, and estimates the order
of convergence from space-time norms of adjacent-run differences over the
second half of the simulated interval.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .coupling import phi
from .fluid import check_N
from .geometry import SurfaceGrid, build_geometry
from .io import write_csv
from .shell import (
    FORCE_ON_FLUID_SIGN,
    Displacement,
    MaterialParams,
    compute_coefficients,
    compute_force,
)
from .simulation import ModelConfig, Simulation, build_model_shell

#: default resolution ladder and step pairing of the desk-scale study;
#: dt = STUDY_DT_SCALE / N keeps dt proportional to 1/N and gives 400 steps
#: at N=64
STUDY_N = (16, 32, 64)
STUDY_DT_SCALE = 3.2e-7
#: samples per study run, evenly spaced over (0, T0]
STUDY_SAMPLES = 50
#: the norms every study table reports
NORMS_P = (1, 2, "inf")


# ---------------------------------------------------------------------------
# Norms, restriction, rates
# ---------------------------------------------------------------------------


def lp_norm(arr, p) -> float:
    """L^p norm over every node and component; p in {1, 2, inf}."""
    flat = np.abs(np.asarray(arr, dtype=float)).ravel()
    if p in (np.inf, "inf"):
        return float(flat.max())
    if p == 1:
        return float(flat.sum())
    if p == 2:
        return float(np.sqrt(np.sum(flat**2)))
    raise ValueError(f"p must be 1, 2 or 'inf', got {p!r}")


def restrict_to_common_grid(X, target_dims):
    """Pure subsampling of a shell field onto a coarser nested lattice.

    The k = 1..n lattice with n-1 intervals embeds a target m1 x m2 grid when
    s_i = (n_i - 1) / m_i is an integer: target node j maps to source index
    s*j (1-based). Equal dims pass through unchanged.
    """
    X = np.asarray(X)
    n1, n2 = X.shape[-3], X.shape[-2]
    m1, m2 = target_dims
    if (m1, m2) == (n1, n2):
        return X.copy()
    idx = []
    for n, m in ((n1, m1), (n2, m2)):
        s, rem = divmod(n - 1, m)
        if rem != 0 or s <= 0:
            raise ValueError(
                f"non-nested dims: cannot subsample {n1}x{n2} to {m1}x{m2}"
            )
        idx.append(s * np.arange(1, m + 1) - 1)
    return X[..., idx[0], :, :][..., idx[1], :]


def relative_difference(X1, X2, X1_initial, p) -> float:
    """E = |X1 - X2|_p / |X1 - X1_initial|_p on a shared grid."""
    denom = lp_norm(np.asarray(X1) - np.asarray(X1_initial), p)
    if denom == 0.0:
        raise ValueError(
            "relative difference undefined: the reference run has not moved"
        )
    return lp_norm(np.asarray(X1) - np.asarray(X2), p) / denom


@dataclass
class StudyRecord:
    """One run's sampled positions restricted to the common grid."""

    label: str
    N: int
    dt: float
    T0: float
    times: np.ndarray  # (S,)
    X: np.ndarray      # (S, m1, m2, 3)
    X0: np.ndarray     # (m1, m2, 3)
    wall_seconds: float = 0.0


def spacetime_norm(run1: StudyRecord, run2: StudyRecord, p) -> float:
    """Sum over the sampled times in [T0/2, T0] of |X1(t) - X2(t)|_p."""
    if run1.times.shape != run2.times.shape or not np.allclose(
        run1.times, run2.times, rtol=1e-12, atol=0.0
    ):
        raise ValueError("runs do not share their sample times")
    window = run1.times >= 0.5 * run1.T0 * (1.0 - 1e-12)
    return float(
        sum(lp_norm(run1.X[i] - run2.X[i], p) for i in np.nonzero(window)[0])
    )


def rate_from_norms(coarse_pair_norm: float, fine_pair_norm: float) -> float:
    """Order estimate log2(coarse/fine); halving errors give 1."""
    if coarse_pair_norm <= 0.0 or fine_pair_norm <= 0.0:
        raise ValueError("convergence rate needs positive norms")
    return float(np.log2(coarse_pair_norm / fine_pair_norm))


def convergence_rates(
    fine: StudyRecord, mid: StudyRecord, coarse: StudyRecord, p
) -> float:
    """Three-run order estimate at one norm (positive for convergence)."""
    return rate_from_norms(
        spacetime_norm(mid, coarse, p), spacetime_norm(fine, mid, p)
    )


# ---------------------------------------------------------------------------
# The study
# ---------------------------------------------------------------------------


@dataclass
class StudySet:
    records: list
    csv_paths: list = field(default_factory=list)

    def pair_norms(self):
        rows = []
        for fine, coarse in zip(self.records, self.records[1:]):
            for p in NORMS_P:
                rows.append(
                    (fine.label, coarse.label, str(p),
                     spacetime_norm(fine, coarse, p))
                )
        return rows

    def rates(self):
        rows = []
        for fine, mid, coarse in zip(
            self.records, self.records[1:], self.records[2:]
        ):
            for p in NORMS_P:
                rows.append(
                    (fine.label, mid.label, coarse.label, str(p),
                     convergence_rates(fine, mid, coarse, p))
                )
        return rows

    def relative_difference_series(self, i: int, j: int, p):
        """E(t) between records i (reference) and j at every sampled time."""
        fine, other = self.records[i], self.records[j]
        return np.array(
            [
                relative_difference(fine.X[k], other.X[k], fine.X0, p)
                for k in range(len(fine.times))
            ]
        )


def sample_steps(cfg: ModelConfig, n_samples: int):
    """Step indices of the common sample times t_j = j T0 / n_samples."""
    steps_total = int(round(cfg.T0 / cfg.dt))
    if abs(steps_total * cfg.dt - cfg.T0) > 1e-9 * cfg.T0:
        raise ValueError(f"T0 = {cfg.T0} is not a whole number of steps of {cfg.dt}")
    if n_samples < 1 or steps_total % n_samples != 0:
        raise ValueError(
            f"{steps_total} steps cannot be sampled {n_samples} times evenly"
        )
    stride = steps_total // n_samples
    return stride * np.arange(1, n_samples + 1)


def run_sampled(cfg: ModelConfig, n_samples: int, common_dims) -> StudyRecord:
    """Run one experiment, capturing restricted positions at the sample times."""
    steps = sample_steps(cfg, n_samples)
    sim = Simulation(cfg)
    out = []
    t0 = time.perf_counter()
    sim.run(steps[-1], [(steps, lambda s: out.append(
        restrict_to_common_grid(s.X, common_dims)))])
    return StudyRecord(
        label=f"{cfg.dt * 1e8:g}/{cfg.N}",
        N=cfg.N,
        dt=cfg.dt,
        T0=cfg.T0,
        times=steps * cfg.dt,
        X=np.stack(out),
        X0=restrict_to_common_grid(sim.grid.X0, common_dims),
        wall_seconds=time.perf_counter() - t0,
    )


def check_moves(cfg: ModelConfig):
    """ValueError when cfg's shell never moves: a study divides by its motion."""
    if cfg.F_imp == 0.0:
        raise ValueError("F_imp = 0 gives no impulse: the shell never moves, "
                         "so a study has no motion to compare")


def study_configs(base_cfg: ModelConfig, N_list, dt_list=None,
                  n_samples: int = STUDY_SAMPLES) -> list:
    """One config per rung, dt_list STUDY_DT_SCALE / N when None; ValueError
    on a bad ladder or an unsampleable rung.

    The rates are log2 of norm ratios, so the N list, finest first, must
    halve at every rung; each N is checked before any dt is formed.
    """
    if len(N_list) < 2:
        raise ValueError("a study needs at least two runs")
    for N in N_list:
        check_N(N)
    finest = sorted(N_list, reverse=True)
    if any(fine != 2 * coarse for fine, coarse in zip(finest, finest[1:])):
        raise ValueError("N must halve at every rung, finest first, got "
                         + ", ".join(map(str, finest)))
    if dt_list is None:
        dt_list = [STUDY_DT_SCALE / N for N in N_list]
    if len(N_list) != len(dt_list):
        raise ValueError("N_list and dt_list must pair up")
    cfgs = [base_cfg.with_resolution(N, dt) for N, dt in zip(N_list, dt_list)]
    for cfg in cfgs:
        sample_steps(cfg, n_samples)
    return cfgs


def run_convergence_study(
    base_cfg: ModelConfig | None = None,
    N_list=STUDY_N,
    dt_list=None,
    n_samples: int = STUDY_SAMPLES,
    out_dir=None,
    progress=None,
) -> StudySet:
    """Run the resolution ladder and assemble norms/rates tables.

    Samples n_samples times evenly over (0, T0], dt_list None taking
    STUDY_DT_SCALE / N; the space-time norms use the samples in [T0/2, T0]
    (>= 25 by default). The ladder and F_imp are checked before any rung
    runs; runs come finest first. CSV tables land in out_dir when given.
    """
    base_cfg = base_cfg or ModelConfig()
    check_moves(base_cfg)
    cfgs = study_configs(base_cfg, N_list, dt_list, n_samples)
    common = (min(c.n1 for c in cfgs) - 1, min(c.n2 for c in cfgs) - 1)
    records = []
    for cfg in sorted(cfgs, key=lambda c: -c.N):  # finest first
        rec = run_sampled(cfg, n_samples, common)
        records.append(rec)
        if progress is not None:
            progress(rec)
    study = StudySet(records=records)
    if out_dir is not None:
        study.csv_paths = write_study_csvs(study, out_dir)
    return study


def write_study_csvs(study: StudySet, out_dir) -> list:
    """study_runs.csv, study_norms.csv, study_rates.csv, study_reldiff.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reldiff = []
    for j in range(1, len(study.records)):
        for p in NORMS_P:
            series = study.relative_difference_series(j - 1, j, p)
            ref = study.records[j - 1]
            reldiff.extend(
                (ref.label, study.records[j].label, str(p), t, e)
                for t, e in zip(ref.times, series)
            )
    tables = (
        ("study_runs.csv", ["label", "N", "dt", "T0", "samples", "wall_seconds"],
         [(r.label, r.N, r.dt, r.T0, len(r.times), r.wall_seconds)
          for r in study.records]),
        ("study_norms.csv", ["fine", "coarse", "p", "spacetime_norm"],
         study.pair_norms()),
        ("study_rates.csv", ["fine", "mid", "coarse", "p", "rate"], study.rates()),
        ("study_reldiff.csv", ["fine", "coarse", "p", "t", "E"], reldiff),
    )
    for name, header, rows in tables:
        write_csv(out / name, header, rows)
    return [out / name for name, _, _ in tables]


# ---------------------------------------------------------------------------
# Traveling-wave experiment
# ---------------------------------------------------------------------------


@dataclass
class WaveRecord:
    times: np.ndarray        # (S,)
    q1: np.ndarray           # (n1,) centerline coordinate
    omega: np.ndarray        # (S, n1) centerline normal displacement
    omega_full: np.ndarray   # (S, n1, n2) full displacement fields


def run_traveling_wave(
    N: int | None = None,
    dt: float | None = None,
    thickness_law: str | None = None,
    first_snapshot_step: int = 200,
    snapshot_stride: int = 200,
    n_snapshots: int = 10,
    base_cfg: ModelConfig | None = None,
) -> WaveRecord:
    """Impulse-driven run capturing the centerline displacement profile.

    The displacement extremum migrates toward the compliant end of the
    strip. Which end that is depends on the thickness law: compliance grows
    along q1 under "exact" (weakly, ~2x over the strip) and falls along q1
    under the default "table" law (strongly), so the default produces a
    clear base-ward migration at desk-scale resolutions.

    N, dt and thickness_law override base_cfg's (default `ModelConfig()`);
    None keeps its value. A new N takes the default surface dims for it.
    """
    if min(first_snapshot_step, snapshot_stride, n_snapshots) < 1:
        raise ValueError(
            "first_snapshot_step, snapshot_stride and n_snapshots must be >= 1"
        )
    cfg = base_cfg or ModelConfig()
    if N is not None:
        cfg = cfg.with_resolution(N, cfg.dt)
    cfg = replace(cfg, dt=cfg.dt if dt is None else dt,
                  thickness_law=cfg.thickness_law if thickness_law is None
                  else thickness_law)
    sim = Simulation(cfg)
    steps = first_snapshot_step + snapshot_stride * np.arange(n_snapshots)
    omegas = []
    sim.run(steps[-1], [(steps, lambda s: omegas.append(s.omega()))])
    omega_full = np.stack(omegas)
    return WaveRecord(times=steps * cfg.dt, q1=cfg.q1_rows(),
                      omega=omega_full[:, :, cfg.n2 // 2], omega_full=omega_full)


# ---------------------------------------------------------------------------
# Self-checks (used by the CLI; the test suite asserts the same facts)
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}" + (
            f": {self.detail}" if self.detail else ""
        )


def kernel_check():
    """Kernel invariants on random points plus the frozen point values."""
    n_samples, tol = 10_000, 1e-12
    rng = np.random.default_rng(0)
    r = rng.uniform(-3.0, 3.0, size=n_samples)
    j = np.arange(-6, 7)
    vals = phi(r[:, None] - j[None, :])
    total_err = np.abs(vals.sum(axis=1) - 1.0).max()
    even_err = np.abs(vals[:, j % 2 == 0].sum(axis=1) - 0.5).max()
    odd_err = np.abs(vals[:, j % 2 == 1].sum(axis=1) - 0.5).max()
    return [
        CheckResult("phi(0) = 1/2", abs(phi(0.0) - 0.5) < tol),
        CheckResult("phi(+-1) = 1/4", abs(phi(1.0) - 0.25) < tol
                     and abs(phi(-1.0) - 0.25) < tol),
        CheckResult("phi = 0 outside |r| < 2",
                    phi(2.0) == 0.0 and phi(-2.0) == 0.0 and phi(2.7) == 0.0),
        CheckResult("sum_j phi(r - j) = 1", total_err < tol,
                    f"max err {total_err:.2e} over {n_samples} points"),
        CheckResult("even/odd sums = 1/2", even_err < tol and odd_err < tol,
                    f"max err {max(even_err, odd_err):.2e}"),
    ]


def _flat_chart_config(n: int, dq: float):
    X0 = np.zeros((n, n, 3))
    X0[..., 0] = dq * np.arange(n)[:, None]
    X0[..., 1] = dq * np.arange(n)[None, :]
    return SurfaceGrid(dq1=dq, dq2_of_row=dq, X0=X0)


def _dense_diff_matrix(n: int, d: float):
    D = np.zeros((n, n))
    D[0, 0], D[0, 1] = -1.0 / d, 1.0 / d
    D[-1, -2], D[-1, -1] = -1.0 / d, 1.0 / d
    i = np.arange(1, n - 1)
    D[i, i - 1] = -0.5 / d
    D[i, i + 1] = 0.5 / d
    return D


def plate_check():
    """Flat-chart equivalence of the general operator with the plate forms.

    The independent route composes dense hybrid-difference matrices into the
    discrete biharmonic and grad-div; the production route runs the full
    coefficient/covariant-derivative path.
    """
    n, h0, tol = 65, 1e-3, 1e-10  # a 65 x 65 flat chart, h0 in cm
    lam, mu = ModelConfig.lam, ModelConfig.mu  # the model's Lame pair
    dq = 1.0 / (n - 1)
    grid = _flat_chart_config(n, dq)
    geom = build_geometry(grid)
    mat = MaterialParams(lam=lam, mu=mu, h0=h0)
    coeff = compute_coefficients(geom, mat)
    Dcoef = 2.0 * mu * (lam + mu) / (lam + 2.0 * mu)
    Dm = _dense_diff_matrix(n, dq)

    results = []
    # coefficient flat-limit values
    eye = np.eye(2)
    c1 = lam * mu / (lam + 2.0 * mu)
    L0 = (
        c1 * np.einsum("ab,gd->abgd", eye, eye)
        + 0.5 * mu * (np.einsum("ag,bd->abgd", eye, eye)
                      + np.einsum("ad,bg->abgd", eye, eye))
    )
    L0 = L0[..., None, None]  # constant over the lattice
    abar_err = np.abs(coeff.Abar - (2.0 / 3.0) * h0**3 * L0).max() / np.abs(
        (2.0 / 3.0) * h0**3 * L0
    ).max()
    obbar_err = np.abs(coeff.Obbar - 2.0 * h0 * L0).max() / (2.0 * h0 * np.abs(L0).max())
    others = max(
        np.abs(getattr(coeff, name)).max()
        for name in ("A", "Abbar", "Phi", "Phibar", "Psi", "Psibar",
                     "Omega", "Omegabar")
    )
    results.append(CheckResult(
        "flat coefficients (Abar, Obbar exact; others zero)",
        abar_err < 1e-12 and obbar_err < 1e-12 and others == 0.0,
        f"rel err {max(abar_err, obbar_err):.2e}, spurious {others:.2e}",
    ))

    # normal component against the composed biharmonic
    q = dq * np.arange(n)
    omega = np.sin(2 * np.pi * (3 * q[:, None] + 2 * q[None, :]))
    zeros = np.zeros((2, n, n))
    f1 = compute_force(Displacement(omega, zeros), coeff, geom)
    lap = lambda w: Dm @ (Dm @ w) + (w @ Dm.T) @ Dm.T  # noqa: E731
    oracle3 = FORCE_ON_FLUID_SIGN * (2.0 / 3.0) * h0**3 * Dcoef * lap(lap(omega))
    err3 = np.abs(f1.f3 - oracle3).max() / np.abs(oracle3).max()
    results.append(CheckResult(
        "normal force = (2/3) h0^3 D biharmonic(omega)", err3 < tol,
        f"rel err {err3:.2e}",
    ))

    # tangential component on a discrete gradient field
    chi = np.cos(2 * np.pi * (2 * q[:, None] - q[None, :]))
    W = np.stack([Dm @ chi, chi @ Dm.T])
    f = compute_force(Displacement(np.zeros((n, n)), W), coeff, geom)
    divW = Dm @ W[0] + W[1] @ Dm.T
    oracle_mu = -FORCE_ON_FLUID_SIGN * 2.0 * h0 * Dcoef * np.stack(
        [Dm @ divW, divW @ Dm.T]
    )
    errmu = np.abs(f.fmu - oracle_mu).max() / np.abs(oracle_mu).max()
    results.append(CheckResult(
        "tangential force = 2 h0 D grad(div W)", errmu < tol,
        f"rel err {errmu:.2e}",
    ))

    # scaling sanity: doubling h0 scales the normal operator by 8
    coeff2 = compute_coefficients(geom, MaterialParams(lam, mu, 2 * h0))
    f2 = compute_force(Displacement(omega, zeros), coeff2, geom)
    ratio = np.abs(f2.f3).max() / np.abs(f1.f3).max()
    results.append(CheckResult(
        "normal operator scales as h0^3", abs(ratio - 8.0) < 1e-10,
        f"ratio {ratio:.12f}",
    ))
    return results


def _order_check(name, errors, floor):
    errors = np.asarray(errors)
    if errors.max() < floor:
        return CheckResult(f"{name} (exact on this chart)", True,
                           f"max err {errors.max():.2e}")
    order = float(np.min(np.log2(errors[:-1] / errors[1:])))
    return CheckResult(f"{name} order >= 1.9", order >= 1.9,
                       f"observed {order:.2f}")


def _cylinder_chart(n1: int, R=0.2, arc=0.6, height=0.2):
    """Cylinder patch on n1 x 17 nodes: grid, interior window, exact g, b, Gamma."""
    dq1, dq2 = arc / (n1 - 1), height / 16
    q1 = dq1 * np.arange(n1)
    X0 = np.empty((n1, 17, 3))
    X0[..., 0] = (R * np.cos(q1 / R))[:, None]
    X0[..., 1] = (R * np.sin(q1 / R))[:, None]
    X0[..., 2] = (dq2 * np.arange(17))[None, :]
    s = max(1, (n1 - 1) // 16)
    inner = (..., slice(2 * s, -2 * s), slice(2, -2))
    b_exact = np.zeros((2, 2, n1, 17))
    b_exact[0, 0] = 1.0 / R
    exact = {"g": np.broadcast_to(np.eye(2)[..., None, None], b_exact.shape),
             "b": b_exact,
             "Gamma": np.zeros((2, 2, 2, n1, 17))}
    return SurfaceGrid(dq1=dq1, dq2_of_row=dq2, X0=X0), inner, exact


def _sphere_chart(n: int, Rs=0.3, th0=0.7, th1=1.3, ph1=0.8):
    """Sphere patch on n x n nodes: grid, interior window, exact g, b, Gamma."""
    dq1 = Rs * (th1 - th0) / (n - 1)
    dq2 = Rs * ph1 / (n - 1)
    th = th0 + (th1 - th0) * np.arange(n) / (n - 1)
    ph = ph1 * np.arange(n) / (n - 1)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    X0 = np.stack(
        [Rs * np.sin(TH) * np.cos(PH), Rs * np.sin(TH) * np.sin(PH),
         Rs * np.cos(TH)], axis=-1)
    s = max(1, (n - 1) // 16)
    inner = (..., slice(2 * s, -2 * s), slice(2 * s, -2 * s))
    g_ex = np.zeros((2, 2, n, n))
    g_ex[0, 0] = 1.0
    g_ex[1, 1] = np.sin(TH) ** 2
    G_ex = np.zeros((2, 2, 2, n, n))
    G_ex[0, 1, 1] = -np.sin(TH) * np.cos(TH) / Rs
    G_ex[1, 0, 1] = G_ex[1, 1, 0] = 1.0 / (Rs * np.tan(TH))
    exact = {"g": g_ex, "b": g_ex / Rs, "Gamma": G_ex}
    return SurfaceGrid(dq1=dq1, dq2_of_row=dq2, X0=X0), inner, exact


def geometry_check():
    """Observed interior convergence order of g, b, Gamma on curved charts."""
    results = []
    for chart, build in (("cylinder", _cylinder_chart), ("sphere", _sphere_chart)):
        errs = {"g": [], "b": [], "Gamma": []}
        for n in (17, 33, 65):
            grid, inner, exact = build(n)
            geo = build_geometry(grid)
            for name, e in errs.items():
                e.append(np.abs(getattr(geo, name)[inner] - exact[name][inner]).max())
        for name, e in errs.items():
            results.append(_order_check(f"{chart} {name}", e, floor=1e-11))

    # helicoidal strip: frame against its closed form
    cfg0 = ModelConfig(N=16)
    errsT = []
    for n1, n2 in ((81, 7), (161, 13), (321, 25)):
        cfg = replace(cfg0, n1=n1, n2=n2)
        grid = build_model_shell(cfg)
        geom = build_geometry(grid)
        u = cfg.dq1 * np.arange(1, n1 + 1)
        c = np.arange(1, n2 + 1) / (n2 - 1)
        U, C = np.meshgrid(u, c, indexing="ij")
        ang = cfg.alpha * U
        w = cfg.w0 + (U / cfg.L_BM) * (cfg.w1 - cfg.w0)
        m = w * (C - 0.5)
        wp = (cfg.w1 - cfg.w0) / cfg.L_BM
        nh = np.stack([-np.cos(ang), -np.sin(ang), np.zeros_like(ang)])
        nhp = np.stack(
            [cfg.alpha * np.sin(ang), -cfg.alpha * np.cos(ang),
             np.zeros_like(ang)])
        gp = np.stack(
            [-cfg.R * cfg.alpha * np.sin(ang), cfg.R * cfg.alpha * np.cos(ang),
             cfg.H * cfg.alpha * np.ones_like(ang)])
        T1 = gp + (wp * (C - 0.5)) * nh + m * nhp
        # fixed physical interior window, comparable across refinements
        mu_ = (u >= 0.05) & (u <= 0.46)
        mc = (c >= 0.49) & (c <= 0.85)
        err = np.abs(geom.T[0] - T1).max(axis=0)
        errsT.append(err[np.ix_(mu_, mc)].max())
    results.append(_order_check("helicoid frame T1", errsT, floor=1e-12))
    return results
