"""Acceptance gate: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The convergence study and
the traveling-wave experiment dominate the runtime (a few minutes); both are
session-cached fixtures shared across criteria.
"""

import time

import numpy as np
import pytest

from ibshell.coupling import coupling_matrix, interpolate_velocity, phi, spread_force
from ibshell.fluid import FluidParams, FluidSolver, divergence
from ibshell.geometry import build_geometry
from ibshell.harness import (
    convergence_rates,
    run_convergence_study,
    run_traveling_wave,
)
from ibshell.shell import (
    FORCE_ON_FLUID_SIGN,
    Displacement,
    MaterialParams,
    compute_coefficients,
    compute_force,
)
from ibshell.simulation import ModelConfig, Simulation, build_model_shell

import oracles

LAM, MU = 26197503.0, 523950.0
DCOEF = 2.0 * MU * (LAM + MU) / (LAM + 2.0 * MU)


def report(criterion, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. kernel suite
# ---------------------------------------------------------------------------


def test_criterion_1_kernel_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    r = rng.uniform(-3.0, 3.0, size=10_000)
    j = np.arange(-6, 7)
    vals = phi(r[:, None] - j[None, :])
    sum_err = np.abs(vals.sum(axis=1) - 1.0).max()
    even_err = np.abs(vals[:, j % 2 == 0].sum(axis=1) - 0.5).max()
    odd_err = np.abs(vals[:, j % 2 == 1].sum(axis=1) - 0.5).max()
    points_ok = (
        abs(phi(0.0) - 0.5) < 1e-15
        and abs(phi(1.0) - 0.25) < 1e-15
        and phi(2.0) == 0.0
        and phi(-2.5) == 0.0
        and phi(7.0) == 0.0
    )
    elapsed = time.perf_counter() - t0
    report(
        "1 (kernel suite)",
        sum_err < 1e-12 and even_err < 1e-12 and odd_err < 1e-12
        and points_ok and elapsed < 1.0,
        f"max sum err {max(sum_err, even_err, odd_err):.2e}, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 2. fluid solver exactness
# ---------------------------------------------------------------------------


def test_criterion_2_fluid_solver_exactness():
    t0 = time.perf_counter()
    prm = FluidParams(N=32, a=0.1, rho=1.034, mu_f=0.0197, dt=1e-8)
    solver = FluidSolver(prm)
    rng = np.random.default_rng(7)
    h = prm.h
    worst_res, worst_div = 0.0, 0.0
    u = np.zeros((3, 32, 32, 32))
    for trial in range(100):
        F = rng.standard_normal((3, 32, 32, 32))
        adv = np.zeros_like(u)
        for k in range(3):
            ax = 1 + k
            dm = (u - np.roll(u, 1, axis=ax)) / h
            dp = (np.roll(u, -1, axis=ax) - u) / h
            adv += u[k] * np.where(u[k] >= 0.0, dm, dp)
        r = prm.rho * u / prm.dt - prm.rho * adv + F
        u_new, p_new = solver.step(u, F)
        # physical-space residual of the implicit system (test-local stencils)
        visc = np.zeros_like(u_new)
        for k in range(3):
            ax = 1 + k
            visc += (
                np.roll(u_new, -1, axis=ax) - 2 * u_new + np.roll(u_new, 1, axis=ax)
            ) / h**2
        gradp = np.stack(
            [(np.roll(p_new, -1, axis=k) - np.roll(p_new, 1, axis=k)) / (2 * h)
             for k in range(3)]
        )
        res = prm.rho * u_new / prm.dt + gradp - prm.mu_f * visc - r
        worst_res = max(worst_res, np.abs(res).max() / np.abs(r).max())
        div = np.abs(divergence(u_new, h)).max()
        worst_div = max(worst_div, div / (np.abs(u_new).max() / h))
        u = u_new  # keep feeding divergence-free states through the advection
    elapsed = time.perf_counter() - t0
    report(
        "2 (fluid solver exactness)",
        worst_res <= 1e-10 and worst_div <= 1e-10 and elapsed < 10.0,
        f"max rel residual {worst_res:.2e}, max rel divergence {worst_div:.2e}, "
        f"{elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 3. plate limit
# ---------------------------------------------------------------------------


def test_criterion_3_plate_limit():
    n = 65
    dq = 1.0 / (n - 1)
    grid = oracles.flat_grid(n, n, dq1=dq, dq2=dq)
    geom = build_geometry(grid)
    h0 = 1e-3
    coeff = compute_coefficients(geom, MaterialParams(LAM, MU, h0))

    # coefficient flat-limit values, exact to 1e-12
    eye = np.eye(2)
    c1 = LAM * MU / (LAM + 2 * MU)
    L0 = (
        c1 * np.einsum("ab,gd->abgd", eye, eye)
        + 0.5 * MU * np.einsum("ag,bd->abgd", eye, eye)
        + 0.5 * MU * np.einsum("ad,bg->abgd", eye, eye)
    )
    abar_err = np.abs(coeff.Abar - (2 / 3) * h0**3 * L0).max() / (
        (2 / 3) * h0**3 * np.abs(L0).max()
    )
    obbar_err = np.abs(coeff.Obbar - 2 * h0 * L0).max() / (2 * h0 * np.abs(L0).max())
    spurious = max(
        np.abs(getattr(coeff, nm)).max()
        for nm in ("A", "Abbar", "Phi", "Phibar", "Psi", "Psibar", "Omega",
                   "Omegabar")
    )
    coeff_ok = abar_err <= 1e-12 and obbar_err <= 1e-12 and spurious == 0.0

    # normal force against the independently composed discrete biharmonic
    q = dq * np.arange(n)
    omega = np.sin(2 * np.pi * (3 * q[:, None] + 2 * q[None, :]))
    zeros = np.zeros((n, n, 2))
    f = compute_force(Displacement(omega, zeros), coeff, geom)
    oracle3 = FORCE_ON_FLUID_SIGN * (2 / 3) * h0**3 * DCOEF * oracles.biharmonic(
        omega, dq, dq
    )
    err3 = np.abs(f.f3 - oracle3).max() / np.abs(oracle3).max()

    # tangential force on a discrete gradient field vs 2 h0 D grad(div W)
    chi = np.cos(2 * np.pi * (2 * q[:, None] - q[None, :]))
    Dm = oracles.hybrid_diff_matrix(n, dq)
    W = np.stack([Dm @ chi, chi @ Dm.T], axis=-1)
    f = compute_force(Displacement(np.zeros((n, n)), W), coeff, geom)
    oracle_mu = -FORCE_ON_FLUID_SIGN * 2 * h0 * DCOEF * oracles.grad_div(W, dq, dq)
    errmu = np.abs(f.fmu - oracle_mu).max() / np.abs(oracle_mu).max()

    report(
        "3 (plate limit)",
        coeff_ok and err3 <= 1e-10 and errmu <= 1e-10,
        f"coeff rel err {max(abar_err, obbar_err):.2e}, normal {err3:.2e}, "
        f"tangential {errmu:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. geometry oracles
# ---------------------------------------------------------------------------


def _orders(errors, floor=1e-11):
    errors = np.asarray(errors, dtype=float)
    if errors.max() < floor:
        return np.inf
    return float(np.min(np.log2(errors[:-1] / errors[1:])))


def test_criterion_4_geometry_oracles():
    t0 = time.perf_counter()
    observed = {}

    # cylinder
    R = 0.2
    errs = {"g": [], "b": [], "Gamma": []}
    for n1 in (17, 33, 65):
        grid = oracles.cylinder_grid(n1, 17, R=R)
        geo = build_geometry(grid)
        g_ex, b_ex, G_ex = oracles.cylinder_exact(grid, R)
        s = max(1, (n1 - 1) // 16)
        inner = (slice(2 * s, -2 * s), slice(2, -2))
        errs["g"].append(np.abs(geo.g[inner] - g_ex[inner]).max())
        errs["b"].append(np.abs(geo.b[inner] - b_ex[inner]).max())
        errs["Gamma"].append(np.abs(geo.Gamma[inner] - G_ex[inner]).max())
    for k, e in errs.items():
        observed[f"cylinder {k}"] = _orders(e)

    # sphere patch
    R = 0.3
    errs = {"g": [], "b": [], "Gamma": []}
    for n in (17, 33, 65):
        grid, TH = oracles.sphere_grid(n, n, R=R)
        geo = build_geometry(grid)
        g_ex, b_ex, G_ex = oracles.sphere_exact(TH, R)
        s = max(1, (n - 1) // 16)
        inner = (slice(2 * s, -2 * s), slice(2 * s, -2 * s))
        errs["g"].append(np.abs(geo.g[inner] - g_ex[inner]).max())
        errs["b"].append(np.abs(geo.b[inner] - b_ex[inner]).max())
        errs["Gamma"].append(np.abs(geo.Gamma[inner] - G_ex[inner]).max())
    for k, e in errs.items():
        observed[f"sphere {k}"] = _orders(e)

    # helicoidal strip (lattice-line frame), fixed physical window
    cfg0 = ModelConfig(N=16)
    ora = oracles.HelicoidOracle(
        cfg0.R, cfg0.H, cfg0.alpha, cfg0.w0, cfg0.w1, cfg0.L_BM
    )
    errs = {"g": [], "b": [], "Gamma": []}
    from dataclasses import replace

    for n1, n2 in ((81, 7), (161, 13), (321, 25)):
        cfg = replace(cfg0, n1=n1, n2=n2)
        grid = build_model_shell(cfg)
        geo = build_geometry(grid)
        u = cfg.dq1 * np.arange(1, n1 + 1)
        c = np.arange(1, n2 + 1) / (n2 - 1)
        U, C = np.meshgrid(u, c, indexing="ij")
        sel = np.ix_((u >= 0.05) & (u <= 0.46), (c >= 0.49) & (c <= 0.85))
        errs["g"].append(np.abs(geo.g - ora.metric(U, C))[sel].max())
        errs["b"].append(np.abs(geo.b - ora.second_form(U, C))[sel].max())
        errs["Gamma"].append(np.abs(geo.Gamma - ora.christoffel(U, C))[sel].max())
    for k, e in errs.items():
        observed[f"helicoid {k}"] = _orders(e)

    elapsed = time.perf_counter() - t0
    ok = all(v >= 1.9 for v in observed.values()) and elapsed < 30.0
    detail = ", ".join(f"{k} {v:.2f}" for k, v in observed.items())
    report("4 (geometry oracles)", ok, f"{detail}; {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 5. adjointness and conservation
# ---------------------------------------------------------------------------


def test_criterion_5_adjointness_and_conservation():
    prm = FluidParams(N=32, a=0.1, rho=1.034, mu_f=0.0197, dt=1e-8)
    rng = np.random.default_rng(11)
    worst_adj, worst_cons = 0.0, 0.0
    for trial in range(5):
        M = 300
        X = rng.uniform(-0.02, 0.14, size=(1, M, 3))  # includes wrapping nodes
        f = rng.standard_normal((1, M, 3))
        dq = rng.uniform(0.5, 2.0, size=(1, M)) * 1e-5
        u = rng.standard_normal((3, prm.N, prm.N, prm.N))
        S = coupling_matrix(X, prm)
        F = spread_force(f, S, dq, prm)
        U = interpolate_velocity(u, S)
        lhs = float(np.sum(F * u)) * prm.h**3
        rhs = float(np.sum(f[0] * U * dq[0, :, None]))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        tot_grid = F.sum(axis=(1, 2, 3)) * prm.h**3
        tot_shell = (f * dq[..., None]).sum(axis=(0, 1))
        worst_cons = max(
            worst_cons,
            np.abs(tot_grid - tot_shell).max() / np.abs(tot_shell).max(),
        )
    report(
        "5 (adjointness and conservation)",
        worst_adj <= 1e-12 and worst_cons <= 1e-12,
        f"adjointness {worst_adj:.2e}, conservation {worst_cons:.2e}",
    )


# ---------------------------------------------------------------------------
# 6-7. the scaled convergence study
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def study():
    return run_convergence_study()


@pytest.mark.slow
def test_criterion_6_scaled_convergence_study(study):
    fine, mid, coarse = study.records
    wall = sum(r.wall_seconds for r in study.records)
    rates = {p: convergence_rates(fine, mid, coarse, p) for p in (1, 2)}
    ok = all(0.8 <= r <= 1.6 for r in rates.values())
    report(
        "6 (scaled convergence study)",
        ok,
        f"r_L1 = {rates[1]:.3f}, r_L2 = {rates[2]:.3f} "
        f"(band [0.8, 1.6]); ladder {[r.label for r in study.records]}, "
        f"{wall:.0f} s total",
    )


@pytest.mark.slow
def test_criterion_7_relative_difference_shape(study):
    # E(t) on the common sample window [T0/2, T0] (the times shared by all
    # runs): after its early rise E stabilizes, and the mean over the last
    # quarter of the window must not exceed the mean over the first quarter
    T0 = study.records[0].T0
    times = study.records[0].times
    window = times >= 0.5 * T0 * (1 - 1e-12)
    details = []
    ok = True
    for i, j in ((0, 1), (1, 2)):
        for p in (1, 2):
            E = study.relative_difference_series(i, j, p)[window]
            q = len(E) // 4
            first, last = E[:q].mean(), E[-q:].mean()
            ok = ok and last <= first
            details.append(
                f"{study.records[i].label}|{study.records[j].label} "
                f"L{p} {first:.3f}->{last:.3f}"
            )
    report("7 (relative-difference shape)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. traveling wave
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def wave():
    # default (tabulated) thickness law: its compliance grows toward q1 = 0,
    # opposite the compliance-derived law, so the wave must run toward the
    # base; the extremum location is tracked on a 21-node smoothed |omega|
    return run_traveling_wave(
        thickness_law="table", first_snapshot_step=200, snapshot_stride=200,
        n_snapshots=10,
    )


@pytest.mark.slow
def test_criterion_8_traveling_wave(wave):
    # (a) the shell is initially displaced downward on average
    down = wave.omega[0].mean() < 0.0 and wave.omega[0].min() < 0.0

    # (b) the extremum of |omega| migrates monotonically toward increasing
    # compliance on >= 10 snapshot times (toward the base under this law)
    sm = np.array(
        [np.convolve(np.abs(w), np.ones(21) / 21, mode="same") for w in wave.omega]
    )
    am = [int(k) for k in np.argmax(sm, axis=1)]
    monotone = bool(np.all(np.diff(am) <= 0))
    report(
        "8 (traveling wave)",
        down and monotone and len(am) >= 10,
        f"mean omega(t0) = {wave.omega[0].mean():.2e} cm; extremum path "
        f"{am} over {len(am)} snapshots",
    )


# ---------------------------------------------------------------------------
# 9. equilibrium fixed point
# ---------------------------------------------------------------------------


def test_criterion_9_equilibrium_fixed_point():
    sim = Simulation(ModelConfig(N=16, dt=8e-8, F_imp=0.0))
    X0 = sim.X.copy()
    sim.run(10)
    dX = np.abs(sim.X - X0).max()
    du = np.abs(sim.u).max()
    report(
        "9 (equilibrium fixed point)",
        dX < 1e-13 and du < 1e-13,
        f"max |dX| = {dX:.2e}, max |u| = {du:.2e} over 10 steps",
    )
