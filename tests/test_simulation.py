import gc
import struct
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import oracles
import pytest

import ibshell.coupling
import ibshell.fluid
import ibshell.geometry
import ibshell.lanes
import ibshell.simulation
from ibshell.coupling import coupling_matrix, interpolate_velocity, spread_force
from ibshell.io import (
    config_param_block,
    params_to_config,
    read_displacement_map,
    read_snapshot,
    write_displacement_map,
    write_snapshot,
)
from ibshell.shell import compute_force, decompose_displacement
from ibshell.simulation import (
    FIELD_TYPES,
    InstabilityError,
    ModelConfig,
    Simulation,
    build_model_shell,
    clamp_force,
    nested_surface_dims,
    thickness_field,
    thickness_law,
)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_surface_dims_laws():
    assert nested_surface_dims(16) == (161, 7)
    assert nested_surface_dims(64) == (641, 25)
    with pytest.raises(ValueError):
        nested_surface_dims(20)


def test_config_defaults_and_mesh_widths():
    cfg = ModelConfig(N=32)
    assert (cfg.n1, cfg.n2) == (321, 13)
    assert cfg.alpha == pytest.approx(1.8 * np.pi / 0.5)
    assert cfg.z_imp == cfg.a
    # dq1 is exactly half the fluid mesh width; dq2 approximately
    h = cfg.a / cfg.N
    assert cfg.dq1 == pytest.approx(h / 2, rel=1e-12)
    ratio = cfg.dq2_rows() / h
    assert 0.3 < ratio.min() and ratio.max() < 0.7


def test_config_validation():
    with pytest.raises(ValueError, match="thickness_law"):
        ModelConfig(N=16, thickness_law="banana")
    with pytest.raises(ValueError, match="coefficients_order"):
        ModelConfig(N=16, coefficients_order="septic")


def test_config_file_round_trip(tmp_path):
    cfg = ModelConfig(N=16, dt=8e-8, thickness_law="exact", k_clamp=123.0)
    path = tmp_path / "model.cfg"
    path.write_text(cfg.to_file_text())
    back = ModelConfig.from_file(path)
    assert back == cfg

    path.write_text("N = 16\nwobble = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        ModelConfig.from_file(path)
    path.write_text("N 16\n")
    with pytest.raises(ValueError, match="key = value"):
        ModelConfig.from_file(path)
    # bad values and repeated keys name the file and the line
    for text, where in (
        ("N = 32.0\n", "model.cfg:1: bad int value '32.0' for N"),
        ("N = 16\ndt = abc\n", "model.cfg:2: bad float value 'abc' for dt"),
        ("N = 16\nN = 32\n", "model.cfg:2: repeated key 'N'"),
        ("N = 16\nthickness_law = banana\n", "model.cfg: thickness_law must be"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=where):
            ModelConfig.from_file(path)


def test_config_rejects_bad_step_clamp_and_cadence(tmp_path):
    path = tmp_path / "model.cfg"
    for key, val, msg in (
        ("dt", -8e-8, "dt must be positive"),
        ("dt", 0.0, "dt must be positive"),
        ("dt", float("nan"), "dt must be positive"),
        ("k_clamp", -1.0, "k_clamp must be finite and >= 0"),
        ("k_clamp", float("inf"), "k_clamp must be finite and >= 0"),
        ("snapshot_every", -3, "snapshot_every must be >= 0"),
        ("T0", -2e-6, "T0 must be positive and finite"),
        ("T0", 0.0, "T0 must be positive and finite"),
        ("T0", float("nan"), "T0 must be positive and finite"),
        ("T0", float("inf"), "T0 must be positive and finite"),
        # the lattice and fluid rules of FluidParams, checked at config time
        ("N", 48, "N must be a power of two"),
        ("a", -0.1, "a must be positive"),
        ("rho", 0.0, "rho must be positive"),
        # every float is finite, and the material and strip are usable
        ("mu", float("inf"), "mu must be finite"),
        ("F_imp", float("nan"), "F_imp must be finite"),
        ("z_imp", float("nan"), "z_imp must be finite"),
        ("lam", float("nan"), "lam must be finite"),
        ("H", float("-inf"), "H must be finite"),
        ("mu", -1.0, "mu must be positive"),
        ("lam", -1.1e6, r"lam \+ 2\*mu must be positive"),
        ("L", -0.5, "L must be positive and finite"),
        ("L", 0.0, "L must be positive and finite"),
        ("L", float("nan"), "L must be positive and finite"),
        ("w0", -0.1, r"strip width w\(q1\)"),
        ("w1", -0.5, r"strip width w\(q1\)"),
        # overflows: no RuntimeWarning, and the bounds print as plain floats
        ("w1", -1e300, r"strip .* row, got -1\.4375000000000003e\+299 \.\. -8\.9"),
        ("L_BM", 0.0, r"strip .* row, got inf \.\. inf"),
        ("L_BM", 5e-324, r"strip .* row, got inf \.\. inf"),
        ("L", 1e308, "h0 must be positive and finite everywhere"),
        ("z_imp", 1e308, r"z_imp = 1e\+308 makes the impulse plane z_imp/h non-finite"),
        ("rho", 1e308, r"rho = 1e\+308 makes the fluid symbol's least value"),
        ("rho", 5e-324, r"rho = 5e-324 makes the fluid symbol's least value"),
        ("mu_f", 1e308, r"mu_f = 1e\+308 makes the fluid symbol"),
    ):
        kwargs = {"N": 16, key: val}
        with pytest.raises(ValueError, match=msg):
            ModelConfig(**kwargs)
        path.write_text("".join(f"{k} = {v}\n" for k, v in kwargs.items()))
        with pytest.raises(ValueError, match=f"model.cfg: {msg}"):
            ModelConfig.from_file(path)
    # the boundary values stay valid: no clamp, no snapshots
    cfg = ModelConfig(N=16, k_clamp=0.0, snapshot_every=0)
    assert (cfg.k_clamp, cfg.snapshot_every) == (0.0, 0)


def test_overflowing_material_is_rejected_at_build():
    # Lame coefficients so large that a coefficient field of the force
    # operator overflows: the build names the field, with no RuntimeWarning
    for key in ("lam", "mu"):
        cfg = ModelConfig(N=16, **{key: 1e308})
        with pytest.raises(ValueError, match="shell coefficient field A is not finite"):
            Simulation(cfg)


# ---------------------------------------------------------------------------
# Thickness laws
# ---------------------------------------------------------------------------


def test_thickness_laws_reference_values():
    assert thickness_law(0.0, "exact") == pytest.approx(0.001, rel=1e-12)
    assert thickness_law(0.0, "table") == pytest.approx(0.001, rel=1e-12)
    assert thickness_law(0.5, "table") == pytest.approx(0.0035, rel=1e-12)
    # evaluate the compliance-derived law at the apex:
    # 0.001 * (4/3)^(5/3) * 10^(-1/9)
    expect = 0.001 * (4.0 / 3.0) ** (5.0 / 3.0) * 10.0 ** (-1.0 / 9.0)
    assert thickness_law(0.5, "exact") == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.00125, rel=3e-3)
    with pytest.raises(ValueError, match="outside"):
        thickness_law(0.6, "exact")
    with pytest.raises(ValueError, match="outside"):
        thickness_law(-0.1, "table")
    # one-mesh-width allowance used by the verbatim lattice
    assert thickness_law(0.503, "table", tol=0.004) > 0


def test_thickness_field_shape():
    cfg = ModelConfig(N=16)
    h0 = thickness_field(cfg)
    assert h0.shape == (cfg.n1, cfg.n2)
    assert np.all(h0[0] == h0[0, 0])  # constant across a row
    assert h0[-1, 0] > h0[0, 0]  # table law grows with q1


# ---------------------------------------------------------------------------
# Model shell lattice
# ---------------------------------------------------------------------------


def test_model_shell_first_node_formula():
    cfg = ModelConfig(N=16)
    grid = build_model_shell(cfg)
    dq1 = cfg.dq1
    q1 = dq1  # k1 = 1
    w = cfg.w0 + (q1 / cfg.L_BM) * (cfg.w1 - cfg.w0)
    dq2 = w / (cfg.n2 - 1)
    gamma = np.array([
        cfg.R * np.cos(cfg.alpha * q1),
        cfg.R * np.sin(cfg.alpha * q1),
        cfg.H * cfg.alpha * q1,
    ])
    nvec = np.array([-np.cos(cfg.alpha * q1), -np.sin(cfg.alpha * q1), 0.0])
    expect = gamma + (1 * dq2 - w / 2) * nvec  # k2 = 1
    assert np.allclose(grid.X0[0, 0], expect, rtol=1e-14)
    # row spacing stored per row
    assert grid.dq2_of_row[0] == pytest.approx(dq2, rel=1e-14)


def test_model_shell_centerline_near_curve():
    cfg = ModelConfig(N=16)  # n2 = 7, odd: k2 = (n2+1)/2 = 4
    grid = build_model_shell(cfg)
    k2c = (cfg.n2 + 1) // 2
    q1 = cfg.q1_rows()
    gamma = np.stack([
        cfg.R * np.cos(cfg.alpha * q1),
        cfg.R * np.sin(cfg.alpha * q1),
        cfg.H * cfg.alpha * q1,
    ], axis=-1)
    # centerline offset = k2 dq2 - w/2 = dq2 (n2+1)/2 - w/2 = dq2/2 + ...
    dev = np.linalg.norm(grid.X0[:, k2c - 1] - gamma, axis=-1)
    assert dev.max() < 1.5 * grid.dq2_of_row.max()


def test_model_shell_verbatim_overshoot():
    cfg = ModelConfig(N=16)
    assert cfg.q1_rows()[0] == pytest.approx(cfg.dq1)
    assert cfg.q1_rows()[-1] == pytest.approx(cfg.L + cfg.dq1)


# ---------------------------------------------------------------------------
# Clamp and impulse
# ---------------------------------------------------------------------------


def test_clamp_mask_and_force():
    cfg = ModelConfig(N=16)
    grid = build_model_shell(cfg)
    m = oracles.clamp_rows_mask(grid.n1, grid.n2)
    assert m[0].all() and m[1].all() and m[-1].all() and m[-2].all()
    assert m[:, :2].all() and m[:, -2:].all()
    assert not m[5, 3]

    f = clamp_force(grid.X0, grid, 1e5, np.zeros_like(grid.X0))
    assert np.abs(f).max() == 0.0

    X = grid.X0.copy()
    d = np.array([1e-4, 0.0, -2e-4])
    X[0, 3] += d
    f = clamp_force(X, grid, 1e5, np.zeros_like(X))
    expect = -1e5 * d / grid.node_areas[0, 3]
    assert np.allclose(f[0, 3], expect, rtol=1e-14)
    f[0, 3] = 0.0
    assert np.abs(f).max() == 0.0

    # an interior displaced node feels no spring
    X = grid.X0.copy()
    X[5, 3] += d
    assert np.abs(clamp_force(X, grid, 1e5, np.zeros_like(X))).max() == 0.0


@pytest.mark.parametrize("N", [16, 32, 64])
def test_clamp_force_matches_masked_oracle_bitwise(N):
    grid = build_model_shell(ModelConfig(N=N))
    rng = np.random.default_rng(N)
    X = grid.X0 + 1e-4 * rng.standard_normal(grid.X0.shape)
    got = clamp_force(X, grid, 1e7, np.zeros_like(X))
    assert np.array_equal(got, oracles.clamp_force_masked(X, grid, 1e7))
    assert not got[~oracles.clamp_rows_mask(grid.n1, grid.n2)].any()
    # the springs are added into f, in place, and the rest of f is kept
    f = rng.standard_normal(X.shape)
    want = f + oracles.clamp_force_masked(X, grid, 1e7)
    assert clamp_force(X, grid, 1e7, f) is f
    assert np.array_equal(f, want)


def test_clamp_spring_relaxation_decays():
    # standalone overdamped ODE: x' = -(k/c) x decays under explicit Euler
    k, c, dt = 1e5, 1e7, 1e-4
    x = np.array([1.0, -2.0, 0.5])
    for _ in range(50):
        x = x + dt * (-(k / c) * x)
    assert np.linalg.norm(x) < np.linalg.norm([1.0, -2.0, 0.5])


def test_impulse_plane_and_integral(monkeypatch):
    # at rest the shell force is zero, so the fluid's force at step 0 is the
    # impulse alone, -F_imp / (h dt) on component 2 of the plane nearest
    # z_imp, and at later steps zero
    forces = []
    solve = ibshell.fluid.FluidSolver.step

    def spy(solver, u, add_force, out=None):
        F = np.zeros_like(u)
        add_force(F)
        forces.append(F)
        return solve(solver, u, add_force, out=out)

    monkeypatch.setattr(ibshell.fluid.FluidSolver, "step", spy)
    for dt in (8e-8, 4e-8):
        for z_imp, iz in ((None, 0), (0.03, 5)):  # a: top plane = z = 0
            cfg = ModelConfig(N=16, dt=dt, z_imp=z_imp)
            h = cfg.a / cfg.N
            forces.clear()
            sim = Simulation(cfg)
            sim.step()
            late = Simulation(cfg)
            late.step_count = 1
            late.step()
            F, F_late = forces
            impulse = np.zeros_like(F)
            impulse[2, :, :, iz] = -cfg.F_imp / h / dt
            assert np.array_equal(F, impulse), (dt, z_imp)
            assert F[2, 0, 0, iz] == pytest.approx(-cfg.F_imp / (h * dt),
                                                   rel=1e-15)
            assert not F_late.any(), (dt, z_imp)
            # the mean mode has a(0) = rho/dt, so the step carries the
            # impulse's momentum dt sum F h^3 = -F_imp a^2, whatever dt
            momentum = cfg.rho * sim.u.sum(axis=(1, 2, 3)) * h**3
            expect = cfg.F_imp * cfg.a**2
            assert (np.abs(momentum - (0.0, 0.0, -expect)).max()
                    <= 1e-12 * expect), (dt, z_imp)


# ---------------------------------------------------------------------------
# Time loop
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sim16():
    return Simulation(ModelConfig(N=16, dt=8e-8))


def test_equilibrium_fixed_point():
    sim = Simulation(ModelConfig(N=16, dt=8e-8, F_imp=0.0))
    X0 = sim.X.copy()
    sim.run(10)
    assert np.abs(sim.X - X0).max() < 1e-13
    assert np.abs(sim.u).max() < 1e-13


def test_single_step_matches_hand_chained_modules(sim16):
    cfg = ModelConfig(N=16, dt=8e-8)
    sim = Simulation(cfg)
    sim.step()  # includes the impulse
    # hand-chain the same first step
    ref = Simulation(cfg)
    S0 = coupling_matrix(ref.grid.X0, ref.fparams)
    f = ref.shell_force_cartesian(ref.grid.X0)

    def add_force(r):  # as the step does: spread into r, then the impulse
        spread_force(f, S0, ref.dq_area, ref.fparams, out=r)
        r[2, :, :, round(cfg.z_imp / ref.fparams.h) % cfg.N] += \
            -cfg.F_imp / ref.fparams.h / cfg.dt

    u = ref.solver.step(ref.u, add_force)
    p = ref.solver.pressure()
    U = interpolate_velocity(u, S0)
    X = ref.grid.X0 + cfg.dt * U.reshape(ref.grid.X0.shape)
    assert np.array_equal(sim.u, u)
    assert np.array_equal(sim.p, p)
    assert np.array_equal(sim.X, X)


def test_cell_crossing_rebuilds_stencil_columns(monkeypatch):
    cfg = ModelConfig(N=16, dt=8e-8)
    sim = Simulation(cfg)
    seen = []

    def spy(f, S, dq, params, out=None):
        seen.append(S)
        return spread_force(f, S, dq, params, out=out)

    monkeypatch.setattr(ibshell.simulation, "spread_force", spy)
    sim.run(2)
    # no node changed cell: the second step reuses the first step's column
    # arrays (the same memory, not an equal copy)
    assert np.shares_memory(seen[1].indices, seen[0].indices)
    assert np.shares_memory(seen[1].indptr, seen[0].indptr)

    # one interior node moves by more than a mesh width
    X = sim.X.copy()
    X[cfg.n1 // 2, cfg.n2 // 2, 0] += 1.5 * sim.fparams.h
    sim.X = X
    S_ref = oracles.coupling_matrix_broadcast(X, sim.fparams)
    f = sim.shell_force_cartesian(X)
    u = sim.solver.step(sim.u, lambda r: spread_force(
        f, S_ref, sim.dq_area, sim.fparams, out=r))  # as the step does
    p = sim.solver.pressure()
    X_ref = X + cfg.dt * interpolate_velocity(u, S_ref).reshape(X.shape)
    sim.step()
    S = seen[2]
    assert not np.shares_memory(S.indices, seen[1].indices)
    assert np.array_equal(S.data, S_ref.data)
    assert np.array_equal(S.indices, S_ref.indices)
    assert np.array_equal(S.indptr, S_ref.indptr)
    assert np.array_equal(sim.u, u)
    assert np.array_equal(sim.p, p)
    assert np.array_equal(sim.X, X_ref)


def test_pressure_on_read_matches_out_of_place_oracle():
    sim = Simulation(ModelConfig(N=16, dt=8e-8))
    p0 = sim.p
    assert not p0.any() and sim.p is p0  # zeros before the first step
    sim.run(2)
    u, X = sim.u.copy(), sim.X
    S = coupling_matrix(X, sim.fparams)
    f = sim.shell_force_cartesian(X)
    sim.step()
    u_ref, p_ref = oracles.fluid_step_out_of_place(
        sim.solver, u, lambda r: spread_force(f, S, sim.dq_area, sim.fparams, out=r))
    p = sim.p
    assert np.array_equal(sim.u, u_ref)
    assert np.array_equal(p, p_ref)
    assert sim.p is p  # inverted once, the same array until the next step
    sim.step()
    assert sim.p is not p and np.array_equal(p, p_ref)


def test_step_writes_over_the_one_held_velocity(monkeypatch):
    # documented in README "Threads": a step writes the new velocity over
    # u, the same array every step, and spreads the force into the fluid
    # right-hand side, so no spare velocity or force field is held
    sim = Simulation(ModelConfig(N=16, dt=8e-8))
    assert not any(hasattr(sim, name) for name in ("_u_next", "_F"))
    assert not hasattr(sim.solver, "_adv")
    solve, seen = ibshell.fluid.FluidSolver.step, []

    def spy(self, u, add_force, out=None):
        seen.append(out is u)
        return solve(self, u, add_force, out)

    monkeypatch.setattr(ibshell.fluid.FluidSolver, "step", spy)
    u = sim.u
    kept = u.copy()
    sim.step()
    assert sim.u is u and not np.array_equal(u, kept)
    sim.step()
    sim.step()
    assert sim.u is u
    assert seen == [True] * 3


def test_interrupted_solve_leaves_u(monkeypatch):
    sim = Simulation(ModelConfig(N=16, dt=8e-8))
    sim.run(2)
    u, kept, X = sim.u, sim.u.copy(), sim.X

    def interrupted(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(ibshell.fluid.FluidSolver, "_spectral_rows", interrupted)
        with pytest.raises(KeyboardInterrupt):
            sim.step()
    assert sim.u is u and np.array_equal(u, kept)
    assert sim.X is X and sim.step_count == 2
    with pytest.raises(RuntimeError, match="interrupted"):
        sim.p
    ref = Simulation(ModelConfig(N=16, dt=8e-8))
    ref.run(3)
    sim.step()
    assert np.array_equal(sim.u, ref.u) and np.array_equal(sim.p, ref.p)
    assert np.array_equal(sim.X, ref.X)


def test_warm_step_memory_peak_at_n32(monkeypatch):
    # one lane, so the whole step runs (and allocates) on this thread; a
    # step that allocated fresh lattice fields (r, r_hat, p_hat, F, S's
    # weights, the new u and p) peaked at 5.5 MB. One that holds u, r_hat
    # and p_hat, forms r in r_hat's memory and writes the new u over the
    # old peaks at 1.4: the temporaries of one component (the spread
    # S.T @ v, the copy numpy.fft makes of r[c] to transform it in place)
    monkeypatch.setattr(ibshell.lanes, "_lane_pool", lambda: None)
    sim = Simulation(ModelConfig(N=32, dt=4e-8))
    sim.run(3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim.step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6, peak


def test_shell_force_memory_at_n64():
    # the force adds each term into its accumulator as it is formed, each
    # contraction sums lane 0 in its result and writes lane 1 and the
    # products into two scratch arrays, which live in the solver's idle
    # r_hat[1] (FluidSolver.idle), and each jet entry and accumulator lives
    # from its first active row to its last, S and T giving way to their
    # divergences there: 2.70 MB of temporaries; 3.08 with fresh scratch
    # arrays, 4.36 while the whole jet and all four accumulators lived
    # through the table, 5.52 before the terms were added as they were formed
    sim = Simulation(ModelConfig(N=64, dt=2e-8))
    sim.run(1)
    X = sim.X
    sim.shell_force_cartesian(X)  # warm
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim.shell_force_cartesian(X)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.8e6, peak


@pytest.mark.parametrize("order", ["leading", "quadratic"])
@pytest.mark.parametrize("N", [16, 32, 64])
def test_lent_scratch_gives_the_same_bytes(N, order, monkeypatch):
    # S, new and reused, and the shell force take temporaries from the
    # solver's idle spectra where they fit (FluidSolver.idle, fluid.carve):
    # at N = 64 every one, at N = 32 and 16 some; the bytes are those of
    # fresh arrays, and no result lives in the lent memory
    sim = Simulation(ModelConfig(N=N, dt=1.28e-6 / N, coefficients_order=order))
    sim.step()
    X0, X, fp = sim.grid.X0, sim.X, sim.fparams
    lent = sim.solver.idle()
    carved, carve = [], ibshell.fluid.carve

    def spy(buf, shape, dtype=np.float64, at=0):
        a = carve(buf, shape, dtype, at)
        if buf is not None:
            carved.append(np.shares_memory(a, buf))
        return a

    monkeypatch.setattr(ibshell.coupling, "carve", spy)
    monkeypatch.setattr(ibshell.geometry, "carve", spy)

    def garbage():  # a lent float read before it is written shows
        for b in lent:
            b[:] = np.nan

    def same(a, b):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
        assert not any(np.shares_memory(b, buf) for buf in lent)

    ref = coupling_matrix(X0, fp)
    garbage()
    S = coupling_matrix(X0, fp, None, lent[0])
    for positions in (X0, X):  # new, then reused
        if positions is X:
            assert coupling_matrix(X, fp, ref) is ref  # no node changed cell
            garbage()
            assert coupling_matrix(X, fp, S, lent[0]) is S
        for name in ("data", "indices", "indptr"):
            same(getattr(ref, name), getattr(S, name))
    disp = decompose_displacement(X, sim.geom)
    ref = compute_force(disp, sim.coeff, sim.geom)
    garbage()
    f = compute_force(disp, sim.coeff, sim.geom, scratch=lent[1])
    for name in ("f3", "fmu", "cartesian"):
        same(getattr(ref, name), getattr(f, name))
    assert any(carved) and (all(carved) if N == 64 else not all(carved))


def test_held_pressure_keeps_its_bytes_through_the_lend(monkeypatch,
                                                        worker_lane):
    # a pressure read and held across a step lives in r_hat[2], which is
    # never lent: the step's S and force write only r_hat[0] and r_hat[1],
    # here with S built on the worker lane
    monkeypatch.setattr(ibshell.lanes, "_lane_pool", lambda: worker_lane)
    monkeypatch.setattr(ibshell.lanes, "SPLIT_MIN_POINTS", 1)
    sim = Simulation(ModelConfig(N=16, dt=8e-8))
    sim.run(2)
    p = sim.p
    kept = p.copy()
    force = Simulation.shell_force_cartesian
    seen = []

    def spy_force(sim, X):  # the S-and-force phase, before the solve
        f = force(sim, X)
        seen.append(p.tobytes() == kept.tobytes())
        return f

    def spy_spread(f, S, dq, params, out=None):  # after both jobs are done
        seen.append(p.tobytes() == kept.tobytes())
        return spread_force(f, S, dq, params, out=out)

    monkeypatch.setattr(Simulation, "shell_force_cartesian", spy_force)
    monkeypatch.setattr(ibshell.simulation, "spread_force", spy_spread)
    sim.run(2)
    assert seen == [True] * 4
    assert p.tobytes() == kept.tobytes() and sim.p is not p


def test_simulation_releases_build_only_geometry(monkeypatch):
    # only the coefficient build reads g, ginv, b and grad b; the step reads
    # the grid, T, Nrm and Gamma, and the run holds nothing else of the
    # geometry
    refs, build = [], ibshell.simulation.build_geometry

    def build_geometry(grid):
        geom = build(grid)
        refs.extend(weakref.ref(getattr(geom, name))
                    for name in ("g", "ginv", "b", "gradb"))
        return geom

    monkeypatch.setattr(ibshell.simulation, "build_geometry", build_geometry)
    sim = Simulation(ModelConfig(N=16, dt=8e-8))
    gc.collect()
    assert len(refs) == 4 and all(ref() is None for ref in refs)
    assert all(getattr(sim.geom, name) is not None
               for name in ("T", "Nrm", "Gamma"))


def test_held_bytes_after_three_n64_steps():
    # every array the run holds, each byte once (tests/oracles.held_bytes):
    # 31.44 MB; 31.70 while Gamma stored all 8 components, 33.9 while the
    # solver held p_hat in its own array, 38.2 while Simulation held g,
    # ginv, b and grad b and Abar and Obbar stored all 16 components
    sim = Simulation(ModelConfig(N=64, dt=2e-8))
    sim.run(3)
    held = oracles.held_bytes(sim)
    assert sum(held.values()) <= 31.6e6, held


@pytest.fixture
def worker_lane():
    """A one-thread pool for the worker lane, so the two-lane step also runs
    where the process has one core."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool


@pytest.mark.parametrize("N, gate", [(16, None), (64, None), (16, 1)])
def test_two_lane_step_matches_serial_step(N, gate, monkeypatch, worker_lane):
    # gate 1 runs the lanes at N = 16, below lanes.SPLIT_MIN_POINTS
    if gate is not None:
        monkeypatch.setattr(ibshell.lanes, "SPLIT_MIN_POINTS", gate)
    cfg = ModelConfig(N=N, dt=1.28e-6 / N)
    split = N**3 >= ibshell.lanes.SPLIT_MIN_POINTS
    seen = []  # (job, first row, on the calling thread) per job call
    build, rows = ibshell.simulation.coupling_matrix, ibshell.fluid._advect_rows
    force = Simulation.shell_force_cartesian
    main = threading.current_thread()
    s_begun, block_taken = threading.Event(), threading.Event()
    lanes_on, forces_here = [], []

    # on split lattices the calling thread waits for the worker to begin S
    # and to take one advection block, so that both lanes take part in
    # every step
    def spy_build(X, params, S=None, scratch=None):
        here = threading.current_thread() is main
        seen.append(("S", 0, here))
        if not here:
            s_begun.set()
        return build(X, params, S, scratch)

    def spy_force(sim, X):
        forces_here.append(threading.current_thread() is main)
        if lanes_on and split:
            assert s_begun.wait(10)
        s_begun.clear()
        block_taken.clear()
        return force(sim, X)

    def spy_rows(u, h, lo, hi, adv):
        here = threading.current_thread() is main
        seen.append(("advection", lo, here))
        if not here:
            block_taken.set()
        elif lanes_on and split:
            assert block_taken.wait(10)
        rows(u, h, lo, hi, adv)

    monkeypatch.setattr(ibshell.simulation, "coupling_matrix", spy_build)
    monkeypatch.setattr(Simulation, "shell_force_cartesian", spy_force)
    monkeypatch.setattr(ibshell.fluid, "_advect_rows", spy_rows)
    runs, jobs = [], []
    for pool in (None, worker_lane):
        monkeypatch.setattr(ibshell.lanes, "_lane_pool", lambda: pool)
        if pool is not None:
            lanes_on.append(True)
        seen.clear()
        sim = Simulation(cfg)
        sim.run(5)
        runs.append(sim)
        jobs.append(list(seen))
    serial, two = runs
    # the serial run does every job on this thread; the two-lane run does
    # the same jobs, and on split lattices builds S on the worker beside the
    # force and shares the advection's rows between the threads
    assert all(here for _, _, here in jobs[0])
    assert sorted(j[:2] for j in jobs[1]) == sorted(j[:2] for j in jobs[0])
    assert [here for job, _, here in jobs[1] if job == "S"] == [not split] * 5
    shared = any(job == "advection" and not here for job, _, here in jobs[1])
    assert shared == split
    assert np.array_equal(two.X, serial.X)
    assert np.array_equal(two.u, serial.u)
    assert np.array_equal(two.p, serial.p)
    assert forces_here == [True] * 10  # the force never left this thread


@pytest.mark.parametrize("two_lanes", [False, True])
@pytest.mark.parametrize("failing", ["S", "force"])
def test_failed_step_joins_the_worker_lane(failing, two_lanes, monkeypatch,
                                           worker_lane):
    monkeypatch.setattr(ibshell.lanes, "_lane_pool",
                        lambda: worker_lane if two_lanes else None)
    monkeypatch.setattr(ibshell.lanes, "SPLIT_MIN_POINTS", 1)  # lanes at N = 16
    running = []
    build = ibshell.simulation.coupling_matrix

    def slow_build(X, params, S=None, scratch=None):
        running.append(1)
        time.sleep(0.2)  # still running when the force has failed
        running.pop()
        return build(X, params, S, scratch)

    def failing_force(sim, X):
        raise RuntimeError("force failed")

    monkeypatch.setattr(ibshell.simulation, "coupling_matrix", slow_build)
    cfg = ModelConfig(N=16, dt=8e-8)
    sim = Simulation(cfg)
    sim.step()
    X = sim.X.copy()
    if failing == "S":
        X[cfg.n1 // 2, 3, 1] = np.nan
        error = (ValueError, "non-finite shell position")
    else:
        monkeypatch.setattr(Simulation, "shell_force_cartesian", failing_force)
        error = (RuntimeError, "force failed")
    sim.X = X
    u, p = sim.u, sim.p
    with pytest.raises(error[0], match=error[1]):
        sim.step()
    assert not running  # the worker lane was joined before the error surfaced
    assert sim.X is X and sim.u is u and sim.p is p and sim.step_count == 1
    monkeypatch.undo()
    fresh = Simulation(cfg)
    fresh.run(2)
    assert fresh.step_count == 2 and np.isfinite(fresh.X).all()


def test_determinism_bitwise():
    cfg = ModelConfig(N=16, dt=8e-8)
    a, b = Simulation(cfg), Simulation(cfg)
    a.run(5)
    b.run(5)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.p, b.p)


def test_run_calls_observers_at_their_counts():
    # run(n, observers) is n hand-called steps; after each step whose count
    # an observer names it is called, in list order, and never past n
    cfg = ModelConfig(N=16, dt=8e-8)
    by_hand = Simulation(cfg)
    for _ in range(7):
        by_hand.step()
    sim, calls = Simulation(cfg), []
    sim.run(7, [
        (range(3, 100, 3), lambda s: calls.append(("cadence", s.step_count))),
        (np.array([1, 3, 9]), lambda s: calls.append(("list", s.step_count))),
    ])
    assert calls == [("list", 1), ("cadence", 3), ("list", 3), ("cadence", 6)]
    assert sim.step_count == 7
    for name in ("X", "u", "p"):
        assert np.array_equal(getattr(sim, name), getattr(by_hand, name)), name
    sim.run(0, [(range(100), lambda s: calls.append("never"))])
    assert len(calls) == 4 and sim.step_count == 7

    # an observer that raises stops the run at the step it was called after
    def stop(s):
        raise RuntimeError("stop")

    stopped, two = Simulation(cfg), Simulation(cfg)
    with pytest.raises(RuntimeError, match="stop"):
        stopped.run(7, [([2], stop)])
    two.step()
    two.step()
    assert stopped.step_count == 2 and np.array_equal(stopped.X, two.X)


def test_impulse_pushes_fluid_down_and_shell_follows():
    sim = Simulation(ModelConfig(N=16, dt=8e-8))
    # past the clamp-row startup ringing (the clamped rows oscillate about
    # X0 for the first ~25 steps at this resolution)
    sim.run(50)
    # mean vertical fluid momentum is downward
    assert sim.u[2].mean() < 0.0
    # the unclamped part of the shell follows (its normal has a positive
    # z component, so downward motion means negative omega)
    inner = sim.omega()[2:-2, 2:-2]
    assert inner.mean() < 0.0
    assert (sim.X - sim.grid.X0)[2:-2, 2:-2, 2].mean() < 0.0


@pytest.mark.parametrize("N", [16, 32])
def test_impulse_excites_only_the_mean_flow_and_the_z_checkerboard(N):
    # step 0 from rest: the shell adds no force, and the impulse is a force
    # r_z = c on one lattice plane of z, uniform in x and y. The projection
    # removes every mode it excites but k = (0, 0, 0), the mean flow, and
    # (0, 0, N/2), a checkerboard along z, where g_hat vanishes. r_hat has
    # one amplitude, c/N, in both; the solve divides them by a(0) = rho/dt
    # and a(N/2) = rho/dt + 4 mu/h^2. The shell cannot see the checkerboard:
    # the kernel's even and odd weights each sum to 1/2
    cfg = ModelConfig(N=N, dt=1.28e-6 / N)
    sim = Simulation(cfg)
    sim.step()
    prm, u = sim.fparams, sim.u
    h = prm.h
    iz = round(cfg.z_imp / h) % N
    c = -cfg.F_imp / h / cfg.dt
    a = {"mean": prm.rho / prm.dt, "checker": prm.rho / prm.dt + 4.0 * prm.mu_f / h**2}
    sign = (-1.0) ** ((np.arange(N) - iz) % 2)  # +1 on the impulse plane
    amplitude = {"mean": u.mean(axis=(1, 2, 3)),
                 "checker": (u * sign).mean(axis=(1, 2, 3))}
    energy = {}
    for mode in a:
        energy[mode] = 0.5 * prm.rho * h**3 * N**3 * (amplitude[mode]**2).sum()
        predicted = 0.5 * prm.rho * h**3 * N**3 * (c / N / a[mode])**2
        assert abs(energy[mode] / predicted - 1.0) <= 1e-12, (mode, energy[mode])
        assert np.abs(amplitude[mode][:2]).max() <= 1e-12 * abs(amplitude[mode][2])
    assert np.isclose(energy["checker"] / energy["mean"],
                      (a["mean"] / a["checker"])**2, rtol=1e-12, atol=0.0)
    total = 0.5 * prm.rho * h**3 * (u**2).sum()
    assert abs(total - energy["mean"] - energy["checker"]) <= 1e-12 * total
    checker = amplitude["checker"][2] * np.broadcast_to(sign, (3, N, N, N))
    U = interpolate_velocity(checker, sim._S)
    assert np.abs(U).max() <= 1e-12 * abs(amplitude["checker"][2])


def test_stability_envelope_coarse_pairs():
    # reference step pairings scaled to the two coarsest grids
    for N, dt in ((16, 8e-8), (32, 4e-8)):
        cfg = ModelConfig(N=N, dt=dt)
        sim = Simulation(cfg)
        n = int(round(cfg.T0 / dt))
        sim.run(n)  # full T0 without the detector firing
        assert np.isfinite(sim.X).all()
        # the clock is step_count * dt, not a sum of n steps that drifts
        assert sim.step_count == n and sim.t == n * cfg.dt


def test_instability_detector_fires():
    sim = Simulation(ModelConfig(N=16, dt=8e-8))
    sim.X = sim.grid.X0 + 0.06  # beyond a/2
    u = sim.u
    with pytest.raises(InstabilityError):
        sim.step()
    # the failed step is complete: state and count are the step's results
    assert sim.step_count == 1 and sim.u is u and sim.p is not None
    assert np.abs(sim.X - sim.grid.X0).max() > 0.05
    # a blow-up to NaN is caught at the step that produces it
    sim = Simulation(ModelConfig(N=16, dt=8e-8))
    sim.u[:] = np.nan
    with pytest.raises(InstabilityError, match="at step 1"):
        sim.step()


def test_total_energy_decays_from_elastic_perturbation():
    cfg = ModelConfig(N=16, dt=8e-8, F_imp=0.0)
    sim = Simulation(cfg)
    # smooth interior normal bump, zero on the clamped rows
    n1, n2 = cfg.n1, cfg.n2
    s1 = np.sin(np.pi * np.arange(n1) / (n1 - 1)) ** 2
    s2 = np.sin(np.pi * np.arange(n2) / (n2 - 1)) ** 2
    bump = (s1[:, None] * s2[None, :]) ** 2
    bump[:2] = bump[-2:] = 0.0
    bump[:, :2] = bump[:, -2:] = 0.0
    amp = 1e-6
    sim.X = sim.grid.X0 + amp * bump[..., None] * np.moveaxis(sim.geom.Nrm, 0, -1)

    def energies(s):
        from ibshell.shell import compute_force, decompose_displacement

        disp = decompose_displacement(s.X, s.geom)
        f = compute_force(disp, s.coeff, s.geom)
        d = s.X - s.grid.X0
        e_el = -0.5 * float(np.sum(f.cartesian * d * s.dq_area[..., None]))
        m = oracles.clamp_rows_mask(s.grid.n1, s.grid.n2)
        e_cl = 0.5 * cfg.k_clamp * float(np.sum(d[m] ** 2))
        e_kin = 0.5 * cfg.rho * float(np.sum(s.u**2)) * s.fparams.h**3
        return e_el, e_el + e_cl + e_kin

    e_el0, e0 = energies(sim)
    sim.run(300)
    e_el1, e1 = energies(sim)
    assert e_el0 > 0
    # elastic energy relaxes into the fluid and the total decays (a wrong
    # force sign grows both exponentially)
    assert e_el1 < 0.99 * e_el0
    assert e1 < e0


# ---------------------------------------------------------------------------
# Snapshots and graymaps
# ---------------------------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    # stepped, so u and p are nonzero and a field stored in the wrong axis
    # order reads back different
    sim = Simulation(ModelConfig(N=16, dt=8e-8))
    sim.run(2)
    assert sim.u.any() and sim.p.any()
    path = tmp_path / "snap.ibsh"
    write_snapshot(path, sim)
    snap = read_snapshot(path)
    assert snap.N == sim.cfg.N and (snap.n1, snap.n2) == (sim.cfg.n1, sim.cfg.n2)
    assert snap.t == sim.t and snap.dt == sim.cfg.dt
    assert np.array_equal(snap.X, sim.X)
    assert np.array_equal(snap.u, sim.u)
    assert np.array_equal(snap.p, sim.p)
    back = params_to_config(snap.params)
    assert back == sim.cfg

    with pytest.raises(ValueError, match="magic"):
        bad = tmp_path / "bad.ibsh"
        bad.write_bytes(b"NOPE" + b"\0" * 64)
        read_snapshot(bad)


def test_snapshot_byte_layout(tmp_path):
    # decoded at the offsets of README's table, without read_snapshot
    rng = np.random.default_rng(3)
    N, n1, n2 = 4, 5, 6
    X = rng.standard_normal((n1, n2, 3))
    u = rng.standard_normal((3, N, N, N))
    p = rng.standard_normal((N, N, N))
    # the writer reads attributes only: a stand-in config with the arrays' sizes
    cfg = SimpleNamespace(**{**vars(ModelConfig()), "N": N, "n1": n1, "n2": n2,
                             "dt": 4e-8, "k_clamp": 2.5})
    path = tmp_path / "layout.ibsh"
    write_snapshot(path, SimpleNamespace(X=X, u=u, p=p, t=1.5e-7, cfg=cfg))
    blob = path.read_bytes()
    header = struct.unpack_from("<4sIIIIddI", blob)
    assert header == (b"IBSH", 1, N, n1, n2, 1.5e-7, 4e-8, len(FIELD_TYPES))
    off = 40
    # one record per config field, in field order; a choice is its index
    for name, kind in FIELD_TYPES.items():
        raw = name.encode("ascii")  # every field name is ASCII and fits
        assert len(raw) <= 24
        value = getattr(cfg, name)
        if kind is str:
            value = ModelConfig._CHOICES[name].index(value)
        assert struct.unpack_from("<24sd", blob, off) == (raw.ljust(24, b"\0"), value)
        off += 32
    data = np.frombuffer(blob, dtype="<f8", offset=off)
    assert data.size == 3 * n1 * n2 + 4 * N**3
    assert np.array_equal(data[:3 * n1 * n2], X.ravel())  # C order of (n1, n2, 3)
    # u's components, then p, each x fastest: index ix + N*iy + N^2*iz
    fluid = data[3 * n1 * n2:].reshape(4, N**3)
    ix, iy, iz = np.indices((N, N, N))
    k = ix + N * iy + N**2 * iz
    assert np.array_equal(fluid[:3, k], u)
    assert np.array_equal(fluid[3, k], p)


def test_snapshot_writer_matches_whole_field_oracle(tmp_path):
    # written a plane at a time, the file is byte for byte the one written
    # from whole transposed copies of the fields
    sim = Simulation(ModelConfig(N=16, dt=8e-8))
    sim.run(2)
    path, ref = tmp_path / "planes.ibsh", tmp_path / "whole.ibsh"
    write_snapshot(path, sim)
    oracles.write_snapshot_whole_fields(ref, sim)
    assert path.read_bytes() == ref.read_bytes()


def test_snapshot_writer_memory_at_n64(tmp_path):
    # a whole transposed copy of each field took 2.1 MB at N = 64, and so
    # did the new array the first read of the pressure after a step
    # inverted p_hat into; it is now inverted in r_hat[2]'s memory and lent
    sim = Simulation(ModelConfig(N=64, dt=2e-8))
    sim.run(1)
    write_snapshot(tmp_path / "warm.ibsh", sim)  # warm
    sim.step()  # as in a run, the write reads a pressure not yet inverted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_snapshot(tmp_path / "snap.ibsh", sim)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.1e6, peak


def test_snapshot_rejects_wrong_length_and_unknown_codes(tmp_path, sim16):
    sim = sim16
    path = tmp_path / "snap.ibsh"
    write_snapshot(path, sim)
    blob = path.read_bytes()
    for size in (10, 30, 200, len(blob) - 8, len(blob) + 8):
        bad = tmp_path / f"size{size}.ibsh"
        bad.write_bytes((blob + bytes(8))[:size])
        with pytest.raises(ValueError, match=bad.name):
            read_snapshot(bad)
    bad = tmp_path / "version.ibsh"
    bad.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
    with pytest.raises(ValueError, match="version.ibsh: unsupported snapshot version 2"):
        read_snapshot(bad)

    params = config_param_block(sim.cfg)
    assert params["thickness_law"] == 1.0  # v1 code of "table"
    with pytest.raises(ValueError, match="thickness_law has unknown code 7.0"):
        params_to_config({**params, "thickness_law": 7.0})
    # an int param must be a finite whole number
    for value in (np.inf, -np.inf, np.nan, 16.4, 2.5):
        with pytest.raises(ValueError, match=f"snapshot_every = {value!r} is not"):
            params_to_config({**params, "snapshot_every": value})
    assert params_to_config({**params, "snapshot_every": 4.0}).snapshot_every == 4


def test_snapshot_rejects_non_finite_fields_and_non_ascii_names(tmp_path, sim16):
    sim = sim16
    fields = {"X": sim.X, "u": sim.u, "p": sim.p}
    for key, at in (("X", (3, 2, 1)), ("u", (2, 1, 5, 9)), ("p", (7, 0, 3))):
        for bad_value in (np.nan, -np.inf):
            arrays = {k: v.copy() for k, v in fields.items()}
            arrays[key][at] = bad_value
            path = tmp_path / f"{key}.ibsh"
            write_snapshot(path, SimpleNamespace(**arrays, t=sim.t, cfg=sim.cfg))
            with pytest.raises(ValueError,
                               match=f"{key}.ibsh: {key} holds a non-finite"):
                read_snapshot(path)

    path = tmp_path / "name.ibsh"
    write_snapshot(path, sim)
    path.write_bytes(path.read_bytes().replace(b"k_clamp\0", b"k_cl\xe4mp\0", 1))
    with pytest.raises(ValueError, match=r"name.ibsh: param name b'k_cl\\xe4mp'"):
        read_snapshot(path)


def test_snapshot_io_error_has_path_context(tmp_path, sim16):
    with pytest.raises(OSError, match="no/such/dir"):
        write_snapshot(tmp_path / "no/such/dir/x.ibsh", sim16)


def test_graymap_conventions(tmp_path):
    zero = np.zeros((5, 8))
    path = tmp_path / "zero.pgm"
    write_displacement_map(zero, path)
    img = read_displacement_map(path)
    assert img.shape == (5, 8)
    assert np.all(img == 128)

    w = np.zeros((5, 8))
    w[0, 0], w[4, 7] = -3.0, 3.0
    write_displacement_map(w, path)
    img = read_displacement_map(path)
    assert img[0, 0] == 0 and img[4, 7] == 255
    # an explicit scale must be positive and finite: no inverted or flat map
    for vmax in (0.0, -3.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="vmax"):
            write_displacement_map(w, tmp_path / "bad.pgm", vmax=vmax)
    assert not (tmp_path / "bad.pgm").exists()
    # a non-finite omega is refused before the file is opened
    for value in (np.nan, np.inf, -np.inf):
        w_bad = w.copy()
        w_bad[2, 3] = value
        with pytest.raises(ValueError, match="bad.pgm"):
            write_displacement_map(w_bad, tmp_path / "bad.pgm")
        assert not (tmp_path / "bad.pgm").exists()

    blob = path.read_bytes()
    for size in (3, 7, len(blob) - 1):  # in the header, then in the pixels
        path.write_bytes(blob[:size])
        with pytest.raises(ValueError, match="zero.pgm"):
            read_displacement_map(path)
    assert img[2, 3] == 128


@pytest.mark.parametrize("header, n_pixels", [
    (b"P5\n-3 4\n255\n", 12),     # read as a 4x3 image
    (b"P5\n-3 -4\n255\n", 12),    # failed inside numpy, naming no file
    (b"P5\n3 4\n65535\n", 24),    # 16-bit pixels read as 8-bit ones
    (b"P5\n3 4\n255\n", 13),       # a byte after the last pixel
], ids=["negative-width", "negative-size", "maxval-65535", "trailing-byte"])
def test_graymap_rejects_bad_header(tmp_path, header, n_pixels):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(n_pixels))
    with pytest.raises(ValueError, match="bad.pgm"):
        read_displacement_map(path)
