import tracemalloc

import numpy as np
import oracles
import pytest
import scipy.fft

import ibshell.lanes
from ibshell.fluid import (
    FluidParams,
    FluidSolver,
    _advect_rows,
    _inverse,
    divergence,
    upwind_advection,
)

PAR16 = FluidParams(N=16, a=0.1, rho=1.034, mu_f=0.0197, dt=4e-8)


def roll_upwind(u, h):
    """Upwind advection from two np.roll copies per axis (test-local oracle)."""
    adv = np.zeros_like(u)
    for k in range(3):
        ax = 1 + k
        dm = (u - np.roll(u, 1, axis=ax)) / h
        dp = (np.roll(u, -1, axis=ax) - u) / h
        adv += u[k] * np.where(u[k] >= 0.0, dm, dp)
    return adv


def residual(u_new, p_new, u_old, F, prm):
    """Physical-space residual of the implicit momentum system (test-local stencils)."""
    h = prm.h
    visc = np.zeros_like(u_new)
    for k in range(3):
        ax = 1 + k
        visc += (
            np.roll(u_new, -1, axis=ax) - 2.0 * u_new + np.roll(u_new, 1, axis=ax)
        ) / h**2
    gradp = np.stack(
        [(np.roll(p_new, -1, axis=k) - np.roll(p_new, 1, axis=k)) / (2 * h)
         for k in range(3)]
    )
    return prm.rho * ((u_new - u_old) / prm.dt + roll_upwind(u_old, h)) - (
        -gradp + prm.mu_f * visc + F
    )


# ---------------------------------------------------------------------------
# Params / difference operators
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError, match="power of two"):
        FluidParams(N=12, a=0.1, rho=1.0, mu_f=0.01, dt=1e-8)
    with pytest.raises(ValueError):
        FluidParams(N=16, a=-0.1, rho=1.0, mu_f=0.01, dt=1e-8)
    assert PAR16.h == pytest.approx(0.1 / 16)


def test_periodic_diff_constant_and_kinds():
    # D0 along each axis annihilates a constant, through the divergence
    for k in range(3):
        u = np.zeros((3, 8, 8, 8))
        u[k] = 2.2
        assert np.all(divergence(u, 0.1) == 0.0)


def test_periodic_diff_mode_symbol():
    # D0 on exp(2 pi i k x / a) multiplies by i sin(2 pi k h / a) / h; with
    # the mode in the x component only, the divergence is that one D0
    N, a = 16, 0.1
    h = a / N
    x = h * np.arange(N)
    for k in (1, 3, 5):
        mode = np.exp(2j * np.pi * k * x / a)
        f = np.broadcast_to(mode[:, None, None], (N, N, N))
        u_re, u_im = np.zeros((3, N, N, N)), np.zeros((3, N, N, N))
        u_re[0], u_im[0] = f.real, f.imag
        d = divergence(u_re, h) + 1j * divergence(u_im, h)
        sym = 1j * np.sin(2 * np.pi * k * h / a) / h
        assert np.allclose(d, sym * f, atol=1e-10)
    # Nyquist mode is annihilated by D0
    nyq = np.cos(np.pi * np.arange(N))
    u = np.zeros((3, N, N, N))
    u[0] = np.broadcast_to(nyq[:, None, None], (N, N, N))
    assert np.abs(divergence(u, h)).max() < 1e-12


def test_upwind_constant_and_signs():
    u = np.ones((3, 8, 8, 8)) * np.array([1.0, -2.0, 0.5])[:, None, None, None]
    assert np.abs(upwind_advection(u, 0.1)).max() < 1e-14

    # u = (c, 0, 0), c > 0, carrying a profile that varies only along x:
    # advection = c * backward difference along x
    N, h = 8, 0.1
    rng = np.random.default_rng(0)
    prof = np.broadcast_to(rng.standard_normal(N)[:, None, None], (N, N, N)).copy()
    u = np.zeros((3, N, N, N))
    c = 1.7
    u[0] = c
    u[1] = prof
    adv = upwind_advection(u, h)
    expect1 = c * (prof - np.roll(prof, 1, axis=0)) / h
    assert np.allclose(adv[1], expect1, atol=1e-12)


def test_upwind_matches_naive_loops():
    N, h = 4, 0.25
    rng = np.random.default_rng(1)
    u = rng.standard_normal((3, N, N, N))
    adv = upwind_advection(u, h)
    expect = np.zeros_like(u)
    for i in range(N):
        for j in range(N):
            for k in range(N):
                for comp in range(3):
                    for ax, (di, dj, dk) in enumerate(
                        [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
                    ):
                        ua = u[ax, i, j, k]
                        if ua >= 0:
                            d = (
                                u[comp, i, j, k]
                                - u[comp, (i - di) % N, (j - dj) % N, (k - dk) % N]
                            ) / h
                        else:
                            d = (
                                u[comp, (i + di) % N, (j + dj) % N, (k + dk) % N]
                                - u[comp, i, j, k]
                            ) / h
                        expect[comp, i, j, k] += ua * d
    assert np.allclose(adv, expect, atol=1e-12)


def test_upwind_matches_roll_oracle_bitwise():
    # exact zeros exercise the u_k >= 0 tie; N = 2 wraps onto itself
    rng = np.random.default_rng(4)
    for N in (2, 5, 8, 16, 64):
        u = rng.standard_normal((3, N, N, N))
        u[rng.random(u.shape) < 0.2] = 0.0
        h = 0.1 / N
        ref = roll_upwind(u, h)
        assert np.array_equal(upwind_advection(u, h), ref), N
        # every value of out is written, none added into
        out = np.full_like(u, np.nan)
        assert np.array_equal(upwind_advection(u, h, out=out), ref), N
        if N > 8:
            continue
        for half in range(N + 1):  # the two lanes' row split, at every row
            for fill in (0.0, np.nan):
                adv = np.full_like(u, fill)
                _advect_rows(u, h, 0, half, adv)
                _advect_rows(u, h, half, N, adv)
                assert np.array_equal(adv, ref), (N, half, fill)


def test_divergence_streamfunction_and_mode():
    N, h = 16, 0.1 / 16
    rng = np.random.default_rng(2)
    psi = rng.standard_normal((N, N, N))
    # u = (D0_y psi, -D0_x psi, 0) is discretely divergence-free
    u = np.zeros((3, N, N, N))
    u[0] = (np.roll(psi, -1, axis=1) - np.roll(psi, 1, axis=1)) / (2 * h)
    u[1] = -(np.roll(psi, -1, axis=0) - np.roll(psi, 1, axis=0)) / (2 * h)
    assert np.abs(divergence(u, h)).max() < 1e-9 * np.abs(u).max() / h

    x = h * np.arange(N)
    u = np.zeros((3, N, N, N))
    k = 3
    u[0] = np.broadcast_to(np.sin(2 * np.pi * k * x / 0.1)[:, None, None], (N,) * 3)
    d = divergence(u, h)
    expect = np.broadcast_to(
        (np.sin(2 * np.pi * k * h / 0.1) / h)
        * np.cos(2 * np.pi * k * x / 0.1)[:, None, None],
        (N,) * 3,
    )
    assert np.allclose(d, expect, atol=1e-10)


# ---------------------------------------------------------------------------
# The implicit solve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 8, 16, 32, 64])
def test_step_matches_out_of_place_oracle_bitwise(N):
    prm = FluidParams(N=N, a=0.1, rho=1.034, mu_f=0.0197, dt=4e-8)
    solver = FluidSolver(prm)
    rng = np.random.default_rng(N)
    u = rng.standard_normal((3, N, N, N))
    u[:, ::3] = 0.0  # exact zeros hit the upwind tie
    F = 1e3 * rng.standard_normal((3, N, N, N))
    u_in, F_in = u.copy(), F.copy()
    for force in (F, np.zeros_like(F)):
        got = solver.step(u, oracles.adding(force)), solver.pressure()
        ref = oracles.fluid_step_out_of_place(solver, u, oracles.adding(force))
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])
        # in-place work touches only the step's own temporaries
        assert np.array_equal(u, u_in) and np.array_equal(F, F_in)


@pytest.mark.parametrize("N", [2, 8, 16, 32, 64])
def test_component_ffts_match_batched_bitwise(N):
    # FluidSolver.step transforms one field component per call at every size,
    # so that the lanes can share them on large lattices; each must sum as in
    # the batched transform of tests/oracles.fluid_step_out_of_place
    rng = np.random.default_rng(N)
    r = rng.standard_normal((3, N, N, N))
    rhat = scipy.fft.rfftn(r, axes=(1, 2, 3))
    back = scipy.fft.irfftn(rhat, s=(N,) * 3, axes=(1, 2, 3))
    for c in range(3):
        assert np.array_equal(scipy.fft.rfftn(r[c]), rhat[c])
        assert np.array_equal(scipy.fft.irfftn(rhat[c], s=(N,) * 3), back[c])


@pytest.mark.parametrize("N", [2, 4, 8, 16, 32, 64])
def test_numpy_ffts_in_place_match_scipy_bitwise(N):
    # FluidSolver.step writes its transforms into held arrays through
    # numpy.fft's out=: forward rfftn over axes (1, 0, 2), inverse
    # `fluid._inverse` (ifft along 0, then 1, in place, then irfft along 2);
    # each must sum as scipy.fft does, per component
    rng = np.random.default_rng(N)
    r = rng.standard_normal((3, N, N, N))
    rhat = np.empty((3, N, N, N // 2 + 1), dtype=complex)
    back = np.empty((3, N, N, N))
    for c in range(3):
        want = scipy.fft.rfftn(r[c])
        np.fft.rfftn(r[c], axes=(1, 0, 2), out=rhat[c])
        assert np.array_equal(rhat[c], want)
        want_back = scipy.fft.irfftn(want, s=(N,) * 3)
        _inverse(rhat[c], back[c])
        assert np.array_equal(back[c], want_back)


def test_step_writes_into_out_and_rejects_aliases():
    N = 8
    solver = FluidSolver(FluidParams(N=N, a=0.1, rho=1.034, mu_f=0.0197, dt=4e-8))
    rng = np.random.default_rng(5)
    u = rng.standard_normal((3, N, N, N))
    F = rng.standard_normal((3, N, N, N))
    u_in, F_in = u.copy(), F.copy()
    want = oracles.fluid_step_out_of_place(solver, u, oracles.adding(F))[0]
    out, seen = np.full_like(u, np.nan), []

    def add_force(r):  # r holds the explicit part when the force is added
        seen.append(r.copy())
        np.add(r, F, out=r)

    assert solver.step(u, add_force, out=out) is out
    assert np.array_equal(out, want)
    prm = solver.params
    explicit = prm.rho / prm.dt * u - prm.rho * upwind_advection(u, prm.h)
    assert len(seen) == 1 and np.array_equal(seen[0], explicit)
    assert np.array_equal(u, u_in) and np.array_equal(F, F_in)
    for alias in (u[::-1], u[:, :, ::-1]):
        with pytest.raises(ValueError, match="shares memory"):
            solver.step(u, oracles.adding(F), out=alias)
    with pytest.raises(ValueError, match="shares memory"):
        upwind_advection(u, 0.1, out=u[::-1])
    assert np.array_equal(u, u_in) and np.array_equal(F, F_in)
    # u itself may be out: the new velocity is written over it
    assert solver.step(u, oracles.adding(F), out=u) is u
    assert np.array_equal(u, want) and np.array_equal(F, F_in)


def test_pressure_is_inverted_once_per_step():
    solver = FluidSolver(PAR16)
    p0 = solver.pressure()
    assert not p0.any() and solver.pressure() is p0  # zero before any step
    rng = np.random.default_rng(6)
    u = rng.standard_normal((3, 16, 16, 16))
    F = rng.standard_normal((3, 16, 16, 16))
    solver.step(u, oracles.adding(F))
    p = solver.pressure()
    assert p is not p0 and solver.pressure() is p
    kept = p.copy()
    solver.step(u, oracles.adding(np.zeros_like(F)))
    assert solver.pressure() is not p
    assert np.array_equal(p, kept)  # a read pressure is never overwritten


def test_step_moves_to_new_spectra_only_while_the_pressure_is_held():
    # the pressure is lent from r_hat[2]: a step that finds it, or a view
    # made from it, still held leaves those spectra to it and takes new ones
    solver, ref = FluidSolver(PAR16), FluidSolver(PAR16)
    rng = np.random.default_rng(11)
    u = rng.standard_normal((3, 16, 16, 16))
    F = rng.standard_normal((3, 16, 16, 16))
    ur = u.copy()

    def step_both():
        solver.step(u, oracles.adding(F), out=u)
        ref.step(ur, oracles.adding(F), out=ur)

    step_both()
    rhat = solver._rhat
    solver.pressure()  # read and dropped
    step_both()
    assert solver._rhat is rhat
    p = solver.pressure()
    assert np.shares_memory(p, solver._rhat) and p.flags.writeable
    kept = p.copy()
    step_both()
    assert solver._rhat is not rhat and np.array_equal(p, kept)
    assert np.array_equal(u, ur) and np.array_equal(solver.pressure(), ref.pressure())
    plane = solver.pressure()[:, 3].T  # a view made from it holds it too
    kept, rhat = plane.copy(), solver._rhat
    step_both()
    assert solver._rhat is not rhat and np.array_equal(plane, kept)
    assert np.array_equal(u, ur) and np.array_equal(solver.pressure(), ref.pressure())


def test_idle_spectra_hold_nothing_read_again():
    # FluidSolver.idle lends r_hat[0] and r_hat[1] between steps: garbage
    # written there changes nothing a later step or pressure read gives,
    # and neither buffer reaches r_hat[2], which holds p_hat and the lent
    # pressure
    N = PAR16.N
    solver, ref = FluidSolver(PAR16), FluidSolver(PAR16)
    rng = np.random.default_rng(17)
    u = rng.standard_normal((3, N, N, N))
    F = rng.standard_normal((3, N, N, N))
    ur = u.copy()
    for read in (False, True, True):
        lent = solver.idle()
        assert len(lent) == 2
        assert all(b.dtype == np.float64 and b.shape == (N * N * (N + 2),)
                   for b in lent)
        assert not np.shares_memory(lent[0], lent[1])
        assert all(np.shares_memory(b, solver._rhat) for b in lent)
        assert not any(np.shares_memory(b, solver._rhat[2]) for b in lent)
        p = solver.pressure() if read else None
        kept = None if p is None else p.copy()
        for b in lent:
            b[:] = np.nan
        if p is not None:
            assert not any(np.shares_memory(b, p) for b in lent)
            assert np.array_equal(p, kept)
        solver.step(u, oracles.adding(F), out=u)
        ref.step(ur, oracles.adding(F), out=ur)
        assert np.array_equal(u, ur)
        assert np.array_equal(solver.pressure(), ref.pressure())


def test_solver_memory_at_n64():
    # the solver holds r_hat alone, p_hat living in r_hat[2] between steps
    # (2.2 MB more as its own array), and each row block of the spectral
    # update forms its own symbols; held over the whole lattice, a(k),
    # 1/|g|^2 and the null-mode mask took 2.3 MB more
    prm = FluidParams(N=64, a=0.1, rho=1.034, mu_f=0.0197, dt=2e-8)
    FluidSolver(prm)  # warm: first-call allocations are not the solver's
    tracemalloc.start()
    try:
        solver = FluidSolver(prm)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(solver._phat, solver._rhat)
    assert solver._rhat.nbytes > 6.4e6
    assert kept - solver._rhat.nbytes <= 0.1e6, kept - solver._rhat.nbytes


def test_pressure_before_a_step_owns_no_memory():
    # before the first step the pressure is a read-only zero view: as
    # np.zeros it took 2.1 MB at N = 64, whose pages glibc's calloc writes
    # when it recycles freed heap
    prm = FluidParams(N=64, a=0.1, rho=1.034, mu_f=0.0197, dt=2e-8)
    FluidSolver(prm).pressure()  # warm
    tracemalloc.start()
    try:
        solver = FluidSolver(prm)
        p = solver.pressure()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert p.shape == (64,) * 3 and not p.any() and solver.pressure() is p
    assert p.strides == (0, 0, 0) and not p.flags.writeable
    assert np.shares_memory(solver._phat, solver._rhat)
    assert kept - solver._rhat.nbytes <= 0.1e6, kept - solver._rhat.nbytes


def test_step_checks_out_before_reading_or_writing():
    # u_hat[2] is formed in a view of out's first N^2 (N+2) floats: out of
    # another layout or dtype would be copied by the reshape, and u_hat[2]
    # lost
    N = 8
    solver = FluidSolver(FluidParams(N=N, a=0.1, rho=1.034, mu_f=0.0197, dt=4e-8))
    rng = np.random.default_rng(8)
    u = rng.standard_normal((3, N, N, N))
    F = rng.standard_normal((3, N, N, N))
    solver.step(u, oracles.adding(F))
    p = solver.pressure()
    u_in, p_in = u.copy(), p.copy()
    for out in (np.zeros((3, N, N, N), order="F"), np.zeros((3, N, N, N), np.float32),
                np.zeros((3, N, N, N + 1))[..., :N], np.zeros((2, N, N, N))):
        kept = out.copy()
        with pytest.raises(ValueError, match="out must be"):
            solver.step(u, oracles.adding(F), out=out)
        assert np.array_equal(out, kept)
        assert np.array_equal(u, u_in)
        assert solver.pressure() is p and np.array_equal(p, p_in)


def test_failed_force_leaves_no_pressure():
    # the force is added after the advection has rewritten r_hat, which
    # holds p_hat between steps: the last pressure is gone
    rng = np.random.default_rng(9)
    u = rng.standard_normal((3, 16, 16, 16))
    F = rng.standard_normal((3, 16, 16, 16))
    broken, ref = FluidSolver(PAR16), FluidSolver(PAR16)
    ub, ur = u.copy(), u.copy()
    broken.step(ub, oracles.adding(F), out=ub)
    ref.step(ur, oracles.adding(F), out=ur)
    broken.pressure()

    def failing(r):
        raise FloatingPointError("force failed")

    with pytest.raises(FloatingPointError):
        broken.step(ub, failing, out=ub)
    with pytest.raises(RuntimeError, match="interrupted"):
        broken.pressure()
    broken.step(ub, oracles.adding(F), out=ub)
    ref.step(ur, oracles.adding(F), out=ur)
    assert np.array_equal(ub, ur)
    assert np.array_equal(broken.pressure(), ref.pressure())


def test_one_lane_step_memory_at_n64(monkeypatch):
    # one lane, so the whole step allocates on this thread. Each forward
    # transform runs the rfft over blocks of rows, last first, so no N^3
    # copy of r[c] is made (rfftn of r[c] into r_hat[c], which holds it,
    # copied it first: a 2.17 MB peak); the spectral update forms its
    # symbols per 8-row block
    monkeypatch.setattr(ibshell.lanes, "_lane_pool", lambda: None)
    N = 64
    solver = FluidSolver(FluidParams(N=N, a=0.1, rho=1.034, mu_f=0.0197, dt=2e-8))
    rng = np.random.default_rng(N)
    u = rng.standard_normal((3, N, N, N))
    F = rng.standard_normal((3, N, N, N))
    solver.step(u, oracles.adding(F), out=u)  # warm
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solver.step(u, oracles.adding(F), out=u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.0e6, peak


def test_zero_is_fixed_point():
    solver = FluidSolver(PAR16)
    u = solver.step(np.zeros((3, 16, 16, 16)),
                    oracles.adding(np.zeros((3, 16, 16, 16))))
    p = solver.pressure()
    assert np.all(u == 0.0) and np.all(p == 0.0)


def test_uniform_force_accelerates_uniformly():
    # uniform force lives in the g_hat = 0 modes: u = c dt / rho, p = 0
    c = 2.5
    F = np.zeros((3, 16, 16, 16))
    F[2] = c
    solver = FluidSolver(PAR16)
    u = solver.step(np.zeros((3, 16, 16, 16)), oracles.adding(F))
    p = solver.pressure()
    assert np.allclose(u[2], c * PAR16.dt / PAR16.rho, rtol=1e-13)
    assert np.abs(u[:2]).max() < 1e-18
    assert np.abs(p).max() < 1e-18


def test_solver_exactness_random_forces():
    prm = FluidParams(N=16, a=0.1, rho=1.034, mu_f=0.0197, dt=1e-8)
    solver = FluidSolver(prm)
    rng = np.random.default_rng(3)
    u = np.zeros((3, 16, 16, 16))
    for trial in range(5):
        F = rng.standard_normal((3, 16, 16, 16))
        u_new = solver.step(u, oracles.adding(F))
        p_new = solver.pressure()
        res = residual(u_new, p_new, u, F, prm)
        rnorm = np.abs(prm.rho * u / prm.dt + F).max()
        assert np.abs(res).max() <= 1e-10 * rnorm
        assert np.abs(divergence(u_new, prm.h)).max() <= 1e-10 * (
            np.abs(u_new).max() / prm.h + 1e-300
        )
        u = u_new  # feed a divergence-free, advecting state back in


def test_momentum_bookkeeping():
    prm = PAR16
    solver = FluidSolver(prm)
    rng = np.random.default_rng(4)
    F = rng.standard_normal((3, 16, 16, 16))
    # start from a divergence-free random state via one projection step
    u0 = solver.step(np.zeros((3, 16, 16, 16)),
                     oracles.adding(rng.standard_normal((3, 16, 16, 16))))
    u1 = solver.step(u0, oracles.adding(F))
    dmom = (u1 - u0).sum(axis=(1, 2, 3)) * prm.h**3
    # the mean mode has a(0) = rho/dt and no pressure: force in, advection out
    adv = upwind_advection(u0, prm.h)
    expect = prm.dt * (F.sum(axis=(1, 2, 3)) / prm.rho
                       - adv.sum(axis=(1, 2, 3))) * prm.h**3
    assert np.allclose(dmom, expect, rtol=1e-12, atol=1e-20 * np.abs(expect).max())


def test_viscous_mode_decay():
    # a single divergence-free Fourier mode is multiplied by (rho/dt)/a(k)
    prm = PAR16
    N, h = prm.N, prm.h
    solver = FluidSolver(prm)
    x = h * np.arange(N)
    for k in (1, 2, 5):
        u = np.zeros((3, N, N, N))
        u[1] = np.broadcast_to(
            np.sin(2 * np.pi * k * x / prm.a)[:, None, None], (N,) * 3
        )  # u_y(x): divergence-free
        # u_y(x) does not advect itself
        u_new = solver.step(u, oracles.adding(np.zeros_like(u)))
        p_new = solver.pressure()
        amp = prm.rho / prm.dt / (
            prm.rho / prm.dt + 4 * prm.mu_f / h**2 * np.sin(np.pi * k / N) ** 2
        )
        assert np.allclose(u_new, amp * u, atol=1e-12 * np.abs(u).max())
        assert np.abs(p_new).max() < 1e-12

