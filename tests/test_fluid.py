import numpy as np
import oracles
import pytest
import scipy.fft

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
        got = solver.step(u, force), solver.pressure()
        ref = oracles.fluid_step_out_of_place(solver, u, force)
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
    want = oracles.fluid_step_out_of_place(solver, u, F)[0]
    out = np.full_like(u, np.nan)
    assert solver.step(u, F, out=out) is out
    assert np.array_equal(out, want)
    assert np.array_equal(u, u_in) and np.array_equal(F, F_in)
    for alias in (u, F, u[::-1], F[:, :, ::-1]):
        with pytest.raises(ValueError, match="shares memory"):
            solver.step(u, F, out=alias)
    with pytest.raises(ValueError, match="shares memory"):
        upwind_advection(u, 0.1, out=u[::-1])
    assert np.array_equal(u, u_in) and np.array_equal(F, F_in)


def test_pressure_is_inverted_once_per_step():
    solver = FluidSolver(PAR16)
    p0 = solver.pressure()
    assert not p0.any() and solver.pressure() is p0  # zero before any step
    rng = np.random.default_rng(6)
    u = rng.standard_normal((3, 16, 16, 16))
    F = rng.standard_normal((3, 16, 16, 16))
    solver.step(u, F)
    p = solver.pressure()
    assert p is not p0 and solver.pressure() is p
    kept = p.copy()
    solver.step(u, np.zeros_like(F))
    assert solver.pressure() is not p
    assert np.array_equal(p, kept)  # a read pressure is never overwritten


def test_zero_is_fixed_point():
    solver = FluidSolver(PAR16)
    u = solver.step(np.zeros((3, 16, 16, 16)), np.zeros((3, 16, 16, 16)))
    p = solver.pressure()
    assert np.all(u == 0.0) and np.all(p == 0.0)


def test_uniform_force_accelerates_uniformly():
    # uniform force lives in the g_hat = 0 modes: u = c dt / rho, p = 0
    c = 2.5
    F = np.zeros((3, 16, 16, 16))
    F[2] = c
    solver = FluidSolver(PAR16)
    u = solver.step(np.zeros((3, 16, 16, 16)), F)
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
        u_new = solver.step(u, F)
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
    u0 = solver.step(np.zeros((3, 16, 16, 16)), rng.standard_normal((3, 16, 16, 16)))
    u1 = solver.step(u0, F)
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
        u_new = solver.step(u, np.zeros_like(u))  # u_y(x) does not advect itself
        p_new = solver.pressure()
        amp = prm.rho / prm.dt / (
            prm.rho / prm.dt + 4 * prm.mu_f / h**2 * np.sin(np.pi * k / N) ** 2
        )
        assert np.allclose(u_new, amp * u, atol=1e-12 * np.abs(u).max())
        assert np.abs(p_new).max() < 1e-12

