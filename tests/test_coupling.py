import numpy as np
import pytest

from ibshell.coupling import coupling_matrix, interpolate_velocity, phi, spread_force
from ibshell.fluid import FluidParams

PRM = FluidParams(N=16, a=0.1, rho=1.034, mu_f=0.0197, dt=1e-8)


def shell_arrays(M, rng, prm=PRM, margin=0.0):
    X = rng.uniform(margin, prm.a - margin, size=(1, M, 3))
    f = rng.standard_normal((1, M, 3))
    dq = rng.uniform(0.5, 1.5, size=(1, M)) * 1e-5
    return f, X, dq


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------


def test_phi_point_values():
    assert phi(0.0) == pytest.approx(0.5, abs=1e-15)          # (3 + 1)/8
    assert phi(1.0) == pytest.approx(0.25, abs=1e-15)         # both branches
    assert phi(-1.0) == pytest.approx(0.25, abs=1e-15)
    assert phi(2.0) == 0.0 and phi(-2.0) == 0.0 and phi(3.7) == 0.0


def test_phi_branch_continuity():
    for r0 in (1.0, 2.0):
        lo = phi(r0 - 1e-9)
        hi = phi(r0 + 1e-9)
        assert abs(lo - hi) < 1e-8


def test_phi_partition_of_unity_and_parity_sums():
    rng = np.random.default_rng(0)
    r = rng.uniform(-3, 3, size=2048)
    j = np.arange(-6, 7)
    vals = phi(r[:, None] - j[None, :])
    assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-12
    even = vals[:, j % 2 == 0].sum(axis=1)
    odd = vals[:, j % 2 == 1].sum(axis=1)
    assert np.abs(even - 0.5).max() < 1e-12
    assert np.abs(odd - 0.5).max() < 1e-12


# ---------------------------------------------------------------------------
# spreading
# ---------------------------------------------------------------------------


def test_spread_single_node_on_lattice_point():
    # node exactly on a lattice point: the point gets dq * h^-3 * phi(0)^3
    prm = PRM
    h = prm.h
    X = np.array([[[3 * h, 5 * h, 7 * h]]])
    f = np.zeros((1, 1, 3))
    f[..., 2] = 1.0
    dq = np.full((1, 1), 2.5e-5)
    F = spread_force(f, coupling_matrix(X, prm), dq, prm)
    assert F[2, 3, 5, 7] == pytest.approx(2.5e-5 / h**3 / 8.0, rel=1e-13)
    # neighbor at offset (1,0,0): phi(1) phi(0) phi(0) = 1/4 * 1/2 * 1/2
    assert F[2, 4, 5, 7] == pytest.approx(2.5e-5 / h**3 / 16.0, rel=1e-13)
    assert F[2, 5, 5, 7] == pytest.approx(0.0, abs=1e-30)  # phi(2) = 0
    assert np.abs(F[:2]).max() == 0.0


def test_spread_zero_and_nonfinite():
    rng = np.random.default_rng(1)
    f, X, dq = shell_arrays(20, rng)
    S = coupling_matrix(X, PRM)
    assert np.abs(spread_force(np.zeros_like(f), S, dq, PRM)).max() == 0.0
    X[0, 3, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        coupling_matrix(X, PRM)


def test_total_force_conservation():
    rng = np.random.default_rng(2)
    f, X, dq = shell_arrays(200, rng)
    F = spread_force(f, coupling_matrix(X, PRM), dq, PRM)
    total_grid = F.sum(axis=(1, 2, 3)) * PRM.h**3
    total_shell = (f * dq[..., None]).sum(axis=(0, 1))
    assert np.allclose(total_grid, total_shell, rtol=1e-12)


def test_translation_invariance_of_total():
    rng = np.random.default_rng(3)
    f, X, dq = shell_arrays(50, rng)
    totals = []
    for shift in np.linspace(0, 2 * PRM.h, 17):
        F = spread_force(f, coupling_matrix(X + shift, PRM), dq, PRM)
        totals.append(F.sum(axis=(1, 2, 3)) * PRM.h**3)
    totals = np.array(totals)
    assert np.abs(totals - totals[0]).max() < 1e-12 * np.abs(totals[0]).max()


def test_periodic_wrap_against_tiled_oracle():
    # nodes near the faces spread onto wrapped indices; compare against a
    # replicated 3x-tiled lattice reduced back to the fundamental cell. At
    # N = 2 a node's four offsets per axis wrap onto repeated lattice
    # indices, whose weights must add up.
    for N in (2, 8):
        _check_wrap_against_tiled_oracle(N)


def _check_wrap_against_tiled_oracle(N):
    prm = FluidParams(N=N, a=0.1, rho=1.0, mu_f=0.01, dt=1e-8)
    rng = np.random.default_rng(4)
    M = 30
    X = rng.uniform(0, prm.a, size=(1, M, 3))
    X[0, :10] = rng.uniform(0, 1.5 * prm.h, size=(10, 3))  # hug the faces
    f = rng.standard_normal((1, M, 3))
    dq = np.full((1, M), 1e-5)
    u = rng.standard_normal((3, N, N, N))
    S = coupling_matrix(X, prm)
    F = spread_force(f, S, dq, prm)
    U = interpolate_velocity(u, S)

    h = prm.h
    big = np.zeros((3, 3 * N, 3 * N, 3 * N))
    U_loop = np.zeros((M, 3))
    for q in range(M):
        s = X[0, q] / h + N  # center copy
        base = np.floor(s).astype(int) - 1
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    wij = (
                        phi(s[0] - (base[0] + i))
                        * phi(s[1] - (base[1] + j))
                        * phi(s[2] - (base[2] + k))
                    )
                    big[:, base[0] + i, base[1] + j, base[2] + k] += (
                        f[0, q] * dq[0, q] / h**3 * wij
                    )
                    U_loop[q] += wij * u[:, (base[0] + i) % N,
                                         (base[1] + j) % N, (base[2] + k) % N]
    folded = np.zeros((3, N, N, N))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                folded += big[
                    :, a * N:(a + 1) * N, b * N:(b + 1) * N, c * N:(c + 1) * N
                ]
    assert np.allclose(F, folded, atol=1e-13 * np.abs(F).max())
    assert np.allclose(U, U_loop, atol=1e-13 * np.abs(u).max())


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_interpolate_constant_and_zero():
    rng = np.random.default_rng(5)
    _, X, _ = shell_arrays(40, rng)
    u = np.zeros((3, PRM.N, PRM.N, PRM.N))
    S = coupling_matrix(X, PRM)
    assert np.abs(interpolate_velocity(u, S)).max() == 0.0
    cvec = np.array([0.3, -1.2, 2.0])
    u += cvec[:, None, None, None]
    U = interpolate_velocity(u, S)
    assert np.allclose(U, cvec, rtol=1e-13)


def test_interpolate_linear_field_first_moment():
    # linear-in-x lattice fields are reproduced exactly away from the wrap
    prm = PRM
    N, h = prm.N, prm.h
    x = h * np.arange(N)
    u = np.zeros((3, N, N, N))
    u[0] = np.broadcast_to(x[:, None, None], (N,) * 3)
    rng = np.random.default_rng(6)
    X = rng.uniform(3 * h, prm.a - 3 * h, size=(1, 25, 3))
    U = interpolate_velocity(u, coupling_matrix(X, prm))
    assert np.allclose(U[:, 0], X[0, :, 0], atol=1e-13)


def test_adjointness_of_spread_and_interpolate():
    rng = np.random.default_rng(7)
    f, X, dq = shell_arrays(120, rng)
    u = rng.standard_normal((3, PRM.N, PRM.N, PRM.N))
    S = coupling_matrix(X, PRM)
    F = spread_force(f, S, dq, PRM)
    U = interpolate_velocity(u, S)
    lhs = float(np.sum(F * u)) * PRM.h**3
    rhs = float(np.sum(f[0] * U * dq[0, :, None]))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_positions_outside_box_are_wrapped():
    rng = np.random.default_rng(8)
    f, X, dq = shell_arrays(30, rng)
    F1 = spread_force(f, coupling_matrix(X, PRM), dq, PRM)
    shift = np.array([PRM.a, -2 * PRM.a, 5 * PRM.a])
    F2 = spread_force(f, coupling_matrix(X + shift, PRM), dq, PRM)
    assert np.allclose(F1, F2, atol=1e-12 * np.abs(F1).max())
