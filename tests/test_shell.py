import numpy as np
import pytest

from ibshell.geometry import build_geometry
from ibshell.shell import (
    FORCE_ON_FLUID_SIGN,
    Displacement,
    MaterialParams,
    ThinShellError,
    compute_coefficients,
    compute_force,
    decompose_displacement,
    elasticity_form,
    force_to_cartesian,
)

import oracles

LAM, MU = 26197503.0, 523950.0
DCOEF = 2.0 * MU * (LAM + MU) / (LAM + 2.0 * MU)


@pytest.fixture(scope="module")
def flat65():
    grid = oracles.flat_grid(65, 65, dq1=1.0 / 64, dq2=1.0 / 64)
    geom = build_geometry(grid)
    mat = MaterialParams(lam=LAM, mu=MU, h0=1e-3)
    coeff = compute_coefficients(geom, mat)
    return grid, geom, mat, coeff


def lambda0_flat(lam, mu):
    c1 = lam * mu / (lam + 2.0 * mu)
    eye = np.eye(2)
    return (
        c1 * np.einsum("ab,gd->abgd", eye, eye)
        + 0.5 * mu * np.einsum("ag,bd->abgd", eye, eye)
        + 0.5 * mu * np.einsum("ad,bg->abgd", eye, eye)
    )


# ---------------------------------------------------------------------------
# MaterialParams / coefficient validation
# ---------------------------------------------------------------------------


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialParams(lam=1.0, mu=-1.0, h0=1e-3)
    with pytest.raises(ValueError):
        MaterialParams(lam=-3.0, mu=1.0, h0=1e-3)
    with pytest.raises(ValueError):
        MaterialParams(lam=1.0, mu=1.0, h0=0.0)


def test_thin_shell_guard():
    grid = oracles.cylinder_grid(17, 9, R=0.2)
    geom = build_geometry(grid)
    with pytest.raises(ThinShellError):
        compute_coefficients(geom, MaterialParams(LAM, MU, h0=0.25))
    with pytest.warns(UserWarning, match="thin-shell"):
        compute_coefficients(geom, MaterialParams(LAM, MU, h0=0.12))


def test_lambda0_symmetries():
    grid = oracles.sphere_grid(9, 9)[0]
    geom = build_geometry(grid)
    L = elasticity_form(geom.ginv, LAM, MU)
    assert np.array_equal(L, L.transpose(0, 1, 3, 2, 4, 5))
    assert np.array_equal(L, L.transpose(0, 1, 2, 3, 5, 4))
    assert np.array_equal(L, L.transpose(0, 1, 4, 5, 2, 3))


# ---------------------------------------------------------------------------
# Coefficients: flat limit, curvature contraction, h0 scaling
# ---------------------------------------------------------------------------


def test_flat_coefficients(flat65):
    _, _, mat, coeff = flat65
    h0 = float(mat.h0)
    L0 = lambda0_flat(LAM, MU)
    assert np.allclose(coeff.Abar, (2.0 / 3.0) * h0**3 * L0, rtol=1e-12)
    assert np.allclose(coeff.Obbar, 2.0 * h0 * L0, rtol=1e-12)
    for name in ("A", "Abbar", "Phi", "Phibar", "Psi", "Psibar", "Omega", "Omegabar"):
        assert not coeff.active(name), name


def test_cylinder_A_against_dense_loops():
    R = 0.2
    grid = oracles.cylinder_grid(17, 9, R=R)
    geom = build_geometry(grid)
    h0 = 1e-3
    coeff = compute_coefficients(geom, MaterialParams(LAM, MU, h0))
    # independent dense-loop contraction of 2 h0 Lambda0^{abgd} b_ab b_gd
    i, j = 8, 4
    L0 = np.empty((2, 2, 2, 2))
    gi = geom.ginv[i, j]
    c1 = LAM * MU / (LAM + 2 * MU)
    for a in range(2):
        for b_ in range(2):
            for g in range(2):
                for d in range(2):
                    L0[a, b_, g, d] = c1 * gi[a, b_] * gi[g, d] + 0.5 * MU * (
                        gi[a, g] * gi[b_, d] + gi[a, d] * gi[b_, g]
                    )
    acc = 0.0
    for a in range(2):
        for b_ in range(2):
            for g in range(2):
                for d in range(2):
                    acc += L0[a, b_, g, d] * geom.b[i, j, a, b_] * geom.b[i, j, g, d]
    assert coeff.A[i, j] == pytest.approx(2.0 * h0 * acc, rel=1e-12)
    # magnitude sanity: A ~ 2 h0 Lambda b^2 with b ~ 1/R
    assert abs(coeff.A[i, j]) > 0


def test_coefficients_h0_scaling():
    grid = oracles.cylinder_grid(17, 9, R=0.2)
    geom = build_geometry(grid)
    c1 = compute_coefficients(geom, MaterialParams(LAM, MU, 1e-3))
    c2 = compute_coefficients(geom, MaterialParams(LAM, MU, 2e-3))
    assert np.allclose(c2.A, 2.0 * c1.A, rtol=1e-12)          # linear in h0
    assert np.allclose(c2.Abar, 8.0 * c1.Abar, rtol=1e-12)    # cubic
    assert np.allclose(c2.Obbar, 2.0 * c1.Obbar, rtol=1e-12)
    assert np.allclose(c2.Omega, 8.0 * c1.Omega, rtol=1e-12)


def test_quadratic_closure():
    # flat chart: quadratic == leading exactly
    grid = oracles.flat_grid(9, 9)
    geom = build_geometry(grid)
    mat = MaterialParams(LAM, MU, 1e-3)
    lead = compute_coefficients(geom, mat, order="leading")
    quad = compute_coefficients(geom, mat, order="quadratic")
    for name in ("A", "Abar", "Abbar", "Phi", "Phibar", "Psi", "Psibar",
                 "Omega", "Omegabar", "Obbar"):
        assert np.allclose(getattr(lead, name), getattr(quad, name), atol=1e-18)

    # curved chart: odd coefficients become O(h0^3), identities hold
    grid = oracles.cylinder_grid(17, 9, R=0.2)
    geom = build_geometry(grid)
    quad = compute_coefficients(geom, mat, order="quadratic")
    lead = compute_coefficients(geom, mat, order="leading")
    assert quad.active("Abbar") and quad.active("Psibar")
    # Phi = Abbar contracted with grad b; Psi = Abar contracted with grad b
    assert np.allclose(
        quad.Phi, np.einsum("xytr,xytrm->xym", quad.Abbar, geom.gradb), rtol=1e-12
    )
    assert np.allclose(
        quad.Psi, np.einsum("xystmn,xystr->xyrmn", quad.Abar, geom.gradb),
        rtol=1e-12,
    )
    # corrections are O(h0^2) relative: |quad - lead| <= O((h0/R)^2) * |lead|
    rel = np.abs(quad.Obbar - lead.Obbar).max() / np.abs(lead.Obbar).max()
    assert 0 < rel < 5.0 * (1e-3 / 0.2) ** 2

    with pytest.raises(ValueError, match="order"):
        compute_coefficients(geom, mat, order="cubic")


# ---------------------------------------------------------------------------
# Displacement decomposition
# ---------------------------------------------------------------------------


def test_decompose_trivial_cases(flat65):
    grid, geom, _, _ = flat65
    d = decompose_displacement(grid.X0, geom)
    assert np.all(d.omega == 0) and np.all(d.W_low == 0)

    eps = 1e-4
    d = decompose_displacement(grid.X0 + eps * geom.Nrm, geom)
    assert np.allclose(d.omega, eps, atol=1e-18)
    assert np.allclose(d.W_low, 0.0, atol=1e-18)

    d = decompose_displacement(grid.X0 + eps * geom.T[..., 0, :], geom)
    assert np.allclose(d.omega, 0.0, atol=1e-18)
    assert np.allclose(d.W_low[..., 0], eps, atol=1e-18)
    assert np.allclose(d.W_low[..., 1], 0.0, atol=1e-18)


# ---------------------------------------------------------------------------
# Force operator
# ---------------------------------------------------------------------------


def test_zero_displacement_zero_force(flat65):
    grid, geom, _, coeff = flat65
    f = compute_force(decompose_displacement(grid.X0, geom), coeff, geom)
    assert np.all(f.f3 == 0) and np.all(f.fmu == 0) and np.all(f.cartesian == 0)


def test_constant_normal_offset_annihilated(flat65):
    grid, geom, _, coeff = flat65
    n1, n2 = grid.n1, grid.n2
    disp = Displacement(
        omega=np.full((n1, n2), 0.3), W_low=np.zeros((n1, n2, 2)),
    )
    f = compute_force(disp, coeff, geom)
    scale = np.abs(coeff.Abar).max() / grid.dq1**4
    assert np.abs(f.f3).max() <= 1e-10 * scale


def test_plate_limit_normal_mode(flat65):
    grid, geom, mat, coeff = flat65
    n1, n2 = grid.n1, grid.n2
    q1 = grid.dq1 * np.arange(n1)
    q2 = grid.dq1 * np.arange(n2)
    omega = np.sin(2 * np.pi * (3 * q1[:, None] + 2 * q2[None, :]))
    disp = Displacement(omega=omega, W_low=np.zeros((n1, n2, 2)))
    f = compute_force(disp, coeff, geom)
    h0 = float(mat.h0)
    oracle = FORCE_ON_FLUID_SIGN * (2.0 / 3.0) * h0**3 * DCOEF * oracles.biharmonic(
        omega, grid.dq1, grid.dq1
    )
    assert np.abs(f.f3 - oracle).max() <= 1e-10 * np.abs(oracle).max()
    assert np.abs(f.fmu).max() == 0.0


def test_plate_limit_tangential_gradient_field(flat65):
    grid, geom, mat, coeff = flat65
    n1, n2 = grid.n1, grid.n2
    q1 = grid.dq1 * np.arange(n1)
    q2 = grid.dq1 * np.arange(n2)
    chi = np.cos(2 * np.pi * (2 * q1[:, None] - q2[None, :]))
    W = np.stack(
        [
            oracles.hybrid_diff_matrix(n1, grid.dq1) @ chi,
            chi @ oracles.hybrid_diff_matrix(n2, grid.dq1).T,
        ],
        axis=-1,
    )
    disp = Displacement(omega=np.zeros((n1, n2)), W_low=W)
    f = compute_force(disp, coeff, geom)
    h0 = float(mat.h0)
    oracle = -FORCE_ON_FLUID_SIGN * 2.0 * h0 * DCOEF * oracles.grad_div(
        W, grid.dq1, grid.dq1
    )
    assert np.abs(f.fmu - oracle).max() <= 1e-10 * np.abs(oracle).max()
    assert np.abs(f.f3).max() == 0.0


def test_force_linearity(flat65):
    grid, geom, _, coeff = flat65
    rng = np.random.default_rng(7)
    n1, n2 = grid.n1, grid.n2

    def rand_disp():
        return Displacement(
            omega=rng.standard_normal((n1, n2)),
            W_low=rng.standard_normal((n1, n2, 2)),
        )

    d1, d2 = rand_disp(), rand_disp()
    a, b = 1.7, -0.4
    comb = Displacement(
        omega=a * d1.omega + b * d2.omega,
        W_low=a * d1.W_low + b * d2.W_low,
    )
    f1 = compute_force(d1, coeff, geom)
    f2 = compute_force(d2, coeff, geom)
    fc = compute_force(comb, coeff, geom)
    ref = np.abs(fc.cartesian).max()
    assert np.abs(
        fc.cartesian - a * f1.cartesian - b * f2.cartesian
    ).max() <= 1e-12 * ref


def test_energy_gradient_consistency(flat65):
    # discrete work <f, d_omega> matches the centered difference of the
    # quadratic energy 1/2 <omega, L omega>, L = (2/3) h0^3 D biharmonic,
    # for fields supported away from the boundary rows
    grid, geom, mat, coeff = flat65
    n1, n2 = grid.n1, grid.n2
    rng = np.random.default_rng(11)
    h0 = float(mat.h0)

    def bump_field():
        q1 = np.linspace(0, 1, n1)[:, None]
        q2 = np.linspace(0, 1, n2)[None, :]
        window = (np.sin(np.pi * q1) * np.sin(np.pi * q2)) ** 4
        window[:5] = window[-5:] = 0.0
        window[:, :5] = window[:, -5:] = 0.0
        modes = sum(
            rng.standard_normal() * np.sin(np.pi * (k * q1 + m * q2))
            for k in range(1, 4)
            for m in range(1, 4)
        )
        return window * modes

    omega = 1e-3 * bump_field()
    delta = 1e-3 * bump_field()

    def energy(w):
        Lw = (2.0 / 3.0) * h0**3 * DCOEF * oracles.biharmonic(w, grid.dq1, grid.dq1)
        return 0.5 * float(np.sum(w * Lw))

    zeros = np.zeros((n1, n2, 2))
    f = compute_force(Displacement(omega, zeros), coeff, geom)
    work = float(np.sum(f.f3 * delta))
    eps = 1e-3
    dE = (
        energy(omega + eps * delta) - energy(omega - eps * delta)
    ) / (2.0 * eps)
    # force on the fluid is minus the energy gradient
    assert work == pytest.approx(-dE, rel=1e-6)


def test_force_to_cartesian_projection():
    grid = oracles.flat_grid(7, 7)
    geom = build_geometry(grid)
    f3 = np.ones((7, 7))
    fmu = np.zeros((7, 7, 2))
    cart = force_to_cartesian(f3, fmu, geom)
    assert np.allclose(cart, [0, 0, 1], atol=1e-14)
    fmu[..., 0] = 1.0
    cart = force_to_cartesian(np.zeros((7, 7)), fmu, geom)
    assert np.allclose(cart, [1, 0, 0], atol=1e-14)


def test_cartesian_assembly_identity_helicoid():
    from ibshell.simulation import ModelConfig, build_model_shell, thickness_field

    cfg = ModelConfig(N=16)
    grid = build_model_shell(cfg)
    geom = build_geometry(grid)
    mat = MaterialParams(cfg.lam, cfg.mu, thickness_field(cfg))
    coeff = compute_coefficients(geom, mat)
    rng = np.random.default_rng(3)
    X = grid.X0 + 1e-6 * rng.standard_normal(grid.X0.shape)
    f = compute_force(decompose_displacement(X, geom), coeff, geom)
    # re-project with plain per-node dot products
    i, j = 40, 3
    expect = f.f3[i, j] * geom.Nrm[i, j] + (
        f.fmu[i, j, 0] * geom.T[i, j, 0] + f.fmu[i, j, 1] * geom.T[i, j, 1]
    )
    assert np.allclose(f.cartesian[i, j], expect, rtol=1e-14, atol=1e-30)
