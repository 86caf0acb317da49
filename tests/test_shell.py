import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

from ibshell.geometry import (
    _contraction,
    _covariant_derivative_raw,
    _diff_stack,
    build_christoffel,
    build_geometry,
    components_first,
)
from ibshell.shell import (
    _TERMS,
    FORCE_ON_FLUID_SIGN,
    Displacement,
    MaterialParams,
    ThinShellError,
    _pair_symmetric,
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
    L = oracles.lattice_view(elasticity_form(geom.ginv, LAM, MU))
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
    Abar, Obbar = oracles.lattice_view(coeff.Abar), oracles.lattice_view(coeff.Obbar)
    assert np.allclose(Abar, (2.0 / 3.0) * h0**3 * L0, rtol=1e-12)
    assert np.allclose(Obbar, 2.0 * h0 * L0, rtol=1e-12)
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
    gi = geom.ginv[..., i, j]
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
                    acc += L0[a, b_, g, d] * geom.b[a, b_, i, j] * geom.b[g, d, i, j]
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
    Abbar, Abar, gradb = (oracles.lattice_view(a)
                          for a in (quad.Abbar, quad.Abar, geom.gradb))
    assert np.allclose(
        oracles.lattice_view(quad.Phi), np.einsum("xytr,xytrm->xym", Abbar, gradb),
        rtol=1e-12,
    )
    assert np.allclose(
        oracles.lattice_view(quad.Psi),
        np.einsum("xystmn,xystr->xyrmn", Abar, gradb), rtol=1e-12,
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
    Nrm, T = oracles.lattice_view(geom.Nrm), oracles.lattice_view(geom.T)
    d = decompose_displacement(grid.X0 + eps * Nrm, geom)
    assert np.allclose(d.omega, eps, atol=1e-18)
    assert np.allclose(d.W_low, 0.0, atol=1e-18)

    d = decompose_displacement(grid.X0 + eps * T[..., 0, :], geom)
    assert np.allclose(d.omega, 0.0, atol=1e-18)
    assert np.allclose(d.W_low[0], eps, atol=1e-18)
    assert np.allclose(d.W_low[1], 0.0, atol=1e-18)


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
        omega=np.full((n1, n2), 0.3), W_low=np.zeros((2, n1, n2)),
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
    disp = Displacement(omega=omega, W_low=np.zeros((2, n1, n2)))
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
    disp = Displacement(omega=np.zeros((n1, n2)), W_low=components_first(W))
    f = compute_force(disp, coeff, geom)
    h0 = float(mat.h0)
    oracle = -FORCE_ON_FLUID_SIGN * 2.0 * h0 * DCOEF * oracles.grad_div(
        W, grid.dq1, grid.dq1
    )
    fmu = oracles.lattice_view(f.fmu)
    assert np.abs(fmu - oracle).max() <= 1e-10 * np.abs(oracle).max()
    assert np.abs(f.f3).max() == 0.0


def test_force_linearity(flat65):
    grid, geom, _, coeff = flat65
    rng = np.random.default_rng(7)
    n1, n2 = grid.n1, grid.n2

    def rand_disp():
        return Displacement(
            omega=rng.standard_normal((n1, n2)),
            W_low=components_first(rng.standard_normal((n1, n2, 2))),
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

    zeros = np.zeros((2, n1, n2))
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
    fmu = np.zeros((2, 7, 7))
    cart = force_to_cartesian(f3, fmu, geom)
    assert np.allclose(cart, [0, 0, 1], atol=1e-14)
    fmu[0] = 1.0
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
    Nrm, T, fmu = (oracles.lattice_view(a) for a in (geom.Nrm, geom.T, f.fmu))
    expect = f.f3[i, j] * Nrm[i, j] + (
        fmu[i, j, 0] * T[i, j, 0] + fmu[i, j, 1] * T[i, j, 1]
    )
    assert np.allclose(f.cartesian[i, j], expect, rtol=1e-14, atol=1e-30)


def _lattice_first_force(f):
    """A force density's parts in the lattice-first shapes of the oracles."""
    return {"f3": f.f3, "fmu": oracles.lattice_view(f.fmu), "cartesian": f.cartesian}


def test_force_matches_termwise_oracle():
    # one divergence of the summed T and one double divergence of the summed
    # S against one per term: equal up to the summation order
    from ibshell.simulation import ModelConfig, build_model_shell, thickness_field

    cfg = ModelConfig(N=16)
    helicoid = build_geometry(build_model_shell(cfg))
    h0 = thickness_field(cfg)
    sphere = build_geometry(oracles.sphere_grid(17, 17)[0])
    flat = build_geometry(oracles.flat_grid(17, 13))
    cases = [
        (helicoid, MaterialParams(cfg.lam, cfg.mu, h0), "leading"),
        (helicoid, MaterialParams(cfg.lam, cfg.mu, h0), "quadratic"),
        (sphere, MaterialParams(LAM, MU, 1e-3), "leading"),
        (flat, MaterialParams(LAM, MU, 1e-3), "leading"),
    ]
    rng = np.random.default_rng(11)
    for geom, mat, order in cases:
        coeff = compute_coefficients(geom, mat, order=order)
        if order == "quadratic":  # every row of the table runs
            assert all(coeff.active(f.name) for f in fields(coeff))
        n1, n2 = geom.grid.n1, geom.grid.n2
        disp = Displacement(
            omega=1e-4 * rng.standard_normal((n1, n2)),
            W_low=components_first(1e-4 * rng.standard_normal((n1, n2, 2))),
        )
        got = compute_force(disp, coeff, geom)
        want = oracles.compute_force_termwise(disp, coeff, geom)
        for name in ("f3", "fmu", "cartesian"):
            a, b = _lattice_first_force(got)[name], getattr(want, name)
            scale = np.abs(b).max()
            assert scale > 0, (order, name)
            assert np.abs(a - b).max() <= 1e-13 * scale, (order, name)


# ---------------------------------------------------------------------------
# Components-first sums against np.einsum on lattice-first arrays
# ---------------------------------------------------------------------------
# Each contraction of `shell` sums in the order np.einsum sums the same
# contraction on contiguous lattice-first arrays. A numpy build that sums
# in another order fails one of these by name.


@pytest.fixture(scope="module")
def helicoid16():
    from ibshell.simulation import ModelConfig, build_model_shell, thickness_field

    cfg = ModelConfig(N=16)
    geom = build_geometry(build_model_shell(cfg))
    mat = MaterialParams(cfg.lam, cfg.mu, thickness_field(cfg))
    coeffs = {order: compute_coefficients(geom, mat, order=order)
              for order in ("leading", "quadratic")}
    return geom, coeffs


def _jet(geom, disp):
    """The force's jet, components first."""
    grid, Gamma, W = geom.grid, geom.Gamma, disp.W_low
    return {"omega": disp.omega, "W": W,
            "hess": _covariant_derivative_raw(
                _diff_stack(disp.omega, grid), ("l",), Gamma, grid),
            "gradW": _covariant_derivative_raw(W, ("l",), Gamma, grid)}


@pytest.mark.parametrize(
    "row", range(len(oracles.FORCE_TERMS_EINSUM)),
    ids=[f"{r[0]}-{r[1]}" for r in oracles.FORCE_TERMS_EINSUM],
)
def test_term_contraction_matches_einsum_bitwise(row, helicoid16):
    name, spec, arg, target, sign = oracles.FORCE_TERMS_EINSUM[row]
    t_name, contract, t_arg, t_target, t_sign = _TERMS[row]
    assert (t_name, t_arg, t_target, t_sign) == (name, arg, target, sign)
    geom, coeffs = helicoid16
    n1, n2 = geom.grid.n1, geom.grid.n2
    rng = np.random.default_rng(row)

    def check(C, x):  # lattice-first arrays
        want = np.einsum(spec, np.ascontiguousarray(C), np.ascontiguousarray(x))
        got = contract(np.ascontiguousarray(components_first(C)),
                       np.ascontiguousarray(components_first(x)))
        assert got.shape == want.shape[2:] + (n1, n2)
        assert np.array_equal(oracles.lattice_view(got), want)

    # the helicoid's own fields, in both closures
    disp = decompose_displacement(
        geom.grid.X0 + 1e-4 * rng.standard_normal(geom.grid.X0.shape), geom)
    jet = _jet(geom, disp)
    for coeff in coeffs.values():
        check(oracles.lattice_view(getattr(coeff, name)),
              oracles.lattice_view(jet[arg]))
    # random fields of the same shapes
    c_idx, x_idx = spec.split("->")[0].split(",")
    for _ in range(3):
        check(rng.standard_normal((n1, n2) + (2,) * (len(c_idx) - 2)),
              rng.standard_normal((n1, n2) + (2,) * (len(x_idx) - 2)))


def test_decompose_dots_match_einsum_bitwise(helicoid16):
    geom, _ = helicoid16
    rng = np.random.default_rng(21)
    Nrm, T = (np.ascontiguousarray(oracles.lattice_view(a)) for a in (geom.Nrm, geom.T))
    for scale in (1e-6, 1e-3, 1.0):
        X = geom.grid.X0 + scale * rng.standard_normal(geom.grid.X0.shape)
        d = X - geom.grid.X0
        got = decompose_displacement(X, geom)
        assert np.array_equal(got.omega, np.einsum("xyc,xyc->xy", d, Nrm))
        assert np.array_equal(oracles.lattice_view(got.W_low),
                              np.einsum("xyc,xyac->xya", d, T))


def test_cartesian_assembly_matches_einsum_bitwise(helicoid16):
    geom, _ = helicoid16
    n1, n2 = geom.grid.n1, geom.grid.n2
    rng = np.random.default_rng(22)
    Nrm, T = (np.ascontiguousarray(oracles.lattice_view(a)) for a in (geom.Nrm, geom.T))
    for _ in range(3):
        f3 = rng.standard_normal((n1, n2))
        fmu = rng.standard_normal((n1, n2, 2))
        want = f3[..., None] * Nrm + np.einsum("xym,xymc->xyc", fmu, T)
        got = force_to_cartesian(f3, np.ascontiguousarray(components_first(fmu)), geom)
        assert got.shape == (n1, n2, 3) and got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_force_matches_aos_oracle_bitwise():
    # the whole force on components-first storage against the lattice-first
    # form it replaced: every bit of f3, fmu and the cartesian density
    from ibshell.simulation import ModelConfig, build_model_shell, thickness_field

    cfg = ModelConfig(N=16)
    charts = [
        (build_geometry(build_model_shell(cfg)),
         MaterialParams(cfg.lam, cfg.mu, thickness_field(cfg))),
        (build_geometry(oracles.sphere_grid(17, 17)[0]),
         MaterialParams(LAM, MU, 1e-3)),
        (build_geometry(oracles.flat_grid(17, 13)), MaterialParams(LAM, MU, 1e-3)),
    ]
    rng = np.random.default_rng(12)
    for geom, mat in charts:
        for order in ("leading", "quadratic"):
            coeff = compute_coefficients(geom, mat, order=order)
            X = geom.grid.X0 + 1e-4 * rng.standard_normal(geom.grid.X0.shape)
            disp = decompose_displacement(X, geom)
            got = compute_force(disp, coeff, geom)
            want = oracles.compute_force_aos(disp, coeff, geom)
            for name in ("f3", "fmu", "cartesian"):
                a, b = _lattice_first_force(got)[name], getattr(want, name)
                assert np.abs(b).max() > 0, (order, name)
                assert np.array_equal(a, b), (order, name)


#: the coefficient fields of the rows that add into each accumulator
_ROWS_INTO = {target: {row[0] for row in _TERMS if row[3] == target}
              for target in ("f3", "fmu", "S", "T")}


def test_force_matches_table_order_oracle_bitwise():
    # the force run on its schedule (each jet entry and accumulator alive
    # from its first active row to its last, S and T given way to their
    # divergences after their last rows) against the whole jet and all four
    # accumulators alive through the table: every bit of f3, fmu and the
    # cartesian density, the sign of each zero included. The last cases
    # leave no active row into S, into T, or into f3 and fmu, so an
    # accumulator stays zeros and its divergence is still added
    from ibshell.simulation import ModelConfig, build_model_shell, thickness_field

    rng = np.random.default_rng(14)
    cases = []
    for N in (16, 32):
        cfg = ModelConfig(N=N)
        geom = build_geometry(build_model_shell(cfg))
        mat = MaterialParams(cfg.lam, cfg.mu, thickness_field(cfg))
        cases += [(geom, compute_coefficients(geom, mat, order=order), order)
                  for order in ("leading", "quadratic")]
    sphere = build_geometry(oracles.sphere_grid(17, 17)[0])
    cases += [(sphere, compute_coefficients(sphere, MaterialParams(LAM, MU, 1e-3),
                                            order=order), order)
              for order in ("leading", "quadratic")]
    geom16, full = cases[1][:2]  # N = 16, quadratic: every row active
    for targets in (("S",), ("T",), ("f3", "fmu")):
        names = set().union(*(_ROWS_INTO[t] for t in targets))
        zeroed = replace(full, **{name: np.zeros_like(getattr(full, name))
                                  for name in names})
        assert not any(zeroed.active(name) for name in names)
        cases.append((geom16, zeroed, "without rows into " + " and ".join(targets)))
    for geom, coeff, case in cases:
        X = geom.grid.X0 + 1e-4 * rng.standard_normal(geom.grid.X0.shape)
        disp = decompose_displacement(X, geom)
        got = compute_force(disp, coeff, geom)
        want = oracles.compute_force_table_order(disp, coeff, geom)
        for name in ("f3", "fmu", "cartesian"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.abs(b).max() > 0, (case, name)
            assert _same_bits(a, b), (case, name)


# ---------------------------------------------------------------------------
# The build against its lattice-first einsum form
# ---------------------------------------------------------------------------
# Equal bits here include the sign of every zero: np.einsum never returns -0.


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


#: every contraction of the geometry and coefficient build, by name; in the
#: CARTESIAN ones the label "c" is the length-3 cartesian axis
BUILD_CONTRACTIONS = {
    "metric": "ac,bc->ab",
    "second_form": "mc,nc->mn",
    "christoffel": "sl,smn->lmn",
    "mixed_second_form": "bs,sg->bg",
    "elasticity_gg1": "ab,gd->abgd",
    "elasticity_gg2": "ag,bd->abgd",
    "elasticity_gg3": "ad,bg->abgd",
    "Omega": "stlr,stm,lrn->mn",
    "A_leading": "abgd,ab,gd->",
    "Phibar_leading": "abmn,ab->mn",
    "bmix_b": "as,sb->ab",
    "mm2": "ab,bc->ac",
    "mm3": "ab,bc,cd->ad",
    "mm5": "ab,bc,cd,de,ef->af",
    "Lam": "abgd,->abgd",
    "LamB": "abgd,ab->gd",
    "LamBt": "gd,gm->md",
    "Lam_theta": "abgd,as->sbgd",
    "Lam_theta_gmix": "sbgd,bt->stgd",
    "LamtGt": "stgd,gm->stmd",
    "A_quadratic": "gd,gd->",
    "Abbar_Phibar": "md,dn->mn",
    "Psibar_Obbar": "stmd,dn->stmn",
    "Phi": "tr,trm->m",
    "Psi": "stmn,str->rmn",
    "Omegabar": "mntl,tlr->mnr",
    "decompose_omega": "c,c->",
    "decompose_W": "c,ac->a",
    "cartesian": "m,mc->c",
}
CARTESIAN = {"metric", "second_form", "decompose_omega", "decompose_W", "cartesian"}


@pytest.mark.parametrize("name", BUILD_CONTRACTIONS)
def test_build_contraction_matches_einsum_bitwise(name, helicoid16):
    spec = BUILD_CONTRACTIONS[name]
    ins, out = spec.split("->")
    ops = ins.split(",")
    einsum_spec = ",".join("xy" + op for op in ops) + "->xy" + out
    contract = _contraction(spec)
    geom, _ = helicoid16
    rng = np.random.default_rng(sorted(BUILD_CONTRACTIONS).index(name))
    for n1, n2 in ((geom.grid.n1, geom.grid.n2), (321, 13)):
        for zeros in (0.0, 0.6):
            # a share of the entries made zeros of either sign
            arrs = []
            for op in ops:
                shape = (n1, n2) + tuple(
                    3 if i == "c" and name in CARTESIAN else 2 for i in op)
                a = rng.standard_normal(shape)
                a[rng.random(shape) < zeros] *= 0.0
                arrs.append(a)
            want = np.einsum(einsum_spec, *arrs)
            got = contract(*(np.ascontiguousarray(components_first(a)) for a in arrs))
            assert got.shape == want.shape[2:] + (n1, n2)
            assert _same_bits(oracles.lattice_view(got), want)


def _random_field(rng, shape, zeros=0.5):
    """Normal entries, a share of them made zeros of either sign."""
    a = rng.standard_normal(shape)
    a[rng.random(shape) < zeros] *= 0.0
    return a


def _point_view(rng, n1, n2, k):
    """A components-first view of an (n1, n2, k) point field, as X - X0 is read."""
    return components_first(_random_field(rng, (n1, n2, k)))


def _pair_view(rng, n1, n2):
    """Abar's and Obbar's storage: 9 components read through a pair-symmetric view."""
    return _pair_symmetric(_random_field(rng, (n1, n2)),
                           _random_field(rng, (2, 2, 2, 2, n1, n2)))


def _christoffel_parts(rng, n1, n2):
    """Gamma's lower-pair view, and its bracket in the layout numpy gives it
    on large lattices: the sum of two transposed views, then dg subtracted
    in place (numpy's temporary elision), so not C-contiguous."""
    grid = oracles.flat_grid(n1, n2)
    g = _random_field(rng, (2, 2, n1, n2))
    g = g + g.swapaxes(0, 1)
    dg = _diff_stack(g, grid)
    bracket = dg.transpose(2, 1, 0, 3, 4) + dg.transpose(1, 0, 2, 3, 4)
    bracket -= dg
    ginv = _random_field(rng, (2, 2, n1, n2))
    return build_christoffel(g, ginv, grid), bracket


def _zero_view(shape):
    """The leading closure's zero fields: every stride 0."""
    return np.broadcast_to(0.0, shape)


#: contractions of `src` fed operands in the layouts the build and the force
#: pass them: (spec, maker of the operands from rng and the lattice)
PRODUCTION_LAYOUTS = {
    "decompose_omega": ("c,c->", lambda rng, n1, n2: (
        _point_view(rng, n1, n2, 3), _random_field(rng, (3, n1, n2)))),
    "decompose_W": ("c,ac->a", lambda rng, n1, n2: (
        _point_view(rng, n1, n2, 3), _random_field(rng, (2, 3, n1, n2)))),
    "cartesian": ("m,mc->c", lambda rng, n1, n2: (
        _point_view(rng, n1, n2, 2), _random_field(rng, (2, 3, n1, n2)))),
    "Abar_hess": ("stmn,mn->st", lambda rng, n1, n2: (
        _pair_view(rng, n1, n2), _random_field(rng, (2, 2, n1, n2)))),
    "Omega": ("stlr,stm,lrn->mn", lambda rng, n1, n2: (
        _pair_view(rng, n1, n2), _random_field(rng, (2, 2, 2, n1, n2)),
        _random_field(rng, (2, 2, 2, n1, n2)))),
    "Psi": ("stmn,str->rmn", lambda rng, n1, n2: (
        _pair_view(rng, n1, n2), _random_field(rng, (2, 2, 2, n1, n2)))),
    "Obbar_gradW": ("stnm,st->nm", lambda rng, n1, n2: (
        _pair_view(rng, n1, n2), _random_field(rng, (2, 2, n1, n2)))),
    "christoffel": ("sl,smn->lmn", lambda rng, n1, n2: (
        _random_field(rng, (2, 2, n1, n2)), _christoffel_parts(rng, n1, n2)[1])),
    "Gamma_lower_pair": ("sl,smn->lmn", lambda rng, n1, n2: (
        _random_field(rng, (2, 2, n1, n2)), _christoffel_parts(rng, n1, n2)[0])),
    "Gamma_two_lane": ("smt,t->sm", lambda rng, n1, n2: (
        _christoffel_parts(rng, n1, n2)[0], _random_field(rng, (2, n1, n2)))),
    "Abbar_zero": ("st,->st", lambda rng, n1, n2: (
        _zero_view((2, 2, n1, n2)), _random_field(rng, (n1, n2)))),
    "Psi_zero": ("mst,st->m", lambda rng, n1, n2: (
        _zero_view((2, 2, 2, n1, n2)), _random_field(rng, (2, 2, n1, n2)))),
    "Psibar_zero": ("stmn,st->mn", lambda rng, n1, n2: (
        _zero_view((2, 2, 2, 2, n1, n2)), _random_field(rng, (2, 2, n1, n2)))),
    "Omegabar_zero": ("stm,st->m", lambda rng, n1, n2: (
        _zero_view((2, 2, 2, n1, n2)), _random_field(rng, (2, 2, n1, n2)))),
    "Phi_zero": ("n,n->", lambda rng, n1, n2: (
        _zero_view((2, n1, n2)), _random_field(rng, (2, n1, n2)))),
}


@pytest.mark.parametrize("name", PRODUCTION_LAYOUTS)
def test_contraction_at_production_layouts_matches_einsum_bitwise(name, helicoid16):
    # einsum's order follows its operands' strides, so each contraction is
    # pinned at the layouts production passes: components-first views of
    # point fields, the pair-symmetric views, Gamma's lower-pair view, zero
    # views and a sum of transposed views, against lattice-first einsum on
    # contiguous copies, the sign of each zero included
    spec, make = PRODUCTION_LAYOUTS[name]
    ins, out = spec.split("->")
    einsum_spec = ",".join("xy" + op for op in ins.split(",")) + "->xy" + out
    geom, _ = helicoid16
    rng = np.random.default_rng(sorted(PRODUCTION_LAYOUTS).index(name))
    for n1, n2 in ((geom.grid.n1, geom.grid.n2), (321, 13)):
        arrs = make(rng, n1, n2)
        assert not all(a.flags.c_contiguous for a in arrs)
        want = np.einsum(einsum_spec, *(np.ascontiguousarray(oracles.lattice_view(a))
                                        for a in arrs))
        got = _contraction(spec)(*arrs)
        assert got.shape == want.shape[2:] + (n1, n2)
        assert _same_bits(oracles.lattice_view(got), want)


def _build_chart(name):
    from ibshell.simulation import ModelConfig, build_model_shell, thickness_field

    if name.startswith("helicoid"):
        cfg = ModelConfig(N=int(name[len("helicoid"):]))
        return (build_model_shell(cfg),
                MaterialParams(cfg.lam, cfg.mu, thickness_field(cfg)))
    grid = {"sphere": oracles.sphere_grid(17, 17)[0],
            "cylinder": oracles.cylinder_grid(17, 9)}[name]
    return grid, MaterialParams(LAM, MU, 1e-3)


@pytest.mark.parametrize("chart", ["helicoid16", "helicoid32", "sphere", "cylinder"])
def test_build_matches_einsum_oracle_bitwise(chart):
    # every geometric and coefficient field, built components-first, against
    # the lattice-first einsum build it replaced, in both closures; each is
    # stored as one C-contiguous array with the lattice as its last two axes,
    # except the leading closure's five zero fields, read-only zero views
    # that own no memory, Abar and the leading Obbar, read-only views that
    # read the 9 components distinct under the pair symmetry, and Gamma, a
    # read-only view that reads the 6 distinct under its lower-pair
    # symmetry, each a contiguous (n1, n2) slice
    grid, mat = _build_chart(chart)
    lattice = (grid.n1, grid.n2)
    zero_views = {("leading", name) for name in
                  ("Abbar", "Phi", "Psi", "Psibar", "Omegabar")}
    pair_views = {("leading", "Abar"), ("quadratic", "Abar"), ("leading", "Obbar")}

    def check_storage(a, name):
        assert a.shape[-2:] == lattice, name
        if name in zero_views:
            assert not any(a.strides) and not a.flags.writeable, name
        elif name in pair_views:
            s = a.strides
            lo, hi = byte_bounds(a)
            assert s[0] == s[1] and s[2] == s[3] and not a.flags.writeable, name
            assert a[0, 0, 0, 0].flags.c_contiguous, name
            assert hi - lo == 9 * a[0, 0, 0, 0].nbytes, name
        elif name == "Gamma":
            s = a.strides
            lo, hi = byte_bounds(a)
            assert s[1] == s[2] and not a.flags.writeable, name
            assert a[0, 0, 0].flags.c_contiguous, name
            assert hi - lo == 6 * a[0, 0, 0].nbytes, name
        else:
            assert a.flags.c_contiguous, name

    geom = build_geometry(grid)
    want = oracles.build_geometry_einsum(grid)
    for name, field in want.items():
        got = getattr(geom, name)
        check_storage(got, name)
        assert _same_bits(oracles.lattice_view(got), field), name
    rng = np.random.default_rng(13)
    X = grid.X0 + 1e-4 * rng.standard_normal(grid.X0.shape)
    disp = decompose_displacement(X, geom)
    check_storage(disp.W_low, "W_low")
    for order in ("leading", "quadratic"):
        coeff = compute_coefficients(geom, mat, order=order)
        want_c = oracles.compute_coefficients_einsum(want, mat, order)
        for f in fields(coeff):
            got = getattr(coeff, f.name)
            check_storage(got, (order, f.name))
            assert _same_bits(oracles.lattice_view(got), want_c[f.name]), (order, f.name)
        check_storage(compute_force(disp, coeff, geom).fmu, (order, "fmu"))


def test_leading_coefficients_memory_at_n64():
    # the leading closure's five zero fields are read-only zero views; as
    # np.zeros_like arrays they took 4.9 MB beside the five live fields.
    # Abar and Obbar keep the 9 components distinct under the pair
    # symmetry: stored whole, the build kept 5.26 MB
    from ibshell.simulation import ModelConfig, build_model_shell, thickness_field

    cfg = ModelConfig(N=64)
    geom = build_geometry(build_model_shell(cfg))
    mat = MaterialParams(cfg.lam, cfg.mu, thickness_field(cfg))
    compute_coefficients(geom, mat, order="leading")  # warm
    tracemalloc.start()
    try:
        coeff = compute_coefficients(geom, mat, order="leading")
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    live = sum(getattr(coeff, name).nbytes
               for name in ("A", "Abar", "Phibar", "Omega", "Obbar"))
    assert live > 5.2e6  # 41 fields of 16,025 nodes
    assert kept <= 3.67e6, kept
