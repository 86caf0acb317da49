import itertools

import numpy as np
import pytest

from ibshell.geometry import (
    DegenerateFrameError,
    SingularMetricError,
    SurfaceGrid,
    _covariant_derivative_raw,
    _covariant_divergence,
    build_frame,
    build_geometry,
    build_metric,
    components_first,
    mixed_second_form,
    surface_diff,
)

import oracles


# ---------------------------------------------------------------------------
# SurfaceGrid validation
# ---------------------------------------------------------------------------


def test_grid_rejects_small_lattice():
    X0 = np.zeros((4, 5, 3))
    with pytest.raises(ValueError, match="5x5"):
        SurfaceGrid(dq1=0.1, dq2_of_row=0.1, X0=X0)


def test_grid_rejects_bad_spacings_and_nonfinite():
    g = oracles.flat_grid(6, 6)
    with pytest.raises(ValueError):
        SurfaceGrid(dq1=-1.0, dq2_of_row=0.1, X0=g.X0)
    with pytest.raises(ValueError):
        SurfaceGrid(dq1=0.1, dq2_of_row=np.zeros(6), X0=g.X0)
    bad = g.X0.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        SurfaceGrid(dq1=0.1, dq2_of_row=0.1, X0=bad)


def test_grid_node_areas_row_dependent():
    g = oracles.flat_grid(6, 7, dq1=0.1, dq2=0.2)
    rows = np.linspace(0.2, 0.4, 6)
    g2 = SurfaceGrid(dq1=0.1, dq2_of_row=rows, X0=g.X0)
    assert g2.node_areas.shape == (6, 7)
    assert np.allclose(g2.node_areas[:, 3], 0.1 * rows)


# ---------------------------------------------------------------------------
# surface_diff
# ---------------------------------------------------------------------------


def test_diff_constant_is_zero():
    f = np.full((7, 6), 3.7)
    assert np.all(surface_diff(f, 1, 0.1) == 0.0)
    assert np.all(surface_diff(f, 2, np.linspace(0.1, 0.2, 7)) == 0.0)


def test_diff_linear_is_exact_everywhere():
    c = -2.5
    q1 = 0.1 * np.arange(9)
    f = np.broadcast_to(c * q1[:, None], (9, 5)).copy()
    d = surface_diff(f, 1, 0.1)
    assert np.allclose(d, c, rtol=0, atol=1e-13)


def test_diff_quadratic_interior_exact_boundary_biased():
    # phi(q1) = q1^2 on dq1 = 0.1: hand-evaluated 2-point one-sided stencils
    dq1 = 0.1
    q1 = dq1 * np.arange(6)
    f = np.broadcast_to((q1**2)[:, None], (6, 5)).copy()
    d = surface_diff(f, 1, dq1)
    assert np.allclose(d[1:-1], 2.0 * q1[1:-1, None], atol=1e-13)
    # first node, forward: ((0.1)^2 - 0)/0.1 = 0.1 = 2*q1 + dq1
    assert np.allclose(d[0], 0.1, atol=1e-13)
    # last node, backward: (0.5^2 - 0.4^2)/0.1 = 0.9 = 2*q1 - dq1
    assert np.allclose(d[-1], 0.9, atol=1e-13)


def test_diff_axis2_uses_row_spacing():
    rows = np.array([0.1, 0.2, 0.4, 0.5, 0.25])
    f = np.empty((5, 6))
    for i, d in enumerate(rows):
        f[i] = 3.0 * d * np.arange(6)  # linear in the row's own q2
    d = surface_diff(f, 2, rows)
    assert np.allclose(d, 3.0, atol=1e-12)


def test_diff_acts_on_the_last_two_axes():
    # components lead, the lattice is last: each component is differenced as
    # the lattice-first form differences it, bit for bit, into `out`
    rng = np.random.default_rng(4)
    rows = np.linspace(0.1, 0.3, 7)
    v = rng.standard_normal((3, 2, 7, 6))
    for axis, spacing in ((1, 0.1), (2, rows)):
        out = np.empty_like(v)
        assert surface_diff(v, axis, spacing, out=out) is out
        want = oracles.surface_diff_aos(np.moveaxis(v, (2, 3), (0, 1)), axis, spacing)
        assert np.array_equal(out, np.moveaxis(want, (0, 1), (2, 3)))
        assert np.array_equal(surface_diff(v, axis, spacing), out)


def test_components_first_storage_round_trip():
    # components_first is the np.moveaxis view
    rng = np.random.default_rng(6)
    for shape in ((23, 7), (23, 7, 3), (600, 5, 2, 2, 2, 2)):
        a = rng.standard_normal(shape)
        assert np.array_equal(components_first(a), np.moveaxis(a, (0, 1), (-2, -1)))


def test_diff_needs_two_nodes():
    with pytest.raises(ValueError, match="at least 2"):
        surface_diff(np.zeros((1, 5)), 1, 0.1)


# ---------------------------------------------------------------------------
# Frame / metric / curvature on reference charts
# ---------------------------------------------------------------------------


def test_frame_flat_sheet_exact():
    g = oracles.flat_grid(7, 7)
    T, N = map(oracles.lattice_view, build_frame(g))
    assert np.allclose(T[..., 0, :], [1, 0, 0], atol=1e-14)
    assert np.allclose(T[..., 1, :], [0, 1, 0], atol=1e-14)
    assert np.allclose(N, [0, 0, 1], atol=1e-14)


def test_frame_degenerate_raises():
    X0 = np.zeros((5, 5, 3))
    X0[..., 0] = 0.1 * np.arange(5)[:, None]
    X0[..., 1] = 0.1 * np.arange(5)[:, None]  # T2 parallel to T1
    with pytest.raises(DegenerateFrameError):
        build_frame(SurfaceGrid(dq1=0.1, dq2_of_row=0.1, X0=X0))


def test_cylinder_frame_and_metric():
    R = 0.2
    g = oracles.cylinder_grid(65, 9, R=R)
    T_cf, N = build_frame(g)
    T, N = oracles.lattice_view(T_cf), oracles.lattice_view(N)
    inner = slice(1, -1)
    # |T1| = 1 up to O(dq^2); N radial (outward here)
    assert np.allclose(np.linalg.norm(T[inner, :, 0, :], axis=-1), 1.0, atol=1e-3)
    radial = g.X0.copy()
    radial[..., 2] = 0.0
    radial /= np.linalg.norm(radial, axis=-1, keepdims=True)
    assert np.allclose(N[inner], radial[inner], atol=1e-3)
    met, ginv = map(oracles.lattice_view, build_metric(T_cf))
    assert np.allclose(met[inner], np.eye(2), atol=1e-3)
    assert np.allclose(
        np.einsum("xyab,xybc->xyac", ginv, met), np.eye(2), atol=1e-12
    )


def test_metric_singular_raises():
    X0 = np.zeros((5, 5, 3))
    X0[..., 0] = 1e-8 * np.arange(5)[:, None]
    X0[..., 1] = 0.1 * np.arange(5)[None, :]
    X0[..., 2] = 1e-9 * np.arange(5)[:, None]  # keep the frame barely non-parallel
    grid = SurfaceGrid(dq1=0.1, dq2_of_row=0.1, X0=X0)
    T = np.zeros((2, 3, 5, 5))
    T[0, 0] = 1e-8
    T[1, 1] = 1.0
    with pytest.raises(SingularMetricError):
        build_metric(T)


def test_second_form_flat_zero_cylinder_curved():
    gf = oracles.flat_grid(7, 7)
    geo = build_geometry(gf)
    assert np.allclose(geo.b, 0.0, atol=1e-13)

    R = 0.2
    gc = oracles.cylinder_grid(65, 9, R=R)
    b = oracles.lattice_view(build_geometry(gc).b)
    _, b_exact, _ = oracles.cylinder_exact(gc, R)
    # rows touching the one-sided stencils carry an O(1) layer; the interior
    # (two layers in) is second-order accurate
    assert np.allclose(b[2:-2], b_exact[2:-2], atol=1e-3 / R)
    # symmetry is exact by construction
    assert np.array_equal(b, np.swapaxes(b, -1, -2))


def test_second_form_sphere_patch():
    R = 0.3
    grid, TH = oracles.sphere_grid(25, 25, R=R)
    b = oracles.lattice_view(build_geometry(grid).b)
    _, b_exact, _ = oracles.sphere_exact(TH, R)
    inner = (slice(2, -2), slice(2, -2))
    assert np.allclose(b[inner], b_exact[inner], atol=3e-3 / R)


def test_christoffel_flat_and_metric_constant_chart_zero():
    geo = build_geometry(oracles.flat_grid(7, 7))
    assert np.allclose(geo.Gamma, 0.0, atol=1e-13)
    # skewed linear chart: metric constant but not the identity
    n = 7
    q1, q2 = 0.1 * np.arange(n), 0.1 * np.arange(n)
    X0 = np.zeros((n, n, 3))
    X0[..., 0] = q1[:, None] + 0.3 * q2[None, :]
    X0[..., 1] = q2[None, :]
    geo = build_geometry(SurfaceGrid(dq1=0.1, dq2_of_row=0.1, X0=X0))
    assert np.allclose(geo.Gamma, 0.0, atol=1e-12)


def test_christoffel_polar_chart():
    grid, Q1 = oracles.polar_grid(33, 33)
    Gamma = oracles.lattice_view(build_geometry(grid).Gamma)
    inner = (slice(2, -2), slice(2, -2))
    assert np.allclose(Gamma[inner][..., 0, 1, 1], -Q1[inner], atol=2e-3)
    assert np.allclose(Gamma[inner][..., 1, 0, 1], 1.0 / Q1[inner], atol=2e-3)
    # lower-index symmetry exact
    assert np.array_equal(Gamma, np.swapaxes(Gamma, -1, -2))


def test_helicoid_frame_matches_analytic():
    from ibshell.simulation import ModelConfig, build_model_shell

    cfg = ModelConfig(N=16)
    grid = build_model_shell(cfg)
    ora = oracles.HelicoidOracle(cfg.R, cfg.H, cfg.alpha, cfg.w0, cfg.w1, cfg.L_BM)
    n1, n2 = grid.n1, grid.n2
    u = cfg.dq1 * np.arange(1, n1 + 1)
    c = np.arange(1, n2 + 1) / (n2 - 1)
    U, C = np.meshgrid(u, c, indexing="ij")
    T1, T2, n = ora.frame(U, C)
    T, N = map(oracles.lattice_view, build_frame(grid))
    inner = (slice(1, -1), slice(1, -1))
    scale = np.linalg.norm(T1, axis=-1).max()
    assert np.allclose(T[..., 0, :][inner], T1[inner], atol=2e-3 * scale)
    assert np.allclose(T[..., 1, :][inner], T2[inner], atol=2e-3)
    assert np.allclose(N[inner], n[inner], atol=2e-3)


# ---------------------------------------------------------------------------
# Covariant derivative
# ---------------------------------------------------------------------------


def test_covd_scalar_reduces_to_surface_diff():
    grid, _ = oracles.polar_grid(9, 9)
    geo = build_geometry(grid)
    rng = np.random.default_rng(0)
    f = rng.standard_normal((9, 9))
    out = _covariant_derivative_raw(f, (), geo.Gamma, grid)
    assert np.array_equal(out[0], surface_diff(f, 1, grid.dq1))
    assert np.array_equal(out[1], surface_diff(f, 2, grid.dq2_of_row))


def test_covd_metric_compatibility():
    # grad g vanishes identically: the Gamma terms cancel D g algebraically
    for grid in (oracles.cylinder_grid(17, 9), oracles.sphere_grid(17, 17)[0]):
        geo = build_geometry(grid)
        gg = _covariant_derivative_raw(geo.g, ("l", "l"), geo.Gamma, grid)
        scale = np.abs(geo.Gamma).max() + 1.0
        assert np.abs(gg).max() < 1e-12 * scale


def test_covd_vector_flat_is_plain_derivative():
    grid = oracles.flat_grid(9, 9)
    geo = build_geometry(grid)
    rng = np.random.default_rng(1)
    W = rng.standard_normal((2, 9, 9))  # components first
    out = _covariant_derivative_raw(W, ("u",), geo.Gamma, grid)
    expect = np.stack(
        [surface_diff(W, 1, grid.dq1), surface_diff(W, 2, grid.dq2_of_row)]
    )
    assert np.allclose(out, expect, atol=1e-13)


def test_covd_upper_and_lower_signs():
    # one-node sanity check against the index formula, dense loops
    grid, _ = oracles.polar_grid(9, 9)
    geo = build_geometry(grid)
    rng = np.random.default_rng(2)
    V = rng.standard_normal((2, 9, 9))  # components first
    Gamma = geo.Gamma
    up = _covariant_derivative_raw(V, ("u",), Gamma, grid)
    lo = _covariant_derivative_raw(V, ("l",), Gamma, grid)
    dV = np.stack(
        [surface_diff(V, 1, grid.dq1), surface_diff(V, 2, grid.dq2_of_row)]
    )
    i, j = 4, 5
    for a in range(2):
        for v in range(2):
            exp_up = dV[a, v, i, j] + sum(
                Gamma[v, a, s, i, j] * V[s, i, j] for s in range(2)
            )
            exp_lo = dV[a, v, i, j] - sum(
                Gamma[s, a, v, i, j] * V[s, i, j] for s in range(2)
            )
            assert up[a, v, i, j] == pytest.approx(exp_up, abs=1e-14)
            assert lo[a, v, i, j] == pytest.approx(exp_lo, abs=1e-14)


def test_covd_valence_limit():
    grid = oracles.flat_grid(6, 6)
    Gamma = build_geometry(grid).Gamma
    big = np.zeros((2, 2, 2, 2, 6, 6))
    # 4 slots is the supported maximum
    out = _covariant_derivative_raw(big, ("l",) * 4, Gamma, grid)
    assert out.shape == (2,) * 5 + (6, 6)
    too_big = np.zeros((2,) * 5 + (6, 6))
    with pytest.raises(ValueError, match="valence"):
        _covariant_derivative_raw(too_big, ("l",) * 5, Gamma, grid)


def test_covd_matches_einsum_oracle_bitwise():
    # every 'l'/'u' pattern of valence 0..4, on a curved chart and on the
    # model helicoid (row-dependent dq2): the components-first slice loop
    # against the lattice-first einsum form, and against the lattice-first
    # slice loop it replaced
    from ibshell.simulation import ModelConfig, build_model_shell

    sphere, _ = oracles.sphere_grid(9, 11)
    helicoid = build_model_shell(ModelConfig(N=16))
    assert np.ptp(helicoid.dq2_of_row) > 0
    rng = np.random.default_rng(3)
    for grid in (sphere, helicoid):
        geo = build_geometry(grid)
        Gamma = np.ascontiguousarray(oracles.lattice_view(geo.Gamma))
        for valence in range(5):
            A = rng.standard_normal((grid.n1, grid.n2) + (2,) * valence)
            A_cf = np.ascontiguousarray(components_first(A))
            for types in itertools.product("lu", repeat=valence):
                got = oracles.lattice_view(_covariant_derivative_raw(
                    A_cf, types, geo.Gamma, grid))
                want = oracles.covariant_derivative_einsum(A, types, Gamma, grid)
                assert np.array_equal(got, want), types
                aos = oracles.covariant_derivative_aos(A, types, Gamma, grid)
                assert np.array_equal(got, aos), types


def test_covariant_divergence_is_the_derivative_trace_bitwise():
    # the divergence forms only the traced components, each as the full
    # derivative forms it: every slot of every pattern of valence 1..3
    from ibshell.simulation import ModelConfig, build_model_shell

    rng = np.random.default_rng(5)
    for grid in (build_model_shell(ModelConfig(N=16)), oracles.sphere_grid(9, 11)[0]):
        Gamma = build_geometry(grid).Gamma
        for valence in range(1, 4):
            A = rng.standard_normal((2,) * valence + (grid.n1, grid.n2))
            for types in itertools.product("lu", repeat=valence):
                cd = _covariant_derivative_raw(A, types, Gamma, grid)
                for slot in range(valence):
                    lead = (slice(None),) * slot
                    want = cd[(0,) + lead + (0,)] + cd[(1,) + lead + (1,)]
                    got = _covariant_divergence(A, types, slot, Gamma, grid)
                    assert np.array_equal(got, want), (types, slot)


def test_gradb_matches_lattice_first_build_bitwise():
    # gradb is built components-first; the lattice-first slice loop on the
    # contiguous fields gives every bit of its lattice view
    from ibshell.simulation import ModelConfig, build_model_shell

    for grid in (build_model_shell(ModelConfig(N=16)), oracles.sphere_grid(9, 11)[0]):
        geo = build_geometry(grid)
        bmix = oracles.lattice_view(mixed_second_form(geo.b, geo.ginv))
        want = oracles.covariant_derivative_aos(
            bmix, ("l", "u"), np.ascontiguousarray(oracles.lattice_view(geo.Gamma)),
            grid,
        )
        gradb = oracles.lattice_view(geo.gradb)
        assert gradb.shape == want.shape
        assert np.array_equal(gradb, want)


# ---------------------------------------------------------------------------
# Whole-geometry invariants
# ---------------------------------------------------------------------------


def test_geometry_invariants_on_curved_charts():
    for grid in (
        oracles.cylinder_grid(17, 9),
        oracles.sphere_grid(17, 17)[0],
    ):
        geo = build_geometry(grid)
        Nrm, T, g, ginv = (oracles.lattice_view(getattr(geo, name))
                           for name in ("Nrm", "T", "g", "ginv"))
        # unit normal
        assert np.allclose(np.linalg.norm(Nrm, axis=-1), 1.0, atol=1e-12)
        # N orthogonal to the discrete frame (cross-product construction)
        assert np.abs(np.einsum("xyc,xyac->xya", Nrm, T)).max() < 1e-12
        # ginv * g = identity
        assert np.allclose(
            np.einsum("xyab,xybc->xyac", ginv, g), np.eye(2), atol=1e-10
        )
        # g SPD
        assert (g[..., 0, 0] > 0).all()
        assert (g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2 > 0).all()


def test_geometry_convergence_order_cylinder():
    # quick order check (the full sweep lives in the acceptance suite)
    R = 0.2
    errs = []
    for n1 in (9, 17, 33):
        grid = oracles.cylinder_grid(n1, 9, R=R)
        b = oracles.lattice_view(build_geometry(grid).b)
        _, b_exact, _ = oracles.cylinder_exact(grid, R)
        errs.append(np.abs((b - b_exact)[2:-2, 2:-2]).max())
    assert oracles.observed_order(errs) > 1.9
