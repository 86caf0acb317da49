"""Independent oracles for the test suite.

Everything here is computed by a route separate from the production code:
analytic chart geometry (hand-differentiated closed forms), dense difference
matrices, and plain-loop contractions. Tests freeze expected values from these
oracles, never from the code under test.
"""

import numpy as np
import scipy.fft
from scipy import sparse

from ibshell.fluid import upwind_advection
from ibshell.geometry import SurfaceGrid, _covariant_derivative_raw, _diff_stack
from ibshell.shell import (
    FORCE_ON_FLUID_SIGN,
    ShellForceDensity,
    _cov_divergence,
    _double_divergence,
    force_to_cartesian,
)

# ---------------------------------------------------------------------------
# Test charts
# ---------------------------------------------------------------------------


def flat_grid(n1=17, n2=17, dq1=0.05, dq2=0.05):
    q1 = dq1 * np.arange(n1)
    q2 = dq2 * np.arange(n2)
    X0 = np.zeros((n1, n2, 3))
    X0[..., 0] = q1[:, None]
    X0[..., 1] = q2[None, :]
    return SurfaceGrid(dq1=dq1, dq2_of_row=dq2, X0=X0)


def cylinder_grid(n1=17, n2=9, R=0.2, arc=0.6, height=0.1):
    """Chart X0 = (R cos(q1/R), R sin(q1/R), q2); unit-speed in both directions."""
    dq1 = arc / (n1 - 1)
    dq2 = height / (n2 - 1)
    q1 = dq1 * np.arange(n1)
    q2 = dq2 * np.arange(n2)
    X0 = np.empty((n1, n2, 3))
    X0[..., 0] = (R * np.cos(q1 / R))[:, None]
    X0[..., 1] = (R * np.sin(q1 / R))[:, None]
    X0[..., 2] = q2[None, :]
    return SurfaceGrid(dq1=dq1, dq2_of_row=dq2, X0=X0)


def cylinder_exact(grid, R):
    """Analytic g, b, Gamma for the cylinder chart (outward normal)."""
    n1, n2 = grid.n1, grid.n2
    g = np.broadcast_to(np.eye(2), (n1, n2, 2, 2)).copy()
    b = np.zeros((n1, n2, 2, 2))
    b[..., 0, 0] = 1.0 / R
    Gamma = np.zeros((n1, n2, 2, 2, 2))
    return g, b, Gamma


def sphere_grid(n1=17, n2=17, R=0.3, th0=0.7, th1=1.3, ph0=0.0, ph1=0.8):
    """Polar-cap-free patch of a sphere; chart (q1, q2) = (R*theta, R*phi)."""
    dq1 = R * (th1 - th0) / (n1 - 1)
    dq2 = R * (ph1 - ph0) / (n2 - 1)
    th = th0 + (th1 - th0) * np.arange(n1) / (n1 - 1)
    ph = ph0 + (ph1 - ph0) * np.arange(n2) / (n2 - 1)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    X0 = np.stack(
        [R * np.sin(TH) * np.cos(PH), R * np.sin(TH) * np.sin(PH), R * np.cos(TH)],
        axis=-1,
    )
    return SurfaceGrid(dq1=dq1, dq2_of_row=dq2, X0=X0), TH


def sphere_exact(TH, R):
    """Analytic g, b, Gamma for the sphere patch in (R*theta, R*phi)."""
    n1, n2 = TH.shape
    g = np.zeros((n1, n2, 2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = np.sin(TH) ** 2
    b = g / R  # outward normal: b = g/R
    Gamma = np.zeros((n1, n2, 2, 2, 2))
    # chart x1 = R*theta, x2 = R*phi: Gamma^1_22 = -sin th cos th / R,
    # Gamma^2_12 = Gamma^2_21 = cot th / R
    Gamma[..., 0, 1, 1] = -np.sin(TH) * np.cos(TH) / R
    Gamma[..., 1, 0, 1] = Gamma[..., 1, 1, 0] = 1.0 / (R * np.tan(TH))
    return g, b, Gamma


def polar_grid(n1=17, n2=17, r0=0.5, r1=1.5, phi1=0.9):
    """Plane in polar coordinates: X0 = (q1 cos q2, q1 sin q2, 0)."""
    dq1 = (r1 - r0) / (n1 - 1)
    dq2 = phi1 / (n2 - 1)
    q1 = r0 + dq1 * np.arange(n1)
    q2 = dq2 * np.arange(n2)
    Q1, Q2 = np.meshgrid(q1, q2, indexing="ij")
    X0 = np.stack([Q1 * np.cos(Q2), Q1 * np.sin(Q2), np.zeros_like(Q1)], axis=-1)
    return SurfaceGrid(dq1=dq1, dq2_of_row=dq2, X0=X0), Q1


# ---------------------------------------------------------------------------
# Helicoidal strip oracle
# ---------------------------------------------------------------------------
# The production lattice stores nodes at (q1 = k1*dq1, q2 = k2*dq2(q1)) and
# differences the stored arrays, so lattice direction 1 follows lines of
# constant c = k2/(n2-1) (not constant q2). The analytic limit of the scheme
# is therefore the frame (d/du at fixed c, (1/w) d/dc) of the chart
#   Z(u, c) = gamma(u) + w(u)*(c - 1/2) * nh(u).


class HelicoidOracle:
    def __init__(self, R, H, alpha, w0, w1, L_BM):
        self.R, self.H, self.alpha = R, H, alpha
        self.w0, self.wslope = w0, (w1 - w0) / L_BM

    def w(self, u):
        return self.w0 + self.wslope * u

    def frame(self, u, c):
        """T1, T2 (lattice-direction tangents) and the unit normal."""
        R, H, al = self.R, self.H, self.alpha
        s, co = np.sin(al * u), np.cos(al * u)
        w = self.w(u)
        m = w * (c - 0.5)
        nh = np.stack([-co, -s, np.zeros_like(s)], axis=-1)
        nhp = np.stack([al * s, -al * co, np.zeros_like(s)], axis=-1)
        gam_p = np.stack([-R * al * s, R * al * co, H * al * np.ones_like(s)], axis=-1)
        T1 = gam_p + (self.wslope * (c - 0.5))[..., None] * nh + m[..., None] * nhp
        T2 = nh
        num = np.stack([H * s, -H * co, R - m], axis=-1)
        rho = np.sqrt(H**2 + (R - m) ** 2)
        n = num / rho[..., None]
        return T1, T2, n

    def metric(self, u, c):
        R, H, al = self.R, self.H, self.alpha
        w = self.w(u)
        m = w * (c - 0.5)
        wp = self.wslope
        g = np.zeros(np.shape(u) + (2, 2))
        g[..., 0, 0] = (R**2 + H**2) * al**2 + (wp * (c - 0.5)) ** 2 \
            + (m * al) ** 2 - 2.0 * R * al**2 * m
        g[..., 0, 1] = g[..., 1, 0] = wp * (c - 0.5)
        g[..., 1, 1] = 1.0
        return g

    def metric_derivs(self, u, c):
        """(d1 g, d2 g) with d1 = d/du at fixed c and d2 = (1/w) d/dc."""
        R, al = self.R, self.alpha
        w = self.w(u)
        m = w * (c - 0.5)
        wp = self.wslope
        m_u = wp * (c - 0.5)
        d1 = np.zeros(np.shape(u) + (2, 2))
        d1[..., 0, 0] = 2.0 * al**2 * m_u * (m - R)
        d2 = np.zeros_like(d1)
        d2[..., 0, 0] = 2.0 * wp**2 * (c - 0.5) / w + 2.0 * al**2 * m - 2.0 * R * al**2
        d2[..., 0, 1] = d2[..., 1, 0] = wp / w
        return d1, d2

    def second_form(self, u, c):
        """Symmetrized b_{mu nu} = sym((d_mu n) . T_nu) in the lattice frame."""
        R, H, al = self.R, self.H, self.alpha
        s, co = np.sin(al * u), np.cos(al * u)
        w = self.w(u)
        m = w * (c - 0.5)
        m_u = self.wslope * (c - 0.5)
        T1, T2, _ = self.frame(u, c)
        num = np.stack([H * s, -H * co, R - m], axis=-1)
        rho = np.sqrt(H**2 + (R - m) ** 2)
        # d/du of n = num/rho
        dnum_u = np.stack([H * al * co, H * al * s, -m_u], axis=-1)
        drho_u = -(R - m) * m_u / rho
        dn_u = dnum_u / rho[..., None] - num * (drho_u / rho**2)[..., None]
        # (1/w) d/dc of n
        dnum_c = np.stack([np.zeros_like(s), np.zeros_like(s), -w], axis=-1)
        drho_c = -(R - m) * w / rho
        dn_c = (dnum_c / rho[..., None] - num * (drho_c / rho**2)[..., None]) / w[..., None]
        b = np.empty(np.shape(u) + (2, 2))
        b[..., 0, 0] = np.sum(dn_u * T1, axis=-1)
        b[..., 0, 1] = np.sum(dn_u * T2, axis=-1)
        b[..., 1, 0] = np.sum(dn_c * T1, axis=-1)
        b[..., 1, 1] = np.sum(dn_c * T2, axis=-1)
        return 0.5 * (b + np.swapaxes(b, -1, -2))

    def christoffel(self, u, c):
        g = self.metric(u, c)
        d1, d2 = self.metric_derivs(u, c)
        dg = np.stack([d1, d2], axis=-3)  # [sig, mu, nu]
        det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
        ginv = np.empty_like(g)
        ginv[..., 0, 0] = g[..., 1, 1] / det
        ginv[..., 1, 1] = g[..., 0, 0] / det
        ginv[..., 0, 1] = ginv[..., 1, 0] = -g[..., 0, 1] / det
        bracket = (
            np.moveaxis(dg, [-3, -2, -1], [-1, -2, -3])  # D_nu g_{mu sig}
            + np.moveaxis(dg, [-3, -2, -1], [-2, -3, -1])  # D_mu g_{sig nu}
            - dg
        )
        return 0.5 * np.einsum("...sl,...smn->...lmn", ginv, bracket)


# ---------------------------------------------------------------------------
# Dense hybrid-difference matrices (independent of ibshell.geometry slicing)
# ---------------------------------------------------------------------------


def hybrid_diff_matrix(n, d):
    """n x n matrix of the centered/one-sided difference operator."""
    D = np.zeros((n, n))
    D[0, 0], D[0, 1] = -1.0 / d, 1.0 / d
    D[-1, -2], D[-1, -1] = -1.0 / d, 1.0 / d
    for i in range(1, n - 1):
        D[i, i - 1] = -0.5 / d
        D[i, i + 1] = 0.5 / d
    return D


def laplacian(f, d1, d2):
    """(D1 D1 + D2 D2) f through dense matrices."""
    A = hybrid_diff_matrix(f.shape[0], d1)
    B = hybrid_diff_matrix(f.shape[1], d2)
    return A @ (A @ f) + (f @ B.T) @ B.T


def biharmonic(f, d1, d2):
    """Composition of the hybrid-difference Laplacian with itself."""
    return laplacian(laplacian(f, d1, d2), d1, d2)


def grad_div(W, d1, d2):
    """D_mu (D_1 W_1 + D_2 W_2) for a flat-chart vector field W (n1, n2, 2)."""
    A = hybrid_diff_matrix(W.shape[0], d1)
    B = hybrid_diff_matrix(W.shape[1], d2)
    div = A @ W[..., 0] + W[..., 1] @ B.T
    return np.stack([A @ div, div @ B.T], axis=-1)


# ---------------------------------------------------------------------------
# Covariant derivative through one einsum per tensor slot
# ---------------------------------------------------------------------------


def covariant_derivative_einsum(A, index_types, Gamma, grid):
    """Covariant derivative with each Christoffel correction as one einsum.

    The pre-slicing form of `geometry._covariant_derivative_raw`: the slot is
    moved last and contracted against Gamma over sigma in a single einsum.
    """
    out = _diff_stack(A, grid)
    for k, t in enumerate(index_types):
        Am = np.moveaxis(A, 2 + k, -1)
        if t == "u":
            # + Gamma^{nu_k}_{alpha sigma} A^{...sigma...}
            corr = np.einsum("xyvas,xy...s->xya...v", Gamma, Am)
        else:
            # - Gamma^{sigma}_{alpha mu_k} A_{...sigma...}
            corr = -np.einsum("xysav,xy...s->xya...v", Gamma, Am)
        out += np.moveaxis(corr, -1, 3 + k)
    return out


# ---------------------------------------------------------------------------
# Coupling matrix through boolean masks and node-major broadcasts
# ---------------------------------------------------------------------------


def phi_masked(r):
    """The 1D kernel weight evaluated branch by branch on boolean masks.

    The pre-`np.where` form of `coupling.phi`.
    """
    x = np.abs(np.asarray(r, dtype=float))
    out = np.zeros_like(x)
    m1 = x <= 1.0
    x1 = x[m1]
    out[m1] = (3.0 - 2.0 * x1 + np.sqrt(1.0 + 4.0 * x1 - 4.0 * x1 * x1)) / 8.0
    m2 = (x > 1.0) & (x < 2.0)
    y = 2.0 - x[m2]
    out[m2] = 0.5 - (3.0 - 2.0 * y + np.sqrt(1.0 + 4.0 * y - 4.0 * y * y)) / 8.0
    return out if out.ndim else float(out)


def coupling_matrix_broadcast(X, params):
    """S built in one pass from (M, 3, 4) offsets, int64 columns.

    The pre-split form of `coupling.coupling_matrix`: weights and columns are
    both formed per call as (M, 4, 4, 4) broadcasts.
    """
    N, h = params.N, params.h
    Xf = np.asarray(X, dtype=float).reshape(-1, 3)
    s = Xf / h
    base = np.floor(s).astype(np.int64) - 1
    offs = base[:, :, None] + np.arange(4)[None, None, :]
    w = phi_masked(s[:, :, None] - offs)
    idx = offs % N
    w3 = w[:, 0, :, None, None] * w[:, 1, None, :, None] * w[:, 2, None, None, :]
    flat = (
        (idx[:, 0, :, None, None] * N + idx[:, 1, None, :, None]) * N
        + idx[:, 2, None, None, :]
    )
    M = len(Xf)
    return sparse.csr_array(
        (w3.ravel(), flat.ravel(), 64 * np.arange(M + 1)), shape=(M, N**3)
    )


# ---------------------------------------------------------------------------
# Fluid step through fresh temporaries
# ---------------------------------------------------------------------------


def fluid_step_out_of_place(solver, u, F):
    """`FluidSolver.step` with every intermediate a new array.

    The pre-in-place form: no `overwrite_x`, no operand updated in place.
    """
    prm = solver.params
    h = prm.h
    r = prm.rho / prm.dt * u
    r = r - prm.rho * upwind_advection(u, h)
    r = r + F
    rhat = scipy.fft.rfftn(r, axes=(1, 2, 3))
    num = (-1j / h) * (
        solver._s[0] * rhat[0] + solver._s[1] * rhat[1] + solver._s[2] * rhat[2]
    )
    phat = np.where(solver.zero_g, 0.0, num / solver._gsq_safe)
    uhat = np.empty_like(rhat)
    for i in range(3):
        uhat[i] = (rhat[i] - (1j / h) * solver._s[i] * phat) / solver.a_k
    shape = (prm.N,) * 3
    u_new = scipy.fft.irfftn(uhat, s=shape, axes=(1, 2, 3))
    p_new = scipy.fft.irfftn(phat, s=shape)
    return u_new, p_new


# ---------------------------------------------------------------------------
# Shell force term by term
# ---------------------------------------------------------------------------


def compute_force_termwise(disp, coeff, geom):
    """`shell.compute_force` with one divergence per term.

    The pre-table form: each coefficient field has its own block, and every
    term under a divergence or double divergence takes its own.
    """
    grid, Gamma = geom.grid, geom.Gamma
    omega, W = disp.omega, disp.W_low
    dw = _diff_stack(omega, grid)  # (D_mu omega)
    hess = _covariant_derivative_raw(dw, ("l",), Gamma, grid)   # grad_m D_n w
    gradW = _covariant_derivative_raw(W, ("l",), Gamma, grid)   # grad_m W_n

    f3 = np.zeros_like(omega)
    fmu = np.zeros_like(W)

    if coeff.active("A"):
        f3 += coeff.A * omega
    if coeff.active("Abar"):
        S = np.einsum("xystmn,xymn->xyst", coeff.Abar, hess)
        f3 += _double_divergence(S, geom)
    if coeff.active("Abbar"):
        f3 -= _double_divergence(coeff.Abbar * omega[..., None, None], geom)
        f3 -= np.einsum("xyst,xyst->xy", coeff.Abbar, hess)
    if coeff.active("Phi"):
        f3 += np.einsum("xyn,xyn->xy", coeff.Phi, W)
        fmu += coeff.Phi * omega[..., None]
    if coeff.active("Phibar"):
        f3 += np.einsum("xymn,xymn->xy", coeff.Phibar, gradW)
        fmu -= _cov_divergence(
            coeff.Phibar * omega[..., None, None], ("u", "u"), geom
        )
    if coeff.active("Psi"):
        f3 -= _double_divergence(
            np.einsum("xymst,xym->xyst", coeff.Psi, W), geom
        )
        fmu -= np.einsum("xymst,xyst->xym", coeff.Psi, hess)
    if coeff.active("Psibar"):
        f3 -= _double_divergence(
            np.einsum("xystmn,xyst->xymn", coeff.Psibar, gradW), geom
        )
        fmu += _cov_divergence(
            np.einsum("xynmst,xyst->xynm", coeff.Psibar, hess), ("u", "u"), geom
        )
    if coeff.active("Omega"):
        fmu += np.einsum("xymn,xyn->xym", coeff.Omega, W)
    if coeff.active("Omegabar"):
        fmu += np.einsum("xystm,xyst->xym", coeff.Omegabar, gradW)
        fmu -= _cov_divergence(
            np.einsum("xysmt,xyt->xysm", coeff.Omegabar, W), ("u", "u"), geom
        )
    if coeff.active("Obbar"):
        fmu -= _cov_divergence(
            np.einsum("xystnm,xyst->xynm", coeff.Obbar, gradW), ("u", "u"), geom
        )

    f3 *= FORCE_ON_FLUID_SIGN
    fmu *= FORCE_ON_FLUID_SIGN
    return ShellForceDensity(
        f3=f3, fmu=fmu, cartesian=force_to_cartesian(f3, fmu, geom)
    )


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------


def observed_order(errors):
    """Least log2-ratio of successive errors under mesh halving."""
    e = np.asarray(errors, dtype=float)
    return np.min(np.log2(e[:-1] / e[1:]))
