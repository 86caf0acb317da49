"""Independent oracles for the test suite.

Everything here is computed by a route separate from the production code:
analytic chart geometry (hand-differentiated closed forms), dense difference
matrices, and plain-loop contractions. Tests freeze expected values from these
oracles, never from the code under test.
"""

import itertools
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import scipy.fft
from numpy.lib.array_utils import byte_bounds
from scipy import sparse

from ibshell import io
from ibshell.fluid import upwind_advection
from ibshell.geometry import (
    SurfaceGrid,
    _covariant_derivative_raw,
    _covariant_divergence,
    _diff_stack,
)
from ibshell.shell import (
    _TERMS,
    FORCE_ON_FLUID_SIGN,
    ShellForceDensity,
    _double_divergence,
    force_to_cartesian,
)


def lattice_view(a):
    """(..., n1, n2) -> (n1, n2, ...) view of a components-first field.

    The library's tensor fields are components-first; the oracles here work
    lattice first, and the tests compare the two through this view.
    """
    return np.moveaxis(a, (-2, -1), (0, 1))


def lattice_geometry(geom):
    """The tensor fields of a `SurfaceGeometry` as lattice-first views."""
    return SimpleNamespace(**{f.name: lattice_view(getattr(geom, f.name))
                              for f in fields(geom) if f.name != "grid"})


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
# Lattice-first differences and covariant derivatives
# ---------------------------------------------------------------------------
# The pre-components-first forms of `geometry.surface_diff`, `_diff_stack`
# and `_covariant_derivative_raw`: fields are stored (n1, n2, 2, ...), the
# lattice leading. Pass contiguous lattice-first arrays (np.ascontiguousarray
# of the production views), the layout these forms always read.


def surface_diff_aos(values, axis, spacing):
    """Hybrid difference along axis 1 or 2 of a lattice-first field."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    if axis == 1:
        d = float(spacing)
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * d)
        out[0] = (v[1] - v[0]) / d
        out[-1] = (v[-1] - v[-2]) / d
    else:
        sp = np.asarray(spacing, dtype=float)
        d_in = sp.reshape((-1,) + (1,) * (v.ndim - 1))
        d_lo = d_hi = sp.reshape((-1,) + (1,) * (v.ndim - 2))
        out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * d_in)
        out[:, 0] = (v[:, 1] - v[:, 0]) / d_lo
        out[:, -1] = (v[:, -1] - v[:, -2]) / d_hi
    return out


def diff_stack_aos(values, grid):
    """Stack (D_1 v, D_2 v) along a new axis at position 2."""
    return np.stack(
        [surface_diff_aos(values, 1, grid.dq1),
         surface_diff_aos(values, 2, grid.dq2_of_row)],
        axis=2,
    )


def covariant_derivative_aos(A, index_types, Gamma, grid):
    """Covariant derivative of lattice-first components, sliced per sigma."""
    out = diff_stack_aos(A, grid)
    lattice = (slice(None), slice(None))
    for k, t in enumerate(index_types):
        for rest in itertools.product((0, 1), repeat=len(index_types) - 1):
            head, tail = rest[:k], rest[k:]
            A0 = A[lattice + head + (0,) + tail]
            A1 = A[lattice + head + (1,) + tail]
            for a, v in itertools.product((0, 1), repeat=2):
                o = out[lattice + (a,) + head + (v,) + tail]
                if t == "u":
                    o += Gamma[:, :, v, a, 0] * A0 + Gamma[:, :, v, a, 1] * A1
                else:
                    o -= Gamma[:, :, 0, a, v] * A0 + Gamma[:, :, 1, a, v] * A1
    return out


def covariant_derivative_einsum(A, index_types, Gamma, grid):
    """Covariant derivative with each Christoffel correction as one einsum.

    The pre-slicing form of `geometry._covariant_derivative_raw`, lattice
    first: the slot is moved last and contracted against Gamma over sigma in
    a single einsum.
    """
    out = diff_stack_aos(A, grid)
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
# Geometry and coefficient build on lattice-first fields
# ---------------------------------------------------------------------------
# The pre-components-first forms of the build chain in `geometry` and
# `shell`: every field a contiguous (n1, n2, ...) array, every contraction
# one np.einsum.


def build_geometry_einsum(grid):
    """`geometry.build_geometry`'s fields, lattice first, as a dict."""
    T = diff_stack_aos(grid.X0, grid)
    cr = np.cross(T[..., 0, :], T[..., 1, :])
    Nrm = cr / np.linalg.norm(cr, axis=-1)[..., None]

    g = np.einsum("xyac,xybc->xyab", T, T)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    ginv = np.empty_like(g)
    ginv[..., 0, 0] = g[..., 1, 1] / det
    ginv[..., 1, 1] = g[..., 0, 0] / det
    ginv[..., 0, 1] = -g[..., 0, 1] / det
    ginv[..., 1, 0] = -g[..., 1, 0] / det

    b = np.einsum("xymc,xync->xymn", diff_stack_aos(Nrm, grid), T)
    b = 0.5 * (b + np.swapaxes(b, -1, -2))

    dg = diff_stack_aos(g, grid)  # dg[..., sig, mu, nu] = D_sig g_{mu nu}
    bracket = dg.transpose(0, 1, 4, 3, 2) + dg.transpose(0, 1, 3, 2, 4) - dg
    Gamma = 0.5 * np.einsum("xysl,xysmn->xylmn", ginv, bracket)

    gradb = covariant_derivative_aos(
        mixed_second_form_einsum(b, ginv), ("l", "u"), Gamma, grid
    )
    return dict(T=T, Nrm=Nrm, g=g, ginv=ginv, b=b, Gamma=Gamma, gradb=gradb)


def mixed_second_form_einsum(b, ginv):
    return np.einsum("xybs,xysg->xybg", b, ginv)


def elasticity_form_einsum(ginv, lam, mu):
    c1 = lam * mu / (lam + 2.0 * mu)
    gg1 = np.einsum("xyab,xygd->xyabgd", ginv, ginv)
    gg2 = np.einsum("xyag,xybd->xyabgd", ginv, ginv)
    gg3 = np.einsum("xyad,xybg->xyabgd", ginv, ginv)
    return c1 * gg1 + 0.5 * mu * (gg2 + gg3)


def _tpoly_mul(P, Q, spec):
    """Product of two degree-indexed polynomials in t, truncated at t^2."""
    out = [None] * 3
    for i, A in enumerate(P):
        for j, B in enumerate(Q):
            if A is None or B is None or i + j > 2:
                continue
            term = np.einsum(spec, A, B)
            out[i + j] = term if out[i + j] is None else out[i + j] + term
    return out


def compute_coefficients_einsum(geo, mat, order):
    """`shell.compute_coefficients`' ten fields, lattice first, as a dict.

    `geo` is `build_geometry_einsum`'s dict; the thin-shell checks are left
    to the production code.
    """
    b, ginv, gradb = geo["b"], geo["ginv"], geo["gradb"]
    n1, n2 = b.shape[:2]
    h0 = np.broadcast_to(mat.h0, (n1, n2)).astype(float)
    Lam0 = elasticity_form_einsum(ginv, mat.lam, mat.mu)
    I0 = 2.0 * h0
    I2 = (2.0 / 3.0) * h0**3
    Abar = I2[..., None, None, None, None] * Lam0
    Omega = np.einsum("xystlr,xystm,xylrn->xymn", Abar, gradb, gradb)

    if order == "leading":
        zero = np.zeros
        return dict(
            A=I0 * np.einsum("xyabgd,xyab,xygd->xy", Lam0, b, b), Abar=Abar,
            Abbar=zero((n1, n2, 2, 2)), Phi=zero((n1, n2, 2)),
            Phibar=I0[..., None, None] * np.einsum("xyabmn,xyab->xymn", Lam0, b),
            Psi=zero((n1, n2, 2, 2, 2)), Psibar=zero((n1, n2, 2, 2, 2, 2)),
            Omega=Omega, Omegabar=zero((n1, n2, 2, 2, 2)),
            Obbar=I0[..., None, None, None, None] * Lam0,
        )

    eye = np.broadcast_to(np.eye(2), (n1, n2, 2, 2)).copy()
    bmix = mixed_second_form_einsum(b, ginv)
    theta = [eye, bmix, None]
    Blow = [b, np.einsum("xyas,xysb->xyab", bmix, b), None]
    gmix = [eye, 2.0 * bmix, np.einsum("xyas,xysb->xyab", bmix, bmix)]
    g1, g2 = 2.0 * b, Blow[1]
    mm = lambda *As: np.einsum(  # noqa: E731
        {2: "xyab,xybc->xyac", 3: "xyab,xybc,xycd->xyad",
         5: "xyab,xybc,xycd,xyde,xyef->xyaf"}[len(As)], *As)
    Ginv = [ginv, -mm(ginv, g1, ginv),
            mm(ginv, g1, ginv, g1, ginv) - mm(ginv, g2, ginv)]
    H = bmix[..., 0, 0] + bmix[..., 1, 1]
    K = bmix[..., 0, 0] * bmix[..., 1, 1] - bmix[..., 0, 1] * bmix[..., 1, 0]
    dets = [np.ones((n1, n2)), H, K]

    c1 = mat.lam * mat.mu / (mat.lam + 2.0 * mat.mu)
    GG1 = _tpoly_mul(Ginv, Ginv, "xyab,xygd->xyabgd")
    GG2 = _tpoly_mul(Ginv, Ginv, "xyag,xybd->xyabgd")
    GG3 = _tpoly_mul(Ginv, Ginv, "xyad,xybg->xyabgd")
    form = [c1 * GG1[k] + 0.5 * mat.mu * (GG2[k] + GG3[k]) for k in range(3)]
    Lam = _tpoly_mul(form, dets, "xyabgd,xy->xyabgd")

    def close(poly, k_explicit, like):
        out = np.zeros_like(like)
        for j in range(3):
            m = j + k_explicit
            if m % 2 == 1 or m > 2 or poly[j] is None:
                continue
            Im = I0 if m == 0 else I2
            out += Im.reshape(Im.shape + (1,) * (poly[j].ndim - 2)) * poly[j]
        return out

    LamB = _tpoly_mul(Lam, Blow, "xyabgd,xyab->xygd")
    LamBt = _tpoly_mul(LamB, theta, "xygd,xygm->xymd")
    LamtGt = _tpoly_mul(
        _tpoly_mul(_tpoly_mul(Lam, theta, "xyabgd,xyas->xysbgd"),
                   gmix, "xysbgd,xybt->xystgd"),
        theta, "xystgd,xygm->xystmd")
    Abbar = close(_tpoly_mul(LamBt, theta, "xymd,xydn->xymn"), 1, b)
    Psibar = close(_tpoly_mul(LamtGt, theta, "xystmd,xydn->xystmn"), 1, Lam0)
    return dict(
        A=close(_tpoly_mul(LamB, Blow, "xygd,xygd->xy"), 0, h0),
        Abar=Abar, Abbar=Abbar,
        Phi=np.einsum("xytr,xytrm->xym", Abbar, gradb),
        Phibar=close(_tpoly_mul(LamBt, gmix, "xymd,xydn->xymn"), 0, b),
        Psi=np.einsum("xystmn,xystr->xyrmn", Abar, gradb),
        Psibar=Psibar, Omega=Omega,
        Omegabar=np.einsum("xymntl,xytlr->xymnr", Psibar, gradb),
        Obbar=close(_tpoly_mul(LamtGt, gmix, "xystmd,xydn->xystmn"), 0, Lam0),
    )


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
# Clamp springs through the full-lattice mask
# ---------------------------------------------------------------------------


def clamp_rows_mask(n1, n2):
    """The clamped nodes: the two outermost rows along each of the four edges."""
    m = np.zeros((n1, n2), dtype=bool)
    m[:2] = m[-2:] = True
    m[:, :2] = m[:, -2:] = True
    return m


def clamp_force_masked(X, grid, k_clamp):
    """`simulation.clamp_force` into a zero field, as a boolean mask over
    every node: the mask, the node areas and X - X0 formed over the whole
    shell lattice."""
    f = np.zeros_like(grid.X0)
    m = clamp_rows_mask(grid.n1, grid.n2)
    f[m] = -k_clamp * (np.asarray(X, dtype=float) - grid.X0)[m] / \
        grid.node_areas[m][:, None]
    return f


# ---------------------------------------------------------------------------
# Fluid step through fresh temporaries
# ---------------------------------------------------------------------------


def adding(F):
    """The `add_force` of a body force array F for `FluidSolver.step`: it
    adds F into the right-hand side r in place, so the step's r = t + F."""
    return lambda r: np.add(r, F, out=r)


def fluid_step_out_of_place(solver, u, add_force):
    """`FluidSolver.step` with every intermediate a new array.

    The pre-in-place form: no `overwrite_x`, no operand updated in place
    but r, into which add_force(r) adds the body force, as in the step.
    """
    prm = solver.params
    h = prm.h
    r = prm.rho / prm.dt * u
    r = r - prm.rho * upwind_advection(u, h)
    add_force(r)
    rhat = scipy.fft.rfftn(r, axes=(1, 2, 3))
    # the symbols over the whole rfft layout, from the parameters alone
    N = prm.N
    k = np.arange(N)
    s = np.sin(2.0 * np.pi * k / N)
    s[0] = s[N // 2] = 0.0
    sh = np.sin(np.pi * k / N) ** 2
    sk = (s[:, None, None], s[None, :, None], s[None, None, :N // 2 + 1])
    a_k = prm.rho / prm.dt + (4.0 * prm.mu_f / h**2) * (
        sh[:, None, None] + sh[None, :, None] + sh[None, None, :N // 2 + 1])
    gsq = (sk[0] ** 2 + sk[1] ** 2 + sk[2] ** 2) / h**2
    zero_g = gsq == 0.0
    num = (-1j / h) * (sk[0] * rhat[0] + sk[1] * rhat[1] + sk[2] * rhat[2])
    phat = np.where(zero_g, 0.0, num / np.where(zero_g, 1.0, gsq))
    uhat = np.empty_like(rhat)
    for i in range(3):
        uhat[i] = (rhat[i] - (1j / h) * sk[i] * phat) / a_k
    shape = (N,) * 3
    u_new = scipy.fft.irfftn(uhat, s=shape, axes=(1, 2, 3))
    p_new = scipy.fft.irfftn(phat, s=shape)
    return u_new, p_new


# ---------------------------------------------------------------------------
# Shell force on lattice-first fields
# ---------------------------------------------------------------------------


#: `shell._TERMS` as np.einsum specs on lattice-first fields, row for row.
FORCE_TERMS_EINSUM = (
    ("A", "xy,xy->xy", "omega", "f3", +1),
    ("Abar", "xystmn,xymn->xyst", "hess", "S", +1),
    ("Abbar", "xyst,xy->xyst", "omega", "S", -1),
    ("Abbar", "xyst,xyst->xy", "hess", "f3", -1),
    ("Phi", "xyn,xyn->xy", "W", "f3", +1),
    ("Phi", "xym,xy->xym", "omega", "fmu", +1),
    ("Phibar", "xymn,xymn->xy", "gradW", "f3", +1),
    ("Phibar", "xymn,xy->xymn", "omega", "T", -1),
    ("Psi", "xymst,xym->xyst", "W", "S", -1),
    ("Psi", "xymst,xyst->xym", "hess", "fmu", -1),
    ("Psibar", "xystmn,xyst->xymn", "gradW", "S", -1),
    ("Psibar", "xynmst,xyst->xynm", "hess", "T", +1),
    ("Omega", "xymn,xyn->xym", "W", "fmu", +1),
    ("Omegabar", "xystm,xyst->xym", "gradW", "fmu", +1),
    ("Omegabar", "xysmt,xyt->xysm", "W", "T", -1),
    ("Obbar", "xystnm,xyst->xynm", "gradW", "T", -1),
)


class LatticeFirstFields:
    """Contiguous lattice-first copies of what the force reads."""

    def __init__(self, disp, coeff, geom):
        copy = lambda a: np.ascontiguousarray(lattice_view(a))  # noqa: E731
        self.grid = geom.grid
        self.Gamma = copy(geom.Gamma)
        self.Nrm = copy(geom.Nrm)
        self.T = copy(geom.T)
        self.omega = copy(disp.omega)
        self.W = copy(disp.W_low)
        self.coeff = {name: copy(getattr(coeff, name))
                      for name, *_ in FORCE_TERMS_EINSUM}


def jet_aos(f):
    """omega, W, hess = grad D omega and gradW = grad W, lattice first."""
    dw = diff_stack_aos(f.omega, f.grid)
    return {"omega": f.omega, "W": f.W,
            "hess": covariant_derivative_aos(dw, ("l",), f.Gamma, f.grid),
            "gradW": covariant_derivative_aos(f.W, ("l",), f.Gamma, f.grid)}


def cov_divergence_aos(comps, index_types, f):
    cd = covariant_derivative_aos(comps, index_types, f.Gamma, f.grid)
    return cd[:, :, 0, 0] + cd[:, :, 1, 1]


def double_divergence_aos(S, f):
    inner = covariant_derivative_aos(S, ("u", "u"), f.Gamma, f.grid)
    V = inner[:, :, 0, :, 0] + inner[:, :, 1, :, 1]
    return cov_divergence_aos(V, ("u",), f)


def force_to_cartesian_aos(f3, fmu, f):
    return f3[..., None] * f.Nrm + np.einsum("xym,xymc->xyc", fmu, f.T)


def compute_force_aos(disp, coeff, geom):
    """`shell.compute_force` on lattice-first fields, one einsum per term.

    The pre-components-first form: the term table, the divergences and the
    cartesian assembly read (n1, n2, ...) arrays.
    """
    f = LatticeFirstFields(disp, coeff, geom)
    jet = jet_aos(f)
    acc = {"f3": np.zeros_like(f.omega), "fmu": np.zeros_like(f.W),
           "T": np.zeros(f.W.shape + (2,)), "S": np.zeros(f.W.shape + (2,))}
    for name, spec, arg, target, sign in FORCE_TERMS_EINSUM:
        if coeff.active(name):
            acc[target] += sign * np.einsum(spec, f.coeff[name], jet[arg])

    f3 = FORCE_ON_FLUID_SIGN * (acc["f3"] + double_divergence_aos(acc["S"], f))
    fmu = FORCE_ON_FLUID_SIGN * (
        acc["fmu"] + cov_divergence_aos(acc["T"], ("u", "u"), f)
    )
    return ShellForceDensity(
        f3=f3, fmu=fmu, cartesian=force_to_cartesian_aos(f3, fmu, f)
    )


def compute_force_termwise(disp, coeff, geom):
    """`compute_force_aos` with one divergence per term.

    The pre-table form: each coefficient field has its own block, and every
    term under a divergence or double divergence takes its own.
    """
    f = LatticeFirstFields(disp, coeff, geom)
    c = f.coeff
    jet = jet_aos(f)
    omega, W, hess, gradW = jet["omega"], jet["W"], jet["hess"], jet["gradW"]

    f3 = np.zeros_like(omega)
    fmu = np.zeros_like(W)

    if coeff.active("A"):
        f3 += c["A"] * omega
    if coeff.active("Abar"):
        S = np.einsum("xystmn,xymn->xyst", c["Abar"], hess)
        f3 += double_divergence_aos(S, f)
    if coeff.active("Abbar"):
        f3 -= double_divergence_aos(c["Abbar"] * omega[..., None, None], f)
        f3 -= np.einsum("xyst,xyst->xy", c["Abbar"], hess)
    if coeff.active("Phi"):
        f3 += np.einsum("xyn,xyn->xy", c["Phi"], W)
        fmu += c["Phi"] * omega[..., None]
    if coeff.active("Phibar"):
        f3 += np.einsum("xymn,xymn->xy", c["Phibar"], gradW)
        fmu -= cov_divergence_aos(
            c["Phibar"] * omega[..., None, None], ("u", "u"), f
        )
    if coeff.active("Psi"):
        f3 -= double_divergence_aos(
            np.einsum("xymst,xym->xyst", c["Psi"], W), f
        )
        fmu -= np.einsum("xymst,xyst->xym", c["Psi"], hess)
    if coeff.active("Psibar"):
        f3 -= double_divergence_aos(
            np.einsum("xystmn,xyst->xymn", c["Psibar"], gradW), f
        )
        fmu += cov_divergence_aos(
            np.einsum("xynmst,xyst->xynm", c["Psibar"], hess), ("u", "u"), f
        )
    if coeff.active("Omega"):
        fmu += np.einsum("xymn,xyn->xym", c["Omega"], W)
    if coeff.active("Omegabar"):
        fmu += np.einsum("xystm,xyst->xym", c["Omegabar"], gradW)
        fmu -= cov_divergence_aos(
            np.einsum("xysmt,xyt->xysm", c["Omegabar"], W), ("u", "u"), f
        )
    if coeff.active("Obbar"):
        fmu -= cov_divergence_aos(
            np.einsum("xystnm,xyst->xynm", c["Obbar"], gradW), ("u", "u"), f
        )

    f3 *= FORCE_ON_FLUID_SIGN
    fmu *= FORCE_ON_FLUID_SIGN
    return ShellForceDensity(
        f3=f3, fmu=fmu, cartesian=force_to_cartesian_aos(f3, fmu, f)
    )


def compute_force_table_order(disp, coeff, geom):
    """`shell.compute_force` with the whole jet and every accumulator alive
    through the table.

    The form before the schedule: hess and grad W are formed up front, the
    four accumulators start as zeros, and the divergences of S and T are
    taken after the last row, each of its accumulator, zeros or not.
    """
    grid, Gamma = geom.grid, geom.Gamma
    omega, W = disp.omega, disp.W_low
    jet = {"omega": omega, "W": W,
           "hess": _covariant_derivative_raw(_diff_stack(omega, grid), ("l",),
                                             Gamma, grid),
           "gradW": _covariant_derivative_raw(W, ("l",), Gamma, grid)}
    acc = {"f3": np.zeros(omega.shape), "fmu": np.zeros(W.shape),
           "T": np.zeros((2,) + W.shape), "S": np.zeros((2,) + W.shape)}
    for name, contract, arg, target, sign in _TERMS:
        if coeff.active(name):
            update = np.add if sign > 0 else np.subtract
            update(acc[target], contract(getattr(coeff, name), jet[arg]),
                   out=acc[target])
    f3, fmu = acc["f3"], acc["fmu"]
    f3 += _double_divergence(acc["S"], geom)
    f3 *= FORCE_ON_FLUID_SIGN
    fmu += _covariant_divergence(acc["T"], ("u", "u"), 0, Gamma, grid)
    fmu *= FORCE_ON_FLUID_SIGN
    return ShellForceDensity(
        f3=f3, fmu=fmu, cartesian=force_to_cartesian(f3, fmu, geom)
    )


# ---------------------------------------------------------------------------
# Held memory
# ---------------------------------------------------------------------------

#: the ledger's name of each attribute of a `Simulation` and of its solver;
#: an array held under any other attribute is listed under that attribute
HELD_NAMES = {"_S": "S", "solver._rhat": "r_hat", "solver._r": "r_hat",
              "solver._phat": "p_hat", "coeff": "coefficients",
              "geom": "geometry", "grid": "grid and X", "X": "grid and X",
              "dq_area": "grid and X"}


def held_bytes(sim):
    """The bytes owned by every array a `Simulation` holds, by name.

    The arrays are found by walking the attributes of `sim`, of the solver
    and of every record, tuple or dict they hold, each object once, so the
    grid shared by `sim` and its geometry is the grid's. Each byte counts
    once, by the memory extents of the arrays (`byte_bounds`), for the
    first array in address order that spans it: r inside r_hat adds
    nothing, a pair-symmetric view counts the 9 of its 16 components it
    reads, and a zero view counts its 8 bytes.
    """
    arrays, seen = [], set()

    def walk(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            parts = path.split(".")
            key = ".".join(parts[:2] if parts[0] == "solver" else parts[:1])
            arrays.append((HELD_NAMES.get(key, key), obj))
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{path}.{k}")
        elif isinstance(obj, (list, tuple)):
            for k, v in enumerate(obj):
                walk(v, f"{path}.{k}")
        elif hasattr(obj, "__dict__"):
            for k, v in vars(obj).items():
                walk(v, f"{path}.{k}" if path else k)

    walk(sim, "")
    spans = sorted(((*byte_bounds(a), name) for name, a in arrays),
                   key=lambda span: (span[0], -span[1]))
    held, end = {}, 0
    for lo, hi, name in spans:
        held[name] = held.get(name, 0) + max(0, hi - max(lo, end))
        end = max(end, hi)
    return held


# ---------------------------------------------------------------------------
# Snapshot files
# ---------------------------------------------------------------------------


def write_snapshot_whole_fields(path, sim):
    """`io.write_snapshot` as it was before it wrote a plane at a time: X
    through astype, and each fluid field transposed in one N^3 copy."""
    n1, n2, _ = sim.X.shape
    N = sim.p.shape[0]
    params = io.config_param_block(sim.cfg)
    with open(path, "wb") as fh:
        fh.write(io._HEADER.pack(io.MAGIC, io.VERSION, N, n1, n2, sim.t,
                                 sim.cfg.dt, len(params)))
        np.array(list(params.items()), dtype=io._PARAM).tofile(fh)
        sim.X.astype("<f8").tofile(fh)
        for field in (*sim.u, sim.p):
            field.T.astype("<f8", order="C").tofile(fh)


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------


def observed_order(errors):
    """Least log2-ratio of successive errors under mesh halving."""
    e = np.asarray(errors, dtype=float)
    return np.min(np.log2(e[:-1] / e[1:]))
