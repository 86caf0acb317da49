"""Thickness-integral oracle for the coefficient tensors.

Evaluates the eleven defining integrals by Gauss-Legendre quadrature with
the exact t-dependent factors assembled from scratch per quadrature point
(matrix inverses instead of series, explicit einsum contractions per the
definitions). The production closures must agree to their truncation order:
the quadrature keeps all powers of t, "quadratic" drops O(h0^5) terms, and
"leading" additionally drops the O(h0^3) curvature corrections.
"""

import numpy as np
import pytest

from ibshell.geometry import build_geometry, components_first, mixed_second_form
from ibshell.shell import MaterialParams, compute_coefficients

import oracles

LAM, MU = 26197503.0, 523950.0


def quadrature_coefficients(geom, lam, mu, h0, n_quad=16):
    """All eleven coefficient tensors by direct numerical t-integration.

    The fields are read and the integrals formed lattice first.
    """
    b = oracles.lattice_view(geom.b)
    g = oracles.lattice_view(geom.g)
    gradb = oracles.lattice_view(geom.gradb)
    bmix = oracles.lattice_view(mixed_second_form(geom.b, geom.ginv))
    n1, n2 = b.shape[:2]
    eye = np.broadcast_to(np.eye(2), (n1, n2, 2, 2))
    c1 = lam * mu / (lam + 2.0 * mu)

    x, wq = np.polynomial.legendre.leggauss(n_quad)
    out = {k: 0.0 for k in ("A", "Abar", "Abbar", "Phi", "Phibar", "Psi",
                            "Psibar", "Omega", "Omegabar", "Obbar")}
    for xk, wk in zip(x, wq):
        t = h0 * xk
        w = h0 * wk
        th = eye + t * bmix                                   # theta_a^s
        gl = g + 2.0 * t * b + t**2 * np.einsum("xyas,xysb->xyab", bmix, b)
        G = np.linalg.inv(gl)                                 # offset inverse metric
        det = 1.0 + t * np.trace(bmix, axis1=-2, axis2=-1) + t**2 * (
            bmix[..., 0, 0] * bmix[..., 1, 1] - bmix[..., 0, 1] * bmix[..., 1, 0]
        )
        Lam_t = (
            c1 * np.einsum("xyab,xygd->xyabgd", G, G)
            + 0.5 * mu * np.einsum("xyag,xybd->xyabgd", G, G)
            + 0.5 * mu * np.einsum("xyad,xybg->xyabgd", G, G)
        ) * det[..., None, None, None, None]
        B_t = np.einsum("xyas,xysb->xyab", th, b)
        gm = np.einsum("xyas,xysb->xyab", th, th)             # (theta^2)_b^t
        dth = t * gradb                                       # grad theta
        out["A"] = out["A"] + w * np.einsum(
            "xyabgd,xyab,xygd->xy", Lam_t, B_t, B_t)
        out["Abar"] = out["Abar"] + w * t**2 * np.einsum(
            "xyabgd,xyas,xybt,xygm,xydn->xystmn", Lam_t, th, th, th, th)
        out["Abbar"] = out["Abbar"] + w * t * np.einsum(
            "xyabgd,xyab,xygm,xydn->xymn", Lam_t, B_t, th, th)
        out["Phi"] = out["Phi"] + w * np.einsum(
            "xyabgd,xyab,xygt,xydr,xytrm->xym", Lam_t, B_t, th, th, dth)
        out["Phibar"] = out["Phibar"] + w * np.einsum(
            "xyabgd,xyab,xygm,xydn->xymn", Lam_t, B_t, th, gm)
        out["Psi"] = out["Psi"] + w * t * np.einsum(
            "xyabgd,xyas,xybt,xystr,xygm,xydn->xyrmn", Lam_t, th, th, dth, th, th)
        out["Psibar"] = out["Psibar"] + w * t * np.einsum(
            "xyabgd,xyas,xybt,xygm,xydn->xystmn", Lam_t, th, gm, th, th)
        out["Omega"] = out["Omega"] + w * np.einsum(
            "xyabgd,xyas,xybt,xystm,xygl,xydr,xylrn->xymn",
            Lam_t, th, th, dth, th, th, dth)
        out["Omegabar"] = out["Omegabar"] + w * np.einsum(
            "xyabgd,xyam,xybn,xygt,xydl,xytlr->xymnr", Lam_t, th, gm, th, th, dth)
        out["Obbar"] = out["Obbar"] + w * np.einsum(
            "xyabgd,xyas,xybt,xygm,xydn->xystmn", Lam_t, th, gm, th, gm)
    return out


@pytest.fixture(scope="module")
def helicoid_setup():
    # the model strip has varying curvature in both directions: every
    # coefficient, including the grad-b-coupled family, is nonzero there
    # (constant-curvature charts degenerate: on a cylinder the odd
    # integrands are exactly t-independent, and grad b = 0 on cylinders
    # and spheres alike)
    from ibshell.simulation import ModelConfig, build_model_shell
    from dataclasses import replace

    cfg = replace(ModelConfig(N=16), n1=81, n2=7)
    geom = build_geometry(build_model_shell(cfg))
    h0 = 1e-3
    bmix = oracles.lattice_view(mixed_second_form(geom.b, geom.ginv))
    half_tr = 0.5 * (bmix[..., 0, 0] + bmix[..., 1, 1])
    det = bmix[..., 0, 0] * bmix[..., 1, 1] - bmix[..., 0, 1] * bmix[..., 1, 0]
    kappa = float(
        (np.abs(half_tr) + np.sqrt(np.maximum(half_tr**2 - det, 0.0))).max()
    )
    # components first, as compute_coefficients returns them
    ref = {name: components_first(a)
           for name, a in quadrature_coefficients(geom, LAM, MU, h0).items()}
    return geom, h0, kappa, ref


def rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_quadrature_oracle_is_nondegenerate(helicoid_setup):
    _, _, _, ref = helicoid_setup
    for name, arr in ref.items():
        assert np.abs(arr).max() > 0.0, name


def test_quadratic_closure_matches_quadrature(helicoid_setup):
    geom, h0, kappa, ref = helicoid_setup
    quad = compute_coefficients(geom, MaterialParams(LAM, MU, h0), "quadratic")
    eps2 = (h0 * kappa) ** 2  # truncation scale of the thickness expansion
    # O(h0) coefficients keep their first correction: next error is O(eps2^2)
    assert rel(quad.A, ref["A"]) < 100 * eps2**2
    assert rel(quad.Phibar, ref["Phibar"]) < 100 * eps2**2
    assert rel(quad.Obbar, ref["Obbar"]) < 100 * eps2**2
    # O(h0^3) coefficients are truncated at their leading term: error O(eps2)
    for name in ("Abar", "Abbar", "Psi", "Psibar", "Omega", "Omegabar", "Phi"):
        assert rel(getattr(quad, name), ref[name]) < 10 * eps2, name


def test_leading_closure_matches_quadrature_to_first_order(helicoid_setup):
    geom, h0, kappa, ref = helicoid_setup
    lead = compute_coefficients(geom, MaterialParams(LAM, MU, h0), "leading")
    eps2 = (h0 * kappa) ** 2
    # even-in-t coefficients agree to O(eps2); the zeroed odd ones are O(eps2)
    # small against the corresponding even scales
    for name in ("A", "Abar", "Phibar", "Omega", "Obbar"):
        assert rel(getattr(lead, name), ref[name]) < 10 * eps2, name
    assert np.abs(ref["Abbar"]).max() < 10 * h0 * kappa * np.abs(ref["Abar"]).max() / h0
    assert np.abs(ref["Psibar"]).max() < 10 * h0 * kappa * np.abs(ref["Abar"]).max() / h0


def test_quadratic_tracks_quadrature_better_than_leading(helicoid_setup):
    geom, h0, _, ref = helicoid_setup
    lead = compute_coefficients(geom, MaterialParams(LAM, MU, h0), "leading")
    quad = compute_coefficients(geom, MaterialParams(LAM, MU, h0), "quadratic")
    for name in ("A", "Phibar", "Obbar", "Abbar", "Psibar", "Phi", "Omegabar"):
        err_l = np.abs(getattr(lead, name) - ref[name]).max()
        err_q = np.abs(getattr(quad, name) - ref[name]).max()
        assert err_q <= err_l + 1e-30, name
