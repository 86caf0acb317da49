"""Coefficient tensors and the elastic force operator of the shell.

The shell's elastic response is a linear fourth-order operator acting on the
displacement decomposition (omega, W) of the middle surface. Its ten
coefficient tensor fields are through-thickness integrals of products of the
surface curvature data; they are precomputed once at initialization and are
immutable afterwards.

The force is pointwise terms + div T + div div S, built from one table of
linear terms, `_TERMS`, each a coefficient field contracted with omega, W,
the hessian of omega or grad W.

Two thickness closures of the integrals are available:

- "leading"  : every integrand factor evaluated on the middle surface and the
               explicit powers of the thickness coordinate integrated; the
               odd-in-t coefficients vanish. This is the default.
- "quadratic": every factor Taylor-expanded to second order in the thickness
               coordinate, keeping all O(h0^3) curvature corrections; the
               odd-in-t coefficients pick up O(h0^3) values.

Sign convention: `compute_force` returns the force density the shell applies
TO THE FLUID, i.e. minus the gradient of the strain energy, so elastic energy
decays in a quiescent fluid. A constant normal offset of a flat sheet, for
example, produces zero force, and a bump produces a force pulling the fluid
back toward the flat state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .geometry import (
    SurfaceGeometry,
    SurfaceGrid,
    _covariant_derivative_raw,
    _diff_stack,
    mixed_second_form,
)

#: global sign relating the returned force to the printed energy gradient
FORCE_ON_FLUID_SIGN = -1.0


class ThinShellError(ValueError):
    """Thickness is not small against the curvature radius (h0 * |b| >= 1)."""


@dataclass
class MaterialParams:
    """Lame coefficients and the (possibly node-dependent) half-thickness.

    lam, mu : Lame coefficients (g cm^-1 s^-2)
    h0      : half-thickness field (cm); scalar or per-node (n1, n2)
    """

    lam: float
    mu: float
    h0: np.ndarray

    def __post_init__(self):
        self.h0 = np.asarray(self.h0, dtype=float)
        if not (self.mu > 0.0):
            raise ValueError("mu must be positive")
        if not (self.lam + 2.0 * self.mu > 0.0):
            raise ValueError("lam + 2*mu must be positive")
        if not (self.h0 > 0.0).all():
            raise ValueError("h0 must be positive everywhere")

    def h0_field(self, grid: SurfaceGrid) -> np.ndarray:
        return np.broadcast_to(self.h0, (grid.n1, grid.n2)).astype(float)


@dataclass
class ShellCoefficients:
    """The ten precomputed coefficient tensor fields of the force operator.

    Index conventions follow the defining integrals: e.g. Psi[r, s, t] is the
    coefficient contracted as Psi^{r s t} W_r inside a double divergence over
    (s, t), and Omegabar[m, n, r] multiplies grad_m W_n with r free.
    """

    A: np.ndarray         # (n1, n2)
    Abar: np.ndarray      # (n1, n2, 2, 2, 2, 2)
    Abbar: np.ndarray     # (n1, n2, 2, 2)
    Phi: np.ndarray       # (n1, n2, 2)
    Phibar: np.ndarray    # (n1, n2, 2, 2)
    Psi: np.ndarray       # (n1, n2, 2, 2, 2)
    Psibar: np.ndarray    # (n1, n2, 2, 2, 2, 2)
    Omega: np.ndarray     # (n1, n2, 2, 2)
    Omegabar: np.ndarray  # (n1, n2, 2, 2, 2)
    Obbar: np.ndarray     # (n1, n2, 2, 2, 2, 2)

    def __post_init__(self):
        # the fields are fixed once built: find the nonzero ones here, not
        # on every force evaluation
        self._active = {f.name: bool(np.any(getattr(self, f.name)))
                        for f in fields(self)}

    def active(self, name: str) -> bool:
        """Whether a coefficient field has any nonzero entry."""
        return self._active[name]


@dataclass
class Displacement:
    """Normal/tangential decomposition of X - X0 against the reference frame."""

    omega: np.ndarray  # (n1, n2)
    W_low: np.ndarray  # (n1, n2, 2) covariant components W_mu


@dataclass
class ShellForceDensity:
    """Force density (per unit parameter area) the shell applies to the fluid."""

    f3: np.ndarray         # (n1, n2) normal component
    fmu: np.ndarray        # (n1, n2, 2) tangential components (upper index)
    cartesian: np.ndarray  # (n1, n2, 3): f3*N + fmu^m T_m


# ---------------------------------------------------------------------------
# Coefficient construction
# ---------------------------------------------------------------------------


def elasticity_form(ginv, lam, mu):
    """Plane-stress elasticity form on symmetric strains.

    Lambda^{a b g d} = lam*mu/(lam+2mu) g^{ab} g^{gd}
                       + mu/2 (g^{ag} g^{bd} + g^{ad} g^{bg})

    The mu-term is symmetrized so the full tensor carries the pair symmetries
    exactly; it acts identically on symmetric strain tensors.
    """
    c1 = lam * mu / (lam + 2.0 * mu)
    gg1 = np.einsum("xyab,xygd->xyabgd", ginv, ginv)
    gg2 = np.einsum("xyag,xybd->xyabgd", ginv, ginv)
    gg3 = np.einsum("xyad,xybg->xyabgd", ginv, ginv)
    return c1 * gg1 + 0.5 * mu * (gg2 + gg3)


def _curvature_scale(b, ginv):
    """Per-node largest principal curvature |kappa| from the mixed form."""
    bmix = mixed_second_form(b, ginv)
    half_tr = 0.5 * (bmix[..., 0, 0] + bmix[..., 1, 1])
    det = bmix[..., 0, 0] * bmix[..., 1, 1] - bmix[..., 0, 1] * bmix[..., 1, 0]
    disc = np.sqrt(np.maximum(half_tr**2 - det, 0.0))
    return np.abs(half_tr) + disc


class _TPoly:
    """Tensor-field-valued polynomial in the thickness coordinate t (deg <= 2)."""

    def __init__(self, coeffs):
        self.c = list(coeffs)  # arrays or None, degree-indexed

    def mul(self, other, spec, max_deg=2):
        out = [None] * (max_deg + 1)
        for i, A in enumerate(self.c):
            if A is None:
                continue
            for j, B in enumerate(other.c):
                if B is None or i + j > max_deg:
                    continue
                term = np.einsum(spec, A, B)
                out[i + j] = term if out[i + j] is None else out[i + j] + term
        return _TPoly(out)


def compute_coefficients(
    geom: SurfaceGeometry, mat: MaterialParams, order: str = "leading"
) -> ShellCoefficients:
    """Precompute the force-operator coefficient tensors.

    Warns when h0 * |curvature| >= 0.5 (thin-shell model stretched) and raises
    ThinShellError at >= 1 (fibers would cross).
    """
    if order not in ("leading", "quadratic"):
        raise ValueError(f"order must be 'leading' or 'quadratic', got {order!r}")
    grid = geom.grid
    h0 = mat.h0_field(grid)
    kappa = _curvature_scale(geom.b, geom.ginv)
    hk = float(np.max(h0 * kappa))
    if hk >= 1.0:
        raise ThinShellError(f"h0 * |curvature| reaches {hk:.3f} >= 1")
    if hk >= 0.5:
        warnings.warn(
            f"thin-shell validity is marginal: max h0 * |curvature| = {hk:.3f}",
            stacklevel=2,
        )

    Lam0 = elasticity_form(geom.ginv, mat.lam, mat.mu)
    b = geom.b
    gradb = geom.gradb  # [alpha, beta, gamma] = (grad b)_{alpha beta}^{gamma}
    I0 = 2.0 * h0          # integral of dt
    I2 = (2.0 / 3.0) * h0**3  # integral of t^2 dt
    # explicit t^2: through h0^3 only the bracket's t^0 term, Lam0, survives
    Abar = I2[..., None, None, None, None] * Lam0
    Omega = np.einsum("xystlr,xystm,xylrn->xymn", Abar, gradb, gradb)

    if order == "leading":
        A = I0 * np.einsum("xyabgd,xyab,xygd->xy", Lam0, b, b)
        Abbar = np.zeros(b.shape)
        Phi = np.zeros(b.shape[:2] + (2,))
        Phibar = I0[..., None, None] * np.einsum("xyabmn,xyab->xymn", Lam0, b)
        Psi = np.zeros(b.shape[:2] + (2, 2, 2))
        Psibar = np.zeros(Lam0.shape)
        Omegabar = np.zeros(b.shape[:2] + (2, 2, 2))
        Obbar = I0[..., None, None, None, None] * Lam0
        return ShellCoefficients(
            A=A, Abar=Abar, Abbar=Abbar, Phi=Phi, Phibar=Phibar,
            Psi=Psi, Psibar=Psibar, Omega=Omega, Omegabar=Omegabar, Obbar=Obbar,
        )

    # ---- quadratic closure: Taylor-expand every integrand factor in t ----
    n1, n2 = grid.n1, grid.n2
    eye = np.broadcast_to(np.eye(2), (n1, n2, 2, 2)).copy()
    bmix = mixed_second_form(b, geom.ginv)

    theta = _TPoly([eye, bmix, None])                       # theta_a^s
    Blow = _TPoly([b, np.einsum("xyas,xysb->xyab", bmix, b), None])
    gmix = _TPoly([eye, 2.0 * bmix,
                   np.einsum("xyas,xysb->xyab", bmix, bmix)])
    # inverse metric of the offset surfaces: (g + 2tb + t^2 b g^-1 b)^-1
    g1 = 2.0 * b
    g2 = np.einsum("xyas,xysb->xyab", bmix, b)
    G0 = geom.ginv
    mm = lambda *As: np.einsum(  # noqa: E731 - chained per-node 2x2 products
        {2: "xyab,xybc->xyac", 3: "xyab,xybc,xycd->xyad",
         5: "xyab,xybc,xycd,xyde,xyef->xyaf"}[len(As)], *As)
    Ginv = _TPoly([G0, -mm(G0, g1, G0), mm(G0, g1, G0, g1, G0) - mm(G0, g2, G0)])
    H = bmix[..., 0, 0] + bmix[..., 1, 1]
    K = bmix[..., 0, 0] * bmix[..., 1, 1] - bmix[..., 0, 1] * bmix[..., 1, 0]
    dets = _TPoly([np.ones((n1, n2)), H, K])

    c1 = mat.lam * mat.mu / (mat.lam + 2.0 * mat.mu)
    GG1 = Ginv.mul(Ginv, "xyab,xygd->xyabgd")
    GG2 = Ginv.mul(Ginv, "xyag,xybd->xyabgd")
    GG3 = Ginv.mul(Ginv, "xyad,xybg->xyabgd")
    form = _TPoly([
        None if GG1.c[k] is None else
        c1 * GG1.c[k] + 0.5 * mat.mu * (GG2.c[k] + GG3.c[k])
        for k in range(3)
    ])
    Lam = form.mul(dets, "xyabgd,xy->xyabgd")

    def close(poly, k_explicit, like):
        """Integrate poly(t) * t^k over (-h0, h0), keeping terms through h0^3."""
        out = np.zeros_like(like)
        for j in range(3):
            m = j + k_explicit
            if m % 2 == 1 or m > 2:
                continue
            Im = I0 if m == 0 else I2
            cj = poly.c[j]
            if cj is None:
                continue
            out += Im.reshape(Im.shape + (1,) * (cj.ndim - 2)) * cj
        return out

    zero6 = np.zeros_like(Lam0)
    brA = Lam.mul(Blow, "xyabgd,xyab->xygd").mul(Blow, "xygd,xygd->xy")
    A = close(brA, 0, np.zeros((n1, n2)))
    brAbbar = (
        Lam.mul(Blow, "xyabgd,xyab->xygd")
        .mul(theta, "xygd,xygm->xymd")
        .mul(theta, "xymd,xydn->xymn")
    )
    Abbar = close(brAbbar, 1, np.zeros_like(b))
    Phi = np.einsum("xytr,xytrm->xym", Abbar, gradb)
    brPhibar = (
        Lam.mul(Blow, "xyabgd,xyab->xygd")
        .mul(theta, "xygd,xygm->xymd")
        .mul(gmix, "xymd,xydn->xymn")
    )
    Phibar = close(brPhibar, 0, np.zeros_like(b))
    Psi = np.einsum("xystmn,xystr->xyrmn", Abar, gradb)
    brPsibar = (
        Lam.mul(theta, "xyabgd,xyas->xysbgd")
        .mul(gmix, "xysbgd,xybt->xystgd")
        .mul(theta, "xystgd,xygm->xystmd")
        .mul(theta, "xystmd,xydn->xystmn")
    )
    Psibar = close(brPsibar, 1, zero6)
    Omegabar = np.einsum("xymntl,xytlr->xymnr", Psibar, gradb)
    brObbar = (
        Lam.mul(theta, "xyabgd,xyas->xysbgd")
        .mul(gmix, "xysbgd,xybt->xystgd")
        .mul(theta, "xystgd,xygm->xystmd")
        .mul(gmix, "xystmd,xydn->xystmn")
    )
    Obbar = close(brObbar, 0, zero6)
    return ShellCoefficients(
        A=A, Abar=Abar, Abbar=Abbar, Phi=Phi, Phibar=Phibar,
        Psi=Psi, Psibar=Psibar, Omega=Omega, Omegabar=Omegabar, Obbar=Obbar,
    )


# ---------------------------------------------------------------------------
# Displacement decomposition and force evaluation
# ---------------------------------------------------------------------------


def decompose_displacement(X, geom: SurfaceGeometry) -> Displacement:
    """Split X - X0 into the normal function omega and tangential W."""
    d = np.asarray(X, dtype=float) - geom.grid.X0
    omega = np.einsum("xyc,xyc->xy", d, geom.Nrm)
    W_low = np.einsum("xyc,xyac->xya", d, geom.T)
    return Displacement(omega=omega, W_low=W_low)


def _cov_divergence(comps, index_types, geom):
    """grad contracted against the first (contravariant) slot of comps."""
    cd = _covariant_derivative_raw(comps, index_types, geom.Gamma, geom.grid)
    return cd[:, :, 0, 0] + cd[:, :, 1, 1]


def _double_divergence(S, geom):
    """grad_s grad_t S^{s t}: inner derivative contracts the second slot."""
    inner = _covariant_derivative_raw(S, ("u", "u"), geom.Gamma, geom.grid)
    V = inner[:, :, 0, :, 0] + inner[:, :, 1, :, 1]  # derivative with slot t
    return _cov_divergence(V, ("u",), geom)


#: The force operator, one row per term: (coefficient field, contraction of
#: the field with a jet entry, jet entry, accumulator, sign). The jet is
#: omega, W, hess = grad D omega and gradW = grad W; terms land pointwise in
#: f3 or fmu, under the divergence in T, or under the double divergence in S.
_TERMS = (
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


def compute_force(
    disp: Displacement, coeff: ShellCoefficients, geom: SurfaceGeometry
) -> ShellForceDensity:
    """Evaluate the discrete shell force density applied to the fluid.

    All derivatives are the hybrid difference operator; the hessian of omega
    is the covariant derivative of the 1-form (D omega), exactly as the
    operator is defined. Rows whose coefficient field is identically zero
    (the leading closure on a flat chart zeroes most of them) are skipped.
    The divergences are linear, so each is taken once, of the summed T or S.
    """
    grid, Gamma = geom.grid, geom.Gamma
    omega, W = disp.omega, disp.W_low
    dw = _diff_stack(omega, grid)  # (D_mu omega)
    jet = {"omega": omega, "W": W,
           "hess": _covariant_derivative_raw(dw, ("l",), Gamma, grid),
           "gradW": _covariant_derivative_raw(W, ("l",), Gamma, grid)}
    acc = {"f3": np.zeros_like(omega), "fmu": np.zeros_like(W),
           "T": np.zeros(W.shape + (2,)), "S": np.zeros(W.shape + (2,))}
    for name, spec, arg, target, sign in _TERMS:
        if coeff.active(name):
            acc[target] += sign * np.einsum(spec, getattr(coeff, name), jet[arg])

    f3 = FORCE_ON_FLUID_SIGN * (acc["f3"] + _double_divergence(acc["S"], geom))
    fmu = FORCE_ON_FLUID_SIGN * (
        acc["fmu"] + _cov_divergence(acc["T"], ("u", "u"), geom)
    )
    return ShellForceDensity(
        f3=f3, fmu=fmu, cartesian=force_to_cartesian(f3, fmu, geom)
    )


def force_to_cartesian(f3, fmu, geom: SurfaceGeometry) -> np.ndarray:
    """Assemble f = f3 * N + f^mu T_mu."""
    return f3[..., None] * geom.Nrm + np.einsum("xym,xymc->xyc", fmu, geom.T)
