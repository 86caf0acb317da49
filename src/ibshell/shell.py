"""Coefficient tensors and the elastic force operator of the shell.

The shell's elastic response is a linear fourth-order operator acting on the
displacement decomposition (omega, W) of the middle surface. Its ten
coefficient tensor fields are through-thickness integrals of products of the
surface curvature data; they are precomputed once at initialization and are
immutable afterwards.

The force is pointwise terms + div T + div div S, built from one table of
linear terms, `_TERMS`, each a coefficient field contracted with omega, W,
the hessian of omega or grad W.

Like the geometry, every tensor field here is one components-first array,
(2, ..., n1, n2), from the coefficient build through the force: the ten
coefficient fields, the jet, the accumulators and the tangential parts of
the displacement and the force, as attributes, arguments and results alike.
Only X and the cartesian force density are (n1, n2, 3) point fields. Every
contraction is `geometry._contraction`, an explicit sum of (n1, n2) slices
in the order numpy's einsum sums it on lattice-first arrays, which the spec
alone fixes (the tests pin every one).

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
    _contraction,
    _covariant_derivative_raw,
    _covariant_divergence,
    _diff_stack,
    components_first,
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


@dataclass
class ShellCoefficients:
    """The ten precomputed coefficient tensor fields of the force operator.

    Index conventions follow the defining integrals: e.g. Psi[r, s, t] is the
    coefficient contracted as Psi^{r s t} W_r inside a double divergence over
    (s, t), and Omegabar[m, n, r] multiplies grad_m W_n with r free.
    `compute_coefficients` builds each field as a C-contiguous
    components-first array of the shape listed here, every contraction
    summed in `geometry._contraction`'s order.
    """

    A: np.ndarray         # (n1, n2)
    Abar: np.ndarray      # (2, 2, 2, 2, n1, n2)
    Abbar: np.ndarray     # (2, 2, n1, n2)
    Phi: np.ndarray       # (2, n1, n2)
    Phibar: np.ndarray    # (2, 2, n1, n2)
    Psi: np.ndarray       # (2, 2, 2, n1, n2)
    Psibar: np.ndarray    # (2, 2, 2, 2, n1, n2)
    Omega: np.ndarray     # (2, 2, n1, n2)
    Omegabar: np.ndarray  # (2, 2, 2, n1, n2)
    Obbar: np.ndarray     # (2, 2, 2, 2, n1, n2)

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
    W_low: np.ndarray  # (2, n1, n2) covariant components W_mu


@dataclass
class ShellForceDensity:
    """Force density (per unit parameter area) the shell applies to the fluid."""

    f3: np.ndarray         # (n1, n2) normal component
    fmu: np.ndarray        # (2, n1, n2) tangential components (upper index)
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
    gg1 = _contraction("ab,gd->abgd")(ginv, ginv)
    gg2 = _contraction("ag,bd->abgd")(ginv, ginv)
    gg3 = _contraction("ad,bg->abgd")(ginv, ginv)
    return c1 * gg1 + 0.5 * mu * (gg2 + gg3)


def _curvature_scale(b, ginv):
    """Per-node largest principal curvature |kappa| from the mixed form."""
    bmix = mixed_second_form(b, ginv)
    half_tr = 0.5 * (bmix[0, 0] + bmix[1, 1])
    det = bmix[0, 0] * bmix[1, 1] - bmix[0, 1] * bmix[1, 0]
    disc = np.sqrt(np.maximum(half_tr**2 - det, 0.0))
    return np.abs(half_tr) + disc


class _TPoly:
    """Tensor-field-valued polynomial in the thickness coordinate t (deg <= 2).

    Its coefficients are components-first fields.
    """

    def __init__(self, coeffs):
        self.c = list(coeffs)  # arrays or None, degree-indexed

    def mul(self, other, spec):
        out = [None] * 3
        for i, A in enumerate(self.c):
            if A is None:
                continue
            for j, B in enumerate(other.c):
                if B is None or i + j > 2:
                    continue
                term = _contraction(spec)(A, B)
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
    h0 = np.broadcast_to(mat.h0, (grid.n1, grid.n2)).astype(float)
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
    # gradb[alpha, beta, gamma] = (grad b)_{alpha beta}^{gamma}
    b, gradb = geom.b, geom.gradb
    I0 = 2.0 * h0          # integral of dt
    I2 = (2.0 / 3.0) * h0**3  # integral of t^2 dt
    # explicit t^2: through h0^3 only the bracket's t^0 term, Lam0, survives
    Abar = I2 * Lam0
    Omega = _contraction("stlr,stm,lrn->mn")(Abar, gradb, gradb)

    if order == "leading":
        return ShellCoefficients(
            A=I0 * _contraction("abgd,ab,gd->")(Lam0, b, b), Abar=Abar,
            Abbar=np.zeros_like(b), Phi=np.zeros_like(b[0]),
            Phibar=I0 * _contraction("abmn,ab->mn")(Lam0, b),
            Psi=np.zeros_like(gradb), Psibar=np.zeros_like(Lam0), Omega=Omega,
            Omegabar=np.zeros_like(gradb), Obbar=I0 * Lam0,
        )

    # ---- quadratic closure: Taylor-expand every integrand factor in t ----
    eye = np.zeros_like(b)
    eye[0, 0] = eye[1, 1] = 1.0
    bmix = mixed_second_form(b, geom.ginv)

    theta = _TPoly([eye, bmix, None])                       # theta_a^s
    Blow = _TPoly([b, _contraction("as,sb->ab")(bmix, b), None])
    gmix = _TPoly([eye, 2.0 * bmix, _contraction("as,sb->ab")(bmix, bmix)])
    # inverse metric of the offset surfaces: (g + 2tb + t^2 b g^-1 b)^-1
    g1, g2 = 2.0 * b, Blow.c[1]
    G0 = geom.ginv
    mm = lambda *As: _contraction(  # noqa: E731 - chained per-node 2x2 products
        {2: "ab,bc->ac", 3: "ab,bc,cd->ad", 5: "ab,bc,cd,de,ef->af"}[len(As)])(*As)
    Ginv = _TPoly([G0, -mm(G0, g1, G0), mm(G0, g1, G0, g1, G0) - mm(G0, g2, G0)])
    H = bmix[0, 0] + bmix[1, 1]
    K = bmix[0, 0] * bmix[1, 1] - bmix[0, 1] * bmix[1, 0]
    dets = _TPoly([np.ones_like(h0), H, K])

    c1 = mat.lam * mat.mu / (mat.lam + 2.0 * mat.mu)
    GG1 = Ginv.mul(Ginv, "ab,gd->abgd")
    GG2 = Ginv.mul(Ginv, "ag,bd->abgd")
    GG3 = Ginv.mul(Ginv, "ad,bg->abgd")
    form = _TPoly([c1 * GG1.c[k] + 0.5 * mat.mu * (GG2.c[k] + GG3.c[k])
                   for k in range(3)])
    Lam = form.mul(dets, "abgd,->abgd")

    def close(poly, k_explicit, like):
        """Integrate poly(t) * t^k over (-h0, h0), keeping terms through h0^3."""
        out = np.zeros_like(like)
        for j in range(3):
            m = j + k_explicit
            if m % 2 == 1 or m > 2 or poly.c[j] is None:
                continue
            out += (I0 if m == 0 else I2) * poly.c[j]
        return out

    # each product shared by several brackets is formed once
    LamB = Lam.mul(Blow, "abgd,ab->gd")
    LamBt = LamB.mul(theta, "gd,gm->md")
    LamtGt = (
        Lam.mul(theta, "abgd,as->sbgd")
        .mul(gmix, "sbgd,bt->stgd")
        .mul(theta, "stgd,gm->stmd")
    )
    A = close(LamB.mul(Blow, "gd,gd->"), 0, h0)
    Abbar = close(LamBt.mul(theta, "md,dn->mn"), 1, b)
    Phi = _contraction("tr,trm->m")(Abbar, gradb)
    Phibar = close(LamBt.mul(gmix, "md,dn->mn"), 0, b)
    Psi = _contraction("stmn,str->rmn")(Abar, gradb)
    Psibar = close(LamtGt.mul(theta, "stmd,dn->stmn"), 1, Lam0)
    Omegabar = _contraction("mntl,tlr->mnr")(Psibar, gradb)
    Obbar = close(LamtGt.mul(gmix, "stmd,dn->stmn"), 0, Lam0)
    return ShellCoefficients(
        A=A, Abar=Abar, Abbar=Abbar, Phi=Phi, Phibar=Phibar, Psi=Psi,
        Psibar=Psibar, Omega=Omega, Omegabar=Omegabar, Obbar=Obbar,
    )


# ---------------------------------------------------------------------------
# Displacement decomposition and force evaluation
# ---------------------------------------------------------------------------


def decompose_displacement(X, geom: SurfaceGeometry) -> Displacement:
    """Split X - X0 into the normal function omega and tangential W."""
    d = components_first(np.asarray(X, dtype=float) - geom.grid.X0)
    omega = _contraction("c,c->")(d, geom.Nrm)
    W = _contraction("c,ac->a")(d, geom.T)
    return Displacement(omega=omega, W_low=W)


def _double_divergence(S, geom):
    """grad_s grad_t S^{s t}: inner derivative contracts the second slot."""
    V = _covariant_divergence(S, ("u", "u"), 1, geom.Gamma, geom.grid)
    return _covariant_divergence(V, ("u",), 0, geom.Gamma, geom.grid)


#: The force operator, one row per term: (coefficient field, contraction of
#: the field with a jet entry, jet entry, accumulator, sign). The jet is
#: omega, W, hess = grad D omega and gradW = grad W; terms land pointwise in
#: f3 or fmu, under the divergence in T, or under the double divergence in S.
#: omega carries no component axis, so its spec is empty.
_TERMS = (
    ("A", _contraction(",->"), "omega", "f3", +1),
    ("Abar", _contraction("stmn,mn->st"), "hess", "S", +1),
    ("Abbar", _contraction("st,->st"), "omega", "S", -1),
    ("Abbar", _contraction("st,st->"), "hess", "f3", -1),
    ("Phi", _contraction("n,n->"), "W", "f3", +1),
    ("Phi", _contraction("m,->m"), "omega", "fmu", +1),
    ("Phibar", _contraction("mn,mn->"), "gradW", "f3", +1),
    ("Phibar", _contraction("mn,->mn"), "omega", "T", -1),
    ("Psi", _contraction("mst,m->st"), "W", "S", -1),
    ("Psi", _contraction("mst,st->m"), "hess", "fmu", -1),
    ("Psibar", _contraction("stmn,st->mn"), "gradW", "S", -1),
    ("Psibar", _contraction("nmst,st->nm"), "hess", "T", +1),
    ("Omega", _contraction("mn,n->m"), "W", "fmu", +1),
    ("Omegabar", _contraction("stm,st->m"), "gradW", "fmu", +1),
    ("Omegabar", _contraction("smt,t->sm"), "W", "T", -1),
    ("Obbar", _contraction("stnm,st->nm"), "gradW", "T", -1),
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
    acc = {"f3": np.zeros(omega.shape), "fmu": np.zeros(W.shape),
           "T": np.zeros((2,) + W.shape), "S": np.zeros((2,) + W.shape)}
    for name, contract, arg, target, sign in _TERMS:
        if coeff.active(name):
            term = contract(getattr(coeff, name), jet[arg])
            if sign > 0:
                acc[target] += term
            else:
                acc[target] -= term

    f3 = FORCE_ON_FLUID_SIGN * (acc["f3"] + _double_divergence(acc["S"], geom))
    fmu = FORCE_ON_FLUID_SIGN * (
        acc["fmu"] + _covariant_divergence(acc["T"], ("u", "u"), 0, Gamma, grid)
    )
    return ShellForceDensity(
        f3=f3, fmu=fmu, cartesian=force_to_cartesian(f3, fmu, geom)
    )


def force_to_cartesian(f3, fmu, geom: SurfaceGeometry) -> np.ndarray:
    """Assemble f = f3 * N + f^mu T_mu as an (n1, n2, 3) array."""
    out = np.empty(np.shape(f3) + (3,))
    np.add(f3 * geom.Nrm, _contraction("m,mc->c")(fmu, geom.T),
           out=components_first(out))
    return out
