"""Discrete differential geometry of the reference middle surface.

The shell's middle surface is sampled on a logically rectangular lattice of
``n1 x n2`` nodes. The second parameter direction may have a row-dependent
mesh width (the model strip widens along q1), so direction-2 differences use
the node's own row spacing. Everything downstream (curvature tensors,
Christoffel symbols, covariant derivatives) is built from one hybrid
difference operator: centered in the interior, one-sided forward/backward at
the first/last node of an axis.

All geometric products are computed once per grid and treated as immutable
afterwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class GeometryError(Exception):
    """Base class for unusable surface geometry."""


class DegenerateFrameError(GeometryError):
    """The tangent frame collapsed (|T1 x T2| below tolerance) somewhere."""


class SingularMetricError(GeometryError):
    """det g fell below tolerance somewhere on the lattice."""


# ---------------------------------------------------------------------------
# Grid and difference operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceGrid:
    """Reference lattice of the middle surface.

    dq1         : mesh width of the first parameter direction (cm)
    dq2_of_row  : per-q1-row mesh width of the second direction, shape (n1,)
                  (a scalar is broadcast to all rows)
    X0          : reference node positions, shape (n1, n2, 3) (cm)
    """

    dq1: float
    dq2_of_row: np.ndarray
    X0: np.ndarray

    def __post_init__(self):
        X0 = np.asarray(self.X0, dtype=float)
        if X0.ndim != 3 or X0.shape[2] != 3:
            raise ValueError(f"X0 must have shape (n1, n2, 3), got {X0.shape}")
        n1 = X0.shape[0]
        dq2 = np.broadcast_to(np.asarray(self.dq2_of_row, dtype=float), (n1,)).copy()
        object.__setattr__(self, "X0", X0)
        object.__setattr__(self, "dq2_of_row", dq2)
        object.__setattr__(self, "dq1", float(self.dq1))
        if self.n1 < 5 or self.n2 < 5:
            raise ValueError(f"lattice must be at least 5x5, got {self.n1}x{self.n2}")
        if not np.isfinite(X0).all():
            raise ValueError("X0 contains non-finite positions")
        if not (self.dq1 > 0.0):
            raise ValueError("dq1 must be positive")
        if not (dq2 > 0.0).all():
            raise ValueError("every dq2 row width must be positive")

    @property
    def n1(self) -> int:
        return self.X0.shape[0]

    @property
    def n2(self) -> int:
        return self.X0.shape[1]

    @property
    def node_areas(self) -> np.ndarray:
        """Per-node parameter area weight dq1 * dq2(row), shape (n1, n2)."""
        return np.broadcast_to(
            (self.dq1 * self.dq2_of_row)[:, None], (self.n1, self.n2)
        ).copy()


def surface_diff(values, axis: int, spacing):
    """Hybrid difference D_alpha along parameter axis 1 or 2.

    Centered differences at interior nodes, one-sided forward/backward at the
    first/last node of the axis. `spacing` is a scalar for axis 1; for axis 2
    it may be a per-row array of length n1 (row-dependent mesh width).

    `values` may carry any trailing component axes; the first two axes are the
    lattice.
    """
    v = np.asarray(values, dtype=float)
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    n = v.shape[axis - 1]
    if n < 2:
        raise ValueError(f"need at least 2 nodes along axis {axis}, got {n}")

    out = np.empty_like(v)
    if axis == 1:
        d = float(np.asarray(spacing).item()) if np.ndim(spacing) == 0 else None
        if d is None:
            raise ValueError("axis-1 spacing must be a scalar")
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * d)
        out[0] = (v[1] - v[0]) / d
        out[-1] = (v[-1] - v[-2]) / d
    else:
        sp = np.asarray(spacing, dtype=float)
        if sp.ndim == 0:
            d_in = d_lo = d_hi = float(sp)
        elif sp.ndim == 1 and sp.shape[0] == v.shape[0]:
            # broadcast (n1,) against (n1, n2-slice, components...)
            d_in = sp.reshape((-1,) + (1,) * (v.ndim - 1))
            d_lo = d_hi = sp.reshape((-1,) + (1,) * (v.ndim - 2))
        else:
            raise ValueError("axis-2 spacing must be scalar or shape (n1,)")
        out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * d_in)
        out[:, 0] = (v[:, 1] - v[:, 0]) / d_lo
        out[:, -1] = (v[:, -1] - v[:, -2]) / d_hi
    return out


def _diff_stack(values, grid: SurfaceGrid) -> np.ndarray:
    """Stack (D_1 v, D_2 v) along a new axis at position 2."""
    return np.stack(
        [surface_diff(values, 1, grid.dq1), surface_diff(values, 2, grid.dq2_of_row)],
        axis=2,
    )


# ---------------------------------------------------------------------------
# Covariant differentiation
# ---------------------------------------------------------------------------

def _covariant_derivative_raw(A, index_types, Gamma, grid: SurfaceGrid):
    """Covariant derivative of raw components; new lower index is prepended.

    A has shape (n1, n2, 2, 2, ...), one trailing length-2 axis per tensor
    slot; index_types gives 'l' (covariant) or 'u' (contravariant) per slot.
    Gamma[..., lam, mu, nu] = Gamma^lam_{mu nu}.

    Each Christoffel correction, a sum over sigma in {0, 1}, is formed as a
    two-term sum on (n1, n2) lattice slices, one output component at a time.
    """
    if len(index_types) > 4:
        raise ValueError(
            f"unsupported valence: {len(index_types)} slots (at most 4 supported)"
        )
    out = _diff_stack(A, grid)
    lattice = (slice(None), slice(None))
    for k, t in enumerate(index_types):
        for rest in itertools.product((0, 1), repeat=len(index_types) - 1):
            head, tail = rest[:k], rest[k:]
            A0 = A[lattice + head + (0,) + tail]
            A1 = A[lattice + head + (1,) + tail]
            for a, v in itertools.product((0, 1), repeat=2):
                o = out[lattice + (a,) + head + (v,) + tail]
                if t == "u":
                    # + Gamma^{nu_k}_{alpha sigma} A^{...sigma...}
                    o += Gamma[:, :, v, a, 0] * A0 + Gamma[:, :, v, a, 1] * A1
                else:
                    # - Gamma^{sigma}_{alpha mu_k} A_{...sigma...}
                    o -= Gamma[:, :, 0, a, v] * A0 + Gamma[:, :, 1, a, v] * A1
    return out


# ---------------------------------------------------------------------------
# Intrinsic geometry construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceGeometry:
    """All intrinsic tensors of the reference surface, built once per grid.

    T      : tangent frame T_alpha = D_alpha X0, shape (n1, n2, 2, 3)
    Nrm    : unit normal (T1 x T2)/|T1 x T2|, shape (n1, n2, 3)
    g      : metric g_{mu nu} = T_mu . T_nu, shape (n1, n2, 2, 2)
    ginv   : pointwise inverse metric g^{mu nu}
    b      : second fundamental form b_{mu nu} = sym(D_mu N . T_nu)
    Gamma  : Christoffel symbols, Gamma[..., lam, mu, nu] = Gamma^lam_{mu nu}
    gradb  : covariant derivative of the mixed second form,
             gradb[..., alpha, beta, gamma] = (grad b)_{alpha beta}{}^{gamma}
    """

    grid: SurfaceGrid
    T: np.ndarray
    Nrm: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    b: np.ndarray
    Gamma: np.ndarray
    gradb: np.ndarray


def build_frame(grid: SurfaceGrid):
    """Tangent fields T_alpha = D_alpha X0 and the unit normal."""
    T = _diff_stack(grid.X0, grid)
    cr = np.cross(T[..., 0, :], T[..., 1, :])
    nrm = np.linalg.norm(cr, axis=-1)
    if np.min(nrm) < 1e-14:
        raise DegenerateFrameError(
            f"collapsed parameterization: min |T1 x T2| = {np.min(nrm):.3e}"
        )
    return T, cr / nrm[..., None]


def build_metric(T):
    """Metric g_{mu nu} = T_mu . T_nu and its pointwise 2x2 inverse."""
    g = np.einsum("xyac,xybc->xyab", T, T)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    if np.min(det) < 1e-14:
        raise SingularMetricError(f"min det g = {np.min(det):.3e}")
    ginv = np.empty_like(g)
    ginv[..., 0, 0] = g[..., 1, 1] / det
    ginv[..., 1, 1] = g[..., 0, 0] / det
    ginv[..., 0, 1] = -g[..., 0, 1] / det
    ginv[..., 1, 0] = -g[..., 1, 0] / det
    return g, ginv


def build_second_form(Nrm, T, grid: SurfaceGrid):
    """b_{mu nu} = D_mu N . T_nu, explicitly symmetrized.

    The discrete product is not exactly symmetric; the continuum tensor is,
    and the force operator assumes it, so b <- (b + b^T)/2.
    """
    dN = _diff_stack(Nrm, grid)
    b = np.einsum("xymc,xync->xymn", dN, T)
    return 0.5 * (b + np.swapaxes(b, -1, -2))


def build_christoffel(g, ginv, grid: SurfaceGrid):
    """Gamma^lam_{mu nu} = 1/2 g^{sig lam}(D_nu g_{mu sig} + D_mu g_{sig nu} - D_sig g_{mu nu})."""
    dg = _diff_stack(g, grid)  # dg[..., sig, mu, nu] = D_sig g_{mu nu}
    bracket = (
        dg.transpose(0, 1, 4, 3, 2)  # D_nu g_{mu sig}
        + dg.transpose(0, 1, 3, 2, 4)  # D_mu g_{sig nu}
        - dg
    )
    return 0.5 * np.einsum("xysl,xysmn->xylmn", ginv, bracket)


def mixed_second_form(b, ginv):
    """Raise the second index: b_beta{}^gamma = b_{beta sig} g^{sig gamma}."""
    return np.einsum("xybs,xysg->xybg", b, ginv)


def build_geometry(grid: SurfaceGrid) -> SurfaceGeometry:
    """Run the full initialization chain on a grid."""
    T, Nrm = build_frame(grid)
    g, ginv = build_metric(T)
    b = build_second_form(Nrm, T, grid)
    Gamma = build_christoffel(g, ginv, grid)
    bmix = mixed_second_form(b, ginv)
    gradb = _covariant_derivative_raw(bmix, ("l", "u"), Gamma, grid)
    return SurfaceGeometry(
        grid=grid, T=T, Nrm=Nrm, g=g, ginv=ginv, b=b, Gamma=Gamma, gradb=gradb
    )
