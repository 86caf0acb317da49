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

Every tensor field is one array, components-first: a field with component
axes (2, 2, ...) has shape (2, 2, ..., n1, n2), so each component is a
contiguous (n1, n2) lattice slice, and the difference operator, the
covariant derivative and every contraction work on the last two axes. The
attributes, arguments and results of this module are these arrays. Only
node positions are (n1, n2, 3) point fields; `components_first` views one
as a (3, n1, n2) field where it meets the tensors.

Each contraction (`_contraction`) is numpy's einsum over the component axes,
with the lattice as its ellipsis, summed in the order einsum sums it on
contiguous lattice-first arrays: one einsum call, or two where both of two
operands end in the summed labels (einsum's two lanes there). The tests pin
every contraction by name, at the layouts production passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .fluid import carve


class GeometryError(ValueError):
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


def components_first(a):
    """(n1, n2, ...) -> (..., n1, n2) view of a point field, as tensors are stored.

    The view `np.moveaxis(a, (0, 1), (-2, -1))` gives, at a fraction of its
    call cost.
    """
    nd = np.ndim(a)
    return np.transpose(a, tuple(range(2, nd)) + (0, 1))


@cache
def _contraction(spec):
    """numpy's einsum on components-first fields, summed as on lattice-first ones.

    `spec` names the component axes only, as in "ac,bc->ab"; every operand
    and the result also carry the lattice (n1, n2) as their last two axes,
    so the result is einsum("xyac,xybc->xyab", ...) of the lattice-first
    fields, bit for bit. Two or more operands are taken, a free index may
    sit on any of them, and an axis may have any length (the cartesian axis
    has 3).

    On components-first fields einsum sums the terms in flat order (labels
    by first appearance in `spec`, the first slowest), each product formed
    left to right. On lattice-first fields it does too, except where two
    operands both end in the summed labels: there term k goes to lane
    k mod 2 and the result is lane 0 + lane 1. Lane k mod 2 is the parity
    of the last summed label, since it is summed alone or has even length,
    so each lane is one einsum over the operands sliced k::2 on their last
    component axis.

    The result is a new array in einsum's layout, which follows the
    operands' strides: C-contiguous for C-contiguous operands
    (`build_christoffel`'s transient `full`, contracted from a sum of
    transposed views, is not on large lattices). The closure's `scratch`, a flat float64
    buffer (lent, `fluid.FluidSolver.idle`), holds lane 1 where it fits
    (`fluid.carve`); the result never lives in it.
    """
    ins, free = spec.split("->")
    ops = ins.split(",")
    summed = "".join(dict.fromkeys(i for op in ops for i in op if i not in free))
    two_lane = len(ops) == 2 and bool(summed) and all(
        op.endswith(summed) for op in ops)
    subscripts = ",".join(op + "..." for op in ops) + "->" + free + "..."
    lane0, lane1 = ([(slice(None),) * (len(op) - 1) + (slice(k, None, 2),)
                     for op in ops] for k in (0, 1))

    # einsum keeps its default order="K": with "C" it iterates a summed axis innermost
    def contract(*fields, scratch=None):
        if not two_lane:
            out = np.einsum(subscripts, *fields)
        else:
            out = np.einsum(subscripts, *(a[at] for a, at in zip(fields, lane0)))
            out += np.einsum(subscripts, *(a[at] for a, at in zip(fields, lane1)),
                             out=carve(scratch, out.shape))
        out += 0.0  # a zero's sign as einsum's sums give it: never -0
        return out

    return contract


def surface_diff(values, axis: int, spacing, out=None):
    """Hybrid difference D_alpha along parameter axis 1 or 2.

    Centered differences at interior nodes, one-sided forward/backward at the
    first/last node of the axis. `spacing` is a scalar for axis 1; for axis 2
    it is a per-row array of length n1 (row-dependent mesh width).

    `values` may carry any leading component axes; the last two axes are the
    lattice. The result goes to `out` when it is given; its lattice axes
    must be contiguous.
    """
    v = np.asarray(values, dtype=float)
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    n = v.shape[axis - 3]
    if n < 2:
        raise ValueError(f"need at least 2 nodes along axis {axis}, got {n}")

    if out is None:
        out = np.empty(v.shape)
    if axis == 1:
        d = float(np.asarray(spacing).item()) if np.ndim(spacing) == 0 else None
        if d is None:
            raise ValueError("axis-1 spacing must be a scalar")
        parts = (
            (out[..., 1:-1, :], v[..., 2:, :], v[..., :-2, :], 2.0 * d),
            (out[..., 0, :], v[..., 1, :], v[..., 0, :], d),
            (out[..., -1, :], v[..., -1, :], v[..., -2, :], d),
        )
    else:
        sp = np.asarray(spacing, dtype=float)
        if sp.shape != v.shape[-2:-1]:
            raise ValueError("axis-2 spacing must have shape (n1,)")
        # the centered difference runs along the flattened lattice, rows
        # joined end to end; the joins land on edge nodes, written after it
        flat = v.shape[:-2] + (-1,)
        vf, of = v.reshape(flat), out.reshape(flat)
        if not np.may_share_memory(of, out):
            raise ValueError("out must have contiguous lattice axes")
        parts = (
            (of[..., 1:-1], vf[..., 2:], vf[..., :-2],
             np.repeat(2.0 * sp, v.shape[-1])[1:-1]),
            (out[..., 0], v[..., 1], v[..., 0], sp),
            (out[..., -1], v[..., -1], v[..., -2], sp),
        )
    for o, hi, lo, d in parts:
        np.subtract(hi, lo, out=o)
        o /= d
    return out


def _diff_stack(values, grid: SurfaceGrid) -> np.ndarray:
    """(D_1 v, D_2 v) of a components-first field, along a new first axis.

    Both differences are written straight into one (2, ...) array.
    """
    v = np.asarray(values, dtype=float)
    out = np.empty((2,) + v.shape)
    surface_diff(v, 1, grid.dq1, out=out[0])
    surface_diff(v, 2, grid.dq2_of_row, out=out[1])
    return out


# ---------------------------------------------------------------------------
# Covariant differentiation
# ---------------------------------------------------------------------------

def _add_christoffel(component, A, index_types, Gamma):
    """Add the Christoffel terms of grad A, in one fixed order, in place.

    component(alpha, slots) is the (n1, n2) array that holds component
    (alpha, *slots) of grad A, or None where that component is not formed.
    Each correction, a sum over sigma in {0, 1}, is a two-term sum on
    (n1, n2) lattice slices.
    """
    for k, t in enumerate(index_types):
        for rest in itertools.product((0, 1), repeat=len(index_types) - 1):
            head, tail = rest[:k], rest[k:]
            A0 = A[head + (0,) + tail]
            A1 = A[head + (1,) + tail]
            for a, v in itertools.product((0, 1), repeat=2):
                o = component(a, head + (v,) + tail)
                if o is None:
                    continue
                if t == "u":
                    # + Gamma^{nu_k}_{alpha sigma} A^{...sigma...}
                    o += Gamma[v, a, 0] * A0 + Gamma[v, a, 1] * A1
                else:
                    # - Gamma^{sigma}_{alpha mu_k} A_{...sigma...}
                    o -= Gamma[0, a, v] * A0 + Gamma[1, a, v] * A1


def _covariant_derivative_raw(A, index_types, Gamma, grid: SurfaceGrid):
    """Covariant derivative of raw components; new lower index is prepended.

    A is components-first, (2, 2, ..., n1, n2), one leading length-2 axis per
    tensor slot; index_types gives 'l' (covariant) or 'u' (contravariant) per
    slot. Gamma is components-first too: Gamma[lam, mu, nu] = Gamma^lam_{mu nu}.
    """
    if len(index_types) > 4:
        raise ValueError(
            f"unsupported valence: {len(index_types)} slots (at most 4 supported)"
        )
    out = _diff_stack(A, grid)
    _add_christoffel(lambda a, slots: out[(a,) + slots], A, index_types, Gamma)
    return out


def _covariant_divergence(A, index_types, slot: int, Gamma, grid: SurfaceGrid):
    """grad_alpha A^{... alpha ...}: the derivative traced against `slot`.

    Forms only the components (alpha, ..., alpha at `slot`, ...) of
    `_covariant_derivative_raw(A, ...)` that the trace reads, each exactly as
    it forms them, and adds the alpha = 0 and 1 parts.
    """
    lead = (slice(None),) * slot
    d = np.empty(A.shape)  # d[..., alpha at slot, ...] = (grad A)[alpha, ...]
    for a, (axis, spacing) in enumerate(((1, grid.dq1), (2, grid.dq2_of_row))):
        surface_diff(A[lead + (a,)], axis, spacing, out=d[lead + (a,)])
    _add_christoffel(lambda a, slots: d[slots] if slots[slot] == a else None,
                     A, index_types, Gamma)
    return d[lead + (0,)] + d[lead + (1,)]


# ---------------------------------------------------------------------------
# Intrinsic geometry construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceGeometry:
    """All intrinsic tensors of the reference surface, built once per grid.

    Every field is a components-first array, every contraction that built
    it `_contraction`'s: C-contiguous, except Gamma, a read-only view of
    the 6 components distinct under its lower-pair symmetry
    (`build_christoffel`). g, ginv, b and gradb are read only by the
    shell's coefficient build, so a `Simulation` holds a
    `dataclasses.replace` copy with those four fields None.

    T      : tangent frame T_alpha = D_alpha X0, shape (2, 3, n1, n2)
    Nrm    : unit normal (T1 x T2)/|T1 x T2|, shape (3, n1, n2)
    g      : metric g_{mu nu} = T_mu . T_nu, shape (2, 2, n1, n2)
    ginv   : pointwise inverse metric g^{mu nu}
    b      : second fundamental form b_{mu nu} = sym(D_mu N . T_nu)
    Gamma  : Christoffel symbols, Gamma[lam, mu, nu] = Gamma^lam_{mu nu}
    gradb  : covariant derivative of the mixed second form,
             gradb[alpha, beta, gamma] = (grad b)_{alpha beta}{}^{gamma}
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
    """Tangent fields T_alpha = D_alpha X0 and the unit normal.

    Returns the (2, 3, n1, n2) frame and the (3, n1, n2) normal. The cross
    product and the norm are summed as np.cross and np.linalg.norm sum them.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        T1, T2 = T = _diff_stack(components_first(grid.X0), grid)
        cr = T1[[1, 2, 0]] * T2[[2, 0, 1]] - T1[[2, 0, 1]] * T2[[1, 2, 0]]
        sq = cr * cr
        nrm = np.sqrt((sq[0] + sq[1]) + sq[2])
    if not np.isfinite(nrm).all():
        raise DegenerateFrameError("the tangent frame overflows: |T1 x T2| "
                                   "is not finite")
    if np.min(nrm) < 1e-14:
        raise DegenerateFrameError(
            f"collapsed parameterization: min |T1 x T2| = {np.min(nrm):.3e}"
        )
    return T, cr / nrm


def build_metric(T):
    """Metric g_{mu nu} = T_mu . T_nu and its pointwise 2x2 inverse."""
    g = _contraction("ac,bc->ab")(T, T)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if np.min(det) < 1e-14:
        raise SingularMetricError(f"min det g = {np.min(det):.3e}")
    ginv = np.empty_like(g)
    ginv[0, 0] = g[1, 1] / det
    ginv[1, 1] = g[0, 0] / det
    ginv[0, 1] = -g[0, 1] / det
    ginv[1, 0] = -g[1, 0] / det
    return g, ginv


def build_second_form(Nrm, T, grid: SurfaceGrid):
    """b_{mu nu} = D_mu N . T_nu, explicitly symmetrized.

    The discrete product is not exactly symmetric; the continuum tensor is,
    and the force operator assumes it, so b <- (b + b^T)/2.
    """
    b = _contraction("mc,nc->mn")(_diff_stack(Nrm, grid), T)
    return 0.5 * (b + b.swapaxes(0, 1))


def build_christoffel(g, ginv, grid: SurfaceGrid):
    """Gamma^lam_{mu nu} = 1/2 g^{sig lam}(D_nu g_{mu sig} + D_mu g_{sig nu} - D_sig g_{mu nu}).

    g is symmetric bit for bit, and so is each bracket in (mu, nu), its two
    first terms swapping places. So Gamma is stored by that symmetry: the
    (2, 2, 2, n1, n2) read-only view of one (2, 3, n1, n2) array that reads
    [lam, mu + nu], whose [lam, 0, 1] and [lam, 1, 0] are the same memory.
    """
    dg = _diff_stack(g, grid)  # dg[sig, mu, nu] = D_sig g_{mu nu}
    bracket = (
        dg.transpose(2, 1, 0, 3, 4)  # D_nu g_{mu sig}
        + dg.transpose(1, 0, 2, 3, 4)  # D_mu g_{sig nu}
        - dg
    )
    # the store is allocated before the full sum it keeps 6 components of,
    # so the sum is freed above it (allocated after it, one build at each
    # of N = 16, 32 and 64 touched ~300 more fresh pages in all)
    store = np.empty((2, 3) + g.shape[2:])
    full = _contraction("sl,smn->lmn")(ginv, bracket)
    for p, (mu, nu) in enumerate(((0, 0), (0, 1), (1, 1))):
        np.multiply(0.5, full[:, mu, nu], out=store[:, p])
    s_lam, s_pair = store.strides[:2]
    return np.lib.stride_tricks.as_strided(
        store, (2, 2, 2) + store.shape[2:],
        (s_lam, s_pair, s_pair) + store.strides[2:], writeable=False)


def mixed_second_form(b, ginv):
    """Raise the second index: b_beta{}^gamma = b_{beta sig} g^{sig gamma}."""
    return _contraction("bs,sg->bg")(b, ginv)


def build_geometry(grid: SurfaceGrid) -> SurfaceGeometry:
    """Run the full initialization chain on a grid. Raises GeometryError
    naming b, Gamma or gradb when one is not finite (mesh widths so small
    that their differences overflow)."""
    T, Nrm = build_frame(grid)
    g, ginv = build_metric(T)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        b = build_second_form(Nrm, T, grid)
        Gamma = build_christoffel(g, ginv, grid)
        gradb = _covariant_derivative_raw(
            mixed_second_form(b, ginv), ("l", "u"), Gamma, grid
        )
    for name, field in (("b", b), ("Gamma", Gamma), ("gradb", gradb)):
        if not np.isfinite(field).all():
            raise GeometryError(f"the rest shell's {name} is not finite")
    return SurfaceGeometry(
        grid=grid, T=T, Nrm=Nrm, g=g, ginv=ginv, b=b, Gamma=Gamma, gradb=gradb
    )
