"""Lagrangian-Eulerian coupling through a smoothed delta kernel.

The 3D kernel is a tensor product of a 1D weight function phi supported on
two mesh widths to each side:

    phi(r) = (3 - 2|r| + sqrt(1 + 4|r| - 4 r^2)) / 8      |r| <= 1
           = 1/2 - phi(2 - |r|)                           1 <= |r| <= 2
           = 0                                            |r| >= 2

phi satisfies sum_j phi(r - j) = 1 for every real r, with the even- and
odd-offset partial sums each equal to 1/2; spreading therefore conserves
total force exactly, and interpolation reproduces constants exactly.

Interpolation is S u and spreading is S^T (f dq / h^3) with one matrix S of
kernel weights, so they are adjoint: <spread(f), u> h^3 = <f, interp(u)> dq.
S is a record of its CSR arrays (`CSR`), checked where it is made; both
products run through scipy's compiled CSR kernels, loaded alone from scipy's
install without importing `scipy.sparse`, whose package import costs ~21 MB
and ~0.28 s, and checked where they are loaded. Spreading sums S^T v straight
into the array it adds to (in a step, the fluid's right-hand side), with no
N^3 vector between.

S's columns depend only on the nodes' cells floor(X/h) - 1, not on where in
its cell a node sits. A time loop passes each step's S back to
`coupling_matrix`, whose one pass over blocks of nodes rewrites S's weights in
place while no node changes cell (in practice the whole run), and writes a
new S's columns beside the weights when one does.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from . import lanes
from .fluid import FluidParams, carve


def _load_sparsetools():
    """scipy's compiled sparse kernels (`scipy/sparse/_sparsetools`), alone.

    `find_spec` locates scipy without importing it, and the extension loads
    without `scipy.sparse`'s package import. Its `csr_matvec` is the kernel
    behind scipy's `S @ x` and its `csc_matvec` the one behind `S.T @ v`.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("ibshell.coupling needs scipy, which is not installed")
    where = os.path.join(spec.submodule_search_locations[0], "sparse")
    ext = importlib.machinery.PathFinder.find_spec("_sparsetools", [where])
    if ext is None:
        raise ImportError(f"no compiled _sparsetools extension in {where}")
    module = importlib.util.module_from_spec(ext)
    ext.loader.exec_module(module)
    _check_kernels(module)
    return module


def _check_kernels(module):
    """Raise ImportError unless `module`'s csr_matvec adds A x, and its
    csc_matvec A^T x, into a nonzero y, with int32 and with int64 indices.

    The kernels are private to scipy, and the products rely on their
    arguments and on their adding into y (spreading adds into its `out`).
    """
    data = np.arange(1.0, 7.0)  # A = [[1, 0, 2, 0], [0, 3, 0, 4], [5, 0, 0, 6]]
    for itype in (np.int32, np.int64):
        indptr = np.array([0, 2, 4, 6], dtype=itype)
        indices = np.array([0, 2, 1, 3, 0, 3], dtype=itype)
        Ax, ATv = np.full(3, 10.0), np.full(4, 10.0)
        module.csr_matvec(3, 4, indptr, indices, data, np.arange(1.0, 5.0), Ax)
        module.csc_matvec(4, 3, indptr, indices, data, np.arange(1.0, 4.0), ATv)
        # 10 + A (1, 2, 3, 4) and 10 + A^T (1, 2, 3), summed by hand
        if (Ax.tolist() != [10 + 1 + 6, 10 + 6 + 16, 10 + 5 + 24]
                or ATv.tolist() != [10 + 1 + 15, 10 + 6, 10 + 2, 10 + 8 + 18]):
            # imported here only: importlib.metadata adds ~1.8 MB to every
            # process that imports ibshell
            from importlib.metadata import version
            raise ImportError(
                f"scipy {version('scipy')}: its compiled sparse kernels do "
                f"not add A x and A^T x into y with {itype.__name__} "
                f"indices, as ibshell.coupling needs")


_sparsetools = _load_sparsetools()

#: nodes per block of the weight transpose: 64 weights x 512 nodes is 256 kB
_BLOCK = 512


def _core(y):
    """phi on its inner branch, 0 <= y <= 1."""
    return (3.0 - 2.0 * y + np.sqrt(1.0 + 4.0 * y - 4.0 * y * y)) / 8.0


def phi(r):
    """1D kernel weight; vectorized over any array shape."""
    x = np.abs(np.asarray(r, dtype=float))
    inner = x <= 1.0
    # y = |r| on the inner branch and 2 - |r| on the outer one, clipped at 0:
    # past the support core is then exactly 1/2, so 1/2 - core is exactly 0
    core = _core(np.where(inner, x, np.fmax(2.0 - x, 0.0)))
    out = np.where(inner, core, 0.5 - core)
    return out if out.ndim else float(out)


def _stencil_phi(r):
    """phi(r), bit for bit, for r = s - (floor(s) - 1 + j) with the offset
    j = 0..3 along axis 1.

    Each offset's branch is fixed: |r| <= 1 for j = 1, 2 and
    1 <= |r| <= 2 for j = 0, 3 (rounding keeps r inside those bounds), and
    where |r| = 1 both branches give core(1) = 1/4 exactly. `r` is
    overwritten.
    """
    y = np.abs(r, out=r)
    outer = y[:, 0::3]
    np.subtract(2.0, outer, out=outer)
    w = _core(y)
    np.subtract(0.5, w[:, 0::3], out=w[:, 0::3])
    return w


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse matrix as its CSR arrays, under scipy's attribute names.

    Row m's entries are data[indptr[m]:indptr[m + 1]] at the columns
    indices[indptr[m]:indptr[m + 1]]; `indices` and `indptr` share one
    integer dtype. A `scipy.sparse.csr_array` serves wherever one is read.

    The compiled kernels index by these arrays unchecked, so a record is
    checked when it is made, and a malformed one raises ValueError naming
    the field.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def __post_init__(self):
        M, n = self.shape
        data, indices, indptr = self.data, self.indices, self.indptr
        if data.dtype != np.float64 or data.ndim != 1:
            bad = "data: must be a 1-D float64 array"
        elif indptr.dtype not in (np.int32, np.int64) or indices.dtype != indptr.dtype:
            bad = "indices, indptr: must share one dtype, int32 or int64"
        elif indptr.shape != (M + 1,):
            bad = f"indptr: must have shape ({M + 1},), not {indptr.shape}"
        elif indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any():
            bad = "indptr: must start at 0 and never decrease"
        elif indices.shape != data.shape or len(data) != indptr[-1]:
            bad = (f"indices, data: must both have shape ({indptr[-1]},), "
                   f"not {indices.shape} and {data.shape}")
        # one pass: viewed as unsigned, a negative column reads as a huge one
        elif len(indices) and indices.view(f"u{indices.itemsize}").max() >= n:
            bad = f"indices: every column must lie in [0, {n})"
        else:
            return
        raise ValueError(f"CSR {bad}")


def coupling_matrix(X, params: FluidParams, S=None, scratch=None):
    """The M x N^3 kernel-weight matrix S, a `CSR`, of positions X (..., 3).

    Row m holds node m's 64 tensor-product phi weights at the raveled indices
    of its (periodically wrapped) 4^3 neighborhood; for N < 4 the wrap repeats
    columns, which the sparse products sum. Raises ValueError on non-finite X.

    `S`, when given, is the matrix of earlier positions. If it has the same
    shape and every row still starts at the same column (no node changed
    cell, up to the period), the weights are rewritten into its data and S
    itself is returned; otherwise a new S is built. The lattice coordinates
    X/h and the int64 cells are one (3, M) array each, the floor cast
    straight into the cells, and the check ravels the wrapped cells one
    axis at a time into one M-vector. One pass over blocks of nodes forms
    each block's cells + offsets (3, 4, nodes), writes a new S's columns
    from them, and writes the weights as the per-axis phi's tensor product
    (w0 w1) w2, each block's product dropped as it is written. Each offset
    in the stencil fixes its branch of phi (`_stencil_phi`, bit for bit
    `phi`).

    `scratch`, a flat float64 buffer (in a step, lent from the fluid
    solver's idle spectra, `FluidSolver.idle`), holds what fits of the
    coordinates, the cells and, after them, the check's first columns and
    then each block's offsets, `_stencil_phi` argument and weight product
    (`fluid.carve`). The same operations run either way, so S's bits do
    not depend on it; S's arrays never live in it.
    """
    Xf = np.asarray(X, dtype=float).reshape(-1, 3)
    if not np.isfinite(Xf).all():
        raise ValueError("non-finite shell position in coupling_matrix")
    N, M = params.N, len(Xf)
    s = np.divide(Xf.T, params.h, out=carve(scratch, (3, M)))  # lattice coordinates
    cells = np.floor(s, out=carve(scratch, (3, M), np.int64, at=3 * M),
                     casting="unsafe")
    cells -= 1
    free = 6 * M  # the first float of scratch past the cells

    def column(i, j, k):  # S's column layout: lattice point (i, j, k) raveled
        return (i * N + j) * N + k

    def first_columns():  # column(*(cells % N)) one axis at a time, no (3, M) array
        col = carve(scratch, (M,), np.int64, at=free)
        col[...] = 0
        for c in cells:
            col *= N
            col += c % N
        return col

    # a row's first column, its wrapped cell's, fixes all 64
    new = (S is None or S.shape != (M, N**3)
           or not np.array_equal(S.indices[::64], first_columns()))
    if new:
        big = max(N**3, 64 * M) > np.iinfo(np.int32).max
        itype = np.int64 if big else np.int32
        data, indices = np.empty((M, 64)), np.empty((M, 64), dtype=itype)
    else:
        data = S.data.reshape(M, 64)
    offsets = np.arange(4)[:, None]
    for a in range(0, M, _BLOCK):
        b = slice(a, a + _BLOCK)
        n = min(_BLOCK, M - a)
        # (3, 4, nodes) cells + offsets
        o = np.add(cells[:, None, b], offsets,
                   out=carve(scratch, (3, 4, n), np.int64, at=free))
        if new:
            i, j, k = o % N
            flat = column(i[:, None, None], j[None, :, None], k[None, None, :])
            indices[b] = flat.reshape(64, -1).T
        # phi's argument is dead once w is formed: w0 w1 takes its floats
        at = free + 12 * n
        w = _stencil_phi(np.subtract(s[:, None, b], o,
                                     out=carve(scratch, (3, 4, n), at=at)))
        # one expression: a named product would live on beside the next block's
        data[b] = np.multiply(
            np.multiply(w[0][:, None, None], w[1][None, :, None],
                        out=carve(scratch, (4, 4, 1, n), at=at)),
            w[2][None, None, :],
            out=carve(scratch, (4, 4, 4, n), at=at + 16 * n)).reshape(64, -1).T
    if new:  # not canonicalized: sorting or merging columns would reorder the sums
        indptr = np.arange(0, 64 * M + 1, 64, dtype=itype)
        S = CSR(data.reshape(-1), indices.reshape(-1), indptr, (M, N**3))
    return S


def spread_force(f, S, dq, params: FluidParams, out=None):
    """Spread a shell force density to the lattice (interaction equation 1).

    F(x) = sum_q f(q) delta_h(x - X(q)) dq(q), delta_h the tensor-product
    kernel scaled by h^-3, i.e. F = S^T (f dq / h^3) per component with
    S = coupling_matrix(X, params). `f` is (..., 3) and `dq` the matching
    per-node parameter area weight. Returns F (3, N, N, N): each term of
    S^T v added in place into `out`, float64 with C-contiguous components
    (zeros if None). The lanes share the components (`lanes.share`).
    """
    N, h = params.N, params.h
    M, n = S.shape
    ff = np.asarray(f, dtype=float).reshape(-1, 3)
    coef = np.asarray(dq, dtype=float).reshape(-1) / h**3
    if len(ff) != M or len(coef) != M:  # the kernel reads v unchecked
        raise ValueError(f"spread_force: {len(ff)} forces and {len(coef)} "
                         f"weights for the {M} rows of S")
    F = np.zeros((3, N, N, N)) if out is None else out
    if (n != N**3 or F.shape != (3, N, N, N) or F.dtype != np.float64
            or not F[0].flags.c_contiguous):  # a reshape copy would drop the force
        raise ValueError(f"spread_force: out must be a float64 (3, {N}, {N}, "
                         f"{N}) with C-contiguous components for S's {n} columns")

    def spread(c):  # F[c] += S^T v, term by term in S's row order
        _sparsetools.csc_matvec(n, M, S.indptr, S.indices, S.data,
                                ff[:, c] * coef, F[c].reshape(-1))

    lanes.share(spread, range(3), N**3)
    return F


def interpolate_velocity(u, S):
    """Evaluate the lattice velocity at shell nodes (interaction equation 2).

    U(q) = sum_x u(x) delta_h(x - X(q)) h^3; the h^3 cancels the kernel's
    h^-3, leaving the weighted average S u with weights summing to one.
    `u` is (3, N, N, N); returns (M, 3) in the row order of S. The
    components are shared between the lanes on large lattices.
    """
    M, n = S.shape
    uf = np.asarray(u, dtype=float).reshape(3, -1)
    if uf.shape[1] != n:  # the kernel reads u unchecked
        raise ValueError(f"interpolate_velocity: {uf.shape[1]} lattice points "
                         f"per component for the {n} columns of S")
    U = np.empty((M, 3))

    def interpolate(c):
        y = np.zeros(M)  # S u as scipy's S @ u forms it: summed into zeros
        _sparsetools.csr_matvec(M, n, S.indptr, S.indices, S.data, uf[c], y)
        U[:, c] = y

    lanes.share(interpolate, range(3), uf.shape[1])
    return U
