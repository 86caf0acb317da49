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
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .fluid import FluidParams


def phi(r):
    """1D kernel weight; vectorized over any array shape."""
    x = np.abs(np.asarray(r, dtype=float))
    out = np.zeros_like(x)
    m1 = x <= 1.0
    x1 = x[m1]
    out[m1] = (3.0 - 2.0 * x1 + np.sqrt(1.0 + 4.0 * x1 - 4.0 * x1 * x1)) / 8.0
    m2 = (x > 1.0) & (x < 2.0)
    y = 2.0 - x[m2]
    out[m2] = 0.5 - (3.0 - 2.0 * y + np.sqrt(1.0 + 4.0 * y - 4.0 * y * y)) / 8.0
    return out if out.ndim else float(out)


def coupling_matrix(X, params: FluidParams):
    """The sparse M x N^3 kernel-weight matrix S of positions X (..., 3).

    Row m holds node m's 64 tensor-product phi weights at the raveled indices
    of its (periodically wrapped) 4^3 neighborhood; for N < 4 the wrap repeats
    columns, which the sparse products sum. Raises ValueError on non-finite X.
    """
    N, h = params.N, params.h
    Xf = np.asarray(X, dtype=float).reshape(-1, 3)
    if not np.isfinite(Xf).all():
        raise ValueError("non-finite shell position in coupling_matrix")
    s = Xf / h
    base = np.floor(s).astype(np.int64) - 1
    offs = base[:, :, None] + np.arange(4)[None, None, :]
    w = phi(s[:, :, None] - offs)
    idx = offs % N
    w3 = w[:, 0, :, None, None] * w[:, 1, None, :, None] * w[:, 2, None, None, :]
    flat = (
        (idx[:, 0, :, None, None] * N + idx[:, 1, None, :, None]) * N
        + idx[:, 2, None, None, :]
    )
    M = len(Xf)
    # not canonicalized: sorting or merging columns would reorder the sums
    return sparse.csr_array(
        (w3.ravel(), flat.ravel(), 64 * np.arange(M + 1)), shape=(M, N**3)
    )


def spread_force(f, S, dq, params: FluidParams):
    """Spread a shell force density to the lattice (interaction equation 1).

    F(x) = sum_q f(q) delta_h(x - X(q)) dq(q), delta_h the tensor-product
    kernel scaled by h^-3, i.e. F = S^T (f dq / h^3) per component with
    S = coupling_matrix(X, params). `f` is (..., 3) and `dq` the matching
    per-node parameter area weight. Returns (3, N, N, N).
    """
    N, h = params.N, params.h
    ff = np.asarray(f, dtype=float).reshape(-1, 3)
    coef = np.asarray(dq, dtype=float).reshape(-1) / h**3
    F = np.empty((3, N, N, N))
    for c in range(3):
        F[c] = (S.T @ (ff[:, c] * coef)).reshape(N, N, N)
    return F


def interpolate_velocity(u, S):
    """Evaluate the lattice velocity at shell nodes (interaction equation 2).

    U(q) = sum_x u(x) delta_h(x - X(q)) h^3; the h^3 cancels the kernel's
    h^-3, leaving the weighted average S u with weights summing to one.
    `u` is (3, N, N, N); returns (M, 3) in the row order of S.
    """
    uf = np.asarray(u, dtype=float).reshape(3, -1)
    return np.stack([S @ uc for uc in uf], axis=-1)
