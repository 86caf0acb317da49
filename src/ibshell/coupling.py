"""Lagrangian-Eulerian coupling through a smoothed delta kernel.

The 3D kernel is a tensor product of a 1D weight function phi supported on
two mesh widths to each side:

    phi(r) = (3 - 2|r| + sqrt(1 + 4|r| - 4 r^2)) / 8      |r| <= 1
           = 1/2 - phi(2 - |r|)                           1 <= |r| <= 2
           = 0                                            |r| >= 2

phi satisfies sum_j phi(r - j) = 1 for every real r, with the even- and
odd-offset partial sums each equal to 1/2; spreading therefore conserves
total force exactly, and interpolation reproduces constants exactly.

Spreading and interpolation use the same weights, so they are adjoint:
<spread(f), u> h^3 = <f, interpolate(u)> dq for any fields f, u.
"""

from __future__ import annotations

import numpy as np

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


def _kernel_stencil(X, params: FluidParams):
    """Flat lattice indices and weights of each node's 4^3 neighborhood.

    X : (M, 3) positions (wrapped periodically). Returns (flat, w3), both
    (M, 64): flat[m] indexes the raveled N^3 lattice and w3[m] holds the
    matching tensor-product phi weights.
    """
    N, h = params.N, params.h
    s = np.asarray(X, dtype=float) / h
    base = np.floor(s).astype(np.int64) - 1
    offs = base[:, :, None] + np.arange(4)[None, None, :]
    w = phi(s[:, :, None] - offs)
    idx = offs % N
    w3 = (
        w[:, 0, :, None, None] * w[:, 1, None, :, None] * w[:, 2, None, None, :]
    ).reshape(-1, 64)
    flat = (
        (idx[:, 0, :, None, None] * N + idx[:, 1, None, :, None]) * N
        + idx[:, 2, None, None, :]
    ).reshape(-1, 64)
    return flat, w3


def spread_force(f, X, dq, params: FluidParams):
    """Spread a shell force density to the lattice (interaction equation 1).

    F(x) = sum_q f(q) delta_h(x - X(q)) dq(q), delta_h the tensor-product
    kernel scaled by h^-3. `f`, `X` are (n1, n2, 3); `dq` is the per-node
    parameter area weight (n1, n2). Returns (3, N, N, N).

    The accumulation is a flat bincount in node order: deterministic,
    independent of any parallel schedule upstream.
    """
    N, h = params.N, params.h
    Xf = np.asarray(X, dtype=float).reshape(-1, 3)
    if not np.isfinite(Xf).all():
        raise ValueError("non-finite shell position in spread_force")
    ff = np.asarray(f, dtype=float).reshape(-1, 3)
    coef = np.asarray(dq, dtype=float).reshape(-1) / h**3
    flat, w3 = _kernel_stencil(Xf, params)
    F = np.empty((3, N, N, N))
    for c in range(3):
        F[c] = np.bincount(
            flat.ravel(), weights=(w3 * (ff[:, c] * coef)[:, None]).ravel(),
            minlength=N**3,
        ).reshape(N, N, N)
    return F


def interpolate_velocity(u, X, params: FluidParams):
    """Evaluate the lattice velocity at shell nodes (interaction equation 2).

    U(q) = sum_x u(x) delta_h(x - X(q)) h^3; the h^3 cancels the kernel's
    h^-3, leaving a weighted average with weights summing to one. Returns an
    array shaped like X.
    """
    Xs = np.asarray(X, dtype=float)
    Xf = Xs.reshape(-1, 3)
    flat, w3 = _kernel_stencil(Xf, params)
    uf = np.asarray(u, dtype=float).reshape(3, -1)
    U = np.einsum("cmk,mk->mc", uf[:, flat], w3)
    return U.reshape(Xs.shape)
