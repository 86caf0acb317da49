"""Periodic incompressible Navier-Stokes step on a uniform N^3 lattice.

One step treats advection and the body force explicitly (upwind differencing
for advection) and viscosity and pressure implicitly. The implicit system is
a constant-coefficient linear difference system, solved exactly per Fourier
mode:

    a(k) u_hat + g_hat(k) p_hat = r_hat,     g_hat(k) . u_hat = 0

with a(k) = rho/dt + (4 mu/h^2) sum_i sin^2(pi k_i / N) and
g_hat_i(k) = (i/h) sin(2 pi k_i / N), the symbols of the backward/forward
viscous product and the centered gradient. Modes where every g_hat component
vanishes (k_i in {0, N/2}) carry no discrete gradient; the pressure is set to
zero there and u_hat = r_hat / a(k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import lanes

@dataclass(frozen=True)
class FluidParams:
    """Lattice and fluid constants.

    N    : grid points per side (power of two)
    a    : box side (cm)
    rho  : density (g cm^-3)
    mu_f : dynamic viscosity (g cm^-1 s^-1)
    dt   : time step (s)
    """

    N: int
    a: float
    rho: float
    mu_f: float
    dt: float

    def __post_init__(self):
        if self.N < 2 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two, got {self.N}")
        for name in ("a", "rho", "mu_f", "dt"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")

    @property
    def h(self) -> float:
        return self.a / self.N


def upwind_advection(u, h: float):
    """sum_k u_k D_k^{+-} u with the branch chosen per node by sign(u_k).

    Backward differencing where u_k >= 0 (the tie at exactly zero takes the
    backward branch; the product vanishes there anyway), forward where
    u_k < 0.

    The rows along the first axis are formed in blocks (`lanes.share_rows`),
    shared between the lanes on large lattices. Each node's value is the same
    sequence of operations either way, so the result is bit for bit the
    one-thread one.
    """
    u = np.asarray(u, dtype=float)
    adv = np.zeros_like(u)
    lanes.share_rows(lambda lo, hi: _advect_rows(u, h, lo, hi, adv),
                     u.shape[1], u[0].size)
    return adv


def _advect_rows(u, h: float, lo: int, hi: int, adv):
    """Add the upwind advection of rows lo:hi (first lattice axis) of u into
    adv[:, lo:hi].

    Per axis k and component, d[j] = (u[i] - u[i-1]) / h is formed once for
    the rows i = lo + j, j = 0..m, of the slab along k (periodic; along
    k = 0, m = hi - lo and the slab reaches one row past each end, along
    k > 0 it is the whole axis): the backward difference is d[:m] and the
    forward one d[1:], so no shifted copy of u is made.
    """
    slab, out = u[:, lo:hi], adv[:, lo:hi]
    for k in range(3):
        src, first, stop = (u, lo, hi) if k == 0 else (slab, 0, slab.shape[1 + k])
        n, m = src.shape[1 + k], stop - first

        def along(start, end):
            return (slice(None),) * k + (slice(start, end),)

        d = np.empty(slab.shape[1:1 + k] + (m + 1,) + slab.shape[2 + k:])
        # rows whose lower neighbour needs no wrap: j in [j0, j1)
        j0, j1 = int(first == 0), m + int(stop < n)
        wraps = [j for j, w in ((0, first == 0), (m, stop == n)) if w]
        backward = slab[k] >= 0.0
        for c in range(3):
            uc = src[c]
            np.subtract(uc[along(first + j0, first + j1)],
                        uc[along(first + j0 - 1, first + j1 - 1)],
                        out=d[along(j0, j1)])
            for j in wraps:
                np.subtract(uc[along(0, 1)], uc[along(n - 1, n)],
                            out=d[along(j, j + 1)])
            d /= h
            out[c] += slab[k] * np.where(backward, d[along(0, m)],
                                         d[along(1, m + 1)])


def divergence(u, h: float):
    """Centered divergence D0 . u."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[1:])
    for k in range(3):
        out += (np.roll(u[k], -1, axis=k) - np.roll(u[k], 1, axis=k)) / (2.0 * h)
    return out


class FluidSolver:
    """Precomputed Fourier symbols for repeated steps at fixed parameters."""

    def __init__(self, params: FluidParams):
        self.params = params
        N, h = params.N, params.h
        k = np.arange(N)
        s = np.sin(2.0 * np.pi * k / N)
        s[0] = 0.0
        s[N // 2] = 0.0  # exact Nyquist zero of the centered-gradient symbol
        sh = np.sin(np.pi * k / N) ** 2
        sr = s[:N // 2 + 1]  # the rfft half of the last axis, k = 0..N/2
        shr = sh[:N // 2 + 1]
        # broadcastable symbol arrays over the rfft layout (N, N, N//2+1)
        self._s = (s[:, None, None], s[None, :, None], sr[None, None, :])
        self.a_k = params.rho / params.dt + (4.0 * params.mu_f / h**2) * (
            sh[:, None, None] + sh[None, :, None] + shr[None, None, :]
        )
        gsq = (self._s[0] ** 2 + self._s[1] ** 2 + self._s[2] ** 2) / h**2
        self.zero_g = gsq == 0.0
        self._gsq_safe = np.where(self.zero_g, 1.0, gsq)

    def step(self, u, F):
        """Advance one step from velocity u under body force F.

        Returns (u_new, p_new) satisfying the implicit system exactly (to
        roundoff) and discretely divergence-free. Works in place on its own
        temporaries only (u and F are left unchanged) and drops each one once
        it is consumed, which lowers a step's peak memory. Each FFT takes one
        field component; on lattices of at least `lanes.SPLIT_MIN_POINTS`
        points the FFTs and the row blocks are shared between the lanes, bit
        for bit as on one thread.
        """
        prm = self.params
        N = prm.N
        shape = (N,) * 3
        r = np.empty(np.shape(u))
        adv = upwind_advection(u, prm.h)
        lanes.share_rows(lambda lo, hi: self._rhs_rows(u, adv, F, r, lo, hi),
                         N, N**3)
        del adv
        rhat = np.empty((3, N, N, N // 2 + 1), dtype=complex)

        def forward(c):
            rhat[c] = scipy.fft.rfftn(r[c], overwrite_x=True)

        lanes.share(forward, range(3), N**3)
        del r
        phat = np.empty(rhat.shape[1:], dtype=rhat.dtype)
        lanes.share_rows(lambda lo, hi: self._spectral_rows(rhat, phat, lo, hi),
                         N, N**3)
        u_new, p_new = np.empty((3,) + shape), np.empty(shape)

        def inverse(c):  # c = 3 is the pressure
            spectrum, out = (rhat[c], u_new[c]) if c < 3 else (phat, p_new)
            out[...] = scipy.fft.irfftn(spectrum, s=shape, overwrite_x=True)

        lanes.share(inverse, range(4), N**3)
        return u_new, p_new

    def _rhs_rows(self, u, adv, F, r, lo, hi):
        """Rows lo:hi (first lattice axis) of r = (rho/dt) u - rho adv + F;
        scales those rows of adv in place."""
        prm = self.params
        rows = (slice(None), slice(lo, hi))
        out, a = r[rows], adv[rows]
        np.multiply(prm.rho / prm.dt, u[rows], out=out)
        a *= prm.rho
        out -= a
        out += F[rows]

    def _spectral_rows(self, rhat, phat, lo, hi):
        """Rows lo:hi (first axis) of p_hat, and of u_hat over r_hat."""
        h = self.params.h
        rows = slice(lo, hi)
        s0 = self._s[0][rows]
        s1, s2 = self._s[1], self._s[2]
        r, p = rhat[:, rows], phat[rows]
        # p_hat = (conj(g_hat) . r_hat) / |g_hat|^2, zero on the null modes
        np.multiply(s0, r[0], out=p)
        p += s1 * r[1]
        p += s2 * r[2]
        p *= -1j / h
        p /= self._gsq_safe[rows]
        p[self.zero_g[rows]] = 0.0
        # u_hat = (r_hat - g_hat p_hat) / a(k), built over r_hat
        for i, si in enumerate((s0, s1, s2)):
            r[i] -= (1j / h) * si * p
            r[i] /= self.a_k[rows]
