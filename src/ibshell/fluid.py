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


def upwind_advection(u, h: float, out=None):
    """sum_k u_k D_k^{+-} u with the branch chosen per node by sign(u_k).

    Backward differencing where u_k >= 0 (the tie at exactly zero takes the
    backward branch; the product vanishes there anyway), forward where
    u_k < 0. Written into `out` (a new array if None), which must not share
    memory with u.

    The rows along the first axis are formed in blocks (`lanes.share_rows`),
    shared between the lanes on large lattices; each block is written once.
    Each node's value is the same sequence of operations either way, so the
    result is bit for bit the one-thread one.
    """
    u = np.asarray(u, dtype=float)
    adv = np.empty_like(u) if out is None else out
    if np.shares_memory(adv, u):
        raise ValueError("upwind_advection: out shares memory with u")
    lanes.share_rows(lambda lo, hi: _advect_rows(u, h, lo, hi, adv),
                     u.shape[1], u[0].size)
    return adv


def _advect_rows(u, h: float, lo: int, hi: int, adv):
    """Write the upwind advection of rows lo:hi (first lattice axis) of u
    into adv[:, lo:hi], once: the first axis's term is added to 0.0 as it is
    stored (a -0.0 term stores +0.0), then the other two, in axis order.

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
            # one expression: a named product lives on beside the next
            # component's temporaries (4% slower at N = 32 on one core)
            np.add(out[c] if k else 0.0,
                   slab[k] * np.where(backward, d[along(0, m)],
                                      d[along(1, m + 1)]), out=out[c])


def divergence(u, h: float):
    """Centered divergence D0 . u."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[1:])
    for k in range(3):
        out += (np.roll(u[k], -1, axis=k) - np.roll(u[k], 1, axis=k)) / (2.0 * h)
    return out


class FluidSolver:
    """Precomputed Fourier symbols and held spectra for repeated steps at
    fixed parameters.

    The spectra r_hat (3, N, N, N/2+1) and p_hat (N, N, N/2+1) are made once,
    with np.empty, so set-up touches none of their pages; each step writes
    them in place.
    """

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
        half = (N, N, N // 2 + 1)
        self._rhat = np.empty((3,) + half, dtype=complex)
        self._phat = np.empty(half, dtype=complex)
        # r_hat's memory is free until the forward transforms, so the
        # advection is formed there, in a real (3, N, N, N) view of it
        self._adv = self._rhat.reshape(-1).view(float)[:3 * N**3].reshape(
            (3,) + (N,) * 3)
        self._p = np.zeros((N,) * 3)  # None while p_hat holds the pressure
        self._solving = False  # True while a step rewrites p_hat

    def step(self, u, F, out=None):
        """Advance one step from velocity u under body force F.

        Returns the new velocity, written into `out` (a new array if None):
        it satisfies the implicit system exactly (to roundoff) and is
        discretely divergence-free. u and F are left unchanged; an `out` that
        shares memory with either raises ValueError. The step's pressure is
        kept as p_hat and inverted only when `pressure()` reads it.

        With `out` given, the step allocates no (3, N, N, N) field: the
        advection is formed in r_hat's memory, the right-hand side in `out`,
        and each FFT takes one field component, into the held spectra or
        into `out` (numpy.fft's out=, summed as scipy.fft sums); only the
        per-component temporaries of a row block remain. On lattices of at
        least `lanes.SPLIT_MIN_POINTS` points the FFTs and the row blocks are
        shared between the lanes, bit for bit as on one thread.
        """
        prm = self.params
        N = prm.N
        if out is None:
            out = np.empty(np.shape(u))
        elif np.shares_memory(out, u) or np.shares_memory(out, F):
            raise ValueError("FluidSolver.step: out shares memory with u or F")
        adv, rhat, phat = self._adv, self._rhat, self._phat
        upwind_advection(u, prm.h, out=adv)
        lanes.share_rows(lambda lo, hi: self._rhs_rows(u, adv, F, out, lo, hi),
                         N, N**3)

        def forward(c):  # rfft along axis 2, then fft along 0, then 1
            np.fft.rfftn(out[c], axes=(1, 0, 2), out=rhat[c])

        lanes.share(forward, range(3), N**3)
        self._p, self._solving = None, True
        lanes.share_rows(lambda lo, hi: self._spectral_rows(rhat, phat, lo, hi),
                         N, N**3)
        lanes.share(lambda c: _inverse(rhat[c], out[c]), range(3), N**3)
        self._solving = False
        return out

    def pressure(self):
        """The pressure of the last step (zero before the first).

        The first read after a step inverts the held p_hat into a new array;
        later reads return that array until the next step. Raises
        RuntimeError when the last step was interrupted after it began to
        rewrite p_hat.
        """
        if self._p is None:
            if self._solving:
                raise RuntimeError("no pressure: the last FluidSolver.step "
                                   "was interrupted")
            self._p = np.empty((self.params.N,) * 3)
            _inverse(self._phat, self._p)
        return self._p

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


def _inverse(spectrum, out):
    """irfftn of an (N, N, N/2+1) spectrum into the real (N, N, N) `out`,
    summed as scipy.fft.irfftn sums it: ifft along axis 0, then axis 1, in
    place on `spectrum` (which is overwritten), then irfft along axis 2."""
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    np.fft.irfft(spectrum, n=out.shape[2], axis=2, out=out)
