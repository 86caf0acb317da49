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

    Per axis and component, d[i] = (u[i] - u[i-1]) / h is formed once for
    i = 0..n (periodic, d[n] = d[0]): the backward difference is d[:n] and
    the forward one d[1:], so no shifted copy of u is made.
    """
    u = np.asarray(u, dtype=float)
    adv = np.zeros_like(u)
    for k in range(3):
        n = u.shape[1 + k]

        def along(start, stop):
            return (slice(None),) * k + (slice(start, stop),)

        d = np.empty(u.shape[1:1 + k] + (n + 1,) + u.shape[2 + k:])
        backward = u[k] >= 0.0
        for c in range(3):
            uc = u[c]
            np.subtract(uc[along(1, n)], uc[along(0, n - 1)], out=d[along(1, n)])
            np.subtract(uc[along(0, 1)], uc[along(n - 1, n)], out=d[along(0, 1)])
            d /= h
            d[along(n, n + 1)] = d[along(0, 1)]
            adv[c] += u[k] * np.where(backward, d[along(0, n)], d[along(1, n + 1)])
    return adv


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
        self.gsq = (self._s[0] ** 2 + self._s[1] ** 2 + self._s[2] ** 2) / h**2
        self.zero_g = self.gsq == 0.0
        self._gsq_safe = np.where(self.zero_g, 1.0, self.gsq)

    def step(self, u, F, include_advection: bool = True):
        """Advance one step from velocity u under body force F.

        Returns (u_new, p_new) satisfying the implicit system exactly (to
        roundoff) and discretely divergence-free. Works in place on its own
        temporaries only (u and F are left unchanged) and drops each one once
        it is consumed, which lowers a step's peak memory.
        """
        prm = self.params
        h = prm.h
        r = prm.rho / prm.dt * u
        if include_advection:
            adv = upwind_advection(u, h)
            adv *= prm.rho
            r -= adv
            del adv
        if F is not None:
            r += F
        rhat = scipy.fft.rfftn(r, axes=(1, 2, 3), overwrite_x=True)
        del r
        # p_hat = (conj(g_hat) . r_hat) / |g_hat|^2, zero on the null modes
        phat = self._s[0] * rhat[0]
        phat += self._s[1] * rhat[1]
        phat += self._s[2] * rhat[2]
        phat *= -1j / h
        phat /= self._gsq_safe
        phat[self.zero_g] = 0.0
        # u_hat = (r_hat - g_hat p_hat) / a(k), built over r_hat
        for i in range(3):
            rhat[i] -= (1j / h) * self._s[i] * phat
            rhat[i] /= self.a_k
        shape = (prm.N,) * 3
        u_new = scipy.fft.irfftn(rhat, s=shape, axes=(1, 2, 3), overwrite_x=True)
        del rhat
        p_new = scipy.fft.irfftn(phat, s=shape, overwrite_x=True)
        return u_new, p_new
