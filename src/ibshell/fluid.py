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

import math
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import lanes


def check_N(N: int):
    """ValueError unless N, the lattice points per side, is a power of two."""
    if N < 2 or (N & (N - 1)) != 0:
        raise ValueError(f"N must be a power of two, got {N}")


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
        check_N(self.N)
        for name in ("a", "rho", "mu_f", "dt"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        hh = self.h * self.h  # not h**2, which raises OverflowError
        if not (np.isfinite(hh) and hh > 0.0):
            raise ValueError(f"a = {self.a!r} gives a lattice width h = a/N "
                             f"whose square {hh!r} is not positive and finite")
        # the solver divides by the symbol a(k) = rho/dt + (4 mu_f/h^2)
        # sum_i sin^2(pi k_i/N), which lies in [rho/dt, rho/dt + 12 mu_f/h^2]
        least = self.rho / self.dt
        if not (least > 0.0 and np.isfinite(least) and np.isfinite(1.0 / least)):
            raise ValueError(f"rho = {self.rho!r} makes the fluid symbol's "
                             f"least value rho/dt = {least!r} or its "
                             "reciprocal non-finite")
        if not np.isfinite(least + 12.0 * self.mu_f / hh):
            raise ValueError(f"mu_f = {self.mu_f!r} makes the fluid symbol "
                             "rho/dt + (4 mu_f/h^2) sum sin^2 non-finite")

    @property
    def h(self) -> float:
        return self.a / self.N


def carve(buf, shape, dtype=np.float64, at=0):
    """An uninitialized array of `shape` and an 8-byte `dtype` over floats
    at, at + 1, ... of the flat float64 buffer `buf` where they lie in it;
    else (buf None or too short) a new np.empty array. A borrower of lent
    scratch (`FluidSolver.idle`) takes its arrays so: only what fits lives
    in the lent memory, and the rest is allocated as it would be without."""
    n = math.prod(shape)
    if buf is None or at + n > len(buf):
        return np.empty(shape, dtype)
    return buf[at:at + n].view(dtype).reshape(shape)


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
            # the product is written over the select it reads, so each
            # component forms one slab-sized temporary, not two; it is
            # dropped at once, not kept beside the next one
            t = np.where(backward, d[along(0, m)], d[along(1, m + 1)])
            np.multiply(slab[k], t, out=t)
            np.add(out[c] if k else 0.0, t, out=out[c])
            del t


def divergence(u, h: float):
    """Centered divergence D0 . u."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[1:])
    for k in range(3):
        out += (np.roll(u[k], -1, axis=k) - np.roll(u[k], 1, axis=k)) / (2.0 * h)
    return out


class FluidSolver:
    """Held spectra for repeated steps at fixed parameters.

    The spectra r_hat (3, N, N, N/2+1) are made once, with np.empty, so
    set-up touches none of their pages; each step writes them in place.
    Component c of the right-hand side r is formed in the first N^3 floats
    of r_hat[c] and transformed in place, with no N^3 copy of it. Neither
    p_hat nor p owns memory: between steps p_hat is r_hat[2], which the next
    step's advection rewrites (during the spectral update u_hat[2] waits in
    the outgoing velocity instead, `_spectral_rows`), and `pressure()`
    inverts it into r_hat[2]'s first N^3 floats and lends them. A step that
    finds the lent pressure still held moves to new spectra rather than
    write over it. Only the 1-D sine vectors of the symbols are held; each
    row block of the spectral update forms its own a(k) and |g_hat|^2 from
    them. The pressure before the first step is a read-only zero view, which
    owns no memory (np.zeros would: glibc's calloc writes the pages of the
    freed heap it recycles).

    Between steps r_hat[0] and r_hat[1] hold nothing that is read again:
    the next step's advection and forward transforms write them whole
    before any read. So the solver lends their memory (`idle`) as scratch
    for the work that precedes a step; r_hat[2], which holds p_hat and the
    lent pressure, is never lent.
    """

    def __init__(self, params: FluidParams):
        self.params = params
        N = params.N
        k = np.arange(N)
        s = np.sin(2.0 * np.pi * k / N)
        s[0] = 0.0
        s[N // 2] = 0.0  # exact Nyquist zero of the centered-gradient symbol
        sh = np.sin(np.pi * k / N) ** 2
        half = (N, N, N // 2 + 1)
        # broadcastable 1-D symbol vectors over the rfft layout: the last
        # axis is the rfft half, k = 0..N/2
        self._s = (s[:, None, None], s[None, :, None], s[None, None, :half[2]])
        self._sh = (sh[:, None, None], sh[None, :, None], sh[None, None, :half[2]])
        self._new_spectra()
        # zeros before the first step, owning no memory; None while p_hat
        # holds the pressure; then a weak reference to the pressure lent
        self._p = np.broadcast_to(0.0, (N,) * 3)
        self._solving = False  # True while a step rewrites r_hat

    def _new_spectra(self):
        """Hold new spectra r_hat, with r in its memory and p_hat in r_hat[2]."""
        N = self.params.N
        self._rhat = np.empty((3, N, N, N // 2 + 1), dtype=complex)
        self._phat = self._rhat[2]  # between steps only
        self._r = self._rhat.view(float).reshape(3, -1)[:, :N**3].reshape(
            (3,) + (N,) * 3)

    def idle(self):
        """The memory of r_hat[0] and r_hat[1], lent between steps as two
        disjoint flat float64 buffers of N^2 (N + 2) floats each.

        They hold nothing that is read again, and the next `step` writes
        over them, so a borrower must be done with them before it calls
        the step, and must keep no result in them. Each is lent to one
        thread at a time. r_hat[2] is never lent.
        """
        return tuple(self._rhat[:2].view(float).reshape(2, -1))

    def step(self, u, add_force, out=None):
        """Advance one step from velocity u; add_force(r) adds the body force
        into the right-hand side r (3, N, N, N), which holds
        (rho/dt) u - rho adv when it is called.

        Returns the new velocity, written into `out` (a new array if None):
        it satisfies the implicit system exactly (to roundoff) and is
        discretely divergence-free. `out` must be a C-contiguous float64
        (3, N, N, N) array, and may be u; one that otherwise shares memory
        with u, or has another dtype, shape or layout, raises ValueError
        before anything is read or written. u is read only by the advection
        and the right-hand side, and `out` written only from the spectral
        update on, so a step interrupted before it leaves u as it was. The
        step's pressure is kept as p_hat in r_hat[2] and inverted only when
        `pressure()` reads it; from the advection on, until the step
        returns, `pressure()` raises. If the last pressure read is still
        held, the step first moves to new spectra, so it is not overwritten.
        r_hat[0] and r_hat[1] may have been lent since the last step
        (`idle`): the step writes them before it reads them, and leaves
        them again holding nothing read later.

        The step allocates no (3, N, N, N) field (but new spectra while a
        read pressure is held): the advection and then r
        are formed in r_hat's memory, and each FFT takes one component, in
        place or into `out` (numpy.fft's out=, summed as scipy.fft sums),
        the forward one without an N^3 copy of its input (`_forward`).
        u_hat[2] is formed in `out`'s first N^2 (N+2) floats, which end
        before out[2]: its whole inverse, into out[2], runs beside the
        first two passes of the other components' inverses, and their last
        passes then write over it. From `lanes.SPLIT_MIN_POINTS` points on,
        the lanes share the FFTs and the row blocks, bit for bit as on one
        thread.
        """
        prm = self.params
        N = prm.N
        shape = (3,) + (N,) * 3
        if out is None:
            out = np.empty(np.shape(u))
        elif out is not u and np.shares_memory(out, u):
            raise ValueError("FluidSolver.step: out shares memory with u")
        elif (out.shape != shape or out.dtype != np.float64
              or not out.flags.c_contiguous):  # a reshape copy would drop u_hat[2]
            raise ValueError(f"FluidSolver.step: out must be a C-contiguous "
                             f"float64 array of shape {shape}")
        if isinstance(self._p, weakref.ref) and self._p() is not None:
            self._new_spectra()  # the lent pressure keeps the old ones
        self._p, self._solving = None, True
        r, rhat = self._r, self._rhat
        u2 = out.reshape(-1)[:N * N * (N + 2)].view(complex).reshape(
            rhat.shape[1:])
        upwind_advection(u, prm.h, out=r)
        lanes.share_rows(lambda lo, hi: self._rhs_rows(u, r, lo, hi), N, N**3)
        add_force(r)

        lanes.share(self._forward, range(3), N**3)
        lanes.share_rows(lambda lo, hi: self._spectral_rows(rhat, u2, lo, hi),
                         N, N**3)
        inverse = (lambda: _inverse(u2, out[2]), lambda: _ifft_leading(rhat[0]),
                   lambda: _ifft_leading(rhat[1]))
        lanes.share(lambda job: job(), inverse, N**3)
        lanes.share(lambda c: np.fft.irfft(rhat[c], n=N, axis=2, out=out[c]),
                    range(2), N**3)
        self._solving = False
        return out

    def pressure(self):
        """The pressure of the last step (before the first, a read-only
        zero view).

        The first read after a step inverts the held p_hat in place
        (`_invert_pressure`) and lends a writable view of r_hat[2]'s first
        N^3 floats; later reads return that view until the next step, which
        does not overwrite it while it, or any view made from it, is held.
        The solver keeps only a weak reference to it. Raises RuntimeError
        when the last step was interrupted after it began to rewrite r_hat,
        which holds p_hat.
        """
        p = self._p
        if isinstance(p, weakref.ref):
            p = p()  # None once no caller holds it
        elif p is None:
            if self._solving:
                raise RuntimeError("no pressure: the last FluidSolver.step "
                                   "was interrupted")
            self._invert_pressure()
        if p is None:
            # a base that is not an ndarray: every view made from p keeps p,
            # and so the weak reference, alive
            p = as_strided(self._r[2])
            self._p = weakref.ref(p)
        return p

    def _invert_pressure(self):
        """p = irfftn(p_hat) in r_hat[2]'s first N^3 floats, over p_hat:
        `_ifft_leading`, then irfft along axis 2 over blocks of N rows (the
        first two axes flattened), first block first. Output row q ends at
        float (q + 1) N, before input row q + 1 begins at (q + 1)(N + 2), so
        only a block's own rows are copied: 0.03 MB at N = 64 (0.26 for
        blocks of 8N rows)."""
        N = self.params.N
        _ifft_leading(self._phat)
        rows = self._phat.reshape(N * N, N // 2 + 1)
        out = self._r[2].reshape(N * N, N)
        for lo in range(0, N * N, N):
            np.fft.irfft(rows[lo:lo + N], n=N, out=out[lo:lo + N])

    def _forward(self, c):
        """r_hat[c] = rfftn(r[c]) in r_hat[c]'s memory, which holds r[c], with
        no N^3 copy of r[c]: numpy's rfftn(axes=(1, 0, 2)), pass by pass.

        The rfft along axis 2 runs over blocks of 8N rows (the first two
        axes flattened), last block first: output row q starts at float
        q (N + 2), past every input row not yet read, so only a block's own
        rows are copied. Then fft along axis 0 and then axis 1, in place.
        """
        N = self.params.N
        rows, spectra = self._r[c].reshape(N * N, N), self._rhat[c]
        out = spectra.reshape(N * N, N // 2 + 1)
        for lo in reversed(range(0, N * N, 8 * N)):
            np.fft.rfft(rows[lo:lo + 8 * N], out=out[lo:lo + 8 * N])
        np.fft.fft(spectra, axis=0, out=spectra)
        np.fft.fft(spectra, axis=1, out=spectra)

    def _rhs_rows(self, u, r, lo, hi):
        """Rows lo:hi (first lattice axis) of r = (rho/dt) u - rho adv, over
        the advection adv that r holds, a component at a time."""
        prm = self.params
        for c in range(3):
            rows = (c, slice(lo, hi))
            adv = np.multiply(r[rows], prm.rho, out=r[rows])
            np.subtract(prm.rho / prm.dt * u[rows], adv, out=adv)

    def _spectral_rows(self, rhat, u2, lo, hi):
        """Rows lo:hi (first axis) of u_hat[0] and u_hat[1] over r_hat, of
        u_hat[2] in u2 and then of p_hat over r_hat[2].

        The block's p_hat is formed in a block-sized scratch, since r_hat[2]
        is read until u_hat[2] is formed."""
        prm = self.params
        h = prm.h
        rows = slice(lo, hi)
        s0 = self._s[0][rows]
        s1, s2 = self._s[1], self._s[2]
        r = rhat[:, rows]
        # the block's symbols: a(k) and |g_hat|^2 (1 on the null modes)
        a = self._sh[0][rows] + self._sh[1]
        a = a + self._sh[2]
        a *= 4.0 * prm.mu_f / h**2
        a += prm.rho / prm.dt
        g = s0**2 + s1**2
        g = g + s2**2
        g /= h**2
        zero = g == 0.0
        g[zero] = 1.0
        # complex / real is a complex division: multiply by the reciprocals
        ia, ig = np.divide(1.0, a, out=a), np.divide(1.0, g, out=g)
        # p_hat = (conj(g_hat) . r_hat) / |g_hat|^2, zero on the null modes
        p = np.multiply(s0, r[0])
        p += s1 * r[1]
        p += s2 * r[2]
        p *= -1j / h
        p *= ig
        p[zero] = 0.0
        # u_hat = (r_hat - g_hat p_hat) / a(k), built over r_hat but for
        # u_hat[2], which goes to u2 so that p_hat can take r_hat[2]
        for i, si, ui in ((0, s0, r[0]), (1, s1, r[1]), (2, s2, u2[rows])):
            np.subtract(r[i], (1j / h) * si * p, out=ui)
            ui *= ia
        r[2] = p


def _inverse(spectrum, out):
    """irfftn of an (N, N, N/2+1) spectrum into the real (N, N, N) `out`,
    summed as scipy.fft.irfftn sums it: `_ifft_leading`, which overwrites
    `spectrum`, then irfft along axis 2."""
    _ifft_leading(spectrum)
    np.fft.irfft(spectrum, n=out.shape[2], axis=2, out=out)


def _ifft_leading(spectrum):
    """The first two passes of `_inverse`: ifft along axis 0, then axis 1,
    in place on `spectrum`."""
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    np.fft.ifft(spectrum, axis=1, out=spectrum)
