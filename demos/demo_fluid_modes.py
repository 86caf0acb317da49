"""The FFT-backed implicit fluid step, mode by mode.

Viscosity and pressure are implicit: each Fourier mode of a divergence-free
field is simply multiplied by (rho/dt) / a(k) per step, and the returned
velocity is discretely divergence-free to roundoff. The demo advances single
modes and compares against the closed-form amplification factor.
"""

import numpy as np

from ibshell.fluid import FluidParams, FluidSolver, divergence

prm = FluidParams(N=32, a=0.1, rho=1.034, mu_f=0.0197, dt=1e-8)
solver = FluidSolver(prm)
x = prm.h * np.arange(prm.N)

print("single-mode implicit decay, u_y(x) = sin(2 pi k x / a):")
print("  k   predicted        measured         divergence")
for k in (1, 2, 4, 8, 15):
    u = np.zeros((3, prm.N, prm.N, prm.N))
    u[1] = np.broadcast_to(
        np.sin(2 * np.pi * k * x / prm.a)[:, None, None], (prm.N,) * 3
    )
    # no force, and u_y(x) does not advect itself
    u1 = solver.step(u, lambda r: None)
    amp = (prm.rho / prm.dt) / (
        prm.rho / prm.dt
        + 4 * prm.mu_f / prm.h**2 * np.sin(np.pi * k / prm.N) ** 2
    )
    meas = u1[1].max() / u[1].max()
    print(f"  {k:2d}  {amp:.12f}  {meas:.12f}   "
          f"{np.abs(divergence(u1, prm.h)).max():.1e}")

rng = np.random.default_rng(1)
F = rng.standard_normal((3, prm.N, prm.N, prm.N))
u1 = solver.step(np.zeros((3, prm.N, prm.N, prm.N)),
                 lambda r: np.add(r, F, out=r))  # r += F
print("\nrandom body force, one step from rest:")
print(f"  max |D0 . u| = {np.abs(divergence(u1, prm.h)).max():.2e} "
      f"(vs |u|/h = {np.abs(u1).max() / prm.h:.2e})")
print(f"  momentum injected vs dt F / rho: rel err "
      f"{np.abs((u1.sum((1,2,3)) - prm.dt * F.sum((1,2,3)) / prm.rho)).max() / np.abs(u1.sum((1,2,3))).max():.2e}")
