"""The smoothed delta kernel: weights, partition of unity, adjointness.

The shell talks to the fluid lattice exclusively through one 1D weight
function phi supported on |r| < 2. Its defining identities make spreading
conserve total force and interpolation reproduce constants; because the same
weights serve both directions, the two operations are exactly adjoint.
"""

import numpy as np

from ibshell.coupling import coupling_matrix, interpolate_velocity, phi, spread_force
from ibshell.fluid import FluidParams

print("point values:")
print(f"  phi(0)    = {phi(0.0):.6f}   (= 1/2)")
print(f"  phi(+-1)  = {phi(1.0):.6f}   (= 1/4, both branches agree)")
print(f"  phi(+-2)  = {phi(2.0):.6f}   (support edge)")

rng = np.random.default_rng(0)
r = rng.uniform(-3, 3, size=100_000)
j = np.arange(-6, 7)
vals = phi(r[:, None] - j[None, :])
print("\nlattice-sum identities over 1e5 random offsets:")
print(f"  max |sum_j phi(r-j) - 1|      = {np.abs(vals.sum(1) - 1).max():.2e}")
print(f"  max |even-offset sum - 1/2|   = "
      f"{np.abs(vals[:, j % 2 == 0].sum(1) - 0.5).max():.2e}")

prm = FluidParams(N=32, a=0.1, rho=1.034, mu_f=0.0197, dt=1e-8)
M = 400
X = rng.uniform(0, prm.a, size=(1, M, 3))
f = rng.standard_normal((1, M, 3))
dq = np.full((1, M), 1e-5)
S = coupling_matrix(X, prm)
F = spread_force(f, S, dq, prm)
print("\nspreading 400 random point forces onto the 32^3 lattice:")
print(f"  total force error: "
      f"{np.abs(F.sum((1, 2, 3)) * prm.h**3 - (f * dq[..., None]).sum((0, 1))).max():.2e}")

u = rng.standard_normal((3, prm.N, prm.N, prm.N))
U = interpolate_velocity(u, S)
lhs = float(np.sum(F * u)) * prm.h**3
rhs = float(np.sum(f[0] * U * dq[0, :, None]))
print(f"  adjointness <spread f, u> h^3 vs <f, interp u> dq: "
      f"rel err {abs(lhs - rhs) / abs(lhs):.2e}")
