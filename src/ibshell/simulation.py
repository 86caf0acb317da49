"""Helicoidal model shell, configuration, and the coupled time loop.

The model surface is a narrow helicoidal strip around a vertical axis, a
prototype of a piece of the basilar membrane: a curve

    gamma(q1) = (R cos(alpha q1), R sin(alpha q1), H alpha q1)

swept in the horizontal unit normal direction n(q1) = (-cos, -sin, 0) with a
linearly growing width w(q1). Node (k1, k2) sits at

    X(k1, k2) = gamma(k1 dq1) + (k2 dq2(k1 dq1) - w(k1 dq1)/2) n(k1 dq1)

for k_alpha = 1..n_alpha, dq1 = L/(n1-1), dq2(q1) = w(q1)/(n2-1). The index
origin 1 means the q=0 boundary node is absent and the far end overshoots
q1 = L by one mesh width; the lattice is built verbatim anyway and the
thickness law is evaluated with a one-mesh-width domain allowance.

Each time step: (1) shell force (elastic operator + edge clamp springs),
(2) spread to the lattice (plus, at step 0, the impulse), (3) implicit fluid
step, (4) advect the shell nodes with the interpolated new velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .coupling import (
    interpolate_velocity,
    kernel_matrix,
    node_cells,
    spread_force,
    stencil_columns,
)
from .fluid import FluidParams, FluidSolver
from .geometry import SurfaceGrid, build_geometry
from .shell import (
    MaterialParams,
    compute_coefficients,
    compute_force,
    decompose_displacement,
)


class InstabilityError(RuntimeError):
    """The shell wandered further than a/2 from its rest position, or went
    non-finite."""


def nested_surface_dims(N: int):
    """Default dims 10N+1 x 3N/8+1: same mesh widths (dq1 = h/2 exactly),
    odd interval counts so runs at N, 2N, 4N nest by pure subsampling."""
    if N % 16 != 0:
        raise ValueError(f"default surface dims need N divisible by 16, got {N}")
    return 10 * N + 1, (3 * N) // 8 + 1


@dataclass
class ModelConfig:
    """Every knob of the model problem; defaults are the reference set.

    Notes on units as configured: rho is a mass density (g cm^-3) and mu_f a
    dynamic viscosity (g cm^-1 s^-1). F_imp is the magnitude of the impulse
    surface density (g cm^-1 s^-2) applied downward (-z) on the lattice plane
    nearest z_imp.

    thickness_law selects between the compliance-derived law ("exact") and
    its linear tabulated approximation ("table"). The two disagree by ~2.8x
    at q1 = L (the exact law stays near 0.001..0.00125 cm; the linear law
    grows to 0.0035 cm) and produce opposite compliance gradients along the
    strip: compliance grows weakly toward the apex under "exact" and falls
    strongly under "table". Impulse-driven waves run toward the compliant
    end either way; under the default "table" law that end is the base.
    """

    N: int = 32
    a: float = 0.1
    rho: float = 1.034
    mu_f: float = 0.0197
    L: float = 0.5
    L_BM: float = 3.5
    w0: float = 0.015
    w1: float = 0.056
    R: float = 1.0 / 30.0
    H: float = 0.01
    alpha: float = None  # default 1.8 pi / L
    n1: int = None       # default nested_surface_dims(N)
    n2: int = None
    lam: float = 26197503.0
    mu: float = 523950.0
    dt: float = 4.0e-8
    T0: float = 2.0e-6
    thickness_law: str = "table"
    coefficients_order: str = "leading"
    # largest decade stable at the coarsest grid/step pairing (N=16,
    # dt=8e-8, verified through N=64 at dt = 2e-8): 1e8 blows up
    k_clamp: float = 1.0e7
    z_imp: float = None  # default a (top plane, = z = 0 by periodicity)
    F_imp: float = 4.0e-7
    snapshot_every: int = 0

    def __post_init__(self):
        if self.alpha is None:
            self.alpha = 1.8 * math.pi / self.L
        if self.n1 is None or self.n2 is None:
            d1, d2 = nested_surface_dims(self.N)
            self.n1 = d1 if self.n1 is None else self.n1
            self.n2 = d2 if self.n2 is None else self.n2
        if self.z_imp is None:
            self.z_imp = self.a
        for key, choices in self._CHOICES.items():
            if getattr(self, key) not in choices:
                raise ValueError(
                    f"{key} must be one of {choices}, got {getattr(self, key)!r}"
                )
        if self.n1 < 5 or self.n2 < 5:
            raise ValueError(f"surface grid {self.n1}x{self.n2} is too small")
        if not (math.isfinite(self.k_clamp) and self.k_clamp >= 0.0):
            raise ValueError(f"k_clamp must be finite and >= 0, got {self.k_clamp!r}")
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {self.snapshot_every!r}"
            )
        self.fluid_params()  # FluidParams holds the lattice and fluid rules

    @property
    def dq1(self) -> float:
        return self.L / (self.n1 - 1)

    def width(self, q1):
        return self.w0 + (np.asarray(q1) / self.L_BM) * (self.w1 - self.w0)

    def q1_rows(self) -> np.ndarray:
        return self.dq1 * np.arange(1, self.n1 + 1)

    def dq2_rows(self) -> np.ndarray:
        return self.width(self.q1_rows()) / (self.n2 - 1)

    def fluid_params(self) -> FluidParams:
        return FluidParams(N=self.N, a=self.a, rho=self.rho, mu_f=self.mu_f,
                           dt=self.dt)

    def with_resolution(self, N: int, dt: float) -> "ModelConfig":
        """Copy with a new fluid grid; surface dims follow the default law."""
        return replace(self, N=N, dt=dt, n1=None, n2=None)

    # -- flat key-value config files ------------------------------------

    _INT_FIELDS = ("N", "n1", "n2", "snapshot_every")
    # string-valued fields; snapshots store the index, so only append
    _CHOICES = {
        "thickness_law": ("exact", "table"),
        "coefficients_order": ("leading", "quadratic"),
    }

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        """Parse `key = value` lines; errors name the file and line."""
        text = Path(path).read_text()
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in kwargs:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            parse = (str if key in cls._CHOICES
                     else int if key in cls._INT_FIELDS else float)
            try:
                kwargs[key] = parse(val)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad {parse.__name__} value {val!r} for {key}"
                ) from None
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def to_file_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Thickness laws and the model grid
# ---------------------------------------------------------------------------


def thickness_law(q1, law: str = "table", L: float = 0.5, tol: float = 0.0):
    """Half-thickness h0(q1) in cm.

    "exact": 0.001 (1 + 2/3 q1)^{5/3} 10^{-2/9 q1}, derived from the target
    exponential compliance profile. "table": the linear approximation
    0.001 (1 + 5 q1). `tol` extends the admissible domain beyond [0, L]
    (the verbatim lattice overshoots L by one mesh width).
    """
    q = np.asarray(q1, dtype=float)
    slack = tol + 1e-12 * L  # absorb roundoff of q1 = k * dq1 at the far end
    if np.any(q < -slack) or np.any(q > L + slack):
        raise ValueError(f"q1 outside [0, {L}] (tol {tol})")
    if law == "exact":
        return 0.001 * (1.0 + (2.0 / 3.0) * q) ** (5.0 / 3.0) * 10.0 ** (-(2.0 / 9.0) * q)
    if law == "table":
        return 0.001 * (1.0 + 5.0 * q)
    raise ValueError(f"unknown thickness law {law!r}")


def thickness_field(cfg: ModelConfig) -> np.ndarray:
    """h0 on the lattice; a function of q1 only, broadcast across rows."""
    h0_rows = thickness_law(cfg.q1_rows(), cfg.thickness_law, L=cfg.L, tol=cfg.dq1)
    return np.broadcast_to(h0_rows[:, None], (cfg.n1, cfg.n2)).copy()


def build_model_shell(cfg: ModelConfig) -> SurfaceGrid:
    """Discretize the helicoidal strip on the verbatim k = 1..n lattice."""
    q1 = cfg.q1_rows()
    w = cfg.width(q1)
    dq2 = cfg.dq2_rows()
    k2 = np.arange(1, cfg.n2 + 1)
    offset = k2[None, :] * dq2[:, None] - 0.5 * w[:, None]  # (n1, n2)
    ang = cfg.alpha * q1
    gamma = np.stack(
        [cfg.R * np.cos(ang), cfg.R * np.sin(ang), cfg.H * ang], axis=-1
    )
    nvec = np.stack([-np.cos(ang), -np.sin(ang), np.zeros_like(ang)], axis=-1)
    X0 = gamma[:, None, :] + offset[..., None] * nvec[:, None, :]
    return SurfaceGrid(dq1=cfg.dq1, dq2_of_row=dq2, X0=X0)


# ---------------------------------------------------------------------------
# Clamping and the impulse
# ---------------------------------------------------------------------------


def clamp_rows_mask(n1: int, n2: int) -> np.ndarray:
    """Two outermost rows along each of the four edges."""
    m = np.zeros((n1, n2), dtype=bool)
    m[:2] = m[-2:] = True
    m[:, :2] = m[:, -2:] = True
    return m


def clamp_force(X, grid: SurfaceGrid, k_clamp: float) -> np.ndarray:
    """Spring force density -k (X - X0) / dq on the clamped rows (cartesian)."""
    f = np.zeros_like(grid.X0)
    m = clamp_rows_mask(grid.n1, grid.n2)
    f[m] = -k_clamp * (np.asarray(X, dtype=float) - grid.X0)[m] / \
        grid.node_areas[m][:, None]
    return f


def impulse_force(t: float, cfg: ModelConfig, params: FluidParams) -> np.ndarray:
    """Vertical surface force density on the lattice plane nearest z_imp.

    Nonzero only at t = 0: F_z = -F_imp / h on one z-plane (downward), so the
    plane integral sum F h^3 equals -F_imp * a^2 exactly. Later times give a
    zero field.
    """
    F = np.zeros((3, params.N, params.N, params.N))
    if t == 0.0:
        iz = int(round(cfg.z_imp / params.h)) % params.N
        F[2, :, :, iz] = -cfg.F_imp / params.h
    return F


# ---------------------------------------------------------------------------
# The coupled time loop
# ---------------------------------------------------------------------------


class Simulation:
    """Owns the precomputed geometry/coefficients/solver and the state."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.grid = build_model_shell(cfg)
        self.geom = build_geometry(self.grid)
        self.mat = MaterialParams(lam=cfg.lam, mu=cfg.mu, h0=thickness_field(cfg))
        self.coeff = compute_coefficients(
            self.geom, self.mat, order=cfg.coefficients_order
        )
        self.fparams = cfg.fluid_params()
        self.solver = FluidSolver(self.fparams)
        self.dq_area = self.grid.node_areas
        self.X = self.grid.X0.copy()
        self.step_count = 0
        self.u = np.zeros((3, cfg.N, cfg.N, cfg.N))
        self.p = np.zeros((cfg.N, cfg.N, cfg.N))
        self._stencil = None  # S's columns, built at the first step

    @property
    def t(self) -> float:
        """Simulated time, step_count * dt: a product, so it does not drift."""
        return self.step_count * self.cfg.dt

    def shell_force_cartesian(self, X) -> np.ndarray:
        """Elastic force density plus edge clamp springs, in cartesian frame."""
        disp = decompose_displacement(X, self.geom)
        f = compute_force(disp, self.coeff, self.geom)
        return f.cartesian + clamp_force(X, self.grid, self.cfg.k_clamp)

    def omega(self) -> np.ndarray:
        """Current normal displacement field."""
        return decompose_displacement(self.X, self.geom).omega

    def _coupling_matrix(self, X):
        """`coupling.coupling_matrix(X, self.fparams)`, on held columns.

        S's columns depend only on the nodes' cells; they are rebuilt only
        when some node has changed cell since they were built.
        """
        s, cells = node_cells(X, self.fparams)
        if self._stencil is None or not np.array_equal(cells, self._stencil.cells):
            self._stencil = stencil_columns(cells, self.cfg.N)
        return kernel_matrix(s, self._stencil)

    def step(self):
        """One coupled step: force, spread (+impulse), fluid, advect."""
        cfg = self.cfg
        X = self.X
        S = self._coupling_matrix(X)
        f = self.shell_force_cartesian(X)
        F = spread_force(f, S, self.dq_area, self.fparams)
        if self.step_count == 0:
            # the step-0 surface force density acts as an impulse: scaling by
            # 1/dt makes the injected momentum (and hence the whole run)
            # independent of the step size
            F += impulse_force(0.0, cfg, self.fparams) / cfg.dt
        self.u, self.p = self.solver.step(self.u, F)
        U = interpolate_velocity(self.u, S)
        self.X = X + cfg.dt * U.reshape(X.shape)
        self.step_count += 1
        drift = np.abs(self.X - self.grid.X0).max()
        if not drift <= 0.5 * cfg.a:  # also catches a NaN drift
            raise InstabilityError(
                f"max |X - X0| = {drift:.3e} exceeded a/2 at step "
                f"{self.step_count}"
            )

    def run(self, n_steps: int):
        """Advance n_steps."""
        for _ in range(n_steps):
            self.step()
