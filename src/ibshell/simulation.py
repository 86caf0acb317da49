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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import lanes
from .coupling import coupling_matrix, interpolate_velocity, spread_force
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
        # alpha's default and every row's mesh width divide by L
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise ValueError(f"L must be positive and finite, got {self.L!r}")
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
        if not (math.isfinite(self.T0) and self.T0 > 0.0):
            raise ValueError(f"T0 must be positive and finite, got {self.T0!r}")
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {self.snapshot_every!r}"
            )
        h = self.fluid_params().h  # FluidParams holds the lattice and fluid rules
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not math.isfinite(self.F_imp / h / self.dt):  # step 0's impulse
            raise ValueError(f"F_imp = {self.F_imp!r} makes the impulse "
                             "F_imp/(h dt) non-finite")
        if not math.isfinite(self.z_imp / h):  # and the plane it is put on
            raise ValueError(f"z_imp = {self.z_imp!r} makes the impulse plane "
                             "z_imp/h non-finite")
        # MaterialParams holds the material rules
        MaterialParams(lam=self.lam, mu=self.mu, h0=thickness_field(self))
        w = self.width(self.q1_rows())
        if not (np.isfinite(w).all() and (w > 0.0).all()):
            raise ValueError(
                "strip width w(q1) = w0 + (q1/L_BM)(w1 - w0) must be positive "
                f"and finite on every row, got {float(w.min())!r} .. "
                f"{float(w.max())!r}"
            )

    @property
    def dq1(self) -> float:
        return self.L / (self.n1 - 1)

    @np.errstate(all="ignore")  # __post_init__ checks that it is finite
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

    # string-valued fields; snapshots store the index, so only append
    _CHOICES = {
        "thickness_law": ("exact", "table"),
        "coefficients_order": ("leading", "quadratic"),
    }

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        """Parse `key = value` lines; errors name the file and line."""
        text = Path(path).read_text()
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in kwargs:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            parse = FIELD_TYPES[key]
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
        return "".join(f"{name} = {getattr(self, name)}\n" for name in FIELD_TYPES)


#: each ModelConfig field's type in field order: int, float or str (one of
#: `ModelConfig._CHOICES`). The type is also the field's parser from text.
FIELD_TYPES = get_type_hints(ModelConfig)


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


@np.errstate(all="ignore")  # MaterialParams checks that h0 is finite
def thickness_field(cfg: ModelConfig) -> np.ndarray:
    """h0 on the lattice; a function of q1 only, broadcast across rows."""
    h0_rows = thickness_law(cfg.q1_rows(), cfg.thickness_law, L=cfg.L, tol=cfg.dq1)
    return np.broadcast_to(h0_rows[:, None], (cfg.n1, cfg.n2)).copy()


@np.errstate(all="ignore")  # SurfaceGrid checks that X0 is finite
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
# Clamping
# ---------------------------------------------------------------------------


#: the clamped nodes as four (rows, columns) strips: the first and last two
#: rows, and the first and last two columns between them
_CLAMP_STRIPS = (
    (slice(None, 2), slice(None)),
    (slice(-2, None), slice(None)),
    (slice(2, -2), slice(None, 2)),
    (slice(2, -2), slice(-2, None)),
)


def clamp_force(X, grid: SurfaceGrid, k_clamp: float, f: np.ndarray) -> np.ndarray:
    """Add the springs -k (X - X0) / dq on the clamped rows into the
    cartesian force density f, in place, and return f.

    Formed on the four edge strips alone; dq is the row's node area, as in
    `grid.node_areas`.
    """
    area = (grid.dq1 * grid.dq2_of_row)[:, None, None]
    for rows, cols in _CLAMP_STRIPS:
        f[rows, cols] += -k_clamp * (X[rows, cols] - grid.X0[rows, cols]) / \
            area[rows]
    return f


# ---------------------------------------------------------------------------
# The coupled time loop
# ---------------------------------------------------------------------------


class Simulation:
    """Owns the precomputed geometry/coefficients/solver and the state.

    `geom` keeps only what the step reads: the grid, T, Nrm and Gamma. The
    metric, its inverse, b and grad b are read by the coefficient build
    alone, and are released once it has run (None on `geom`).

    `u` is the velocity of the last step and `p` its pressure. A step writes
    its velocity over `u`, which is the same array every step; `p` is lent
    from the solver's spectra, which a later step leaves to it while it is
    held (`FluidSolver.pressure`).
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.grid = build_model_shell(cfg)
        geom = build_geometry(self.grid)
        mat = MaterialParams(lam=cfg.lam, mu=cfg.mu, h0=thickness_field(cfg))
        self.coeff = compute_coefficients(geom, mat, order=cfg.coefficients_order)
        self.geom = replace(geom, g=None, ginv=None, b=None, gradb=None)
        self.fparams = cfg.fluid_params()
        self.solver = FluidSolver(self.fparams)
        self.dq_area = self.grid.node_areas
        self.X = self.grid.X0.copy()
        self.step_count = 0
        self.u = np.zeros((3, cfg.N, cfg.N, cfg.N))
        self._S = None  # the last step's S, rewritten in place by the next

    @property
    def p(self) -> np.ndarray:
        """Pressure of the last step (zeros before the first), inverted in
        the solver's spectra on the first read after a step and lent from
        them (`FluidSolver.pressure`)."""
        return self.solver.pressure()

    @property
    def t(self) -> float:
        """Simulated time, step_count * dt: a product, so it does not drift."""
        return self.step_count * self.cfg.dt

    def shell_force_cartesian(self, X) -> np.ndarray:
        """Elastic force density plus edge clamp springs, in cartesian frame.

        The force's contraction scratch lives in the second buffer the
        solver lends between steps (`FluidSolver.idle`), so this must not
        run while a fluid step does; its result owns its memory."""
        disp = decompose_displacement(X, self.geom)
        f = compute_force(disp, self.coeff, self.geom,
                          scratch=self.solver.idle()[1]).cartesian
        return clamp_force(X, self.grid, self.cfg.k_clamp, f)

    def omega(self) -> np.ndarray:
        """Current normal displacement field."""
        return decompose_displacement(self.X, self.geom).omega

    def step(self):
        """One coupled step: force, spread (+impulse), fluid, advect.

        S reads only the old X, so on large lattices the worker lane
        builds it while this thread forms the shell force: the two are
        `lanes.share`'s items, the force first, so it is always formed on
        this thread, and an error in either surfaces only once both are
        done. The result is bit for bit the serial step's. The two jobs
        take their temporaries from the fluid solver's idle spectra, which
        hold nothing read again until the solve writes them
        (`FluidSolver.idle`): S the first buffer and the force the second,
        so each lane writes only its own, and neither keeps a result there.
        The lattice arrays the step writes are held, as is S while no node
        changes cell. The force is spread into the solve's right-hand side. The
        solve writes over `u` only after its last read of it, so a step
        that raises before then leaves `u` as it was.
        """
        cfg = self.cfg
        X = self.X
        f, S = lanes.share(lambda job: job(),
                           (lambda: self.shell_force_cartesian(X),
                            lambda: coupling_matrix(X, self.fparams, self._S,
                                                    self.solver.idle()[0])),
                           cfg.N**3)
        self._S = S

        def add_force(r):
            spread_force(f, S, self.dq_area, self.fparams, out=r)
            if self.step_count == 0:
                # the impulse: F_z = -F_imp / h on the lattice plane nearest
                # z_imp (plane integral -F_imp a^2), scaled by 1/dt so the
                # injected momentum (and the run) is independent of the step
                # size. u starts at 0, so r held +0 before the spread force
                h = self.fparams.h
                iz = round(cfg.z_imp / h) % cfg.N
                r[2, :, :, iz] += -cfg.F_imp / h / cfg.dt

        self.solver.step(self.u, add_force, out=self.u)
        U = interpolate_velocity(self.u, S)
        self.X = X + cfg.dt * U.reshape(X.shape)
        self.step_count += 1
        drift = np.abs(self.X - self.grid.X0).max()
        if not drift <= 0.5 * cfg.a:  # also catches a NaN drift
            raise InstabilityError(
                f"max |X - X0| = {drift:.3e} exceeded a/2 at step "
                f"{self.step_count}"
            )

    def run(self, n_steps: int, observers=()):
        """Advance n_steps, the one loop over `step`. Each observer is a pair
        (counts, fn), counts a list of step numbers or a range for a cadence:
        after each step whose new step_count is in counts, fn(self) is called,
        observers in list order. An observer that raises stops the run."""
        for _ in range(n_steps):
            self.step()
            for counts, fn in observers:
                if self.step_count in counts:
                    fn(self)
