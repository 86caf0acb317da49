"""Snapshot files, displacement graymaps, and CSV tables.

Snapshot byte layout (little-endian, documented for cross-language reading):

    magic     4 bytes   b"IBSH"
    version   uint32    1
    N         uint32    fluid lattice points per side
    n1, n2    uint32    shell lattice dims
    t         float64   snapshot time (s)
    dt        float64   time step (s)
    n_params  uint32
    params    n_params * (name: 24 bytes ASCII NUL-padded, value: float64)
    X         n1*n2*3 float64   C order of (n1, n2, 3): component fastest,
                                then k2, then k1
    u         3 * N^3 float64   per component, x fastest: index ix + N*iy + N^2*iz
    p         N^3 float64       same ordering as one u component

String-valued configuration selectors are carried in the param block as
the index of the value in its choices (ModelConfig._CHOICES).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .simulation import ModelConfig

MAGIC = b"IBSH"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIddI")  # magic, version, N, n1, n2, t, dt, n_params
_NAME_BYTES = 24


@dataclass
class Snapshot:
    N: int
    n1: int
    n2: int
    t: float
    dt: float
    params: dict
    X: np.ndarray  # (n1, n2, 3)
    u: np.ndarray  # (3, N, N, N), axes (component, x, y, z)
    p: np.ndarray  # (N, N, N)


def config_param_block(cfg) -> dict:
    """Flatten a ModelConfig into name -> float for the snapshot header."""
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.name in ModelConfig._CHOICES:
            out[f.name] = float(ModelConfig._CHOICES[f.name].index(v))
        else:
            out[f.name] = float(v)
    return out


def params_to_config(params: dict):
    """Rebuild a ModelConfig from a snapshot param block."""
    kwargs = {}
    for f in fields(ModelConfig):
        if f.name not in params:
            continue
        v = params[f.name]
        if f.name in ModelConfig._CHOICES:
            choices = ModelConfig._CHOICES[f.name]
            if v not in range(len(choices)):
                raise ValueError(f"snapshot param {f.name} has unknown code "
                                 f"{v!r}, not an index into {choices}")
            kwargs[f.name] = choices[int(v)]
        elif f.name in ModelConfig._INT_FIELDS:
            kwargs[f.name] = int(round(v))
        else:
            kwargs[f.name] = v
    return ModelConfig(**kwargs)


def _fluid_to_file_order(arr3d):
    """(x, y, z)-indexed array -> flat with x fastest."""
    return np.ascontiguousarray(arr3d.transpose(2, 1, 0)).ravel()


def _fluid_from_file_order(flat, N):
    return flat.reshape(N, N, N).transpose(2, 1, 0).copy()


def write_snapshot(path, X, u, p, t, dt, params: dict):
    """Write one snapshot; raises OSError annotated with the path."""
    X = np.asarray(X, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    n1, n2, _ = X.shape
    N = p.shape[0]
    try:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, N, n1, n2, float(t), float(dt),
                                  len(params)))
            for name, value in params.items():
                raw = name.encode("ascii")
                if len(raw) > _NAME_BYTES:
                    raise ValueError(f"param name too long: {name!r}")
                fh.write(raw.ljust(_NAME_BYTES, b"\0"))
                fh.write(struct.pack("<d", float(value)))
            X.astype("<f8").tofile(fh)
            for c in range(3):
                _fluid_to_file_order(u[c]).astype("<f8").tofile(fh)
            _fluid_to_file_order(p).astype("<f8").tofile(fh)
    except OSError as exc:
        raise OSError(f"writing snapshot {path}: {exc}") from exc


def read_snapshot(path) -> Snapshot:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"reading snapshot {path}: {exc}") from exc
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a snapshot file (bad magic {blob[:4]!r})")
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot header ({len(blob)} bytes)")
    _, version, N, n1, n2, t, dt, n_params = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    off = _HEADER.size
    size = off + n_params * (_NAME_BYTES + 8) + 8 * (3 * n1 * n2 + 4 * N**3)
    if len(blob) != size:
        raise ValueError(
            f"{path}: snapshot is {len(blob)} bytes, its header implies {size}"
        )
    params = {}
    for _ in range(n_params):
        name = blob[off:off + _NAME_BYTES].rstrip(b"\0").decode("ascii")
        off += _NAME_BYTES
        (params[name],) = struct.unpack_from("<d", blob, off)
        off += 8
    def take(count):
        nonlocal off
        out = np.frombuffer(blob, dtype="<f8", count=count, offset=off).copy()
        off += 8 * count
        return out
    X = take(n1 * n2 * 3).reshape(n1, n2, 3)
    u = np.stack([_fluid_from_file_order(take(N**3), N) for _ in range(3)])
    p = _fluid_from_file_order(take(N**3), N)
    return Snapshot(N=N, n1=n1, n2=n2, t=t, dt=dt, params=params, X=X, u=u, p=p)


# ---------------------------------------------------------------------------
# Displacement graymaps
# ---------------------------------------------------------------------------


def write_displacement_map(omega, path, vmax: float | None = None):
    """8-bit binary PGM of a displacement field, symmetric about zero.

    Black (0) is the maximal downward displacement, white (255) the maximal
    upward one; a zero field renders uniform mid-gray 128. `vmax` pins the
    scale; by default it is max |omega|.
    """
    w = np.asarray(omega, dtype=float)
    scale = float(np.abs(w).max()) if vmax is None else float(vmax)
    if scale == 0.0:
        gray = np.full(w.shape, 128, dtype=np.uint8)
    else:
        unit = np.clip(w / scale, -1.0, 1.0)
        gray = np.rint((unit + 1.0) / 2.0 * 255.0).astype(np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{w.shape[1]} {w.shape[0]}\n255\n".encode("ascii"))
            fh.write(gray.tobytes())
    except OSError as exc:
        raise OSError(f"writing graymap {path}: {exc}") from exc


def read_displacement_map(path):
    """Read back a P5 graymap as a uint8 array (for round-trip checks)."""
    blob = Path(path).read_bytes()
    if not blob.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM")
    try:
        _, dims, _, pixels = blob.split(b"\n", 3)
        width, height = (int(tok) for tok in dims.split())
    except ValueError:
        raise ValueError(f"{path}: malformed PGM header") from None
    if len(pixels) < width * height:
        raise ValueError(f"{path}: truncated PGM ({len(pixels)} pixel bytes)")
    data = np.frombuffer(pixels, dtype=np.uint8, count=width * height)
    return data.reshape(height, width).copy()


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------


def write_csv(path, header, rows):
    """Plain comma-separated table; floats rendered with repr precision."""
    def render(v):
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(render(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"writing csv {path}: {exc}") from exc


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows
