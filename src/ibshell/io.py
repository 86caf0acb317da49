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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .simulation import FIELD_TYPES, ModelConfig

MAGIC = b"IBSH"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIddI")  # magic, version, N, n1, n2, t, dt, n_params
_NAME_BYTES = 24
#: one param record: the NUL-padded ASCII name, then the value
_PARAM = np.dtype([("name", f"S{_NAME_BYTES}"), ("value", "<f8")])


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
    for name, kind in FIELD_TYPES.items():
        v = getattr(cfg, name)
        out[name] = float(ModelConfig._CHOICES[name].index(v) if kind is str else v)
    return out


def params_to_config(params: dict):
    """Rebuild a ModelConfig from a snapshot param block.

    A choice code that indexes no choice, or an int field whose value is not
    a finite whole number, raises ValueError naming the param.
    """
    kwargs = {}
    for name, kind in FIELD_TYPES.items():
        if name not in params:
            continue
        v = params[name]
        if kind is str:
            choices = ModelConfig._CHOICES[name]
            if v not in range(len(choices)):
                raise ValueError(f"snapshot param {name} has unknown code "
                                 f"{v!r}, not an index into {choices}")
            v = choices[int(v)]
        elif kind is int:
            if not float(v).is_integer():
                raise ValueError(f"snapshot param {name} = {v!r} is not a "
                                 "finite whole number")
            v = int(v)
        kwargs[name] = v
    return ModelConfig(**kwargs)


def write_snapshot(path, X, u, p, t, dt, params: dict):
    """Write one snapshot; raises OSError annotated with the path.

    A param name that is not ASCII or longer than 24 bytes raises ValueError
    naming the file, before the file is opened.
    """
    X = np.asarray(X, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    n1, n2, _ = X.shape
    N = p.shape[0]
    block = []
    for name, value in params.items():
        try:
            raw = name.encode("ascii")
        except UnicodeEncodeError:
            raise ValueError(f"{path}: param name {name!r} is not ASCII") from None
        if len(raw) > _NAME_BYTES:
            raise ValueError(f"{path}: param name {name!r} is longer than "
                             f"{_NAME_BYTES} bytes")
        block.append((raw, float(value)))
    try:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, N, n1, n2, float(t), float(dt),
                                  len(params)))
            np.array(block, dtype=_PARAM).tofile(fh)
            X.astype("<f8").tofile(fh)
            for field in (*u, p):  # transposed, so x is fastest in the file
                field.T.astype("<f8", order="C").tofile(fh)
    except OSError as exc:
        raise OSError(f"writing snapshot {path}: {exc}") from exc


def read_snapshot(path) -> Snapshot:
    """Read one snapshot; a malformed file raises ValueError naming it.

    Rejected: a bad magic, version or length, a param name that is not
    ASCII, a param block whose N, n1 or n2 is missing or disagrees with the
    header, and a non-finite value in X, u or p.
    """
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
    off = _HEADER.size + n_params * _PARAM.itemsize
    size = off + 8 * (3 * n1 * n2 + 4 * N**3)
    if len(blob) != size:
        raise ValueError(
            f"{path}: snapshot is {len(blob)} bytes, its header implies {size}"
        )
    params = {}
    block = np.frombuffer(blob, dtype=_PARAM, count=n_params, offset=_HEADER.size)
    for raw, value in block.tolist():
        try:
            params[raw.decode("ascii")] = value
        except UnicodeDecodeError:
            raise ValueError(f"{path}: param name {raw!r} is not ASCII") from None
    for key, value in (("N", N), ("n1", n1), ("n2", n2)):
        if key not in params:
            raise ValueError(f"{path}: param {key} is missing (the header's "
                             f"{key} = {value})")
        if params[key] != value:
            raise ValueError(f"{path}: param {key} = {params[key]!r} disagrees "
                             f"with the header's {key} = {value}")
    data = np.frombuffer(blob, dtype="<f8", offset=off)
    X = data[:3 * n1 * n2].reshape(n1, n2, 3).copy()
    # the fluid fields are stored x fastest: transpose to (component, x, y, z)
    fluid = data[3 * n1 * n2:].reshape(4, N, N, N).transpose(0, 3, 2, 1)
    u, p = fluid[:3].copy(), fluid[3].copy()
    for key, arr in (("X", X), ("u", u), ("p", p)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: {key} holds a non-finite value")
    return Snapshot(N=N, n1=n1, n2=n2, t=t, dt=dt, params=params, X=X, u=u, p=p)


# ---------------------------------------------------------------------------
# Displacement graymaps
# ---------------------------------------------------------------------------


def write_displacement_map(omega, path, vmax: float | None = None):
    """8-bit binary PGM of a displacement field, symmetric about zero.

    Black (0) is the maximal downward displacement, white (255) the maximal
    upward one; a zero field renders uniform mid-gray 128. omega must be
    finite. `vmax`, positive and finite, pins the scale; by default max |omega|.
    """
    if vmax is not None and not 0.0 < vmax < np.inf:
        raise ValueError(f"vmax must be positive and finite, got {vmax!r}")
    w = np.asarray(omega, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError(f"{path}: omega holds a non-finite value")
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
        _, dims, maxval, pixels = blob.split(b"\n", 3)
        width, height = (int(tok) for tok in dims.split())
        maxval = int(maxval)
    except ValueError:
        raise ValueError(f"{path}: malformed PGM header") from None
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: PGM size {width}x{height} is not positive")
    if maxval != 255:
        raise ValueError(f"{path}: PGM maxval {maxval} is not 255 (8-bit pixels)")
    if len(pixels) != width * height:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes, not {width * height}")
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
