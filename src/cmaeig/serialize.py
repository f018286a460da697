"""Binary and CSV emission for grids, fields, ODE profiles, and branch runs.

Binary layout (version 1, every number little-endian):

    magic            8 bytes   b"CMAFLD1\\n"
    kind             uint32    0 = grid, 1 = scalar field, 2 = Hermitian field
    n                uint32    complex dimension
    h                float64   lattice spacing
    spec_len         uint32    length of the UTF-8 domain-spec JSON
    spec             bytes     canonical JSON (sorted keys, no whitespace)
    lo               float64[2n]      lattice origin
    shape            uint64[2n]       lattice extents
    node_count       uint64           prod(shape)
    num_interior     uint64
    classification   int8[node_count]
    offsets          float64[num_interior * 2n * 2]   boundary-crossing fractions
    kind 1 payload   uint8 boundary flag (always 1: zero boundary values),
                     float64[node_count] values, 0 off the interior
    kind 2 payload   float64[num_interior * n] diagonal,
                     float64[2 * num_interior * n(n-1)/2] upper triangle (re, im)

The loader rebuilds the grid from the embedded spec and requires the stored
classification and offsets to match the rebuilt ones exactly, so a file that
deserializes is also a cross-platform determinism witness.  Values round-trip
bit-exactly (raw IEEE doubles).  A scalar field is read back only if its flag
is 1 and it vanishes off the interior, and no file is read back with bytes
after its payload.  CSV emitters quote nothing and print floats with 17
significant digits, enough to reproduce every double exactly.

All writers are atomic: bytes go to a temporary file in the target directory
which is then os.replace'd over the final name, so a killed process never
leaves a partial file under a final name.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from .domain import INTERIOR, Ball, CustomRho, Ellipsoid, build_grid
from .errors import SerializationError
from .hessian import HermitianField, ScalarField

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "branch_to_csv",
    "field_to_csv",
    "profile_to_csv",
    "read_field",
    "spec_from_dict",
    "spec_to_dict",
    "write_field",
    "write_grid",
]

_MAGIC = b"CMAFLD1\n"
_KIND_GRID, _KIND_SCALAR, _KIND_HERMITIAN = 0, 1, 2


# ---------------------------------------------------------------------------
# Atomic file primitives
# ---------------------------------------------------------------------------


def atomic_write_bytes(path, data):
    """Write bytes to `path` via a same-directory temp file + rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def _fmt(value):
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# Domain specs <-> plain dictionaries
# ---------------------------------------------------------------------------


def spec_to_dict(spec):
    if isinstance(spec, Ball):
        return {"kind": "ball", "n": spec.n, "radius": spec.radius,
                "center": list(spec.center)}
    if isinstance(spec, Ellipsoid):
        return {"kind": "ellipsoid", "axes": list(spec.axes)}
    if isinstance(spec, CustomRho):
        coeffs = sorted((list(expo), c) for expo, c in spec.coeffs.items())
        return {"kind": "custom", "n": spec.n,
                "coeffs": [[e, c] for e, c in coeffs],
                "seed_point": list(spec.seed_point),
                "box": [list(pair) for pair in spec.box]}
    raise SerializationError(f"unknown domain spec {type(spec).__name__}")


def spec_from_dict(d):
    kind = d.get("kind")
    if kind == "ball":
        return Ball(n=int(d["n"]), radius=float(d["radius"]),
                    center=tuple(d["center"]))
    if kind == "ellipsoid":
        return Ellipsoid(axes=tuple(d["axes"]))
    if kind == "custom":
        return CustomRho(
            n=int(d["n"]),
            coeffs={tuple(int(x) for x in e): float(c) for e, c in d["coeffs"]},
            seed_point=tuple(d["seed_point"]),
            box=tuple(tuple(pair) for pair in d["box"]),
        )
    raise SerializationError(f"unknown domain spec kind {kind!r}")


def _spec_json(spec):
    return json.dumps(spec_to_dict(spec), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# Binary writer / reader
# ---------------------------------------------------------------------------


def _grid_bytes(grid, kind):
    d = 2 * grid.n
    spec_json = _spec_json(grid.spec)
    parts = [
        _MAGIC,
        struct.pack("<IId", kind, grid.n, grid.h),
        struct.pack("<I", len(spec_json)),
        spec_json,
        np.asarray(grid.lo, dtype="<f8").tobytes(),
        np.asarray(grid.shape, dtype="<u8").tobytes(),
        struct.pack("<QQ", int(np.prod(grid.shape)), grid.num_interior),
        np.asarray(grid.classification, dtype="<i1").tobytes(),
        np.asarray(grid.theta_axis, dtype="<f8").tobytes(),
    ]
    assert len(parts[4]) == 8 * d and len(parts[5]) == 8 * d
    return parts


def write_grid(grid, path):
    """Serialize the discretization alone (kind 0)."""
    atomic_write_bytes(path, b"".join(_grid_bytes(grid, _KIND_GRID)))


def write_field(obj, path):
    """Serialize a ScalarField or HermitianField with its grid header."""
    if isinstance(obj, ScalarField):
        grid = obj.grid
        values = np.zeros(int(np.prod(grid.shape)), dtype="<f8")
        values[grid.interior_flat] = obj.interior
        parts = _grid_bytes(grid, _KIND_SCALAR)
        parts.append(struct.pack("<B", 1))
        parts.append(values.tobytes())
    elif isinstance(obj, HermitianField):
        parts = _grid_bytes(obj.grid, _KIND_HERMITIAN)
        parts.append(np.asarray(obj.diag, dtype="<f8").tobytes())
        tri = np.ascontiguousarray(obj.tri, dtype="<c16")
        parts.append(tri.view("<f8").tobytes())
    else:
        raise SerializationError(f"cannot serialize {type(obj).__name__}")
    atomic_write_bytes(path, b"".join(parts))


class _Cursor:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, nbytes, what):
        end = self.pos + nbytes
        if end > len(self.data):
            raise SerializationError(f"truncated payload while reading {what}")
        out = self.data[self.pos:end]
        self.pos = end
        return out

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype, count, what):
        dtype = np.dtype(dtype)
        raw = self.take(dtype.itemsize * count, what)
        return np.frombuffer(raw, dtype=dtype).copy()


def read_field(path, grid=None):
    """Load a grid (kind 0) or field; validates against the rebuilt grid.

    When `grid` is omitted the domain spec embedded in the header is rebuilt
    with build_grid; either way the stored classification and crossing
    fractions must match the live grid exactly.
    """
    with open(path, "rb") as fh:
        cur = _Cursor(fh.read())
    if cur.take(len(_MAGIC), "magic") != _MAGIC:
        raise SerializationError("bad magic: not a field/grid payload")
    kind, n, h = cur.unpack("<IId", "header")
    if kind not in (_KIND_GRID, _KIND_SCALAR, _KIND_HERMITIAN):
        raise SerializationError(f"unknown payload kind {kind}")
    (spec_len,) = cur.unpack("<I", "spec length")
    try:
        spec = spec_from_dict(json.loads(cur.take(spec_len, "spec").decode("utf-8")))
    except (ValueError, KeyError, TypeError) as exc:
        raise SerializationError(f"unreadable domain spec: {exc}") from exc
    d = 2 * n
    lo = cur.array("<f8", d, "origin")
    shape = cur.array("<u8", d, "shape")
    node_count, num_interior = cur.unpack("<QQ", "counts")
    classification = cur.array("<i1", node_count, "classification")
    theta = cur.array("<f8", num_interior * d * 2, "offsets")

    if grid is None:
        grid = build_grid(spec, h)
    problems = []
    if grid.n != n or grid.h != h:
        problems.append("n/h")
    if tuple(int(s) for s in shape) != tuple(grid.shape):
        problems.append("shape")
    elif not np.array_equal(lo, np.asarray(grid.lo, dtype=float)):
        problems.append("origin")
    elif int(node_count) != int(np.prod(grid.shape)):
        problems.append("node count")
    elif int(num_interior) != grid.num_interior:
        problems.append("interior count")
    elif not np.array_equal(classification,
                            np.asarray(grid.classification, dtype=np.int8)):
        problems.append("classification")
    elif not np.array_equal(theta.reshape(grid.num_interior, d, 2),
                            grid.theta_axis):
        problems.append("offsets")
    if problems:
        raise SerializationError(
            "stored grid disagrees with the live discretization: "
            + ", ".join(problems)
        )

    if kind == _KIND_GRID:
        out = grid
    elif kind == _KIND_SCALAR:
        (flag,) = cur.unpack("<B", "boundary flag")
        if flag != 1:
            raise SerializationError(f"boundary flag {flag}, expected 1 (zero boundary)")
        values = cur.array("<f8", node_count, "values")
        if np.any(values[grid.classification != INTERIOR] != 0.0):
            raise SerializationError("scalar field is nonzero off the interior")
        out = ScalarField(grid, values[grid.interior_flat])
    else:
        tri_count = n * (n - 1) // 2
        diag = cur.array("<f8", num_interior * n, "diagonal")
        tri = cur.array("<f8", 2 * num_interior * tri_count, "triangle").view("<c16")
        out = HermitianField(grid, diag.reshape(num_interior, n),
                             tri.reshape(num_interior, tri_count))
    if cur.pos != len(cur.data):
        raise SerializationError(f"{len(cur.data) - cur.pos} trailing bytes after the payload")
    return out


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------


def _axis_names(n):
    names = []
    for j in range(1, n + 1):
        names += [f"x{j}", f"y{j}"]
    return names


def field_to_csv(field, path):
    """Interior node coordinates + value, one row per node."""
    grid = field.grid
    lines = [",".join(_axis_names(grid.n) + ["value"])]
    for coords, value in zip(grid.interior_coords, field.interior):
        lines.append(",".join(_fmt(c) for c in coords) + "," + _fmt(value))
    atomic_write_text(path, "\n".join(lines) + "\n")


def branch_to_csv(branch, path):
    """Branch history rows: lambda, sup_norm, iterations, residual."""
    lines = ["lambda,sup_norm,iterations,residual"]
    for point in branch:
        lines.append(",".join([
            _fmt(point.lam),
            _fmt(point.sup_norm),
            str(int(point.report.iterations)),
            _fmt(point.report.final_residual),
        ]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def profile_to_csv(profile, path):
    """Radial ODE samples: t, phi, dphi."""
    lines = ["t,phi,dphi"]
    for t, phi, dphi in zip(profile.t, profile.phi, profile.dphi):
        lines.append(",".join([_fmt(t), _fmt(phi), _fmt(dphi)]))
    atomic_write_text(path, "\n".join(lines) + "\n")
