"""Round-trip and format tests for binary/CSV emission."""

import os

import numpy as np
import pytest

from cmaeig.dirichlet import solve_frozen
from cmaeig.domain import Ball, CustomRho, Ellipsoid, build_grid
from cmaeig.errors import SerializationError
from cmaeig.hessian import HermitianField, ScalarField, complex_hessian
from cmaeig.radial import radial_profile
from cmaeig.serialize import (
    atomic_write_bytes,
    branch_to_csv,
    field_to_csv,
    profile_to_csv,
    read_field,
    spec_from_dict,
    spec_to_dict,
    write_field,
    write_grid,
)
from cmaeig.eigenpath import solve_branch


@pytest.fixture(scope="module")
def disc():
    return build_grid(Ball(1, 1.0), 1.0 / 16)


@pytest.fixture(scope="module")
def ball4():
    return build_grid(Ball(2, 1.0), 0.25)


# ------------------------------------------------------------------ spec dicts


@pytest.mark.parametrize("spec", [
    Ball(1, 1.0),
    Ball(2, 0.75, center=(0.1, 0.0, -0.2, 0.3)),
    Ellipsoid(axes=(1.0, 2.0)),
    CustomRho(
        n=1,
        coeffs={(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0},
        seed_point=(0.0, 0.0),
        box=((-1.1, 1.1), (-1.1, 1.1)),
    ),
])
def test_spec_dict_round_trip(spec):
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_dict_rejects_unknown():
    with pytest.raises(SerializationError, match="kind"):
        spec_from_dict({"kind": "torus"})


# ---------------------------------------------------------------- binary round


def test_scalar_field_round_trip(tmp_path, disc):
    u, _ = solve_frozen(np.ones(disc.num_interior), disc, 1e-10)
    path = tmp_path / "field.bin"
    write_field(u, path)
    back = read_field(path)
    assert isinstance(back, ScalarField)
    assert np.array_equal(back.interior, u.interior)  # bit-exact


def scalar_payload(disc, tmp_path):
    """(bytes of a written scalar field, offset of its boundary-flag byte)."""
    path = tmp_path / "field.bin"
    write_field(ScalarField(disc, -0.5 * np.ones(disc.num_interior)), path)
    data = path.read_bytes()
    return data, len(data) - 8 * int(np.prod(disc.shape)) - 1


def test_read_rejects_nonzero_value_off_the_interior(tmp_path, disc):
    data, flag = scalar_payload(disc, tmp_path)
    off = int(np.flatnonzero(disc.classification != 2)[0])
    start = flag + 1 + 8 * off
    bad = data[:start] + np.float64(0.25).tobytes() + data[start + 8:]
    (tmp_path / "bad.bin").write_bytes(bad)
    with pytest.raises(SerializationError, match="off the interior"):
        read_field(tmp_path / "bad.bin")


def test_read_rejects_boundary_flag_other_than_one(tmp_path, disc):
    data, flag = scalar_payload(disc, tmp_path)
    for byte in (0, 7):
        (tmp_path / "bad.bin").write_bytes(data[:flag] + bytes([byte]) + data[flag + 1:])
        with pytest.raises(SerializationError, match="boundary flag"):
            read_field(tmp_path / "bad.bin")


def test_read_rejects_trailing_bytes(tmp_path, disc):
    data, _ = scalar_payload(disc, tmp_path)
    (tmp_path / "long.bin").write_bytes(data + b"\x00")
    with pytest.raises(SerializationError, match="trailing"):
        read_field(tmp_path / "long.bin")


def test_hermitian_field_round_trip(tmp_path, ball4):
    r2 = np.sum(ball4.interior_coords ** 2, axis=1)
    u = ScalarField(ball4, r2 - 1.0)
    hess = complex_hessian(u)
    path = tmp_path / "hess.bin"
    write_field(hess, path)
    back = read_field(path, grid=ball4)
    assert isinstance(back, HermitianField)
    assert np.array_equal(back.diag, hess.diag)
    assert np.array_equal(back.tri, hess.tri)
    m, mb = hess.matrices(), back.matrices()
    assert np.array_equal(m, mb)
    assert np.array_equal(mb, np.conj(np.swapaxes(mb, 1, 2)))  # M = M* exactly


def test_grid_round_trip(tmp_path, disc):
    path = tmp_path / "grid.bin"
    write_grid(disc, path)
    back = read_field(path)
    assert back.shape == disc.shape
    assert np.array_equal(back.classification, disc.classification)
    assert np.array_equal(back.theta_axis, disc.theta_axis)


def test_read_validates_against_supplied_grid(tmp_path, disc):
    u = ScalarField(disc, np.zeros(disc.num_interior))
    path = tmp_path / "field.bin"
    write_field(u, path)
    other = build_grid(Ball(1, 1.0), 1.0 / 8)
    with pytest.raises(SerializationError, match="disagrees"):
        read_field(path, grid=other)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAFLD1" + b"\x00" * 64)
    with pytest.raises(SerializationError, match="magic"):
        read_field(path)


def test_read_rejects_truncation(tmp_path, disc):
    u = ScalarField(disc, np.ones(disc.num_interior) * -0.5)
    path = tmp_path / "field.bin"
    write_field(u, path)
    data = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(data[: len(data) - 16])
    with pytest.raises(SerializationError, match="truncated"):
        read_field(tmp_path / "cut.bin")


# ----------------------------------------------------------------------- CSVs


def test_field_csv_reproduces_doubles(tmp_path, disc):
    u, _ = solve_frozen(np.ones(disc.num_interior), disc, 1e-10)
    path = tmp_path / "field.csv"
    field_to_csv(u, path)
    text = path.read_text().strip().split("\n")
    assert text[0] == "x1,y1,value"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (disc.num_interior, 3)
    assert np.array_equal(data[:, :2], disc.interior_coords)
    assert np.array_equal(data[:, 2], u.interior)  # 17 digits => exact doubles


def test_branch_csv_layout(tmp_path, disc):
    points = [solve_branch(lam, grid=disc, tol=1e-8) for lam in (0.0, 0.5)]
    path = tmp_path / "branch.csv"
    branch_to_csv(points, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "lambda,sup_norm,iterations,residual"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == points[0].sup_norm
    assert int(first[2]) == points[0].report.iterations


def test_profile_csv_round_trip(tmp_path):
    prof = radial_profile(1, 1.0)
    path = tmp_path / "profile.csv"
    profile_to_csv(prof, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], prof.t)
    assert np.array_equal(data[:, 1], prof.phi)
    assert np.array_equal(data[:, 2], prof.dphi)


# ------------------------------------------------------------------- atomicity


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    atomic_write_bytes(path, b"new")
    assert path.read_bytes() == b"new"
    leftovers = [p for p in os.listdir(tmp_path) if p != "out.bin"]
    assert leftovers == []


def test_atomic_write_failure_leaves_no_temp(tmp_path):
    class Boom(bytes):
        pass

    # Simulate a mid-write failure by passing an object whose buffer interface
    # breaks; the temp file must be cleaned up and the target untouched.
    target = tmp_path / "out.bin"
    target.write_bytes(b"keep")
    with pytest.raises(TypeError):
        atomic_write_bytes(target, object())
    assert target.read_bytes() == b"keep"
    assert [p for p in os.listdir(tmp_path) if p != "out.bin"] == []
