import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import cmaeig.domain
from cmaeig.domain import (
    _cell_volumes,
    Ball,
    Constant,
    CustomRho,
    Ellipsoid,
    GaussianBump,
    PolynomialDensity,
    build_grid,
    density_vector,
    direction_thetas,
    eval_density,
    eval_rho,
    quadratic_defining,
    eval_quadratic,
)
from cmaeig.errors import EmptyInterior, NonPositiveDensity, ResolutionTooCoarse

from oracles import BALL4_VOLUME, DISC_AREA

# Empirical partition constants |sum(cell_volume) - Vol| / (Vol * h) measured
# at build time were <= 0.0064 over disc (h=1/32, 1/64) and 4-ball (h=0.25,
# 0.125); frozen with a safety factor as a regression bound.
PARTITION_C = 0.05


def coarse_disc():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_grid(Ball(n=1), 0.5)


def test_disc_interior_is_exact_rho_sign_set():
    g = coarse_disc()
    pts = g.node_coords(np.arange(np.prod(g.shape)))
    inside = eval_rho(g.spec, pts) < 0
    assert np.array_equal(g.classification == 2, inside)
    # the lattice is anchored so the center is a node, and it is interior
    origin = np.flatnonzero(np.all(pts == 0.0, axis=1))
    assert origin.size == 1 and inside[origin[0]]


def test_coarse_spacing_warns():
    with pytest.warns(UserWarning, match="quarter"):
        build_grid(Ball(n=1), 0.5)


def test_disc_area(disc_grid):
    assert abs(disc_grid.total_volume() - DISC_AREA) / DISC_AREA < 0.02


def test_ball4_volume(ball4_grid):
    assert abs(ball4_grid.total_volume() - BALL4_VOLUME) / BALL4_VOLUME < 0.10


@pytest.mark.parametrize(
    "spec,h,vol",
    [
        (Ball(n=1), 1 / 32, DISC_AREA),
        (Ball(n=1), 1 / 64, DISC_AREA),
        (Ball(n=2), 0.25, BALL4_VOLUME),
    ],
)
def test_volume_partition_regression(spec, h, vol):
    g = build_grid(spec, h)
    assert abs(g.total_volume() - vol) <= vol * PARTITION_C * h


def test_refinement_keeps_strictly_inner_nodes():
    h = 1 / 8
    g = build_grid(Ball(n=1), h)
    fine = build_grid(Ball(n=1), h / 2)
    r = np.hypot(g.interior_coords[:, 0], g.interior_coords[:, 1])
    deep = g.interior_coords[1.0 - r > h]
    vals = eval_rho(fine.spec, deep)
    assert (vals < 0).all()  # still interior on the refined lattice


def test_boundary_nodes_near_zero_set(disc_grid):
    pts = disc_grid.node_coords(disc_grid.boundary_flat)
    dist = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)
    assert (dist <= disc_grid.h).all()


def test_crossing_fraction_exact_on_disc():
    g = coarse_disc()
    at = np.flatnonzero(
        (np.abs(g.interior_coords[:, 0] - 0.5) < 1e-14)
        & (np.abs(g.interior_coords[:, 1] - 0.5) < 1e-14)
    )
    (i,) = at
    # +x neighbour of (0.5, 0.5) is outside; crossing at x = sqrt(3)/2
    expect = np.sqrt(3.0) - 1.0
    assert g.theta_axis[i, 0, 0] == pytest.approx(expect, abs=1e-12)
    assert g.theta_axis[i, 1, 0] == pytest.approx(expect, abs=1e-12)
    assert g.theta_axis[i, 0, 1] == 1.0  # -x neighbour (0, 0.5) is interior


def test_one_axis_ellipsoid_is_the_disc():
    ge = build_grid(Ellipsoid(axes=(1.0,)), 1 / 16)
    gb = build_grid(Ball(n=1), 1 / 16)
    assert np.array_equal(ge.interior_flat, gb.interior_flat)
    assert np.allclose(ge.theta_axis, gb.theta_axis, atol=1e-12)


UNIT_DISC_RHO = CustomRho(
    n=1,
    coeffs={(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0},
    seed_point=(0.0, 0.0),
    box=((-1.0, 1.0), (-1.0, 1.0)),
)


def test_custom_rho_polynomial_matches_ball():
    cr = UNIT_DISC_RHO
    gc = build_grid(cr, 1 / 16)
    gb = build_grid(Ball(n=1), 1 / 16)
    assert np.array_equal(gc.interior_flat, gb.interior_flat)
    assert np.allclose(gc.theta_axis, gb.theta_axis, atol=1e-12)
    assert np.allclose(gc.cell_volume, gb.cell_volume, rtol=1e-12)


def test_custom_rho_validation():
    with pytest.raises(ValueError, match="seed"):
        CustomRho(n=1, coeffs={(0, 0): 1.0}, seed_point=(0.0, 0.0), box=((-1, 1), (-1, 1)))
    with pytest.raises(ValueError, match="degree"):
        CustomRho(
            n=1,
            coeffs={(5, 0): 1.0, (0, 0): -1.0},
            seed_point=(0.0, 0.0),
            box=((-1, 1), (-1, 1)),
        )


def test_empty_interior():
    # tiny disc placed between lattice nodes of a widely-spaced grid
    spec = CustomRho(
        n=1,
        coeffs={(2, 0): 1.0, (1, 0): -0.6, (0, 2): 1.0, (0, 0): 0.08},
        seed_point=(0.3, 0.0),
        box=((-1.0, 1.0), (-1.0, 1.0)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(EmptyInterior):
            build_grid(spec, 0.5)


def test_disconnected_interior_raises():
    # product of two disc defining functions: interior = two disjoint discs
    import sympy

    r2 = 0.09
    x, y = sympy.symbols("x y")
    expr = sympy.expand(((x - 1) ** 2 + y ** 2 - r2) * ((x + 1) ** 2 + y ** 2 - r2))
    coeffs = {
        (int(ex), int(ey)): float(c)
        for (ex, ey), c in sympy.Poly(expr, x, y).terms()
    }
    spec = CustomRho(
        n=1, coeffs=coeffs, seed_point=(1.0, 0.0), box=((-2.0, 2.0), (-1.0, 1.0))
    )
    with pytest.raises(ResolutionTooCoarse):
        build_grid(spec, 0.1)


def test_quadratic_defining_encloses_domain():
    for spec in [
        Ball(n=1, radius=1.5, center=(0.25, -0.5)),
        Ellipsoid(axes=(1.0, 0.5)),
        CustomRho(
            n=1,
            coeffs={(2, 0): 1.0, (0, 2): 2.0, (0, 0): -1.0},
            seed_point=(0.0, 0.0),
            box=((-1.0, 1.0), (-0.8, 0.8)),
        ),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = build_grid(spec, 0.1) if not isinstance(spec, Ellipsoid) else build_grid(spec, 0.2)
        w, c, off = quadratic_defining(spec)
        q = eval_quadratic(w, c, off, g.interior_coords)
        assert (q < 0).all()
        assert (w > 0).all()


def test_gaussian_bump_center_value():
    d = GaussianBump(center=(0.0, 0.0), amplitude=0.5, width=1.0)
    assert eval_density(d, np.zeros(2)) == pytest.approx(1.5)


def test_density_validation():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        GaussianBump(center=(0.0, 0.0), amplitude=-1.0, width=1.0)
    g = coarse_disc()
    with pytest.raises(NonPositiveDensity):
        density_vector(PolynomialDensity(coeffs={(1, 0): 1.0}), g)
    vals = density_vector(PolynomialDensity(coeffs={(0, 0): 2.0, (2, 0): 1.0}), g)
    assert vals.shape == (g.num_interior,)
    assert (vals >= 2.0).all()


@settings(max_examples=15, deadline=None)
@given(
    radius=st.floats(0.3, 2.0),
    cx=st.floats(-0.5, 0.5),
    cy=st.floats(-0.5, 0.5),
)
def test_grid_invariants_random_discs(radius, cx, cy):
    spec = Ball(n=1, radius=radius, center=(cx, cy))
    g = build_grid(spec, radius / 6)
    assert (g.rho_interior < 0).all()
    assert (g.theta_axis > 0).all() and (g.theta_axis <= 1.0).all()
    rho_b = eval_rho(spec, g.node_coords(g.boundary_flat))
    assert (rho_b >= 0).all()
    assert (g.cell_volume >= 0).all()
    assert (g.cell_volume <= (2.5 * g.h) ** 2).all()  # slivers only inflate a cell mildly


# ---------------------------------------------------------------------------
# Crossing fractions against a scalar root-finder
# ---------------------------------------------------------------------------


def brentq_theta(spec, start, direction, h):
    """Scalar reference for one cut edge: theta = 1 when rho(start + h*direction)
    <= 0, else brentq on [0, 1] at the tolerances the grids were built with."""

    def g(s):
        return eval_rho(spec, start + (s * h) * direction)

    if g(1.0) <= 0.0:
        return 1.0
    return max(brentq(g, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16), 1e-9)


def lattice_directions(d):
    """Every axis vector e_a and every diagonal e_a +/- e_b (a < b)."""
    axes = [tuple(int(i == a) for i in range(d)) for a in range(d)]
    diagonals = [tuple(int(i == a) + sign * int(i == b) for i in range(d))
                 for a, b in itertools.combinations(range(d), 2) for sign in (1, -1)]
    return axes + diagonals


def thetas_and_reference(g):
    """direction_thetas on every cut edge of every lattice direction, beside the
    scalar reference; regular edges are checked to be exactly 1 on the way."""
    got, ref = [], []
    for v in lattice_directions(2 * g.n):
        theta = direction_thetas(g, v)
        for side, sign in ((0, 1), (1, -1)):
            cut = g.interior_pos[g.interior_flat + sign * g.offset(v)] < 0
            assert np.all(theta[~cut, side] == 1.0)
            direction = sign * np.asarray(v, dtype=float)
            got.append(theta[cut, side])
            ref.append([brentq_theta(g.spec, x, direction, g.h)
                        for x in g.interior_coords[cut]])
    return np.concatenate(got), np.concatenate(ref)


@pytest.mark.parametrize(
    "spec,h",
    [(Ball(n=1), 1 / 64), (Ellipsoid(axes=(1.0, 0.7)), 0.25), (UNIT_DISC_RHO, 1 / 16)],
    ids=["disc", "ellipsoid", "custom"],
)
def test_crossing_fractions_match_scalar_brentq(spec, h):
    got, ref = thetas_and_reference(build_grid(spec, h))
    assert got.size > 0
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_theta_is_one_exactly_where_the_neighbour_is_on_the_zero_set():
    """On Ball(2), h = 0.2, rounding puts start + h*direction on {rho <= 0} for
    1 988 of the 20 224 cut edges; those and only those get theta == 1, as
    with the scalar reference."""
    got, ref = thetas_and_reference(build_grid(Ball(n=2), 0.2))
    assert got.size == 20224
    assert np.count_nonzero(got == 1.0) == 1988
    assert np.array_equal(got == 1.0, ref == 1.0)
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_crossings_make_no_scalar_root_finder_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar root-finder called")

    # the binding stays in cmaeig.domain (setattr would fail without it)
    monkeypatch.setattr(cmaeig.domain, "brentq", refuse)
    for spec, h in [(Ball(n=2), 0.25), (Ellipsoid(axes=(1.0, 0.7)), 0.25),
                    (UNIT_DISC_RHO, 1 / 16)]:
        g = build_grid(spec, h)
        for v in lattice_directions(2 * g.n):
            assert np.all(direction_thetas(g, v) > 0)


@pytest.mark.parametrize(
    "spec,h", [(Ball(n=1), 1 / 64), (Ellipsoid(axes=(1.0, 0.7)), 0.25)],
    ids=["disc", "ellipsoid"],
)
def test_boundary_slivers_match_owner_loop(spec, h):
    """The interior weights equal, bit for bit, a loop that hands each boundary
    sliver in equal shares to its interior face neighbours in node order."""
    g = build_grid(spec, h)
    d = 2 * g.n
    strides = np.array([g.offset(v) for v in lattice_directions(d)[:d]])
    expect = _cell_volumes(spec, g.interior_coords, h, d)
    bvols = _cell_volumes(spec, g.node_coords(g.boundary_flat), h, d, assume_clipped=True)
    for b, vol in zip(g.boundary_flat, bvols):
        if vol == 0.0:
            continue
        owners = np.concatenate([g.interior_pos[b + strides], g.interior_pos[b - strides]])
        owners = owners[owners >= 0]
        expect[owners] += vol / owners.size
    assert np.count_nonzero(bvols) > 0
    assert np.array_equal(g.cell_volume, expect)
