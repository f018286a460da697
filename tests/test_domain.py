import itertools
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import cmaeig.dirichlet
import cmaeig.domain
from cmaeig.domain import (
    _cell_volumes,
    _plane_fraction,
    _symmetry_directions,
    Ball,
    Constant,
    CustomRho,
    Ellipsoid,
    GaussianBump,
    build_grid,
    density_vector,
    direction_thetas,
    eval_density,
    eval_rho,
    lattice_symmetries,
)
from cmaeig.errors import EmptyInterior, NonPositiveDensity, ResolutionTooCoarse
from cmaeig.hessian import ScalarField, complex_hessian, hessian_operators, trace_operator

from discrete_oracles import SKEW_N2
from oracles import BALL4_VOLUME, DISC_AREA

# Relative volume errors |sum(cell_volume) - Vol| / Vol of the plane-cut
# weights, measured at build time (in parentheses), frozen at about 2.5x as
# regression bounds.
RELATIVE_VOLUME_ERROR = {
    (Ball(n=1), 1 / 32): 2e-5,  # (6.9e-6)
    (Ball(n=1), 1 / 64): 3e-6,  # (1.2e-6)
    (Ball(n=2), 0.25): 3e-3,  # (1.15e-3)
    (Ball(n=2), 0.125): 5e-4,  # (1.9e-4)
    (Ellipsoid(axes=(1.0, 0.7)), 0.25): 7e-4,  # (2.6e-4)
}


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
    assert abs(disc_grid.total_volume() - DISC_AREA) / DISC_AREA < 3e-6


def test_ball4_volume(ball4_grid):
    assert abs(ball4_grid.total_volume() - BALL4_VOLUME) / BALL4_VOLUME < 3e-3


@pytest.mark.parametrize(
    "spec,h,vol",
    [
        (Ball(n=1), 1 / 32, DISC_AREA),
        (Ball(n=1), 1 / 64, DISC_AREA),
        (Ball(n=2), 0.25, BALL4_VOLUME),
        (Ball(n=2), 0.125, BALL4_VOLUME),
        (Ellipsoid(axes=(1.0, 0.7)), 0.25, BALL4_VOLUME * 0.7 ** 2),
    ],
)
def test_volume_partition_regression(spec, h, vol):
    g = build_grid(spec, h)
    assert abs(g.total_volume() - vol) <= vol * RELATIVE_VOLUME_ERROR[spec, h]


def test_refinement_keeps_strictly_inner_nodes():
    h = 1 / 8
    g = build_grid(Ball(n=1), h)
    fine = build_grid(Ball(n=1), h / 2)
    r = np.hypot(g.interior_coords[:, 0], g.interior_coords[:, 1])
    deep = g.interior_coords[1.0 - r > h]
    vals = eval_rho(fine.spec, deep)
    assert (vals < 0).all()  # still interior on the refined lattice


def boundary_reference(g):
    """Flat indices of the non-interior lattice nodes with an interior axis
    neighbour, from one shifted copy of the interior mask per direction."""
    interior = (g.classification == 2).reshape(g.shape)
    near = np.zeros_like(interior)
    for a in range(interior.ndim):
        for dst_a, src_a in ((slice(None, -1), slice(1, None)), (slice(1, None), slice(None, -1))):
            dst = [slice(None)] * interior.ndim
            src = list(dst)
            dst[a], src[a] = dst_a, src_a
            near[tuple(dst)] |= interior[tuple(src)]
    return np.flatnonzero(near & ~interior)


@pytest.mark.parametrize("spec,h", [
    (Ball(n=1), 1 / 16),
    (Ball(n=1, radius=0.9, center=(0.13, -0.07)), 1 / 32),
    (Ball(n=2), 0.25),
    (Ellipsoid((1.0, 0.7)), 0.25),
    (Ball(n=3), 0.5),
])
def test_boundary_is_the_interior_neighbourhood(spec, h):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = build_grid(spec, h)
    assert np.array_equal(g.boundary_flat, boundary_reference(g))
    assert np.array_equal(np.flatnonzero(g.classification == 1), g.boundary_flat)


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


@pytest.mark.parametrize("make", [
    lambda x: Ball(n=1, radius=x),
    lambda x: Ellipsoid((1.0, x)),
])
@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_radius_and_axes_must_be_positive_and_finite(make, bad):
    with pytest.raises(ValueError, match="positive and finite"):
        make(bad)


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


@pytest.mark.parametrize("box", [((-1.0, 1.0), (-0.5, 0.5)), ((-0.5, 0.5), (-0.5, 0.5))],
                         ids=["thin", "inside"])
def test_custom_rho_box_must_enclose_the_domain(box):
    """A box that cuts the unit disc puts interior nodes on the lattice's
    outer layers, where flat neighbour offsets wrap (the thin box) or leave
    the lattice (the box inside the disc): build_grid refuses it."""
    spec = CustomRho(1, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}, (0.0, 0.0), box)
    with pytest.raises(ValueError, match=re.escape(f"bounding box {box} does not enclose")):
        build_grid(spec, 1 / 16)


def test_gaussian_bump_center_value():
    d = GaussianBump(center=(0.0, 0.0), amplitude=0.5, width=1.0)
    assert eval_density(d, np.zeros(2)) == pytest.approx(1.5)


def test_density_validation():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        GaussianBump(center=(0.0, 0.0), amplitude=-1.0, width=1.0)


@pytest.mark.parametrize("make", [
    lambda: Ball(n=1, center=(np.inf, 0.0)),
    lambda: Ball(n=1, center=(0.0, np.nan)),
    lambda: Constant(np.inf),
    lambda: Constant(np.nan),
    lambda: GaussianBump(center=(np.inf, 0.0), amplitude=1.0, width=0.5),
    lambda: GaussianBump(center=(0.0, np.nan), amplitude=1.0, width=0.5),
    lambda: GaussianBump(center=(0.0, 0.0), amplitude=np.inf, width=0.5),
    lambda: GaussianBump(center=(0.0, 0.0), amplitude=np.nan, width=0.5),
    lambda: GaussianBump(center=(0.0, 0.0), amplitude=1.0, width=np.inf),
    lambda: GaussianBump(center=(0.0, 0.0), amplitude=1.0, width=np.nan),
    lambda: CustomRho(n=1, coeffs={(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0},
                      seed_point=(0.0, 0.0), box=((-np.inf, 1.1), (-1.1, 1.1))),
    lambda: CustomRho(n=1, coeffs={(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0},
                      seed_point=(0.0, 0.0), box=((-1.1, 1.1), (-1.1, np.nan))),
    lambda: CustomRho(n=1, coeffs={(2, 0): np.inf, (0, 2): 1.0, (0, 0): -1.0},
                      seed_point=(0.0, 0.0), box=((-1.1, 1.1), (-1.1, 1.1))),
], ids=["ball-inf-center", "ball-nan-center", "constant-inf", "constant-nan",
        "bump-inf-center", "bump-nan-center", "bump-inf-amplitude",
        "bump-nan-amplitude", "bump-inf-width", "bump-nan-width",
        "custom-inf-box", "custom-nan-box", "custom-inf-coefficient"])
def test_specs_reject_non_finite_fields(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("center", [(0.3,), (0.3, 0.0, 0.0)])
def test_bump_center_length_must_match_the_grid(center):
    """A centre of the wrong length is refused, not broadcast over the 2n
    coordinates."""
    g = build_grid(Ball(n=1), 1 / 8)
    bump = GaussianBump(center=center, amplitude=1.0, width=0.5)
    with pytest.raises(ValueError, match="2n = 2 real coordinates, got"):
        density_vector(bump, g)
    with pytest.raises(ValueError, match="2n = 2 real coordinates"):
        eval_density(bump, np.zeros(2))


@pytest.mark.parametrize("bump", [
    SimpleNamespace(center=(float("nan"), 0.0), amplitude=1.0, width=0.5),
    SimpleNamespace(center=(0.0, 0.0), amplitude=float("nan"), width=0.5),
    SimpleNamespace(center=(0.0, 0.0), amplitude=float("inf"), width=0.5),
    SimpleNamespace(center=(0.0, 0.0), amplitude=1.0, width=1e-200),
], ids=["nan-center", "nan-amplitude", "inf-amplitude", "underflowing-width"])
def test_density_vector_rejects_non_finite_values(bump):
    """A density that is NaN or infinite at a node is refused like one that
    is <= 0 there, rather than returned as an all-NaN or all-inf f.
    GaussianBump refuses these fields itself, so bump-shaped specs that skip
    its checks stand in for them here; a width whose square underflows is
    0/0 = NaN at the centre node and is refused the same way."""
    g = build_grid(Ball(n=1), 1 / 8)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonPositiveDensity, match="at node"):
            density_vector(bump, g)


def test_bump_width_whose_square_underflows_is_refused():
    with pytest.raises(ValueError, match="underflows to 0 when squared"):
        GaussianBump(center=(0.0, 0.0), amplitude=1.0, width=1e-200)
    assert GaussianBump(center=(0.0, 0.0), amplitude=1.0, width=1e-150).width == 1e-150


@pytest.mark.parametrize("value, shown", [(1e-200, "0.000e+00"), (1e200, "inf")])
def test_density_vector_validates_the_power(value, shown):
    """f = 1e-200 and f = 1e200 are finite and positive, but their squares
    underflow to 0 and overflow to inf: density_vector refuses f^2, naming
    the value and a node, and still returns f itself at power 1."""
    g = build_grid(Ball(n=2), 0.25)
    message = rf"density\^2 is {re.escape(shown)}, .* at node \("
    with pytest.raises(NonPositiveDensity, match=message):
        density_vector(Constant(value), g, power=2)
    assert np.array_equal(density_vector(Constant(value), g), np.full(g.num_interior, value))


def test_density_vector_evaluates_the_density_once(monkeypatch):
    """density_vector reads f at the interior nodes from its one evaluation
    over the closure, bit-equal to evaluating f at interior_coords."""
    g = build_grid(Ball(n=1), 1 / 16)
    bump = GaussianBump(center=(0.3, 0.0), amplitude=1.0, width=0.5)
    direct = eval_density(bump, g.interior_coords)
    calls = []

    def counted(d, points):
        calls.append(len(points))
        return eval_density(d, points)

    monkeypatch.setattr(cmaeig.domain, "eval_density", counted)
    assert np.array_equal(density_vector(bump, g), direct)
    assert np.array_equal(density_vector(bump, g, power=2), direct ** 2)
    assert calls == [g.num_interior + g.boundary_flat.size] * 2


# ---------------------------------------------------------------------------
# The boundary band
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def on_sphere_grids():
    """Unit balls whose lattice has nodes on the sphere up to rounding: with
    rho < 0 as the interior test these had 198 (4-ball, h = 0.1), 169
    (4-ball, h = 1/12) and 4 (disc, h = 0.1) interior nodes within 1e-12 of
    the zero set, each with a crossing fraction clamped to _THETA_FLOOR."""
    return {(n, h): build_grid(Ball(n), h) for n, h in ((2, 0.1), (2, 1 / 12), (1, 0.1))}


@pytest.mark.parametrize("key", [(2, 0.1), (2, 1 / 12), (1, 0.1)])
def test_no_interior_node_in_the_boundary_band(key, on_sphere_grids):
    g = on_sphere_grids[key]
    rho = eval_rho(g.spec, g.node_coords(np.arange(np.prod(g.shape))))
    assert g.rho_band == cmaeig.domain._RHO_BAND * np.max(np.abs(rho))
    interior = g.classification == 2
    on_sphere = np.abs(rho) <= g.rho_band
    assert on_sphere.any() and not (interior & on_sphere).any()
    assert np.array_equal(interior, rho < -g.rho_band)
    assert g.theta_axis.min() > cmaeig.domain._THETA_FLOOR


def test_defining_function_is_strictly_psh_at_every_interior_node(on_sphere_grids):
    """rho = |z|^2 - 1 has the identity as its complex Hessian, and so has
    its discrete one once no interior node sits on the sphere: the anchor
    of every cold n >= 2 start is accepted at h = 0.1 (it raised
    PreconditionViolated there, eigenvalue -13 at an on-sphere node), and
    the cold frozen solve of det = 1, whose solution is rho, converges.
    The strictly PSH (|z|^2 - 1) + (|z|^6 - 1) / 2, whose Hessian is at
    least the identity, keeps a smallest eigenvalue >= 1 - h^2 (it was -30
    to -40 at the on-sphere nodes)."""
    for key in ((2, 0.1), (2, 1 / 12)):
        g = on_sphere_grids[key]
        r2 = np.sum(g.interior_coords ** 2, axis=1)
        sextic = ScalarField(g, (r2 - 1.0) + 0.5 * (r2 ** 3 - 1.0))
        assert np.min(complex_hessian(sextic).min_eigenvalue()) >= 1.0 - g.h ** 2
    g = on_sphere_grids[(2, 0.1)]
    rho, det = cmaeig.dirichlet._anchor(g, cmaeig.dirichlet.symmetry_orbits(g, None))
    hess = complex_hessian(ScalarField(g, rho))
    assert np.min(hess.min_eigenvalue()) >= 1.0 - 1e-9
    assert np.min(det) >= 1.0 - 1e-9
    u, report = cmaeig.dirichlet.solve_frozen(np.ones(g.num_interior), g)
    assert report.converged and np.max(np.abs(u.interior - rho)) <= 1e-9


@settings(max_examples=15, deadline=None)
@given(
    radius=st.floats(0.3, 2.0),
    cx=st.floats(-0.5, 0.5),
    cy=st.floats(-0.5, 0.5),
)
def test_grid_invariants_random_discs(radius, cx, cy):
    spec = Ball(n=1, radius=radius, center=(cx, cy))
    g = build_grid(spec, radius / 6)
    # interior: rho below the boundary band; boundary: rho at or above it
    assert (g.rho_interior < -g.rho_band).all()
    assert (g.theta_axis > 0).all() and (g.theta_axis <= 1.0).all()
    rho_b = eval_rho(spec, g.node_coords(g.boundary_flat))
    assert (rho_b >= -g.rho_band).all()
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


def build_quietly(spec, h):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # h = 0.5 is crude on the 6-ball
        return build_grid(spec, h)


BATCH_GRIDS = [(Ball(n=2), 0.2), (Ellipsoid(axes=(1.0, 1.5)), 0.2), (SKEW_N2, 0.25),
               (Ball(n=3), 0.5)]
BATCH_IDS = ["ball4", "ellipsoid", "skew", "ball3"]


@pytest.mark.parametrize("spec,h", BATCH_GRIDS, ids=BATCH_IDS)
def test_batched_diagonal_fractions_equal_one_call_per_direction(spec, h):
    """direction_thetas finds every Hessian diagonal's fractions in one
    batch; each direction's equal, bit for bit, one _crossing_fractions call
    on that direction's cut edges alone."""
    g = build_quietly(spec, h)
    for v in _symmetry_directions(g.n)[2 * g.n:]:
        dv = g.offset(v)
        cut = np.argwhere(g.interior_pos[g.interior_flat[:, None] + np.array([dv, -dv])] < 0)
        directions = np.where(cut[:, 1] == 0, 1.0, -1.0)[:, None] * np.asarray(v, dtype=float)
        reference = np.ones((g.num_interior, 2))
        reference[cut[:, 0], cut[:, 1]] = cmaeig.domain._crossing_fractions(
            g.spec, g.interior_coords[cut[:, 0]], directions, g.h)
        assert np.array_equal(direction_thetas(g, v), reference)


@pytest.mark.parametrize("spec,h", [(Ball(n=2), 0.25), (Ball(n=3), 0.5)], ids=["n2", "n3"])
def test_first_hessian_makes_one_diagonal_bisection(spec, h, monkeypatch):
    """A grid's first hessian_operators bisects every diagonal's cut edges in
    one _crossing_fractions call (build_grid made the axis one), and the
    symmetry search that reads every diagonal afterwards makes none."""
    g = build_quietly(spec, h)
    real = cmaeig.domain._crossing_fractions
    calls = []

    def counted(*args):
        calls.append(args[1].shape[0])
        return real(*args)

    monkeypatch.setattr(cmaeig.domain, "_crossing_fractions", counted)
    hessian_operators(g)
    lattice_symmetries(g)
    assert len(calls) == 1 and calls[0] > 0


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
    rho_all = eval_rho(spec, g.node_coords(np.arange(np.prod(g.shape))))
    expect = _cell_volumes(rho_all, g.interior_flat, strides, h)
    bvols = _cell_volumes(rho_all, g.boundary_flat, strides, h)
    for b, vol in zip(g.boundary_flat, bvols):
        if vol == 0.0:
            continue
        owners = np.concatenate([g.interior_pos[b + strides], g.interior_pos[b - strides]])
        owners = owners[owners >= 0]
        expect[owners] += vol / owners.size
    assert np.count_nonzero(bvols) > 0
    assert np.array_equal(g.cell_volume, expect)


# ---------------------------------------------------------------------------
# The plane rule of the cell weights
# ---------------------------------------------------------------------------


def cut_area_2d(mean, grad):
    """Area of {y in [-1/2, 1/2]^2 : mean + grad . y <= 0}: the trapezoid rule
    over the kinks of the cut's height above y_0, which is piecewise linear
    in y_0 (grad[1] != 0)."""
    def height(y0):
        return np.clip(0.5 - (mean + grad[0] * y0) / abs(grad[1]), 0.0, 1.0)

    # the height reaches 0 or 1 where mean + grad[0] y_0 = +/- grad[1] / 2
    kinks = [-0.5, 0.5] + [(-mean - grad[1] * c) / grad[0] for c in (0.5, -0.5) if grad[0]]
    ys = np.unique(np.clip(kinks, -0.5, 0.5))
    return float(np.trapezoid(height(ys), ys))


def cut_volume_sublattice(mean, grad, m):
    """Share of [-1/2, 1/2]^d where mean + grad . y <= 0: the midpoints of an
    m^(d-1) sub-lattice in the first d - 1 axes, each times the exact length
    of the cut along the last axis (grad[-1] != 0)."""
    d = grad.size
    mids = (np.arange(m) + 0.5) / m - 0.5
    pts = np.stack(np.meshgrid(*[mids] * (d - 1), indexing="ij"), axis=-1).reshape(-1, d - 1)
    lengths = np.clip(0.5 - (mean + pts @ grad[:-1]) / abs(grad[-1]), 0.0, 1.0)
    return float(lengths.mean())


def test_plane_fraction_in_one_dimension():
    rng = np.random.default_rng(5)
    grad = rng.uniform(0.1, 2.0, 50) * rng.choice([-1.0, 1.0], 50)
    mean = rng.uniform(-1.0, 1.0, 50)
    expect = np.clip(0.5 - mean / np.abs(grad), 0.0, 1.0)  # the cut is y <= -mean/|grad|, flipped
    assert np.allclose(_plane_fraction(mean, grad[:, None]), expect, rtol=0, atol=1e-15)


def test_plane_fraction_in_two_dimensions():
    rng = np.random.default_rng(6)
    for _ in range(200):
        grad = rng.normal(size=2)
        mean = rng.uniform(-0.6, 0.6) * np.abs(grad).sum()
        got = _plane_fraction(np.array([mean]), grad[None, :])[0]
        assert abs(got - cut_area_2d(mean, grad)) <= 1e-13


def test_plane_fraction_in_four_dimensions():
    rng = np.random.default_rng(7)
    grads = rng.normal(size=(12, 4))
    means = rng.uniform(-0.4, 0.4, 12) * np.abs(grads).sum(axis=1)
    got = _plane_fraction(means, grads)
    expect = [cut_volume_sublattice(m, g, 40) for m, g in zip(means, grads)]
    assert 0.0 < got.min() and got.max() < 1.0
    assert np.max(np.abs(got - expect)) <= 1e-4


def test_plane_fraction_degenerate_gradients():
    """A zero gradient gives a full or an empty cell by the sign of the mean
    (full at 0); a component far below the others is dropped (a cut along an
    axis); flipping every sign, or permuting the axes, changes nothing bit
    for bit.  pyproject makes every RuntimeWarning an error here."""
    zero = np.zeros((3, 4))
    assert np.array_equal(_plane_fraction(np.array([-1.0, 1.0, 0.0]), zero), [1.0, 0.0, 1.0])
    tiny = np.array([[1.0, 1e-300, 0.0, 0.0], [1.0, 1e-6, -1e-9, 0.0]])
    axis = np.array([[1.0, 0.0, 0.0, 0.0]] * 2)
    mean = np.array([0.2, -0.3])
    assert np.array_equal(_plane_fraction(mean, tiny), _plane_fraction(mean, axis))
    assert np.allclose(_plane_fraction(mean, axis), [0.3, 0.8], rtol=0, atol=1e-15)
    rng = np.random.default_rng(8)
    grads = rng.normal(size=(40, 4))
    means = rng.uniform(-0.5, 0.5, 40) * np.abs(grads).sum(axis=1)
    got = _plane_fraction(means, grads)
    assert np.array_equal(_plane_fraction(means, -grads), got)
    assert np.array_equal(_plane_fraction(means, grads[:, [2, 0, 3, 1]] * [1, -1, -1, 1]), got)
    # the fraction is continuous where a component passes the drop threshold
    edge = np.array([[1.0, 1.001e-3 / 0.999, 0.0, 0.0], [1.0, 0.999e-3 / 1.001, 0.0, 0.0]])
    assert abs(np.diff(_plane_fraction(np.array([0.1, 0.1]), edge))[0]) <= 1e-3


@pytest.mark.parametrize("d", [2, 3])
def test_cell_volumes_are_exact_for_affine_rho(d):
    """With rho affine on a cell's stencil, the plane is rho itself and the
    weight is the exact volume of the cut: checked against the trapezoid
    rule in d = 2 and a 400^2 sub-lattice in d = 3."""
    rng = np.random.default_rng(9 + d)
    h = 0.1
    shape = (3,) * d
    strides = np.array([3 ** (d - 1 - a) for a in range(d)])
    idx = np.stack(np.unravel_index(np.arange(3 ** d), shape), axis=1) - 1.0
    for _ in range(20):
        grad = rng.uniform(0.1, 1.0, d) * rng.choice([-1.0, 1.0], d)
        mean = rng.uniform(-0.4, 0.4) * np.abs(grad).sum()
        rho_all = mean + idx @ grad  # rho at the node centred in a 3^d lattice
        vol = _cell_volumes(rho_all, np.array([3 ** d // 2]), strides, h)[0]
        if d == 2:
            expect = cut_area_2d(mean, grad)
        else:
            expect = cut_volume_sublattice(mean, grad, 400)
        assert abs(vol / h ** d - expect) <= (1e-13 if d == 2 else 1e-5)


def test_centre_cell_is_full(disc_grid):
    """The centre node's gradient is zero: its cell is a whole h^2."""
    centre = disc_grid.interior_pos[np.ravel_multi_index(
        tuple(k // 2 for k in disc_grid.shape), disc_grid.shape)]
    assert disc_grid.cell_volume[centre] == disc_grid.h ** 2


@pytest.mark.parametrize("spec,h", [
    (Ball(n=1), 1 / 128), (Ball(n=1), 0.1), (Ellipsoid(axes=(1.0, 0.7)), 0.25),
    (Ball(n=2), 0.25), (Ellipsoid(axes=(1.0, 1.5)), 0.25),
], ids=["disc-1/128", "disc-0.1", "ellipsoid-0.7", "ball4", "ellipsoid-1.5"])
def test_cell_weights_are_symmetric(spec, h):
    """Every kept lattice symmetry maps the weights onto themselves to
    rounding in the sums of rho values and sliver shares."""
    g = build_grid(spec, h)
    w = g.cell_volume
    maps = lattice_symmetries(g)
    assert maps.shape[0] >= 2
    for p in maps:
        assert np.max(np.abs(w[p] - w)) <= 1e-12 * h ** (2 * g.n)


# ---------------------------------------------------------------------------
# Lattice symmetries
# ---------------------------------------------------------------------------

# rho = x^2 + 1.3 y^2 + 0.2 x y + 0.1 x - 1: no signed axis permutation but
# the identity leaves it unchanged
SKEWED_DISC = CustomRho(1, {(2, 0): 1.0, (0, 2): 1.3, (1, 1): 0.2, (1, 0): 0.1, (0, 0): -1.0},
                        (0.0, 0.0), ((-1.5, 1.5), (-1.5, 1.5)))


@pytest.mark.parametrize("spec, h, kept", [
    (Ball(n=1), 1 / 64, 8),
    (Ball(n=1, radius=0.93), 1 / 128, 8),
    (Ball(n=1), 0.1, 2),
    (SKEWED_DISC, 1 / 64, 1),
], ids=["disc-1/64", "shrunk-disc-1/128", "disc-0.1", "custom-rho"])
def test_kept_lattice_symmetries_commute_with_the_quarter_laplacian(spec, h, kept):
    """A dyadic h keeps all 8 signed axis permutations of the disc, h = 0.1
    only the identity and the x <-> y swap, and a CustomRho without symmetry
    the identity alone.  Each kept map permutes the interior positions, the
    identity first, and commutes with the quarter Laplacian exactly."""
    g = build_grid(spec, h)
    maps = lattice_symmetries(g)
    A = hessian_operators(g)[0][0]
    assert maps.shape == (kept, g.num_interior)
    assert np.array_equal(maps[0], np.arange(g.num_interior))
    for s in maps:
        assert np.array_equal(np.sort(s), np.arange(g.num_interior))
        assert abs(A[s][:, s] - A).max() == 0.0
    if kept == 2:
        swapped = g.interior_coords[:, ::-1]
        assert np.array_equal(g.interior_coords[maps[1]], swapped)


def test_lattice_symmetries_are_built_on_first_use_only():
    """build_grid builds no symmetry, at n = 1 or 2; the first call caches
    it on the grid and later calls return that array."""
    for spec, h in ((Ball(n=1), 1 / 32), (Ball(n=2), 0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = build_grid(spec, h)
        assert ("symmetries",) not in g._cache
        maps = lattice_symmetries(g)
        assert g._cache[("symmetries",)] is maps and lattice_symmetries(g) is maps


def conjugate_z1_alone(g):
    """The permutation of interior positions that maps the lattice node of
    centred index (x1, y1, x2, y2) to that of (x1, -y1, x2, y2)."""
    idx = list(np.unravel_index(g.interior_flat, g.shape))
    idx[1] = g.shape[1] - 1 - idx[1]
    return g.interior_pos[np.ravel_multi_index(tuple(idx), g.shape)]


def logdet_jacobian(g, u):
    """The log-det Jacobian trace_operator((M(u) + mu I)^-1) at u, with the
    norm ||J||_inf it is measured against."""
    J = trace_operator(g, complex_hessian(ScalarField(g, u)).inverse(1e-11)).tocsr()
    return J, abs(J).sum(axis=1).max()


def commutator(J, s):
    """||Q J Q^T - J||_inf for the permutation s."""
    return abs(J[s][:, s] - J).sum(axis=1).max()


@pytest.mark.parametrize("spec, h, kept", [
    (Ball(n=2), 0.25, 16),
    (Ellipsoid((1.0, 1.5)), 0.25, 16),
    (Ball(n=2), 0.2, 1),
], ids=["ball4-0.25", "ellipsoid-1-1.5-0.25", "ball4-0.2"])
def test_kept_n2_lattice_symmetries_commute_with_the_logdet_jacobian(spec, h, kept):
    """Of the 64 signed axis permutations that commute or anticommute with
    the complex structure, the unit 4-ball and Ellipsoid((1, 1.5)) keep 16
    at the dyadic h = 0.25 and the 4-ball the identity alone at h = 0.2.
    Each kept map permutes the interior positions, the identity first, and
    commutes to 1e-12 of its norm with the log-det Jacobian at the nodewise
    minimum of rho over the kept maps' images, a field they all fix
    exactly.  Conjugating z1 alone is never kept."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = build_grid(spec, h)
    maps = lattice_symmetries(g)
    assert maps.shape == (kept, g.num_interior)
    assert np.array_equal(maps[0], np.arange(g.num_interior))
    J, scale = logdet_jacobian(g, np.min(g.rho_interior[maps], axis=0))
    for s in maps:
        assert np.array_equal(np.sort(s), np.arange(g.num_interior))
        assert commutator(J, s) <= 1e-12 * scale
    assert not any(np.array_equal(s, conjugate_z1_alone(g)) for s in maps)


def test_conjugating_z1_alone_is_no_symmetry_of_the_operator(ball4_grid):
    """On the 4-ball at h = 0.25 conjugating z1 alone maps the interior
    nodes and the axis crossing fractions onto themselves exactly, and
    fixes rho (1 + 0.1 (x1 x2 + y1^2 y2)) exactly, yet the log-det
    Jacobian there moves under it by 0.7 % of its norm: the determinant
    reads |u_{z1 zbar2}|, which it swaps for |u_{zbar1 zbar2}|.  That is
    why the candidates commute or anticommute with the complex
    structure."""
    g = ball4_grid
    c = conjugate_z1_alone(g)
    assert np.all(c >= 0)
    flipped = g.theta_axis[c].copy()
    flipped[:, 1] = flipped[:, 1, ::-1]
    assert np.array_equal(flipped, g.theta_axis)
    x1, y1, x2, y2 = g.interior_coords.T
    u = g.rho_interior * (1.0 + 0.1 * (x1 * x2 + y1 ** 2 * y2))
    assert np.array_equal(u[c], u)
    J, scale = logdet_jacobian(g, u)
    assert commutator(J, c) > 1e-3 * scale
