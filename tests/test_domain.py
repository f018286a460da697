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
from cmaeig.hessian import ScalarField, complex_hessian, hessian_operators

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
    rho, det = cmaeig.dirichlet._anchor(g)
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


def test_lattice_symmetries_are_built_on_first_use_only(ball4_grid):
    """build_grid builds no symmetry; the first call caches it on the grid
    and later calls return that array.  n >= 2 grids have none yet."""
    g = build_grid(Ball(n=1), 1 / 32)
    assert ("symmetries",) not in g._cache
    maps = lattice_symmetries(g)
    assert g._cache[("symmetries",)] is maps and lattice_symmetries(g) is maps
    with pytest.raises(ValueError, match="n = 1 grids only"):
        lattice_symmetries(ball4_grid)
