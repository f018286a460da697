"""Energy/mass functionals, inequality checks, and the inverse-power route."""

import inspect
import math

import numpy as np
import pytest

import cmaeig.dirichlet as dirichlet
import cmaeig.variational as variational
from cmaeig.dirichlet import solve_frozen
from cmaeig.domain import Ball, Constant, Ellipsoid, GaussianBump, build_grid, eval_density
from cmaeig.eigenpath import continuation
from cmaeig.errors import (
    DegenerateIterate,
    NotConverged,
    NotPSH,
    PreconditionViolated,
    ZeroMass,
)
from cmaeig.hessian import ScalarField, random_psh_field
from cmaeig.variational import (
    INVERSE_POWER,
    energy,
    inverse_power,
    mass,
    omega_weight,
    rayleigh,
)
from cmaeig.verify import check_blocki, check_sobolev, sobolev_constant, verify_eigenpair

from discrete_oracles import bordered_newton, n1_discrete_eigenvalue
from oracles import (
    DISC_ENERGY_QUAD,
    DISC_MASS_QUAD,
    DISC_RAYLEIGH_QUAD,
    LAMBDA1_UNIT_DISC,
    disc_eigenmode,
)

BALL4_ENERGY_QUAD = 4.0 * math.pi ** 2 / 9.0
BALL4_MASS_QUAD = 2.0 * math.pi ** 2 / 15.0
# Exact discrete eigenvalue of the unit 4-ball at h = 0.25 (bordered Newton;
# inverse power at tol 1e-11 agrees to 2e-14)
BALL4_DISCRETE_LAMBDA1 = 1.661450533119653


@pytest.fixture(scope="module")
def disc32():
    return build_grid(Ball(1, 1.0), 1.0 / 32)


@pytest.fixture(scope="module")
def ball4():
    return build_grid(Ball(2, 1.0), 0.25)


def quad_field(grid):
    r2 = np.sum(grid.interior_coords ** 2, axis=1)
    return ScalarField(grid, r2 - grid.spec.radius ** 2)


# ----------------------------------------------------------------- functionals


def test_omega_weight_values():
    assert omega_weight(1) == 2.0
    assert omega_weight(2) == 8.0
    assert omega_weight(3) == 48.0


def test_disc_quadratic_spot_values(disc32):
    phi = quad_field(disc32)
    assert energy(phi) == pytest.approx(DISC_ENERGY_QUAD, rel=5e-3)
    assert mass(phi) == pytest.approx(DISC_MASS_QUAD, rel=5e-3)
    assert rayleigh(phi) == pytest.approx(DISC_RAYLEIGH_QUAD, rel=5e-3)


def test_four_ball_quadratic_spot_values(ball4):
    phi = quad_field(ball4)
    assert energy(phi) == pytest.approx(BALL4_ENERGY_QUAD, rel=8e-2)
    assert mass(phi) == pytest.approx(BALL4_MASS_QUAD, rel=5e-2)
    assert rayleigh(phi) == pytest.approx(
        BALL4_ENERGY_QUAD / BALL4_MASS_QUAD, rel=5e-2
    )


@pytest.mark.parametrize("theta", [0.5, 2.0, 10.0])
def test_functionals_are_homogeneous(disc32, theta):
    phi = quad_field(disc32)
    scaled = ScalarField(disc32, theta * phi.interior)
    p = disc32.n + 1
    assert energy(scaled) == pytest.approx(theta ** p * energy(phi), rel=1e-12)
    assert mass(scaled) == pytest.approx(theta ** p * mass(phi), rel=1e-12)
    assert rayleigh(scaled) == pytest.approx(rayleigh(phi), rel=1e-12)


def test_zero_field_functionals(disc32):
    zero = ScalarField(disc32, np.zeros(disc32.num_interior))
    assert energy(zero) == 0.0
    assert mass(zero) == 0.0
    with pytest.raises(ZeroMass):
        rayleigh(zero)


def test_rejects_positive_trial(disc32):
    r2 = np.sum(disc32.interior_coords ** 2, axis=1)
    up = ScalarField(disc32, 1.0 - r2)
    with pytest.raises(PreconditionViolated, match="<= 0"):
        energy(up)


def test_rejects_non_psh_trial(disc32):
    r2 = np.sum(disc32.interior_coords ** 2, axis=1)
    bad = ScalarField(disc32, -((1.0 - r2) ** 2))
    with pytest.raises(NotPSH):
        energy(bad)
    with pytest.raises(NotPSH):
        mass(bad)


def test_mass_accepts_density_array(disc32):
    phi = quad_field(disc32)
    ones = np.ones(disc32.num_interior)
    assert mass(phi, ones) == pytest.approx(mass(phi), rel=1e-14)
    with pytest.raises(ValueError, match="per interior node"):
        mass(phi, np.ones(3))


@pytest.mark.parametrize("functional", [mass, rayleigh])
@pytest.mark.parametrize("fn", [Constant(1.0), np.ones(3)], ids=["spec", "short-array"])
def test_functionals_take_only_the_fn_vector(disc32, functional, fn):
    """mass and rayleigh take f^n at the interior nodes; a density spec or an
    array of the wrong length is refused, not evaluated or broadcast."""
    with pytest.raises(ValueError, match="per interior node"):
        functional(quad_field(disc32), fn)


def test_routes_share_their_leading_parameters():
    """continuation and inverse_power both open with (f, grid, tol), with
    the same defaults."""
    def leading(fn):
        params = list(inspect.signature(fn).parameters.values())[:3]
        return [(p.name, p.default) for p in params]

    assert leading(continuation) == leading(inverse_power)
    assert [name for name, _ in leading(inverse_power)] == ["f", "grid", "tol"]


def test_energy_is_dirichlet_energy_for_one_variable(disc32):
    # For one complex variable E(phi) = 1/4 * integral |grad phi|^2, so a raw
    # finite-difference gradient quadrature must agree up to the O(h)
    # boundary band.
    def grad_quad(v):
        vals = np.zeros(disc32.shape)
        vals.flat[disc32.interior_flat] = v.interior
        total = 0.0
        for ax in range(vals.ndim):
            d = np.diff(vals, axis=ax) / disc32.h
            total += float(np.sum(d * d))
        return 0.25 * total * disc32.h ** vals.ndim

    fields = [quad_field(disc32)]
    for center in ((0.0, 0.0), (0.3, -0.2), (-0.4, 0.1)):
        dens = GaussianBump(center=center, amplitude=2.0, width=0.5)
        u, _ = solve_frozen(
            eval_density(dens, disc32.interior_coords), disc32, 1e-10
        )
        fields.append(u)
    for f in fields:
        assert grad_quad(f) == pytest.approx(energy(f), rel=5e-2)


# ----------------------------------------------------------------- inequalities


def test_sobolev_constant_disc(disc32):
    assert sobolev_constant(grid=disc32) == pytest.approx(4.0, abs=1e-6)


def test_sobolev_disc_example(disc32):
    # (n+1) * mass = 2pi/3 against A * energy = 2pi for the defining quadratic.
    phi = quad_field(disc32)
    assert 2.0 * mass(phi) == pytest.approx(2.0 * math.pi / 3.0, rel=5e-3)
    assert 4.0 * energy(phi) == pytest.approx(2.0 * math.pi, rel=5e-3)
    assert check_sobolev(phi) >= 0.0


def test_sobolev_random_fields(disc32):
    rng = np.random.default_rng(7)
    A = sobolev_constant(grid=disc32)
    for _ in range(50):
        phi = random_psh_field(disc32, rng)
        assert check_sobolev(phi, A=A) >= 0.0


def test_sobolev_four_ball(ball4):
    assert check_sobolev(quad_field(ball4)) >= 0.0
    u0, _ = solve_frozen(2.0 * np.ones(ball4.num_interior), ball4, 1e-8)
    assert check_sobolev(u0) >= 0.0


def test_blocki_disc_example(disc32):
    phi = quad_field(disc32)
    assert check_blocki(phi, phi) >= 0.0


def test_blocki_zero_fields(disc32):
    zero = ScalarField(disc32, np.zeros(disc32.num_interior))
    phi = quad_field(disc32)
    assert check_blocki(zero, phi) >= 0.0
    assert check_blocki(phi, zero) >= 0.0


def test_blocki_random_pairs(disc32):
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = random_psh_field(disc32, rng)
        v = random_psh_field(disc32, rng)
        assert check_blocki(u, v) >= 0.0


def test_blocki_four_ball(ball4):
    phi = quad_field(ball4)
    u0, _ = solve_frozen(np.ones(ball4.num_interior), ball4, 1e-8)
    assert check_blocki(phi, u0) >= 0.0
    assert check_blocki(u0, phi) >= 0.0


def test_blocki_rejects_positive_field(disc32):
    phi = quad_field(disc32)
    up = ScalarField(disc32, -phi.interior)
    with pytest.raises(PreconditionViolated):
        check_blocki(phi, up)


def test_rayleigh_bounds_ground_value_from_above(disc32):
    # The quotient estimates lambda1^n from above; allow a 5% discretization
    # slack below the analytic value, never more.
    rng = np.random.default_rng(42)
    floor = 0.95 * LAMBDA1_UNIT_DISC
    values = [rayleigh(random_psh_field(disc32, rng)) for _ in range(100)]
    assert min(values) >= floor


# ---------------------------------------------------------------- inverse_power


@pytest.fixture(scope="module")
def disc_ip(disc32):
    return inverse_power(grid=disc32, tol=1e-8)


def test_inverse_power_disc_eigenvalue(disc_ip):
    rel = abs(disc_ip.lambda1 - LAMBDA1_UNIT_DISC) / LAMBDA1_UNIT_DISC
    assert rel < 2e-2
    assert disc_ip.method == INVERSE_POWER
    assert disc_ip.residual <= disc_ip.residual_tol
    assert disc_ip.rayleigh_value == pytest.approx(
        disc_ip.lambda1 ** disc_ip.eigenfunction.grid.n, rel=1e-12
    )


def test_inverse_power_eigenfunction(disc_ip, disc32):
    v = disc_ip.eigenfunction
    assert v.sup_norm() == pytest.approx(1.0, abs=1e-12)
    r = np.sqrt(np.sum(disc32.interior_coords ** 2, axis=1))
    mode = np.array([disc_eigenmode(x) for x in r])
    assert np.max(np.abs(v.interior - mode)) < 1e-2
    ver = verify_eigenpair(disc_ip, grid=disc32)
    assert ver.ok, [row for row in ver.rows if not row.passed]


def test_inverse_power_rayleigh_is_nonincreasing(disc_ip):
    etas = [p.lam for p in disc_ip.branch]
    assert len(etas) >= 3
    assert all(b <= a + 1e-7 for a, b in zip(etas, etas[1:]))
    assert etas[-1] < etas[0]


def test_inverse_power_radius_two():
    g = build_grid(Ball(1, 2.0), 1.0 / 16)
    res = inverse_power(grid=g, tol=1e-8)
    target = LAMBDA1_UNIT_DISC / 4.0
    assert abs(res.lambda1 - target) / target < 2e-2


def test_inverse_power_four_ball(ball4):
    res = inverse_power(grid=ball4, tol=1e-6)
    assert abs(res.lambda1 - 1.686593625402) / 1.686593625402 < 5e-2


def test_inverse_power_four_ball_pinned_iterations(ball4):
    # recorded with forcing terms on the log-det Newton steps
    res = inverse_power(grid=ball4, tol=1e-8)
    assert [p.report.iterations for p in res.branch] == [0, 7, 5, 3, 3, 3, 3] + [2] * 8 + [1]
    assert sum(p.report.factorizations for p in res.branch) == 2
    assert res.lambda1 == pytest.approx(1.661450533101653, abs=1e-12)


def test_inverse_power_reports_count_the_start_solve(monkeypatch):
    """The first branch point carries the start solve's report, so the
    route's summed counters include that solve: on ellipsoid-n2-bump
    (h = 0.25) 4 LUs, 229 GMRES iterations and 61 Newton steps, of which the
    start solve's are 1, 16 and 5, and every splu call is counted."""
    real = dirichlet.splu
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dirichlet, "splu", counted)
    with pytest.warns(UserWarning, match="quarter"):
        grid = build_grid(Ellipsoid((1.0, 0.7)), 0.25)
    density = GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0, width=0.5)
    res = inverse_power(density, grid, 1e-8)
    first = res.branch[0].report
    assert (first.factorizations, first.krylov_iterations, first.iterations) == (1, 16, 5)
    totals = [sum(getattr(p.report, name) for p in res.branch)
              for name in ("factorizations", "krylov_iterations", "iterations")]
    assert totals == [4, 229, 61] and len(calls) == 4


def test_inverse_power_degenerate_start(disc32, monkeypatch):
    """A start solve that returns the zero field has vanishing mass."""
    zero = ScalarField(disc32, np.zeros(disc32.num_interior))
    monkeypatch.setattr(variational, "solve_frozen",
                        lambda *args, **kwargs: (zero, solve_frozen(*args, **kwargs)[1]))
    with pytest.raises(DegenerateIterate, match="starting field"):
        inverse_power(grid=disc32)


def test_inverse_power_iteration_budget(disc32):
    with pytest.raises(NotConverged):
        inverse_power(grid=disc32, tol=1e-12, max_iters=2)


@pytest.mark.parametrize("max_iters", [0, -1, 2.5, None])
def test_inverse_power_refuses_bad_max_iters(disc32, max_iters):
    """max_iters is an integer >= 1, as SchedulePolicy.max_points is."""
    with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
        inverse_power(grid=disc32, max_iters=max_iters)


@pytest.mark.parametrize("route", [inverse_power, continuation])
@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
def test_routes_refuse_bad_tol_at_their_first_solve(disc32, route, tol):
    """A bad tol fails the routes' first frozen solve by name, not after a
    full iteration budget or a string of rejected branch steps."""
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        route(grid=disc32, tol=tol)


# Benchmark seeds whose semi-axes shrink by under 1e-6: (axes, bump centre).
# Without the orbit-projected residual their tol-1e-11 inverse power
# stalled in the line search (NewtonStalled at iteration 2).
SHRUNK_ELLIPSOID_BUMPS = {
    "seed13": ((0.9999999424324718, 0.6999996235090056), (-0.3, 0.0, 0.0, 0.0)),
    "seed66": ((0.699999747194322, 0.999999706749104), (0.0, 0.0, 0.3, 0.0)),
}


# the benchmark's seed 0 problem (symmetry 0) keeps the id of each grid alone
@pytest.mark.parametrize("h,iterations,symmetry", [
    pytest.param(h, iterations, symmetry,
                 id=f"{h}-{iterations}" + (f"-{symmetry}" if symmetry else ""))
    for h, iterations in [(0.25, 33), (0.5, 47)]
    for symmetry in [*range(8), *SHRUNK_ELLIPSOID_BUMPS]])
def test_tight_inverse_power_on_ellipsoid_bump(h, iterations, symmetry):
    """inverse_power at tol 1e-11, the discrete reference of the
    ellipsoid-n2-bump benchmark at its h = 0.25 and on its h = 0.5 warm-up
    grid, converges in a pinned number of iterations and agrees with the
    tol-1e-8 eigenvalue within 1e-9, in each of the benchmark's eight
    lattice symmetries of the problem (the long semi-axis on z1 or z2, the
    bump 0.3 out along either real axis of that plane, either sign) and on
    two of its seeds' shrunk semi-axes."""
    if symmetry in SHRUNK_ELLIPSOID_BUMPS:
        axes, center = SHRUNK_ELLIPSOID_BUMPS[symmetry]
    else:
        long_axis, half_axis = divmod(symmetry, 4)
        axes = (1.0, 0.7) if long_axis == 0 else (0.7, 1.0)
        center = [0.0] * 4
        center[2 * long_axis + half_axis // 2] = 0.3 if half_axis % 2 == 0 else -0.3
    f = GaussianBump(center=tuple(center), amplitude=1.0, width=0.5)
    with pytest.warns(UserWarning, match="quarter"):
        grids = [build_grid(Ellipsoid(axes), h) for _ in range(2)]
    tight = inverse_power(f, grids[0], 1e-11)
    assert len(tight.branch) - 1 == iterations
    assert tight.residual <= 1e-11
    assert abs(tight.lambda1 - inverse_power(f, grids[1], 1e-8).lambda1) <= 1e-9


def test_inverse_power_on_the_ball_at_h_0125():
    """On the unit 4-ball at h = 0.125 (20 161 nodes; 1 391 orbits of its 16
    lattice symmetries) inverse power at tol 1e-8 reaches the discrete
    eigenvalue 1.6791865938411 within 1e-9, and its eigenpair passes
    verify_eigenpair."""
    grid = build_grid(Ball(2), 0.125)
    result = inverse_power(Constant(1.0), grid, 1e-8)
    assert abs(result.lambda1 - 1.6791865938411) <= 1e-9
    assert verify_eigenpair(result, Constant(1.0), grid).ok


# ------------------------------------------- against the exact discrete eigenvalue


def test_n1_inverse_power_matches_discrete_eigenvalue(disc_grid):
    """At n = 1 the scheme is a linear generalized eigenproblem; inverse
    power at tol 1e-8 lands on its eigenvalue, for constant f and a bump."""
    for density in (Constant(1.0), GaussianBump(center=(0.3, 0.0), amplitude=1.0, width=0.5)):
        res = inverse_power(density, disc_grid, 1e-8)
        assert abs(res.lambda1 - n1_discrete_eigenvalue(disc_grid, density)) <= 1e-9


@pytest.mark.parametrize("which", ["ball4", "ellipsoid_bump"])
def test_inverse_power_matches_bordered_newton_oracle(which, ball4):
    """At n = 2 one bordered Newton step polishes inverse power's eigenpair
    to the exact discrete eigenvalue, which inverse power at tol 1e-8 is
    within 1e-9 of: on the unit 4-ball and on the ellipsoid-n2-bump problem."""
    if which == "ball4":
        grid, density = ball4, Constant(1.0)
    else:
        with pytest.warns(UserWarning, match="quarter"):
            grid = build_grid(Ellipsoid((1.0, 0.7)), 0.25)
        density = GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0, width=0.5)
    res = inverse_power(density, grid, 1e-8)
    lam, before, after = bordered_newton(grid, density, res.lambda1, res.eigenfunction.interior)
    assert after <= 1e-12 < before
    assert abs(res.lambda1 - lam) <= 1e-9
    if which == "ball4":
        assert lam == pytest.approx(BALL4_DISCRETE_LAMBDA1, abs=2e-14)
