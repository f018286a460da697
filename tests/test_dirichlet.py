import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import cmaeig.dirichlet as dirichlet
import cmaeig.hessian as hessian
from cmaeig.dirichlet import (
    RhsSpec,
    _logdet_form,
    _semilinear_form,
    apply_T,
    check_subsolution,
    monotone_iteration,
    quadratic_subsolution,
    solve_frozen,
    solve_nonlinear,
    solve_quasimonotone,
)
from cmaeig.errors import (
    BranchInfeasible,
    EigenvalueBoundViolated,
    MonotonicityViolated,
    NotConverged,
    PreconditionViolated,
)
from cmaeig.domain import (
    Ball, Constant, CustomRho, Ellipsoid, GaussianBump, build_grid, density_vector,
    lattice_symmetries,
)
from cmaeig.eigenpath import continuation
from cmaeig.hessian import ScalarField, complex_hessian, ma_det
from cmaeig.variational import inverse_power
from cmaeig.verify import _grad_sup, verify_eigenpair
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, gmres, splu, spsolve

from oracles import (
    LAMBDA1_UNIT_DISC,
    branch_solution_disc,
    branch_sup_norm_disc,
    poisson_quartic_disc,
)


def r2_of(grid):
    c = grid.interior_coords
    return np.sum(c ** 2, axis=1)


def rho_field(grid):
    return ScalarField(grid, r2_of(grid) - 1.0)


# ---------------------------------------------------------------------------
# solve_frozen
# ---------------------------------------------------------------------------


def test_frozen_constant_one_gives_defining_function(disc_grid_32, ball4_grid):
    for g, tol in ((disc_grid_32, 1e-11), (ball4_grid, 1e-9)):
        u, rep = solve_frozen(np.ones(g.num_interior), g, 1e-9)
        assert rep.converged and rep.final_residual <= 1e-9
        assert np.max(np.abs(u.interior - (r2_of(g) - 1.0))) < tol
        assert np.max(u.interior) <= 0.0


BAD_TOLS = [np.nan, 0.0, -1.0, np.inf]


@pytest.mark.parametrize("tol", BAD_TOLS, ids=["nan", "zero", "negative", "inf"])
def test_solve_frozen_refuses_bad_tol(tol, disc_grid_32):
    """A NaN tol would pass every convergence test: it, and any tol that is
    not finite and > 0, is refused up front, by name."""
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        solve_frozen(np.ones(disc_grid_32.num_interior), disc_grid_32, tol)


@pytest.mark.parametrize("tol", BAD_TOLS, ids=["nan", "zero", "negative", "inf"])
def test_solve_nonlinear_refuses_bad_tol(tol, disc_grid_32):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        solve_nonlinear(RhsSpec.branch(disc_grid_32, 0.5),
                        np.zeros(disc_grid_32.num_interior), tol)


@pytest.mark.parametrize("make", [RhsSpec.branch, RhsSpec.eigen], ids=["branch", "eigen"])
@pytest.mark.parametrize("fn", [Constant(1.0), np.ones(3)], ids=["spec", "short-array"])
def test_rhs_spec_takes_only_the_fn_vector(make, fn):
    """The branch and eigen right-hand sides take f^n at the interior nodes;
    a density spec or an array of the wrong length is refused when the spec
    is built, not inside the first solve."""
    with pytest.raises(ValueError, match="per interior node"):
        make(build_grid(Ball(1), 0.125), 0.5, fn)


def test_frozen_zero_gives_zero(disc_grid_32):
    u, rep = solve_frozen(np.zeros(disc_grid_32.num_interior), disc_grid_32, 1e-12)
    assert u.sup_norm() == 0.0


def test_frozen_quartic_disc(disc_grid_32):
    g = disc_grid_32
    u, rep = solve_frozen(4.0 * r2_of(g), g, 1e-10)
    exact = r2_of(g) ** 2 - 1.0
    assert np.max(np.abs(u.interior - exact)) <= 2.0 * g.h ** 2
    assert rep.converged


# ---------------------------------------------------------------------------
# Reports read from the converged Newton state
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("route,problem,most", [
    (continuation, "disc", 2), (inverse_power, "disc", 13),
    (inverse_power, "ellipsoid-n2-bump", 119)],
    ids=["continuation", "inverse_power", "inverse_power-ellipsoid-n2-bump"])
def test_reports_evaluate_no_complex_hessian(route, problem, most, monkeypatch):
    """Every SolveReport is read from its solve's last Newton state, and each
    eigenfunction estimate's complex Hessian is evaluated once for both its
    determinant and its Rayleigh quotient, so a fresh unit-disc route at
    h = 1/64 evaluates at most 2 Hessians in a continuation (the PSH check
    of the eigenfunction, and its determinant) and 13 in an inverse power
    (2 + one per iteration), 3 and 24 when the residual and the quotient
    each evaluated their own; an inverse power on the ellipsoid-n2-bump
    problem evaluates at most 119 (143).  The count wraps complex_hessian
    in every cmaeig module that binds it."""
    if problem == "disc":
        f, grid = Constant(1.0), build_grid(Ball(1), 1 / 64)
    else:
        with pytest.warns(UserWarning, match="quarter"):
            grid = build_grid(Ellipsoid((1.0, 0.7)), 0.25)
        f = GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0, width=0.5)
    real = hessian.complex_hessian
    calls = []

    def counted(u):
        calls.append(1)
        return real(u)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cmaeig" and getattr(module, "complex_hessian", None) is real:
            monkeypatch.setattr(module, "complex_hessian", counted)
    route(f, grid)
    assert 0 < len(calls) <= most


@pytest.mark.parametrize("case", ["n1-branch", "n1-frozen", "ellipsoid-n2-bump-frozen"])
def test_report_matches_the_hessian_of_the_returned_iterate(case, monkeypatch):
    """final_residual is max|det(complex_hessian(u)) - psi| and psh_margin its
    smallest eigenvalue, bit for bit, at the iterate Newton stopped at, before
    the clamp to u <= 0 (the n = 1 frozen solve reports on its clamped
    solution)."""
    if case.startswith("ellipsoid"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # h = 0.25 is crude on the ellipsoid
            grid = build_grid(Ellipsoid((1.0, 0.7)), 0.25)
        bump = GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0, width=0.5)
        rhs = RhsSpec.frozen(grid, density_vector(bump, grid, power=2))
    else:
        grid = build_grid(Ball(1), 1 / 64)
        rhs = (RhsSpec.branch(grid, 1.0) if case == "n1-branch"
               else RhsSpec.frozen(grid, np.ones(grid.num_interior)))
    iterates = []
    real = dirichlet._damped_newton

    def recording(*args):
        ui, report = real(*args)
        iterates.append(ui.copy())
        return ui, report

    monkeypatch.setattr(dirichlet, "_damped_newton", recording)
    if rhs.kind == "frozen":
        u, report = solve_frozen(rhs.frozen_values, grid)
    else:
        u, report = solve_nonlinear(rhs, np.zeros(grid.num_interior))
    assert report.converged and len(iterates) == (0 if case == "n1-frozen" else 1)
    ui = iterates[-1] if iterates else u.interior
    hess = complex_hessian(ScalarField(grid, ui))
    psi = rhs.psi(np.minimum(ui, 0.0))
    assert report.final_residual == float(np.max(np.abs(hess.det() - psi)))
    assert report.psh_margin == float(np.min(hess.min_eigenvalue()))


def test_frozen_rejects_negative_rhs(disc_grid_32):
    with pytest.raises(PreconditionViolated):
        solve_frozen(-np.ones(disc_grid_32.num_interior), disc_grid_32, 1e-8)


@pytest.mark.parametrize("n, h", [(1, 1 / 8), (2, 0.25)], ids=["disc", "ball4"])
def test_frozen_rejects_non_finite_rhs(n, h):
    """A NaN or infinite h is refused at the first node where it occurs,
    rather than solved into an all-NaN field reported as converged (n = 1)
    or misreported as an unsettled subsolution amplitude (n = 2)."""
    g = build_grid(Ball(n=n), h)
    values = np.ones(g.num_interior)
    values[3], values[7] = np.nan, np.inf
    node = re.escape(f"is nan, not finite, at node {g.interior_point(3)}")
    with pytest.raises(PreconditionViolated, match=node):
        solve_frozen(values, g)


def test_frozen_report_invariant(disc_grid_32):
    rng = np.random.default_rng(0)
    h = rng.uniform(0.5, 2.0, disc_grid_32.num_interior)
    u, rep = solve_frozen(h, disc_grid_32, 1e-9)
    assert rep.converged
    assert rep.final_residual <= 1e-9
    assert rep.psh_margin >= -1e-9


def test_frozen_comparison_consistency(disc_grid_32):
    # psi1 <= psi2 implies u1 >= u2 (discrete comparison echo)
    g = disc_grid_32
    rng = np.random.default_rng(1)
    psi1 = rng.uniform(0.2, 1.0, g.num_interior)
    psi2 = psi1 + rng.uniform(0.0, 1.0, g.num_interior)
    tol = 1e-9
    u1, _ = solve_frozen(psi1, g, tol)
    u2, _ = solve_frozen(psi2, g, tol)
    assert np.all(u1.interior >= u2.interior - 10 * tol)


@pytest.mark.parametrize("which", ["ball4", "ellipsoid_bump"])
def test_logdet_jacobian_matches_central_difference(which, ball4_grid):
    """The assembled Newton Jacobian of F(u) = sum log eig(M(u) + mu I)
    - log(psi(u) + mu^n) against a central difference along a random direction."""
    if which == "ball4":
        grid, density = ball4_grid, Constant(1.0)
    else:
        with pytest.warns(UserWarning, match="quarter"):
            grid = build_grid(Ellipsoid((1.0, 0.7)), 0.25)
        density = GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0, width=0.5)
    rhs = RhsSpec.branch(grid, 0.5, density_vector(density, grid, power=grid.n))
    rng = np.random.default_rng(0)
    u0, _ = quadratic_subsolution(grid, rhs)
    u = u0.interior * (1.0 + 0.01 * rng.uniform(size=grid.num_interior))
    evaluate, jacobian, admissible, *_ = _logdet_form(grid, rhs, 1e-8)
    state = evaluate(u)
    assert admissible(u, state)
    d = rng.normal(size=grid.num_interior)
    jd = jacobian(u, state) @ d
    eps = 1e-6
    fd = (evaluate(u + eps * d).F - evaluate(u - eps * d).F) / (2 * eps)
    assert np.linalg.norm(jd - fd) <= 1e-6 * np.linalg.norm(jd)


# ---------------------------------------------------------------------------
# solve_nonlinear: Newton steps and starts
# ---------------------------------------------------------------------------


def steep_rhs(grid):
    """H = exp(20 t): increasing in t, where the Laplacian preconditioner of
    the n = 1 Krylov step is weakest (psi_t up to 20 against lambda_1 ~ 1.45)."""
    return RhsSpec.general(grid, lambda pts, t: np.exp(20.0 * t), lambda0=0.0)


@pytest.mark.parametrize("case", ["branch_1.40", "branch_1.44", "steep"])
def test_krylov_step_matches_direct_solve(case, disc_grid, monkeypatch):
    """The n = 1 GMRES step on the quarter-Laplacian preconditioner against
    spsolve on the same Jacobian, on branch problems near blow-up
    (lambda_1 = 1.44552 on this grid) and on a steep increasing right-hand
    side."""
    g = disc_grid
    monkeypatch.setitem(g._cache, "newton_lu", dirichlet._cached_laplacian_lu(g))
    rhs = steep_rhs(g) if case == "steep" else RhsSpec.branch(g, float(case[7:]))
    u = 0.3 * (r2_of(g) - 1.0) * (1.0 + 0.1 * np.sin(3.0 * g.interior_coords[:, 0]))
    form = _semilinear_form(g, rhs)
    state = form.evaluate(u)
    J = form.jacobian(u, state)
    delta, iterations, factored = dirichlet._newton_step(g, J, state.F, dirichlet._KRYLOV_RTOL)
    reference = spsolve(J.tocsc(), -state.F)
    assert 0 < iterations <= dirichlet._KRYLOV_RESTART and factored == 0
    assert np.linalg.norm(delta - reference) <= 1e-9 * np.linalg.norm(reference)


def test_n1_useless_preconditioner_is_refreshed(disc_grid_32, monkeypatch):
    """At n = 1 a step follows the same refresh rule as at n >= 2: with the
    identity seeded as the grid's Newton preconditioner the GMRES cycle
    misses, so the step factors the Jacobian once, caches that LU in place of
    the seed and converges on it."""
    g = disc_grid_32
    useless = dirichlet._factor(sparse.identity(g.num_interior))
    monkeypatch.setitem(g._cache, "newton_lu", useless)
    calls = counting_splu(monkeypatch)
    form = _semilinear_form(g, RhsSpec.branch(g, 1.0))
    u = 0.3 * (r2_of(g) - 1.0)
    state = form.evaluate(u)
    J = form.jacobian(u, state)
    delta, iterations, factored = dirichlet._newton_step(g, J, state.F, dirichlet._KRYLOV_RTOL)
    reference = spsolve(J.tocsc(), -state.F)
    assert calls == [FACTOR_SETTINGS] and factored == 1
    assert iterations == dirichlet._KRYLOV_RESTART + 1
    assert g._cache["newton_lu"] is not useless
    assert np.linalg.norm(delta - reference) <= 1e-9 * np.linalg.norm(reference)


def test_n1_solve_counts_krylov_iterations(disc_grid_32):
    g = disc_grid_32
    u, rep = solve_nonlinear(steep_rhs(g), np.zeros(g.num_interior), tol=1e-10)
    assert rep.converged and rep.final_residual <= 1e-10
    assert rep.krylov_iterations >= rep.iterations > 0
    _, frozen = solve_frozen(np.ones(g.num_interior), g)
    assert frozen.krylov_iterations == 0


def test_n1_reports_count_the_laplacian_lu(monkeypatch):
    """The solve that factors a grid's quarter-Laplacian LU counts it, both
    the direct frozen solve and a branch Newton solve, whose shared basis
    solves with it; a later solve on the same grid reuses it and counts
    nothing."""
    calls = counting_splu(monkeypatch)
    for solve in ("frozen", "nonlinear"):
        g = build_grid(Ball(n=1), 1 / 16)
        calls.clear()
        if solve == "frozen":
            _, first = solve_frozen(np.ones(g.num_interior), g)
        else:
            _, first = solve_nonlinear(RhsSpec.branch(g, 0.5), np.zeros(g.num_interior))
        assert calls == [FACTOR_SETTINGS] and first.factorizations == 1
        _, again = solve_frozen(np.full(g.num_interior, 2.0), g)
        _, branch = solve_nonlinear(RhsSpec.branch(g, 1.0), np.zeros(g.num_interior))
        assert len(calls) == 1 and again.factorizations == branch.factorizations == 0


def test_n1_newton_factors_its_own_jacobian(monkeypatch):
    """An n = 1 Newton solve off the branch family follows the n >= 2
    preconditioner rule: its first step factors the Jacobian, whose LU
    serves the later steps, so the steep right-hand side from u = 0 on the
    h = 1/64 disc factors one LU in 6 Newton steps and 50 GMRES iterations."""
    calls = counting_splu(monkeypatch)
    g = build_grid(Ball(n=1), 1 / 64)
    _, report = solve_nonlinear(steep_rhs(g), np.zeros(g.num_interior))
    assert calls == [FACTOR_SETTINGS] and report.factorizations == 1
    assert (report.iterations, report.krylov_iterations) == (6, 50)
    assert report.converged and report.final_residual <= 1.5e-13


# ---------------------------------------------------------------------------
# The n = 1 quarter-Laplacian solve on the symmetry orbits of its right-hand side
# ---------------------------------------------------------------------------


def test_orbit_solve_matches_the_full_lu():
    """With f = 1 on the h = 1/64 disc all 8 lattice symmetries fix the
    right-hand side: one LU on the orbits, under an eighth of the rows plus
    the fixed nodes, gives an exactly invariant solution within 1e-12
    (relative) of the full LU's."""
    g = build_grid(Ball(n=1), 1 / 64)
    b = np.ones(g.num_interior)
    solver = dirichlet._cached_laplacian_lu(g)
    x = solver.solve(b)
    full = dirichlet._factor(hessian.hessian_operators(g)[0][0]).solve(b)
    assert np.max(np.abs(x - full)) <= 1e-12 * np.max(np.abs(full))
    assert all(np.array_equal(x[s], x) for s in lattice_symmetries(g))
    ((stabilizer, reduced),) = solver.factors.items()
    representatives = reduced.orbits.representatives
    assert stabilizer == tuple(range(8)) and solver.factorizations == 1
    assert reduced.lu.shape == (representatives.size,) * 2
    assert representatives.size < g.num_interior / 7


def test_orbit_solve_follows_the_stabilizer_of_the_right_hand_side():
    """A random right-hand side, which only the identity fixes, gets the full
    LU's answer bit for bit; the (0.3, 0) bump is fixed by the identity and
    y -> -y, so it gets an LU of its own on the orbits of that pair; each
    LU is factored once."""
    g = build_grid(Ball(n=1), 1 / 64)
    full = dirichlet._factor(hessian.hessian_operators(g)[0][0])
    solver = dirichlet._cached_laplacian_lu(g)
    b = np.random.default_rng(3).uniform(0.5, 1.5, g.num_interior)
    assert np.array_equal(solver.solve(b), full.solve(b))
    bump = density_vector(DISC_BUMP, g)
    x = solver.solve(bump)
    reference = full.solve(bump)
    assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert [len(stabilizer) for stabilizer in solver.factors] == [1, 2]
    reflected = lattice_symmetries(g)[list(solver.factors)[1][1]]
    assert np.array_equal(g.interior_coords[reflected],
                          g.interior_coords * np.array([1.0, -1.0]))
    solver.solve(2.0 * bump)
    solver.solve(b + 1.0)
    assert solver.factorizations == 2


def test_reports_count_every_laplacian_lu_factored():
    """A frozen solve counts the LU its right-hand side needed, on orbits or
    full, when it had to be factored, and nothing when an earlier solve
    with the same stabilizer factored it."""
    g = build_grid(Ball(n=1), 1 / 32)
    b = np.random.default_rng(4).uniform(0.5, 1.5, g.num_interior)
    counts = [solve_frozen(rhs, g)[1].factorizations
              for rhs in (np.ones(g.num_interior), np.full(g.num_interior, 2.0), b, 2.0 * b)]
    assert counts == [1, 0, 1, 0]


def test_disc_n1_stages_each_factor_one_lu():
    """On the unit disc at h = 1/128 (the disc-n1 benchmark problem, seed 0)
    the Dirichlet solve, continuation and inverse power, each on a fresh
    grid, factor one LU each: the quarter Laplacian on the orbits of f = 1."""
    def fresh():
        return build_grid(Ball(n=1), 1 / 128)

    g = fresh()
    assert solve_frozen(np.ones(g.num_interior), g)[1].factorizations == 1
    for route in (continuation, inverse_power):
        g = fresh()
        result = route(grid=g, tol=1e-8)
        assert sum(p.report.factorizations for p in result.branch) == 1
        assert [len(k) for k in dirichlet._cached_laplacian_lu(g).factors] == [8]


def test_n2_solves_run_on_the_orbits_of_their_right_hand_side():
    """build_grid builds no lattice symmetry; the first n = 2 solve builds
    it and solves on the orbits of its right-hand side's stabilizer: with
    f = 1 on the 4-ball at h = 0.25 all 16 kept maps, 109 orbits of 1 257
    nodes, so the cached Newton LU has 109 rows.  Every branch point and
    iterate the routes return is invariant exactly.  Right-hand-side data
    that only the identity fixes get the full Jacobian's LU.  No n = 2
    solve uses the quarter-Laplacian solver."""
    g = build_grid(Ball(n=2), 0.25)
    assert ("symmetries",) not in g._cache
    fields = [p.u for route in (continuation, inverse_power)
              for p in route(grid=g, tol=1e-8).branch]
    maps = lattice_symmetries(g)
    reduced = g._cache["newton_lu"]
    assert isinstance(reduced, dirichlet._ReducedLU) and len(maps) == 16
    assert reduced.orbits is g._cache[("orbits", tuple(range(16)))]
    assert reduced.lu.shape == (109, 109)
    assert all(np.array_equal(v.interior[s], v.interior) for v in fields for s in maps)
    b = np.random.default_rng(5).uniform(0.5, 1.5, g.num_interior)
    _, report = solve_frozen(b, g)
    assert report.factorizations == 1
    assert not isinstance(g._cache["newton_lu"], dirichlet._ReducedLU)
    assert "lap_lu" not in g._cache


@pytest.mark.parametrize("route", [continuation, inverse_power])
@pytest.mark.parametrize("which", ["ball4", "ellipsoid_bump"])
def test_orbit_newton_matches_the_full_newton(which, route):
    """A route on the orbits (16 maps on the 4-ball with f = 1, the 4 that
    fix the ellipsoid-n2-bump density) against the same route on a grid
    whose symmetries are cut to the identity, with the full Jacobian LU and
    the unprojected residual: lambda_1 within 1e-12 and the same Newton,
    GMRES and LU counts at every point."""
    def fresh():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if which == "ball4":
                return build_grid(Ball(n=2), 0.25), Constant(1.0)
            return (build_grid(Ellipsoid((1.0, 0.7)), 0.25),
                    GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0, width=0.5))

    (g, f), (full, _) = fresh(), fresh()
    full._cache[("symmetries",)] = np.arange(full.num_interior)[None]
    results = [route(f, grid, 1e-8) for grid in (g, full)]
    counts = [[(p.report.iterations, p.report.krylov_iterations, p.report.factorizations)
               for p in result.branch] for result in results]
    assert counts[0] == counts[1]
    assert abs(results[0].lambda1 - results[1].lambda1) <= 1e-12
    assert isinstance(g._cache["newton_lu"], dirichlet._ReducedLU)
    assert not isinstance(full._cache["newton_lu"], dirichlet._ReducedLU)


def no_convergence(J, b, precondition, rtol):
    """A GMRES cycle that misses after 3 iterations without moving."""
    return np.zeros_like(b), 3, False


def test_failed_krylov_step_raises_without_direct_fallback(disc_grid_32, monkeypatch):
    """The branch right-hand side at lam = 0.5 written as a general H, which
    the shared shifted basis does not serve: its Newton step is GMRES."""
    def direct(*args, **kwargs):
        raise AssertionError("direct solve ran")

    monkeypatch.setattr(dirichlet, "_krylov", no_convergence)
    monkeypatch.setattr(dirichlet, "spsolve", direct)
    rhs = RhsSpec.general(disc_grid_32, lambda pts, t: 1.0 - 0.5 * t, nonincreasing=True)
    with pytest.raises(NotConverged, match=r"relative residual 1\.000e\+00 .* after 3 iterations"):
        solve_nonlinear(rhs, np.zeros(disc_grid_32.num_interior))


# ---------------------------------------------------------------------------
# The n = 1 branch family's shared shifted basis
# ---------------------------------------------------------------------------

DISC_BUMP = GaussianBump(center=(0.3, 0.0), amplitude=1.0, width=0.5)


@pytest.mark.parametrize("density", [Constant(1.0), DISC_BUMP], ids=["constant", "bump"])
def test_shifted_basis_branch_matches_gmres_path(density):
    """Every point of the h = 1/64 disc branch, each solved in one Newton
    step from the shared shifted basis, matches the GMRES step's solution of
    the same right-hand side unmarked (branch_family off) from the previous
    point to 1e-9 sup|u|; both reach max|F| <= tol."""
    g = build_grid(Ball(n=1), 1 / 64)
    tol = 1e-8
    result = continuation(f=density, grid=g, tol=tol)
    for prev, point in zip(result.branch, result.branch[1:]):
        rhs = RhsSpec.branch(g, point.lam, density_vector(density, g, power=g.n))
        u, report = solve_nonlinear(replace(rhs, branch_family=False), prev.u, tol)
        assert point.report.iterations == 1 and point.report.flags == ()
        assert report.converged and report.krylov_iterations > 0
        for v in (point.u, u):
            assert _semilinear_form(g, rhs).evaluate(v.interior).error <= tol
        assert np.max(np.abs(point.u.interior - u.interior)) <= 1e-9 * point.sup_norm


def test_shifted_basis_is_rebuilt_for_a_new_density():
    """A second density on the same grid builds its own basis: 9 vectors
    carry the constant-f branch, 11 the bump's, and each lambda_1 is the one
    recorded with a GMRES cycle per point."""
    g = build_grid(Ball(n=1), 1 / 64)
    constant = continuation(grid=g, tol=1e-8)
    assert len(g._cache["shifted_basis"].Z) == 9
    bump = continuation(f=DISC_BUMP, grid=g, tol=1e-8)
    basis = g._cache["shifted_basis"]
    assert len(basis.Z) == 11
    assert np.array_equal(basis.b, density_vector(DISC_BUMP, g, power=1))
    assert sum(p.report.krylov_iterations for p in bump.branch) == 11
    assert constant.lambda1 == pytest.approx(1.445519333203084, abs=1e-12)
    assert bump.lambda1 == pytest.approx(0.9941548141819682, abs=1e-12)


def test_shifted_basis_serves_only_unshifted_branch_specs():
    g = build_grid(Ball(n=1), 1 / 16)
    rhs = RhsSpec.general(g, lambda pts, t: 1.0 - t, nonincreasing=True)
    _, report = solve_nonlinear(rhs, np.zeros(g.num_interior))
    assert report.converged and "shifted_basis" not in g._cache
    _, report = solve_nonlinear(RhsSpec.branch(g, 1.0), np.zeros(g.num_interior))
    assert report.converged and report.krylov_iterations == len(g._cache["shifted_basis"].Z)


def test_shifted_basis_step_is_polished_by_gmres_below_its_floor():
    """At tol = 1e-10 the basis answer of the last disc branch point (h =
    1/64) misses max|F| <= tol by rounding; the solve's second step runs a
    GMRES cycle, unflagged; the walk keeps its 13 points and lambda_1 is
    the one recorded with a GMRES cycle per point."""
    g = build_grid(Ball(n=1), 1 / 64)
    result = continuation(grid=g, tol=1e-10)
    iterations = [p.report.iterations for p in result.branch[1:]]
    assert set(iterations) == {1, 2} and len(result.branch) == 13
    assert all(p.report.converged and p.report.flags == () for p in result.branch)
    assert result.lambda1 == pytest.approx(1.4455193332030818, abs=1e-12)


def test_capped_shifted_basis_falls_through_to_newton_step(monkeypatch):
    """A basis held to 2 vectors cannot reach 0.1 tol at lam = 1: the step
    runs a GMRES cycle instead, converges and flags the cap."""
    monkeypatch.setattr(dirichlet, "_SHIFTED_BASIS_CAP", 2)
    g = build_grid(Ball(n=1), 1 / 32)
    rhs = RhsSpec.branch(g, 1.0)
    u, report = solve_nonlinear(rhs, np.zeros(g.num_interior))
    assert report.converged and report.flags == ("shifted_basis_cap",)
    assert report.iterations == 1
    assert len(g._cache["shifted_basis"].Z) == 2 < report.krylov_iterations
    J = _semilinear_form(g, rhs).jacobian(u.interior, None)
    reference = spsolve(J.tocsc(), np.ones(g.num_interior))
    assert np.max(np.abs(u.interior - reference)) <= 1e-9 * np.max(np.abs(reference))


def test_logdet_start_hessian_is_not_recomputed(ball4_grid, monkeypatch):
    """The feasible start's complex Hessian is the Newton loop's first."""
    fields = []

    def recording(u):
        fields.append(u.interior.copy())
        return complex_hessian(u)

    monkeypatch.setattr(dirichlet, "complex_hessian", recording)
    rhs = RhsSpec.branch(ball4_grid, 0.5)
    u0, _ = quadratic_subsolution(ball4_grid, rhs)
    fields.clear()
    _, rep = solve_nonlinear(rhs, u0)
    assert rep.converged and rep.flags == ()
    assert len(fields) > 2
    assert not any(np.array_equal(a, b) for a, b in zip(fields, fields[1:]))


def test_feasible_start_fallback_is_flagged(ball4_grid):
    """No blend of a start with a NaN node enters the cone, so the solve
    starts from the anchor, a multiple of rho, and says so."""
    g = ball4_grid
    rhs = RhsSpec.frozen(g, np.ones(g.num_interior))
    start = r2_of(g) - 1.0
    start[0] = np.nan
    u, rep = solve_nonlinear(rhs, start, tol=1e-8)
    assert rep.converged and rep.flags == ("feasible_start_anchor",)
    assert np.max(np.abs(u.interior - (r2_of(g) - 1.0))) < 1e-6
    _, clean = solve_nonlinear(rhs, r2_of(g) - 1.0, tol=1e-8)
    assert clean.flags == ()


@pytest.fixture(scope="module")
def ellipsoid_bump():
    """The ellipsoid-n2-bump problem: Ellipsoid((1.0, 0.7)), h = 0.25, with a
    unit Gaussian bump 0.3 off-centre."""
    with pytest.warns(UserWarning, match="quarter"):
        grid = build_grid(Ellipsoid((1.0, 0.7)), 0.25)
    return grid, GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0, width=0.5)


def logdet_problem(grid, density, lam, wobble, seed=0):
    """(form, u, state) of the branch problem at lam from its quadratic
    subsolution, scaled nodewise by 1 + wobble * uniform noise."""
    rhs = RhsSpec.branch(grid, lam, density_vector(density, grid, power=grid.n))
    u0, _ = quadratic_subsolution(grid, rhs)
    noise = np.random.default_rng(seed).uniform(size=grid.num_interior)
    u = u0.interior * (1.0 + wobble * noise)
    form = _logdet_form(grid, rhs, 1e-8)
    return form, u, form.evaluate(u)


# The keywords every splu call of _factor passes, whichever caller reaches it.
FACTOR_SETTINGS = {"permc_spec": "MMD_AT_PLUS_A",
                   "diag_pivot_thresh": dirichlet._LU_PIVOT_THRESHOLD,
                   "options": {"SymmetricMode": True}, "relax": dirichlet._LU_RELAX,
                   "panel_size": dirichlet._LU_PANEL_SIZE}


def counting_splu(monkeypatch):
    """Record the keywords of every splu call, one dict per factorization."""
    calls = []
    real = dirichlet.splu

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(dirichlet, "splu", counted)
    return calls


@pytest.mark.parametrize("which", ["disc_laplacian", "ellipsoid_jacobian"])
def test_factor_settings_change_blocking_only(which, disc_grid, ellipsoid_bump):
    """_factor's relax / panel_size change SuperLU's blocking only: on the
    h = 1/64 disc's quarter Laplacian and an ellipsoid-n2-bump log-det
    Jacobian its LU has the permutations and fill of splu with SuperLU's
    default blocking and the same pivoting, and its solves agree with that
    LU to 1e-12 relative."""
    if which == "disc_laplacian":
        A = hessian.hessian_operators(disc_grid)[0][0]
    else:
        form, u, state = logdet_problem(*ellipsoid_bump, 0.5, 0.02)
        A = form.jacobian(u, state)
    lu = dirichlet._factor(A)
    default = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=dirichlet._LU_PIVOT_THRESHOLD,
                   options={"SymmetricMode": True})
    assert lu.L.nnz + lu.U.nnz == default.L.nnz + default.U.nnz
    assert np.array_equal(lu.perm_c, default.perm_c)
    assert np.array_equal(lu.perm_r, default.perm_r)
    for seed in range(3):
        b = np.random.default_rng(seed).normal(size=A.shape[0])
        reference = default.solve(b)
        assert np.linalg.norm(lu.solve(b) - reference) <= 1e-12 * np.linalg.norm(reference)


def problem_grid(which, ball4_grid, ellipsoid_bump):
    return (ball4_grid, Constant(1.0)) if which == "ball4" else ellipsoid_bump


@pytest.mark.parametrize("which", ["ball4", "ellipsoid_bump"])
def test_stale_lu_step_matches_direct_solve(which, ball4_grid, ellipsoid_bump, monkeypatch):
    """A log-det Newton step preconditioned by the LU of another Jacobian
    (lam = 0.3 at its quadratic subsolution) solves the Jacobian at lam = 0.5
    and a perturbed field by GMRES alone, as accurately as spsolve."""
    grid, density = problem_grid(which, ball4_grid, ellipsoid_bump)
    old_form, old_u, old_state = logdet_problem(grid, density, 0.3, 0.0)
    stale = dirichlet._factor(old_form.jacobian(old_u, old_state))
    monkeypatch.setitem(grid._cache, "newton_lu", stale)
    calls = counting_splu(monkeypatch)
    form, u, state = logdet_problem(grid, density, 0.5, 0.02)
    J = form.jacobian(u, state)
    delta, iterations, factored = dirichlet._newton_step(grid, J, state.F,
                                                         dirichlet._KRYLOV_RTOL)
    reference = spsolve(J, -state.F)
    assert calls == [] and factored == 0
    assert grid._cache["newton_lu"] is stale
    assert 0 < iterations <= dirichlet._KRYLOV_RESTART
    assert np.linalg.norm(delta - reference) <= 1e-9 * np.linalg.norm(reference)


@pytest.mark.parametrize("which", ["ball4", "ellipsoid_bump"])
def test_useless_preconditioner_is_refreshed_once(which, ball4_grid, ellipsoid_bump,
                                                  monkeypatch):
    """With the identity as the cached LU one GMRES cycle misses the
    tolerance: the step factors the current Jacobian once, caches it and
    solves with one more GMRES iteration on it; the next step needs no
    factorization."""
    grid, density = problem_grid(which, ball4_grid, ellipsoid_bump)
    useless = dirichlet._factor(sparse.identity(grid.num_interior))
    monkeypatch.setitem(grid._cache, "newton_lu", useless)
    calls = counting_splu(monkeypatch)
    form, u, state = logdet_problem(grid, density, 0.5, 0.02)
    J = form.jacobian(u, state)
    delta, iterations, factored = dirichlet._newton_step(grid, J, state.F,
                                                         dirichlet._KRYLOV_RTOL)
    reference = spsolve(J, -state.F)
    assert calls == [FACTOR_SETTINGS] and factored == 1
    # the missed cycle, then one iteration on the fresh LU
    assert iterations == dirichlet._KRYLOV_RESTART + 1
    assert grid._cache["newton_lu"] is not useless
    assert np.linalg.norm(delta - reference) <= 1e-9 * np.linalg.norm(reference)
    again, iterations, factored = dirichlet._newton_step(grid, J, state.F,
                                                         dirichlet._KRYLOV_RTOL)
    assert len(calls) == 1 and factored == 0 and iterations <= 2
    assert np.linalg.norm(again - reference) <= 1e-9 * np.linalg.norm(reference)


def test_n2_failed_refresh_raises_after_one_factorization(ball4_grid, monkeypatch):
    """When GMRES misses on the fresh LU too, the log-det step raises
    NotConverged after one factorization instead of returning the LU's
    solve unchecked."""
    monkeypatch.delitem(ball4_grid._cache, "newton_lu", raising=False)
    calls = counting_splu(monkeypatch)
    monkeypatch.setattr(dirichlet, "_krylov", no_convergence)
    rhs = RhsSpec.branch(ball4_grid, 0.5)
    u0, _ = quadratic_subsolution(ball4_grid, rhs)
    with pytest.raises(NotConverged, match=r"relative residual 1\.000e\+00 .* after 3 iterations"):
        solve_nonlinear(rhs, u0)
    assert calls == [FACTOR_SETTINGS]


def test_logdet_forcing_terms(ellipsoid_bump):
    """The GMRES target of each log-det Newton step on the ellipsoid-bump
    branch problem at lam = 0.5: the cap on the first step, Eisenstat-Walker
    choice 2 (0.9 times the squared residual ratio) after it, always within
    [_KRYLOV_RTOL, _FORCING_MAX], and on the last step lifted to the floor
    0.1 tol / (max(psi + mu^n) ||F||), below which a smaller linear residual
    cannot lower the det residual under tol."""
    grid, density = ellipsoid_bump
    tol, mu = 1e-8, 1e-11  # mu: the form's eigenvalue floor at this tol
    rhs = RhsSpec.branch(grid, 0.5, density_vector(density, grid, power=grid.n))
    u0, _ = quadratic_subsolution(grid, rhs)
    form = _logdet_form(grid, rhs, tol)
    steps = []

    def recording(state):
        eta = form.forcing(state)
        steps.append((eta, np.linalg.norm(state.F), np.max(state.psi) + mu ** grid.n))
        return eta

    _, report = dirichlet._damped_newton(grid, u0.interior, tol, form._replace(forcing=recording))
    assert report.converged and report.final_residual <= tol
    assert len(steps) == report.iterations > 2
    etas = [eta for eta, _, _ in steps]
    assert all(dirichlet._KRYLOV_RTOL <= eta <= dirichlet._FORCING_MAX for eta in etas)
    assert etas[0] == dirichlet._FORCING_MAX
    for (eta, fnorm, scale), (_, before, _) in zip(steps[1:], steps):
        choice2 = 0.9 * (fnorm / before) ** 2
        floor = 0.1 * tol / (scale * fnorm)
        assert eta == pytest.approx(min(dirichlet._FORCING_MAX, max(choice2, floor)), rel=1e-12)
    eta, fnorm, scale = steps[-1]
    assert eta == pytest.approx(0.1 * tol / (scale * fnorm), rel=1e-12)
    assert eta > 0.9 * (fnorm / steps[-2][1]) ** 2


# ---------------------------------------------------------------------------
# The GMRES cycle
# ---------------------------------------------------------------------------


def scipy_cycle(J, b, precondition, rtol):
    """The reference: one cycle of scipy's gmres on the operator J M^-1 from
    0, mapped back by one more preconditioner solve."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    y, info = gmres(LinearOperator(J.shape, matvec=lambda v: J @ precondition(v), dtype=float),
                    b, rtol=rtol, atol=0.0, restart=dirichlet._KRYLOV_RESTART,
                    maxiter=1, callback=count, callback_type="pr_norm")
    return precondition(y), iterations, info == 0


def krylov_system(case, disc_grid, ellipsoid_bump):
    """(J, b, precondition) of three Newton linear systems: the n = 1 disc
    branch Jacobian near blow-up on the quarter-Laplacian LU, an ellipsoid
    log-det Jacobian at lam = 0.5 on the LU of the lam = 0.3 one, and the
    n = 1 Jacobian with no preconditioner at all."""
    if case == "ellipsoid_stale_lu":
        grid, density = ellipsoid_bump
        old_form, old_u, old_state = logdet_problem(grid, density, 0.3, 0.0)
        stale = dirichlet._factor(old_form.jacobian(old_u, old_state))
        form, u, state = logdet_problem(grid, density, 0.5, 0.02)
        return form.jacobian(u, state), -state.F, stale.solve
    g = disc_grid
    u = 0.3 * (r2_of(g) - 1.0) * (1.0 + 0.1 * np.sin(3.0 * g.interior_coords[:, 0]))
    form = _semilinear_form(g, RhsSpec.branch(g, 1.40))
    state = form.evaluate(u)
    J = form.jacobian(u, state)
    if case == "identity":
        return J, -state.F, np.copy
    return J, -state.F, dirichlet._cached_laplacian_lu(g).solve


@pytest.mark.parametrize("case, rtol", [
    pytest.param("disc_laplacian_lu", dirichlet._KRYLOV_RTOL, id="disc_laplacian_lu"),
    pytest.param("ellipsoid_stale_lu", dirichlet._KRYLOV_RTOL, id="ellipsoid_stale_lu"),
    pytest.param("identity", dirichlet._KRYLOV_RTOL, id="identity"),
    pytest.param("ellipsoid_stale_lu", dirichlet._FORCING_MAX, id="ellipsoid_stale_lu_loose"),
])
def test_krylov_cycle_matches_scipy_gmres(case, rtol, disc_grid, ellipsoid_bump):
    """The in-package cycle takes scipy's right-preconditioned iterates: the
    same iteration count and verdict and the same delta to rounding, with
    one preconditioner solve per iteration and none after the cycle; also at
    the loosest forcing target of a log-det step."""
    J, b, precondition = krylov_system(case, disc_grid, ellipsoid_bump)
    solves = 0

    def counted(v):
        nonlocal solves
        solves += 1
        return precondition(v)

    delta, iterations, converged = dirichlet._krylov(J, b, counted, rtol)
    reference, ref_iterations, ref_converged = scipy_cycle(J, b, precondition, rtol)
    assert (iterations, converged) == (ref_iterations, ref_converged)
    assert converged == (case != "identity")
    assert solves == iterations
    assert np.linalg.norm(delta - reference) <= 1e-12 * np.linalg.norm(reference)


def test_krylov_zero_rhs_and_exact_preconditioner(disc_grid_32):
    """b = 0 is solved by delta = 0 in no iterations; J = I with the exact
    preconditioner is solved in one."""
    size = disc_grid_32.num_interior
    identity = sparse.identity(size, format="csr")
    delta, iterations, converged = dirichlet._krylov(identity, np.zeros(size), np.copy, 1e-10)
    assert (iterations, converged) == (0, True) and not delta.any()
    b = np.random.default_rng(0).normal(size=size)
    delta, iterations, converged = dirichlet._krylov(identity, b, np.copy, 1e-10)
    assert (iterations, converged) == (1, True)
    assert np.linalg.norm(delta - b) <= 1e-14 * np.linalg.norm(b)


def test_shifted_engine_matches_direct_solves(disc_grid_32):
    """One engine of diag f preconditioned by the quarter-Laplacian solver
    serves the branch systems (L/4 + lam diag f) u = f at lam = 0, 0.5 and
    1.4 in turn, each within 1e-10 (relative) of spsolve's u."""
    g = disc_grid_32
    f = density_vector(GaussianBump(center=(0.3, 0.0), amplitude=-0.5, width=0.5), g, power=1)
    engine = dirichlet._Arnoldi(f, dirichlet._cached_laplacian_lu(g).solve, lambda z: f * z)
    quarter_laplacian = hessian.hessian_operators(g)[0][0]
    for lam in (0.0, 0.5, 1.4):
        u, residual = engine.solve_to((1.0, lam), 1e-13 * np.linalg.norm(f), 60)
        reference = spsolve((quarter_laplacian + lam * sparse.diags(f)).tocsc(), f)
        assert residual <= 1e-13 * np.linalg.norm(f)
        assert np.linalg.norm(u - reference) <= 1e-10 * np.linalg.norm(reference)


def test_engine_breakdown_holds_one_vector(disc_grid_32):
    """With J = I and the exact preconditioner the first Arnoldi step breaks
    down: the engine holds one vector, and both the GMRES shift (0, 1) and a
    branch shift (1, lam) are solved from it with least-squares residual 0."""
    b = np.random.default_rng(0).normal(size=disc_grid_32.num_interior)
    engine = dirichlet._Arnoldi(b, np.copy, np.copy)
    for (sigma, tau) in ((0.0, 1.0), (1.0, 0.5)):
        x, residual = engine.solve_to((sigma, tau), 0.0, dirichlet._KRYLOV_RESTART)
        assert len(engine.Z) == len(engine.V) == 1 and residual == 0.0
        assert np.linalg.norm(x - b / (sigma + tau)) <= 1e-14 * np.linalg.norm(b)


@pytest.mark.parametrize("which", ["ball4", "ellipsoid_bump"])
def test_logdet_state_matches_dense_eigen_reference(which, ball4_grid, ellipsoid_bump):
    """The log-det form's F and admissibility verdict, read from the Hessian's
    closed-form eigenvalues, against a dense eigvalsh(M + mu I): at a field
    inside the cone and at one kicked up at its innermost node, which leaves
    the cone there."""
    grid, density = problem_grid(which, ball4_grid, ellipsoid_bump)
    form, u, _ = logdet_problem(grid, density, 0.5, 0.02)
    mu = 1e-11  # the form's eigenvalue floor at tol = 1e-8
    kicked = u.copy()
    kicked[grid.min_rho_position()] += 1.0
    verdicts = []
    for field in (u, kicked):
        state = form.evaluate(field)
        M = state.hess.matrices()
        eig = np.linalg.eigvalsh(M + mu * np.eye(grid.n))
        with np.errstate(invalid="ignore"):
            F = np.sum(np.log(eig), axis=1) - np.log(state.psi + mu ** grid.n)
        np.testing.assert_allclose(state.F, F, rtol=0.0, atol=1e-12)
        verdict = np.min(eig) > 0 and np.min(np.linalg.eigvalsh(M)) >= -10.0 * grid.h ** 2
        assert form.admissible(field, state) == verdict
        verdicts.append(verdict)
    assert verdicts == [True, False]


@pytest.mark.parametrize("kind", ["branch", "frozen"])
def test_logdet_jacobian_taylor_remainder_is_second_order(kind, ellipsoid_bump):
    """At the ellipsoid-bump branch solution for lam = 0.5, along random
    relative directions d: F(u + eps d) - F(u) - eps J d shrinks fourfold per
    halving of eps, and central differences of F match J d.  "frozen" freezes
    psi at the solution (a Jacobian with no psi_t shift)."""
    grid, density = ellipsoid_bump
    rhs = RhsSpec.branch(grid, 0.5, density_vector(density, grid, power=grid.n))
    u0, _ = quadratic_subsolution(grid, rhs)
    u = solve_nonlinear(rhs, u0, 1e-8)[0].interior
    if kind == "frozen":
        rhs = RhsSpec.frozen(grid, rhs.psi(u))
    form = _logdet_form(grid, rhs, 1e-8)
    state = form.evaluate(u)
    J = form.jacobian(u, state)
    rng = np.random.default_rng(7)
    for _ in range(3):
        d = rng.normal(size=grid.num_interior) * u
        jd = J @ d
        remainders = [np.linalg.norm(form.evaluate(u + eps * d).F - state.F - eps * jd)
                      for eps in (5e-3, 2.5e-3, 1.25e-3)]
        ratios = np.array(remainders[:-1]) / np.array(remainders[1:])
        assert np.all(np.abs(ratios - 4.0) <= 0.2), ratios
        eps = 1e-5
        central = (form.evaluate(u + eps * d).F - form.evaluate(u - eps * d).F) / (2 * eps)
        assert np.linalg.norm(central - jd) <= 1e-7 * np.linalg.norm(jd)


def test_newton_report_counts_backtracks_and_restarts(disc_grid_32, monkeypatch):
    """A first step five times too long on a linear F is halved twice before
    the line search accepts it (F shrinks to a quarter), later exact steps
    are not halved, and a restart returned once counts as one mu shrink."""
    g = disc_grid_32
    form = _semilinear_form(g, RhsSpec.frozen(g, np.full(g.num_interior, 2.0)))
    steps = []
    newton_step = dirichlet._newton_step

    def long_first_step(grid, J, F, rtol):
        delta, iterations, factored = newton_step(grid, J, F, rtol)
        steps.append(len(steps))
        return (5.0 if len(steps) == 1 else 1.0) * delta, iterations, factored

    def restart_once(ui, state, fnorm, it):
        return form.evaluate(ui) if it == 1 else None

    monkeypatch.setattr(dirichlet, "_newton_step", long_first_step)
    probe = form._replace(restart=restart_once)
    _, report = dirichlet._damped_newton(g, np.zeros(g.num_interior), 1e-9, probe)
    assert report.converged and len(steps) >= 2
    assert report.backtracks == 2 and report.mu_shrinks == 1


def test_line_search_accepts_a_trial_that_meets_the_stop_test():
    """A Newton trial whose det residual meets tol ends the solve although
    max|F|, at its rounding floor, does not fall: here F stays at 2e-13
    while the exact step brings the residual from 1 to 0, so it is taken
    with no halving."""
    def evaluate(u):
        return dirichlet._NewtonState(np.full(3, 2e-13), float(np.max(np.abs(u - 1.0))),
                                      np.ones(3), np.ones((3, 1)))

    form = dirichlet._NewtonForm(evaluate, None, lambda u, state: True, 5,
                                 step=lambda u, state, tol: (1.0 - u, 0, 0))
    u, report = dirichlet._damped_newton(None, np.zeros(3), 1e-12, form)
    assert np.array_equal(u, np.ones(3))
    assert report.converged and report.iterations == 1 and report.backtracks == 0


# ---------------------------------------------------------------------------
# apply_T
# ---------------------------------------------------------------------------


def test_apply_T_at_zero_matches_defining_function(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.7)
    u, rep = apply_T(ScalarField(g, np.zeros(g.num_interior)), rhs, tol=1e-10)
    assert np.max(np.abs(u.interior - (r2_of(g) - 1.0))) < 1e-11
    assert rep.converged


def test_apply_T_frozen_ignores_v(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.frozen(g, np.full(g.num_interior, 2.0))
    ua, _ = apply_T(rho_field(g), rhs, tol=1e-10)
    ub, _ = solve_frozen(np.full(g.num_interior, 2.0), g, 1e-10)
    assert np.array_equal(ua.interior, ub.interior)


def test_apply_T_poisson_oracle(disc_grid_32):
    # T(|z|^2 - 1) at lambda = 1/2 solves Delta u = 4 (1.5 - 0.5 r^2)
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.5)
    u, rep = apply_T(rho_field(g), rhs, tol=1e-10)
    assert rep.final_residual < 1e-10
    r = np.sqrt(r2_of(g))
    exact = np.array([poisson_quartic_disc(ri) for ri in r])
    assert np.max(np.abs(u.interior - exact)) <= 2.0 * g.h ** 2
    t0, _ = apply_T(ScalarField(g, np.zeros(g.num_interior)), rhs, tol=1e-10)
    assert np.all(u.interior <= t0.interior + 1e-10)


def test_apply_T_rejects_positive_v(disc_grid_32):
    g = disc_grid_32
    v = ScalarField(g, np.full(g.num_interior, 0.5))
    with pytest.raises(PreconditionViolated):
        apply_T(v, RhsSpec.branch(g, 0.5), tol=1e-8)


# ---------------------------------------------------------------------------
# RhsSpec invariants
# ---------------------------------------------------------------------------


def test_rhs_rejects_positive_t(disc_grid_32):
    rhs = RhsSpec.branch(disc_grid_32, 0.5)
    with pytest.raises(PreconditionViolated):
        rhs.psi(np.full(disc_grid_32.num_interior, 0.5))


@pytest.mark.parametrize("kind", ["branch", "eigen"])
def test_separable_psi_t_is_exact(kind, disc_grid_32, ball4_grid):
    """psi_t of the separable kinds is f^n g'(t) in closed form; the central
    difference of psi agrees with it only to its truncation error."""
    for grid in (disc_grid_32, ball4_grid):
        n, lam = grid.n, 0.8
        rhs = getattr(RhsSpec, kind)(grid, lam)
        t = -np.linspace(0.0, 2.0, grid.num_interior)
        base = 1.0 - lam * t if kind == "branch" else -lam * t
        assert np.allclose(rhs.psi_t(t), -n * lam * base ** (n - 1), rtol=1e-14, atol=0.0)
        inner = t < -1e-3
        delta = 1e-6
        fd = (rhs.psi(np.minimum(t + delta, 0.0)) - rhs.psi(t - delta)) / (2 * delta)
        assert np.allclose(fd[inner], rhs.psi_t(t)[inner], rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("kind", ["branch", "eigen"])
def test_separable_specs_validate_lam_exactly(kind, disc_grid_32, monkeypatch):
    """A finite lam >= 0 is the whole check: NaN, inf and negative lam are
    refused, and a valid spec is built without evaluating psi."""
    make = getattr(RhsSpec, kind)
    for lam in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            make(disc_grid_32, lam)

    def unexpected(self, t):
        raise AssertionError("psi evaluated while building the spec")

    monkeypatch.setattr(RhsSpec, "psi", unexpected)
    assert make(disc_grid_32, 0.8).lambda0 == 0.8


def test_rhs_monotonicity_spot_check(disc_grid_32):
    with pytest.raises(ValueError, match="nonincreasing"):
        RhsSpec.general(
            disc_grid_32, lambda pts, t: 2.0 + 0.1 * t, nonincreasing=True
        )
    with pytest.raises(ValueError, match="negative"):
        RhsSpec.general(disc_grid_32, lambda pts, t: 0.1 + t, nonincreasing=True)


# ---------------------------------------------------------------------------
# monotone_iteration
# ---------------------------------------------------------------------------


def test_monotone_frozen_converges_in_one_step(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.frozen(g, np.ones(g.num_interior))
    u, history = monotone_iteration(rho_field(g), rhs, tol=1e-8)
    assert len(history) == 1


def test_monotone_branch_half(disc_grid_32):
    # start from C (|z|^2 - 1) with C = (1 - 0.5 ||T(0)||)^{-1} = 2
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.5)
    lower = ScalarField(g, 2.0 * (r2_of(g) - 1.0))
    iterates = []
    u, history = monotone_iteration(lower, rhs, tol=1e-8, iterate_sink=iterates)
    assert min(history) >= -10 * 1e-8
    res = np.max(np.abs(ma_det(u).interior - rhs.psi(u.interior)))
    assert res <= 1e-8
    # iterates increase from the subsolution and stay <= 0
    assert np.all(u.interior >= lower.interior - 1e-7)
    assert np.max(u.interior) <= 0.0
    r = np.sqrt(r2_of(g))
    exact = np.array([branch_solution_disc(0.5, ri) for ri in r])
    assert np.max(np.abs(u.interior - exact)) <= 5.0 * g.h ** 2
    assert abs(np.max(-u.interior) - branch_sup_norm_disc(0.5)) <= 5.0 * g.h ** 2
    # diagnostic regression: gradient/Laplacian stay bounded along the run
    assert iterates[-1] is u and len(iterates) == len(history)
    if len(iterates) > 5:
        ref, last = iterates[4], iterates[-1]
        assert _grad_sup(g, last.interior) <= 2.0 * _grad_sup(g, ref.interior)
        assert np.max(np.abs(ma_det(last).interior)) <= 2.0 * np.max(np.abs(ma_det(ref).interior))


@pytest.mark.parametrize("lam", [0.5, 0.9])
def test_monotone_eigen_below_lambda1_returns_zero(disc_grid_32, lam):
    g = disc_grid_32
    rhs = RhsSpec.eigen(g, lam)
    lower = ScalarField(g, 0.05 * (r2_of(g) - 1.0))
    u, _ = monotone_iteration(lower, rhs, tol=1e-8)
    assert np.max(np.abs(u.interior)) <= 1e-6


def test_monotone_requires_nonincreasing(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.general(g, lambda pts, t: 1.0 - t, lambda0=1.0)
    with pytest.raises(PreconditionViolated):
        monotone_iteration(rho_field(g), rhs, tol=1e-8)


def test_monotone_detects_decreasing_iterates(disc_grid_32, monkeypatch):
    """A start above the solution, let past the subsolution check, makes the
    first iterate decrease."""
    g = disc_grid_32
    rhs = RhsSpec.frozen(g, np.ones(g.num_interior))
    above = ScalarField(g, 0.5 * (r2_of(g) - 1.0))
    with pytest.raises(PreconditionViolated, match="not a subsolution"):
        monotone_iteration(above, rhs, tol=1e-10)
    monkeypatch.setattr(dirichlet, "check_subsolution", lambda *args, **kwargs: True)
    with pytest.raises(MonotonicityViolated):
        monotone_iteration(above, rhs, tol=1e-10)


def test_monotone_not_converged(disc_grid_32, monkeypatch):
    monkeypatch.setattr(dirichlet, "_MAX_OUTER", 2)
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.5)
    lower = ScalarField(g, 2.0 * (r2_of(g) - 1.0))
    with pytest.raises(NotConverged, match="reached 2 steps"):
        monotone_iteration(lower, rhs, tol=1e-10)


# ---------------------------------------------------------------------------
# subsolution checks
# ---------------------------------------------------------------------------


def test_subsolution_examples(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.5)
    two_rho = ScalarField(g, 2.0 * (r2_of(g) - 1.0))
    assert check_subsolution(two_rho, rhs, tol=1e-9)
    assert not check_subsolution(ScalarField(g, np.zeros(g.num_interior)), rhs, tol=1e-9)
    assert check_subsolution(rho_field(g), RhsSpec.frozen(g, np.ones(g.num_interior)),
                             tol=1e-9)


def test_quadratic_subsolution_certificate(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.8)
    u, t = quadratic_subsolution(g, rhs)
    det = complex_hessian(u).det()
    assert np.all(det >= rhs.psi(u.interior) - 1e-12)
    assert t > 0


def test_quadratic_subsolution_infeasible_branch(disc_grid_32):
    # On the unit disc the amplitude fixed point exists only while the
    # eigenvalue parameter stays below the quadratic domination threshold.
    with pytest.raises(BranchInfeasible):
        quadratic_subsolution(disc_grid_32, RhsSpec.branch(disc_grid_32, 1.0))


def unit_ball_rho(n):
    """The unit ball in C^n spelled as a custom defining polynomial."""
    coeffs = {tuple(2 * (i == a) for i in range(2 * n)): 1.0 for a in range(2 * n)}
    coeffs[(0,) * (2 * n)] = -1.0
    return CustomRho(n, coeffs, (0.0,) * (2 * n), ((-1.0, 1.0),) * (2 * n))


QUARTIC_N2 = CustomRho(  # |z1|^2 + 1.5 |z2|^2 + 0.3 x1^4 - 1
    2, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.5, (0, 0, 0, 2): 1.5,
        (4, 0, 0, 0): 0.3, (0, 0, 0, 0): -1.0},
    (0.0,) * 4, ((-1.0, 1.0), (-1.0, 1.0), (-0.85, 0.85), (-0.85, 0.85)))


@pytest.mark.parametrize("spec,h", [
    (Ball(1), 1 / 16),
    (Ball(1, 1.5, (0.25, -0.5)), 1 / 16),
    (Ellipsoid((1.0,)), 1 / 16),
    (CustomRho(1, {(2, 0): 1.0, (0, 2): 2.0, (0, 0): -1.0}, (0.0, 0.0),
               ((-1.0, 1.0), (-0.8, 0.8))), 1 / 16),
    (Ball(2), 0.25),
    (Ball(2, 1.0, (0.25, 0.0, -0.5, 0.0)), 0.25),
    (Ellipsoid((1.0, 0.7)), 0.25),
    (QUARTIC_N2, 0.25),
], ids=["disc", "offcentre-disc", "ellipse", "custom-n1",
        "ball4", "offcentre-ball4", "ellipsoid", "quartic-n2"])
def test_quadratic_subsolution_on_every_domain_kind(spec, h):
    """A multiple of the domain's own rho is a nodewise subsolution on every
    kind of domain, custom ones included, where a bounding quadratic that
    does not vanish on the boundary fails at n = 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # h = 0.25 is a coarse 4-ball grid
        g = build_grid(spec, h)
    bump = GaussianBump((0.1,) + (0.0,) * (2 * g.n - 1), 1.0, 0.5)
    rhs = RhsSpec.branch(g, 0.1, density_vector(bump, g, power=g.n))
    u, t = quadratic_subsolution(g, rhs)
    assert t > 0 and np.max(u.interior) <= 0.0
    assert np.all(complex_hessian(u).det() >= rhs.psi(u.interior) - 1e-12)


def test_quadratic_subsolution_on_custom_disc_matches_ball():
    """psi = 1 - u/2 on the unit disc: t rho dominates from t = 2 on, whether
    the disc is a Ball or a custom rho."""
    amplitudes = []
    for spec in (Ball(1), unit_ball_rho(1)):
        g = build_grid(spec, 1 / 32)
        amplitudes.append(quadratic_subsolution(g, RhsSpec.branch(g, 0.5))[1])
    assert amplitudes[0] == pytest.approx(2.0, abs=1e-9)
    assert amplitudes[1] == pytest.approx(amplitudes[0], abs=1e-12)


@pytest.mark.parametrize("which,hessians,amplitude", [
    ("ball4", 2, 1.0000000000000069), ("ellipsoid_bump", 7, 1.393034883624431)])
def test_cold_frozen_solve_certifies_without_a_second_hessian(which, hessians, amplitude,
                                                              monkeypatch):
    """quadratic_subsolution certifies t rho against t^n det(rho) from the
    anchor's Hessian, taking none of t rho, and returns exactly t rho with
    the pinned amplitude; the count is a cold n = 2 solve_frozen's."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # h = 0.25 is crude on the ellipsoid
        grid = build_grid(Ball(2) if which == "ball4" else Ellipsoid((1.0, 0.7)), 0.25)
    density = (Constant(1.0) if which == "ball4" else
               GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0, width=0.5))
    fn = density_vector(density, grid, power=2)
    u, t = quadratic_subsolution(grid, RhsSpec.frozen(grid, fn))
    assert t == amplitude
    assert np.array_equal(u.interior, t * grid.rho_interior)
    calls = []
    real = dirichlet.complex_hessian

    def counted(field):
        calls.append(1)
        return real(field)

    monkeypatch.setattr(dirichlet, "complex_hessian", counted)
    _, report = solve_frozen(fn, grid)
    assert report.converged and len(calls) == hessians


@pytest.fixture(scope="module")
def ball4_both_spellings():
    """solve_frozen, continuation and inverse_power, in that order on one
    fresh grid, for Ball(2) and for the same ball as a custom rho."""
    runs = []
    for spec in (Ball(2), unit_ball_rho(2)):
        g = build_grid(spec, 0.25)
        u, _ = solve_frozen(np.ones(g.num_interior), g)
        runs.append((u, continuation(grid=g), inverse_power(grid=g)))
    return runs


def test_custom_ball4_solves_like_ball(ball4_both_spellings):
    (u_ball, cont_ball, ip_ball), (u_custom, cont_custom, ip_custom) = ball4_both_spellings
    assert np.max(np.abs(u_custom.interior - u_ball.interior)) <= 1e-12
    assert cont_custom.lambda1 == pytest.approx(cont_ball.lambda1, abs=1e-12)
    assert ip_custom.lambda1 == pytest.approx(ip_ball.lambda1, abs=1e-12)
    assert cont_ball.lambda1 == pytest.approx(1.66133, abs=1e-5)


def test_quartic_custom_domain_routes_agree():
    with pytest.warns(UserWarning, match="quarter"):
        grids = [build_grid(QUARTIC_N2, 0.25) for _ in range(2)]
    cont = continuation(grid=grids[0])
    ip = inverse_power(grid=grids[1])
    assert abs(cont.lambda1 - ip.lambda1) <= 0.03 * ip.lambda1
    assert verify_eigenpair(cont).ok and verify_eigenpair(ip).ok


def test_non_psh_rho_is_refused_at_its_node():
    """rho = x^4 + y^4 - (x^2 + y^2)/2 - 1/2 bounds a domain but has a
    negative Laplacian near the origin; the anchor names that node."""
    spec = CustomRho(1, {(4, 0): 1.0, (0, 4): 1.0, (2, 0): -0.5, (0, 2): -0.5,
                         (0, 0): -0.5}, (0.0, 0.0), ((-1.2, 1.2), (-1.2, 1.2)))
    g = build_grid(spec, 1 / 16)
    with pytest.raises(PreconditionViolated,
                       match=r"not strictly PSH: .* at node \(0\.0, 0\.0\)$"):
        quadratic_subsolution(g, RhsSpec.branch(g, 0.5))


# ---------------------------------------------------------------------------
# solve_quasimonotone
# ---------------------------------------------------------------------------


def test_quasimonotone_constant_reduces_to_frozen(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.general(g, lambda pts, t: np.ones(len(t)), lambda0=0.0)
    u, rep = solve_quasimonotone(rhs, LAMBDA1_UNIT_DISC, tol=1e-9)
    assert np.max(np.abs(u.interior - (r2_of(g) - 1.0))) < 1e-9
    assert rep.flags == ()


def test_quasimonotone_sine_multistart_agrees(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.general(g, lambda pts, t: 1.0 + 0.5 * np.sin(t), lambda0=0.5)
    u, rep = solve_quasimonotone(rhs, LAMBDA1_UNIT_DISC, tol=1e-9)
    assert "initializations_disagree" not in rep.flags
    assert rep.final_residual <= 1e-9
    assert np.max(u.interior) <= 0.0


def test_quasimonotone_bound_guard(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.general(g, lambda pts, t: 1.0 + 0.5 * np.sin(t), lambda0=2.0)
    with pytest.raises(EigenvalueBoundViolated):
        solve_quasimonotone(rhs, LAMBDA1_UNIT_DISC, tol=1e-8)


def test_quasimonotone_n2(ball4_grid):
    g = ball4_grid
    rhs = RhsSpec.general(g, lambda pts, t: 1.0 + 0.3 * np.sin(t), lambda0=0.3)
    u, rep = solve_quasimonotone(rhs, 1.0, tol=1e-6)
    assert rep.final_residual <= 1e-6
    assert "initializations_disagree" not in rep.flags
