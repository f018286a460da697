"""Branch continuation: single branch points, blow-up extrapolation, verification."""

import numpy as np
import pytest

import cmaeig.dirichlet as dirichlet
import cmaeig.eigenpath as eigenpath
import cmaeig.verify as verify

from cmaeig.dirichlet import SolveReport, symmetry_orbits
from cmaeig.domain import Ball, Constant, Ellipsoid, GaussianBump, build_grid, density_vector
from cmaeig.eigenpath import (
    SchedulePolicy,
    _extrapolate,
    _secant_start,
    continuation,
    lower_bound,
    solve_branch,
)
from cmaeig.errors import (
    BranchInfeasible,
    NewtonStalled,
    NonPositiveDensity,
    NotConverged,
    ScheduleExhausted,
)
from cmaeig.hessian import ScalarField, complex_hessian
from cmaeig.variational import (
    CONTINUATION,
    INVERSE_POWER,
    BranchPoint,
    EigenResult,
    eigen_residual,
)
from cmaeig.verify import InvariantRow, verify_eigenpair

from oracles import (
    LAMBDA1_UNIT_DISC,
    branch_solution_disc,
    branch_sup_norm_disc,
    disc_eigenmode,
)


@pytest.fixture(scope="module")
def disc32():
    return build_grid(Ball(1, 1.0), 1.0 / 32)


@pytest.fixture(scope="module")
def disc64():
    return build_grid(Ball(1, 1.0), 1.0 / 64)


@pytest.fixture(scope="module")
def disc_result(disc64):
    return continuation(grid=disc64, tol=1e-8)


def radii(grid):
    return np.sqrt(np.sum(grid.interior_coords ** 2, axis=1))


# ---------------------------------------------------------------- solve_branch


def test_branch_at_zero_is_the_defining_quadratic(disc32):
    bp = solve_branch(0.0, grid=disc32, tol=1e-10)
    assert bp.lam == 0.0
    assert bp.sup_norm == pytest.approx(1.0, abs=1e-8)
    r2 = np.sum(disc32.interior_coords ** 2, axis=1)
    assert np.max(np.abs(bp.u.interior - (r2 - 1.0))) < 1e-8


def test_branch_at_zero_scales_with_radius():
    g = build_grid(Ball(1, 2.0), 1.0 / 16)
    bp = solve_branch(0.0, grid=g, tol=1e-10)
    assert bp.sup_norm == pytest.approx(4.0, abs=1e-7)


@pytest.mark.parametrize("lam,tol_pt", [(0.5, 5e-4), (1.0, 5e-3)])
def test_branch_matches_closed_form(disc64, lam, tol_pt):
    bp = solve_branch(lam, grid=disc64, tol=1e-8)
    r = radii(disc64)
    exact = np.array([branch_solution_disc(lam, x) for x in r])
    assert np.max(np.abs(bp.u.interior - exact)) < tol_pt
    assert bp.sup_norm == pytest.approx(branch_sup_norm_disc(lam), rel=1e-3)
    assert bp.report.converged


def test_branch_sup_norm_grows_with_lam(disc32):
    sups = [solve_branch(lam, grid=disc32, tol=1e-8).sup_norm
            for lam in (0.0, 0.7, 1.0, 1.3)]
    assert all(b > a for a, b in zip(sups, sups[1:]))


def ones(grid):
    return density_vector(Constant(1.0), grid, power=grid.n)


def orbits_of_ones(grid):
    """The orbits every solve with f = 1 runs on."""
    return symmetry_orbits(grid, ones(grid))


def test_branch_warm_start_single_step(disc32):
    """One walk step from a branch point, started from its scaled subsolution."""
    prev = solve_branch(1.0, grid=disc32, tol=1e-8)
    bp = eigenpath._branch_step(1.05, ones(disc32), 1e-8, orbits_of_ones(disc32), prev)
    assert bp.lam == pytest.approx(1.05)
    assert bp.sup_norm == pytest.approx(branch_sup_norm_disc(1.05), rel=1e-2)


def test_branch_rejects_negative_lam(disc32):
    with pytest.raises(ValueError, match="nonnegative"):
        solve_branch(-0.5, grid=disc32)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_branch_rejects_non_finite_lam(disc32, lam):
    """NaN once returned the lam = 0 point as if it had solved lam."""
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solve_branch(lam, grid=disc32)


def test_branch_warm_start_must_move_forward(disc32):
    prev = solve_branch(1.0, grid=disc32, tol=1e-8)
    with pytest.raises(ValueError, match="increase"):
        eigenpath._branch_step(0.9, ones(disc32), 1e-8, orbits_of_ones(disc32), prev)


def test_branch_infeasible_past_critical_value(disc32, monkeypatch):
    monkeypatch.setattr(eigenpath, "_SUP_NORM_CAP", 50.0)
    with pytest.raises(BranchInfeasible):
        solve_branch(2.0, grid=disc32, tol=1e-8)


def test_cold_branch_walks_a_prefix_of_the_continuation_schedule(disc32, monkeypatch):
    """Past the subsolution threshold a cold solve_branch takes the
    continuation's own steps and lands on the requested lam exactly."""
    real = eigenpath._branch_step
    visited = []

    def spy(lam_new, *args):
        visited.append(lam_new)
        return real(lam_new, *args)

    monkeypatch.setattr(eigenpath, "_branch_step", spy)
    schedule = [p.lam for p in continuation(grid=disc32, tol=1e-8).branch[1:]]
    visited.clear()
    bp = solve_branch(1.3, grid=disc32, tol=1e-8)
    assert bp.lam == 1.3
    assert visited[-1] == 1.3
    assert visited[:-1] == schedule[:len(visited) - 1]
    assert schedule[len(visited) - 2] < 1.3 < schedule[len(visited) - 1]


@pytest.mark.parametrize("route", ["continuation", "cold solve_branch"])
def test_branch_walk_evaluates_the_density_once(route, disc32, monkeypatch):
    """A continuation, and a cold solve_branch past the subsolution
    threshold, evaluate f^n once and hand it to every branch point: one
    density_vector call in all, however many points the walk takes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return density_vector(*args, **kwargs)

    monkeypatch.setattr(eigenpath, "density_vector", counted)
    bump = GaussianBump(center=(0.3, 0.0), amplitude=1.0, width=0.5)
    if route == "continuation":
        points = len(continuation(bump, grid=disc32, tol=1e-8).branch)
    else:
        steps = []
        real = eigenpath._branch_step

        def spy(*args):
            steps.append(1)
            return real(*args)

        monkeypatch.setattr(eigenpath, "_branch_step", spy)
        solve_branch(0.9, bump, grid=disc32, tol=1e-8)
        points = len(steps)
    assert points > 3 and len(calls) == 1


def test_continuation_refuses_an_underflowing_density_before_walking(monkeypatch):
    """f = 1e-200 is positive but f^2 underflows to 0 at n = 2: continuation
    stops at density_vector with NonPositiveDensity instead of walking the
    branch of a zero right-hand side to its lam cap (ScheduleExhausted)."""
    def unreachable(*args):
        raise AssertionError("the branch walk started")

    monkeypatch.setattr(eigenpath, "_walk", unreachable)
    with pytest.raises(NonPositiveDensity, match=r"density\^2 is 0\.000e\+00"):
        continuation(Constant(1e-200), build_grid(Ball(2), 0.25))


def test_branch_at_zero_is_the_lower_bound_origin(disc32):
    assert 1.0 / solve_branch(0.0, grid=disc32, tol=1e-8).sup_norm == lower_bound(
        grid=disc32, tol=1e-8)


def test_branch_scaling_pole_guard(disc32):
    prev = solve_branch(1.0, grid=disc32, tol=1e-8)
    with pytest.raises(BranchInfeasible, match="pole"):
        eigenpath._branch_step(prev.lam + 2.0 / prev.sup_norm, ones(disc32), 1e-8,
                               orbits_of_ones(disc32), prev)


# ---------------------------------------------------------------- lower_bound


def test_lower_bound_unit_disc(disc32):
    lb = lower_bound(grid=disc32)
    assert lb == pytest.approx(1.0, abs=1e-7)
    assert lb <= LAMBDA1_UNIT_DISC


def test_lower_bound_radius_two():
    g = build_grid(Ball(1, 2.0), 1.0 / 16)
    assert lower_bound(grid=g) == pytest.approx(0.25, abs=1e-8)


# --------------------------------------------------------------- continuation


def test_continuation_hits_disc_eigenvalue(disc_result):
    rel = abs(disc_result.lambda1 - LAMBDA1_UNIT_DISC) / LAMBDA1_UNIT_DISC
    assert rel < 5e-3
    assert disc_result.method == CONTINUATION


def test_continuation_branch_history_invariants(disc_result):
    branch = disc_result.branch
    assert branch[0].lam == 0.0
    lams = [p.lam for p in branch]
    sups = [p.sup_norm for p in branch]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert all(b > a for a, b in zip(sups, sups[1:]))
    assert all(p.report.converged for p in branch)
    assert sups[-1] > SchedulePolicy().blowup_threshold
    assert disc_result.lambda1 >= branch[-1].lam


def test_continuation_disc_pinned_branch(disc_result):
    # lambda_1 recorded before the Newton loops and Hessian stencils were
    # merged; one Newton step per point since psi_t is exact (psi is linear in u)
    assert [p.report.iterations for p in disc_result.branch] == [1] * 13
    assert disc_result.lambda1 == pytest.approx(1.4455193332030762, abs=1e-12)


class CountedLU:
    """An LU whose solves are counted in a shared list."""

    def __init__(self, lu, solves):
        self.lu, self.solves = lu, solves

    def solve(self, b):
        self.solves.append(1)
        return self.lu.solve(b)


def test_continuation_n1_factors_once(monkeypatch):
    """An n = 1 continuation factors the grid's Laplacian once and solves
    with it at most 12 times in all (about 80 with a GMRES cycle per point):
    the lam = 0 solve, then one solve per vector of the shared shifted basis,
    each counted as a Krylov iteration of the point that added it."""
    calls, solves = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dirichlet, "spsolve", counted("spsolve", dirichlet.spsolve))
    real = counted("splu", dirichlet.splu)
    monkeypatch.setattr(dirichlet, "splu", lambda *a, **k: CountedLU(real(*a, **k), solves))
    result = continuation(grid=build_grid(Ball(1, 1.0), 1.0 / 64), tol=1e-8)
    assert calls == ["splu"]
    assert len(solves) <= 12
    assert sum(p.report.krylov_iterations for p in result.branch) == len(solves) - 1
    assert result.branch[0].report.krylov_iterations == 0  # the frozen lam = 0 solve


def test_continuation_n2_reuses_newton_lu(monkeypatch):
    """An n = 2 continuation factors fewer Jacobians than it takes Newton
    steps; its per-point Newton counts and lambda_1 are pinned."""
    calls = []
    real = dirichlet.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dirichlet, "splu", counted)
    result = continuation(grid=build_grid(Ball(2, 1.0), 0.25), tol=1e-8)
    iterations = [p.report.iterations for p in result.branch]
    # recorded with the secant predictor, forcing terms and the mu-shrink
    # stall test scaled by max(psi + mu^n) (discrete eigenvalue
    # 1.661450533119653); no point shrinks mu
    assert iterations == [0, 4, 3, 3, 3, 4, 4, 4, 4, 4, 4, 3, 3, 3, 3]
    assert sum(p.report.mu_shrinks for p in result.branch) == 0
    assert result.lambda1 == pytest.approx(1.6613320300311811, abs=1e-12)
    assert len(calls) == sum(p.report.factorizations for p in result.branch) == 4


# lam points of the ellipsoid-bump continuation recorded with the secant
# predictor and forcing terms
ELLIPSOID_BUMP_LAMS = [
    0.0, 0.25416628446398626, 0.5083325689279725, 0.7624988533919588,
    1.0163368291179498, 1.192023947070225, 1.3155518250789373,
    1.4033149714001056, 1.466101093821817, 1.511227526035761,
    1.543763773154795, 1.5672733777497394, 1.584286259225782,
    1.596610783745798,
]


def ellipsoid_bump_continuation():
    """Continuation of the ellipsoid-n2-bump problem (h = 0.25) on a fresh grid."""
    with pytest.warns(UserWarning, match="quarter"):
        grid = build_grid(Ellipsoid((1.0, 0.7)), 0.25)
    bump = GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0, width=0.5)
    return continuation(f=bump, grid=grid, tol=1e-8)


@pytest.fixture(scope="module")
def ellipsoid_bump_result():
    return ellipsoid_bump_continuation()


def test_continuation_ellipsoid_bump_predictor_saves_newton_steps(ellipsoid_bump_result,
                                                                   monkeypatch):
    """On a non-radial n = 2 problem the secant predictor keeps the lam
    schedule and lambda_1 of the scaled-subsolution start while taking
    fewer Newton steps (52 against 71 when recorded) and no line-search
    backtrack.  Each point is solved to a det residual of tol = 1e-8, not
    to rounding, so the two starts' schedules differ by about 1e-11."""
    result = ellipsoid_bump_result
    monkeypatch.setattr(eigenpath, "_secant_start", lambda lam_new, prev, before, orbits: None)
    scaled = ellipsoid_bump_continuation()
    steps = sum(p.report.iterations for p in result.branch)
    assert steps < sum(p.report.iterations for p in scaled.branch)
    assert sum(p.report.backtracks for p in result.branch) == 0
    assert result.predictor_fallbacks == 0
    lams = [p.lam for p in result.branch]
    assert lams == pytest.approx(ELLIPSOID_BUMP_LAMS, abs=1e-12)
    assert [p.lam for p in scaled.branch] == pytest.approx(lams, abs=1e-10)
    assert result.lambda1 == pytest.approx(1.628983703584143, abs=1e-12)
    assert scaled.lambda1 == pytest.approx(result.lambda1, abs=1e-12)


def test_continuation_ellipsoid_bump_work_counts(ellipsoid_bump_result):
    """Forcing terms let most log-det steps run on a stale Jacobian LU: the
    ellipsoid-bump continuation factors 5 Jacobians in 295 GMRES iterations
    (12 and 373 with every step solved to 5e-10) and 52 Newton steps,
    shrinking mu nowhere."""
    branch = ellipsoid_bump_result.branch
    assert sum(p.report.factorizations for p in branch) == 5
    assert sum(p.report.krylov_iterations for p in branch) == 295
    assert sum(p.report.iterations for p in branch) == 52
    assert sum(p.report.mu_shrinks for p in branch) == 0


def test_unusable_predictor_falls_back_and_is_counted(disc32, monkeypatch):
    """A predicted start outside the solver's cone (here a positive field)
    fails its solve; every point after the first step is then solved from
    the scaled subsolution, marked and counted, with the same lambda_1."""
    plain = continuation(grid=disc32, tol=1e-8)
    monkeypatch.setattr(eigenpath, "_secant_start",
                        lambda lam_new, prev, before, orbits:
                        np.abs(prev.u.interior[orbits.representatives]))
    result = continuation(grid=disc32, tol=1e-8)
    assert plain.predictor_fallbacks == 0
    assert [p.predictor_fallback for p in result.branch] == [False, False] + [True] * (
        len(result.branch) - 2)
    assert result.predictor_fallbacks == len(result.branch) - 2 > 0
    assert all(p.report.converged for p in result.branch)
    assert result.lambda1 == pytest.approx(plain.lambda1, abs=1e-12)


def pole_shaped_point(lam, shape, pole=2.0):
    """Branch point u = shape / (pole - lam): fixed shape, 1/sup linear in lam."""
    grid = shape.grid
    u = ScalarField(grid, shape.interior / (pole - lam))
    report = SolveReport(iterations=1, final_residual=0.0, psh_margin=0.0, converged=True)
    return BranchPoint(lam=lam, sup_norm=u.sup_norm(), u=u, report=report)


def test_secant_start_is_exact_on_a_pole_shaped_branch(disc32):
    shape = ScalarField(disc32, np.sum(disc32.interior_coords ** 2, axis=1) - 1.0)
    before, prev = pole_shaped_point(1.0, shape), pole_shaped_point(1.5, shape)
    trivial = symmetry_orbits(disc32, None)
    predicted = _secant_start(1.8, prev, before, trivial)
    exact = pole_shaped_point(1.8, shape).u.interior
    assert np.max(np.abs(predicted - exact)) <= 1e-12 * np.max(np.abs(exact))
    # the line in 1/sup_norm reaches zero at the pole: no prediction there
    assert _secant_start(2.0, prev, before, trivial) is None
    assert _secant_start(2.5, prev, before, trivial) is None


def test_continuation_counts_rejected_steps_by_class(disc32, monkeypatch):
    """Each failed continuation step is counted under its exception class;
    a run without failures records none."""
    assert continuation(grid=disc32, tol=1e-8).rejected_steps == ()
    real = eigenpath._branch_step
    failures = {2: NewtonStalled("probe"), 3: NotConverged("probe"), 5: NewtonStalled("probe")}
    calls = []

    def flaky(*args):
        calls.append(args[0])
        if len(calls) in failures:
            raise failures[len(calls)]
        return real(*args)

    monkeypatch.setattr(eigenpath, "_branch_step", flaky)
    result = continuation(grid=disc32, tol=1e-8)
    assert result.rejected_steps == (("NewtonStalled", 2), ("NotConverged", 1))
    assert len(calls) == len(result.branch) - 1 + 3
    assert calls[2] < calls[1]  # the step after a failure is half as long


def test_continuation_residual_contract(disc_result):
    assert disc_result.residual <= disc_result.residual_tol
    assert disc_result.fit_residual < 1e-3


def test_continuation_eigenfunction_matches_bessel_mode(disc_result, disc64):
    mode = np.array([disc_eigenmode(x) for x in radii(disc64)])
    assert np.max(np.abs(disc_result.eigenfunction.interior - mode)) < 2e-2
    assert disc_result.eigenfunction.sup_norm() == pytest.approx(1.0, abs=1e-12)


def test_continuation_rayleigh_consistency(disc_result):
    # For one complex variable the energy/mass quotient estimates lambda1 itself.
    assert disc_result.rayleigh_value == pytest.approx(LAMBDA1_UNIT_DISC, rel=1e-2)


def test_continuation_verifies(disc_result, disc64):
    ver = checked(verify_eigenpair(disc_result, grid=disc64))
    assert ver.ok, [row for row in ver.rows if not row.passed]
    assert len(ver.rows) == 7


def test_continuation_scales_with_radius():
    g = build_grid(Ball(1, 2.0), 1.0 / 16)
    res = continuation(grid=g, tol=1e-8)
    target = LAMBDA1_UNIT_DISC / 4.0
    assert abs(res.lambda1 - target) / target < 2e-2


def test_continuation_scales_with_density(disc32):
    # Constant density f multiplies (-lam*u) f in the operator, so lambda1(f) =
    # lambda1(1)/f for constant f.
    res = continuation(f=Constant(2.0), grid=disc32, tol=1e-8)
    target = LAMBDA1_UNIT_DISC / 2.0
    assert abs(res.lambda1 - target) / target < 2e-2


def test_continuation_lambda_cap_exhaustion(disc32, monkeypatch):
    monkeypatch.setattr(eigenpath, "_LAMBDA_CAP_FACTOR", 1.2)
    with pytest.raises(ScheduleExhausted) as exc:
        continuation(grid=disc32, tol=1e-8)
    lb = exc.value.lambda_lower_bound
    assert 1.0 <= lb <= 1.2 * 1.0 * (1 + 1e-6)
    assert lb <= LAMBDA1_UNIT_DISC


def test_continuation_threshold_below_start_exhausts(disc32):
    policy = SchedulePolicy(blowup_threshold=0.5)
    with pytest.raises(ScheduleExhausted) as exc:
        continuation(grid=disc32, tol=1e-8, schedule_policy=policy)
    assert exc.value.lambda_lower_bound == pytest.approx(1.0, abs=1e-6)


def test_continuation_point_budget_exhaustion(disc32):
    """The budget's ScheduleExhausted names max_points, not the lam cap."""
    policy = SchedulePolicy(max_points=3)
    with pytest.raises(ScheduleExhausted, match="within max_points=3 branch points") as exc:
        continuation(grid=disc32, tol=1e-8, schedule_policy=policy)
    assert "lam cap" not in str(exc.value)


# ------------------------------------------------------------------ dataclass


def test_schedule_policy_validation():
    with pytest.raises(ValueError):
        SchedulePolicy(blowup_threshold=0.0)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
def test_schedule_policy_rejects_non_finite_threshold(threshold):
    """A NaN threshold once reached continuation and failed there in lstsq."""
    with pytest.raises(ValueError, match="finite and > 0"):
        SchedulePolicy(blowup_threshold=threshold)


@pytest.mark.parametrize("max_points", [float("nan"), 0, 2.5])
def test_schedule_policy_rejects_bad_point_budget(max_points):
    """A NaN budget once switched the budget off: the h = 1/16 disc walked
    13 points."""
    with pytest.raises(ValueError, match="integer >= 1"):
        SchedulePolicy(max_points=max_points)


def test_branch_point_validation(disc_result):
    point = disc_result.branch[1]
    with pytest.raises(ValueError):
        BranchPoint(lam=-1.0, sup_norm=point.sup_norm, u=point.u, report=point.report)
    with pytest.raises(ValueError):
        BranchPoint(lam=point.lam, sup_norm=-2.0, u=point.u, report=point.report)


def test_eigen_result_rejects_unknown_method(disc_result):
    with pytest.raises(ValueError, match="method"):
        EigenResult(
            lambda1=disc_result.lambda1,
            eigenfunction=disc_result.eigenfunction,
            branch=(),
            method="Secant",
            residual=0.0,
            residual_tol=1.0,
            rayleigh_value=1.0,
        )


def synthetic_branch(lams, sups):
    report = SolveReport(iterations=1, final_residual=0.0, psh_margin=0.0, converged=True)
    return [BranchPoint(lam=lam, sup_norm=sup, u=None, report=report)
            for lam, sup in zip(lams, sups)]


def test_extrapolation_root_of_decreasing_fit():
    # 1/sup = 1 - lam/1.5 exactly: root 1.5, no flag
    lams = [0.0, 0.5, 1.0, 1.2, 1.4]
    lam1, fit_residual, flags = _extrapolate(
        synthetic_branch(lams, [1.0 / (1.0 - lam / 1.5) for lam in lams]), 4)
    assert lam1 == pytest.approx(1.5, rel=1e-12) and fit_residual < 1e-12
    assert flags == ()


def test_extrapolation_fallback_is_flagged():
    """A 1/sup_norm tail that does not decrease has no root past the branch:
    the last lam comes back, flagged."""
    lams = [0.0, 0.5, 1.0, 1.2, 1.4]
    lam1, _, flags = _extrapolate(synthetic_branch(lams, [4.0, 3.0, 2.0, 2.0, 1.9]), 4)
    assert lam1 == 1.4
    assert flags == ("extrapolation_slope_nonnegative",)


def test_extrapolation_root_below_branch_is_flagged():
    """A tail that falls steeply and then flattens fits a line whose root
    (about 1.34) lies below the last branch lam: that lam comes back,
    flagged."""
    lams = [0.0, 0.5, 1.0, 1.2, 1.4]
    lam1, fit_residual, flags = _extrapolate(
        synthetic_branch(lams, [1.0, 1.25, 4.0, 20.0, 25.0]), 4)
    assert lam1 == 1.4 and fit_residual > 0.0
    assert flags == ("extrapolation_root_below_branch",)


# ----------------------------------------------------------- verify_eigenpair


def checked(ver):
    """ver, once every row is an InvariantRow whose margin is >= 0 iff it
    passed."""
    for row in ver.rows:
        assert isinstance(row, InvariantRow) and row.passed == (row.margin >= 0.0), row
    return ver


def sampled_bessel_result(grid):
    mode = np.array([disc_eigenmode(x) for x in radii(grid)])
    v = ScalarField(grid, mode / np.max(np.abs(mode)))
    fn = density_vector(Constant(1.0), grid, power=grid.n)
    resid = eigen_residual(v, LAMBDA1_UNIT_DISC, fn, complex_hessian(v).det())
    return EigenResult(
        lambda1=LAMBDA1_UNIT_DISC,
        eigenfunction=v,
        branch=(),
        method=INVERSE_POWER,
        residual=resid,
        residual_tol=1.5 * resid + 1e-12,
        rayleigh_value=LAMBDA1_UNIT_DISC,
    )


def test_verify_accepts_sampled_bessel_pair(disc64):
    result = sampled_bessel_result(disc64)
    # Sampling the continuum mode on the grid leaves an O(h^2)-scale residual.
    assert result.residual < 2e-2
    ver = checked(verify_eigenpair(result, grid=disc64))
    assert ver.ok, [row for row in ver.rows if not row.passed]


def test_verify_evaluates_three_complex_hessians(disc64, monkeypatch):
    """v's Hessian serves the PSH, residual and homogeneity rows; each
    multiple theta*v's serves both of its homogeneity tests."""
    calls = []

    def counted(u):
        calls.append(u)
        return complex_hessian(u)

    monkeypatch.setattr(verify, "complex_hessian", counted)
    assert checked(verify_eigenpair(sampled_bessel_result(disc64), grid=disc64)).ok
    assert len(calls) == 3


def test_verify_row_lookup(disc64):
    ver = checked(verify_eigenpair(sampled_bessel_result(disc64), grid=disc64))
    [row] = ver["normalization"]
    assert row.invariant == "normalization" and row.passed
    assert row.fixture == INVERSE_POWER
    with pytest.raises(KeyError):
        ver["no_such_row"]


def test_verify_flags_broken_normalization(disc64):
    good = sampled_bessel_result(disc64)
    bad_field = ScalarField(disc64, 0.5 * good.eigenfunction.interior)
    fn = density_vector(Constant(1.0), disc64, power=1)
    resid = eigen_residual(bad_field, LAMBDA1_UNIT_DISC, fn,
                           complex_hessian(bad_field).det())
    bad = EigenResult(
        lambda1=LAMBDA1_UNIT_DISC,
        eigenfunction=bad_field,
        branch=(),
        method=INVERSE_POWER,
        residual=resid,
        residual_tol=good.residual_tol,
        rayleigh_value=LAMBDA1_UNIT_DISC,
    )
    ver = checked(verify_eigenpair(bad, grid=disc64))
    assert not ver.ok
    assert not ver["normalization"][0].passed


def test_verify_flags_wrong_eigenvalue(disc64):
    good = sampled_bessel_result(disc64)
    fn = density_vector(Constant(1.0), disc64, power=1)
    resid = eigen_residual(good.eigenfunction, 2.5, fn,
                           complex_hessian(good.eigenfunction).det())
    bad = EigenResult(
        lambda1=2.5,
        eigenfunction=good.eigenfunction,
        branch=(),
        method=INVERSE_POWER,
        residual=resid,
        residual_tol=good.residual_tol,
        rayleigh_value=2.5,
    )
    ver = checked(verify_eigenpair(bad, grid=disc64))
    assert not ver.ok
    assert not ver["residual"][0].passed


def test_verify_fails_every_residual_row_of_a_nan_eigenvalue(disc64):
    good = sampled_bessel_result(disc64)
    bad = EigenResult(
        lambda1=float("nan"),
        eigenfunction=good.eigenfunction,
        branch=(),
        method=INVERSE_POWER,
        residual=good.residual,
        residual_tol=good.residual_tol,
        rayleigh_value=good.rayleigh_value,
    )
    ver = checked(verify_eigenpair(bad, grid=disc64))
    for name in ("residual", "residual_matches_stored", "residual_scale_invariance"):
        assert not ver[name][0].passed, name
    assert ver["normalization"][0].passed and ver["psh_margin"][0].passed


def test_verify_flags_stale_residual(disc64):
    good = sampled_bessel_result(disc64)
    stale = EigenResult(
        lambda1=good.lambda1,
        eigenfunction=good.eigenfunction,
        branch=(),
        method=INVERSE_POWER,
        residual=good.residual + 0.1,
        residual_tol=good.residual_tol + 0.2,
        rayleigh_value=good.rayleigh_value,
    )
    ver = checked(verify_eigenpair(stale, grid=disc64))
    assert not ver["residual_matches_stored"][0].passed
