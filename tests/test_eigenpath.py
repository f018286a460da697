"""Branch continuation: single branch points, blow-up extrapolation, verification."""

import numpy as np
import pytest

import cmaeig.dirichlet as dirichlet

from cmaeig.dirichlet import SolveReport
from cmaeig.domain import Ball, Constant, build_grid, density_vector
from cmaeig.eigenpath import (
    CONTINUATION,
    INVERSE_POWER,
    BranchPoint,
    EigenResult,
    SchedulePolicy,
    _eigen_residual,
    _extrapolate,
    continuation,
    lower_bound,
    solve_branch,
    verify_eigenpair,
)
from cmaeig.errors import BranchInfeasible, ScheduleExhausted
from cmaeig.hessian import ScalarField

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


def test_branch_warm_start_single_step(disc32):
    prev = solve_branch(1.0, grid=disc32, tol=1e-8)
    bp = solve_branch(1.05, grid=disc32, tol=1e-8, start=prev)
    assert bp.lam == pytest.approx(1.05)
    assert bp.sup_norm == pytest.approx(branch_sup_norm_disc(1.05), rel=1e-2)


def test_branch_rejects_negative_lam(disc32):
    with pytest.raises(ValueError, match="nonnegative"):
        solve_branch(-0.5, grid=disc32)


def test_branch_warm_start_must_move_forward(disc32):
    prev = solve_branch(1.0, grid=disc32, tol=1e-8)
    with pytest.raises(ValueError, match="increase"):
        solve_branch(0.9, grid=disc32, start=prev)


def test_branch_infeasible_past_critical_value(disc32):
    with pytest.raises(BranchInfeasible):
        solve_branch(2.0, grid=disc32, tol=1e-8, sup_norm_cap=50.0)


def test_branch_scaling_pole_guard(disc32):
    prev = solve_branch(1.0, grid=disc32, tol=1e-8)
    with pytest.raises(BranchInfeasible, match="pole"):
        solve_branch(prev.lam + 2.0 / prev.sup_norm, grid=disc32, start=prev)


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


def test_continuation_n1_factors_once(monkeypatch):
    """An n = 1 continuation factors the grid's Laplacian once and runs every
    Newton step by Krylov iterations on that factorization."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("splu", "spsolve"):
        monkeypatch.setattr(dirichlet, name, counted(name, getattr(dirichlet, name)))
    result = continuation(grid=build_grid(Ball(1, 1.0), 1.0 / 64), tol=1e-8)
    assert calls == ["splu"]
    assert all(p.report.krylov_iterations > 0 for p in result.branch[1:])
    assert result.branch[0].report.krylov_iterations == 0  # the frozen lam = 0 solve


def test_continuation_n2_reuses_newton_lu(monkeypatch):
    """An n = 2 continuation factors fewer Jacobians than it takes Newton
    steps, and its per-point Newton counts and lambda_1 are those of the
    one-direct-solve-per-step code."""
    calls = []
    real = dirichlet.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dirichlet, "splu", counted)
    result = continuation(grid=build_grid(Ball(2, 1.0), 0.25), tol=1e-8)
    iterations = [p.report.iterations for p in result.branch]
    # recorded with one spsolve per Newton step
    assert iterations == [0, 4, 4, 5, 6] + [5] * 10
    assert result.lambda1 == pytest.approx(1.6613293062431576, abs=1e-12)
    assert len(calls) == sum(p.report.factorizations for p in result.branch)
    assert 0 < len(calls) < sum(iterations)


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
    ver = verify_eigenpair(disc_result, grid=disc64)
    assert ver.ok, [row for row in ver.rows if not row[3]]
    assert len(ver.rows) == 8


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


def test_continuation_lambda_cap_exhaustion(disc32):
    policy = SchedulePolicy(lambda_cap_factor=1.2)
    with pytest.raises(ScheduleExhausted) as exc:
        continuation(grid=disc32, tol=1e-8, schedule_policy=policy)
    lb = exc.value.lambda_lower_bound
    assert 1.0 <= lb <= 1.2 * 1.0 * (1 + 1e-6)
    assert lb <= LAMBDA1_UNIT_DISC


def test_continuation_threshold_below_start_exhausts(disc32):
    policy = SchedulePolicy(blowup_threshold=0.5)
    with pytest.raises(ScheduleExhausted) as exc:
        continuation(grid=disc32, tol=1e-8, schedule_policy=policy)
    assert exc.value.lambda_lower_bound == pytest.approx(1.0, abs=1e-6)


def test_continuation_point_budget_exhaustion(disc32):
    policy = SchedulePolicy(max_points=3, initial_step=1e-3)
    with pytest.raises(ScheduleExhausted):
        continuation(grid=disc32, tol=1e-8, schedule_policy=policy)


# ------------------------------------------------------------------ dataclass


def test_schedule_policy_validation():
    with pytest.raises(ValueError):
        SchedulePolicy(kappa=0.0)
    with pytest.raises(ValueError):
        SchedulePolicy(kappa=1.0)
    with pytest.raises(ValueError):
        SchedulePolicy(blowup_threshold=0.0)
    with pytest.raises(ValueError):
        SchedulePolicy(fit_points=1)


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
    report = SolveReport(iterations=1, final_residual=0.0, psh_margin=0.0, sup_norm=0.0,
                         grad_sup=0.0, laplacian_sup=0.0, converged=True)
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


# ----------------------------------------------------------- verify_eigenpair


def sampled_bessel_result(grid):
    mode = np.array([disc_eigenmode(x) for x in radii(grid)])
    v = ScalarField.from_interior(grid, mode / np.max(np.abs(mode)))
    fn = density_vector(Constant(1.0), grid, power=grid.n)
    resid = _eigen_residual(v, LAMBDA1_UNIT_DISC, fn, grid)
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
    ver = verify_eigenpair(result, grid=disc64)
    assert ver.ok, [row for row in ver.rows if not row[3]]


def test_verify_row_lookup(disc64):
    ver = verify_eigenpair(sampled_bessel_result(disc64), grid=disc64)
    name, value, bound, ok = ver["normalization"]
    assert name == "normalization" and ok
    with pytest.raises(KeyError):
        ver["no_such_row"]


def test_verify_flags_broken_normalization(disc64):
    good = sampled_bessel_result(disc64)
    bad_field = ScalarField.from_interior(disc64, 0.5 * good.eigenfunction.interior)
    fn = density_vector(Constant(1.0), disc64, power=1)
    resid = _eigen_residual(bad_field, LAMBDA1_UNIT_DISC, fn, disc64)
    bad = EigenResult(
        lambda1=LAMBDA1_UNIT_DISC,
        eigenfunction=bad_field,
        branch=(),
        method=INVERSE_POWER,
        residual=resid,
        residual_tol=good.residual_tol,
        rayleigh_value=LAMBDA1_UNIT_DISC,
    )
    ver = verify_eigenpair(bad, grid=disc64)
    assert not ver.ok
    assert not ver["normalization"][3]


def test_verify_flags_wrong_eigenvalue(disc64):
    good = sampled_bessel_result(disc64)
    fn = density_vector(Constant(1.0), disc64, power=1)
    resid = _eigen_residual(good.eigenfunction, 2.5, fn, disc64)
    bad = EigenResult(
        lambda1=2.5,
        eigenfunction=good.eigenfunction,
        branch=(),
        method=INVERSE_POWER,
        residual=resid,
        residual_tol=good.residual_tol,
        rayleigh_value=2.5,
    )
    ver = verify_eigenpair(bad, grid=disc64)
    assert not ver.ok
    assert not ver["residual"][3]


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
    ver = verify_eigenpair(stale, grid=disc64)
    assert not ver["residual_matches_stored"][3]
