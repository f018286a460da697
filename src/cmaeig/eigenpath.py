"""Ground-eigenvalue extraction by continuation along the solution branch.

For lam below the critical value the problem det(u_jk) = (1 - lam*u)^n f^n
has a unique nonpositive solution u_lam whose sup-norm grows without bound
as lam approaches the ground eigenvalue from below, like 1/(lambda_1 - lam).
One step-controlled walk (_walk) climbs the branch from its lam = 0 point
(_origin, the solution of det(u_jk) = f^n).  `continuation` walks until the
sup-norm blows up, extrapolates the near-linear decay of 1/sup_norm to its
root, and returns the normalized last branch solution as the eigenfunction.
Each point is solved from a pole-scaled secant predictor of the last two
points: the shape u/sup_norm extrapolated linearly, its amplitude from the
same straight line in 1/sup_norm.  A scaled copy of the previous solution,
an exact subsolution for the next lam provided the step times the sup-norm
stays below 1, starts the first step and is the counted fallback when the
predictor is unusable.  `solve_branch` returns one branch point; where no
multiple of the defining function rho is a subsolution, it takes the same
walk, stopped at lam.

The normalized field v = u/s at the last branch point satisfies the
perturbed equation det(v) = (1/s - lam*v)^n f^n, so the reported residual
against the true eigen-equation carries an O(1/s) bias; `EigenResult`
records the matching tolerance rather than hiding it.  `BranchPoint`,
`EigenResult` and v's determinant, residual and Rayleigh value come from
variational, the eigenpair layer below both routes.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import (
    RhsSpec,
    quadratic_subsolution,
    solve_frozen_orbits,
    solve_nonlinear_orbits,
    symmetry_orbits,
)
from .domain import Constant, density_vector
from .errors import (
    BranchInfeasible,
    MonotonicityViolated,
    NewtonStalled,
    NotConverged,
    PreconditionViolated,
    ScheduleExhausted,
)
from .hessian import ScalarField
from .variational import (
    CONTINUATION, BranchPoint, EigenResult, check_trial, det_and_rayleigh, eigen_residual,
)

__all__ = ["SchedulePolicy", "continuation", "lower_bound", "solve_branch"]

_STEP_FAILURES = (
    BranchInfeasible,
    MonotonicityViolated,
    NewtonStalled,
    NotConverged,
    PreconditionViolated,
)

# Branch walk: first step and lam cap in units of the lower bound 1/sup|u_0|;
# step * sup_norm <= _KAPPA keeps the scaled warm start a subsolution;
# lambda_1 is the root of the line fitted to the last _FIT_POINTS points;
# solve_branch's walk puts lam past the critical value at sup-norm _SUP_NORM_CAP.
_INITIAL_STEP_FACTOR = 0.25
_LAMBDA_CAP_FACTOR = 10.0
_KAPPA = 0.5
_FIT_POINTS = 4
_SUP_NORM_CAP = 1e4


@dataclass(frozen=True)
class SchedulePolicy:
    """Where a branch walk stops.

    blowup_threshold: sup-norm at which the branch is declared blown up.
    max_points: budget of branch points (an integer >= 1), lam = 0 included.
    """

    blowup_threshold: float = 50.0
    max_points: int = 200

    def __post_init__(self):
        if not 0.0 < self.blowup_threshold < np.inf:
            raise ValueError(f"blowup_threshold must be finite and > 0: {self.blowup_threshold!r}")
        if not isinstance(self.max_points, (int, np.integer)) or self.max_points < 1:
            raise ValueError(f"max_points must be an integer >= 1: {self.max_points!r}")


def _point(lam, u, report, grid, orbits):
    """The BranchPoint of the solution with orbit values u on `orbits`."""
    return BranchPoint(lam=lam, sup_norm=float(np.max(np.abs(u))),
                       u=ScalarField(grid, orbits.expand(u)), report=report)


def _origin(fn, grid, tol, orbits):
    """The lam = 0 point of the branch: u0 solving det(u_jk) = f^n with zero
    boundary values, fn = f^n at the interior nodes (density_vector), on the
    orbits of fn (symmetry_orbits)."""
    u0, report = solve_frozen_orbits(fn[orbits.representatives], grid, orbits, tol)
    point = _point(0.0, u0, report, grid, orbits)
    if point.sup_norm <= 0.0:
        raise BranchInfeasible("zero-density problem has no negative solution")
    return point


def lower_bound(f=Constant(1.0), grid=None, tol=1e-8):
    """Certified lower bound for the ground eigenvalue: 1/sup|u0|.

    u0 solves det(u_jk) = f^n with zero boundary values; comparison pins
    every branch solution below it, so the branch cannot blow up before
    1/sup|u0|.
    """
    fn = density_vector(f, grid, power=grid.n)
    return 1.0 / _origin(fn, grid, tol, symmetry_orbits(grid, fn)).sup_norm


def _converge_at(lam, rhs, u_start, tol, orbits):
    """Converge the branch problem at one value of lam from the orbit values
    u_start on `orbits`, the orbits of f^n; package a BranchPoint.

    A nodewise subsolution start places Newton's method inside its basin:
    the semilinear equation is linear in the unknown for one complex
    variable and quasimonotone with a log-concave operator otherwise, so
    damped Newton converges superlinearly where the monotone sweep would
    need O(1/gap) passes near the blow-up.  A predicted start is closer but
    carries no such guarantee; _branch_step falls back when it fails.
    """
    u, report = solve_nonlinear_orbits(rhs, orbits, u_start, tol)
    return _point(lam, u, report, rhs.grid, orbits)


def _secant_start(lam_new, prev, before, orbits):
    """Orbit values on `orbits` of the pole-scaled secant predictor at
    lam_new from the branch points `before` and `prev`, or None when the
    straight line in 1/sup_norm reaches its root by lam_new.

    With r = (lam_new - prev.lam) / (prev.lam - before.lam), the shape
    v = u/sup_norm is extrapolated linearly, v_prev + r (v_prev - v_before),
    and scaled by the amplitude on the line through the two points'
    1/sup_norm, the blow-up model _extrapolate fits; the result is clamped
    to <= 0.
    """
    r = (lam_new - prev.lam) / (prev.lam - before.lam)
    inv = 1.0 / prev.sup_norm + r * (1.0 / prev.sup_norm - 1.0 / before.sup_norm)
    if inv <= 0.0:
        return None
    v_prev = prev.u.interior[orbits.representatives] / prev.sup_norm
    v_before = before.u.interior[orbits.representatives] / before.sup_norm
    return np.minimum((v_prev + r * (v_prev - v_before)) / inv, 0.0)


def _branch_step(lam_new, fn, tol, orbits, prev, before=None):
    """Advance the branch from `prev` (and `before`, the point preceding it)
    on the orbits of fn (symmetry_orbits); fn is f^n at the interior nodes,
    evaluated once by the caller.

    With `before`, the solve starts from the secant predictor
    (_secant_start).  The scaled subsolution C * u_prev is the start of a
    step without `before` and the fallback, marked on the point as
    predictor_fallback, when the predictor is None or its solve raises one
    of _STEP_FAILURES.  For d = lam_new - prev.lam with d * sup_norm < 1,
    C = 1/(1 - d * sup_norm) makes C * u_prev a subsolution at lam_new
    nodewise; a (1 + 100 tol) inflation absorbs the inner-solver slack in
    det(u_prev).
    """
    d = lam_new - prev.lam
    if d < 0:
        raise ValueError("continuation steps must increase lam")
    shrink = d * prev.sup_norm
    if shrink >= 1.0 - 1e-12:
        raise BranchInfeasible(
            f"warm-start step {d:.3e} times sup-norm {prev.sup_norm:.3e} "
            "reaches the subsolution-scaling pole"
        )
    rhs = RhsSpec.branch(prev.u.grid, lam_new, fn)
    if before is not None:
        predicted = _secant_start(lam_new, prev, before, orbits)
        if predicted is not None:
            try:
                return _converge_at(lam_new, rhs, predicted, tol, orbits)
            except _STEP_FAILURES:
                pass
    C = (1.0 + 100.0 * tol) / (1.0 - shrink)
    point = _converge_at(lam_new, rhs, C * prev.u.interior[orbits.representatives], tol, orbits)
    return point if before is None else replace(point, predictor_fallback=True)


def _walk(fn, grid, tol, policy, lam_stop=np.inf):
    """Walk the branch up from _origin; returns (branch, rejected), the
    failed steps counted by exception class.  fn is f^n at the interior
    nodes (density_vector), which every branch point of the walk shares.
    Every solution is invariant under the stabilizer of fn, so its orbits
    are looked up once (symmetry_orbits) and every solve runs on them.

    A failed solve, or one needing more than twice the median Newton count,
    halves the step; three easy solves in a row double it.  Every step is
    capped by _KAPPA/sup_norm and by lam_stop, and the step to lam_stop lands
    on it exactly.  The walk ends once the sup-norm passes
    policy.blowup_threshold or lam reaches lam_stop.  It raises
    ScheduleExhausted, carrying the best certified lower bound, when the
    lam = 0 sup-norm is already past the threshold, or the lam cap, the
    point budget or the step size runs out; the message names which.
    """
    orbits = symmetry_orbits(grid, fn)
    branch = [_origin(fn, grid, tol, orbits)]
    lb = 1.0 / branch[0].sup_norm
    if branch[0].sup_norm > policy.blowup_threshold:
        raise ScheduleExhausted(
            f"sup-norm at lam=0 ({branch[0].sup_norm:.3g}) already exceeds the "
            "blow-up threshold; raise blowup_threshold to resolve the branch",
            lambda_lower_bound=lb,
        )

    lam_cap = _LAMBDA_CAP_FACTOR * lb
    step = _INITIAL_STEP_FACTOR * lb
    newton_counts = []
    easy_streak = 0
    rejected = Counter()

    while branch[-1].sup_norm <= policy.blowup_threshold and branch[-1].lam < lam_stop:
        prev = branch[-1]
        bound = prev.lam if prev.lam > 0 else lb
        if prev.lam >= lam_cap:
            raise ScheduleExhausted(
                f"no blow-up before lam cap {lam_cap:.6g} "
                f"({len(branch)} branch points, sup-norm {prev.sup_norm:.3g})",
                lambda_lower_bound=bound,
            )
        if len(branch) >= policy.max_points:
            raise ScheduleExhausted(f"no blow-up within max_points={policy.max_points} branch "
                                    f"points (sup-norm {prev.sup_norm:.3g})", lambda_lower_bound=bound)
        d = min(step, _KAPPA / prev.sup_norm, lam_cap - prev.lam, lam_stop - prev.lam)
        if d <= 1e-12 * max(lam_cap, 1.0):
            raise ScheduleExhausted(f"step size collapsed at lam={prev.lam:.6g}",
                                    lambda_lower_bound=bound)
        lam_new = lam_stop if d == lam_stop - prev.lam else prev.lam + d
        try:
            point = _branch_step(lam_new, fn, tol, orbits, prev,
                                 branch[-2] if len(branch) > 1 else None)
        except _STEP_FAILURES as exc:
            rejected[type(exc).__name__] += 1
            step = d / 2.0
            easy_streak = 0
            if step <= 1e-12 * max(lam_cap, 1.0):
                raise ScheduleExhausted(
                    f"branch solves keep failing near lam={prev.lam:.6g}",
                    lambda_lower_bound=bound,
                )
            continue
        branch.append(point)
        newton = max(point.report.iterations, 1)
        newton_counts.append(newton)
        median = statistics.median(newton_counts)
        if newton > 2 * median:
            step = max(d / 2.0, 1e-12)
            easy_streak = 0
        elif newton <= median:
            easy_streak += 1
            if easy_streak >= 3:
                step *= 2.0
                easy_streak = 0
        else:
            easy_streak = 0
    return branch, rejected


def solve_branch(lam, f=Constant(1.0), grid=None, tol=1e-8):
    """Solve det(u_jk) = (1 - lam*u)^n f^n with zero boundary values.

    lam = 0 is _origin; a multiple of the defining function rho
    (quadratic_subsolution) is used when one dominates; otherwise the branch
    is walked from 0 with the continuation's step control (_walk), stopped
    at lam.  A walk whose sup-norm passes _SUP_NORM_CAP before lam, or that
    exhausts its schedule, signals that lam sits at or beyond the branch's
    critical value: BranchInfeasible.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"branch parameter must be finite and nonnegative: {lam!r}")
    fn = density_vector(f, grid, power=grid.n)
    orbits = symmetry_orbits(grid, fn)
    if lam == 0.0:
        return _origin(fn, grid, tol, orbits)

    rhs = RhsSpec.branch(grid, lam, fn)
    try:
        u_sub, _ = quadratic_subsolution(grid, rhs)
        return _converge_at(lam, rhs, orbits.restrict(u_sub.interior), tol, orbits)
    except BranchInfeasible:
        pass

    try:
        branch, _ = _walk(fn, grid, tol, SchedulePolicy(blowup_threshold=_SUP_NORM_CAP), lam)
    except ScheduleExhausted as exc:
        raise BranchInfeasible(
            f"branch walk stopped before lam={lam:.6g}: {exc}") from exc
    if branch[-1].lam < lam:
        raise BranchInfeasible(
            f"branch sup-norm {branch[-1].sup_norm:.3e} exceeds the cap "
            f"before lam={lam:.6g}: at or beyond the critical value"
        )
    return branch[-1]


def _extrapolate(branch, fit_points):
    """Root of the least-squares line through (lam, 1/sup_norm) tail points;
    returns (root, fit residual, flags).  A line that does not decrease has
    no root past the branch: the last lam is returned instead, flagged
    "extrapolation_slope_nonnegative"; a root below it, where the branch
    still has solutions, is too, flagged "extrapolation_root_below_branch"."""
    pts = branch[-fit_points:]
    lams = np.array([p.lam for p in pts])
    inv = np.array([1.0 / p.sup_norm for p in pts])
    slope, intercept = np.polyfit(lams, inv, 1)
    if slope >= 0.0:
        return (float(pts[-1].lam), float(np.max(np.abs(inv - np.mean(inv)))),
                ("extrapolation_slope_nonnegative",))
    root = -intercept / slope
    fit_residual = float(np.max(np.abs(slope * lams + intercept - inv)))
    if root < pts[-1].lam:
        return float(pts[-1].lam), fit_residual, ("extrapolation_root_below_branch",)
    return float(root), fit_residual, ()


def continuation(f=Constant(1.0), grid=None, tol=1e-8, schedule_policy=None):
    """Ground eigenpair by branch continuation with blow-up extrapolation.

    Walks lam upward from 0 (_walk) until the sup-norm passes the blow-up
    threshold, and estimates lambda1 as the root of a linear fit to
    1/sup_norm over the trailing branch points.  The eigenfunction is the
    last branch solution normalized to unit sup-norm.  Failed steps are
    counted by exception class in EigenResult.rejected_steps, points whose
    secant predictor was replaced by the scaled subsolution in
    EigenResult.predictor_fallbacks.  Raises ScheduleExhausted as _walk does.
    """
    n = grid.n
    fn = density_vector(f, grid, power=n)
    branch, rejected = _walk(fn, grid, tol, schedule_policy or SchedulePolicy())
    last = branch[-1]
    lam1, fit_residual, flags = _extrapolate(branch, _FIT_POINTS)
    s = last.sup_norm
    v = ScalarField(grid, last.u.interior / s)
    check_trial(v, "continuation eigenfunction")
    det, quotient = det_and_rayleigh(v, fn)
    residual = eigen_residual(v, lam1, fn, det)
    # det(v) = (1/s - last.lam * v)^n f^n up to tol/s^n: bound the distance
    # of that perturbed right-hand side from the eigen one at lam1.
    mv = np.maximum(-v.interior, 0.0)
    bias = np.max(np.abs((1.0 / s + last.lam * mv) ** n - (lam1 * mv) ** n) * fn)
    residual_tol = 1.05 * (tol + float(bias)) + 1e-12
    return EigenResult(
        lambda1=lam1,
        eigenfunction=v,
        branch=tuple(branch),
        method=CONTINUATION,
        residual=residual,
        residual_tol=residual_tol,
        rayleigh_value=quotient,
        fit_residual=fit_residual,
        flags=flags,
        rejected_steps=tuple(sorted(rejected.items())),
        predictor_fallbacks=sum(p.predictor_fallback for p in branch),
    )
