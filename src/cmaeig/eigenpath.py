"""Ground-eigenvalue extraction by continuation along the solution branch.

For lam below the critical value the problem det(u_jk) = (1 - lam*u)^n f^n
has a unique nonpositive solution u_lam whose sup-norm grows without bound
as lam approaches the ground eigenvalue from below.  `continuation` walks a
monotone lam schedule with warm starts (a scaled copy of the previous branch
solution is an exact subsolution for the next lam, provided the step times
the sup-norm stays below 1), detects blow-up of the sup-norm, extrapolates
the near-linear decay of 1/sup_norm to its root, and returns the normalized
last branch solution as the eigenfunction.  `solve_branch` exposes a single
branch point; called cold at a lam with no quadratic subsolution it ramps
lam internally from 0.

The normalized field v = u/s at the last branch point satisfies the
perturbed equation det(v) = (1/s - lam*v)^n f^n, so the reported residual
against the true eigen-equation carries an O(1/s) bias; `EigenResult`
records the matching tolerance rather than hiding it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dirichlet import (
    RhsSpec,
    SolveReport,
    quadratic_subsolution,
    solve_frozen,
    solve_nonlinear,
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
from .hessian import ScalarField, complex_hessian, default_psh_tol, is_psh

__all__ = [
    "CONTINUATION",
    "INVERSE_POWER",
    "BranchPoint",
    "EigenResult",
    "EigenVerification",
    "SchedulePolicy",
    "continuation",
    "lower_bound",
    "solve_branch",
    "verify_eigenpair",
]

CONTINUATION = "Continuation"
INVERSE_POWER = "InversePower"

_STEP_FAILURES = (
    BranchInfeasible,
    MonotonicityViolated,
    NewtonStalled,
    NotConverged,
    PreconditionViolated,
)


@dataclass(frozen=True)
class BranchPoint:
    """One converged point (lam, u_lam) of the solution branch."""

    lam: float
    sup_norm: float
    u: Optional[ScalarField]
    report: SolveReport
    outer_steps: int = 1

    def __post_init__(self):
        if self.lam < 0 or self.sup_norm < 0:
            raise ValueError("branch point requires lam >= 0 and sup_norm >= 0")


@dataclass(frozen=True)
class EigenResult:
    """Eigenpair estimate with its branch history and residual contract.

    residual is the sup-norm of ma_det(u1) - (lambda1 * (-u1))^n * f^n;
    residual_tol is the bound it was accepted against (solver tolerance plus,
    for continuation, the finite-branch bias).  rayleigh_value estimates
    lambda1**n.  flags names every default the route substituted for a
    failed computation ("extrapolation_slope_nonnegative": the 1/sup_norm
    fit did not decrease, so lambda1 is the last branch lam).
    """

    lambda1: float
    eigenfunction: ScalarField
    branch: tuple
    method: str
    residual: float
    residual_tol: float
    rayleigh_value: float
    fit_residual: float = 0.0
    flags: tuple = ()

    def __post_init__(self):
        if self.method not in (CONTINUATION, INVERSE_POWER):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class SchedulePolicy:
    """Adaptive-continuation knobs.

    blowup_threshold: sup-norm at which the branch is declared blown up.
    lambda_cap_factor: schedule aborts past this multiple of the lower bound.
    kappa: cap on step * sup_norm keeping the scaled warm start a subsolution.
    fit_points: trailing branch points entering the 1/sup_norm linear fit.
    initial_step: first lam step (default: quarter of the lower bound).
    """

    blowup_threshold: float = 50.0
    lambda_cap_factor: float = 10.0
    kappa: float = 0.5
    fit_points: int = 4
    initial_step: Optional[float] = None
    max_points: int = 200

    def __post_init__(self):
        if self.blowup_threshold <= 0 or self.kappa <= 0 or self.kappa >= 1:
            raise ValueError("blowup_threshold > 0 and 0 < kappa < 1 required")
        if self.fit_points < 2:
            raise ValueError("need at least two points to extrapolate")


def lower_bound(f=Constant(1.0), grid=None, tol=1e-8):
    """Certified lower bound for the ground eigenvalue: 1/sup|u0|.

    u0 solves det(u_jk) = f^n with zero boundary values; comparison pins
    every branch solution below it, so the branch cannot blow up before
    1/sup|u0|.
    """
    u0, _ = solve_frozen(density_vector(f, grid, power=grid.n), grid, tol)
    s = u0.sup_norm()
    if s <= 0.0:
        raise BranchInfeasible("zero-density problem has no negative solution")
    return 1.0 / s


def _converge_at(lam, rhs, u_start, tol):
    """Converge the branch problem at one value of lam; package a BranchPoint.

    The warm start is a nodewise subsolution, which places Newton's method
    inside its basin: the semilinear equation is linear in the unknown for
    one complex variable and quasimonotone with a log-concave operator
    otherwise, so damped Newton converges superlinearly where the monotone
    sweep would need O(1/gap) passes near the blow-up.
    """
    u, report = solve_nonlinear(rhs, u_start, tol)
    return BranchPoint(
        lam=lam,
        sup_norm=u.sup_norm(),
        u=u,
        report=report,
        outer_steps=max(report.iterations, 1),
    )


def _branch_step(lam_new, f, tol, prev):
    """Advance the branch from `prev` using the scaled warm start.

    For d = lam_new - prev.lam with d * sup_norm < 1, the scaling
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
    C = (1.0 + 100.0 * tol) / (1.0 - shrink)
    u_start = ScalarField.from_interior(prev.u.grid, C * prev.u.interior)
    rhs = RhsSpec.branch(prev.u.grid, lam_new, f)
    return _converge_at(lam_new, rhs, u_start, tol)


def solve_branch(lam, f=Constant(1.0), grid=None, tol=1e-8, start=None,
                 max_ramp=200, sup_norm_cap=1e4):
    """Solve det(u_jk) = (1 - lam*u)^n f^n with zero boundary values.

    With `start` (a BranchPoint at a smaller lam) a single warm-started step
    is taken.  Cold, the scaled defining quadratic is used when it dominates;
    otherwise lam is ramped from 0 with warm starts.  A ramp whose sup-norm
    passes sup_norm_cap, or whose steps shrink to nothing, signals that lam
    sits at or beyond the branch's critical value: BranchInfeasible.
    """
    if lam < 0:
        raise ValueError("branch parameter must be nonnegative")
    if start is not None:
        return _branch_step(lam, f, tol, start)

    rhs = RhsSpec.branch(grid, lam, f)
    try:
        u_quad, _ = quadratic_subsolution(grid, rhs)
        return _converge_at(lam, rhs, u_quad, tol)
    except BranchInfeasible:
        if lam == 0.0:
            raise

    current = solve_branch(0.0, f, grid, tol)
    for _ in range(max_ramp):
        if current.lam >= lam:
            return current
        if current.sup_norm > sup_norm_cap:
            raise BranchInfeasible(
                f"branch sup-norm {current.sup_norm:.3e} exceeds the cap "
                f"before lam={lam:.6g}: at or beyond the critical value"
            )
        d = min(lam - current.lam, 0.5 / current.sup_norm)
        if d <= 1e-9 * max(lam, 1.0):
            raise BranchInfeasible(
                f"ramp stalled at lam={current.lam:.6g} approaching the "
                "critical value"
            )
        current = _branch_step(current.lam + d, f, tol, current)
    raise BranchInfeasible(
        f"ramp did not reach lam={lam:.6g} in {max_ramp} steps"
    )


def _extrapolate(branch, fit_points):
    """Root of the least-squares line through (lam, 1/sup_norm) tail points;
    returns (root, fit residual, flags).  A line that does not decrease has
    no root past the branch: the last lam is returned instead, flagged
    "extrapolation_slope_nonnegative"."""
    pts = branch[-fit_points:]
    lams = np.array([p.lam for p in pts])
    inv = np.array([1.0 / p.sup_norm for p in pts])
    slope, intercept = np.polyfit(lams, inv, 1)
    if slope >= 0.0:
        return (float(pts[-1].lam), float(np.max(np.abs(inv - np.mean(inv)))),
                ("extrapolation_slope_nonnegative",))
    root = -intercept / slope
    fit_residual = float(np.max(np.abs(slope * lams + intercept - inv)))
    return float(root), fit_residual, ()


def _eigen_residual(v, lam, fn, grid):
    det = complex_hessian(v).det()
    return float(np.max(np.abs(det - (lam * np.maximum(-v.interior, 0.0)) ** grid.n * fn)))


def continuation(f=Constant(1.0), grid=None, tol=1e-8, schedule_policy=None):
    """Ground eigenpair by branch continuation with blow-up extrapolation.

    Walks lam upward with adaptive steps (halved when a solve needs more
    than twice the median outer iterations or fails, doubled after three
    consecutive easy solves, always capped by kappa/sup_norm), stops once
    the sup-norm passes the blow-up threshold, and estimates lambda1 as the
    root of a linear fit to 1/sup_norm over the trailing branch points.  The
    eigenfunction is the last branch solution normalized to unit sup-norm.

    Raises ScheduleExhausted — carrying the best certified lower bound —
    when no blow-up occurs before the lam cap, the step size collapses, or
    the point budget runs out.
    """
    policy = schedule_policy or SchedulePolicy()
    n = grid.n
    fn = density_vector(f, grid, power=n)
    u0, report0 = solve_frozen(fn, grid, tol)
    s0 = u0.sup_norm()
    if s0 <= 0.0:
        raise BranchInfeasible("zero-density problem has no negative solution")
    lb = 1.0 / s0
    branch = [BranchPoint(lam=0.0, sup_norm=s0, u=u0, report=report0)]
    if s0 > policy.blowup_threshold:
        raise ScheduleExhausted(
            f"sup-norm at lam=0 ({s0:.3g}) already exceeds the blow-up "
            "threshold; raise blowup_threshold to resolve the branch",
            lambda_lower_bound=lb,
        )

    lam_cap = policy.lambda_cap_factor * lb
    step = policy.initial_step if policy.initial_step is not None else 0.25 * lb
    outer_counts = []
    easy_streak = 0

    while branch[-1].sup_norm <= policy.blowup_threshold:
        prev = branch[-1]
        if prev.lam >= lam_cap or len(branch) >= policy.max_points:
            raise ScheduleExhausted(
                f"no blow-up before lam cap {lam_cap:.6g} "
                f"({len(branch)} branch points, sup-norm {prev.sup_norm:.3g})",
                lambda_lower_bound=prev.lam if prev.lam > 0 else lb,
            )
        d = min(step, policy.kappa / prev.sup_norm, lam_cap - prev.lam)
        if d <= 1e-12 * max(lam_cap, 1.0):
            raise ScheduleExhausted(
                f"step size collapsed at lam={prev.lam:.6g}",
                lambda_lower_bound=prev.lam if prev.lam > 0 else lb,
            )
        try:
            point = _branch_step(prev.lam + d, f, tol, prev)
        except _STEP_FAILURES:
            step = d / 2.0
            easy_streak = 0
            if step <= 1e-12 * max(lam_cap, 1.0):
                raise ScheduleExhausted(
                    f"branch solves keep failing near lam={prev.lam:.6g}",
                    lambda_lower_bound=prev.lam if prev.lam > 0 else lb,
                )
            continue
        branch.append(point)
        outer_counts.append(point.outer_steps)
        median = statistics.median(outer_counts)
        if point.outer_steps > 2 * median:
            step = max(d / 2.0, 1e-12)
            easy_streak = 0
        elif point.outer_steps <= median:
            easy_streak += 1
            if easy_streak >= 3:
                step *= 2.0
                easy_streak = 0
        else:
            easy_streak = 0

    last = branch[-1]
    lam1, fit_residual, flags = _extrapolate(branch, policy.fit_points)
    lam1 = max(lam1, last.lam)
    s = last.sup_norm
    v = ScalarField.from_interior(grid, last.u.interior / s)
    residual = _eigen_residual(v, lam1, fn, grid)
    # det(v) = (1/s - last.lam * v)^n f^n up to tol/s^n: bound the distance
    # of that perturbed right-hand side from the eigen one at lam1.
    mv = np.maximum(-v.interior, 0.0)
    bias = np.max(np.abs((1.0 / s + last.lam * mv) ** n - (lam1 * mv) ** n) * fn)
    residual_tol = 1.05 * (tol + float(bias)) + 1e-12

    from .variational import rayleigh

    return EigenResult(
        lambda1=lam1,
        eigenfunction=v,
        branch=tuple(branch),
        method=CONTINUATION,
        residual=residual,
        residual_tol=residual_tol,
        rayleigh_value=rayleigh(v, fn, grid),
        fit_residual=fit_residual,
        flags=flags,
    )


@dataclass(frozen=True)
class EigenVerification:
    """Report-only recheck of an EigenResult: rows (name, value, bound, ok)."""

    rows: tuple

    @property
    def ok(self):
        return all(row[3] for row in self.rows)

    def __getitem__(self, name):
        for row in self.rows:
            if row[0] == name:
                return row
        raise KeyError(name)


def verify_eigenpair(result, f=Constant(1.0), grid=None, tol=None):
    """Recompute the invariants an eigenpair claims; never raises.

    Checks the unit sup-norm normalization, nonpositivity, zero boundary
    trace, the PSH margin, the eigen-equation residual against the declared
    tolerance, negativity at the innermost node, and degree-n homogeneity of
    the residual functional under u -> theta*u.
    """
    v = result.eigenfunction
    grid = v.grid if grid is None else grid
    n = grid.n
    fn = density_vector(f, grid, power=n)
    tol = result.residual_tol if tol is None else tol
    rows = []

    sup = v.sup_norm()
    rows.append(("normalization", sup, 1e-9, abs(sup - 1.0) <= 1e-9))
    vmax = float(np.max(v.interior)) if v.interior.size else 0.0
    rows.append(("nonpositive", vmax, 1e-15, vmax <= 1e-15))
    outside = v.values.copy()
    outside[grid.interior_flat] = 0.0
    trace = float(np.max(np.abs(outside)))
    rows.append(("zero_boundary_trace", trace, 0.0, trace == 0.0))

    psh_ok, psh = is_psh(v)
    margin = default_psh_tol(grid)
    rows.append(("psh_margin", psh.min_eigenvalue, margin, psh_ok))

    residual = _eigen_residual(v, result.lambda1, fn, grid)
    rows.append(("residual", residual, tol, residual <= tol))
    drift = abs(residual - result.residual)
    rows.append(("residual_matches_stored", drift, 1e-12, drift <= 1e-12))

    inner = v.interior[grid.min_rho_position()]
    rows.append(("negative_at_center", float(inner), 0.0, inner < 0.0))

    base_det = complex_hessian(v).det()
    hom_ok = True
    hom_err = 0.0
    for theta in (0.5, 2.0):
        scaled = ScalarField.from_interior(grid, theta * v.interior)
        err = float(np.max(np.abs(complex_hessian(scaled).det() - theta ** n * base_det)))
        hom_err = max(hom_err, err)
        hom_ok &= err <= 1e-10 * theta ** n * (1.0 + float(np.max(np.abs(base_det))))
        r_scaled = _eigen_residual(scaled, result.lambda1, fn, grid)
        hom_ok &= abs(r_scaled - theta ** n * residual) <= 0.1 * theta ** n * max(residual, 1e-15)
    rows.append(("residual_scale_invariance", hom_err, 0.1, bool(hom_ok)))

    return EigenVerification(rows=tuple(rows))
