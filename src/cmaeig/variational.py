"""The eigenpair layer below both routes: functionals, Rayleigh quotient,
eigen-residual, result types, and the inverse-power route.

All integrals use the node-centered quadrature with clipped boundary cell
volumes and carry the volume-form weight 2^n n! so that determinant mass and
Lebesgue mass live in the same normalization ((dd^c |z|^2)^n is 2^n n! times
Lebesgue measure); the weight is the single constant `omega_weight`.

For a nonpositive PSH field phi with zero boundary trace,

    energy(phi)   = 1/(n+1) * sum (-phi) * ma_det(phi) * 2^n n! * vol,
    mass(phi, fn) = 1/(n+1) * sum (-phi)^(n+1) * fn * 2^n n! * vol,

with fn = f^n at the interior nodes, and rayleigh = energy/mass estimates
lambda1^n from above.  Both routes finish an `EigenResult` with
`det_and_rayleigh` (one complex Hessian for the determinant and the
quotient) and `eigen_residual`.  `inverse_power` drives a trial field down
the Rayleigh quotient by repeatedly solving the frozen problem det(w_next)
= eta^n (-w)^n f^n and renormalizing.  Like `continuation` (eigenpath,
which builds on this module) it evaluates fn = density_vector(f, grid,
power=n) once; `mass` and `rayleigh` take that fn vector (None: f = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dirichlet import SolveReport, solve_frozen_orbits
from .domain import Constant, density_vector, density_weight, symmetry_orbits
from .errors import (
    DegenerateIterate,
    NotConverged,
    PreconditionViolated,
    ZeroMass,
)
from .hessian import ScalarField, complex_hessian, hessian_at, psh_report, require_psh

__all__ = ["CONTINUATION", "INVERSE_POWER", "BranchPoint", "EigenResult", "check_trial",
           "det_and_rayleigh", "eigen_residual", "energy", "inverse_power", "mass",
           "omega_weight", "rayleigh"]

CONTINUATION = "Continuation"
INVERSE_POWER = "InversePower"


@dataclass(frozen=True)
class BranchPoint:
    """One converged point (lam, u_lam) of the solution branch.

    predictor_fallback: the secant predictor was unusable (nonpositive
    predicted 1/sup_norm, or its solve failed) and the point was solved from
    the scaled subsolution instead.
    """

    lam: float
    sup_norm: float
    u: ScalarField | None
    report: SolveReport
    predictor_fallback: bool = False

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
    fit did not decrease, or "extrapolation_root_below_branch": its root lay
    below the last branch lam; either way lambda1 is that lam).
    rejected_steps holds (exception class name, count) pairs, sorted by
    name, of the continuation steps that failed and were retried with half
    the step.  predictor_fallbacks counts the branch points solved from the
    scaled subsolution because their secant predictor was unusable.
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
    rejected_steps: tuple = ()
    predictor_fallbacks: int = 0

    def __post_init__(self):
        if self.method not in (CONTINUATION, INVERSE_POWER):
            raise ValueError(f"unknown method {self.method!r}")


def omega_weight(n):
    """Mass of (dd^c |z|^2)^n relative to Lebesgue measure: 2^n n!."""
    return 2.0 ** n * math.factorial(n)


def check_trial(phi, name):
    """Raise PreconditionViolated unless phi <= 0, NotPSH unless it is PSH."""
    if float(np.max(phi.interior, initial=0.0)) > 1e-12:
        raise PreconditionViolated(f"{name} must be <= 0")
    require_psh(phi, name=name)


def _integral(orbits, integrand, n):
    """1/(n+1) 2^n n! times the sum of integrand * cell volume over the
    interior nodes, from one value per orbit of `orbits` (dirichlet's
    _Orbits, whose volumes sum each orbit's cell volumes): the one
    quadrature of energy, mass and the routes' Rayleigh quotients.  On the
    trivial group the volumes are the grid's own."""
    return float(np.sum(integrand * orbits.volumes)) * omega_weight(n) / (n + 1)


def _mass(orbits, x, fn, n):
    """I(P x) from the orbit values x and fn = f^n at the representatives."""
    return _integral(orbits, np.maximum(-x, 0.0) ** (n + 1) * fn, n)


def _rayleigh(orbits, x, fn, det, n):
    """The Rayleigh quotient E/I of P x from its orbit values, fn = f^n and
    det, its complex Hessian's determinant, at the representatives."""
    denominator = _mass(orbits, x, fn, n)
    if denominator <= 0.0:
        raise ZeroMass("rayleigh quotient undefined for a zero-mass field")
    return max(_integral(orbits, -x * det, n), 0.0) / denominator


def _eigen_residual(x, lam, fn, det, n):
    """eigen_residual on values: max|det - (lam max(-x, 0))^n fn|."""
    return float(np.max(np.abs(det - (lam * np.maximum(-x, 0.0)) ** n * fn)))


def energy(phi, *, check=True):
    """E(phi) = 1/(n+1) * integral of (-phi) against its determinant mass."""
    if check:
        check_trial(phi, "energy argument")
    grid = phi.grid
    det = complex_hessian(phi).det()
    return max(_integral(symmetry_orbits(grid, None), -phi.interior * det, grid.n), 0.0)


def mass(phi, fn=None, *, check=True):
    """I(phi) = 1/(n+1) * integral of (-phi)^(n+1) against f^n, from fn = f^n
    at the interior nodes (density_vector); None means f = 1."""
    grid = phi.grid
    if check:
        check_trial(phi, "mass argument")
    return _mass(symmetry_orbits(grid, None), phi.interior, density_weight(grid, fn), grid.n)


def det_and_rayleigh(phi, fn=None):
    """(det, quotient): the determinant of phi's complex Hessian at the
    interior nodes and the Rayleigh quotient energy/mass, from one Hessian
    evaluation and with no trial check; fn as for mass."""
    grid = phi.grid
    det = complex_hessian(phi).det()
    return det, _rayleigh(symmetry_orbits(grid, None), phi.interior,
                          density_weight(grid, fn), det, grid.n)


def rayleigh(phi, fn=None, *, check=True):
    """Rayleigh quotient energy/mass, an upper bound for lambda1^n; fn as for
    mass."""
    if check:
        check_trial(phi, "rayleigh argument")
    return det_and_rayleigh(phi, fn)[1]


def eigen_residual(v, lam, fn, det):
    """Sup-norm of det - (lam * max(-v, 0))^n fn, the residual of v in the
    eigen-equation at lam, from fn = f^n and det = complex_hessian(v).det()."""
    return _eigen_residual(v.interior, lam, fn, det, v.grid.n)


def inverse_power(f=Constant(1.0), grid=None, tol=1e-8, max_iters=200):
    """Ground eigenpair by inverse-power iteration on the frozen solver.

    With fn = f^n at the interior nodes (density_vector, evaluated once) and
    w0, the solution of det = fn, normalized, repeat

        eta = rayleigh(w, fn)^(1/n);  w <- solve_frozen(eta^n (-w)^n fn) / sup;

    until the Rayleigh value, the field, and the eigen-equation residual
    (eigen_residual) all settle within tol; one complex Hessian per iterate
    gives its eta, its residual and, as the grid's latest (hessian_at), the
    next frozen solve's start.  Every iterate is invariant under the
    stabilizer of fn, so the orbits of fn are looked up once
    (symmetry_orbits) and the iteration, its solves (solve_frozen_orbits)
    and its functionals run on their orbit values, the integrals on the
    orbits' summed cell volumes.  Once an iterate settles there, its
    residual is taken again on every node, the one EigenResult stores, and
    the iteration stops when that one is within tol too (it differs by
    rounding).  Each iterate is recorded as a BranchPoint
    whose lam is the current eta, whose u is the iterate on every interior
    node and whose report is its frozen solve's, the first point's that of
    w0.  max_iters must be an integer >= 1.  Raises DegenerateIterate when
    an iterate's mass collapses and NotConverged past max_iters.
    """
    if not isinstance(max_iters, (int, np.integer)) or max_iters < 1:
        raise ValueError(f"max_iters must be an integer >= 1: {max_iters!r}")
    n = grid.n
    fn_nodes = density_vector(f, grid, power=n)
    orbits = symmetry_orbits(grid, fn_nodes)
    fn = fn_nodes[orbits.representatives]

    def field(x):
        return ScalarField(grid, orbits.expand(x))

    def quotient(x):  # (det, Rayleigh quotient) of the iterate P x
        det = hessian_at(grid, x, orbits).det()
        return det, _rayleigh(orbits, x, fn, det, n)

    w0, report = solve_frozen_orbits(fn, grid, orbits, tol)
    psh_report(grid, w0, orbits).require("inverse-power start")
    if _mass(orbits, w0, fn, n) < 1e-12:
        raise DegenerateIterate("starting field has vanishing mass")
    w = w0 / float(np.max(np.abs(w0)))
    eta = quotient(w)[1] ** (1.0 / n)
    branch = [BranchPoint(lam=eta, sup_norm=1.0, u=field(w), report=report)]

    for _ in range(max_iters):
        rhs = eta ** n * np.maximum(-w, 0.0) ** n * fn
        w_raw, report = solve_frozen_orbits(rhs, grid, orbits, tol / 10.0, initial=w)
        if _mass(orbits, w_raw, fn, n) < 1e-12:
            raise DegenerateIterate(
                f"iterate mass collapsed below 1e-12 at eta={eta:.6g}"
            )
        w_next = w_raw / float(np.max(np.abs(w_raw)))
        det, value = quotient(w_next)
        eta_next = value ** (1.0 / n)
        field_change = float(np.max(np.abs(w_next - w)))
        residual = _eigen_residual(w_next, eta_next, fn, det, n)
        branch.append(BranchPoint(lam=eta_next, sup_norm=1.0, u=field(w_next),
                                  report=report))
        converged = (
            abs(eta_next - eta) <= tol
            and field_change <= tol
            and residual <= tol
        )
        w, eta = w_next, eta_next
        if converged:
            # the stored residual is the eigenfunction's on every node, which
            # differs from the one at the representatives by rounding
            v = branch[-1].u
            residual = eigen_residual(v, eta, fn_nodes, complex_hessian(v).det())
            if residual <= tol:
                return EigenResult(
                    lambda1=eta,
                    eigenfunction=v,
                    branch=tuple(branch),
                    method=INVERSE_POWER,
                    residual=residual,
                    residual_tol=tol,
                    rayleigh_value=eta ** n,
                )
    raise NotConverged(
        f"inverse-power iteration did not settle in {max_iters} steps "
        f"(eta={eta:.8g})"
    )
