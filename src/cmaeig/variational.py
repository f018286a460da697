"""Energy and mass functionals, Rayleigh quotient, and inverse-power route.

All integrals use the node-centered quadrature with clipped boundary cell
volumes and carry the volume-form weight 2^n n! so that determinant mass and
Lebesgue mass live in the same normalization ((dd^c |z|^2)^n is 2^n n! times
Lebesgue measure); the weight is the single constant `omega_weight`.

For a nonpositive PSH field phi with zero boundary trace,

    energy(phi)   = 1/(n+1) * sum (-phi) * ma_det(phi) * 2^n n! * vol,
    mass(phi, fn) = 1/(n+1) * sum (-phi)^(n+1) * fn * 2^n n! * vol,

with fn = f^n at the interior nodes, and rayleigh = energy/mass estimates
lambda1^n from above; `inverse_power` drives a trial field down the Rayleigh
quotient by repeatedly solving the frozen problem det(w_next) =
eta^n (-w)^n f^n and renormalizing, yielding a second,
continuation-independent route to the ground eigenpair.

Like `continuation`, `inverse_power` takes the density spec f and evaluates
fn = density_vector(f, grid, power=n) once; `mass` and `rayleigh` take that
fn vector (None meaning f = 1).
"""

from __future__ import annotations

import math

import numpy as np

from .dirichlet import solve_frozen
from .domain import Constant, density_vector
from .errors import (
    DegenerateIterate,
    NotConverged,
    PreconditionViolated,
    ZeroMass,
)
from .eigenpath import INVERSE_POWER, BranchPoint, EigenResult
from .hessian import ScalarField, complex_hessian, require_psh

__all__ = [
    "check_trial",
    "energy",
    "inverse_power",
    "mass",
    "omega_weight",
    "rayleigh",
]


def omega_weight(n):
    """Mass of (dd^c |z|^2)^n relative to Lebesgue measure: 2^n n!."""
    return 2.0 ** n * math.factorial(n)


def check_trial(phi, name):
    """Raise PreconditionViolated unless phi <= 0, NotPSH unless it is PSH."""
    if float(np.max(phi.interior, initial=0.0)) > 1e-12:
        raise PreconditionViolated(f"{name} must be <= 0")
    require_psh(phi, name=name)


def energy(phi, *, check=True):
    """E(phi) = 1/(n+1) * integral of (-phi) against its determinant mass."""
    grid = phi.grid
    if check:
        check_trial(phi, "energy argument")
    det = complex_hessian(phi).det()
    total = float(np.sum(-phi.interior * det * grid.cell_volume))
    return max(total * omega_weight(grid.n) / (grid.n + 1), 0.0)


def mass(phi, fn=None, *, check=True):
    """I(phi) = 1/(n+1) * integral of (-phi)^(n+1) against f^n, from fn = f^n
    at the interior nodes (density_vector); None means f = 1."""
    grid = phi.grid
    if check:
        check_trial(phi, "mass argument")
    n = grid.n
    if fn is None:
        fn = np.ones(grid.num_interior)
    elif not (isinstance(fn, np.ndarray) and fn.shape == (grid.num_interior,)):
        raise ValueError("fn must be an array of f^n with one value per interior node")
    mphi = np.maximum(-phi.interior, 0.0)
    total = float(np.sum(mphi ** (n + 1) * fn * grid.cell_volume))
    return total * omega_weight(n) / (n + 1)


def rayleigh(phi, fn=None, *, check=True):
    """Rayleigh quotient energy/mass, an upper bound for lambda1^n; fn as for
    mass."""
    denominator = mass(phi, fn, check=check)
    if denominator <= 0.0:
        raise ZeroMass("rayleigh quotient undefined for a zero-mass field")
    return energy(phi, check=False) / denominator


def inverse_power(f=Constant(1.0), grid=None, tol=1e-8, max_iters=200):
    """Ground eigenpair by inverse-power iteration on the frozen solver.

    With fn = f^n at the interior nodes (density_vector, evaluated once) and
    w0, the solution of det = fn, normalized, repeat

        eta = rayleigh(w, fn)^(1/n);  w <- solve_frozen(eta^n (-w)^n fn) / sup;

    until the Rayleigh value, the field, and the eigen-equation residual all
    settle within tol.  Each iterate is recorded as a BranchPoint whose lam
    is the current eta and whose report is its frozen solve's, the first
    point's that of w0.  Raises DegenerateIterate when an iterate's mass
    collapses and NotConverged past max_iters.
    """
    n = grid.n
    fn = density_vector(f, grid, power=n)
    w0, report = solve_frozen(fn, grid, tol)
    check_trial(w0, "inverse-power start")
    if mass(w0, fn, check=False) < 1e-12:
        raise DegenerateIterate("starting field has vanishing mass")
    w = ScalarField(grid, w0.interior / w0.sup_norm())
    eta = rayleigh(w, fn, check=False) ** (1.0 / n)
    branch = [BranchPoint(lam=eta, sup_norm=1.0, u=w, report=report)]

    for _ in range(max_iters):
        rhs = eta ** n * np.maximum(-w.interior, 0.0) ** n * fn
        w_raw, report = solve_frozen(rhs, grid, tol / 10.0, initial=w)
        if mass(w_raw, fn, check=False) < 1e-12:
            raise DegenerateIterate(
                f"iterate mass collapsed below 1e-12 at eta={eta:.6g}"
            )
        w_next = ScalarField(grid, w_raw.interior / w_raw.sup_norm())
        eta_next = rayleigh(w_next, fn, check=False) ** (1.0 / n)
        field_change = float(np.max(np.abs(w_next.interior - w.interior)))
        det = complex_hessian(w_next).det()
        residual = float(np.max(np.abs(
            det - eta_next ** n * np.maximum(-w_next.interior, 0.0) ** n * fn
        )))
        branch.append(BranchPoint(lam=eta_next, sup_norm=1.0, u=w_next,
                                  report=report))
        converged = (
            abs(eta_next - eta) <= tol
            and field_change <= tol
            and residual <= tol
        )
        w, eta = w_next, eta_next
        if converged:
            return EigenResult(
                lambda1=eta,
                eigenfunction=w,
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
