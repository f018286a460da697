"""Energy and mass functionals, Rayleigh quotient, and inverse-power route.

All integrals use the node-centered quadrature with clipped boundary cell
volumes and carry the volume-form weight 2^n n! so that determinant mass and
Lebesgue mass live in the same normalization ((dd^c |z|^2)^n is 2^n n! times
Lebesgue measure); the weight is the single constant `omega_weight`.

For a nonpositive PSH field phi with zero boundary trace,

    energy(phi)  = 1/(n+1) * sum (-phi) * ma_det(phi) * 2^n n! * vol,
    mass(phi, g) = 1/(n+1) * sum (-phi)^(n+1) * g * 2^n n! * vol,

and rayleigh = energy/mass estimates lambda1^n from above; `inverse_power`
drives a trial field down the Rayleigh quotient by repeatedly solving the
frozen problem det(w_next) = eta^n (-w)^n g and renormalizing, yielding a
second, continuation-independent route to the ground eigenpair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dirichlet import solve_frozen
from .domain import density_vector
from .errors import (
    DegenerateIterate,
    NotConverged,
    PreconditionViolated,
    ZeroMass,
)
from .eigenpath import INVERSE_POWER, BranchPoint, EigenResult
from .hessian import ScalarField, complex_hessian, require_psh

__all__ = [
    "FunctionalValue",
    "check_trial",
    "energy",
    "functionals",
    "inverse_power",
    "mass",
    "omega_weight",
    "rayleigh",
]


def omega_weight(n):
    """Mass of (dd^c |z|^2)^n relative to Lebesgue measure: 2^n n!."""
    return 2.0 ** n * math.factorial(n)


@dataclass(frozen=True)
class FunctionalValue:
    """Energy/mass pair with the Rayleigh quotient when mass > 0."""

    energy: float
    mass: float
    rayleigh: Optional[float]

    def __post_init__(self):
        if self.energy < 0 or self.mass < 0:
            raise ValueError("functionals must be nonnegative")
        if (self.rayleigh is None) != (self.mass == 0.0):
            raise ValueError("rayleigh defined exactly when mass > 0")


def _density_values(g, grid):
    """Per-node values of the mass density g = f^n on the interior."""
    if g is None:
        return np.ones(grid.num_interior)
    if isinstance(g, np.ndarray):
        if g.shape != (grid.num_interior,):
            raise ValueError("density array must have one value per interior node")
        return g
    return density_vector(g, grid, power=grid.n)


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


def mass(phi, g=None, *, check=True):
    """I_g(phi) = 1/(n+1) * integral of (-phi)^(n+1) against g."""
    grid = phi.grid
    if check:
        check_trial(phi, "mass argument")
    n = grid.n
    gv = _density_values(g, grid)
    mphi = np.maximum(-phi.interior, 0.0)
    total = float(np.sum(mphi ** (n + 1) * gv * grid.cell_volume))
    return total * omega_weight(n) / (n + 1)


def rayleigh(phi, g=None, *, check=True):
    """Rayleigh quotient energy/mass, an upper bound for lambda1^n."""
    denominator = mass(phi, g, check=check)
    if denominator <= 0.0:
        raise ZeroMass("rayleigh quotient undefined for a zero-mass field")
    return energy(phi, check=False) / denominator


def functionals(phi, g=None):
    """Energy, mass, and (when defined) Rayleigh quotient in one record."""
    e = energy(phi)
    m = mass(phi, g, check=False)
    return FunctionalValue(energy=e, mass=m, rayleigh=(e / m if m > 0.0 else None))


def inverse_power(g=None, grid=None, tol=1e-8, max_iters=200):
    """Ground eigenpair by inverse-power iteration on the frozen solver.

    Starting from w0, the solution of det = g, normalized, repeat

        eta = rayleigh(w)^(1/n);  w <- solve_frozen(eta^n (-w)^n g) / sup;

    until the Rayleigh value, the field, and the eigen-equation residual all
    settle within tol.  Each iterate is recorded as a BranchPoint whose lam
    is the current eta and whose report is its frozen solve's, the first
    point's that of w0.  Raises DegenerateIterate when an iterate's mass
    collapses and NotConverged past max_iters.
    """
    n = grid.n
    gv = _density_values(g, grid)
    w0, report = solve_frozen(gv, grid, tol)
    check_trial(w0, "inverse-power start")
    if mass(w0, gv, check=False) < 1e-12:
        raise DegenerateIterate("starting field has vanishing mass")
    w = ScalarField(grid, w0.interior / w0.sup_norm())
    eta = rayleigh(w, gv, check=False) ** (1.0 / n)
    branch = [BranchPoint(lam=eta, sup_norm=1.0, u=w, report=report)]

    for _ in range(max_iters):
        rhs = eta ** n * np.maximum(-w.interior, 0.0) ** n * gv
        w_raw, report = solve_frozen(rhs, grid, tol / 10.0, initial=w)
        if mass(w_raw, gv, check=False) < 1e-12:
            raise DegenerateIterate(
                f"iterate mass collapsed below 1e-12 at eta={eta:.6g}"
            )
        w_next = ScalarField(grid, w_raw.interior / w_raw.sup_norm())
        eta_next = rayleigh(w_next, gv, check=False) ** (1.0 / n)
        field_change = float(np.max(np.abs(w_next.interior - w.interior)))
        det = complex_hessian(w_next).det()
        residual = float(np.max(np.abs(
            det - eta_next ** n * np.maximum(-w_next.interior, 0.0) ** n * gv
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
