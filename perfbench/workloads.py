"""Benchmark workloads: the problem each one poses, generated from a seed.

A workload is a fixed problem family.  The seed picks one member, so that
no run sees exactly the inputs of another, but every member is the same
problem up to a congruence or a shrink of at most ``SHRINK`` (relative):

* ``disc-n1`` / ``ball-n2`` shrink the radius, R = 1 - delta with
  0 <= delta < SHRINK.  No lattice node lies within SHRINK of the sphere
  except nodes exactly on it, which stay outside, so the grid keeps its
  node set and every seed does the same work.  The oracles scale as 1/R^2.
* ``ellipsoid-n2-bump`` takes one of eight lattice symmetries (which complex
  coordinate carries the long axis, and along which of the four in-plane
  half-axes the bump sits) and shrinks both semi-axes.

Larger jitter is deliberately avoided.  With R = 1 +- 0.02 the default
continuation blow-up threshold (sup|u| > 50, not scale invariant) cuts the
branch one point earlier for some radii, which doubles the continuation's
error (1.5e-4 -> 3.1e-4 at R = 1.013 on the disc) and makes it bimodal
across seeds; at h = 0.2 any shift or rescaling of the 4-ball moves nodes
that sit on the sphere to within rounding of it into the interior.

The seed with value 0 gives the unperturbed problems.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import cmaeig

# First zero of J0 (Abramowitz & Stegun, table 9.5): the unit disc has
# lambda_1 = j01^2 / 4 because det(u_{z zbar}) = Laplacian(u) / 4 at n = 1.
J01 = 2.404825557695773
LAMBDA_UNIT_DISC = J01 ** 2 / 4.0
# Shooting eigenvalue of the unit ball in C^2 (RK4 step 1e-4, bisection
# tolerance 1e-10), copied here so that a change to the package's data files
# cannot move the reference.
LAMBDA_UNIT_BALL_N2 = 1.686593625402

SHRINK = 1e-6
TOL = 1e-8
TOL_DISCRETE = 1e-11  # inverse power giving the ellipsoid's discrete reference


@dataclass(frozen=True)
class Problem:
    """Inputs of one job and the references its answers are checked against.

    lambda_ref: continuum oracle for both grid routes, or None when the
        workload has none and the discrete eigenvalue of the grid (inverse
        power at ``TOL_DISCRETE``) serves instead.
    band: largest relative miss of a grid route against lambda_ref.
    radial_n, radial_R, radial_ref: the shooting-oracle stage and its answer.
    upper_bound / lower_bound: bracket of the continuum eigenvalue that the
        grid routes must also respect (ellipsoid only; see ``_ellipsoid``).
    """

    workload: str
    seed: int
    spec: object
    density: object
    h: float
    lambda_ref: float | None
    lambda_ref_source: str
    band: float
    radial_n: int
    radial_R: float
    radial_ref: float
    discrete_check: bool = False
    upper_bound: float | None = None
    lower_bound: float | None = None

    def describe(self):
        """JSON-ready record of the generated inputs."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "domain": _spec_record(self.spec),
            "density": _density_record(self.density),
            "h": self.h,
            "tol": TOL,
            "lambda_ref": self.lambda_ref,
            "lambda_ref_source": self.lambda_ref_source,
            "radial": {"n": self.radial_n, "R": self.radial_R, "ref": self.radial_ref},
        }


def _spec_record(spec):
    if isinstance(spec, cmaeig.Ball):
        return {"kind": "ball", "n": spec.n, "radius": spec.radius, "center": list(spec.center)}
    return {"kind": "ellipsoid", "axes": list(spec.axes)}


def _density_record(d):
    if isinstance(d, cmaeig.Constant):
        return {"kind": "constant", "value": d.value}
    return {"kind": "bump", "center": list(d.center), "amplitude": d.amplitude, "width": d.width}


def _shrink(rng, seed):
    return 0.0 if seed == 0 else rng.random() * SHRINK


def _ball(workload, seed, n, h, unit_lambda, source, band):
    rng = random.Random(f"{workload}:{seed}")
    R = 1.0 - _shrink(rng, seed)
    lam = unit_lambda / R ** 2
    return Problem(
        workload=workload, seed=seed, spec=cmaeig.Ball(n, R), density=cmaeig.Constant(1.0),
        h=h, lambda_ref=lam, lambda_ref_source=source, band=band,
        radial_n=n, radial_R=R, radial_ref=lam, discrete_check=(n == 1),
    )


def _ellipsoid(seed):
    """Ellipsoid((1.0, 0.7)) with a unit Gaussian bump 0.3 off-centre, h = 0.25.

    No closed form exists, so both routes are measured against the grid's
    own discrete eigenvalue.  The shooting stage solves the constant-density
    problem: z -> (z1/a1, z2/a2) maps the ellipsoid onto the unit ball and
    scales det by (a1 a2)^2, so lambda(E, f = 1) = LAMBDA_UNIT_BALL_N2 / (a1 a2),
    the eigenvalue of the ball of radius sqrt(a1 a2).  Since 1 <= f <= 2 and
    lambda_1 decreases as f grows, lambda(E, f) lies in
    [lambda(E, 1) / 2, lambda(E, 1)]; the grid value sits about 30 % inside
    either end, far more than its discretization error.
    """
    workload = "ellipsoid-n2-bump"
    rng = random.Random(f"{workload}:{seed}")
    symmetry = 0 if seed == 0 else rng.randrange(8)
    long_axis, half_axis = divmod(symmetry, 4)
    axes = [1.0 - _shrink(rng, seed), 0.7 * (1.0 - _shrink(rng, seed))]
    if long_axis == 1:
        axes.reverse()
    center = [0.0] * 4
    center[2 * long_axis + half_axis // 2] = 0.3 if half_axis % 2 == 0 else -0.3
    R_eff = math.sqrt(axes[0] * axes[1])
    lam_const = LAMBDA_UNIT_BALL_N2 / R_eff ** 2
    return Problem(
        workload=workload, seed=seed, spec=cmaeig.Ellipsoid(tuple(axes)),
        density=cmaeig.GaussianBump(center=tuple(center), amplitude=1.0, width=0.5),
        h=0.25, lambda_ref=None,
        lambda_ref_source=f"discrete: inverse_power at tol={TOL_DISCRETE:g} on the same grid",
        band=0.03, radial_n=2, radial_R=R_eff, radial_ref=lam_const,
        upper_bound=lam_const, lower_bound=lam_const / 2.0,
    )


WORKLOADS = {
    "disc-n1": lambda seed: _ball(
        "disc-n1", seed, 1, 1.0 / 128, LAMBDA_UNIT_DISC,
        "j01^2/(4R^2), j01 = 2.404825557695773", 0.02),
    "ball-n2": lambda seed: _ball(
        "ball-n2", seed, 2, 0.2, LAMBDA_UNIT_BALL_N2,
        "1.686593625402/R^2, RK4 shooting constant of the unit ball in C^2", 0.10),
    "ellipsoid-n2-bump": _ellipsoid,
}
