"""Radial shooting solver for the ball ground-state eigenvalue.

For a radial field u(z) = phi(|z|^2) on the ball B(0, R) in C^n the complex
Hessian has eigenvalues phi' (multiplicity n-1) and phi' + t*phi'' at squared
radius t = |z|^2, so its determinant is phi'^(n-1) * (phi' + t*phi'').  The
ground-state problem det = (lam * (-u))^n with u < 0 inside, u = 0 on the
boundary, therefore reduces to a second-order ODE for phi on [0, R^2], with
the normalization phi(0) = -1:

    phi'' = [lam^n * (-phi)^n / phi'^(n-1) - phi'] / t,   phi(R^2) = 0.

The origin is a regular singular point; a two-term series start removes the
0/0.  `shoot` integrates the ODE with classical fixed-step RK4 and reports
the terminal value phi(R^2).

The substitution s = lam * t removes lam from the ODE: phi(t) = psi(lam * t),
where psi solves the same problem with lam = 1 and psi(0) = -1.  Hence
lam_1(R) = s_0 / R^2 with s_0 the first zero of psi, and `radial_lambda1`
integrates psi once, with `shoot`'s RK4 step and a fixed step length in s,
up to the step that crosses zero, then finds the zero inside that step.  A gradient collapse
(psi' -> 0) before the zero means the profile tops out below zero, and is
reported as VanishingGradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import BracketFailed, VanishingGradient

__all__ = [
    "RadialProfile",
    "frozen_radial_constant",
    "radial_lambda1",
    "radial_profile",
    "radial_rhs",
    "shoot",
]

GRADIENT_FLOOR = 1e-14
# psi's RK4 step and series start in s = lam * t; shoot uses the same
# fractions of R^2 in t.
PSI_STEP = 1e-4
PSI_START = 1e-6
# No zero of psi below s = 160 raises BracketFailed (the widest bracket,
# [1, 160] * R^-2, of the former bracket-and-Brent search).
PSI_ZERO_CAP = 160.0
# Newton inside the crossing step stops once its update is below
# _NEWTON_XTOL * s (a few ulps of s_0); from the chord's zero it takes two
# trials for n = 1 to 6.
_NEWTON_XTOL = 4.0 * 2.0 ** -52
_NEWTON_MAX = 8


def _collapse(dphi, t):
    return VanishingGradient(f"radial gradient {dphi:.3e} at squared radius {t:.6g}")


def radial_rhs(n, lam, t, phi, dphi):
    """Second derivative phi'' at squared radius t from the determinant ODE.

    At t = 0 the regular limit -n * lam^2 * (-phi) / (n + 1), obtained by
    balancing the series phi = phi(0) + lam*(-phi(0))*t + O(t^2), is returned.
    Raises VanishingGradient when dphi falls to the floor where the
    phi'^(1-n) factor is meaningless.
    """
    if dphi <= GRADIENT_FLOOR:
        raise _collapse(dphi, t)
    if t <= 0.0:
        return -n * lam * lam * (-phi) / (n + 1)
    return (lam ** n * (-phi) ** n / dphi ** (n - 1) - dphi) / t


def _rk4_step(n, lam_n, t, phi, dphi, h):
    """One classical RK4 step of length h from (t, phi, dphi), t > 0.

    radial_rhs is inlined term for term (the same floating-point operations
    in the same order), with lam_n = lam^n; raises VanishingGradient when the
    gradient of any stage falls to GRADIENT_FLOOR.  Returns (phi, dphi) at
    t + h.
    """
    if dphi <= GRADIENT_FLOOR:
        raise _collapse(dphi, t)
    half = 0.5 * h
    k1p = dphi
    k1d = (lam_n * (-phi) ** n / dphi ** (n - 1) - dphi) / t
    t_mid = t + half
    k2p = dphi + half * k1d
    if k2p <= GRADIENT_FLOOR:
        raise _collapse(k2p, t_mid)
    k2d = (lam_n * (-(phi + half * k1p)) ** n / k2p ** (n - 1) - k2p) / t_mid
    k3p = dphi + half * k2d
    if k3p <= GRADIENT_FLOOR:
        raise _collapse(k3p, t_mid)
    k3d = (lam_n * (-(phi + half * k2p)) ** n / k3p ** (n - 1) - k3p) / t_mid
    k4p = dphi + h * k3d
    if k4p <= GRADIENT_FLOOR:
        raise _collapse(k4p, t + h)
    k4d = (lam_n * (-(phi + h * k3p)) ** n / k4p ** (n - 1) - k4p) / (t + h)
    return (phi + h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0,
            dphi + h * (k1d + 2.0 * k2d + 2.0 * k3d + k4d) / 6.0)


def _series_start(n, lam, delta):
    """(phi, dphi) at t = delta from phi = -1 + lam*t + c2*t^2/2,
    c2 = -n*lam^2/(n+1)."""
    c2 = -n * lam * lam / (n + 1)
    return -1.0 + lam * delta + 0.5 * c2 * delta * delta, lam + c2 * delta


def _check_ball(n, R):
    if n < 1:
        raise ValueError("complex dimension must be >= 1")
    if R <= 0.0:
        raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class RadialProfile:
    """Shooting trajectory (t, phi, dphi) on [0, R^2] for one (n, R, lam)."""

    n: int
    R: float
    lam: float
    t: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray

    @property
    def samples(self):
        """Profile as rows (t, phi(t), phi'(t))."""
        return np.column_stack([self.t, self.phi, self.dphi])


def shoot(n, R, lam, *, record=True):
    """Integrate the radial ODE from the series start to t = R^2.

    Classical RK4 with the fixed step 1e-4 * R^2; the start point
    delta = 1e-6 * R^2 is filled from the two-term series
    phi = -1 + lam*t + c2*t^2/2 with c2 = -n*lam^2/(n+1).  Keeping both delta
    and the step proportional to R^2 makes the discrete trajectory exactly
    covariant under the rescaling (R, lam) -> (1, lam*R^2).

    Returns (terminal value phi(R^2), RadialProfile).  With record=False the
    profile arrays are left empty except for the endpoint.
    """
    _check_ball(n, R)
    if lam <= 0.0:
        raise ValueError("eigenvalue parameter must be positive")
    T = R * R
    step = PSI_STEP * T
    delta = PSI_START * T
    t = delta
    phi, dphi = _series_start(n, lam, delta)
    m = max(1, math.ceil((T - delta) / step))
    h = (T - delta) / m

    if record:
        ts = np.empty(m + 2)
        ps = np.empty(m + 2)
        ds = np.empty(m + 2)
        ts[0], ps[0], ds[0] = 0.0, -1.0, lam
        ts[1], ps[1], ds[1] = t, phi, dphi

    lam_n = lam ** n
    for i in range(m):
        phi, dphi = _rk4_step(n, lam_n, t, phi, dphi, h)
        t = delta + (i + 1) * h
        if record:
            ts[i + 2], ps[i + 2], ds[i + 2] = t, phi, dphi

    if record:
        profile = RadialProfile(n=n, R=R, lam=lam, t=ts, phi=ps, dphi=ds)
    else:
        profile = RadialProfile(
            n=n,
            R=R,
            lam=lam,
            t=np.array([t]),
            phi=np.array([phi]),
            dphi=np.array([dphi]),
        )
    return phi, profile


def radial_lambda1(n, R):
    """Ground eigenvalue of the ball B(0, R) in C^n: s_0 / R^2, where s_0 is
    the first zero of the lam = 1 profile psi (the module docstring derives
    phi(t) = psi(lam * t)).

    psi is integrated once by RK4 with the fixed step PSI_STEP from the
    series start PSI_START until a step ends at psi >= 0.  The zero inside
    that step is found by Newton's method on the partial-step length
    tau in (0, PSI_STEP]: each trial is one RK4 step of length tau from the
    step's start, and its own psi' serves as the derivative.  psi is concave
    where it crosses zero (psi'' = -psi'/s there), so the iterates, started
    from the chord's zero, stay inside the step.

    Raises VanishingGradient if psi' collapses before the zero and
    BracketFailed if psi has no zero below s = PSI_ZERO_CAP.  Returns a
    built-in float.
    """
    _check_ball(n, R)
    s = PSI_START
    psi, dpsi = _series_start(n, 1.0, s)
    k = 0
    while True:
        if s >= PSI_ZERO_CAP:
            raise BracketFailed(
                f"radial profile has no zero below s = lambda * R^2 = {PSI_ZERO_CAP:g}"
            )
        end, dend = _rk4_step(n, 1.0, s, psi, dpsi, PSI_STEP)
        if end >= 0.0:
            break
        k += 1
        s = PSI_START + k * PSI_STEP
        psi, dpsi = end, dend

    tau = PSI_STEP * psi / (psi - end)
    for _ in range(_NEWTON_MAX):
        value, slope = _rk4_step(n, 1.0, s, psi, dpsi, tau)
        delta = value / slope
        tau -= delta
        if abs(delta) <= _NEWTON_XTOL * s:
            break
    return float((s + tau) / (R * R))


def radial_profile(n, R):
    """Eigenpair profile: shoot once more at the eigenvalue radial_lambda1."""
    lam = radial_lambda1(n, R)
    _, profile = shoot(n, R, lam)
    return profile


def frozen_radial_constant(n, R=1.0):
    """Stored shooting eigenvalue for B(0, R) in C^n (regression fixture)."""
    text = (resources.files("cmaeig") / "_data" / "radial_constants.txt").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if int(parts[0]) == n and abs(float(parts[1]) - R) <= 1e-12:
            return float(parts[2])
    raise KeyError(f"no frozen radial constant for n={n}, R={R}")
