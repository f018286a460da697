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
the terminal value phi(R^2), which increases through zero as lam crosses the
ground eigenvalue; `radial_lambda1` brackets that crossing and finds it with
Brent's method (Brent, Algorithms for Minimization without Derivatives,
1973).  A gradient collapse (phi' -> 0) before the boundary means the
profile has passed its first hump, which only happens when lam is too high,
so VanishingGradient is classified as an overshoot; the bracket is bisected
until its upper end is a finite overshoot, since Brent's interpolation needs
finite values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy import optimize

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
    if n < 1:
        raise ValueError("complex dimension must be >= 1")
    if R <= 0.0:
        raise ValueError("ball radius must be positive")
    if lam <= 0.0:
        raise ValueError("eigenvalue parameter must be positive")
    T = R * R
    step = 1e-4 * T
    delta = 1e-6 * T
    c2 = -n * lam * lam / (n + 1)
    t = delta
    phi = -1.0 + lam * delta + 0.5 * c2 * delta * delta
    dphi = lam + c2 * delta
    m = max(1, math.ceil((T - delta) / step))
    h = (T - delta) / m

    if record:
        ts = np.empty(m + 2)
        ps = np.empty(m + 2)
        ds = np.empty(m + 2)
        ts[0], ps[0], ds[0] = 0.0, -1.0, lam
        ts[1], ps[1], ds[1] = t, phi, dphi

    # RK4 with radial_rhs inlined term for term (the same floating-point
    # operations in the same order, so the trajectory is bit-identical); t > 0
    # at every stage, so its t = 0 limit is never needed here.
    lam_n = lam ** n
    half = 0.5 * h
    for i in range(m):
        if dphi <= GRADIENT_FLOOR:
            raise _collapse(dphi, t)
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
        phi += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        dphi += h * (k1d + 2.0 * k2d + 2.0 * k3d + k4d) / 6.0
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


def radial_lambda1(n, R, tol=1e-8):
    """Ground eigenvalue of the ball B(0, R) in C^n by shooting + Brent.

    The terminal value phi(R^2) is negative for lam below the eigenvalue and
    climbs through zero at it; a gradient collapse during integration counts
    as an overshoot.  The bracket starts as [R^-2, 20 R^-2]; if its
    upper end still undershoots it is doubled up to three times before
    BracketFailed.  While the upper end is a collapse (terminal value inf)
    the bracket is bisected; once it is a finite overshoot, Brent's method
    finishes with xtol = tol * R^-2 / 4, so the result lies within
    tol * R^-2 of the sign change (if the bracket narrows to tol * R^-2
    while its upper end is still a collapse, its midpoint is returned).
    Terminal values are memoized by lam, so Brent's re-evaluation of the
    bracket ends costs no shoot, and all of them are audited for
    monotonicity in lam, which is what makes the bracket logic sound.
    """
    if n < 1:
        raise ValueError("complex dimension must be >= 1")
    if R <= 0.0:
        raise ValueError("ball radius must be positive")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0: {tol!r}")
    scale = 1.0 / (R * R)
    samples = {}

    def terminal(lam):
        # memoized: brentq evaluates both bracket ends again
        if lam not in samples:
            try:
                samples[lam], _ = shoot(n, R, lam, record=False)
            except VanishingGradient:
                samples[lam] = math.inf
        return samples[lam]

    lo = scale
    hi = 20.0 * scale
    if terminal(lo) >= 0.0:
        raise BracketFailed(
            f"terminal value at the lower bracket end {lo:.6g} does not "
            "undershoot"
        )
    s_hi = terminal(hi)
    widenings = 0
    while s_hi <= 0.0 and widenings < 3:
        hi *= 2.0
        widenings += 1
        s_hi = terminal(hi)
    if s_hi <= 0.0:
        raise BracketFailed(
            f"terminal value does not change sign on [{lo:.6g}, {hi:.6g}]"
        )

    # Bisect while the upper end is a gradient collapse, then let Brent
    # finish on the finite sign change.
    while math.isinf(s_hi) and hi - lo > tol * scale:
        mid = 0.5 * (lo + hi)
        s_mid = terminal(mid)
        if s_mid >= 0.0:
            hi, s_hi = mid, s_mid
        else:
            lo = mid
    if math.isinf(s_hi):
        lam = 0.5 * (lo + hi)
    else:
        lam = optimize.brentq(terminal, lo, hi, xtol=0.25 * tol * scale)

    values = [value for _, value in sorted(samples.items())]
    for a, b in zip(values, values[1:]):
        if b < a - 1e-10 * (1.0 + abs(a)):
            raise BracketFailed(
                "terminal value is not monotone in lambda across the "
                "root-finding samples"
            )
    return lam


def radial_profile(n, R, tol=1e-8):
    """Eigenpair profile: shoot once more at the root-found eigenvalue."""
    lam = radial_lambda1(n, R, tol)
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
