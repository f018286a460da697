"""Independent ground-truth values for the test suite.

Everything in this module is computed from first principles with the standard
library only: a Bessel J0 power series with bisection for its first zero,
closed-form integrals on the unit disc/ball, and closed-form solutions of the
n=1 radial problems used to cross-check the grid solvers.  Nothing here imports
the package under test, and nothing uses scipy.special, so agreement between
the library and these numbers is a genuine two-route check.  The one
reference that needs a library function, the plain RK4 shooting loop, takes
it as an argument.

Conventions used throughout the oracles:

* n = 1 reduction: det(u_{z zbar}) = Laplacian(u)/4, so the eigenvalue problem
  on the unit disc is Laplacian(u) = -4*lambda*u, u = 0 on the circle.  Hence
  lambda_1(disc) = j01**2 / 4 with j01 the first zero of J0.
* Radial profiles are written in the t = |z|^2 variable: u(z) = phi(t) with
  phi(0) = -1 at the center and phi(R^2) = 0 on the boundary.
* Mass convention: integrals of det-type quantities carry the weight 2^n * n!
  that converts the determinant against Lebesgue measure into the top wedge
  power of the standard Kaehler form; the closed forms below already include it.
"""

import math

# ---------------------------------------------------------------------------
# Bessel J0 by power series, and its first zero by bisection.
# ---------------------------------------------------------------------------


def bessel_j0(x):
    """J0(x) via the alternating series sum_k (-1)^k (x^2/4)^k / (k!)^2.

    Accurate to ~1e-16 for |x| <= 12, which covers every use in this suite.
    """
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 400):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-18:
            break
    return total


def bisect(f, lo, hi, iters=200):
    """Plain bisection; f(lo) and f(hi) must have opposite signs."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("bisect: no sign change on [%g, %g]" % (lo, hi))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def bessel_j0_first_zero():
    """First positive zero of J0 (J0(2) > 0 > J0(3))."""
    return bisect(bessel_j0, 2.0, 3.0)


# Frozen values; test_oracles.py asserts the functions above reproduce them.
J0_FIRST_ZERO = 2.404825557695773
LAMBDA1_UNIT_DISC = J0_FIRST_ZERO ** 2 / 4.0  # 1.4457964907366961...


# ---------------------------------------------------------------------------
# Closed-form functionals on the unit disc (n = 1) for phi = |z|^2 - 1.
#
# energy = 1/2 * integral (1 - r^2) * 1 * (2 dA)      = pi/2
# mass   = 1/2 * integral (1 - r^2)^2 * (2 dA)        = pi/3
# The weight 2 is 2^n * n! at n = 1; both already include the 1/(n+1) = 1/2.
# ---------------------------------------------------------------------------

DISC_ENERGY_QUAD = math.pi / 2.0
DISC_MASS_QUAD = math.pi / 3.0
DISC_RAYLEIGH_QUAD = DISC_ENERGY_QUAD / DISC_MASS_QUAD  # exactly 1.5

# Sobolev-type constant A = (n+1)*(n+1)!*||phi0||^n on the unit disc with
# g == 1: phi0 = |z|^2 - 1, ||phi0|| = 1, so A = 2 * 2 = 4.
SOBOLEV_A_UNIT_DISC = 4.0

# Blocki inequality, u = v = |z|^2 - 1 on the unit disc:
# LHS = integral (1-r^2)^2 * (2 dA) = 2*pi/3,  RHS = 2! * 1 * integral (1-r^2) * (2 dA) = 2*pi.
BLOCKI_DISC_LHS = 2.0 * math.pi / 3.0
BLOCKI_DISC_RHS = 2.0 * math.pi

# Unit-ball volumes (Lebesgue, real dimension 2n) for the cell-volume checks.
DISC_AREA = math.pi
BALL4_VOLUME = math.pi ** 2 / 2.0


# ---------------------------------------------------------------------------
# n = 1 closed-form solutions on the unit disc (f == 1 everywhere).
# ---------------------------------------------------------------------------


def branch_solution_disc(lam, r):
    """Solution of Laplacian(u) = 4(1 - lam*u), u(1) = 0, at radius r.

    u(r) = (1/lam) * (1 - J0(2 sqrt(lam) r) / J0(2 sqrt(lam))) for 0 < lam below
    the blow-up value; for lam = 0 it degenerates to r^2 - 1.
    """
    if lam == 0.0:
        return r * r - 1.0
    k = 2.0 * math.sqrt(lam)
    return (1.0 - bessel_j0(k * r) / bessel_j0(k)) / lam


def branch_sup_norm_disc(lam):
    """Sup norm of the branch solution above (attained at r = 0)."""
    return abs(branch_solution_disc(lam, 0.0))


def halflinear_fixed_point_disc(r):
    """Solution of Laplacian(u) = 4(1 - 0.5*u), u(1) = 0 (lam = 0.5 branch).

    Closed form: u = 2 - 2*J0(sqrt(2) r)/J0(sqrt(2)).
    """
    s = math.sqrt(2.0)
    return 2.0 - 2.0 * bessel_j0(s * r) / bessel_j0(s)


def poisson_quartic_disc(r):
    """Solution of Laplacian(u) = 4*(1.5 - 0.5 r^2), u(1) = 0.

    This is T(v) for v = |z|^2 - 1 under psi = (1 - 0.5 t): the right-hand side
    is 4*(1 - 0.5*(r^2-1)).  Closed form 1.5 r^2 - r^4/8 - 11/8.
    """
    return 1.5 * r * r - 0.125 * r ** 4 - 1.375


def disc_eigenmode(r):
    """Normalized first eigenfunction on the unit disc: u(r) = -J0(j01 * r).

    Satisfies Laplacian(u) = -4*lambda1*u, u(1) = 0, u(0) = -1, sup|u| = 1.
    """
    return -bessel_j0(J0_FIRST_ZERO * r)


def quartic_det_disc(r):
    """det of the complex Hessian of u = |z|^4 on the disc: u_{z zbar} = 4 r^2."""
    return 4.0 * r * r


# ---------------------------------------------------------------------------
# Reference radial shooting loop.
# ---------------------------------------------------------------------------


def reference_shoot(rhs, n, R, lam, step=None, record=True):
    """The radial shooting integration written plainly: classical RK4 that
    calls rhs(n, lam, t, phi, dphi) (the library's radial_rhs) at each of its
    four stages, from the same series start and with the same fixed step as
    cmaeig.radial.shoot.

    Returns (terminal phi(R^2), t, phi, dphi); with record=False the arrays
    hold only the endpoint.  Exceptions raised by rhs propagate.
    """
    T = R * R
    if step is None:
        step = 1e-4 * T
    delta = 1e-6 * T
    c2 = -n * lam * lam / (n + 1)
    t = delta
    phi = -1.0 + lam * delta + 0.5 * c2 * delta * delta
    dphi = lam + c2 * delta
    m = max(1, math.ceil((T - delta) / step))
    h = (T - delta) / m
    ts, ps, ds = [0.0, t], [-1.0, phi], [lam, dphi]
    for i in range(m):
        k1p = dphi
        k1d = rhs(n, lam, t, phi, dphi)
        k2p = dphi + 0.5 * h * k1d
        k2d = rhs(n, lam, t + 0.5 * h, phi + 0.5 * h * k1p, k2p)
        k3p = dphi + 0.5 * h * k2d
        k3d = rhs(n, lam, t + 0.5 * h, phi + 0.5 * h * k2p, k3p)
        k4p = dphi + h * k3d
        k4d = rhs(n, lam, t + h, phi + h * k3p, k4p)
        phi += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        dphi += h * (k1d + 2.0 * k2d + 2.0 * k3d + k4d) / 6.0
        t = delta + (i + 1) * h
        if record:
            ts.append(t)
            ps.append(phi)
            ds.append(dphi)
    if not record:
        ts, ps, ds = [t], [phi], [dphi]
    return phi, ts, ps, ds
