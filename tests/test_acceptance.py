"""End-to-end acceptance suite: one test per headline claim of the library.

Each test pins a quantitative guarantee -- exact inequalities, oracle
agreement, cross-method consistency, or randomized property suites -- with
the tolerances the library advertises.  Ground truths come from the
independent shooting / series oracles, never from the solvers under test.
"""

import time

import numpy as np
import pytest

from cmaeig.dirichlet import (
    RhsSpec,
    monotone_iteration,
    quadratic_subsolution,
    solve_frozen,
    solve_quasimonotone,
)
from cmaeig.domain import Ball, Constant, GaussianBump, build_grid, density_vector
from cmaeig.eigenpath import continuation, lower_bound
from cmaeig.errors import EigenvalueBoundViolated
from cmaeig.hessian import DualMatrixSet, ScalarField, gaveau_value, random_psh_field
from cmaeig.radial import frozen_radial_constant, radial_lambda1
from cmaeig.variational import inverse_power, rayleigh
from cmaeig.verify import check_blocki, check_sobolev, sobolev_constant

from oracles import LAMBDA1_UNIT_DISC

BUMP = GaussianBump(center=(0.3, 0.0), amplitude=1.0, width=0.5)


# ---------------------------------------------------------------------------
# Shared, memoized heavy artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grids():
    cache = {}

    def get(n=1, R=1.0, h=None):
        key = (n, R, h)
        if key not in cache:
            cache[key] = build_grid(Ball(n, R), h)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def eigen(grids):
    """Memoized (continuation, inverse-power) runner keyed by fixture."""
    cache = {}

    def get(method, n=1, R=1.0, h=None, f=Constant(1.0)):
        key = (method, n, R, h, f)
        if key not in cache:
            grid = grids(n, R, h)
            if method == "cont":
                cache[key] = continuation(f=f, grid=grid, tol=1e-8)
            else:
                cache[key] = inverse_power(f=f, grid=grid, tol=1e-8)
        return cache[key]

    return get


def _frozen_trial(grid, rng):
    """Random nonpositive PSH trial field: scaled solution of det = random
    positive density (certified PSH with zero boundary by construction)."""
    dens = rng.uniform(0.2, 2.0, size=grid.num_interior)
    u, _ = solve_frozen(dens, grid, 1e-8)
    return ScalarField(grid, u.interior * rng.uniform(0.5, 2.0))


@pytest.fixture(scope="module")
def disc_trials(grids):
    rng = np.random.default_rng(42)
    grid = grids(1, 1.0, 1 / 16)
    return [random_psh_field(grid, rng) for _ in range(100)]


@pytest.fixture(scope="module")
def ball4_trials(grids):
    rng = np.random.default_rng(42)
    grid = grids(2, 1.0, 0.25)
    return [_frozen_trial(grid, rng) for _ in range(100)]


# ---------------------------------------------------------------------------
# The twelve acceptance criteria
# ---------------------------------------------------------------------------


def test_c01_ball_eigenvalue_lower_bound_is_exact(eigen):
    """lambda1(B(0,R)) * R^2 >= 1 for R in {0.5, 1, 2}, n in {1, 2}, via both
    the shooting oracle and (n=1) grid continuation; exact, no tolerance."""
    t0 = time.perf_counter()
    for n in (1, 2):
        for R in (0.5, 1.0, 2.0):
            lam = radial_lambda1(n, R)
            assert lam * R * R >= 1.0, f"radial n={n} R={R}: {lam * R * R}"
    for R in (0.5, 1.0, 2.0):
        lam = eigen("cont", n=1, R=R, h=R / 32).lambda1
        assert lam * R * R >= 1.0, f"grid R={R}: {lam * R * R}"
    assert time.perf_counter() - t0 < 60.0


def test_c02_unit_disc_eigenvalue_matches_bessel_oracle(eigen):
    """Both grid routes hit j_{0,1}^2/4 = 1.445796 within 2% at h=1/64; the
    shooting route within 1e-5."""
    t0 = time.perf_counter()
    cont = eigen("cont", h=1 / 64).lambda1
    invp = eigen("ip", h=1 / 64).lambda1
    assert abs(cont - LAMBDA1_UNIT_DISC) / LAMBDA1_UNIT_DISC <= 0.02
    assert abs(invp - LAMBDA1_UNIT_DISC) / LAMBDA1_UNIT_DISC <= 0.02
    assert abs(radial_lambda1(1, 1.0) - LAMBDA1_UNIT_DISC) <= 1e-5
    assert time.perf_counter() - t0 < 300.0


AGREEMENT_FIXTURES = (
    dict(n=1, R=1.0, h=1 / 32, f=Constant(1.0)),
    dict(n=1, R=1.0, h=1 / 64, f=Constant(1.0)),
    dict(n=1, R=2.0, h=1 / 16, f=Constant(1.0)),
    dict(n=1, R=1.0, h=1 / 32, f=Constant(2.0)),
    dict(n=1, R=1.0, h=1 / 32, f=BUMP),
    dict(n=2, R=1.0, h=0.25, f=Constant(1.0)),
)


def test_c03_independent_methods_agree(eigen):
    """Continuation and inverse-power eigenvalues within 3% relative and
    normalized eigenfunctions within 5% sup-norm on every shared fixture."""
    for fx in AGREEMENT_FIXTURES:
        cont, invp = eigen("cont", **fx), eigen("ip", **fx)
        rel = abs(cont.lambda1 - invp.lambda1) / invp.lambda1
        assert rel <= 0.03, f"{fx}: eigenvalues differ by {rel:.2%}"
        a = cont.eigenfunction.interior / cont.eigenfunction.sup_norm()
        b = invp.eigenfunction.interior / invp.eigenfunction.sup_norm()
        if np.dot(a, b) < 0:  # sign alignment (both conventions nonpositive)
            b = -b
        gap = float(np.max(np.abs(a - b)))
        assert gap <= 0.05, f"{fx}: eigenfunctions differ by {gap:.3f} sup"


def test_c04_rayleigh_quotient_infimum(eigen, grids, disc_trials, ball4_trials):
    """Random trial quotients never undercut lambda1^n by more than 5%; the
    eigenfunction's quotient equals lambda1^n within 3%; and the closed-form
    quadratic on the disc gives (pi/2)/(pi/3) = 1.5 within 2% quadrature."""
    for trials, n, R, h in ((disc_trials, 1, 1.0, 1 / 16),
                            (ball4_trials, 2, 1.0, 0.25)):
        result = eigen("cont", n=n, R=R, h=h)
        floor = 0.95 * result.lambda1 ** n
        quotients = [rayleigh(phi) for phi in trials]
        assert len(quotients) >= 100
        assert min(quotients) >= floor, f"n={n}: {min(quotients)} < {floor}"
        eig_q = rayleigh(result.eigenfunction)
        assert abs(eig_q - result.lambda1 ** n) / result.lambda1 ** n <= 0.03

    grid = grids(1, 1.0, 1 / 16)
    r2 = np.sum(grid.interior_coords ** 2, axis=1)
    spot = rayleigh(ScalarField(grid, r2 - 1.0))
    assert abs(spot - 1.5) / 1.5 <= 0.02
    assert spot >= LAMBDA1_UNIT_DISC


CHAIN_FIXTURES = (
    dict(n=1, R=1.0, h=1 / 16, f=Constant(1.0)),
    dict(n=1, R=1.0, h=1 / 32, f=Constant(1.0)),
    dict(n=1, R=1.0, h=1 / 32, f=Constant(2.0)),
    dict(n=1, R=1.0, h=1 / 32, f=BUMP),
    dict(n=1, R=2.0, h=1 / 16, f=Constant(1.0)),
    dict(n=2, R=1.0, h=0.25, f=Constant(1.0)),
)


def test_c05_certified_lower_bound_sits_below_eigenvalue(eigen, grids):
    """1 / sup|u0| with det(u0) = f^n never exceeds the eigenvalue estimate
    (slack 1e-3), including under a non-constant density."""
    for fx in CHAIN_FIXTURES:
        grid = grids(fx["n"], fx["R"], fx["h"])
        lb = lower_bound(f=fx["f"], grid=grid, tol=1e-8)
        lam = eigen("cont", **fx).lambda1
        assert lb <= lam + 1e-3, f"{fx}: lower bound {lb} > estimate {lam}"


def test_c06_eigenvalue_scaling_law(eigen):
    """lambda1(B(0,R)) * R^2 is R-independent: within 2% across the shooting
    route and 5% across grid continuation for R in {0.5, 1, 2}."""
    radial = [radial_lambda1(1, R) * R * R for R in (0.5, 1.0, 2.0)]
    assert max(radial) / min(radial) - 1.0 <= 0.02
    grid_prod = [eigen("cont", n=1, R=R, h=R / 32).lambda1 * R * R
                 for R in (0.5, 1.0, 2.0)]
    assert max(grid_prod) / min(grid_prod) - 1.0 <= 0.05


def test_c07_domain_monotonicity_is_strict(eigen):
    """Shrinking the disc raises the eigenvalue by well over 10%."""
    lam_full = eigen("cont", n=1, R=1.0, h=1 / 32).lambda1
    lam_small = eigen("cont", n=1, R=0.8, h=0.8 / 32).lambda1
    assert lam_small >= 1.10 * lam_full


MONOTONE_FIXTURES = (
    (1 / 8, 0.3, Constant(1.0)),
    (1 / 8, 0.9, Constant(1.0)),
    (1 / 8, 0.3, BUMP),
    (1 / 16, 0.0, Constant(1.0)),
    (1 / 16, 0.2, Constant(1.0)),
    (1 / 16, 0.5, Constant(1.0)),
    (1 / 16, 0.8, Constant(1.0)),
    (1 / 16, 0.95, Constant(1.0)),
    (1 / 16, 0.3, Constant(2.0)),
    (1 / 16, 0.4, BUMP),
)


def test_c08_monotone_iteration_structure(grids):
    """From a checked subsolution, iterates increase nodewise (up to 10*tol,
    enforced by the iterator itself) and the limit stays sandwiched between
    the subsolution and the zero supersolution on ten fixtures."""
    tol = 1e-8
    assert len(MONOTONE_FIXTURES) == 10
    for h, lam, f in MONOTONE_FIXTURES:
        grid = grids(1, 1.0, h)
        rhs = RhsSpec.branch(grid, lam, density_vector(f, grid, power=grid.n))
        # zero is a supersolution: det(0) = 0 <= psi(., 0) nodewise
        assert np.all(rhs.psi(np.zeros(grid.num_interior)) >= 0.0)
        sub, _ = quadratic_subsolution(grid, rhs)
        # require_subsolution re-checks the start; nodewise decreases beyond
        # 10*tol inside the loop raise MonotonicityViolated
        u, history = monotone_iteration(sub, rhs, tol=tol)
        assert len(history) >= 1
        assert np.all(u.interior >= sub.interior - 10 * tol)
        assert np.all(u.interior <= 10 * tol)


def test_c09_inequality_suites_have_zero_failures(grids, disc_trials,
                                                  ball4_trials):
    """Moment and pairing inequalities hold on 50 random fields / pairs per
    fixture."""
    rng = np.random.default_rng(7)
    for grid, trials in ((grids(1, 1.0, 1 / 16), disc_trials),
                         (grids(2, 1.0, 0.25), ball4_trials)):
        fields = trials[:50]
        A = sobolev_constant(grid=grid)
        sobolev = [check_sobolev(phi, A=A) >= 0.0 for phi in fields]
        assert all(sobolev), f"sobolev failures: {sobolev.count(False)}"
        partners = rng.permutation(len(fields))
        blocki = [check_blocki(fields[i], fields[int(j)]) >= 0.0
                  for i, j in enumerate(partners)]
        assert all(blocki), f"blocki failures: {blocki.count(False)}"


def test_c10_dual_determinant_identity():
    """Over 100 random PSD Hermitian matrices (n = 2, 3): the dual infimum
    with the analytic minimizer equals det^{1/n} within 1e-10, and without
    it never falls below det^{1/n}."""
    rng = np.random.default_rng(42)
    for n in (2, 3):
        duals = DualMatrixSet.sample(n, count=32, seed=0)
        for _ in range(100):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            M = z @ z.conj().T
            target = float(np.linalg.det(M).real) ** (1.0 / n)
            assert abs(gaveau_value(M, duals) - target) <= 1e-10
            sampled_only = min(float(np.trace(a @ M).real) / n
                               for a in duals.matrices)
            assert sampled_only >= target


def test_c11_quasimonotone_uniqueness_and_guard(grids, eigen):
    """det = H(., u) with H = 1 + sin(u)/2 (slope bound 1/2 below the
    eigenvalue): three independent initializations land on the same solution
    within 10*tol; declaring a slope bound at/above the eigenvalue estimate
    trips the guard."""
    grid = grids(1, 1.0, 1 / 32)
    lam1 = eigen("cont", n=1, R=1.0, h=1 / 32).lambda1
    rhs = RhsSpec.general(grid, lambda pts, t: 1.0 + 0.5 * np.sin(t),
                          lambda0=0.5)
    u, report = solve_quasimonotone(rhs, lam1, tol=1e-9)
    assert report.converged
    assert "initializations_disagree" not in report.flags
    assert u.sup_norm() > 0

    steep = RhsSpec.general(grid, lambda pts, t: 1.0 + 0.5 * np.sin(t),
                            lambda0=2.0)
    with pytest.raises(EigenvalueBoundViolated):
        solve_quasimonotone(steep, lam1, tol=1e-9)


def test_c12_two_complex_dimensions_cross_validate(eigen):
    """Coarse-grid continuation on the unit ball in C^2 agrees with the
    independently frozen shooting constant within 10%."""
    t0 = time.perf_counter()
    lam_grid = eigen("cont", n=2, R=1.0, h=0.25).lambda1
    lam_ode = frozen_radial_constant(2, 1.0)
    assert abs(lam_grid - lam_ode) / lam_ode <= 0.10
    assert time.perf_counter() - t0 < 1800.0
