"""Every structural claim the library makes, rechecked in one module.

`run_suite` evaluates each registered invariant on small shipped fixtures and
returns a deterministic table of (invariant, fixture, margin, passed) rows,
sorted by name.  `verify_eigenpair` rechecks the claims of one eigenpair and
reports them in the same rows, and the suite's eigenpair entry carries its
rows for both routes.  `check_sobolev` and `check_blocki` return the margins
of the Sobolev-Poincare and Blocki inequalities for given fields.  Margins
are oriented so that `margin >= 0` iff the row passes; randomized rows
derive their generator from (seed, invariant name), so the draw for one
invariant never depends on which others ran.  All randomized rows check
universally quantified claims, so the pass set is seed-independent even
though the sampled fields are not.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dirichlet import (
    RhsSpec,
    monotone_iteration,
    quadratic_subsolution,
    solve_frozen,
)
from .domain import (
    Ball,
    Constant,
    CustomRho,
    Ellipsoid,
    GaussianBump,
    build_grid,
    density_vector,
    eval_rho,
)
from .eigenpath import continuation, lower_bound, solve_branch
from .errors import VanishingGradient
from .hessian import (
    DualMatrixSet,
    ScalarField,
    complex_hessian,
    default_psh_tol,
    gaveau_value,
    laplacian_matrix,
    random_psh_field,
)
from .radial import radial_lambda1, radial_profile, shoot
from .serialize import branch_to_csv, field_to_csv, read_field, write_field
from .variational import (
    check_trial, eigen_residual, energy, inverse_power, mass, omega_weight, rayleigh,
)

__all__ = [
    "InvariantRow",
    "VerifyReport",
    "available_invariants",
    "check_blocki",
    "check_sobolev",
    "run_suite",
    "sobolev_constant",
    "verify_eigenpair",
]


@dataclass(frozen=True)
class InvariantRow:
    invariant: str
    fixture: str
    margin: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple

    @property
    def ok(self):
        return all(r.passed for r in self.rows)

    def __getitem__(self, name):
        hits = [r for r in self.rows if r.invariant == name]
        if not hits:
            raise KeyError(name)
        return hits

    def table(self):
        width = max([26] + [len(r.fixture) for r in self.rows])
        lines = [f"{'invariant':38} {'fixture':{width}} {'margin':>13} result"]
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{r.invariant:38} {r.fixture:{width}} {r.margin:>13.4e} {status}")
        return "\n".join(lines) + "\n"


def verify_eigenpair(result, f=Constant(1.0), grid=None):
    """Recheck the claims an eigenpair makes; a failed check is a failing
    row, never an exception.

    Returns a VerifyReport with one row per check, fixture result.method:
    unit sup-norm within 1e-9 ("normalization"); nonpositivity, and
    negativity at the innermost node, each beyond the 1e-15 rounding slack
    ("nonpositive", "negative_at_center"); the PSH margin against
    default_psh_tol ("psh_margin"); the eigen-equation residual against
    result.residual_tol ("residual") and against result.residual within
    1e-12 ("residual_matches_stored"); and, under u -> theta*u for theta =
    1/2 and 2, the degree-n homogeneity of the determinant to 1e-10 and of
    the residual to 10 % ("residual_scale_invariance", the worst of the
    four relative tests).  It evaluates three complex Hessians: v's and its
    two multiples'.
    """
    v = result.eigenfunction
    grid = v.grid if grid is None else grid
    n = grid.n
    fn = density_vector(f, grid, power=n)
    hess = complex_hessian(v)
    det = hess.det()
    residual = eigen_residual(v, result.lambda1, fn, det)

    scale = 1.0 + float(np.max(np.abs(det)))
    homogeneity = []
    for theta in (0.5, 2.0):
        t = theta ** n
        scaled = ScalarField(grid, theta * v.interior)
        det_scaled = complex_hessian(scaled).det()
        det_rel = float(np.max(np.abs(det_scaled - t * det))) / (t * scale)
        r_scaled = eigen_residual(scaled, result.lambda1, fn, det_scaled)
        res_rel = abs(r_scaled - t * residual) / (t * max(residual, 1e-15))
        homogeneity += [1e-10 - det_rel, 0.1 - res_rel]

    margins = {
        "normalization": 1e-9 - abs(v.sup_norm() - 1.0),
        "nonpositive": 1e-15 - float(np.max(v.interior)),
        "psh_margin": float(np.min(hess.min_eigenvalue())) + default_psh_tol(grid),
        "residual": result.residual_tol - residual,
        "residual_matches_stored": 1e-12 - abs(residual - result.residual),
        "negative_at_center": -float(v.interior[grid.min_rho_position()]) - 1e-15,
        # np.min, unlike min, propagates NaN, so a NaN test fails the row
        "residual_scale_invariance": float(np.min(homogeneity)),
    }
    return VerifyReport(rows=tuple(
        InvariantRow(name, result.method, float(m), bool(m >= 0.0))
        for name, m in margins.items()))


_INEQUALITY_SLACK = 1e-9  # rounding allowance of both inequality margins


def sobolev_constant(grid, tol=1e-8):
    """A = (n+1) (n+1)! * sup|phi0|^n with phi0 solving det = 1."""
    phi0, _ = solve_frozen(density_vector(Constant(1.0), grid, power=grid.n), grid, tol)
    n = grid.n
    return (n + 1) * math.factorial(n + 1) * phi0.sup_norm() ** n


def check_sobolev(phi, A=None):
    """Margin A * energy + slack - (n+1) * mass of the nonlinear
    Sobolev-Poincare inequality for the unit density, >= 0 iff it holds.

    With A = (n+1) (n+1)! sup|phi0|^n (sobolev_constant, computed from the
    grid when not supplied) the inequality bounds the (n+1)-th moment of
    (-phi) by the energy; it must hold for every nonpositive PSH trial field.
    """
    if A is None:
        A = sobolev_constant(phi.grid)
    n = phi.grid.n
    return A * energy(phi, check=False) + _INEQUALITY_SLACK - (n + 1) * mass(phi)


def check_blocki(u, v):
    """Margin rhs + slack - lhs of Blocki's pairing bound, >= 0 iff it
    holds: the integral lhs of (-u)^(n+1) against det(v) is at most rhs,
    (n+1)! sup|v|^n times the energy integral of u.  Raises unless u and v
    are nonpositive and PSH."""
    grid = u.grid
    n = grid.n
    check_trial(u, "first field")
    check_trial(v, "second field")
    w = omega_weight(n)
    mu = np.maximum(-u.interior, 0.0)
    lhs = float(np.sum(mu ** (n + 1) * complex_hessian(v).det() * grid.cell_volume)) * w
    det_u = complex_hessian(u).det()
    rhs = math.factorial(n + 1) * v.sup_norm() ** n * float(
        np.sum(mu * det_u * grid.cell_volume)
    ) * w
    return rhs + _INEQUALITY_SLACK - lhs


def _rng(seed, name):
    return np.random.default_rng([seed] + list(name.encode("utf-8")))


class _Fixtures:
    """Lazy shared fixtures so expensive solves happen at most once."""

    def __init__(self, seed, tol):
        self.seed = seed
        self.tol = tol
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def disc16(self):
        return self._get("disc16", lambda: build_grid(Ball(1, 1.0), 1.0 / 16))

    @property
    def disc32(self):
        return self._get("disc32", lambda: build_grid(Ball(1, 1.0), 1.0 / 32))

    @property
    def ball4(self):
        return self._get("ball4", lambda: build_grid(Ball(2, 1.0), 0.25))

    @property
    def ellipse(self):
        return self._get("ellipse", lambda: build_grid(Ellipsoid((1.0, 1.5)), 0.25))

    @property
    def cont(self):
        return self._get("cont", lambda: continuation(grid=self.disc32, tol=self.tol))

    @property
    def invpow(self):
        return self._get("invpow",
                         lambda: inverse_power(grid=self.disc32, tol=self.tol))

    def quad(self, grid):
        r2 = np.sum(grid.interior_coords ** 2, axis=1)
        return ScalarField(grid, r2 - 1.0)

    def monotone_run(self):
        def build():
            grid = self.disc16
            rhs = RhsSpec.branch(grid, 0.8)
            start, _ = quadratic_subsolution(grid, rhs)
            iterates = []
            u, history = monotone_iteration(start, rhs, tol=self.tol,
                                            iterate_sink=iterates)
            return grid, rhs, start, u, history, iterates

        return self._get("monotone", build)

    def radial(self, n, R):
        return self._get(("radial", n, R), lambda: radial_lambda1(n, R))


# ---------------------------------------------------------------------------
# Invariant implementations.  Each returns a list of (fixture, margin, passed).
# ---------------------------------------------------------------------------


def _rho_sign_consistency(fx, rng):
    rows = []
    for label, grid in (("disc h=1/16", fx.disc16), ("ball n=2 h=0.25", fx.ball4),
                        ("ellipsoid h=0.25", fx.ellipse)):
        # every interior node lies below the boundary band
        margin = -float(np.max(eval_rho(grid.spec, grid.interior_coords))) - grid.rho_band
        rows.append((label, margin, margin > 0.0))
    return rows


def _grid_refinement_monotonicity(fx, rng):
    coarse, fine = build_grid(Ball(1, 1.0), 1.0 / 8), fx.disc16
    hc = coarse.h
    deep = np.sqrt(np.sum(coarse.interior_coords ** 2, axis=1)) < 1.0 - hc
    missing = 0
    for c in coarse.interior_coords[deep]:
        idx = np.rint((c - fine.lo) / fine.h).astype(int)
        flat = int(np.ravel_multi_index(tuple(idx), fine.shape))
        if fine.classification[flat] != 2:
            missing += 1
    return [("disc h=1/8 -> 1/16", float(-missing), missing == 0)]


def _cell_volume_partition(fx, rng):
    # bounds: about 2.5x the relative defects of the plane-cut weights,
    # 3.9e-5 on the disc and 1.15e-3 on the ball
    rows = []
    for label, grid, exact, bound in (
        ("disc h=1/16", fx.disc16, math.pi, 1e-4),
        ("ball n=2 h=0.25", fx.ball4, math.pi ** 2 / 2.0, 3e-3),
    ):
        defect = abs(grid.total_volume() - exact) / exact
        rows.append((label, bound - defect, defect <= bound))
    return rows


def _hermitian_quadratic_exactness(fx, rng):
    # rho is a Hermitian quadratic plus a pluriharmonic one, minus 1: the
    # field rho vanishes at every crossing, so the one-sided rows are exact too
    b11, b22 = 2.0, 1.5
    re12, im12 = 0.3, 0.1
    coeffs = {  # exponents of (x1, y1, x2, y2)
        (2, 0, 0, 0): b11 + 0.7, (0, 2, 0, 0): b11 - 0.7,  # + 0.7 (x1^2 - y1^2)
        (0, 0, 2, 0): b22, (0, 0, 0, 2): b22,
        (1, 0, 1, 0): 2.0 * re12 + 0.4, (0, 1, 0, 1): 2.0 * re12 - 0.4,  # + 0.4 Re(z1 z2)
        (1, 0, 0, 1): 2.0 * im12, (0, 1, 1, 0): -2.0 * im12,
        (0, 0, 0, 0): -1.0,
    }
    grid = build_grid(CustomRho(2, coeffs, (0.0,) * 4, ((-1.2, 1.2),) * 4), 0.25)
    hess = complex_hessian(ScalarField(grid, grid.rho_interior))
    err = max(
        float(np.max(np.abs(hess.diag[:, 0] - b11))),
        float(np.max(np.abs(hess.diag[:, 1] - b22))),
        float(np.max(np.abs(hess.tri[:, 0] - (re12 + 1j * im12)))),
    )
    return [("quadric n=2 h=0.25", 1e-10 - err, err <= 1e-10)]


def _laplacian_reduction_n1(fx, rng):
    grid = fx.disc16
    L = laplacian_matrix(grid)
    err = 0.0
    for _ in range(3):
        u = random_psh_field(grid, rng)
        det = complex_hessian(u).det()
        err = max(err, float(np.max(np.abs(det - 0.25 * (L @ u.interior)))))
    return [("disc h=1/16, 3 draws", 1e-12 - err, err <= 1e-12)]


def _random_psd(rng, n, singular=False):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if singular:
        z[:, 0] = 0.0
    return z @ z.conj().T


def _gaveau_upper_bound(fx, rng):
    rows = []
    for n in (2, 3):
        duals = DualMatrixSet.sample(n, count=32, seed=fx.seed)
        worst = np.inf
        for k in range(100):
            if k % 2 == 0:
                M = _random_psd(rng, n, singular=True)
                value = gaveau_value(M, duals)
                target = 0.0
            else:
                M = _random_psd(rng, n)
                value = min(float(np.trace(a @ M).real) / n
                            for a in duals.matrices)
                target = float(np.linalg.det(M).real) ** (1.0 / n)
            worst = min(worst, value - target)
        rows.append((f"n={n}, 100 draws", worst + 1e-10, worst >= -1e-10))
    return rows


def _gaveau_analytic_minimizer(fx, rng):
    rows = []
    for n in (2, 3):
        duals = DualMatrixSet.sample(n, count=8, seed=fx.seed + 1)
        err = 0.0
        for _ in range(100):
            M = _random_psd(rng, n)
            target = float(np.linalg.det(M).real) ** (1.0 / n)
            err = max(err, abs(gaveau_value(M, duals) - target))
        rows.append((f"n={n}, 100 draws", 1e-10 - err, err <= 1e-10))
    return rows


def _hermitian_serialization_bitexact(fx, rng):
    grid = fx.ball4
    hess = complex_hessian(fx.quad(grid))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "hess.bin")
        write_field(hess, path)
        back = read_field(path, grid=grid)
    same = np.array_equal(back.diag, hess.diag) and np.array_equal(back.tri, hess.tri)
    return [("ball n=2 h=0.25", 0.0 if same else -1.0, same)]


def _determinant_loewner_monotonicity(fx, rng):
    worst = np.inf
    for _ in range(100):
        M = _random_psd(rng, 2)
        N = M + _random_psd(rng, 2)
        worst = min(worst, float(np.linalg.det(N).real - np.linalg.det(M).real))
    return [("n=2, 100 pairs", worst + 1e-12, worst >= -1e-12)]


def _frozen_fixed_point_residual(fx, rng):
    rows = []
    bump = GaussianBump(center=(0.2, -0.1), amplitude=1.5, width=0.4)
    for label, grid, dens in (
        ("disc h=1/16, bump", fx.disc16, bump),
        ("ball n=2 h=0.25", fx.ball4, Constant(1.0)),
    ):
        _, report = solve_frozen(density_vector(dens, grid, power=grid.n),
                                 grid, fx.tol)
        rows.append((label, fx.tol - report.final_residual,
                     report.final_residual <= fx.tol))
    return rows


def _monotone_ordering(fx, rng):
    _, _, start, u, _, _ = fx.monotone_run()
    above = float(np.min(u.interior - start.interior)) + fx.tol
    below = -float(np.max(u.interior))
    margin = min(above, below)
    return [("disc h=1/16, lam=0.8", margin, margin >= 0.0)]


def _monotone_sequence(fx, rng):
    _, _, _, _, history, _ = fx.monotone_run()
    margin = float(np.min(history)) + 10.0 * fx.tol
    return [("disc h=1/16, lam=0.8", margin, margin >= 0.0)]


def _comparison_consistency(fx, rng):
    grid = fx.disc16
    psi1 = np.ones(grid.num_interior)
    psi2 = psi1 + density_vector(
        GaussianBump(center=(0.0, 0.0), amplitude=1.0, width=0.5), grid)
    u1, _ = solve_frozen(psi1, grid, fx.tol)
    u2, _ = solve_frozen(psi2, grid, fx.tol)
    margin = float(np.min(u1.interior - u2.interior)) + 10.0 * fx.tol
    return [("disc h=1/16", margin, margin >= 0.0)]


def _grad_sup(grid, ui):
    """Largest one-sided difference quotient of a zero-boundary field."""
    worst = 0.0
    for a in range(2 * grid.n):
        for s in (0, 1):
            pos = grid.nbr_ipos[:, a, s]
            theta = grid.theta_axis[:, a, s]
            nbr_vals = np.where(pos >= 0, ui[np.maximum(pos, 0)], 0.0)
            quot = np.abs(nbr_vals - ui) / (theta * grid.h)
            worst = max(worst, float(np.max(quot)))
    return worst


def _diagnostic_boundedness(fx, rng):
    """The a priori gradient and Laplacian bounds (Caffarelli, Kohn, Nirenberg
    & Spruck 1985; B. Guan 1998) along the monotone iteration: no iterate's
    exceeds twice the fifth iterate's."""
    _, _, _, _, _, iterates = fx.monotone_run()
    sups = [(_grad_sup(u.grid, u.interior),
             float(np.max(np.abs(4.0 * np.sum(complex_hessian(u).diag, axis=1)))))
            for u in iterates]
    ref_grad, ref_laplacian = sups[min(4, len(sups) - 1)]
    margin = min(min(2.0 * ref_grad - grad, 2.0 * ref_laplacian - laplacian)
                 for grad, laplacian in sups)
    return [("disc h=1/16, lam=0.8", float(margin), margin >= 0.0)]


def _branch_monotonicity(fx, rng):
    sups = [p.sup_norm for p in fx.cont.branch]
    margin = float(np.min(np.diff(sups))) + 10.0 * fx.tol
    return [("disc h=1/32", margin, margin >= 0.0)]


def _bound_chain(fx, rng):
    lb = lower_bound(grid=fx.disc32, tol=fx.tol)
    margin = min(fx.cont.lambda1 + 1e-3 - lb, fx.invpow.lambda1 + 1e-3 - lb)
    return [("disc h=1/32", margin, margin >= 0.0)]


def _eigenpair_verification(fx, rng):
    return [(f"disc h=1/32, {row.fixture}: {row.invariant}", row.margin, row.passed)
            for result in (fx.cont, fx.invpow)
            for row in verify_eigenpair(result).rows]


def _method_agreement(fx, rng):
    rel = abs(fx.cont.lambda1 - fx.invpow.lambda1) / fx.invpow.lambda1
    return [("disc h=1/32", 0.03 - rel, rel <= 0.03)]


def _rayleigh_lower_bound(fx, rng):
    grid = fx.disc16
    floor = 0.95 * fx.cont.lambda1 ** grid.n
    worst = min(rayleigh(random_psh_field(grid, rng)) for _ in range(100))
    return [("disc h=1/16, 100 draws", worst - floor, worst >= floor)]


def _sobolev_inequality(fx, rng):
    grid = fx.disc16
    A = sobolev_constant(grid, tol=fx.tol)
    worst = min(check_sobolev(random_psh_field(grid, rng), A=A) for _ in range(20))
    return [("disc h=1/16, 20 draws", worst, worst >= 0.0)]


def _blocki_inequality(fx, rng):
    grid = fx.disc16
    worst = min(check_blocki(random_psh_field(grid, rng), random_psh_field(grid, rng))
                for _ in range(20))
    return [("disc h=1/16, 20 pairs", worst, worst >= 0.0)]


def _functional_homogeneity(fx, rng):
    grid = fx.disc16
    phi = fx.quad(grid)
    e0, m0 = energy(phi), mass(phi)
    err = 0.0
    for theta in (0.5, 1.0, 2.0, 10.0):
        scaled = ScalarField(grid, theta * phi.interior)
        p = grid.n + 1
        err = max(err,
                  abs(energy(scaled) - theta ** p * e0) / (theta ** p * e0),
                  abs(mass(scaled) - theta ** p * m0) / (theta ** p * m0))
    return [("disc h=1/16", 1e-12 - err, err <= 1e-12)]


def _dirichlet_quotient_sanity(fx, rng):
    grid = fx.disc16

    def grad_quad(v):
        vals = np.zeros(grid.shape)
        vals.flat[grid.interior_flat] = v.interior
        total = 0.0
        for ax in range(vals.ndim):
            d = np.diff(vals, axis=ax) / grid.h
            total += float(np.sum(d * d))
        return 0.25 * total * grid.h ** vals.ndim

    worst = 0.0
    for _ in range(10):
        phi = random_psh_field(grid, rng)
        quotient, lam = grad_quad(phi) / mass(phi), rayleigh(phi)
        worst = max(worst, abs(quotient - lam) / lam)
    return [("disc h=1/16, 10 draws", 0.1 - worst, worst <= 0.1)]


def _radial_lower_bound(fx, rng):
    rows = []
    for n in (1, 2):
        for R in (0.5, 1.0, 2.0):
            lam = fx.radial(n, R)
            rows.append((f"ball n={n} R={R:g}", lam * R * R - 1.0,
                         lam * R * R >= 1.0))
    return rows


def _radial_scaling_law(fx, rng):
    bound = 1e-15  # lam * R^2 is s_0 for every R; rounding of s_0 / R^2 only
    rows = []
    for n in (1, 2):
        base = fx.radial(n, 1.0)
        worst = max(abs(fx.radial(n, R) * R * R - base) / base
                    for R in (0.5, 2.0))
        rows.append((f"ball n={n}", bound - worst, worst <= bound))
    return rows


def _radial_terminal_monotonicity(fx, rng):
    rows = []
    for n in (1, 2):
        lam1 = fx.radial(n, 1.0)
        terminals = []
        for lam in np.linspace(0.8 * lam1, 1.2 * lam1, 9):
            try:
                terminals.append(shoot(n, 1.0, float(lam), record=False)[0])
            except VanishingGradient:
                terminals.append(np.inf)
        finite = [t for t in terminals if np.isfinite(t)]
        diffs = np.diff(finite)
        margin = float(np.min(diffs)) if diffs.size else 0.0
        rows.append((f"ball n={n}", margin, bool(np.all(diffs > 0.0))))
    return rows


def _radial_profile_convexity(fx, rng):
    rows = []
    for n in (1, 2, 3):
        prof = radial_profile(n, 1.0)
        margin = float(np.min(prof.dphi))
        rows.append((f"ball n={n}", margin, margin > 0.0))
    return rows


def _csv_determinism(fx, rng):
    grid = fx.disc16

    def render():
        u, _ = solve_frozen(np.ones(grid.num_interior), grid, fx.tol)
        points = [solve_branch(lam, grid=grid, tol=fx.tol) for lam in (0.0, 0.5)]
        with tempfile.TemporaryDirectory() as d:
            fp, bp = os.path.join(d, "f.csv"), os.path.join(d, "b.csv")
            field_to_csv(u, fp)
            branch_to_csv(points, bp)
            with open(fp, "rb") as f1, open(bp, "rb") as f2:
                return f1.read(), f2.read()

    same = render() == render()
    return [("disc h=1/16", 0.0 if same else -1.0, same)]


_REGISTRY = {
    "blocki-inequality": _blocki_inequality,
    "branch-monotonicity": _branch_monotonicity,
    "bound-chain": _bound_chain,
    "cell-volume-partition": _cell_volume_partition,
    "comparison-consistency": _comparison_consistency,
    "csv-determinism": _csv_determinism,
    "determinant-loewner-monotonicity": _determinant_loewner_monotonicity,
    "diagnostic-boundedness": _diagnostic_boundedness,
    "dirichlet-quotient-sanity": _dirichlet_quotient_sanity,
    "eigenpair-verification": _eigenpair_verification,
    "frozen-fixed-point-residual": _frozen_fixed_point_residual,
    "functional-homogeneity": _functional_homogeneity,
    "gaveau-analytic-minimizer": _gaveau_analytic_minimizer,
    "gaveau-upper-bound": _gaveau_upper_bound,
    "grid-refinement-monotonicity": _grid_refinement_monotonicity,
    "hermitian-quadratic-exactness": _hermitian_quadratic_exactness,
    "hermitian-serialization-bitexact": _hermitian_serialization_bitexact,
    "laplacian-reduction-n1": _laplacian_reduction_n1,
    "method-agreement": _method_agreement,
    "monotone-ordering": _monotone_ordering,
    "monotone-sequence": _monotone_sequence,
    "radial-lower-bound": _radial_lower_bound,
    "radial-profile-convexity": _radial_profile_convexity,
    "radial-scaling-law": _radial_scaling_law,
    "radial-terminal-monotonicity": _radial_terminal_monotonicity,
    "rayleigh-lower-bound": _rayleigh_lower_bound,
    "rho-sign-consistency": _rho_sign_consistency,
    "sobolev-inequality": _sobolev_inequality,
}


def available_invariants():
    return tuple(sorted(_REGISTRY))


def run_suite(seed=42, tol=1e-8, only: Optional[str] = None):
    """Evaluate the invariant registry; returns a VerifyReport.

    `only` restricts the run to a single named invariant (KeyError when the
    name is unknown).  Rows come back sorted by (invariant, fixture).
    """
    if only is not None and only not in _REGISTRY:
        raise KeyError(f"unknown invariant {only!r}; "
                       f"choose from {', '.join(available_invariants())}")
    fx = _Fixtures(seed, tol)
    rows = []
    for name in available_invariants():
        if only is not None and name != only:
            continue
        for fixture, margin, passed in _REGISTRY[name](fx, _rng(seed, name)):
            rows.append(InvariantRow(invariant=name, fixture=fixture,
                                     margin=float(margin), passed=bool(passed)))
    rows.sort(key=lambda r: (r.invariant, r.fixture))
    return VerifyReport(rows=tuple(rows))
