"""Named invariant suite: every structural claim the library makes, rechecked.

`run_suite` evaluates each registered invariant on small shipped fixtures and
returns a deterministic table of (invariant, fixture, margin, passed) rows,
sorted by name.  Margins are oriented so that `margin >= 0` iff the row
passes; randomized rows derive their generator from (seed, invariant name),
so the draw for one invariant never depends on which others ran.  All
randomized rows check universally quantified claims, so the pass set is
seed-independent even though the sampled fields are not.
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
    gaveau_value,
    laplacian_matrix,
    random_psh_field,
)
from .radial import radial_lambda1, radial_profile, shoot
from .serialize import branch_to_csv, field_to_csv, read_field, write_field
from .variational import energy, inverse_power, mass, rayleigh

__all__ = [
    "InvariantRow",
    "VerifyReport",
    "available_invariants",
    "run_suite",
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
        lines = [f"{'invariant':38} {'fixture':26} {'margin':>13} result"]
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{r.invariant:38} {r.fixture:26} {r.margin:>13.4e} {status}")
        return "\n".join(lines) + "\n"


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
        return self._get(("radial", n, R), lambda: radial_lambda1(n, R, tol=1e-8))


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
    rows = []
    for label, grid, exact in (
        ("disc h=1/16", fx.disc16, math.pi),
        ("ball n=2 h=0.25", fx.ball4, math.pi ** 2 / 2.0),
    ):
        defect = abs(grid.total_volume() - exact) / exact
        rows.append((label, 0.05 * grid.h - defect, defect <= 0.05 * grid.h))
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


def _eigenfunction_normalization(fx, rng):
    rows = []
    for label, result in (("continuation", fx.cont), ("inverse power", fx.invpow)):
        v = result.eigenfunction
        grid = v.grid
        margin = min(1e-9 - abs(v.sup_norm() - 1.0),
                     -float(v.interior[grid.min_rho_position()]))
        rows.append((f"disc h=1/32, {label}", margin, margin > 0.0))
    return rows


def _method_agreement(fx, rng):
    rel = abs(fx.cont.lambda1 - fx.invpow.lambda1) / fx.invpow.lambda1
    return [("disc h=1/32", 0.03 - rel, rel <= 0.03)]


def _residual_scale_invariance(fx, rng):
    v = fx.cont.eigenfunction
    grid = v.grid
    base = complex_hessian(v).det()
    scale = 1.0 + float(np.max(np.abs(base)))
    err = 0.0
    for theta in (0.5, 2.0):
        scaled = ScalarField(grid, theta * v.interior)
        det = complex_hessian(scaled).det()
        err = max(err, float(np.max(np.abs(det - theta ** grid.n * base))) / scale)
    return [("disc h=1/32", 1e-10 - err, err <= 1e-10)]


def _rayleigh_lower_bound(fx, rng):
    grid = fx.disc16
    floor = 0.95 * fx.cont.lambda1 ** grid.n
    worst = min(rayleigh(random_psh_field(grid, rng)) for _ in range(100))
    return [("disc h=1/16, 100 draws", worst - floor, worst >= floor)]


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


def _inverse_power_fixed_point(fx, rng):
    res = fx.invpow
    return [("disc h=1/32", fx.tol - res.residual, res.residual <= fx.tol)]


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
        quotient = grad_quad(phi) / mass(phi)
        worst = max(worst, abs(quotient - rayleigh(phi)) / rayleigh(phi))
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
    bound = 10.0 * 1e-8  # 10x the root-finding tolerance used by fx.radial
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
        prof = radial_profile(n, 1.0, tol=1e-8)
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
    "branch-monotonicity": _branch_monotonicity,
    "bound-chain": _bound_chain,
    "cell-volume-partition": _cell_volume_partition,
    "comparison-consistency": _comparison_consistency,
    "csv-determinism": _csv_determinism,
    "determinant-loewner-monotonicity": _determinant_loewner_monotonicity,
    "diagnostic-boundedness": _diagnostic_boundedness,
    "dirichlet-quotient-sanity": _dirichlet_quotient_sanity,
    "eigenfunction-normalization": _eigenfunction_normalization,
    "frozen-fixed-point-residual": _frozen_fixed_point_residual,
    "functional-homogeneity": _functional_homogeneity,
    "gaveau-analytic-minimizer": _gaveau_analytic_minimizer,
    "gaveau-upper-bound": _gaveau_upper_bound,
    "grid-refinement-monotonicity": _grid_refinement_monotonicity,
    "hermitian-quadratic-exactness": _hermitian_quadratic_exactness,
    "hermitian-serialization-bitexact": _hermitian_serialization_bitexact,
    "inverse-power-fixed-point": _inverse_power_fixed_point,
    "laplacian-reduction-n1": _laplacian_reduction_n1,
    "method-agreement": _method_agreement,
    "monotone-ordering": _monotone_ordering,
    "monotone-sequence": _monotone_sequence,
    "radial-lower-bound": _radial_lower_bound,
    "radial-profile-convexity": _radial_profile_convexity,
    "radial-scaling-law": _radial_scaling_law,
    "radial-terminal-monotonicity": _radial_terminal_monotonicity,
    "rayleigh-lower-bound": _rayleigh_lower_bound,
    "residual-scale-invariance": _residual_scale_invariance,
    "rho-sign-consistency": _rho_sign_consistency,
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
