"""Zero-boundary Dirichlet solvers for det(u_jk) = psi(z, u).

Layering:

* solve_nonlinear   -- damped Newton from a start, in one loop with a halving
  line search: on (1/4) Delta u = psi(., u) for n = 1; for n >= 2 on
  F(u) = log det(M(u) + mu I) - log(psi + mu^n) with a vanishing eigenvalue
  floor mu and a plurisubharmonicity safeguard.  Each equation supplies its
  own Newton step, both by right-preconditioned GMRES: for n = 1 on
  (1/4) L - diag(psi_t) with the grid's cached Laplacian LU, so a grid is
  factored once however many solves run on it; for n >= 2 on the log-det
  Jacobian with the LU of the last Jacobian factored on the grid, refreshed
  (factored anew) only when one short GMRES cycle misses the tolerance.
* solve_frozen      -- psi fixed in u.  For n = 1 one solve with the cached
  LU of the one-sided-difference Laplacian (Delta u = 4 psi); for n >= 2
  the log-det Newton.
* apply_T           -- the inverse operator T(v) = solve_frozen(psi(., v)).
* monotone_iteration-- outer fixed-point iteration u_{j+1} = T(u_j) from a
  subsolution, for psi nonincreasing in u; iterates increase to the solution.
* solve_regularized -- runs the outer iteration for psi + eps^n over a
  decreasing eps schedule with warm starts (psi degenerate at u = 0).
* solve_quasimonotone -- Newton for det = H^n(., u) with dH/dt >= -lambda_0 >
  -lambda_1, certified by restarting from three distinct initializations.

The module is the package's linear-solver seam: splu and gmres are called
here and nowhere else.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, gmres, splu
# Not called: spsolve stays bound here because the benchmark's span table
# (perfbench/spans.py) looks cmaeig.dirichlet.spsolve up by name.
from scipy.sparse.linalg import spsolve  # noqa: F401

from .domain import Constant, eval_density, eval_quadratic, quadratic_defining
from .errors import (
    BranchInfeasible,
    EigenvalueBoundViolated,
    MonotonicityViolated,
    NewtonStalled,
    NotConverged,
    PreconditionViolated,
)
from .hessian import (
    HermitianField,
    ScalarField,
    complex_hessian,
    hessian_operators,
    laplacian_matrix,
    random_psh_field,
    trace_operator,
)

log = logging.getLogger(__name__)

# Discrete analogue of a "strict" subsolution margin when psi degenerates on
# {u = 0}: proportional to the truncation-error scale.
def strict_margin(grid):
    return 100.0 * grid.h ** 2


def default_eps_schedule(start=1e-1, stop=1e-3, ratio=0.5):
    out = []
    e = start
    while e >= stop * (1 - 1e-12):
        out.append(e)
        e *= ratio
    return out


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

NONINCREASING = "nonincreasing"
QUASI = "derivative_bounded_below"

_T_POSITIVE_SLACK = 1e-12


@dataclass
class RhsSpec:
    """psi(z, t) >= 0 for t <= 0, with declared monotonicity metadata.

    kinds: "frozen" (psi = h(z)), "separable" (psi = f^n(z) g(t), with the
    derivative dg = g') and "general" (psi = H(z, t)^n from a closure).
    `shift` carries the eps^n regularization additively.
    """

    grid: object
    kind: str
    monotonicity: str | None = None
    lambda0: float | None = None
    frozen_values: np.ndarray | None = None
    weight: np.ndarray | None = None  # f^n at interior nodes
    g: object | None = None  # scalar factor g(t), vectorized
    dg: object | None = None  # g'(t), vectorized
    H: object | None = None  # H(points, t), vectorized over nodes
    shift: float = 0.0

    # -- constructors --------------------------------------------------

    @classmethod
    def frozen(cls, grid, values):
        vals = values.interior if isinstance(values, ScalarField) else np.asarray(values, float)
        vals = np.broadcast_to(vals, (grid.num_interior,)).astype(float)
        if np.min(vals) < -1e-12:
            raise PreconditionViolated("frozen right-hand side must be >= 0")
        return cls(grid, "frozen", monotonicity=NONINCREASING,
                   frozen_values=np.maximum(vals, 0.0))

    @classmethod
    def branch(cls, grid, lam, density=Constant(1.0)):
        """psi = (1 - lam t)^n f^n: the solution-branch right-hand side."""
        if lam < 0:
            raise ValueError("branch parameter must be nonnegative")
        n = grid.n
        from .domain import density_vector

        fn = density_vector(density, grid, power=n)
        spec = cls(grid, "separable", monotonicity=NONINCREASING, lambda0=lam,
                   weight=fn, g=lambda t: (1.0 - lam * t) ** n,
                   dg=lambda t: -n * lam * (1.0 - lam * t) ** (n - 1))
        spec._spot_check()
        return spec

    @classmethod
    def eigen(cls, grid, lam, density=Constant(1.0)):
        """psi = (-lam t)^n f^n: degenerate at t = 0 (eigenvalue form)."""
        if lam < 0:
            raise ValueError("eigenvalue parameter must be nonnegative")
        n = grid.n
        from .domain import density_vector

        fn = density_vector(density, grid, power=n)
        spec = cls(grid, "separable", monotonicity=NONINCREASING, lambda0=lam,
                   weight=fn, g=lambda t: (-lam * t) ** n,
                   dg=lambda t: -n * lam * (-lam * t) ** (n - 1))
        spec._spot_check()
        return spec

    @classmethod
    def general(cls, grid, H, lambda0=None, nonincreasing=False):
        mono = NONINCREASING if nonincreasing else (QUASI if lambda0 is not None else None)
        spec = cls(grid, "general", monotonicity=mono, lambda0=lambda0, H=H)
        spec._spot_check()
        return spec

    # -- evaluation ----------------------------------------------------

    def _clamp(self, t):
        t = np.broadcast_to(np.asarray(t, float), (self.grid.num_interior,))
        if np.max(t) > _T_POSITIVE_SLACK:
            raise PreconditionViolated(
                f"right-hand side evaluated at t = {np.max(t):.3e} > 0"
            )
        return np.minimum(t, 0.0)

    def psi(self, t):
        t = self._clamp(t)
        if self.kind == "frozen":
            base = self.frozen_values.copy()
        elif self.kind == "separable":
            base = self.weight * self.g(t)
        else:
            base = self.H(self.grid.interior_coords, t) ** self.grid.n
        return base + self.shift

    def psi_t(self, t, delta=1e-6):
        """d psi / dt: 0 for frozen, f^n g'(t) for separable, by central
        differences of width delta for general."""
        if self.kind == "frozen":
            return np.zeros(self.grid.num_interior)
        t = self._clamp(t)
        if self.kind == "separable":
            return self.weight * self.dg(t)
        lo = self.psi(t - delta)
        hi = self.psi(np.minimum(t + delta, 0.0))
        width = np.minimum(t + delta, 0.0) - (t - delta)
        return (hi - lo) / width

    def shifted(self, eps):
        import dataclasses

        return dataclasses.replace(self, shift=self.shift + eps ** self.grid.n)

    def _spot_check(self, samples=5):
        """Validate psi >= 0 and (when declared) monotonicity on a (z, t) sample."""
        rng = np.random.default_rng(0)
        ts = [0.0, -0.25, -1.0, -3.0, -10.0]
        prev = None
        for t0 in reversed(ts):  # increasing t
            vals = self.psi(np.full(self.grid.num_interior, t0))
            if np.min(vals) < -1e-12:
                raise ValueError(f"psi takes negative value {np.min(vals):.3e} at t={t0}")
            if prev is not None and self.monotonicity == NONINCREASING:
                if np.max(vals - prev) > 1e-10 * (1 + np.max(np.abs(prev))):
                    raise ValueError("psi declared nonincreasing in t but increases")
            prev = vals


# ---------------------------------------------------------------------------
# Reports and diagnostics
# ---------------------------------------------------------------------------


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    psh_margin: float
    sup_norm: float
    grad_sup: float
    laplacian_sup: float
    converged: bool
    flags: tuple = ()
    krylov_iterations: int = 0  # GMRES iterations over the Newton steps
    factorizations: int = 0  # Newton Jacobians factored (n >= 2 refreshes)


def _grad_sup(grid, ui):
    """Largest one-sided difference quotient (diagnostic only)."""
    worst = 0.0
    d = 2 * grid.n
    for a in range(d):
        for s in (0, 1):
            pos = grid.nbr_ipos[:, a, s]
            theta = grid.theta_axis[:, a, s]
            nbr_vals = np.where(pos >= 0, ui[np.maximum(pos, 0)], 0.0)
            quot = np.abs(nbr_vals - ui) / (theta * grid.h)
            worst = max(worst, float(np.max(quot)))
    return worst


def _make_report(grid, ui, hess, psi_vals, iterations, converged, flags=(),
                 krylov_iterations=0, factorizations=0):
    det = hess.det()
    res = float(np.max(np.abs(det - psi_vals)))
    return SolveReport(
        iterations=iterations,
        final_residual=res,
        psh_margin=float(np.min(hess.min_eigenvalue())),
        sup_norm=float(np.max(np.abs(ui))),
        grad_sup=_grad_sup(grid, ui),
        laplacian_sup=float(np.max(np.abs(laplacian_matrix(grid) @ ui))),
        converged=converged,
        flags=tuple(flags),
        krylov_iterations=krylov_iterations,
        factorizations=factorizations,
    )


# ---------------------------------------------------------------------------
# Subsolution construction
# ---------------------------------------------------------------------------


def quadratic_subsolution(grid, rhs, extra=0.0, max_iter=80):
    """Scaled defining quadratic t*q with det >= psi(., t*q) + extra nodewise.

    The amplitude is a fixed point of t -> ((max psi(., t q) + extra)
    / det A)^(1/n), found by iterating from below with a geometric-tail
    extrapolation (exact in one cycle when the map is affine in t, as for
    the continuation family).  Right-hand sides growing superlinearly past
    the domain's quadratic threshold make the map non-contractive; no fixed
    point exists and BranchInfeasible is raised.
    """
    n = grid.n
    w, c, off = quadratic_defining(grid.spec)
    detA = float(np.prod(w))
    q = eval_quadratic(w, c, off, grid.interior_coords)

    def amp(s):
        return ((float(np.max(rhs.psi(s * q))) + max(extra, 0.0)) / detA) ** (1.0 / n)

    t = max(amp(0.0), 1e-12)
    for _ in range(max_iter):
        t1 = amp(t)
        if t1 > 1e8:
            raise BranchInfeasible(
                "no scaled quadratic dominates this right-hand side"
            )
        if t1 <= t * (1 + 1e-9):
            t = max(t, t1)
            break
        t2 = amp(t1)
        if t2 > 1e8:
            raise BranchInfeasible(
                "no scaled quadratic dominates this right-hand side"
            )
        ratio = (t2 - t1) / (t1 - t)
        if ratio >= 1.0 - 1e-9:
            raise BranchInfeasible(
                "quadratic amplitude iteration is non-contractive"
            )
        t = t2 + (t2 - t1) * ratio / (1.0 - ratio)
    else:
        raise BranchInfeasible("quadratic amplitude iteration did not settle")
    # One-sided rows only raise the discrete determinant of t*q when q < 0 on
    # the true boundary (jump case); still, verify and bump if a corner node
    # disagrees.
    for _ in range(4):
        u = ScalarField.from_interior(grid, t * q)
        det = complex_hessian(u).det()
        if np.all(det >= rhs.psi(t * q) + extra - 1e-12):
            return u, t
        t *= 1.5
    raise BranchInfeasible("could not certify the quadratic subsolution")


# ---------------------------------------------------------------------------
# Damped Newton
# ---------------------------------------------------------------------------


# GMRES stops on the true residual ||J delta + F|| <= _KRYLOV_RTOL ||F||.
# The residual a step can reach is set by rounding and grows like h^-2:
# along the unit-disc branch at most 1.2e-11, 4.3e-11 and 1.9e-10 at
# h = 1/64, 1/128, 1/256 (a direct solve: up to 2.3e-10 at 1/256), so 1e-10
# is out of reach at 1/256; 1e-9 changes a branch point's Newton count there.
# n = 1 runs at most _KRYLOV_CYCLES cycles of _KRYLOV_RESTART iterations on
# the Laplacian LU (steps take at most 11 iterations on the branch and 19 on
# the steep H = exp(20 t)).  n >= 2 runs one cycle of _REFRESH_RESTART on the
# grid's last Jacobian LU and factors the current Jacobian when that misses:
# on the ellipsoid-n2-bump problem (a frozen solve, a continuation and an
# inverse power, each on a fresh grid) cycles of 6/10/20/30 iterations gave
# 44/25/10/7 factorizations and 1.58/1.49/1.53/1.77 s, the same Newton counts.
_KRYLOV_RTOL = 5e-10
_KRYLOV_RESTART = 50
_KRYLOV_CYCLES = 2
_REFRESH_RESTART = 10


def _factor(A):
    """Sparse LU with minimum degree ordering on A^T + A: less fill than
    the default COLAMD (about half on the Laplacian; on an ellipsoid-n2-bump
    log-det Jacobian 91k against 138k nonzeros, 6.7 against 8.7 ms)."""
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _krylov(J, b, precondition, restart, cycles):
    """Right-preconditioned GMRES on J delta = b: GMRES minimizes the true
    residual of delta = precondition(y), the quantity its stopping test
    measures.  Returns (delta, iterations, converged)."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    y, info = gmres(LinearOperator(J.shape, matvec=lambda v: J @ precondition(v), dtype=float),
                    b, rtol=_KRYLOV_RTOL, atol=0.0, restart=restart,
                    maxiter=cycles, callback=count, callback_type="pr_norm")
    return precondition(y), iterations, info == 0


class _NewtonState(NamedTuple):
    """A Newton form evaluated at u (hess, M, eig: log-det form only)."""

    F: np.ndarray  # residual
    error: float  # stops the iteration once <= tol
    psi: np.ndarray
    hess: HermitianField | None = None
    M: np.ndarray | None = None
    eig: np.ndarray | None = None  # eigenvalues of M + mu I


class _NewtonForm(NamedTuple):
    """One equation for _damped_newton.

    evaluate(u) -> _NewtonState; jacobian(u, state) -> sparse dF/du;
    admissible(u, state) tests the start and every line-search trial, which
    must also lower max|F|; step(u, state) -> (delta, Krylov iterations)
    solves jacobian(u, state) delta = -F; restart(u, state, fnorm, it) may
    return a fresh state in place of a step; factorizations() counts the
    Jacobians the form's steps have factored so far.
    """

    evaluate: object
    jacobian: object
    admissible: object
    step: object
    max_iter: int
    restart: object = None
    factorizations: object = lambda: 0


def _damped_newton(grid, ui, tol, form, state=None, max_backtracks=30):
    """Damped Newton on a residual over interior values; returns (u, report).

    `state`, if given, is form.evaluate(ui) computed by the caller.
    """
    state = form.evaluate(ui) if state is None else state
    if not form.admissible(ui, state):
        raise PreconditionViolated("initial guess is not in the solver's cone")
    krylov = 0
    for it in range(1, form.max_iter + 1):
        if state.error <= tol:
            hess = state.hess if state.hess is not None else _hermitian_from_interior(grid, ui)
            return ui, _make_report(grid, ui, hess, state.psi, it - 1, True,
                                    krylov_iterations=krylov,
                                    factorizations=form.factorizations())
        fnorm = float(np.max(np.abs(state.F)))
        fresh = form.restart(ui, state, fnorm, it) if form.restart else None
        if fresh is not None:
            state = fresh
            continue
        delta, iterations = form.step(ui, state)
        krylov += iterations
        s = 1.0
        for _ in range(max_backtracks):
            trial = ui + s * delta
            t_state = form.evaluate(trial)
            if form.admissible(trial, t_state) and np.max(np.abs(t_state.F)) < fnorm:
                ui, state = trial, t_state
                break
            s *= 0.5
        else:
            raise NewtonStalled(
                f"line search exhausted {max_backtracks} halvings at iteration {it}"
            )
    raise NotConverged(f"Newton did not reach tol={tol} in {form.max_iter} iterations")


def _hermitian_from_interior(grid, ui):
    return complex_hessian(ScalarField.from_interior(grid, ui))


def _logdet_form(grid, rhs, tol):
    """n >= 2: F(u) = log det(M(u) + mu I) - log(psi + mu^n), stopping on the
    true residual max|det M(u) - psi|.  Trials must keep M + mu I positive
    definite and the Hessian above the PSH floor.  When Newton stalls on F
    while the true residual does not fall, the eigenvalue floor mu shrinks
    a hundredfold (at most three times) and the iteration restarts.

    Each step solves J delta = -F by GMRES, right-preconditioned with the LU
    of the last Jacobian factored on this grid (grid._cache["newton_lu"],
    left by any earlier step, solve or branch point).  When there is none,
    or one cycle of _REFRESH_RESTART iterations misses _KRYLOV_RTOL, the
    step factors the current Jacobian, caches that LU and solves with it."""
    n = grid.n
    eye = np.eye(n)
    mu = min(1e-8, tol * 1e-3)
    floor = -10.0 * grid.h ** 2  # PSH safeguard for trials
    shrinks = 0
    last_error = np.inf
    refreshes = 0

    def evaluate(ui, hess=None):
        hess = _hermitian_from_interior(grid, ui) if hess is None else hess
        M = hess.matrices()
        eig = np.linalg.eigvalsh(M + mu * eye)
        psi = rhs.psi(np.minimum(ui, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):  # eig <= 0: inadmissible
            F = np.sum(np.log(eig), axis=1) - np.log(psi + mu ** n)
        error = float(np.max(np.abs(hess.det() - psi)))
        return _NewtonState(F, error, psi, hess, M, eig)

    def jacobian(ui, state):
        J = trace_operator(grid, np.linalg.inv(state.M + mu * eye))
        if rhs.kind != "frozen":
            dpsi = rhs.psi_t(np.minimum(ui, 0.0))
            J = J - sparse.diags(dpsi / (state.psi + mu ** n))
        return J.tocsc()

    def step(ui, state):
        nonlocal refreshes
        J = jacobian(ui, state)
        lu = grid._cache.get("newton_lu")
        iterations = 0
        if lu is not None:
            delta, iterations, converged = _krylov(J, -state.F, lu.solve, _REFRESH_RESTART, 1)
            if converged:
                return delta, iterations
        lu = grid._cache["newton_lu"] = _factor(J)
        refreshes += 1
        return lu.solve(-state.F), iterations

    def admissible(ui, state):
        return np.min(state.eig) > 0 and np.min(state.hess.min_eigenvalue()) >= floor

    def restart(ui, state, fnorm, it):
        nonlocal mu, shrinks, last_error
        stalled = fnorm <= tol * 1e-2 or (
            it > 3 and state.error > 0.95 * last_error and fnorm < tol
        )
        if stalled and shrinks < 3:
            mu *= 0.01
            shrinks += 1
            last_error = np.inf
            return evaluate(ui)
        last_error = state.error
        return None

    return _NewtonForm(evaluate, jacobian, admissible, step, 80, restart,
                       lambda: refreshes)


def _semilinear_form(grid, rhs):
    """n = 1: F(u) = (1/4) Delta u - psi(., u), stopping on max|F|; the
    linearization J = (1/4) L - diag(psi_t) is nonsingular whenever
    psi_t > -lambda_1.  Trials must stay <= 0.

    Each step solves J delta = -F by GMRES, right-preconditioned with the
    grid's cached Laplacian LU (r -> 4 L^-1 r), so a solve factors nothing; a
    step that misses _KRYLOV_RTOL within the budget raises NotConverged."""
    quarter_laplacian = hessian_operators(grid)[0][0]
    lu = _cached_laplacian_lu(grid)

    def precondition(r):
        return 4.0 * lu.solve(r)

    def evaluate(ui):
        psi = rhs.psi(np.minimum(ui, 0.0))
        F = quarter_laplacian @ ui - psi
        return _NewtonState(F, float(np.max(np.abs(F))), psi)

    def jacobian(ui, state):
        return quarter_laplacian - sparse.diags(rhs.psi_t(np.minimum(ui, 0.0)))

    def step(ui, state):
        J = jacobian(ui, state)
        delta, iterations, converged = _krylov(J, -state.F, precondition,
                                               _KRYLOV_RESTART, _KRYLOV_CYCLES)
        if not converged:
            reached = np.linalg.norm(J @ delta + state.F) / np.linalg.norm(state.F)
            raise NotConverged(
                f"GMRES reached relative residual {reached:.3e} (target "
                f"{_KRYLOV_RTOL:g}) after {iterations} iterations"
            )
        return delta, iterations

    def admissible(ui, state):
        return np.max(ui) <= _T_POSITIVE_SLACK

    return _NewtonForm(evaluate, jacobian, admissible, step, 60)


def _newton_solution(grid, start, tol, form, state=None):
    ui, report = _damped_newton(grid, start, tol, form, state)
    return ScalarField.from_interior(grid, np.minimum(ui, 0.0)), report


def solve_nonlinear(rhs, start, tol=1e-8):
    """Solve det(u_jk) = psi(., u) with zero boundary values by damped Newton
    from `start` (a ScalarField or interior values); returns (u, report).

    n = 1 solves the semilinear equation (1/4) Delta u = psi(., u); n >= 2
    first blends the start into the log-det form's cone (_feasible_start).
    """
    grid = rhs.grid
    ui = start.interior if isinstance(start, ScalarField) else np.asarray(start, float)
    if grid.n == 1:
        return _newton_solution(grid, ui, tol, _semilinear_form(grid, rhs))
    ui, hess, flags = _feasible_start(grid, rhs, ui)
    form = _logdet_form(grid, rhs, tol)
    state = None if hess is None else form.evaluate(ui, hess)
    u, report = _newton_solution(grid, ui, tol, form, state)
    report.flags += flags
    return u, report


# ---------------------------------------------------------------------------
# Frozen solver
# ---------------------------------------------------------------------------


def _cached_laplacian_lu(grid):
    if "lap_lu" not in grid._cache:
        grid._cache["lap_lu"] = _factor(laplacian_matrix(grid))
    return grid._cache["lap_lu"]


def solve_frozen(h, grid=None, tol=1e-8, initial=None):
    """Solve det(u_jk) = h(z) with zero boundary values; returns (u, report).

    n = 1 is one solve with the cached Laplacian LU; n >= 2 runs the log-det
    Newton from `initial` or, without one, from the quadratic subsolution.
    """
    if isinstance(h, ScalarField):
        grid = h.grid if grid is None else grid
        h_int = h.interior
    else:
        h_int = np.broadcast_to(np.asarray(h, float), (grid.num_interior,)).astype(float)
    if np.min(h_int) < -1e-12:
        raise PreconditionViolated(
            f"frozen right-hand side must be >= 0 (min {np.min(h_int):.3e})"
        )
    h_int = np.maximum(h_int, 0.0)
    if grid.n == 1:
        lu = _cached_laplacian_lu(grid)
        ui = np.minimum(lu.solve(4.0 * h_int), 0.0)
        hess = _hermitian_from_interior(grid, ui)
        report = _make_report(grid, ui, hess, h_int, 1, True)
        if report.final_residual > tol:
            # the direct solve is as good as the factorization permits
            report.flags = report.flags + ("linear_residual_above_tol",)
            report.converged = report.final_residual <= 10 * tol
        return ScalarField.from_interior(grid, ui), report
    rhs = RhsSpec.frozen(grid, h_int)
    if initial is not None:
        return solve_nonlinear(rhs, initial, tol)
    u0, _ = quadratic_subsolution(grid, rhs)  # inside the cone already
    return _newton_solution(grid, u0.interior, tol, _logdet_form(grid, rhs, tol))


def _feasible_start(grid, rhs, start):
    """Blend a warm start toward a strongly PSH quadratic until the Newton
    state is strictly inside the cone; returns (u, complex Hessian of u,
    flags).  After 12 failed blends it gives up and returns the anchor
    quadratic with no Hessian and the flag "feasible_start_anchor"."""
    mu = 1e-10
    w, c, off = quadratic_defining(grid.spec)
    q = eval_quadratic(w, c, off, grid.interior_coords)
    t_anchor = max(1.0, (float(np.max(rhs.psi(np.minimum(start, 0.0)))) / float(np.prod(w))) ** (1.0 / grid.n))
    anchor = t_anchor * q
    beta = 0.0
    for _ in range(12):
        trial = (1 - beta) * start + beta * anchor
        hess = _hermitian_from_interior(grid, trial)
        eigmin = np.min(np.linalg.eigvalsh(hess.matrices() + mu * np.eye(grid.n)))
        if eigmin > 0:
            return trial, hess, ()
        beta = 0.05 if beta == 0.0 else min(1.0, beta * 2)
    log.warning("no blend of the start is inside the cone; starting from the anchor")
    return anchor, None, ("feasible_start_anchor",)


def apply_T(v, rhs, grid=None, tol=1e-8, initial=None):
    """T(v) = solve_frozen(psi(., v)): one outer step of the fixed-point map."""
    grid = v.grid if grid is None else grid
    vi = v.interior
    if np.max(vi) > _T_POSITIVE_SLACK:
        raise PreconditionViolated("apply_T requires v <= 0")
    return solve_frozen(rhs.psi(np.minimum(vi, 0.0)), grid, tol, initial=initial)


# ---------------------------------------------------------------------------
# Verification predicates
# ---------------------------------------------------------------------------


def check_subsolution(u_lower, rhs, grid=None, tol=1e-8, strict_margin=0.0):
    """det(u) >= psi(., u) + margin - tol nodewise, u PSH within tol, u <= 0."""
    grid = u_lower.grid if grid is None else grid
    ui = u_lower.interior
    if np.max(ui) > tol:
        return False
    hess = complex_hessian(u_lower)
    if np.min(hess.min_eigenvalue()) < -tol:
        return False
    det = hess.det()
    need = rhs.psi(np.minimum(ui, 0.0)) + strict_margin
    return bool(np.all(det >= need - tol))


def check_supersolution(u_upper, rhs, grid=None, tol=1e-8):
    """det(u) <= psi(., u) + tol nodewise (mirror of check_subsolution)."""
    grid = u_upper.grid if grid is None else grid
    ui = u_upper.interior
    if np.max(ui) > tol:
        return False
    hess = complex_hessian(u_upper)
    if np.min(hess.min_eigenvalue()) < -tol:
        return False
    det = hess.det()
    return bool(np.all(det <= rhs.psi(np.minimum(ui, 0.0)) + tol))


# ---------------------------------------------------------------------------
# Monotone outer iteration
# ---------------------------------------------------------------------------


def monotone_iteration(u_lower, rhs, grid=None, tol=1e-8, max_outer=2000,
                       require_subsolution=True, report_sink=None):
    """Iterate u_{j+1} = T(u_j) from a subsolution; for psi nonincreasing in u
    the iterates increase to the unique fixed point.

    Returns (u, history) where history[j] = max nodewise increment of step j.
    report_sink, if given, collects the per-step SolveReports.
    """
    grid = u_lower.grid if grid is None else grid
    if rhs.monotonicity != NONINCREASING:
        raise PreconditionViolated(
            "monotone iteration requires a right-hand side nonincreasing in u"
        )
    if require_subsolution and not check_subsolution(u_lower, rhs, grid, tol=max(tol, 1e-10)):
        raise PreconditionViolated("starting field is not a subsolution at this tolerance")
    inner_tol = tol / 10.0
    ui = u_lower.interior
    history = []
    warm = u_lower
    for _ in range(max_outer):
        u_next, rep = solve_frozen(rhs.psi(np.minimum(ui, 0.0)), grid, inner_tol, initial=warm)
        if report_sink is not None:
            report_sink.append(rep)
        vi = u_next.interior
        drop = float(np.min(vi - ui))
        if drop < -10.0 * tol:
            raise MonotonicityViolated(
                f"iterate decreased by {-drop:.3e} > 10*tol at some node"
            )
        history.append(float(np.max(vi - ui)))
        ui = vi
        warm = u_next
        hess = complex_hessian(u_next)
        res = float(np.max(np.abs(hess.det() - rhs.psi(np.minimum(ui, 0.0)))))
        if res <= tol:
            return u_next, history
    raise NotConverged(
        f"outer iteration reached {max_outer} steps; last increment {history[-1]:.3e}"
    )


def solve_regularized(rhs, eps_schedule=None, grid=None, tol=1e-8, max_outer=2000):
    """Solve det = psi(., u) + eps^n along a decreasing eps schedule.

    Warm-starts each stage with the previous solution (a valid subsolution,
    since lowering eps lowers the right-hand side).  Returns (u, diffs) with
    diffs the successive sup-norm gaps between stages.
    """
    grid = rhs.grid if grid is None else grid
    if rhs.monotonicity != NONINCREASING:
        raise PreconditionViolated("regularization requires psi nonincreasing in u")
    schedule = list(default_eps_schedule() if eps_schedule is None else eps_schedule)
    if not schedule or any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")
    if schedule[-1] < 1e-4:
        raise ValueError("eps schedule must stay >= 1e-4")
    u_lower, _ = quadratic_subsolution(grid, rhs, extra=schedule[0] ** grid.n)
    u = None
    diffs = []
    nondegenerate = rhs.kind == "frozen" and float(np.min(rhs.psi(np.zeros(grid.num_interior)))) > 0
    for i, eps in enumerate(schedule):
        stage = rhs.shifted(eps)
        start = u_lower if u is None else u
        u_new, _ = monotone_iteration(start, stage, grid, tol, max_outer,
                                      require_subsolution=(u is None))
        if u is not None:
            diffs.append(float(np.max(np.abs(u_new.interior - u.interior))))
        u = u_new
        if nondegenerate:
            break  # psi stays positive at u = 0: regularization is unnecessary
        if diffs and diffs[-1] <= max(tol, 1e-3 * eps):
            break  # further regularization cannot move the solution
    return u, diffs


# ---------------------------------------------------------------------------
# Quasi-monotone right-hand sides (dH/dt >= -lambda_0, lambda_0 < lambda_1)
# ---------------------------------------------------------------------------


def solve_quasimonotone(rhs, lambda1_estimate, grid=None, tol=1e-8):
    """Solve det = H^n(., u) for dH/dt >= -lambda_0 with lambda_0 < lambda_1.

    Re-solves from three initializations (certified subsolution, the solution
    of the u = 0 frozen problem, randomized PSH field) and compares; pairwise
    sup-distance >= 10 tol flags potential non-uniqueness in the report rather
    than raising.
    """
    grid = rhs.grid if grid is None else grid
    lam0 = rhs.lambda0 if rhs.lambda0 is not None else 0.0
    if rhs.monotonicity == QUASI and lam0 >= lambda1_estimate:
        raise EigenvalueBoundViolated(
            f"lambda_0 = {lam0} is not below the eigenvalue estimate {lambda1_estimate}"
        )
    probe = rhs.psi(np.zeros(grid.num_interior))
    if np.min(probe) <= 0:
        raise PreconditionViolated("H must be strictly positive on the closure")

    starts = []
    try:
        sub, _ = quadratic_subsolution(grid, rhs)
        starts.append(("subsolution", sub.interior))
    except BranchInfeasible:
        log.info("no dominating quadratic; skipping the subsolution start")
    zero_adjacent, _ = solve_frozen(rhs.psi(np.zeros(grid.num_interior)), grid, tol)
    starts.append(("zero_adjacent", zero_adjacent.interior))
    rng = np.random.default_rng(1234)
    if grid.n == 1:
        rand = random_psh_field(grid, rng).interior
    else:
        w, c, off = quadratic_defining(grid.spec)
        q = eval_quadratic(w, c, off, grid.interior_coords)
        rand = float(rng.uniform(0.5, 2.0)) * q + rng.normal(size=grid.num_interior) * (
            1e-2 * grid.h ** 2
        )
        rand = np.minimum(rand, 0.0)
    starts.append(("random_psh", rand))

    solutions = []
    report = None
    for name, start in starts:
        u, rep = solve_nonlinear(rhs, start, tol)
        solutions.append((name, u.interior))
        if report is None:
            report = rep
    worst = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            worst = max(worst, float(np.max(np.abs(solutions[i][1] - solutions[j][1]))))
    if worst >= 10.0 * tol:
        log.warning(
            "initializations disagree by %.3e (tol %.1e): possible non-uniqueness",
            worst,
            tol,
        )
        report.flags = report.flags + ("initializations_disagree",)
    return ScalarField.from_interior(grid, solutions[0][1]), report
