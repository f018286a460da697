"""Zero-boundary Dirichlet solvers for det(u_jk) = psi(z, u).

Layering:

* solve_nonlinear   -- damped Newton from a start, in one loop with a halving
  line search: on (1/4) Delta u = psi(., u) for n = 1; for n >= 2 on
  F(u) = log det(M(u) + mu I) - log(psi + mu^n) with a vanishing eigenvalue
  floor mu and a plurisubharmonicity safeguard.  Each equation supplies its
  residual and Jacobian; every step of both goes through one linear solve
  (_newton_step): one short right-preconditioned GMRES cycle (_krylov) on
  the grid's cached preconditioner, the LU of the last Jacobian factored on
  the grid (a grid's first step factors its own), refreshed (the current
  Jacobian factored anew) only when that cycle misses the step's target,
  and NotConverged when a cycle on the fresh LU misses too.  The target is
  a fixed 5e-10 at n = 1 and, at n >= 2, a forcing term that follows the
  Newton residual (inexact Newton), so most log-det steps run on a stale
  LU.  The exception is the n = 1 branch family (L/4 + lam diag f) u = f
  (RhsSpec.branch): its points share one Krylov space once
  right-preconditioned by L/4, so each point's Newton step comes from one
  Arnoldi basis per grid and density (_branch_solve), grown one
  quarter-Laplacian LU solve at a time; a whole disc continuation builds
  about ten vectors where a GMRES cycle per point made about eighty solves.
  Both Krylov solves run on one engine (_Arnoldi): flexible Arnoldi with
  one Givens least squares, at shift (0, 1) for the GMRES cycle and at
  (1, lam) for a branch point.
* solve_frozen      -- psi fixed in u.  For n = 1 one solve of the
  one-sided-difference quarter Laplacian ((1/4) Delta u = psi) with the
  grid's cached solver (_OrbitLU), which solves on the symmetry orbits of
  the right-hand side: the grid's lattice symmetries (signed axis
  permutations) that map the interior nodes and every crossing fraction
  onto themselves exactly, with no tolerance, commute with the quarter
  Laplacian bit for bit, so a right-hand side that such maps fix exactly
  has a solution they fix, found from one LU per stabilizer on one node
  per orbit (6 538 of 51 429 rows for f = 1 on the disc at h = 1/128).
  Exact equality holds at dyadic h; elsewhere rounding in the crossing
  fractions leaves fewer maps, and a right-hand side no map fixes is
  solved with the full LU.  For n >= 2 solve_nonlinear, which solves on
  the orbits of the maps that fix its right-hand side's data the same way
  (_logdet_form, _newton_step).
* apply_T           -- the inverse operator T(v) = solve_frozen(psi(., v)).
* monotone_iteration-- outer fixed-point iteration u_{j+1} = T(u_j) from a
  subsolution, for psi nonincreasing in u; iterates increase to the solution.
* solve_quasimonotone -- Newton for det = H^n(., u) with dH/dt >= -lambda_0 >
  -lambda_1, certified by restarting from three distinct initializations.

The module builds its subsolutions and starts from multiples of the grid's
defining function rho (_anchor), which vanishes at the boundary crossings
and is strictly PSH.  The module is the package's linear-solver seam: splu
is called here and nowhere else, and _Arnoldi is the package's only Krylov
solver.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu
# Not called: spsolve stays bound here because the benchmark's span table
# (perfbench/spans.py) looks cmaeig.dirichlet.spsolve up by name.
from scipy.sparse.linalg import spsolve  # noqa: F401

from .domain import density_weight, lattice_symmetries
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
    random_psh_field,
    trace_operator,
)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

NONINCREASING = "nonincreasing"
QUASI = "derivative_bounded_below"

_T_POSITIVE_SLACK = 1e-12

# Central-difference width of psi_t for "general" right-hand sides.
_PSI_T_DELTA = 1e-6


@dataclass
class RhsSpec:
    """psi(z, t) >= 0 for t <= 0, with declared monotonicity metadata.

    kinds: "frozen" (psi = h(z)), "separable" (psi = f^n(z) g(t), with the
    derivative dg = g') and "general" (psi = H(z, t)^n from a closure).
    branch_family marks the branch constructor's psi = (1 - lambda0 t)^n
    weight; at n = 1 its Newton steps come from the grid's shared shifted
    basis (_branch_solve).
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
    branch_family: bool = False

    # -- constructors --------------------------------------------------

    @classmethod
    def frozen(cls, grid, values):
        """psi = h(z) from h at the interior nodes, which must be finite and
        >= 0 (to rounding); PreconditionViolated names the first node where
        h is not finite."""
        vals = values.interior if isinstance(values, ScalarField) else np.asarray(values, float)
        vals = np.broadcast_to(vals, (grid.num_interior,)).astype(float)
        finite = np.isfinite(vals)
        if not np.all(finite):
            worst = int(np.argmin(finite))
            raise PreconditionViolated(
                f"frozen right-hand side is {vals[worst]:.3e}, not finite, at node "
                f"{grid.interior_point(worst)}"
            )
        if np.min(vals) < -1e-12:
            raise PreconditionViolated(
                f"frozen right-hand side must be >= 0 (min {np.min(vals):.3e})"
            )
        return cls(grid, "frozen", monotonicity=NONINCREASING,
                   frozen_values=np.maximum(vals, 0.0))

    @classmethod
    def branch(cls, grid, lam, fn=None):
        """psi = (1 - lam t)^n f^n: the solution-branch right-hand side, >= 0
        and nonincreasing in t <= 0 for any finite lam >= 0 and f > 0.

        fn is f^n at the interior nodes as density_vector(f, grid, power=n)
        returns it, evaluated and validated once by the caller; None means
        f = 1, and anything but an array with one value per interior node
        is a ValueError (density_weight)."""
        if not 0.0 <= lam < np.inf:
            raise ValueError(f"branch parameter must be finite and nonnegative: {lam!r}")
        n = grid.n
        return cls(grid, "separable", monotonicity=NONINCREASING, lambda0=lam,
                   weight=density_weight(grid, fn),
                   g=lambda t: (1.0 - lam * t) ** n,
                   dg=lambda t: -n * lam * (1.0 - lam * t) ** (n - 1),
                   branch_family=True)

    @classmethod
    def eigen(cls, grid, lam, fn=None):
        """psi = (-lam t)^n f^n: degenerate at t = 0 (eigenvalue form); fn as
        for branch."""
        if not 0.0 <= lam < np.inf:
            raise ValueError(f"eigenvalue parameter must be finite and nonnegative: {lam!r}")
        n = grid.n
        return cls(grid, "separable", monotonicity=NONINCREASING, lambda0=lam,
                   weight=density_weight(grid, fn),
                   g=lambda t: (-lam * t) ** n,
                   dg=lambda t: -n * lam * (-lam * t) ** (n - 1))

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
            return self.frozen_values.copy()
        if self.kind == "separable":
            return self.weight * self.g(t)
        return self.H(self.grid.interior_coords, t) ** self.grid.n

    def psi_t(self, t):
        """d psi / dt: 0 for frozen, f^n g'(t) for separable, by central
        differences of width _PSI_T_DELTA for general."""
        if self.kind == "frozen":
            return np.zeros(self.grid.num_interior)
        t = self._clamp(t)
        if self.kind == "separable":
            return self.weight * self.dg(t)
        lo = self.psi(t - _PSI_T_DELTA)
        hi = self.psi(np.minimum(t + _PSI_T_DELTA, 0.0))
        width = np.minimum(t + _PSI_T_DELTA, 0.0) - (t - _PSI_T_DELTA)
        return (hi - lo) / width

    def _spot_check(self):
        """Validate psi >= 0 and (when declared) monotonicity on a (z, t) sample."""
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
    """One Dirichlet solve's outcome (_make_report); each field's comment
    names its readers.  The counters are summed in the CLI summaries."""

    iterations: int  # Newton steps: eigenpath._walk's step control, branch.csv
    final_residual: float  # max|det - psi|: branch.csv, CLI summaries, verify
    psh_margin: float  # smallest complex-Hessian eigenvalue: `solve` summary
    converged: bool  # the solve met tol: the benchmark's Dirichlet check
    flags: tuple = ()  # defaults put in for failed computations: CLI `flags`
    krylov_iterations: int = 0  # GMRES iterations over the Newton steps
    factorizations: int = 0  # Jacobians factored by preconditioner refreshes
    backtracks: int = 0  # line-search trials rejected (step halvings)
    mu_shrinks: int = 0  # n >= 2 eigenvalue-floor shrinks (Newton restarts)


def _make_report(state, iterations, converged, flags=(),
                 krylov_iterations=0, factorizations=0, backtracks=0, mu_shrinks=0):
    """The SolveReport of a solve ending at the _NewtonState `state`, read
    from its residual and Hessian eigenvalues: no Hessian is evaluated."""
    return SolveReport(
        iterations=iterations,
        final_residual=state.error,
        psh_margin=float(np.min(state.eig[:, 0])),
        converged=converged,
        flags=tuple(flags),
        krylov_iterations=krylov_iterations,
        factorizations=factorizations,
        backtracks=backtracks,
        mu_shrinks=mu_shrinks,
    )


# ---------------------------------------------------------------------------
# Subsolution construction
# ---------------------------------------------------------------------------


def _anchor(grid):
    """(rho at the interior nodes, det of its discrete complex Hessian there).

    rho vanishes at every crossing, so it is a zero-boundary field whose
    one-sided rows see no jump.  A strongly pseudoconvex domain's rho is
    strictly PSH: PreconditionViolated names the node where its discrete
    Hessian has an eigenvalue <= 0."""
    rho = grid.rho_interior
    hess = complex_hessian(ScalarField(grid, rho))
    lam = hess.min_eigenvalue()
    worst = int(np.argmin(lam))
    if lam[worst] <= 0:
        raise PreconditionViolated(
            f"defining function is not strictly PSH: smallest Hessian "
            f"eigenvalue {lam[worst]:.3e} at node {grid.interior_point(worst)}"
        )
    return rho, hess.det()


# Amplitude iterations of quadratic_subsolution before it gives up.
_AMPLITUDE_ITERATIONS = 80


def quadratic_subsolution(grid, rhs):
    """Scaled defining function t*rho with det >= psi(., t*rho) nodewise;
    returns (field, t).

    Since det(t rho) >= t^n min det(rho), the amplitude is a fixed point of
    t -> (max psi(., t rho) / min det(rho))^(1/n), found by
    iterating from below with a geometric-tail extrapolation (exact in one
    cycle when the map is affine in t, as for the continuation family).
    Right-hand sides growing superlinearly past the domain's threshold make
    the map non-contractive; no fixed point exists and BranchInfeasible is
    raised.  The result is then certified nodewise against t^n det(rho),
    the det of t rho by linearity of the Hessian, with no second Hessian.
    """
    n = grid.n
    rho, det_rho_nodes = _anchor(grid)
    det_rho = float(np.min(det_rho_nodes))

    def amp(s):
        return (float(np.max(rhs.psi(s * rho))) / det_rho) ** (1.0 / n)

    t = max(amp(0.0), 1e-12)
    for _ in range(_AMPLITUDE_ITERATIONS):
        t1 = amp(t)
        if t1 > 1e8:
            raise BranchInfeasible(
                "no multiple of rho dominates this right-hand side"
            )
        if t1 <= t * (1 + 1e-9):
            t = max(t, t1)
            break
        t2 = amp(t1)
        if t2 > 1e8:
            raise BranchInfeasible(
                "no multiple of rho dominates this right-hand side"
            )
        ratio = (t2 - t1) / (t1 - t)
        if ratio >= 1.0 - 1e-9:
            raise BranchInfeasible(
                "subsolution amplitude iteration is non-contractive"
            )
        t = t2 + (t2 - t1) * ratio / (1.0 - ratio)
    else:
        raise BranchInfeasible("subsolution amplitude iteration did not settle")
    # The amplitude bounds det(t rho) = t^n det(rho) from below by
    # t^n min det(rho), so it holds at every node up to rounding; verify,
    # and bump if a node disagrees.
    for _ in range(4):
        if np.all(t ** n * det_rho_nodes >= rhs.psi(t * rho) - 1e-12):
            return ScalarField(grid, t * rho), t
        t *= 1.5
    raise BranchInfeasible("could not certify the quadratic subsolution")


# ---------------------------------------------------------------------------
# Damped Newton
# ---------------------------------------------------------------------------


# GMRES stops on the true residual ||J delta + F|| <= rtol ||F||, with rtol
# the step's forcing term at n >= 2 (below) and _KRYLOV_RTOL at n = 1.  The
# residual an n = 1 step can reach is set by rounding and grows like h^-2:
# along the unit-disc branch at most 1.2e-11, 4.3e-11 and 1.9e-10 at
# h = 1/64, 1/128, 1/256 (a direct solve: up to 2.3e-10 at 1/256), so 1e-10
# is out of reach at 1/256; 1e-9 changes a branch point's Newton count there.
# Each GMRES run is one cycle of at most _KRYLOV_RESTART iterations, each
# iteration one preconditioner solve and one Jacobian matvec; no solve
# follows the cycle.  A Newton step runs one cycle on the grid's cached
# preconditioner and, when that misses rtol, factors the current Jacobian
# and runs one more on that LU.  At n >= 2, on the ellipsoid-n2-bump problem
# (h = 0.25, fresh grids, one BLAS thread), cycles of 6/10/20 iterations
# under forcing gave a continuation 9/5/3 LUs, 53/55/60 Newton steps and
# 0.245/0.246/0.227 s, and an inverse power 5/4/2 LUs, 56/56/66 steps and
# 0.230/0.235/0.29 s (medians of 12 interleaved runs; the 6/10 times are
# within noise): no length wins both routes.  At n = 1 the quarter-Laplacian
# LU needs at most 8 iterations per step along the unit-disc branch at
# h = 1/128; from a perturbed start on discs of h = 1/32 and 1/64 it needs
# 10 near blow-up (lam = 1.40, 1.44) and 9 on the steep H = exp(20 t): 10 is
# the edge there.
_KRYLOV_RTOL = 5e-10
_KRYLOV_RESTART = 10

# Forcing terms of the n >= 2 log-det steps (Eisenstat & Walker, SIAM J. Sci.
# Comput. 17, 1996; Knoll & Keyes, J. Comput. Phys. 193, 2004): the first
# step's target is _FORCING_MAX, step k's is EW choice 2,
# _FORCING_GAMMA (||F_k|| / ||F_k-1||)^_FORCING_ALPHA, raised to the floor
# 0.1 tol / (max(psi + mu^n) ||F_k||) (det - psi ~ (psi + mu^n) F, so a
# smaller linear residual cannot lower the det residual further below tol)
# and to _KRYLOV_RTOL, and capped at _FORCING_MAX.  EW's safeguard, raising
# eta_k to gamma eta_k-1^alpha when that exceeds 0.1, never acts under this
# cap (it would need eta_k-1 > 0.33) and is left out.  Measured against a
# fixed 5e-10 (tol 1e-8, h = 0.25, one BLAS thread): ellipsoid-n2-bump
# continuation 48 -> 55 Newton steps, 373 -> 296 GMRES iterations, 12 -> 5
# LUs; inverse power 47 -> 56, 343 -> 229, 9 -> 4; frozen solve 5 -> 5,
# 37 -> 16, 3 -> 1; benchmark continuation_s 0.225 -> 0.174, inverse_power_s
# 0.226 -> 0.167, dirichlet_s 0.054 -> 0.036 (medians of 10 alternating
# pairs); lambda_1 moved by <= 6e-14.  The 4-ball at h = 0.2 factors 9 -> 4 (continuation)
# and 7 -> 3 (inverse power) LUs.  The n = 1 semilinear form keeps the fixed
# target: it is linear in u along the branch, one exact step per point, and
# forcing took the disc continuation at h = 1/128 from 13 to 25 Newton steps
# and from 79 to 100 GMRES iterations (measured before that branch moved to
# the shared basis, _branch_solve).
_FORCING_GAMMA = 0.9
_FORCING_ALPHA = 2.0
_FORCING_MAX = 1e-2


# SuperLU's blocking (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix
# Anal. Appl. 20, 1999): elimination-tree subtrees of at most _LU_RELAX
# columns are merged into relaxed supernodes, and _LU_PANEL_SIZE columns are
# updated together as one panel.  SuperLU's defaults are 10 and 20.  Sweep of
# relax / panel_size with MMD_AT_PLUS_A (one BLAS thread, ms, medians of 3-9
# interleaved repeats; the fill L.nnz + U.nnz of 4 / 4 equals the defaults'
# in every row; the Jacobians are the lam = 0.5 branch problem's at its
# quadratic subsolution):
#
#   matrix                         rows     default       4 / 4     1 / 1
#                                        factor/solve factor/solve factor
#   disc quarter L, h = 1/64     12 849   77 / 2.26    38 / 1.69     35
#   disc quarter L, h = 1/128    51 429  338 / 9.25   257 / 8.87    205
#   disc quarter L, h = 1/256   205 857 2661 / 47.4  1884 / 43.4      -
#   ellipsoid-n2-bump Jacobian      625  6.6 / 0.145  6.4 / 0.142   6.2
#   4-ball Jacobian, h = 0.25     1 257   59 / 0.86    45 / 0.71     31
#   4-ball Jacobian, h = 0.2      2 873  233 / 3.11   192 / 1.84    247
#
# Panels of 1 or 2 win in 2-D but lose at the 4-ball's h = 0.2, relaxing 8 or
# 10 columns is slower everywhere, and with relax 4 panels of 8 lose up to
# 13 % and of 20 up to 32 % to panels of 4 on the disc; 4 / 4 beats the
# defaults on every family above, so the n = 1 Laplacian and the n >= 2
# Jacobians share it.  On every LU that the two
# routes factor on the 4-ball (h = 0.25, 0.2) and ellipsoid-n2-bump, the
# row and column permutations are the defaults', the fill is within 0.02 %
# and the solves agree to 5e-15.  The exceptions to the speed-up are the
# Jacobians near blow-up that partial pivoting takes off the diagonal
# (fill 2.5-3.0 M against 1.4 M at h = 0.2): on the two worst 4 / 4 was
# 6-35 % slower than the defaults over three sweeps, and the 4-ball routes
# at h = 0.2 come out even.
_LU_RELAX = 4
_LU_PANEL_SIZE = 4

# Threshold pivoting (SuperLU's diag_pivot_thresh, with SymmetricMode): a
# diagonal entry stays the pivot while it is at least this fraction of the
# largest entry in its column.  With partial pivoting (1.0, SuperLU's
# default) 3 of the 7 LUs that the 4-ball routes factor at h = 0.2, near
# blow-up, took 386-692 off-diagonal pivots, 2.26-3.00 M nonzeros against
# 1.42 M and 270-460 ms against 116-128 ms; at 0.1 they take none.  The
# late orbit LUs of ellipsoid-n2-bump take 0-7 such pivots against 8-61,
# and 9.2-9.3 k nonzeros against up to 10.3 k; the disc-n1 orbit LU keeps
# its 193 332 nonzeros and takes 6.4 against 7.0 ms.  Per-point Newton,
# GMRES and LU counts stayed the same on the routes of both benchmark
# workloads and of the 4-ball at h = 0.25 and 0.2, lambda_1 moved by
# <= 5e-15, and relative solve residuals stay <= 3e-15.
_LU_PIVOT_THRESHOLD = 0.1


def _factor(A):
    """Sparse LU of A: the package's one factorization, for the n = 1
    quarter Laplacian (_OrbitLU) and the Newton Jacobians (_newton_step),
    in full or on symmetry orbits (_orbit_factor).

    The columns are ordered by minimum degree on A^T + A, with less fill
    than the default COLAMD (about half on the Laplacian; on an
    ellipsoid-n2-bump log-det Jacobian 91k against 138k nonzeros, 6.7
    against 8.7 ms).  _LU_RELAX and _LU_PANEL_SIZE set SuperLU's blocking
    only: the permutations and fill of its defaults and, to rounding, the
    same solves, in about 70 % of the time on the disc's Laplacian.  Its
    pivots stay on the diagonal while they are at least
    _LU_PIVOT_THRESHOLD of their column's largest entry."""
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=_LU_PIVOT_THRESHOLD,
                options={"SymmetricMode": True}, relax=_LU_RELAX, panel_size=_LU_PANEL_SIZE)


def _stabilizer(maps, b):
    """Indices of the lattice symmetries among `maps` (lattice_symmetries)
    that fix b exactly, b[s] == b, the identity's 0 first."""
    return (0,) + tuple(k for k in range(1, len(maps)) if np.array_equal(b[maps[k]], b))


class _Orbits:
    """The orbits of the interior nodes under a group of lattice symmetries,
    given as rows of lattice_symmetries (Bossavit, Comput. Methods Appl.
    Mech. Engrg. 56, 1986; Allgower, Boehmer, Georg & Miranda, SIAM J.
    Numer. Anal. 29, 1992).

    Each orbit is labelled by its smallest position, its representative;
    orbit[i] is node i's column.  P (N x m) copies each orbit's value to its
    nodes and R picks the representatives, so for a matrix A that commutes
    with the group, A P y = P (R A P) y (reduce)."""

    def __init__(self, maps):
        self.representatives, self.orbit = np.unique(np.min(maps, axis=0), return_inverse=True)
        self.sizes = np.bincount(self.orbit, minlength=self.representatives.size)

    def reduce(self, A):
        """R A P, the m x m matrix of A on the invariant vectors."""
        N, m = self.orbit.size, self.representatives.size
        P = sparse.csr_matrix((np.ones(N), (np.arange(N), self.orbit)), shape=(N, m))
        return A.tocsr()[self.representatives] @ P

    def average(self, b):
        """(P^T P)^-1 P^T b: each orbit's mean of b."""
        return np.bincount(self.orbit, b, self.sizes.size) / self.sizes

    def project(self, b):
        """P (P^T P)^-1 P^T b, the orthogonal projection of b onto the
        invariant vectors: each node takes its orbit's mean, so the result
        is invariant exactly."""
        return self.average(b)[self.orbit]

    def fixes(self, b):
        """Whether every node of b equals its orbit's representative."""
        return np.array_equal(b[self.representatives][self.orbit], b)


class _ReducedLU(NamedTuple):
    """A solver of A x = b on the invariant vectors of `orbits` from lu, the
    LU of R A P (m x m): x = P (R A P)^-1 (orbit means of b), exactly
    invariant.  For an invariant b and an A that commutes with the group
    this is A's solution; otherwise it is the solution's projection, to
    rounding, and serves as a preconditioner."""

    lu: object
    orbits: _Orbits

    def solve(self, b):
        return self.lu.solve(self.orbits.average(b))[self.orbits.orbit]


def _orbit_factor(A, orbits=None):
    """The LU of A (_factor), or with orbits (_Orbits) that of R A P as a
    solver on their invariant vectors (_ReducedLU)."""
    return _factor(A) if orbits is None else _ReducedLU(_factor(orbits.reduce(A)), orbits)


class _Arnoldi:
    """The package's one Krylov engine: a flexible Arnoldi basis started at
    b, with the Givens least squares of its shifted systems.

    Step k applies the preconditioner once, z_k = precondition(v_k), and the
    operator once, apply(z_k), which modified Gram-Schmidt orthogonalizes
    against v_0..v_k.  V holds the orthonormal vectors, Z their
    preconditioned images and `columns` the Hessenberg matrix Hbar, so that
    apply(Z_m) = V_m+1 Hbar; keeping Z makes x = Z y cost no further
    preconditioner solve (flexible GMRES; Saad, SIAM J. Sci. Comput. 14,
    1993).  At shift (sigma, tau), x = Z y with y minimizing
    ||beta e_1 - (sigma Ibar + tau Hbar) y|| solves (sigma M + tau A) x = b
    with that least-squares residual, where A is `apply` and M the matrix
    `precondition` inverts: (0, 1) is GMRES on A (_krylov), for which M may
    change between steps, and (1, lam) with a fixed M is shifted GMRES
    (Frommer & Glassner, SIAM J. Sci. Comput. 19, 1998), which serves every
    lam from one basis (_branch_solve).  The Givens rotations are kept while
    the shift stays and redone over `columns` when it changes."""

    def __init__(self, b, precondition, apply):
        self.b, self.precondition, self.apply = b, precondition, apply
        self.beta = float(np.linalg.norm(b))
        self.V, self.Z, self.columns = [b * (1.0 / self.beta)], [], []
        self._shift = None

    def _grow(self):
        """Add one vector and its Hessenberg column.  On breakdown (the
        remainder's norm <= eps times the norm of apply(z_k)) the column's
        last entry is 0 and no vector follows: the space is invariant."""
        k = len(self.Z)
        z = self.precondition(self.V[k])
        w = self.apply(z)
        before = np.linalg.norm(w)
        column = np.empty(k + 2)
        for i, v in enumerate(self.V):
            column[i] = v @ w
            w -= column[i] * v
        column[-1] = np.linalg.norm(w)
        if column[-1] <= np.finfo(float).eps * before:
            column[-1] = 0.0
        else:
            self.V.append(w * (1.0 / column[-1]))
        self.Z.append(z)
        self.columns.append(column)

    def _rotate(self, k):
        """Bring column k of sigma Ibar + tau Hbar to upper triangular form
        by the rotations of columns 0..k-1 and one new rotation, applied to
        the right-hand side too."""
        sigma, tau = self._shift
        h = tau * self.columns[k]
        h[k] += sigma
        for i, (c, s) in enumerate(self._rotations):
            h[i:i + 2] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        r = np.hypot(h[k], h[k + 1])
        c, s = h[k] / r, h[k + 1] / r
        self._rotations.append((c, s))
        h[k] = r
        self._triangle.append(h[:k + 1])
        self._g.append(-s * self._g[k])
        self._g[k] *= c

    def solve_to(self, shift, target, cap):
        """(x, residual) at shift (sigma, tau), growing the basis until the
        least-squares residual is <= target, the basis holds cap vectors or
        its space is invariant."""
        if shift != self._shift:
            self._shift, self._rotations, self._triangle, self._g = shift, [], [], [self.beta]
            for k in range(len(self.Z)):
                self._rotate(k)
        while len(self.Z) < cap and len(self.V) > len(self.Z) and (
                not self.Z or abs(self._g[-1]) > target):
            self._grow()
            self._rotate(len(self.Z) - 1)
        m = len(self.Z)
        R = np.zeros((m, m))
        for k, column in enumerate(self._triangle):
            R[:k + 1, k] = column
        y = np.linalg.solve(R, self._g[:m])
        x = y[0] * self.Z[0]
        for coefficient, z in zip(y[1:], self.Z[1:]):
            x += coefficient * z
        return x, float(abs(self._g[-1]))


def _krylov(J, b, precondition, rtol):
    """One cycle of right-preconditioned GMRES on J delta = b from delta = 0,
    at most _KRYLOV_RESTART iterations; returns (delta, iterations,
    converged).

    The cycle is the Krylov engine (_Arnoldi) at shift (0, 1): iteration k
    costs one preconditioner solve and one Jacobian matvec, and the cycle
    stops once the least-squares residual is <= rtol ||b|| or the basis
    breaks down.  `converged` is the true residual ||b - J delta|| <=
    rtol ||b||, one matvec.  The iterates are those of scipy's gmres on the
    operator J precondition, to rounding."""
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b), 0, True
    engine = _Arnoldi(b, precondition, lambda z: J @ z)
    delta, _ = engine.solve_to((0.0, 1.0), rtol * beta, _KRYLOV_RESTART)
    converged = np.linalg.norm(b - J @ delta) <= rtol * beta
    return delta, len(engine.Z), bool(converged)


def _newton_step(grid, J, F, rtol, orbits=None):
    """Solve J delta = -F to the relative residual rtol for one Newton step;
    returns (delta, Krylov iterations, factorizations).

    One GMRES cycle (_krylov) on J runs on the grid's cached preconditioner
    grid._cache["newton_lu"], the LU of the last Jacobian factored on the
    grid (left by any earlier step or solve): one LU solve per
    iteration, none after the cycle.  When there is none or the cycle misses
    rtol, J is factored, its LU cached, and one more cycle runs on it;
    NotConverged, naming rtol, is raised if that misses too.

    With `orbits` (_Orbits; the log-det form's on a grid with symmetry) the
    LU is that of R J P (_ReducedLU), and a cached LU of other orbits counts
    as none.  Each preconditioned vector is then invariant exactly, and so
    is delta, their combination."""
    lu = grid._cache.get("newton_lu")
    stale = 0
    if lu is not None and (orbits is None or (isinstance(lu, _ReducedLU)
                                               and lu.orbits is orbits)):
        delta, stale, converged = _krylov(J, -F, lu.solve, rtol)
        if converged:
            return delta, stale, 0
    lu = grid._cache["newton_lu"] = _orbit_factor(J, orbits)
    delta, iterations, converged = _krylov(J, -F, lu.solve, rtol)
    if not converged:
        reached = np.linalg.norm(J @ delta + F) / np.linalg.norm(F)
        raise NotConverged(
            f"GMRES reached relative residual {reached:.3e} (target "
            f"{rtol:.3e}) after {iterations} iterations on a fresh LU"
        )
    return delta, stale + iterations, 1


# Arnoldi vectors a grid's shared n = 1 branch basis (_branch_solve) may hold;
# a branch point it cannot solve within them falls through to _newton_step
# and is flagged "shifted_basis_cap".  A whole unit-disc continuation
# (tol 1e-8) needs 9 vectors with f = 1 and 11 with the unit Gaussian bump of
# width 0.5 at (0.3, 0), at each of h = 1/32, 1/64, 1/128 and 1/256; bumps of
# width 0.2 / 0.1 / 0.5 and amplitude 5 / 20 / -0.9 at (0.5, 0) need
# 11 / 11 / 12 at h = 1/64, and f = 1 at tol 1e-10 needs 10.  The cap is twice
# the largest; each vector (with its preconditioned image) holds 16 bytes per
# node, 0.8 MB at h = 1/128.
_SHIFTED_BASIS_CAP = 24


def _branch_solve(grid, rhs, tol):
    """Solve the n = 1 branch point (L/4 + lam diag f) u = f of `rhs` to a
    residual <= 0.1 tol; returns (u, vectors added), u None once the basis
    reaches _SHIFTED_BASIS_CAP or an invariant space first.

    Right-preconditioned by L/4 the points are the shifted systems
    (I + lam diag(f) (L/4)^-1) x = f, u = (L/4)^-1 x, so they share one
    Krylov space: the grid keeps one engine (_Arnoldi) of diag f started at
    f and preconditioned by the quarter-Laplacian solver, rebuilt when f
    differs, and solves each point at shift (1, lam), one LU solve per
    vector added."""
    f = rhs.weight
    basis = grid._cache.get("shifted_basis")
    if basis is None or not np.array_equal(basis.b, f):
        basis = grid._cache["shifted_basis"] = _Arnoldi(
            f, _cached_laplacian_lu(grid).solve, lambda z: f * z)
    held = len(basis.Z)
    u, residual = basis.solve_to((1.0, rhs.lambda0), 0.1 * tol, _SHIFTED_BASIS_CAP)
    return (u if residual <= 0.1 * tol else None), len(basis.Z) - held


class _NewtonState(NamedTuple):
    """A Newton form evaluated at u; a solve's SolveReport is built from its
    last one (_make_report)."""

    F: np.ndarray  # residual
    error: float  # max|det(u_jk) - psi|; stops the iteration once <= tol
    psi: np.ndarray
    # (N, n) ascending complex-Hessian eigenvalues: hess.eigenvalues() at
    # n >= 2, and at n = 1 the 1 x 1 Hessian (L/4) u as a column
    eig: np.ndarray
    hess: HermitianField | None = None  # log-det form only


class _NewtonForm(NamedTuple):
    """One equation for _damped_newton.

    evaluate(u) -> _NewtonState; jacobian(u, state) -> sparse dF/du, whose
    system J delta = -F each step solves by _newton_step; admissible(u,
    state) tests the start and every line-search trial, which must also
    lower max|F| or meet the stop test; restart(u, state, fnorm, it) may
    return a fresh state in place of a step (the log-det form's mu shrink,
    counted as SolveReport.mu_shrinks); forcing(state) returns the relative
    GMRES residual the step from `state` is solved to (the log-det form's
    forcing term), _KRYLOV_RTOL when absent; step(u, state, tol), when
    present, takes the step in place of _newton_step and returns what it
    does, (delta, Krylov iterations, factorizations) (the n = 1 form's step,
    which on the branch family starts from the shared basis and counts the
    quarter-Laplacian LUs its solves factor); flags collects the report
    flags the hooks raise; orbits (_Orbits), when present, are those every
    iterate is invariant on, passed to _newton_step.
    """

    evaluate: object
    jacobian: object
    admissible: object
    max_iter: int
    restart: object = None
    forcing: object = None
    step: object = None
    flags: object = ()
    orbits: object = None


# Step halvings a line search tries before NewtonStalled.
_MAX_BACKTRACKS = 30


def _damped_newton(grid, ui, tol, form, state=None):
    """Damped Newton on a residual over interior values; returns (u, report).

    `state`, if given, is form.evaluate(ui) computed by the caller.
    """
    state = form.evaluate(ui) if state is None else state
    if not form.admissible(ui, state):
        raise PreconditionViolated("initial guess is not in the solver's cone")
    krylov = backtracks = restarts = factorizations = 0
    for it in range(1, form.max_iter + 1):
        if state.error <= tol:
            return ui, _make_report(state, it - 1, True,
                                    flags=form.flags, krylov_iterations=krylov,
                                    factorizations=factorizations,
                                    backtracks=backtracks, mu_shrinks=restarts)
        fnorm = float(np.max(np.abs(state.F)))
        fresh = form.restart(ui, state, fnorm, it) if form.restart else None
        if fresh is not None:
            state = fresh
            restarts += 1
            continue
        if form.step:
            delta, iterations, factored = form.step(ui, state, tol)
        else:
            rtol = form.forcing(state) if form.forcing else _KRYLOV_RTOL
            delta, iterations, factored = _newton_step(grid, form.jacobian(ui, state),
                                                       state.F, rtol, form.orbits)
        krylov += iterations
        factorizations += factored
        # A trial that meets the stop test ends the solve even where max|F|
        # sits at its rounding floor and does not fall: the tol-1e-11
        # inverse power stalled so on ellipsoid-n2-bump seeds 13 and 66
        # (full Newton) and 86 (on the orbits), whose step reached a det
        # residual of 7e-15 against tol 1e-12 with max|F| 2.6e-13 > 2.2e-13.
        s = 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = ui + s * delta
            t_state = form.evaluate(trial)
            if form.admissible(trial, t_state) and (np.max(np.abs(t_state.F)) < fnorm
                                                    or t_state.error <= tol):
                ui, state = trial, t_state
                break
            s *= 0.5
            backtracks += 1
        else:
            raise NewtonStalled(
                f"line search exhausted {_MAX_BACKTRACKS} halvings at iteration {it}"
            )
    raise NotConverged(f"Newton did not reach tol={tol} in {form.max_iter} iterations")


def _logdet_form(grid, rhs, tol, orbits=None):
    """n >= 2: F(u) = log det(M(u) + mu I) - log(psi + mu^n), stopping on the
    true residual max|det M(u) - psi|.  Trials must keep M + mu I positive
    definite.  That also keeps the Hessian above the PSH floor -10 h^2
    (default_psh_tol), since mu <= 1e-8 < 10 h^2 on every grid with
    h > 3.2e-5, so no separate floor test is made.  When Newton stalls on F
    while the true residual does not fall, the eigenvalue floor mu shrinks
    a hundredfold (at most three times) and the iteration restarts.  F counts
    as stalled once max|F| (max(psi) + mu^n) <= 1e-2 tol, since
    det - psi ~ (psi + mu^n) F, or when the true residual stops falling.

    The Jacobian is trace_operator at W = (M + mu I)^-1 (HermitianField.inverse)
    with the diagonal shift -psi_t / (psi + mu^n): one matvec on the grid's
    cached assembly plan.  Each step is solved only to its forcing term
    (_FORCING_*): the cap 1e-2 on the first step, then Eisenstat-Walker
    choice 2 on the residual ratio, floored where a more accurate step
    cannot lower the det residual.  A grid's first Newton step factors its
    Jacobian; later steps reuse the grid's last Jacobian LU as their GMRES
    preconditioner until a cycle misses its target (_newton_step).

    With orbits (_Orbits of the lattice symmetries that fix the right-hand
    side's data; solve_nonlinear passes them and symmetrizes the start), F
    is replaced by its orbit average (_Orbits.project), which the step, the
    line search's max|F|, the mu-shrink test and the forcing term all read,
    and every step is solved on the orbits (_newton_step), so each iterate
    is invariant exactly; the stop test stays the raw max|det - psi|.  F
    itself is invariant only to rounding (the Hessian's entries sum the
    same second differences in other orders on the images of a node), and
    its part off the invariant vectors, 6e-14 on ellipsoid-n2-bump at its
    eigenfunction, is out of reach of every invariant step: without the
    projection the tol-1e-11 inverse power raised NotConverged on all 30
    ellipsoid-n2-bump seeds tried, its GMRES cycle on a fresh LU stopping
    at 3.5e-4 to 7.8e-4 against a 4.6e-5 target."""
    n = grid.n
    mu = min(1e-8, tol * 1e-3)
    shrinks = 0
    last_error = np.inf
    last_fnorm = None

    def evaluate(ui, hess=None):
        hess = complex_hessian(ScalarField(grid, ui)) if hess is None else hess
        eig = hess.eigenvalues()
        psi = rhs.psi(np.minimum(ui, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):  # eig + mu <= 0: inadmissible
            F = np.sum(np.log(eig + mu), axis=1) - np.log(psi + mu ** n)
        if orbits is not None:
            F = orbits.project(F)
        error = float(np.max(np.abs(hess.det() - psi)))
        return _NewtonState(F, error, psi, eig, hess)

    def jacobian(ui, state):
        shift = None
        if rhs.kind != "frozen":
            shift = -rhs.psi_t(np.minimum(ui, 0.0)) / (state.psi + mu ** n)
        return trace_operator(grid, state.hess.inverse(mu), shift)

    def admissible(ui, state):
        return np.min(state.eig[:, 0]) + mu > 0

    def restart(ui, state, fnorm, it):
        nonlocal mu, shrinks, last_error
        stalled = fnorm * (float(np.max(state.psi)) + mu ** n) <= tol * 1e-2 or (
            it > 3 and state.error > 0.95 * last_error and fnorm < tol
        )
        if stalled and shrinks < 3:
            mu *= 0.01
            shrinks += 1
            last_error = np.inf
            return evaluate(ui)
        last_error = state.error
        return None

    def forcing(state):
        nonlocal last_fnorm
        fnorm = float(np.linalg.norm(state.F))
        eta = (_FORCING_MAX if last_fnorm is None
               else _FORCING_GAMMA * (fnorm / last_fnorm) ** _FORCING_ALPHA)
        last_fnorm = fnorm
        floor = 0.1 * tol / ((float(np.max(state.psi)) + mu ** n) * fnorm)
        return min(_FORCING_MAX, max(eta, floor, _KRYLOV_RTOL))

    return _NewtonForm(evaluate, jacobian, admissible, 80, restart, forcing, orbits=orbits)


def _semilinear_state(quarter_laplacian, ui, psi):
    """The n = 1 _NewtonState at u: F = (1/4) L u - psi, with (1/4) L u, the
    complex Hessian at n = 1, kept as its eigenvalue."""
    hessian = quarter_laplacian @ ui
    F = hessian - psi
    return _NewtonState(F, float(np.max(np.abs(F))), psi, hessian[:, None])


def _semilinear_form(grid, rhs):
    """n = 1: F(u) = (1/4) Delta u - psi(., u), stopping on max|F|; the
    linearization J = (1/4) L - diag(psi_t) is nonsingular whenever
    psi_t > -lambda_1.  Trials must stay <= 0.

    Each step is _newton_step, under the same preconditioner rule as at
    n >= 2: a grid's first step factors its Jacobian.  On the branch family
    psi = f (1 - lam t) (RhsSpec.branch) the Newton step from any
    u <= 0 lands on the solution u* of (L/4 + lam diag f) u* = f, so the
    form's first step is delta = u* - u with u* from the grid's shared
    shifted basis (_branch_solve), one quarter-Laplacian LU solve per new
    basis vector, each counted as a Krylov iteration, and the LUs those
    solves factor counted too; a basis at _SHIFTED_BASIS_CAP, and any later
    step of the solve, runs _newton_step instead, the former flagged
    "shifted_basis_cap"."""
    quarter_laplacian = hessian_operators(grid)[0][0]
    flags = []
    first = rhs.branch_family

    def evaluate(ui):
        return _semilinear_state(quarter_laplacian, ui, rhs.psi(np.minimum(ui, 0.0)))

    def jacobian(ui, state):
        return quarter_laplacian - sparse.diags(rhs.psi_t(np.minimum(ui, 0.0)))

    def admissible(ui, state):
        return np.max(ui) <= _T_POSITIVE_SLACK

    def step(ui, state, tol):
        nonlocal first
        vectors = factored = 0
        if first:
            first = False
            laplacian_lu = _cached_laplacian_lu(grid)
            before = laplacian_lu.factorizations
            u, vectors = _branch_solve(grid, rhs, tol)
            factored = laplacian_lu.factorizations - before
            if u is not None:
                return u - ui, vectors, factored
            flags.append("shifted_basis_cap")
        delta, iterations, refreshed = _newton_step(grid, jacobian(ui, state), state.F,
                                                    _KRYLOV_RTOL)
        return delta, vectors + iterations, refreshed + factored

    return _NewtonForm(evaluate, jacobian, admissible, 60, step=step, flags=flags)


def _require_tol(tol):
    """ValueError naming tol unless it is finite and > 0 (a NaN tol would
    pass every convergence test)."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0: {tol!r}")


def _rhs_orbits(rhs):
    """The _Orbits of the stabilizer of rhs's per-node data (f^n for a
    separable right-hand side, the values for a frozen one) among the
    grid's lattice symmetries, cached on the grid per stabilizer; None for a
    general right-hand side or when only the identity fixes the data."""
    data = rhs.weight if rhs.kind == "separable" else rhs.frozen_values
    if data is None:
        return None
    maps = lattice_symmetries(rhs.grid)
    stabilizer = _stabilizer(maps, data)
    if len(stabilizer) == 1:
        return None
    key = ("orbits", stabilizer)
    if key not in rhs.grid._cache:
        rhs.grid._cache[key] = _Orbits(maps[list(stabilizer)])
    return rhs.grid._cache[key]


def solve_nonlinear(rhs, start, tol=1e-8):
    """Solve det(u_jk) = psi(., u) with zero boundary values by damped Newton
    from `start` (a ScalarField or interior values); returns (u, report).

    n = 1 solves the semilinear equation (1/4) Delta u = psi(., u); n >= 2
    first blends the start into the log-det form's cone (_feasible_start).
    tol must be finite and > 0.
    """
    _require_tol(tol)
    grid = rhs.grid
    ui = start.interior if isinstance(start, ScalarField) else np.asarray(start, float)
    if grid.n == 1:
        form, state, flags = _semilinear_form(grid, rhs), None, ()
    else:
        ui, hess, flags = _feasible_start(grid, rhs, ui)
        orbits = _rhs_orbits(rhs)
        if orbits is not None and not orbits.fixes(ui):
            ui, hess = orbits.project(ui), None
        form = _logdet_form(grid, rhs, tol, orbits)
        state = None if hess is None else form.evaluate(ui, hess)
    ui, report = _damped_newton(grid, ui, tol, form, state)
    report.flags += flags
    return ScalarField(grid, np.minimum(ui, 0.0)), report


# ---------------------------------------------------------------------------
# Frozen solver
# ---------------------------------------------------------------------------


class _OrbitLU:
    """Solves (1/4) L x = b for the n = 1 quarter Laplacian (1/4) L on the
    symmetry orbits of b.

    Each solve finds the stabilizer of b, the grid's lattice symmetries s
    (lattice_symmetries) with b[s] == b exactly (_stabilizer).  The quarter
    Laplacian commutes with every kept map exactly, so x is invariant and
    comes from one LU of R (1/4) L P on the orbits of the stabilizer
    (_ReducedLU).  That LU is factored (_factor) on the first solve with its
    stabilizer and kept; factorizations counts the LUs factored.  With f = 1
    the disc at h = 1/128 keeps 8 maps and its LU has 6 538 rows where
    (1/4) L has 51 429.  A right-hand side that only the identity fixes is
    solved with the LU of (1/4) L itself, as without the symmetries."""

    def __init__(self, quarter_laplacian, maps):
        self.quarter_laplacian, self.maps = quarter_laplacian, maps
        self.factors = {}  # stabilizer (kept-map indices) -> LU or _ReducedLU
        self.factorizations = 0

    def solve(self, b):
        stabilizer = _stabilizer(self.maps, b)
        if stabilizer not in self.factors:
            orbits = _Orbits(self.maps[list(stabilizer)]) if len(stabilizer) > 1 else None
            self.factors[stabilizer] = _orbit_factor(self.quarter_laplacian, orbits)
            self.factorizations += 1
        return self.factors[stabilizer].solve(b)


def _cached_laplacian_lu(grid):
    """The grid's n = 1 quarter-Laplacian solver (_OrbitLU), created once
    per grid with its lattice symmetries; its LUs, one per stabilizer, are
    factored by the first solves that need them.  It holds no reference to
    the grid, whose cache holds it, so a dropped grid is freed at once and
    not left to the cycle collector."""
    if "lap_lu" not in grid._cache:
        grid._cache["lap_lu"] = _OrbitLU(hessian_operators(grid)[0][0],
                                         lattice_symmetries(grid))
    return grid._cache["lap_lu"]


def solve_frozen(h, grid, tol=1e-8, initial=None):
    """Solve det(u_jk) = h(z) with zero boundary values; returns (u, report).

    n = 1 is one solve with the cached quarter-Laplacian LU; n >= 2 is
    solve_nonlinear from `initial` or, without one, from the scaled defining
    function of quadratic_subsolution.  tol must be finite and > 0.
    """
    _require_tol(tol)
    rhs = RhsSpec.frozen(grid, h)
    if grid.n == 1:
        h_int = rhs.frozen_values
        lu = _cached_laplacian_lu(grid)
        factored = lu.factorizations
        ui = np.minimum(lu.solve(h_int), 0.0)
        state = _semilinear_state(hessian_operators(grid)[0][0], ui, h_int)
        report = _make_report(state, 1, True, factorizations=lu.factorizations - factored)
        if report.final_residual > tol:
            # the direct solve is as good as the factorization permits
            report.flags = report.flags + ("linear_residual_above_tol",)
            report.converged = report.final_residual <= 10 * tol
        return ScalarField(grid, ui), report
    if initial is None:
        initial, _ = quadratic_subsolution(grid, rhs)
    return solve_nonlinear(rhs, initial, tol)


def _feasible_start(grid, rhs, start):
    """Blend a warm start toward a multiple of the strictly PSH defining
    function rho until the Newton state is strictly inside the cone; returns
    (u, complex Hessian of u, flags).  A start already inside costs one
    Hessian; only a blend evaluates rho's (_anchor).  The anchor itself is
    strictly inside, so every blend fails only for a start with a non-finite
    value: the anchor is then returned with no Hessian and the flag
    "feasible_start_anchor"."""
    mu = 1e-10
    hess = complex_hessian(ScalarField(grid, start))
    if np.min(hess.min_eigenvalue()) + mu > 0:
        return start, hess, ()
    rho, det_rho = _anchor(grid)
    t_anchor = max(1.0, (float(np.max(rhs.psi(np.minimum(start, 0.0))))
                         / float(np.min(det_rho))) ** (1.0 / grid.n))
    anchor = t_anchor * rho
    for beta in (0.05, 0.1, 0.2, 0.4, 0.8, 1.0):
        trial = (1 - beta) * start + beta * anchor
        hess = complex_hessian(ScalarField(grid, trial))
        if np.min(hess.min_eigenvalue()) + mu > 0:
            return trial, hess, ()
    log.warning("no blend of the start is inside the cone; starting from the anchor")
    return anchor, None, ("feasible_start_anchor",)


def apply_T(v, rhs, *, tol=1e-8, initial=None):
    """T(v) = solve_frozen(psi(., v)) on v's grid: one fixed-point step."""
    vi = v.interior
    if np.max(vi) > _T_POSITIVE_SLACK:
        raise PreconditionViolated("apply_T requires v <= 0")
    return solve_frozen(rhs.psi(np.minimum(vi, 0.0)), v.grid, tol, initial=initial)


# ---------------------------------------------------------------------------
# Verification predicates
# ---------------------------------------------------------------------------


def check_subsolution(u_lower, rhs, tol=1e-8):
    """det(u) >= psi(., u) - tol nodewise, u PSH within tol, u <= 0."""
    ui = u_lower.interior
    if np.max(ui) > tol:
        return False
    hess = complex_hessian(u_lower)
    if np.min(hess.min_eigenvalue()) < -tol:
        return False
    return bool(np.all(hess.det() >= rhs.psi(np.minimum(ui, 0.0)) - tol))


# ---------------------------------------------------------------------------
# Monotone outer iteration
# ---------------------------------------------------------------------------


# Outer steps of monotone_iteration before NotConverged.
_MAX_OUTER = 2000


def monotone_iteration(u_lower, rhs, *, tol=1e-8, iterate_sink=None):
    """Iterate u_{j+1} = T(u_j) from a subsolution (check_subsolution, else
    PreconditionViolated); for psi nonincreasing in u the iterates increase
    to the unique fixed point, NotConverged if not within _MAX_OUTER steps.

    Returns (u, history) where history[j] = max nodewise increment of step j.
    iterate_sink, if given, collects the iterates u_1, u_2, ... (ScalarFields);
    the verify row diagnostic-boundedness measures their derivatives.
    """
    if rhs.monotonicity != NONINCREASING:
        raise PreconditionViolated(
            "monotone iteration requires a right-hand side nonincreasing in u"
        )
    if not check_subsolution(u_lower, rhs, tol=max(tol, 1e-10)):
        raise PreconditionViolated("starting field is not a subsolution at this tolerance")
    inner_tol = tol / 10.0
    history = []
    u = u_lower
    for _ in range(_MAX_OUTER):
        u_next, _ = apply_T(u, rhs, tol=inner_tol, initial=u)
        if iterate_sink is not None:
            iterate_sink.append(u_next)
        step = u_next.interior - u.interior
        drop = float(np.min(step))
        if drop < -10.0 * tol:
            raise MonotonicityViolated(
                f"iterate decreased by {-drop:.3e} > 10*tol at some node"
            )
        history.append(float(np.max(step)))
        u = u_next
        hess = complex_hessian(u)
        res = float(np.max(np.abs(hess.det() - rhs.psi(np.minimum(u.interior, 0.0)))))
        if res <= tol:
            return u, history
    raise NotConverged(
        f"outer iteration reached {_MAX_OUTER} steps; last increment {history[-1]:.3e}"
    )


# ---------------------------------------------------------------------------
# Quasi-monotone right-hand sides (dH/dt >= -lambda_0, lambda_0 < lambda_1)
# ---------------------------------------------------------------------------


def solve_quasimonotone(rhs, lambda1_estimate, *, tol=1e-8):
    """Solve det = H^n(., u) for dH/dt >= -lambda_0 with lambda_0 < lambda_1.

    Re-solves from three initializations (certified subsolution, the solution
    of the u = 0 frozen problem, randomized PSH field) and compares; pairwise
    sup-distance >= 10 tol flags potential non-uniqueness in the report rather
    than raising.
    """
    grid = rhs.grid
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
        rand = float(rng.uniform(0.5, 2.0)) * grid.rho_interior + rng.normal(
            size=grid.num_interior) * (1e-2 * grid.h ** 2)
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
    return ScalarField(grid, solutions[0][1]), report
