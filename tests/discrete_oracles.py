"""Exact eigenvalues of the discrete schemes, against which the grid routes
are gated as tightly as rounding allows (not as loosely as the continuum
error).

* n = 1: the scheme (1/4) L u = -lambda f u is a linear generalized
  eigenproblem, solved by shift-invert `eigs` about 0.
* n >= 2: one bordered Newton step on (u, lambda) for the log-det form of
  det M(u) = (-lambda u)^n f^n, polishing a route's eigenpair.  F(c u,
  lambda) = F(u, lambda), so J_u u ~ 0 at the eigenpair; fixing u at its
  deepest node borders the singular direction away.  The step needs a start
  inside Newton's basin: from a cold start the undamped step leaves the cone
  of plurisubharmonic fields at once, so this polishes a result and is not a
  third route.

It also holds the complex Hessian's operators composed by scipy's sparse
arithmetic from second_difference_matrix, against which the directly
assembled hessian_operators are checked bit for bit, and SKEW_N2, a C^2
domain with no lattice symmetry.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigs, spsolve

from cmaeig.dirichlet import RhsSpec, _logdet_form, symmetry_orbits
from cmaeig.domain import CustomRho, density_vector
from cmaeig.hessian import HermitianField, laplacian_matrix, second_difference_matrix

# A C^2 domain whose lattice keeps only the identity at h = 0.25 (rho has a
# cross term and linear terms, and no two axes alike), so its every solve runs
# on the trivial group.
SKEW_N2 = CustomRho(2, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.3, (0, 0, 2, 0): 1.1,
                        (0, 0, 0, 2): 0.9, (1, 0, 1, 0): 0.1, (1, 0, 0, 0): 0.1,
                        (0, 1, 0, 0): 0.07, (0, 0, 0, 0): -1.0},
                    (0.0,) * 4, ((-1.6, 1.6),) * 4)


# tol of the log-det form whose F and J_u the step uses: it sets the
# eigenvalue floor mu = tol * 1e-3, which moves lambda by about mu relative
_FORM_TOL = 1e-12


def n1_discrete_eigenvalue(grid, density):
    """Smallest eigenvalue of -(1/4) L u = lambda f u on the grid."""
    A = (-0.25 * laplacian_matrix(grid)).tocsc()
    M = sparse.diags(density_vector(density, grid)).tocsc()
    vals = eigs(A, k=1, M=M, sigma=0.0, which="LM", return_eigenvectors=False)
    return float(np.real(vals[0]))


def bordered_newton(grid, density, lam, u):
    """(lam, max|F| before, max|F| after) of one bordered Newton step on
    F(u, lam) = log det(M(u) + mu I) - log((-lam u)^n f^n + mu^n) from the
    eigenpair (lam, u), u the interior values, with u fixed at its deepest
    node.  dF/dlam = -n psi / (lam (psi + mu^n))."""
    n = grid.n
    mu = _FORM_TOL * 1e-3
    fn = density_vector(density, grid, power=n)

    def form(lam):
        return _logdet_form(grid, RhsSpec.eigen(grid, lam, fn), _FORM_TOL, symmetry_orbits(grid, None))

    evaluate, jacobian, *_ = form(lam)
    state = evaluate(u)
    F_lam = -n * state.psi / (lam * (state.psi + mu ** n))
    pin = sparse.csr_matrix(([1.0], ([0], [int(np.argmin(u))])), shape=(1, u.size))
    bordered = sparse.bmat([[jacobian(u, state), sparse.csr_matrix(F_lam[:, None])],
                            [pin, None]], format="csc")
    step = spsolve(bordered, np.append(-state.F, 0.0))
    u, lam = u + step[:-1], lam + step[-1]
    after = form(lam).evaluate(u)
    return float(lam), float(np.max(np.abs(state.F))), float(np.max(np.abs(after.F)))


def summed_hessian_operators(grid):
    """(diag, mixed) as hessian_operators returns them, composed by sparse
    sums and scalings of second_difference_matrix: u_jj = 1/4 (D2_xj +
    D2_yj), u_ab = 1/4 (D2_(a+b) - D2_(a-b)) for a != b, Re u_jk = 1/4
    (u_xjxk + u_yjyk) and Im u_jk = 1/4 (u_xjyk - u_yjxk)."""
    d = 2 * grid.n

    def D(a, b=None, sign=1):
        v = [0] * d
        v[a] = 1
        if b is not None:
            v[b] = sign
        return second_difference_matrix(grid, tuple(v))

    def second(a, b):
        return 0.25 * (D(a, b, +1) - D(a, b, -1))

    diag = [0.25 * (D(2 * j) + D(2 * j + 1)) for j in range(grid.n)]
    mixed = [(0.25 * (second(2 * j, 2 * k) + second(2 * j + 1, 2 * k + 1)),
              0.25 * (second(2 * j, 2 * k + 1) - second(2 * j + 1, 2 * k)))
             for j, k in HermitianField.pairs(grid.n)]
    return diag, mixed


def summed_laplacian(grid):
    """The axis second differences summed in axis order."""
    d = 2 * grid.n
    L = second_difference_matrix(grid, tuple(int(b == 0) for b in range(d)))
    for a in range(1, d):
        L = L + second_difference_matrix(grid, tuple(int(b == a) for b in range(d)))
    return L
