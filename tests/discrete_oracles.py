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
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigs, spsolve

from cmaeig.dirichlet import RhsSpec, _logdet_form, _orbits
from cmaeig.domain import density_vector
from cmaeig.hessian import laplacian_matrix

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
        return _logdet_form(grid, RhsSpec.eigen(grid, lam, fn), _FORM_TOL, _orbits(grid, None))

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
