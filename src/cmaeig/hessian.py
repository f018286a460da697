"""Discrete complex Hessians and pointwise Monge-Ampere quantities.

Every field vanishes on the boundary of the domain, so a ScalarField holds
only its values at the interior nodes.  The complex Hessian
u_{jk} = d^2u / dz_j dz_k-bar is built from real second differences through

    u_{jk} = 1/4 [ (u_{x_j x_k} + u_{y_j y_k}) + i (u_{x_j y_k} - u_{y_j x_k}) ],

with every second derivative realized as a three-point difference along a
lattice direction: pure derivatives along the axes, mixed derivatives through
the diagonal identity u_ab = 1/4 (D^2_{a+b} - D^2_{a-b}), where D^2_v is the
second difference along the direction e_a +- e_b.  Each D^2_v is
second_difference_matrix (interior -> interior): one-sided Shortley-Weller
differences place the value 0 at the exact crossing of {rho = 0} (fractions
from the grid), so the stencils are exact on quadratics vanishing there.

hessian_operators caches the combination as sparse operators (at n = 1 the
quarter Laplacian); complex_hessian applies them.  trace_operator fills the
log-det Jacobian from the grid's cached assembly plan (_trace_plan, built
once from those operators) with one sparse matvec, and every eigenvalue,
det, trace and inverse is HermitianField's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .domain import GridDomain, direction_thetas
from .errors import NotPositiveSemiDefinite, NotPSH


def default_psh_tol(grid):
    """Tolerance matched to the truncation-error scale of the stencils."""
    return 10.0 * grid.h ** 2


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real-valued lattice function with zero boundary values, held as a
    read-only copy of its values at the interior nodes (grid order)."""

    grid: GridDomain
    interior: np.ndarray

    def __post_init__(self):
        vals = np.array(self.interior, dtype=float)
        if vals.shape != (self.grid.num_interior,):
            raise ValueError("a field holds one value per interior node")
        vals.flags.writeable = False
        object.__setattr__(self, "interior", vals)

    def sup_norm(self):
        return float(np.max(np.abs(self.interior)))


@dataclass
class HermitianField:
    """Per-interior-node Hermitian n x n matrix, stored as a real diagonal and
    the strict upper triangle (pairs (j,k) with j < k in lexicographic order),
    so no representable value can break M = M*."""

    grid: GridDomain
    diag: np.ndarray  # (N, n) real
    tri: np.ndarray  # (N, n(n-1)/2) complex, entry m holds M_{j k}, j < k

    def __post_init__(self):
        n = self.grid.n
        N = self.grid.num_interior
        self.diag = np.asarray(self.diag, dtype=float).reshape(N, n)
        self.tri = np.asarray(self.tri, dtype=complex).reshape(N, n * (n - 1) // 2)

    @staticmethod
    def pairs(n):
        return [(j, k) for j in range(n) for k in range(j + 1, n)]

    def matrices(self):
        n = self.grid.n
        N = self.grid.num_interior
        M = np.zeros((N, n, n), dtype=complex)
        for j in range(n):
            M[:, j, j] = self.diag[:, j]
        for m, (j, k) in enumerate(self.pairs(n)):
            M[:, j, k] = self.tri[:, m]
            M[:, k, j] = np.conj(self.tri[:, m])
        return M

    def det(self):
        n = self.grid.n
        if n == 1:
            return self.diag[:, 0].copy()
        if n == 2:
            return self.diag[:, 0] * self.diag[:, 1] - np.abs(self.tri[:, 0]) ** 2
        return np.linalg.det(self.matrices()).real

    def eigenvalues(self):
        """(N, n) real eigenvalues in ascending order."""
        n = self.grid.n
        if n == 1:
            return self.diag.copy()
        if n == 2:
            mean = 0.5 * (self.diag[:, 0] + self.diag[:, 1])
            rad = np.sqrt(
                0.25 * (self.diag[:, 0] - self.diag[:, 1]) ** 2
                + np.abs(self.tri[:, 0]) ** 2
            )
            return np.stack([mean - rad, mean + rad], axis=1)
        return np.linalg.eigvalsh(self.matrices())

    def inverse(self, shift=0.0):
        """(M + shift I)^-1 per node: adjugate over determinant at n <= 2,
        np.linalg.inv (upper triangle kept) for n >= 3."""
        n = self.grid.n
        if n == 1:
            return HermitianField(self.grid, 1.0 / (self.diag + shift), self.tri)
        if n == 2:
            a = self.diag[:, 0] + shift
            c = self.diag[:, 1] + shift
            b = self.tri[:, 0]
            det = a * c - np.abs(b) ** 2
            return HermitianField(self.grid, np.stack([c / det, a / det], axis=1), -b / det)
        W = np.linalg.inv(self.matrices() + shift * np.eye(n))
        j, k = np.triu_indices(n, 1)  # the pairs of self.pairs(n), in order
        return HermitianField(self.grid, np.diagonal(W, axis1=1, axis2=2).real, W[:, j, k])

    def min_eigenvalue(self):
        return self.eigenvalues()[:, 0]


@dataclass
class DualMatrixSet:
    """Hermitian positive matrices with det >= 1, always containing the identity."""

    matrices: list = field(default_factory=list)

    def __post_init__(self):
        n = None
        cleaned = []
        for a in self.matrices:
            a = np.asarray(a, dtype=complex)
            n = a.shape[0] if n is None else n
            if a.shape != (n, n) or not np.allclose(a, a.conj().T, atol=1e-12):
                raise ValueError("dual matrices must be square Hermitian of equal size")
            w = np.linalg.eigvalsh(a)
            if w[0] <= 0:
                raise ValueError("dual matrices must be positive definite")
            if np.prod(w) < 1.0 - 1e-12:
                raise ValueError("dual matrices must have det >= 1")
            cleaned.append(a)
        if n is None:
            raise ValueError("empty dual set; use DualMatrixSet.sample or pass matrices")
        if not any(np.array_equal(a, np.eye(n)) for a in cleaned):
            cleaned.insert(0, np.eye(n, dtype=complex))
        self.matrices = cleaned

    @property
    def n(self):
        return self.matrices[0].shape[0]

    @classmethod
    def sample(cls, n, count=64, seed=0):
        """count random unit-determinant Hermitian PD matrices Q diag(d) Q*,
        with log d uniform on [-1, 1] before d is scaled to unit product."""
        rng = np.random.default_rng(seed)
        mats = [np.eye(n, dtype=complex)]
        for _ in range(count):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, _ = np.linalg.qr(z)
            d = np.exp(rng.uniform(-1.0, 1.0, size=n))
            d /= np.prod(d) ** (1.0 / n)
            mats.append((q * d) @ q.conj().T)
        return cls(mats)


# ---------------------------------------------------------------------------
# Second-difference operators
# ---------------------------------------------------------------------------


def second_difference_matrix(grid, v):
    """Sparse operator for u -> D^2_v u on zero-boundary fields (interior -> interior).

    Rows approximate v^T (D^2 u) v; one-sided fractions place the value 0 at
    the curved boundary, keeping the stencil exact on quadratics vanishing
    there.
    """
    key = ("sw", tuple(v))
    if key in grid._cache:
        return grid._cache[key]
    dv = grid.offset(v)
    N = grid.num_interior
    theta = direction_thetas(grid, v)
    tp, tm = theta[:, 0], theta[:, 1]
    pos_p = grid.interior_pos[grid.interior_flat + dv]
    pos_m = grid.interior_pos[grid.interior_flat - dv]
    inv_h2 = 1.0 / grid.h ** 2
    rows = [np.arange(N)]
    cols = [np.arange(N)]
    data = [-2.0 * inv_h2 / (tp * tm)]
    keep_p = pos_p >= 0
    rows.append(np.flatnonzero(keep_p))
    cols.append(pos_p[keep_p])
    data.append((2.0 * inv_h2 / (tp * (tp + tm)))[keep_p])
    keep_m = pos_m >= 0
    rows.append(np.flatnonzero(keep_m))
    cols.append(pos_m[keep_m])
    data.append((2.0 * inv_h2 / (tm * (tp + tm)))[keep_m])
    mat = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    )
    grid._cache[key] = mat
    return mat


def _axis_vec(d, a, b=None, sign=1):
    v = [0] * d
    v[a] = 1
    if b is not None:
        v[b] = sign
    return tuple(v)


def laplacian_matrix(grid):
    """Sum of the axis second-difference operators."""
    key = ("laplacian",)
    if key not in grid._cache:
        d = 2 * grid.n
        L = second_difference_matrix(grid, _axis_vec(d, 0))
        for a in range(1, d):
            L = L + second_difference_matrix(grid, _axis_vec(d, a))
        grid._cache[key] = L.tocsr()
    return grid._cache[key]


# ---------------------------------------------------------------------------
# Complex Hessian and derived quantities
# ---------------------------------------------------------------------------


def hessian_operators(grid):
    """Cached sparse operators of the complex Hessian: (diag, mixed), where
    diag[j] maps a field's interior values to u_jj and mixed[m] is the pair
    (Re, Im) of u_jk for the m-th pair j < k of HermitianField.pairs(n).
    For n = 1 the single diagonal operator is the quarter Laplacian, a
    quarter of laplacian_matrix(grid)."""
    key = ("hessian_ops",)
    if key not in grid._cache:
        n, d = grid.n, 2 * grid.n

        def D(*axes):
            return second_difference_matrix(grid, _axis_vec(d, *axes))

        def second(a, b):  # u_{ab} for a != b, through the diagonal identity
            return 0.25 * (D(a, b, +1) - D(a, b, -1))

        diag = [0.25 * (D(2 * j) + D(2 * j + 1)) for j in range(n)]
        mixed = [
            (
                0.25 * (second(2 * j, 2 * k) + second(2 * j + 1, 2 * k + 1)),
                0.25 * (second(2 * j, 2 * k + 1) - second(2 * j + 1, 2 * k)),
            )
            for j, k in HermitianField.pairs(n)
        ]
        grid._cache[key] = (diag, mixed)
    return grid._cache[key]


def _trace_plan(grid):
    """trace_operator's assembly on a grid, cached and built from
    hessian_operators(grid): (B, indices, indptr), where (indices, indptr) is
    a CSC pattern and the values on it are B @ x, with x stacking the
    per-node weights slot by slot: W_jj for each j, then 2 Re W_jk and
    2 Im W_jk for each pair j < k, then the diagonal shift.

    The pattern is the union of the operators' patterns and the diagonal; it
    keeps the entries whose weighted sum cancels as explicit zeros.  Each row
    of B lists one pattern entry's operator values in slot order, so the
    matvec sums every entry in the order of the per-slot loop
    sum_s diag(x_s) @ op_s."""
    key = ("trace_plan",)
    if key not in grid._cache:
        N = grid.num_interior
        diag, mixed = hessian_operators(grid)
        ops = [*diag, *(op for pair in mixed for op in pair), sparse.identity(N)]
        coo = [op.tocoo() for op in ops]
        rows = np.concatenate([c.row for c in coo]).astype(np.int64)
        cols = np.concatenate([c.col for c in coo]).astype(np.int64)
        slots = np.concatenate([np.full(c.nnz, s, dtype=np.int64) for s, c in enumerate(coo)])
        # column-major keys: np.unique's sorted order is the CSC order
        pattern, position = np.unique(cols * N + rows, return_inverse=True)
        indptr = np.searchsorted(pattern // N, np.arange(N + 1)).astype(np.int32)
        indices = (pattern % N).astype(np.int32)
        B = sparse.csr_matrix(
            (np.concatenate([c.data for c in coo]), (position, slots * N + rows)),
            shape=(pattern.size, len(ops) * N),
        )
        for shared in (indices, indptr):  # every Jacobian of the grid views them
            shared.flags.writeable = False
        grid._cache[key] = (B, indices, indptr)
    return grid._cache[key]


def trace_operator(grid, W, shift=None):
    """CSC operator u -> Re tr(W M(u)) + shift * u for a HermitianField W
    and an optional per-node shift.

    At W = (M(u) + mu I)^-1 this is the Jacobian of sum log eig(M(u) + mu I).
    W_kj u_jk + W_jk u_kj = 2 Re(W_kj u_jk) = 2 Re W_jk Re u_jk
    + 2 Im W_jk Im u_jk for Hermitian W and M, so the values are one matvec
    of the grid's _trace_plan.
    """
    B, indices, indptr = _trace_plan(grid)
    N = grid.num_interior
    x = np.empty((B.shape[1] // N, N))
    x[:grid.n] = W.diag.T
    x[grid.n:-1:2] = 2.0 * W.tri.real.T
    x[grid.n + 1:-1:2] = 2.0 * W.tri.imag.T
    x[-1] = 0.0 if shift is None else shift
    return sparse.csc_matrix((B @ x.ravel(), indices, indptr), shape=(N, N))


def complex_hessian(u):
    """The complex Hessian of u by the grid's cached operators."""
    vals = u.interior
    diag, mixed = hessian_operators(u.grid)
    tri = np.array([re @ vals + 1j * (im @ vals) for re, im in mixed])
    return HermitianField(u.grid, np.array([op @ vals for op in diag]).T, tri.T)


def ma_det(u):
    """Pointwise determinant of the complex Hessian (1/4 Laplacian when n=1)."""
    return ScalarField(u.grid, complex_hessian(u).det())


@dataclass
class PshReport:
    ok: bool
    min_eigenvalue: float
    coords: tuple  # plain floats


def is_psh(u):
    """(ok, PshReport): ok when the smallest Hessian eigenvalue is >= -default_psh_tol."""
    tol = default_psh_tol(u.grid)
    lam = complex_hessian(u).min_eigenvalue()
    worst = int(np.argmin(lam))
    report = PshReport(
        ok=bool(lam[worst] >= -tol),
        min_eigenvalue=float(lam[worst]),
        coords=u.grid.interior_point(worst),
    )
    return report.ok, report


def require_psh(u, name="field"):
    """Raise NotPSH unless is_psh(u); returns the PshReport."""
    ok, report = is_psh(u)
    if not ok:
        raise NotPSH(
            f"{name} is not PSH: smallest Hessian eigenvalue "
            f"{report.min_eigenvalue:.3e} at node {report.coords}"
        )
    return report


# Most negative eigenvalue gaveau_value accepts as positive semidefinite.
_GAVEAU_PSD_TOL = 1e-10


def gaveau_value(M, duals):
    """min over the dual set of (1/n) tr(a M); >= det(M)^{1/n} for PSD M.

    The analytic minimizer det(M)^{1/n} M^{-1} is appended automatically when
    M is nonsingular, which makes the bound an equality.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    w = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    if w[0] < -_GAVEAU_PSD_TOL:
        raise NotPositiveSemiDefinite(
            f"matrix has eigenvalue {w[0]:.3e} < -{_GAVEAU_PSD_TOL:.1e}"
        )
    candidates = list(duals.matrices)
    scale = max(1.0, float(w[-1]))
    if w[0] > 1e-13 * scale:
        det_root = float(np.prod(np.maximum(w, 0.0))) ** (1.0 / n)
        candidates.append(det_root * np.linalg.inv(M))
    return min(float(np.trace(a @ M).real) / n for a in candidates)


# ---------------------------------------------------------------------------
# Random PSH test fields (n = 1)
# ---------------------------------------------------------------------------


def random_psh_field(grid, rng):
    """Random discretely-PSH zero-boundary field on a one-dimensional domain.

    Takes the max of a scaled copy of the domain's defining function rho
    with a few random PSH quadratics, each shifted to lie strictly below that
    copy on the cut layer.  Because every one-sided row then sees rho (which
    vanishes at the crossings) and max preserves discrete subharmonicity at
    rows with nonnegative off-center coefficients, the result is PSH at
    tolerance 0 whenever rho is discretely subharmonic.
    """
    if grid.n != 1:
        raise ValueError("random quadratic-max fields are one-dimensional only")
    base = float(rng.uniform(0.5, 2.0)) * grid.rho_interior
    layer = np.flatnonzero((grid.nbr_ipos < 0).any(axis=(1, 2)))
    fields = [base]
    for _ in range(int(rng.integers(2, 5))):
        p = rng.uniform(-0.4, 0.4, size=2)
        wq = float(rng.uniform(0.0, 2.0))
        alpha = rng.normal(scale=0.3) + 1j * rng.normal(scale=0.3)
        x = grid.interior_coords[:, 0] - p[0]
        y = grid.interior_coords[:, 1] - p[1]
        z2 = (x + 1j * y) ** 2
        q = wq * (x ** 2 + y ** 2) + (alpha * z2).real + rng.normal(scale=0.2) * x
        shift = np.max(q[layer] - base[layer]) if layer.size else np.max(q)
        q -= shift + 1e-3
        fields.append(q)
    return ScalarField(grid, np.max(np.stack(fields), axis=0))
