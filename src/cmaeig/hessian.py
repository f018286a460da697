"""Discrete complex Hessians and pointwise Monge-Ampere quantities.

Every field vanishes on the boundary of the domain, so a ScalarField holds
only its values at the interior nodes.  The complex Hessian
u_{jk} = d^2u / dz_j dz_k-bar is built from real second differences through

    u_{jk} = 1/4 [ (u_{x_j x_k} + u_{y_j y_k}) + i (u_{x_j y_k} - u_{y_j x_k}) ],

with every second derivative realized as a three-point difference along a
lattice direction: pure derivatives along the axes, mixed derivatives through
the diagonal identity u_ab = 1/4 (D^2_{a+b} - D^2_{a-b}), where D^2_v is the
second difference along the direction e_a +- e_b.  Every D^2_v is a
one-sided Shortley-Weller difference that places the value 0 at the exact
crossing of {rho = 0} (fractions from the grid), so the stencils are exact
on quadratics vanishing there; _stencil holds its coefficients, the one
source of second_difference_matrix (interior -> interior), laplacian_matrix
and the Hessian's operators.

Every operator acts on the orbits of a group of the grid's lattice
symmetries (domain.symmetry_orbits), one value per orbit; the trivial group,
one node per orbit, stands for every interior node.  hessian_operators
assembles the combination (at n = 1 the quarter Laplacian) once per grid, as
one sparse operator per entry straight into CSR from the coefficients of its
directions, and caches each group's reductions R D P of it; hessian_at
applies them (complex_hessian the trivial group's) and the grid keeps its
latest result.  trace_operator fills the log-det Jacobian R J P from the
grid's cached assembly plan for those operators (_trace_plan) with one
sparse matvec, and every eigenvalue, det, trace and inverse is
HermitianField's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .domain import GridDomain, direction_thetas, symmetry_orbits
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
    """Hermitian n x n matrix per node, at every interior node or at one node
    per symmetry orbit (hessian_at), stored as a real diagonal and the strict
    upper triangle (pairs (j,k) with j < k in lexicographic order), so no
    representable value can break M = M*."""

    grid: GridDomain
    diag: np.ndarray  # (nodes, n) real
    tri: np.ndarray  # (nodes, n(n-1)/2) complex, entry m holds M_{j k}, j < k

    def __post_init__(self):
        n = self.grid.n
        self.diag = np.asarray(self.diag, dtype=float).reshape(-1, n)
        self.tri = np.asarray(self.tri, dtype=complex).reshape(len(self.diag), n * (n - 1) // 2)

    @staticmethod
    def pairs(n):
        return [(j, k) for j in range(n) for k in range(j + 1, n)]

    def matrices(self):
        n = self.grid.n
        M = np.zeros((len(self.diag), n, n), dtype=complex)
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
        """(nodes, n) real eigenvalues in ascending order."""
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


def _stencil(grid, v):
    """Shortley-Weller coefficients of D^2_v at every interior node, from the
    crossing fractions and h alone: (centre, neighbours), where neighbours
    lists (offset, column, coefficient) for the +v and -v neighbours, column
    being the neighbour's interior position or -1.

    Rows approximate v^T (D^2 u) v; one-sided fractions place the value 0 at
    the curved boundary, keeping the stencil exact on quadratics vanishing
    there."""
    dv = grid.offset(v)
    theta = direction_thetas(grid, v)
    tp, tm = theta[:, 0], theta[:, 1]
    inv_h2 = 1.0 / grid.h ** 2
    pos = grid.interior_pos
    return -2.0 * inv_h2 / (tp * tm), [
        (dv, pos[grid.interior_flat + dv], 2.0 * inv_h2 / (tp * (tp + tm))),
        (-dv, pos[grid.interior_flat - dv], 2.0 * inv_h2 / (tm * (tp + tm))),
    ]


def _scaled(neighbours, factor):
    return [(offset, column, factor * coef) for offset, column, coef in neighbours]


def _assemble(grid, centre, neighbours):
    """Canonical CSR operator (interior -> interior) with the centre
    coefficient on the diagonal and each (offset, column, coefficient) of
    neighbours, at distinct offsets, off it.  Interior positions follow the
    lattice order, so sorting by offset sorts every row's columns.  Columns
    -1 and exact zeros are left out, as scipy's sparse sums drop them."""
    N = grid.num_interior
    entries = sorted([(0, np.arange(N), centre), *neighbours], key=lambda e: e[0])
    cols = np.stack([column for _, column, _ in entries], axis=1)
    vals = np.stack([coef for _, _, coef in entries], axis=1)
    keep = (cols >= 0) & (vals != 0.0)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    return sparse.csr_matrix((vals[keep], cols[keep], indptr), shape=(N, N))


def second_difference_matrix(grid, v):
    """Sparse operator for u -> D^2_v u on zero-boundary fields (interior ->
    interior), from _stencil's coefficients; cached on the grid."""
    key = ("sw", tuple(v))
    if key not in grid._cache:
        grid._cache[key] = _assemble(grid, *_stencil(grid, v))
    return grid._cache[key]


def _axis_vec(d, a, b=None, sign=1):
    v = [0] * d
    v[a] = 1
    if b is not None:
        v[b] = sign
    return tuple(v)


def laplacian_matrix(grid):
    """Sum of the axis second-difference operators, centres added in axis
    order; cached on the grid."""
    key = ("laplacian",)
    if key not in grid._cache:
        d = 2 * grid.n
        centre, neighbours = _stencil(grid, _axis_vec(d, 0))
        for a in range(1, d):
            c, nb = _stencil(grid, _axis_vec(d, a))
            centre, neighbours = centre + c, neighbours + nb
        grid._cache[key] = _assemble(grid, centre, neighbours)
    return grid._cache[key]


# ---------------------------------------------------------------------------
# Complex Hessian and derived quantities
# ---------------------------------------------------------------------------


def hessian_operators(grid, orbits):
    """Cached sparse operators of the complex Hessian on `orbits`
    (domain.symmetry_orbits): (diag, mixed), where diag[j] maps the orbit
    values to u_jj at each orbit's representative and mixed[m] is the pair
    (Re, Im) of u_jk for the m-th pair j < k of HermitianField.pairs(n).
    For n = 1 the single diagonal operator is the quarter Laplacian.

    The trivial group's are the operators on every interior node
    (_assemble_hessian), built once per grid.  Every operator D commutes
    with the group, and each other group's operators are their reductions
    R D P (orbits.reduce), cached on the grid per orbits."""
    key = ("hessian_ops", orbits)
    if key not in grid._cache:
        trivial = symmetry_orbits(grid, None)
        if orbits is trivial:
            grid._cache[key] = _assemble_hessian(grid)
        else:
            diag, mixed = hessian_operators(grid, trivial)
            grid._cache[key] = ([orbits.reduce(op) for op in diag],
                                [(orbits.reduce(re), orbits.reduce(im)) for re, im in mixed])
    return grid._cache[key]


def _assemble_hessian(grid):
    """hessian_operators on every interior node (at n = 1 a quarter of
    laplacian_matrix(grid)), each assembled once from the _stencil
    coefficients, with the values that sparse sums of
    second_difference_matrix give, bit for bit: u_jj = 1/4 (D^2_xj +
    D^2_yj), u_ab = 1/4 (D^2_(a+b) - D^2_(a-b)) for a != b, Re u_jk = 1/4
    (u_xjxk + u_yjyk) and Im u_jk = 1/4 (u_xjyk - u_yjxk)."""
    n, d = grid.n, 2 * grid.n

    def S(*axes):
        return _stencil(grid, _axis_vec(d, *axes))

    def summed(p, q, sign):  # 1/4 (p + sign * q) of two (centre, neighbours)
        return 0.25 * (p[0] + sign * q[0]), _scaled(p[1], 0.25) + _scaled(q[1], 0.25 * sign)

    def second(a, b):  # u_ab for a != b, through the diagonal identity
        return summed(S(a, b, +1), S(a, b, -1), -1.0)

    diag = [_assemble(grid, *summed(S(2 * j), S(2 * j + 1), 1.0)) for j in range(n)]
    mixed = [
        (
            _assemble(grid, *summed(second(2 * j, 2 * k), second(2 * j + 1, 2 * k + 1), 1.0)),
            _assemble(grid, *summed(second(2 * j, 2 * k + 1), second(2 * j + 1, 2 * k), -1.0)),
        )
        for j, k in HermitianField.pairs(n)
    ]
    return diag, mixed


def _trace_plan(grid, orbits):
    """trace_operator's assembly on a grid, cached per orbits and built from
    hessian_operators(grid, orbits): (B, indices, indptr), where (indices,
    indptr) is a CSC pattern and the values on it are B @ x, with x stacking
    the per-node weights slot by slot: W_jj for each j, then 2 Re W_jk and
    2 Im W_jk for each pair j < k, then the diagonal shift.

    The pattern is the union of the operators' patterns and the diagonal; it
    keeps the entries whose weighted sum cancels as explicit zeros.  Each row
    of B lists one pattern entry's operator values in slot order, so the
    matvec sums every entry in the order of the per-slot loop
    sum_s diag(x_s) @ op_s."""
    key = ("trace_plan", orbits)
    if key not in grid._cache:
        diag, mixed = hessian_operators(grid, orbits)
        N = diag[0].shape[0]
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


def trace_operator(grid, W, shift, orbits):
    """CSC operator u -> Re tr(W M(u)) + shift * u on the orbit values of
    `orbits`, for a HermitianField W and a per-node shift (or None) at the
    orbits' representatives.

    At W = (M(u) + mu I)^-1 this is the Jacobian of sum log eig(M(u) + mu I),
    R J P on one value per orbit.  W_kj u_jk + W_jk u_kj = 2 Re(W_kj u_jk)
    = 2 Re W_jk Re u_jk + 2 Im W_jk Im u_jk for Hermitian W and M, so the
    values are one matvec of the plan of the orbits' operators (_trace_plan).
    """
    B, indices, indptr = _trace_plan(grid, orbits)
    N = len(W.diag)
    x = np.empty((B.shape[1] // N, N))
    x[:grid.n] = W.diag.T
    x[grid.n:-1:2] = 2.0 * W.tri.real.T
    x[grid.n + 1:-1:2] = 2.0 * W.tri.imag.T
    x[-1] = 0.0 if shift is None else shift
    return sparse.csc_matrix((B @ x.ravel(), indices, indptr), shape=(N, N))


def complex_hessian(u):
    """The complex Hessian of u at every interior node (hessian_at on the
    trivial group)."""
    return hessian_at(u.grid, u.interior, symmetry_orbits(u.grid, None))


def hessian_at(grid, values, orbits):
    """The complex Hessian of the field P values at the representatives of
    `orbits` (domain.symmetry_orbits; values holds one value per orbit), by
    their operators (hessian_operators).

    The grid keeps the latest Hessian it evaluated beside its operators and
    (read-only) values, and a call with the same operators and the same
    values, bit for bit, returns it without evaluating again: an
    eigenfunction's PSH check and its determinant share one, and so do an
    inverse-power iterate's quotient and the start of the next frozen solve.
    The kept arrays are read-only and hold no reference to the grid."""
    ops = hessian_operators(grid, orbits)
    latest = grid._cache.get("latest_hessian")
    if latest is None or latest[0] is not ops or not np.array_equal(
            latest[1].view(np.uint64), values.view(np.uint64)):
        latest = (ops, *_evaluate(ops, values))
        grid._cache["latest_hessian"] = latest
    return HermitianField(grid, latest[2], latest[3])


def _evaluate(ops, values):
    """(values, diag, tri) of the complex Hessian that the operators `ops`
    (hessian_operators) give from values, all three read-only."""
    vals = values
    if vals.flags.writeable:
        vals = vals.copy()
        vals.flags.writeable = False
    diag_ops, mixed = ops
    diag = np.array([op @ vals for op in diag_ops]).T
    tri = np.array([re @ vals + 1j * (im @ vals) for re, im in mixed]).T
    for values in (diag, tri):
        values.flags.writeable = False
    return vals, diag, tri


def ma_det(u):
    """Pointwise determinant of the complex Hessian (1/4 Laplacian when n=1)."""
    return ScalarField(u.grid, complex_hessian(u).det())


@dataclass
class PshReport:
    ok: bool
    min_eigenvalue: float
    coords: tuple  # plain floats

    def require(self, name="field"):
        """This report; NotPSH naming `name` and the worst node unless ok."""
        if not self.ok:
            raise NotPSH(
                f"{name} is not PSH: smallest Hessian eigenvalue "
                f"{self.min_eigenvalue:.3e} at node {self.coords}"
            )
        return self


def psh_report(grid, values, orbits):
    """The PshReport of the field P values from its Hessian at the orbits'
    representatives (hessian_at): ok when the smallest eigenvalue is
    >= -default_psh_tol; its node is the worst representative."""
    lam = hessian_at(grid, values, orbits).min_eigenvalue()
    worst = int(np.argmin(lam))
    return PshReport(
        ok=bool(lam[worst] >= -default_psh_tol(grid)),
        min_eigenvalue=float(lam[worst]),
        coords=grid.interior_point(orbits.representatives[worst]),
    )


def is_psh(u):
    """(ok, PshReport): ok when the smallest Hessian eigenvalue is >= -default_psh_tol."""
    report = psh_report(u.grid, u.interior, symmetry_orbits(u.grid, None))
    return report.ok, report


def require_psh(u, name="field"):
    """Raise NotPSH unless is_psh(u); returns the PshReport."""
    return is_psh(u)[1].require(name)


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
