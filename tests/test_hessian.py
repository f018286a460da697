import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import cmaeig.hessian as hessian
from cmaeig.domain import (
    Ball,
    CustomRho,
    Ellipsoid,
    GaussianBump,
    build_grid,
    density_vector,
    symmetry_orbits,
)
from cmaeig.errors import NotPositiveSemiDefinite, NotPSH
from cmaeig.hessian import (
    DualMatrixSet,
    HermitianField,
    ScalarField,
    complex_hessian,
    gaveau_value,
    hessian_at,
    hessian_operators,
    is_psh,
    laplacian_matrix,
    ma_det,
    random_psh_field,
    require_psh,
    second_difference_matrix,
    trace_operator,
)

from discrete_oracles import SKEW_N2, summed_hessian_operators, summed_laplacian


@pytest.fixture(scope="module")
def wide_ball4():
    # radius 1.5 so the lattice node (1, 0, 1, 0) ~ (z1, z2) = (1, 1) is interior
    return build_grid(Ball(n=2, radius=1.5), 0.25)


def abs2(p, j):
    return p[:, 2 * j] ** 2 + p[:, 2 * j + 1] ** 2


def deep_nodes(g):
    """Interior positions whose every stencil neighbour (along the axes and
    the diagonals e_a +- e_b) is interior: there every Shortley-Weller row is
    the centered three-point row, so the Hessian of a function sampled at the
    interior nodes is the Hessian of the function itself."""
    d = 2 * g.n
    dirs = [hessian._axis_vec(d, a) for a in range(d)]
    dirs += [hessian._axis_vec(d, a, b, s) for a in range(d) for b in range(a + 1, d)
             for s in (1, -1)]
    deep = np.ones(g.num_interior, dtype=bool)
    for v in dirs:
        for sign in (1, -1):
            deep &= g.interior_pos[g.interior_flat + sign * g.offset(v)] >= 0
    assert deep.sum() > 0
    return deep


def sampled(g, fn):
    """The zero-boundary field of fn's values at the interior nodes."""
    return ScalarField(g, fn(g.interior_coords))


def test_sampled_zsq_gives_identity(disc_grid_32, wide_ball4):
    for g in (disc_grid_32, wide_ball4):
        deep = deep_nodes(g)
        H = complex_hessian(sampled(g, lambda p: sum(abs2(p, j) for j in range(g.n))))
        assert np.max(np.abs(H.diag[deep] - 1.0)) == 0.0
        assert H.tri.size == 0 or np.max(np.abs(H.tri[deep])) == 0.0


def test_zero_boundary_defining_function_gives_identity(disc_grid_32, ball4_grid):
    # rho vanishes at the curved crossings, so the one-sided rows are exact too
    for g in (disc_grid_32, ball4_grid):
        H = complex_hessian(ScalarField(g, g.rho_interior))
        assert np.max(np.abs(H.diag - 1.0)) < 1e-11
        assert H.tri.size == 0 or np.max(np.abs(H.tri)) < 1e-11


def test_pluriharmonic_has_zero_hessian(disc_grid_32):
    u = sampled(disc_grid_32, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    H = complex_hessian(u)
    assert np.max(np.abs(H.diag[deep_nodes(disc_grid_32)])) == 0.0


def test_product_quartic_matches_symbolic_matrix(wide_ball4):
    g = wide_ball4
    deep = deep_nodes(g)
    u = sampled(g, lambda p: abs2(p, 0) * abs2(p, 1))
    H = complex_hessian(u)
    c = g.interior_coords
    z1 = c[:, 0] + 1j * c[:, 1]
    z2 = c[:, 2] + 1j * c[:, 3]
    # d^2/dz_j dz_k-bar of |z1 z2|^2 is [[|z2|^2, z2 conj(z1)], [..., |z1|^2]]
    assert np.max(np.abs(H.diag[deep, 0] - np.abs(z2[deep]) ** 2)) < 1e-9
    assert np.max(np.abs(H.diag[deep, 1] - np.abs(z1[deep]) ** 2)) < 1e-9
    assert np.max(np.abs(H.tri[deep, 0] - np.conj(z1[deep]) * z2[deep])) < 1e-9
    # the deep node farthest out along z1 = z2 real, where the matrix is
    # singular but not zero
    at = int(np.argmin(np.where(deep, np.sum((c - np.array([1.0, 0, 1.0, 0])) ** 2, axis=1),
                                np.inf)))
    assert np.abs(z1[at] * z2[at]) > 0.5
    assert H.det()[at] == pytest.approx(0.0, abs=1e-9)


def test_random_hermitian_quadratic_is_exact(wide_ball4):
    rng = np.random.default_rng(7)
    g = wide_ball4
    deep = deep_nodes(g)
    for _ in range(5):
        b11, b22 = rng.uniform(0.2, 2.0, 2)
        b12 = rng.normal() + 1j * rng.normal()
        a1 = rng.normal() + 1j * rng.normal()  # coefficient of Re(z1 z2): pluriharmonic

        def u_fn(p):
            z1 = p[:, 0] + 1j * p[:, 1]
            z2 = p[:, 2] + 1j * p[:, 3]
            herm = b11 * np.abs(z1) ** 2 + b22 * np.abs(z2) ** 2
            herm += 2 * (b12 * z1 * np.conj(z2)).real
            return herm + (a1 * z1 * z2).real + 0.3 * p[:, 0]

        H = complex_hessian(sampled(g, u_fn))
        assert np.max(np.abs(H.diag[deep, 0] - b11)) < 1e-10
        assert np.max(np.abs(H.diag[deep, 1] - b22)) < 1e-10
        assert np.max(np.abs(H.tri[deep, 0] - b12)) < 1e-10


def test_ma_det_constants(disc_grid_32, ball4_grid):
    u = sampled(disc_grid_32, lambda p: abs2(p, 0))
    assert np.max(np.abs(ma_det(u).interior[deep_nodes(disc_grid_32)] - 1.0)) == 0.0
    uab = sampled(ball4_grid, lambda p: 2.0 * abs2(p, 0) + 3.0 * abs2(p, 1))
    assert np.max(np.abs(ma_det(uab).interior[deep_nodes(ball4_grid)] - 6.0)) < 1e-12


def test_ma_det_quartic(disc_grid_32):
    g = disc_grid_32
    deep = deep_nodes(g)
    u = sampled(g, lambda p: abs2(p, 0) ** 2)
    r2 = abs2(g.interior_coords, 0)
    err = np.max(np.abs(ma_det(u).interior[deep] - 4.0 * r2[deep]))
    assert err <= 2.0 * g.h ** 2


def test_n1_det_is_quarter_laplacian(disc_grid_32):
    g = disc_grid_32
    rng = np.random.default_rng(3)
    ui = rng.normal(size=g.num_interior)
    u = ScalarField(g, ui)
    sx = second_difference_matrix(g, (1, 0))
    sy = second_difference_matrix(g, (0, 1))
    assert np.array_equal(ma_det(u).interior, 0.25 * (laplacian_matrix(g) @ ui))
    assert np.allclose(ma_det(u).interior, 0.25 * (sx @ ui + sy @ ui), atol=1e-9)


def per_direction_hessian(u):
    """Reference complex Hessian: every second difference applied to the
    field first, then u_jj = 1/4 (D2_xj + D2_yj) and u_jk = 1/4 [(u_xjxk +
    u_yjyk) + i (u_xjyk - u_yjxk)] with u_ab = 1/4 (D2_(a+b) - D2_(a-b))."""
    g = u.grid
    d = 2 * g.n

    def D(a, b=None, sign=1):
        v = [0] * d
        v[a] = 1
        if b is not None:
            v[b] = sign
        return second_difference_matrix(g, tuple(v)) @ u.interior

    def mixed(a, b):
        return 0.25 * (D(a, b, +1) - D(a, b, -1))

    diag = np.stack([0.25 * (D(2 * j) + D(2 * j + 1)) for j in range(g.n)], axis=1)
    tri = [0.25 * (mixed(2 * j, 2 * k) + mixed(2 * j + 1, 2 * k + 1))
           + 0.25j * (mixed(2 * j, 2 * k + 1) - mixed(2 * j + 1, 2 * k))
           for j in range(g.n) for k in range(j + 1, g.n)]
    return diag, np.array(tri).reshape(-1, g.num_interior).T


def test_hessian_operators_reproduce_complex_hessian(disc_grid_32, ball4_grid, wide_ball4):
    """complex_hessian (the cached summed operators) against the
    per-direction reference, on random fields."""
    rng = np.random.default_rng(4)
    fields = [ScalarField(g, rng.normal(size=g.num_interior))
              for g in (disc_grid_32, ball4_grid, wide_ball4)]
    for u in fields:
        H = complex_hessian(u)
        diag, tri = per_direction_hessian(u)
        scale = np.max(np.abs(diag))
        assert np.max(np.abs(H.diag - diag)) <= 1e-13 * scale
        assert tri.size == 0 or np.max(np.abs(H.tri - tri)) <= 1e-13 * scale
    (quarter_laplacian,), _ = hessian_operators(disc_grid_32, symmetry_orbits(disc_grid_32, None))
    assert (quarter_laplacian != 0.25 * laplacian_matrix(disc_grid_32)).nnz == 0


@pytest.mark.parametrize("which", ["disc", "ball4", "ellipsoid", "ball3", "skew"])
def test_hessian_operators_equal_the_summed_stencils(which, assembly_grids):
    """Each operator, assembled straight into CSR, has the indptr, indices
    and data of the sparse sums of second_difference_matrix, and so has
    laplacian_matrix of the axis sum (discrete_oracles)."""
    grid = assembly_grids[which]
    diag, mixed = hessian_operators(grid, symmetry_orbits(grid, None))
    ref_diag, ref_mixed = summed_hessian_operators(grid)
    pairs = [(laplacian_matrix(grid), summed_laplacian(grid)), *zip(diag, ref_diag),
             *((op, ref) for pair, ref_pair in zip(mixed, ref_mixed)
               for op, ref in zip(pair, ref_pair))]
    assert len(pairs) == 1 + grid.n ** 2
    for op, ref in pairs:
        assert op.format == ref.format == "csr" and op.has_canonical_format
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op, name), getattr(ref, name))


def test_complex_hessian_is_evaluated_once_per_field(ball4_grid, monkeypatch):
    """The grid keeps its latest Hessian: a field with the same values, bit
    for bit, gets it back unevaluated and read-only; other values, -0.0 for
    0.0 included, are evaluated."""
    real = hessian._evaluate
    evaluated = []

    def counted(ops, values):
        evaluated.append(values)
        return real(ops, values)

    monkeypatch.setattr(hessian, "_evaluate", counted)
    values = np.random.default_rng(6).normal(size=ball4_grid.num_interior)
    values[0] = 0.0
    first = complex_hessian(ScalarField(ball4_grid, values))
    again = complex_hessian(ScalarField(ball4_grid, values.copy()))
    assert len(evaluated) == 1
    assert np.array_equal(first.diag, again.diag) and np.array_equal(first.tri, again.tri)
    assert not again.diag.flags.writeable and not again.tri.flags.writeable
    values[0] = -0.0
    complex_hessian(ScalarField(ball4_grid, values))
    complex_hessian(ScalarField(ball4_grid, 2.0 * values))
    assert len(evaluated) == 3


@pytest.mark.parametrize("which", ["ball4", "ellipsoid-n2-bump"])
def test_reduced_hessian_matches_the_full_hessian_at_the_representatives(which, ball4_grid):
    """The Hessian of orbit values by the reduced operators R D P
    (hessian_at with orbits) is the Hessian of the expanded field at the
    orbits' representatives: entries within 2e-15 and the determinant
    within 1e-14 (relative) on the 4-ball at h = 0.25 (f = 1, 35 orbits)
    and on ellipsoid-n2-bump (its bump's 108 orbits), for a PSH invariant
    field near rho; the trace_operator Jacobian on the orbits is R J P."""
    if which == "ball4":
        grid, fn = ball4_grid, np.ones(ball4_grid.num_interior)
    else:
        with pytest.warns(UserWarning, match="quarter"):
            grid = build_grid(Ellipsoid((1.0, 0.7)), 0.25)
        fn = density_vector(GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0,
                                         width=0.5), grid, power=2)
    orbits = symmetry_orbits(grid, fn)
    reps = orbits.representatives
    assert reps.size == (35 if which == "ball4" else 108)
    rng = np.random.default_rng(7)
    x = orbits.restrict(grid.rho_interior) * (1.0 + 0.01 * rng.uniform(size=reps.size))
    full = complex_hessian(ScalarField(grid, orbits.expand(x)))
    reduced = hessian_at(grid, x, orbits)
    assert reduced.diag.shape == (reps.size, 2)
    assert np.max(np.abs(reduced.diag - full.diag[reps])) <= 2e-15 * np.max(np.abs(full.diag))
    assert np.max(np.abs(reduced.tri - full.tri[reps])) <= 2e-15 * np.max(np.abs(full.diag))
    det = full.det()[reps]
    assert np.min(det) > 0
    assert np.max(np.abs(reduced.det() - det) / det) <= 1e-14
    W = full.inverse()
    shift = rng.normal(size=grid.num_interior)[orbits.orbit]
    J = trace_operator(grid, HermitianField(grid, W.diag[reps], W.tri[reps]), shift[reps], orbits)
    full_J = trace_operator(grid, W, shift, symmetry_orbits(grid, None))
    assert np.allclose(J.toarray(), orbits.reduce(full_J).toarray(),
                       rtol=0.0, atol=1e-13 * abs(J).max())


def test_is_psh_trivials(disc_grid_32):
    g = disc_grid_32
    ok, rep = is_psh(ScalarField(g, g.rho_interior))
    assert ok and rep.min_eigenvalue >= 0.0
    ok, rep = is_psh(ScalarField(g, -g.rho_interior))
    assert not ok and rep.min_eigenvalue == pytest.approx(-1.0)
    # rho = |z|^2 + 1/2 (x^2 - y^2) - 1: the pluriharmonic part leaves rho's
    # Hessian at the identity
    ellipse = build_grid(CustomRho(1, {(2, 0): 1.5, (0, 2): 0.5, (0, 0): -1.0}, (0.0, 0.0),
                                   ((-1.0, 1.0), (-1.5, 1.5))), 1.0 / 32)
    ok, rep = is_psh(ScalarField(ellipse, ellipse.rho_interior))
    assert ok and rep.min_eigenvalue == pytest.approx(1.0)


def test_field_interior_is_a_read_only_copy(disc_grid_32):
    g = disc_grid_32
    source = g.rho_interior.copy()
    u = ScalarField(g, source)
    source[:] = 1.0
    assert np.array_equal(u.interior, g.rho_interior)
    assert not u.interior.flags.writeable
    with pytest.raises(ValueError):
        u.interior[0] = 1.0
    with pytest.raises(ValueError, match="interior node"):
        ScalarField(g, np.zeros(g.num_interior + 1))


def test_messages_print_node_coordinates_as_plain_floats(disc_grid_32):
    """A unit bump on rho at the centre node is the least PSH node; the
    messages print its coordinates as floats, not as numpy scalar reprs."""
    g = disc_grid_32
    vals = g.rho_interior.copy()
    vals[g.min_rho_position()] += 1.0
    bump = ScalarField(g, vals)
    with pytest.raises(NotPSH, match=r"at node \(0\.0, 0\.0\)$"):
        require_psh(bump, name="bump")


def test_gaveau_identity_and_closed_form_minimizer():
    duals = DualMatrixSet.sample(2, count=16, seed=4)
    assert gaveau_value(np.eye(2), duals) == pytest.approx(1.0, abs=1e-12)
    # analytic minimizer diag(2, 1/2) turns the bound into det^(1/2) = 2
    assert gaveau_value(np.diag([1.0, 4.0]), duals) == pytest.approx(2.0, abs=1e-10)


def test_gaveau_singular_sampling_study():
    M = np.diag([0.0, 1.0])
    vals = [
        gaveau_value(M, DualMatrixSet([np.diag([A, 1.0 / A])]))
        for A in (1.0, 10.0, 100.0)
    ]
    assert vals == sorted(vals, reverse=True)
    assert all(v >= 0.0 for v in vals)
    assert vals[-1] < 0.01


def test_gaveau_psd_guard():
    with pytest.raises(NotPositiveSemiDefinite):
        gaveau_value(np.diag([-1.0, 1.0]), DualMatrixSet.sample(2, count=4))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_gaveau_upper_bound_random_psd(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    M = z @ z.conj().T
    duals = DualMatrixSet.sample(n, count=8, seed=seed)
    val = gaveau_value(M, duals)
    root = float(np.prod(np.linalg.eigvalsh(M))) ** (1.0 / n)
    assert val >= root - 1e-10
    assert val <= root + 1e-10  # analytic minimizer was added: equality


def test_random_psh_fields_are_psh_at_zero_tol(disc_grid_32):
    rng = np.random.default_rng(42)
    for _ in range(20):
        _, rep = is_psh(random_psh_field(disc_grid_32, rng))
        assert rep.min_eigenvalue >= 0.0, rep


def test_loewner_determinant_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        za = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        zb = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = za @ za.conj().T
        B = A + zb @ zb.conj().T  # B - A is PSD by construction
        assert np.linalg.eigvalsh(B - A)[0] >= -1e-10
        assert np.linalg.det(A).real <= np.linalg.det(B).real + 1e-10


def test_dual_set_invariants():
    ds = DualMatrixSet.sample(2, count=10, seed=0)
    assert any(np.array_equal(a, np.eye(2)) for a in ds.matrices)
    for a in ds.matrices:
        w = np.linalg.eigvalsh(a)
        assert w[0] > 0
        assert np.prod(w) >= 1.0 - 1e-12
    with pytest.raises(ValueError):
        DualMatrixSet([np.diag([1.0, -1.0])])
    with pytest.raises(ValueError):
        DualMatrixSet([np.diag([0.5, 0.5])])
    # the identity is inserted when missing
    ds2 = DualMatrixSet([np.diag([2.0, 1.0])])
    assert np.array_equal(ds2.matrices[0], np.eye(2))


def test_hermitian_storage_is_structural(ball4_grid):
    H = complex_hessian(ScalarField(ball4_grid, ball4_grid.rho_interior))
    M = H.matrices()
    assert np.max(np.abs(M - np.conj(np.transpose(M, (0, 2, 1))))) == 0.0


# ---------------------------------------------------------------------------
# The log-det Jacobian's assembly
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def assembly_grids(disc_grid_32, ball4_grid):
    """One grid per dimension the assembly is checked on: the disc, the unit
    4-ball and the ellipsoid (1, 0.7) at h = 0.25, and the unit 6-ball at
    h = 0.5; and SKEW_N2 at h = 0.25, a grid with no lattice symmetry."""
    with pytest.warns(UserWarning, match="quarter"):
        ellipsoid = build_grid(Ellipsoid((1.0, 0.7)), 0.25)
    with pytest.warns(UserWarning, match="quarter"):
        ball3 = build_grid(Ball(n=3), 0.5)
    return {"disc": disc_grid_32, "ball4": ball4_grid, "ellipsoid": ellipsoid, "ball3": ball3,
            "skew": build_grid(SKEW_N2, 0.25)}


def random_hermitian_field(grid, rng):
    N, n = grid.num_interior, grid.n
    m = n * (n - 1) // 2
    return HermitianField(grid, rng.normal(size=(N, n)),
                          rng.normal(size=(N, m)) + 1j * rng.normal(size=(N, m)))


def weighted_operator_sum(grid, W, shift):
    """Reference assembly, one sparse product per operator: sum_j diag(W_jj)
    u_jj + sum_{j<k} diag(2 Re W_kj) Re u_jk - diag(2 Im W_kj) Im u_jk, plus
    diag(shift)."""
    M = W.matrices()
    diag, mixed = hessian_operators(grid, symmetry_orbits(grid, None))
    J = sparse.diags(M[:, 0, 0].real) @ diag[0]
    for j in range(1, grid.n):
        J = J + sparse.diags(M[:, j, j].real) @ diag[j]
    for (j, k), (re_op, im_op) in zip(HermitianField.pairs(grid.n), mixed):
        J = J + sparse.diags(2.0 * M[:, k, j].real) @ re_op
        J = J - sparse.diags(2.0 * M[:, k, j].imag) @ im_op
    return J if shift is None else J + sparse.diags(shift)


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("which", ["disc", "ball4", "ellipsoid", "ball3"])
def test_trace_operator_matches_weighted_operator_sum(which, shifted, assembly_grids):
    """trace_operator against the per-operator sparse sum, and its action
    against Re tr(W M(u)) + shift u evaluated through complex_hessian."""
    grid = assembly_grids[which]
    rng = np.random.default_rng(11)
    W = random_hermitian_field(grid, rng)
    shift = rng.normal(size=grid.num_interior) if shifted else None
    J = trace_operator(grid, W, shift, symmetry_orbits(grid, None))
    reference = weighted_operator_sum(grid, W, shift)
    assert J.format == "csc" and J.shape == reference.shape
    assert abs(J - reference).max() <= 1e-15 * abs(reference).max()
    u = rng.normal(size=grid.num_interior)
    M = complex_hessian(ScalarField(grid, u)).matrices()
    action = np.einsum("ijk,ikj->i", W.matrices(), M).real
    if shifted:
        action += shift * u
    assert np.max(np.abs(J @ u - action)) <= 1e-12 * np.max(np.abs(action))


@pytest.mark.parametrize("which", ["disc", "ball4", "ball3"])
def test_hermitian_inverse_matches_dense_inverse(which, assembly_grids):
    grid = assembly_grids[which]
    rng = np.random.default_rng(5)
    N, n = grid.num_interior, grid.n
    Z = rng.normal(size=(N, n, n)) + 1j * rng.normal(size=(N, n, n))
    A = Z @ np.conj(np.transpose(Z, (0, 2, 1))) + 0.1 * np.eye(n)
    upper = np.triu_indices(n, 1)  # the pairs j < k in HermitianField order
    H = HermitianField(grid, np.diagonal(A, axis1=1, axis2=2).real, A[:, upper[0], upper[1]])
    for shift in (0.0, 1e-3):
        dense = np.linalg.inv(A + shift * np.eye(n))
        W = H.inverse(shift)
        assert isinstance(W, HermitianField)
        assert np.max(np.abs(W.matrices() - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_trace_operator_reuses_the_cached_plan(monkeypatch):
    """The assembly plan is built from the grid's cached Hessian operators,
    once: later Jacobians build no stencil, no plan and no sparse.diags."""
    grid = build_grid(Ball(n=2), 0.25)
    every_node = symmetry_orbits(grid, None)
    hessian_operators(grid, every_node)
    stencils = []

    def counted(*args):
        stencils.append(args[1])
        return second_difference_matrix(*args)

    monkeypatch.setattr(hessian, "second_difference_matrix", counted)
    rng = np.random.default_rng(2)
    first = trace_operator(grid, random_hermitian_field(grid, rng), None, every_node)
    plan = grid._cache[("trace_plan", every_node)]

    def forbidden(*args, **kwargs):
        raise AssertionError("sparse.diags called after the plan was built")

    monkeypatch.setattr(sparse, "diags", forbidden)
    W = random_hermitian_field(grid, rng)
    second = trace_operator(grid, W, rng.normal(size=grid.num_interior), every_node)
    assert stencils == [] and grid._cache[("trace_plan", every_node)] is plan
    assert np.array_equal(first.indptr, second.indptr)
    assert np.array_equal(first.indices, second.indices)
