import numpy as np
import pytest

import cmaeig.dirichlet as dirichlet
from cmaeig.dirichlet import (
    RhsSpec,
    _logdet_form,
    _semilinear_form,
    apply_T,
    check_subsolution,
    check_supersolution,
    default_eps_schedule,
    monotone_iteration,
    quadratic_subsolution,
    solve_frozen,
    solve_nonlinear,
    solve_quasimonotone,
    solve_regularized,
)
from cmaeig.errors import (
    BranchInfeasible,
    EigenvalueBoundViolated,
    MonotonicityViolated,
    NotConverged,
    PreconditionViolated,
)
from cmaeig.domain import Constant, Ellipsoid, GaussianBump, build_grid
from cmaeig.hessian import ScalarField, complex_hessian, ma_det
from scipy import sparse
from scipy.sparse.linalg import spsolve

from oracles import (
    LAMBDA1_UNIT_DISC,
    branch_solution_disc,
    branch_sup_norm_disc,
    poisson_quartic_disc,
)


def r2_of(grid):
    c = grid.interior_coords
    return np.sum(c ** 2, axis=1)


def rho_field(grid):
    return ScalarField.from_interior(grid, r2_of(grid) - 1.0)


# ---------------------------------------------------------------------------
# solve_frozen
# ---------------------------------------------------------------------------


def test_frozen_constant_one_gives_defining_function(disc_grid_32, ball4_grid):
    for g, tol in ((disc_grid_32, 1e-11), (ball4_grid, 1e-9)):
        u, rep = solve_frozen(np.ones(g.num_interior), g, 1e-9)
        assert rep.converged and rep.final_residual <= 1e-9
        assert np.max(np.abs(u.interior - (r2_of(g) - 1.0))) < tol
        assert np.max(u.values) <= 0.0


def test_frozen_zero_gives_zero(disc_grid_32):
    u, rep = solve_frozen(np.zeros(disc_grid_32.num_interior), disc_grid_32, 1e-12)
    assert rep.sup_norm == 0.0


def test_frozen_quartic_disc(disc_grid_32):
    g = disc_grid_32
    u, rep = solve_frozen(4.0 * r2_of(g), g, 1e-10)
    exact = r2_of(g) ** 2 - 1.0
    assert np.max(np.abs(u.interior - exact)) <= 2.0 * g.h ** 2
    assert rep.converged


def test_frozen_rejects_negative_rhs(disc_grid_32):
    with pytest.raises(PreconditionViolated):
        solve_frozen(-np.ones(disc_grid_32.num_interior), disc_grid_32, 1e-8)


def test_frozen_report_invariant(disc_grid_32):
    rng = np.random.default_rng(0)
    h = rng.uniform(0.5, 2.0, disc_grid_32.num_interior)
    u, rep = solve_frozen(h, disc_grid_32, 1e-9)
    assert rep.converged
    assert rep.final_residual <= 1e-9
    assert rep.psh_margin >= -1e-9


def test_frozen_comparison_consistency(disc_grid_32):
    # psi1 <= psi2 implies u1 >= u2 (discrete comparison echo)
    g = disc_grid_32
    rng = np.random.default_rng(1)
    psi1 = rng.uniform(0.2, 1.0, g.num_interior)
    psi2 = psi1 + rng.uniform(0.0, 1.0, g.num_interior)
    tol = 1e-9
    u1, _ = solve_frozen(psi1, g, tol)
    u2, _ = solve_frozen(psi2, g, tol)
    assert np.all(u1.interior >= u2.interior - 10 * tol)


@pytest.mark.parametrize("which", ["ball4", "ellipsoid_bump"])
def test_logdet_jacobian_matches_central_difference(which, ball4_grid):
    """The assembled Newton Jacobian of F(u) = sum log eig(M(u) + mu I)
    - log(psi(u) + mu^n) against a central difference along a random direction."""
    if which == "ball4":
        grid, density = ball4_grid, Constant(1.0)
    else:
        with pytest.warns(UserWarning, match="quarter"):
            grid = build_grid(Ellipsoid((1.0, 0.7)), 0.25)
        density = GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0, width=0.5)
    rhs = RhsSpec.branch(grid, 0.5, density)
    rng = np.random.default_rng(0)
    u0, _ = quadratic_subsolution(grid, rhs)
    u = u0.interior * (1.0 + 0.01 * rng.uniform(size=grid.num_interior))
    evaluate, jacobian, admissible, *_ = _logdet_form(grid, rhs, 1e-8)
    state = evaluate(u)
    assert admissible(u, state)
    d = rng.normal(size=grid.num_interior)
    jd = jacobian(u, state) @ d
    eps = 1e-6
    fd = (evaluate(u + eps * d).F - evaluate(u - eps * d).F) / (2 * eps)
    assert np.linalg.norm(jd - fd) <= 1e-6 * np.linalg.norm(jd)


# ---------------------------------------------------------------------------
# solve_nonlinear: Newton steps and starts
# ---------------------------------------------------------------------------


def steep_rhs(grid):
    """H = exp(20 t): increasing in t, where the Laplacian preconditioner of
    the n = 1 Krylov step is weakest (psi_t up to 20 against lambda_1 ~ 1.45)."""
    return RhsSpec.general(grid, lambda pts, t: np.exp(20.0 * t), lambda0=0.0)


@pytest.mark.parametrize("case", ["branch_1.40", "branch_1.44", "steep"])
def test_krylov_step_matches_direct_solve(case, disc_grid):
    """The n = 1 GMRES step against spsolve on the same Jacobian, on branch
    problems near blow-up (lambda_1 = 1.44552 on this grid) and on a steep
    increasing right-hand side."""
    g = disc_grid
    rhs = steep_rhs(g) if case == "steep" else RhsSpec.branch(g, float(case[7:]))
    u = 0.3 * (r2_of(g) - 1.0) * (1.0 + 0.1 * np.sin(3.0 * g.interior_coords[:, 0]))
    form = _semilinear_form(g, rhs)
    state = form.evaluate(u)
    delta, iterations = form.step(u, state)
    reference = spsolve(form.jacobian(u, state).tocsc(), -state.F)
    assert 0 < iterations <= dirichlet._KRYLOV_RESTART
    assert np.linalg.norm(delta - reference) <= 1e-9 * np.linalg.norm(reference)


def test_n1_solve_counts_krylov_iterations(disc_grid_32):
    g = disc_grid_32
    u, rep = solve_nonlinear(steep_rhs(g), np.zeros(g.num_interior), tol=1e-10)
    assert rep.converged and rep.final_residual <= 1e-10
    assert rep.krylov_iterations >= rep.iterations > 0
    _, frozen = solve_frozen(np.ones(g.num_interior), g)
    assert frozen.krylov_iterations == 0


def test_failed_krylov_step_raises_without_direct_fallback(disc_grid_32, monkeypatch):
    def no_convergence(A, b, **kwargs):
        for _ in range(3):
            kwargs["callback"](1.0)
        return np.zeros_like(b), 3

    def direct(*args, **kwargs):
        raise AssertionError("direct solve ran")

    monkeypatch.setattr(dirichlet, "gmres", no_convergence)
    monkeypatch.setattr(dirichlet, "spsolve", direct)
    rhs = RhsSpec.branch(disc_grid_32, 0.5)
    with pytest.raises(NotConverged, match=r"relative residual 1\.000e\+00 .* after 3 iterations"):
        solve_nonlinear(rhs, np.zeros(disc_grid_32.num_interior))


def test_logdet_start_hessian_is_not_recomputed(ball4_grid, monkeypatch):
    """The feasible start's complex Hessian is the Newton loop's first."""
    fields = []

    def recording(u):
        fields.append(u.interior.copy())
        return complex_hessian(u)

    monkeypatch.setattr(dirichlet, "complex_hessian", recording)
    rhs = RhsSpec.branch(ball4_grid, 0.5)
    u0, _ = quadratic_subsolution(ball4_grid, rhs)
    fields.clear()
    _, rep = solve_nonlinear(rhs, u0)
    assert rep.converged and rep.flags == ()
    assert len(fields) > 2
    assert not any(np.array_equal(a, b) for a, b in zip(fields, fields[1:]))


def test_feasible_start_fallback_is_flagged(ball4_grid):
    """No blend of a start with a NaN node enters the cone, so the solve
    starts from the anchor quadratic and says so."""
    g = ball4_grid
    rhs = RhsSpec.frozen(g, np.ones(g.num_interior))
    start = r2_of(g) - 1.0
    start[0] = np.nan
    u, rep = solve_nonlinear(rhs, start, tol=1e-8)
    assert rep.converged and rep.flags == ("feasible_start_anchor",)
    assert np.max(np.abs(u.interior - (r2_of(g) - 1.0))) < 1e-6
    _, clean = solve_nonlinear(rhs, r2_of(g) - 1.0, tol=1e-8)
    assert clean.flags == ()


@pytest.fixture(scope="module")
def ellipsoid_bump():
    """The ellipsoid-n2-bump problem: Ellipsoid((1.0, 0.7)), h = 0.25, with a
    unit Gaussian bump 0.3 off-centre."""
    with pytest.warns(UserWarning, match="quarter"):
        grid = build_grid(Ellipsoid((1.0, 0.7)), 0.25)
    return grid, GaussianBump(center=(0.3, 0.0, 0.0, 0.0), amplitude=1.0, width=0.5)


def logdet_problem(grid, density, lam, wobble, seed=0):
    """(form, u, state) of the branch problem at lam from its quadratic
    subsolution, scaled nodewise by 1 + wobble * uniform noise."""
    rhs = RhsSpec.branch(grid, lam, density)
    u0, _ = quadratic_subsolution(grid, rhs)
    noise = np.random.default_rng(seed).uniform(size=grid.num_interior)
    u = u0.interior * (1.0 + wobble * noise)
    form = _logdet_form(grid, rhs, 1e-8)
    return form, u, form.evaluate(u)


def counting_splu(monkeypatch):
    calls = []
    real = dirichlet.splu

    def counted(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return real(*args, **kwargs)

    monkeypatch.setattr(dirichlet, "splu", counted)
    return calls


def problem_grid(which, ball4_grid, ellipsoid_bump):
    return (ball4_grid, Constant(1.0)) if which == "ball4" else ellipsoid_bump


@pytest.mark.parametrize("which", ["ball4", "ellipsoid_bump"])
def test_stale_lu_step_matches_direct_solve(which, ball4_grid, ellipsoid_bump, monkeypatch):
    """A log-det Newton step preconditioned by the LU of another Jacobian
    (lam = 0.3 at its quadratic subsolution) solves the Jacobian at lam = 0.5
    and a perturbed field by GMRES alone, as accurately as spsolve."""
    grid, density = problem_grid(which, ball4_grid, ellipsoid_bump)
    old_form, old_u, old_state = logdet_problem(grid, density, 0.3, 0.0)
    stale = dirichlet._factor(old_form.jacobian(old_u, old_state))
    monkeypatch.setitem(grid._cache, "newton_lu", stale)
    calls = counting_splu(monkeypatch)
    form, u, state = logdet_problem(grid, density, 0.5, 0.02)
    delta, iterations = form.step(u, state)
    reference = spsolve(form.jacobian(u, state), -state.F)
    assert calls == [] and form.factorizations() == 0
    assert grid._cache["newton_lu"] is stale
    assert 0 < iterations <= dirichlet._REFRESH_RESTART
    assert np.linalg.norm(delta - reference) <= 1e-9 * np.linalg.norm(reference)


@pytest.mark.parametrize("which", ["ball4", "ellipsoid_bump"])
def test_useless_preconditioner_is_refreshed_once(which, ball4_grid, ellipsoid_bump,
                                                  monkeypatch):
    """With the identity as the cached LU one GMRES cycle misses the
    tolerance: the step factors the current Jacobian once, caches it and
    returns its solution; the next step needs no factorization."""
    grid, density = problem_grid(which, ball4_grid, ellipsoid_bump)
    useless = dirichlet._factor(sparse.identity(grid.num_interior))
    monkeypatch.setitem(grid._cache, "newton_lu", useless)
    calls = counting_splu(monkeypatch)
    form, u, state = logdet_problem(grid, density, 0.5, 0.02)
    delta, iterations = form.step(u, state)
    reference = spsolve(form.jacobian(u, state), -state.F)
    assert calls == ["MMD_AT_PLUS_A"] and form.factorizations() == 1
    assert iterations == dirichlet._REFRESH_RESTART  # the missed cycle
    assert grid._cache["newton_lu"] is not useless
    assert np.linalg.norm(delta - reference) <= 1e-9 * np.linalg.norm(reference)
    again, iterations = form.step(u, state)
    assert len(calls) == 1 and form.factorizations() == 1 and iterations <= 2
    assert np.linalg.norm(again - reference) <= 1e-9 * np.linalg.norm(reference)


# ---------------------------------------------------------------------------
# apply_T
# ---------------------------------------------------------------------------


def test_apply_T_at_zero_matches_defining_function(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.7)
    u, rep = apply_T(ScalarField.zeros(g), rhs, tol=1e-10)
    assert np.max(np.abs(u.interior - (r2_of(g) - 1.0))) < 1e-11
    assert rep.converged


def test_apply_T_frozen_ignores_v(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.frozen(g, np.full(g.num_interior, 2.0))
    ua, _ = apply_T(rho_field(g), rhs, tol=1e-10)
    ub, _ = solve_frozen(np.full(g.num_interior, 2.0), g, 1e-10)
    assert np.array_equal(ua.interior, ub.interior)


def test_apply_T_poisson_oracle(disc_grid_32):
    # T(|z|^2 - 1) at lambda = 1/2 solves Delta u = 4 (1.5 - 0.5 r^2)
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.5)
    u, rep = apply_T(rho_field(g), rhs, tol=1e-10)
    assert rep.final_residual < 1e-10
    r = np.sqrt(r2_of(g))
    exact = np.array([poisson_quartic_disc(ri) for ri in r])
    assert np.max(np.abs(u.interior - exact)) <= 2.0 * g.h ** 2
    t0, _ = apply_T(ScalarField.zeros(g), rhs, tol=1e-10)
    assert np.all(u.interior <= t0.interior + 1e-10)


def test_apply_T_rejects_positive_v(disc_grid_32):
    g = disc_grid_32
    v = ScalarField.from_interior(g, np.full(g.num_interior, 0.5))
    with pytest.raises(PreconditionViolated):
        apply_T(v, RhsSpec.branch(g, 0.5), tol=1e-8)


# ---------------------------------------------------------------------------
# RhsSpec invariants
# ---------------------------------------------------------------------------


def test_rhs_rejects_positive_t(disc_grid_32):
    rhs = RhsSpec.branch(disc_grid_32, 0.5)
    with pytest.raises(PreconditionViolated):
        rhs.psi(np.full(disc_grid_32.num_interior, 0.5))


@pytest.mark.parametrize("kind", ["branch", "eigen"])
def test_separable_psi_t_is_exact(kind, disc_grid_32, ball4_grid):
    """psi_t of the separable kinds is f^n g'(t) in closed form; the central
    difference of psi agrees with it only to its truncation error."""
    for grid in (disc_grid_32, ball4_grid):
        n, lam = grid.n, 0.8
        rhs = getattr(RhsSpec, kind)(grid, lam)
        t = -np.linspace(0.0, 2.0, grid.num_interior)
        base = 1.0 - lam * t if kind == "branch" else -lam * t
        assert np.allclose(rhs.psi_t(t), -n * lam * base ** (n - 1), rtol=1e-14, atol=0.0)
        inner = t < -1e-3
        delta = 1e-6
        fd = (rhs.psi(np.minimum(t + delta, 0.0)) - rhs.psi(t - delta)) / (2 * delta)
        assert np.allclose(fd[inner], rhs.psi_t(t)[inner], rtol=1e-6, atol=1e-8)


def test_rhs_monotonicity_spot_check(disc_grid_32):
    with pytest.raises(ValueError, match="nonincreasing"):
        RhsSpec.general(
            disc_grid_32, lambda pts, t: 2.0 + 0.1 * t, nonincreasing=True
        )
    with pytest.raises(ValueError, match="negative"):
        RhsSpec.general(disc_grid_32, lambda pts, t: 0.1 + t, nonincreasing=True)


# ---------------------------------------------------------------------------
# monotone_iteration
# ---------------------------------------------------------------------------


def test_monotone_frozen_converges_in_one_step(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.frozen(g, np.ones(g.num_interior))
    u, history = monotone_iteration(rho_field(g), rhs, tol=1e-8)
    assert len(history) == 1


def test_monotone_branch_half(disc_grid_32):
    # start from C (|z|^2 - 1) with C = (1 - 0.5 ||T(0)||)^{-1} = 2
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.5)
    lower = ScalarField.from_interior(g, 2.0 * (r2_of(g) - 1.0))
    reports = []
    u, history = monotone_iteration(lower, rhs, tol=1e-8, report_sink=reports)
    assert min(history) >= -10 * 1e-8
    res = np.max(np.abs(ma_det(u).interior - rhs.psi(u.interior)))
    assert res <= 1e-8
    # iterates increase from the subsolution and stay <= 0
    assert np.all(u.interior >= lower.interior - 1e-7)
    assert np.max(u.values) <= 0.0
    r = np.sqrt(r2_of(g))
    exact = np.array([branch_solution_disc(0.5, ri) for ri in r])
    assert np.max(np.abs(u.interior - exact)) <= 5.0 * g.h ** 2
    assert abs(np.max(-u.interior) - branch_sup_norm_disc(0.5)) <= 5.0 * g.h ** 2
    # diagnostic regression: gradient/Laplacian stay bounded along the run
    if len(reports) > 5:
        ref = reports[4]
        assert reports[-1].grad_sup <= 2.0 * ref.grad_sup
        assert reports[-1].laplacian_sup <= 2.0 * ref.laplacian_sup


@pytest.mark.parametrize("lam", [0.5, 0.9])
def test_monotone_eigen_below_lambda1_returns_zero(disc_grid_32, lam):
    g = disc_grid_32
    rhs = RhsSpec.eigen(g, lam)
    lower = ScalarField.from_interior(g, 0.05 * (r2_of(g) - 1.0))
    u, _ = monotone_iteration(lower, rhs, tol=1e-8)
    assert np.max(np.abs(u.interior)) <= 1e-6


def test_monotone_requires_nonincreasing(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.general(g, lambda pts, t: 1.0 - t, lambda0=1.0)
    with pytest.raises(PreconditionViolated):
        monotone_iteration(rho_field(g), rhs, tol=1e-8)


def test_monotone_detects_decreasing_iterates(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.frozen(g, np.ones(g.num_interior))
    above = ScalarField.from_interior(g, 0.5 * (r2_of(g) - 1.0))
    with pytest.raises(MonotonicityViolated):
        monotone_iteration(above, rhs, tol=1e-10, require_subsolution=False)


def test_monotone_not_converged(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.5)
    lower = ScalarField.from_interior(g, 2.0 * (r2_of(g) - 1.0))
    with pytest.raises(NotConverged):
        monotone_iteration(lower, rhs, tol=1e-10, max_outer=2)


# ---------------------------------------------------------------------------
# solve_regularized
# ---------------------------------------------------------------------------


def test_regularized_zero_rhs_closed_form(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.frozen(g, np.zeros(g.num_interior))
    u, diffs = solve_regularized(rhs, [0.1, 0.05], g, tol=1e-10)
    assert np.max(np.abs(u.interior - 0.05 * (r2_of(g) - 1.0))) < 1e-12
    assert diffs == pytest.approx([0.05], abs=1e-10)  # linear in eps


def test_regularized_eigen_small_lambda_vanishes(disc_grid_32):
    g = disc_grid_32
    u, diffs = solve_regularized(RhsSpec.eigen(g, 0.3), None, g, tol=1e-9)
    assert np.max(np.abs(u.interior)) < 0.01
    assert all(a >= b - 1e-12 for a, b in zip(diffs, diffs[1:]))


def test_regularized_frozen_positive_short_circuits(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.frozen(g, np.ones(g.num_interior))
    u, diffs = solve_regularized(rhs, None, g, tol=1e-9)
    assert diffs == []  # one stage: regularization unnecessary
    base, _ = solve_frozen(np.ones(g.num_interior), g, 1e-9)
    assert np.max(np.abs(u.interior - base.interior)) <= 0.2  # O(first eps)


def test_regularized_schedule_validation(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.eigen(g, 0.3)
    with pytest.raises(ValueError):
        solve_regularized(rhs, [0.1, 0.2], g)
    with pytest.raises(ValueError):
        solve_regularized(rhs, [0.1, 1e-5], g)
    assert default_eps_schedule()[0] == 0.1
    assert default_eps_schedule()[-1] >= 1e-3


# ---------------------------------------------------------------------------
# sub/supersolution checks
# ---------------------------------------------------------------------------


def test_subsolution_examples(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.5)
    two_rho = ScalarField.from_interior(g, 2.0 * (r2_of(g) - 1.0))
    assert check_subsolution(two_rho, rhs, tol=1e-9)
    assert not check_subsolution(ScalarField.zeros(g), rhs, tol=1e-9)
    assert check_subsolution(rho_field(g), RhsSpec.frozen(g, np.ones(g.num_interior)),
                             tol=1e-9)


def test_strict_subsolution_margin(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.eigen(g, 0.5)
    two_rho = ScalarField.from_interior(g, 2.0 * (r2_of(g) - 1.0))
    # det = 4, psi(2 rho) <= (0.5 * 2)^1 = 1, so a margin of 1 still passes
    assert check_subsolution(two_rho, rhs, tol=1e-9, strict_margin=1.0)
    assert not check_subsolution(two_rho, rhs, tol=1e-9, strict_margin=5.0)


def test_supersolution_examples(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.5)
    assert check_supersolution(ScalarField.zeros(g), RhsSpec.eigen(g, 1.0), tol=1e-12)
    assert check_supersolution(rho_field(g), rhs, tol=1e-9)
    two_rho = ScalarField.from_interior(g, 2.0 * (r2_of(g) - 1.0))
    assert not check_supersolution(two_rho, rhs, tol=1e-9)


def test_quadratic_subsolution_certificate(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.branch(g, 0.8)
    u, t = quadratic_subsolution(g, rhs)
    det = complex_hessian(u).det()
    assert np.all(det >= rhs.psi(u.interior) - 1e-12)
    assert t > 0


def test_quadratic_subsolution_infeasible_branch(disc_grid_32):
    # On the unit disc the amplitude fixed point exists only while the
    # eigenvalue parameter stays below the quadratic domination threshold.
    with pytest.raises(BranchInfeasible):
        quadratic_subsolution(disc_grid_32, RhsSpec.branch(disc_grid_32, 1.0))


# ---------------------------------------------------------------------------
# solve_quasimonotone
# ---------------------------------------------------------------------------


def test_quasimonotone_constant_reduces_to_frozen(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.general(g, lambda pts, t: np.ones(len(t)), lambda0=0.0)
    u, rep = solve_quasimonotone(rhs, LAMBDA1_UNIT_DISC, g, tol=1e-9)
    assert np.max(np.abs(u.interior - (r2_of(g) - 1.0))) < 1e-9
    assert rep.flags == ()


def test_quasimonotone_sine_multistart_agrees(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.general(g, lambda pts, t: 1.0 + 0.5 * np.sin(t), lambda0=0.5)
    u, rep = solve_quasimonotone(rhs, LAMBDA1_UNIT_DISC, g, tol=1e-9)
    assert "initializations_disagree" not in rep.flags
    assert rep.final_residual <= 1e-9
    assert np.max(u.values) <= 0.0


def test_quasimonotone_bound_guard(disc_grid_32):
    g = disc_grid_32
    rhs = RhsSpec.general(g, lambda pts, t: 1.0 + 0.5 * np.sin(t), lambda0=2.0)
    with pytest.raises(EigenvalueBoundViolated):
        solve_quasimonotone(rhs, LAMBDA1_UNIT_DISC, g, tol=1e-8)


def test_quasimonotone_n2(ball4_grid):
    g = ball4_grid
    rhs = RhsSpec.general(g, lambda pts, t: 1.0 + 0.3 * np.sin(t), lambda0=0.3)
    u, rep = solve_quasimonotone(rhs, 1.0, g, tol=1e-6)
    assert rep.final_residual <= 1e-6
    assert "initializations_disagree" not in rep.flags
