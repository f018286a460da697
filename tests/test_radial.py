import json
import math

import numpy as np
import pytest
import sympy

from cmaeig.errors import BracketFailed, VanishingGradient
from cmaeig.radial import (
    RadialProfile,
    frozen_radial_constant,
    radial_lambda1,
    radial_profile,
    radial_rhs,
    shoot,
)
from oracles import J0_FIRST_ZERO, LAMBDA1_UNIT_DISC, disc_eigenmode, reference_shoot


# ---------------------------------------------------------------------------
# The determinant identity behind the reduction, verified symbolically
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_radial_determinant_identity_symbolic(n):
    # det of the complex Hessian of u = phi(|z|^2) must equal
    # phi'^(n-1) * (phi' + t phi''), treating z_j and conj(z_j) as
    # independent Wirtinger variables.
    zs = sympy.symbols(f"z1:{n + 1}")
    ws = sympy.symbols(f"w1:{n + 1}")  # stands in for conj(z_j)
    t = sum(z * w for z, w in zip(zs, ws))
    phi = sympy.Function("phi")
    u = phi(t)
    M = sympy.Matrix(
        n, n, lambda j, k: sympy.diff(u, zs[j], ws[k])
    )
    tt = sympy.Symbol("t")
    expected = phi(tt).diff(tt) ** (n - 1) * (
        phi(tt).diff(tt) + tt * phi(tt).diff(tt, 2)
    )
    diff = sympy.simplify(M.det() - expected.subs(tt, t))
    assert diff == 0


# ---------------------------------------------------------------------------
# radial_rhs
# ---------------------------------------------------------------------------


def test_rhs_n1_is_bessel_equation_in_squared_radius():
    for lam, t, phi, dphi in [(1.0, 0.3, -0.5, 0.8), (2.5, 0.9, -0.1, 1.3)]:
        expected = (lam * (-phi) - dphi) / t
        assert radial_rhs(1, lam, t, phi, dphi) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rhs_origin_limit(n):
    lam = 1.7
    assert radial_rhs(n, lam, 0.0, -1.0, lam) == pytest.approx(
        -n * lam * lam / (n + 1), rel=1e-15
    )


def test_rhs_series_balance_n2():
    # Two-term series phi = -1 + lam t + c2 t^2 / 2: the rhs evaluated on the
    # series at tiny t must approach c2 = -n lam^2 / (n + 1).
    lam = 1.5
    c2 = -2 * lam * lam / 3
    delta = 1e-8
    phi = -1.0 + lam * delta + 0.5 * c2 * delta**2
    dphi = lam + c2 * delta
    assert radial_rhs(2, lam, delta, phi, dphi) == pytest.approx(c2, rel=1e-6)


def test_rhs_vanishing_gradient():
    with pytest.raises(VanishingGradient):
        radial_rhs(2, 1.0, 0.5, -0.5, 1e-15)


# ---------------------------------------------------------------------------
# shoot
# ---------------------------------------------------------------------------


def test_shoot_hits_boundary_at_disc_eigenvalue():
    terminal, profile = shoot(1, 1.0, LAMBDA1_UNIT_DISC)
    assert abs(terminal) <= 1e-6
    assert abs(profile.phi[-1]) == abs(terminal)


def test_shoot_profile_matches_bessel_mode_pointwise():
    _, profile = shoot(1, 1.0, LAMBDA1_UNIT_DISC)
    # u(z) = -J0(j01 |z|) in the squared-radius variable t = |z|^2.
    for idx in range(0, profile.t.size, 997):
        t = profile.t[idx]
        assert profile.phi[idx] == pytest.approx(
            disc_eigenmode(math.sqrt(t)), abs=1e-9
        )


def test_shoot_undershoots_below_eigenvalue():
    terminal, _ = shoot(1, 1.0, 1.0)
    assert terminal < 0


def test_shoot_overshoots_above_eigenvalue():
    terminal, _ = shoot(1, 1.0, 1.6)
    assert terminal > 0


def test_shoot_scaling_covariance():
    a, _ = shoot(1, 2.0, 0.3, record=False)
    b, _ = shoot(1, 1.0, 1.2, record=False)
    assert abs(a - b) <= 1e-12
    c, _ = shoot(2, 0.5, 8.0, record=False)
    d, _ = shoot(2, 1.0, 2.0, record=False)
    assert abs(c - d) <= 1e-12


def test_shoot_gradient_collapse_far_above():
    # Far above the ground eigenvalue the profile tops out before the
    # boundary and the gradient factor collapses.
    with pytest.raises(VanishingGradient):
        shoot(1, 1.0, 30.0, record=False)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except VanishingGradient as exc:
        return type(exc), str(exc)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("R", [0.5, 1.0, math.sqrt(0.7), 2.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_shoot_is_bit_identical_to_reference_loop(n, R):
    # shoot inlines radial_rhs; the reference calls it at every RK4 stage.
    # The spread of lam runs from undershoot past the eigenvalue into
    # gradient collapse (n = 1 and n = 3 from lam * R^2 ~ 3.7 up); the five
    # collapsing values stop the integration at each of the four RK4 stages
    # for n = 3, and at stages 2 and 4 for n = 1.
    collapses = 0
    for lam in (0.3, 1.6, 3.7555, 4.0, 4.555, 7.353, 25.0):
        lam /= R * R
        ref = _outcome(reference_shoot, radial_rhs, n, R, lam)
        got = _outcome(shoot, n, R, lam)
        bare = _outcome(shoot, n, R, lam, record=False)
        if ref[0] is VanishingGradient:
            collapses += 1
            assert got == bare == ref
            continue
        value, *arrays = ref
        assert got[0].hex() == bare[0].hex() == value.hex()
        for full, end, expected in zip((got[1].t, got[1].phi, got[1].dphi),
                                       (bare[1].t, bare[1].phi, bare[1].dphi), arrays):
            assert _bits(full) == _bits(expected)
            assert _bits(end) == _bits(expected[-1:])
    assert collapses == (0 if n == 2 else 5)


def test_shoot_rejects_bad_parameters():
    with pytest.raises(ValueError):
        shoot(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        shoot(1, -1.0, 1.0)
    with pytest.raises(ValueError):
        shoot(1, 1.0, 0.0)


# ---------------------------------------------------------------------------
# radial_lambda1 and profiles
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ball_runs():
    """(radial_lambda1(n, R), number of shoot calls it made) per (n, R); the
    calls are counted by wrapping cmaeig.radial.shoot."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for n in (1, 2, 3):
            for R in (0.5, 1.0, math.sqrt(0.7), 2.0):
                calls = []

                def counted(*args, **kwargs):
                    calls.append(args)
                    return shoot(*args, **kwargs)

                mp.setattr("cmaeig.radial.shoot", counted)
                runs[n, R] = radial_lambda1(n, R), len(calls)
    return runs


@pytest.fixture(scope="module")
def ball_eigenvalues(ball_runs):
    return {(n, R): lam for (n, R), (lam, _) in ball_runs.items()
            if n in (1, 2) and R in (0.5, 1.0, 2.0)}


def test_lambda1_disc_matches_bessel_oracle(ball_eigenvalues):
    assert abs(ball_eigenvalues[1, 1.0] - LAMBDA1_UNIT_DISC) <= 1e-12


def test_lambda1_integrates_once_without_shooting(ball_runs):
    """The lam = 1 profile is integrated once inside radial_lambda1, so no
    shoot is made, and the answer is a built-in float that json.dumps
    writes (a numpy scalar or array would not be)."""
    assert {key: shoots for key, (_, shoots) in ball_runs.items() if shoots} == {}
    for lam, _ in ball_runs.values():
        assert type(lam) is float
        assert json.loads(json.dumps(lam)) == lam


def test_lambda1_brackets_the_sign_change_within_tol(ball_runs):
    tol = 1e-12
    for (n, R), (lam, _) in ball_runs.items():
        below, _ = shoot(n, R, lam - tol / (R * R), record=False)
        above, _ = shoot(n, R, lam + tol / (R * R), record=False)
        assert below < 0.0 < above, (n, R)


def test_lambda1_radius_two_disc(ball_eigenvalues):
    assert abs(ball_eigenvalues[1, 2.0] - 0.361449) <= 1e-5


def test_lambda1_lower_bound_exact(ball_eigenvalues):
    for (n, R), lam in ball_eigenvalues.items():
        assert lam * R * R >= 1.0


def test_lambda1_scaling_law(ball_eigenvalues):
    for n in (1, 2):
        base = ball_eigenvalues[n, 1.0]
        for R in (0.5, 2.0):
            assert abs(ball_eigenvalues[n, R] * R * R - base) <= 1e-15 * base


def test_profile_invariants():
    profile = radial_profile(1, 1.0)
    assert isinstance(profile, RadialProfile)
    assert profile.phi[0] == -1.0
    assert profile.t[0] == 0.0
    assert profile.t[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(profile.phi) > 0)
    assert np.all(profile.dphi > 0)
    assert abs(profile.phi[-1]) <= 1e-12
    assert profile.samples.shape == (profile.t.size, 3)


def test_ball4_constant_frozen():
    frozen = frozen_radial_constant(2)
    assert frozen >= 1.0
    value = radial_lambda1(2, 1.0)
    assert abs(value - frozen) <= 5e-11
    residual, _ = shoot(2, 1.0, value, record=False)
    assert abs(residual) <= 1e-6


def test_frozen_constant_table():
    assert abs(frozen_radial_constant(1) - LAMBDA1_UNIT_DISC) <= 1e-9
    assert frozen_radial_constant(3) > frozen_radial_constant(2)
    with pytest.raises(KeyError):
        frozen_radial_constant(7)


# ---------------------------------------------------------------------------
# radial_lambda1 failures
# ---------------------------------------------------------------------------


def test_gradient_collapse_before_the_zero_raises(monkeypatch):
    # psi' falls from 1 to about 0.5 at the disc's zero, so a floor of 0.9
    # is met before psi reaches zero.
    monkeypatch.setattr("cmaeig.radial.GRADIENT_FLOOR", 0.9)
    with pytest.raises(VanishingGradient, match="radial gradient"):
        radial_lambda1(1, 1.0)


def test_no_zero_below_the_cap_raises_bracket_failed(monkeypatch):
    monkeypatch.setattr("cmaeig.radial.PSI_ZERO_CAP", 1.0)
    with pytest.raises(BracketFailed, match="no zero below"):
        radial_lambda1(1, 1.0)
