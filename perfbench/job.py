"""One batch job: every stage of a workload, timed and checked.

Stages, each one operation: ``build_grid`` (one fresh grid per grid stage,
as each CLI command builds its own), the plain Dirichlet solve
``solve_frozen(f^n)``, ``continuation``, ``inverse_power`` and the shooting
oracle ``radial_lambda1``.  No stage inherits another's cached stencils or
LU factors.  Checks run untimed and outside any trace; those that need a
reference eigenvalue run after every stage of the job, so that computing the
reference adds nothing to the job's peak memory.  A stage fails if it
raises or if one of its checks fails.
"""

from __future__ import annotations

import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigs

import cmaeig
from workloads import TOL, TOL_DISCRETE

ROUTE_AGREEMENT = 0.03  # test_c03
RADIAL_ERR_MAX = 1e-5  # test_c02
DISCRETE_GAP_MAX = 1e-9  # inverse power vs eigs at n = 1
STAGE_TIMES = ("dirichlet_s", "continuation_s", "inverse_power_s", "radial_s")
# Errors are reported as max(error, ERR_FLOOR): every solve here, shooting
# included, stops at a tolerance of 1e-8, so an error below it says how far
# past the tolerance a solve happened to stop, not how accurate it is.
ERR_FLOOR = TOL
ROUTES = ("continuation", "inverse_power")
# A plain job runs the two short stages, the Dirichlet solve and the shooting
# oracle, this many times, before, between and after the routes, so that
# every run has several samples of each, spread over the job, even when one
# job fills the run; a traced job runs each stage once.
SHORT_REPEATS = 3


@dataclass
class JobRecord:
    setup_s: list = field(default_factory=list)
    times: dict = field(default_factory=lambda: {name: [] for name in STAGE_TIMES})
    lambdas: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)  # counts read from results
    attempted: int = 0
    failures: list = field(default_factory=list)  # (stage, reason)

    @property
    def failed(self):
        return len({stage for stage, _ in self.failures})

    def one_pass_s(self):
        """Time of one pass through the stages: three grids and one sample
        of each stage, every figure the median of its samples."""
        return 3 * median(self.setup_s) + sum(median(t) for t in self.times.values() if t)


class _Stage:
    """Counts one operation; records an exception as its failure."""

    def __init__(self, record, name):
        self.record, self.name = record, name

    def __enter__(self):
        self.record.attempted += 1
        return self

    def fail(self, reason):
        self.record.failures.append((self.name, reason))

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and issubclass(exc_type, Exception):
            self.fail("".join(traceback.format_exception_only(exc_type, exc)).strip())
            return True
        return False


class Runner:
    """Runs the jobs of one problem.

    The discrete reference eigenvalue depends only on the grid, which is the
    same for every job of a run, so it is computed once, untimed, on a grid
    of its own; reference_s is the time that took.  With a host
    (hostspeed.HostSpeed), a plain job samples the reference task before each
    stage and after the last.
    """

    def __init__(self, problem, host=None):
        self.problem = problem
        self.host = host
        self._discrete = None
        self.reference_s = 0.0

    def job(self, tracer=None, radial=True, before_checks=None):
        """Every stage, then the checks against the references, with the
        tracer (if any) paused; before_checks() runs between the two.

        Each route is verified as soon as it ends and only its eigenvalue
        and counts are kept, so that no stage runs beside another's results
        and the peak memory before the checks is that of the largest stage.
        """
        rec = JobRecord()
        repeats = 1 if tracer is not None else SHORT_REPEATS
        timed_host = self.host is not None and tracer is None
        tick = self.host.sample if timed_host else (lambda: None)
        for k in range(max(repeats, len(ROUTES))):
            if k < repeats:
                tick()
                self._dirichlet(rec, k)
                if radial:
                    tick()
                    self._radial(rec, k)
            if k < len(ROUTES):
                tick()
                self._route(rec, ROUTES[k], tracer)
        tick()
        if before_checks is not None:
            before_checks()
        with tracer.paused() if tracer is not None else nullcontext():
            for route in ROUTES:
                if route in rec.lambdas:
                    self._check_lambda(rec, route)
        if all(route in rec.lambdas for route in ROUTES):
            cont, ip = (rec.lambdas[route] for route in ROUTES)
            gap = abs(cont - ip)
            rec.errors["route_gap"] = max(gap, ERR_FLOOR)
            if gap > ROUTE_AGREEMENT * ip:
                rec.failures.append(("inverse_power", f"routes differ by {gap:.3e}"))
        return rec

    def _build(self, rec, stage):
        with _Stage(rec, f"build_grid[{stage}]"):
            t0 = time.perf_counter()
            grid = cmaeig.build_grid(self.problem.spec, self.problem.h)
            rec.setup_s.append(time.perf_counter() - t0)
            rec.counts["nodes"] = grid.num_interior
            return grid
        return None

    def _route(self, rec, route, tracer):
        """One eigenvalue route on a fresh grid, then verify_eigenpair."""
        grid = self._build(rec, route)
        if grid is None:
            return
        with _Stage(rec, route) as st:
            t0 = time.perf_counter()
            result = getattr(cmaeig, route)(self.problem.density, grid, TOL)
            rec.times[f"{route}_s"].append(time.perf_counter() - t0)
            rec.lambdas[route] = result.lambda1
            if route == "continuation":
                rec.counts["branch_points"] = len(result.branch)
                rec.counts["branch_newton"] = sum(p.report.iterations for p in result.branch)
            else:
                rec.counts["ip_iterations"] = len(result.branch) - 1
                rec.counts["ip_newton"] = sum(p.report.iterations for p in result.branch)
            with tracer.paused() if tracer is not None else nullcontext():
                if not cmaeig.verify_eigenpair(result, self.problem.density, grid).ok:
                    st.fail("verify_eigenpair(...).ok is false")

    def _dirichlet(self, rec, k):
        grid = self._build(rec, f"dirichlet#{k}")
        if grid is None:
            return
        with _Stage(rec, f"dirichlet#{k}") as st:
            t0 = time.perf_counter()
            fn = cmaeig.density_vector(self.problem.density, grid, power=grid.n)
            _, report = cmaeig.solve_frozen(fn, grid, TOL)
            rec.times["dirichlet_s"].append(time.perf_counter() - t0)
            rec.counts["dirichlet_newton"] = report.iterations
            if not report.converged:
                st.fail("Dirichlet report.converged is false")

    def _radial(self, rec, k):
        p = self.problem
        with _Stage(rec, f"radial#{k}") as st:
            t0 = time.perf_counter()
            lam = cmaeig.radial_lambda1(p.radial_n, p.radial_R)
            rec.times["radial_s"].append(time.perf_counter() - t0)
            rec.lambdas["radial"] = lam
            err = abs(lam - p.radial_ref)
            rec.errors["radial_err"] = max(err, ERR_FLOOR)
            if err > RADIAL_ERR_MAX:
                st.fail(f"radial_err {err:.3e} > {RADIAL_ERR_MAX:g}")

    def _discrete_lambda(self):
        """The grid's own eigenvalue: at n = 1 the smallest eigenvalue of the
        linear problem (-L/4) u = lambda f u by shift-invert; otherwise
        inverse power at the tight tolerance TOL_DISCRETE."""
        if self._discrete is None:
            t0 = time.perf_counter()
            p = self.problem
            grid = cmaeig.build_grid(p.spec, p.h)
            if grid.n == 1:
                A = (-0.25 * cmaeig.laplacian_matrix(grid)).tocsc()
                M = sparse.diags(cmaeig.density_vector(p.density, grid)).tocsc()
                vals = eigs(A, k=1, M=M, sigma=0.0, which="LM", return_eigenvectors=False)
                self._discrete = float(np.real(vals[0]))
            else:
                self._discrete = cmaeig.inverse_power(p.density, grid, TOL_DISCRETE).lambda1
            self.reference_s = time.perf_counter() - t0
        return self._discrete

    def _check_lambda(self, rec, route):
        """A route's eigenvalue against lambda_ref (or the discrete
        eigenvalue), the bracket and, where asked, the discrete eigenvalue."""
        st = _Stage(rec, route)  # the stage was counted when it ran
        p = self.problem
        lam = rec.lambdas[route]
        ref = p.lambda_ref if p.lambda_ref is not None else self._discrete_lambda()
        rec.errors["cont_err" if route == "continuation" else "ip_err"] = max(abs(lam - ref), ERR_FLOOR)
        if abs(lam - ref) > p.band * ref:
            st.fail(f"lambda {lam:.10g} misses the reference {ref:.10g} by more than {p.band:.0%}")
        if p.upper_bound is not None and not p.lower_bound < lam < p.upper_bound:
            st.fail(f"lambda {lam:.10g} outside the certified bracket "
                    f"[{p.lower_bound:.10g}, {p.upper_bound:.10g}]")
        if p.discrete_check and route == "inverse_power":
            exact = self._discrete_lambda()
            rec.lambdas["discrete"] = exact
            if abs(lam - exact) > DISCRETE_GAP_MAX:
                st.fail(f"inverse_power is {abs(lam - exact):.3e} from the discrete eigenvalue")
