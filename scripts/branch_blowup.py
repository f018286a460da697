#!/usr/bin/env python3
"""Watch the solution branch blow up and the eigenvalue emerge.

Walks the family det(u_jk) = (1 - lam*u)^n f^n from 0 upward on a ball,
printing sup|u_lam|, its reciprocal and the solve's cost (Newton steps,
GMRES iterations, Jacobian factorizations, line-search backtracks; points
whose secant predictor fell back to the scaled subsolution are marked) at
every accepted branch point.  At n = 1 the gmres column counts the vectors
each point added to the grid's shared shifted basis, one LU solve each, so
it sums to the branch's LU solves after the lam = 0 one.  The reciprocal decays linearly in lam near the
critical value; the final rows show the linear-fit root (the eigenvalue
estimate) next to the shooting value.  Optionally dumps the branch history
as CSV.
"""

import argparse

from cmaeig.domain import Ball, build_grid
from cmaeig.eigenpath import SchedulePolicy, continuation, lower_bound
from cmaeig.radial import radial_lambda1
from cmaeig.serialize import branch_to_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1, help="complex dimension")
    ap.add_argument("--radius", type=float, default=1.0, help="ball radius")
    ap.add_argument("--h", type=float, default=1 / 32, help="grid spacing")
    ap.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
    ap.add_argument("--blowup", type=float, default=50.0,
                    help="sup-norm declared 'blown up'")
    ap.add_argument("--out", help="optional branch CSV output path")
    args = ap.parse_args()

    grid = build_grid(Ball(args.n, args.radius), args.h)
    print(f"ball n={args.n} R={args.radius}, h={args.h}: "
          f"{grid.num_interior} interior nodes")
    lb = lower_bound(grid=grid, tol=args.tol)
    print(f"certified lower bound 1/sup|u_0| = {lb:.8f}\n")

    policy = SchedulePolicy(blowup_threshold=args.blowup)
    result = continuation(grid=grid, tol=args.tol, schedule_policy=policy)

    print(f"{'lam':>12} {'sup|u|':>12} {'1/sup':>12} {'newton':>7} "
          f"{'gmres':>6} {'lu':>3} {'backtracks':>10}")
    for point in result.branch:
        report = point.report
        fallback = "  (predictor fallback)" if point.predictor_fallback else ""
        print(f"{point.lam:>12.6f} {point.sup_norm:>12.4f} "
              f"{1.0 / point.sup_norm:>12.6f} {report.iterations:>7d} "
              f"{report.krylov_iterations:>6d} {report.factorizations:>3d} "
              f"{report.backtracks:>10d}{fallback}")

    print(f"\nextrapolated eigenvalue : {result.lambda1:.8f} "
          f"(fit residual {result.fit_residual:.2e})")
    oracle = radial_lambda1(args.n, args.radius)
    print(f"shooting oracle         : {oracle:.8f} "
          f"(relative gap {abs(result.lambda1 - oracle) / oracle:.2e})")

    if args.out:
        branch_to_csv(result.branch, args.out)
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
