#!/usr/bin/env python3
"""Grid-refinement study of the unit-disc ground eigenvalue.

Runs both eigenvalue routes (branch continuation and inverse-power
iteration) across a ladder of grid spacings and prints their errors against
the shooting oracle, together with the observed convergence order between
consecutive levels.  Optionally dumps the table as CSV.
"""

import argparse

from cmaeig.domain import Ball, build_grid
from cmaeig.eigenpath import continuation
from cmaeig.radial import radial_lambda1
from cmaeig.serialize import atomic_write_text
from cmaeig.variational import inverse_power


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=4,
                    help="number of refinement levels starting at h=1/8")
    ap.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
    ap.add_argument("--out", help="optional CSV output path")
    args = ap.parse_args()

    exact = radial_lambda1(1, 1.0)
    print(f"shooting oracle: lambda1 = {exact:.10f}\n")
    header = f"{'h':>10} {'continuation':>14} {'err':>10} {'inverse-power':>14} {'err':>10}"
    print(header)

    rows = [("h", "continuation", "cont_err", "inverse_power", "ip_err")]
    errors = []
    for level in range(args.levels):
        h = 1.0 / (8 * 2 ** level)
        grid = build_grid(Ball(1, 1.0), h)
        lam_c = continuation(grid=grid, tol=args.tol).lambda1
        lam_i = inverse_power(grid=grid, tol=args.tol).lambda1
        err_c, err_i = abs(lam_c - exact), abs(lam_i - exact)
        errors.append((err_c, err_i))
        print(f"{h:>10.5f} {lam_c:>14.8f} {err_c:>10.2e} {lam_i:>14.8f} {err_i:>10.2e}")
        rows.append((format(h, ".17g"), format(lam_c, ".17g"),
                     format(err_c, ".17g"), format(lam_i, ".17g"),
                     format(err_i, ".17g")))

    if len(errors) > 1:
        print("\nobserved order between consecutive levels (log2 error ratio):")
        for (pc, pi), (qc, qi) in zip(errors, errors[1:]):
            from math import log2
            print(f"  continuation {log2(pc / qc):5.2f}   inverse-power {log2(pi / qi):5.2f}")

    if args.out:
        atomic_write_text(args.out, "\n".join(",".join(r) for r in rows) + "\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
