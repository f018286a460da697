#!/usr/bin/env python3
"""Recompute the shooting eigenvalues for unit balls and freeze them.

Writes the regression fixture src/cmaeig/_data/radial_constants.txt that
`cmaeig.radial.frozen_radial_constant` reads.  Run from the repository root
after any change to the radial integrator, and commit the refreshed file
only when the change is an intentional accuracy improvement.
"""

import argparse
import pathlib

from cmaeig.radial import radial_lambda1, shoot


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--out",
        default="src/cmaeig/_data/radial_constants.txt",
        help="fixture path relative to the repository root",
    )
    args = ap.parse_args()

    lines = [
        "# Shooting eigenvalues of the unit ball, frozen as regression",
        "# constants (RK4 step 1e-4).",
        "# columns: n  R  lambda1",
    ]
    for n in (1, 2, 3):
        value = radial_lambda1(n, 1.0)
        residual = abs(shoot(n, 1.0, value, record=False)[0])
        print(f"n={n} R=1: lambda1={value!r} shoot residual={residual:.3e}")
        lines.append(f"{n} 1.0 {value:.12f}")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
