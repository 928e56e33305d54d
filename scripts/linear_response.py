#!/usr/bin/env python3
"""Measure the multibaker current along a bias sweep and compare with the
analytic curve psi(b) = b/(4-3b) and the small-bias contraction b^2/8.

Usage: python scripts/linear_response.py [--particles 100000] [--steps 1000]
"""

import argparse
from fractions import Fraction

from bakerfr.cli import sweep_table, write_csv
from bakerfr.multibaker import linear_response_sweep


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--b-values", default="1/100,1/50,1/20,1/10")
    ap.add_argument("--particles", type=int, default=100_000)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rows = linear_response_sweep([Fraction(b) for b in args.b_values.split(",")],
                                 args.particles, args.steps, args.seed)
    print(f"{'b':>7} {'l':>7} {'psi':>10} {'psi_hat':>10} {'stderr':>9} "
          f"{'psi_hat/b':>10} {'lam_hat/b^2':>12}")
    for r in rows:
        print(f"{str(r.b):>7} {str(r.l):>7} {float(r.psi_analytic):10.6f} "
              f"{r.psi_hat:10.6f} {r.stderr:9.2e} {r.psi_hat_over_b:10.5f} "
              f"{r.lambda_hat_over_b2:12.5f}")
    print("limits: psi/b -> 1/4 = 0.25, lambda/b^2 -> 1/8 = 0.125 as b -> 0")
    if args.out:
        write_csv(args.out, *sweep_table(rows))


if __name__ == "__main__":
    main()
