#!/usr/bin/env python3
"""How far the periodic-orbit weights drift from the exact symbol law.

For the two-branch map the orbit expansion reproduces the law exactly;
for the four-branch map, whose stationary density is discontinuous along
the expanding direction, the naive expansion misses badly.  This prints
the total-variation gap against window length for both.

Usage: python scripts/upo_vs_markov.py [--l 1/8] [--n-max 10]
"""

import argparse
from fractions import Fraction

from bakerfr.fluctuation import exact_distribution
from bakerfr.periodic_orbits import (
    enumerate_orbits,
    generalized_upo_diagnostic,
    upo_distribution,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--l", default="1/8", help="four-branch strip width")
    ap.add_argument("--l1", default="2/3", help="two-branch strip width")
    ap.add_argument("--n-max", type=int, default=10)
    args = ap.parse_args()

    l2, l1 = Fraction(args.l), Fraction(args.l1)
    print(f"{'n':>3} {'two-branch TV':>14} {'four-branch TV':>15} {'cycles':>7}")
    for n in range(1, args.n_max + 1):
        upo = upo_distribution(l1, enumerate_orbits(l1, n))
        chain = exact_distribution("map1", l1, n)
        support = set(upo.probs) | set(chain.probs)
        tv1 = sum(abs(upo.prob(g) - chain.prob(g)) for g in support) / 2
        diag = generalized_upo_diagnostic(l2, n)
        print(f"{n:>3} {float(tv1):14.6f} {float(diag.total_variation):15.6f} "
              f"{diag.cycles:>7}")


if __name__ == "__main__":
    main()
