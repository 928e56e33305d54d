#!/usr/bin/env python3
"""Scan the exact fluctuation-ratio test over strip widths and window
lengths, and print the worst multiplicative correction seen per parameter.

Usage: python scripts/fr_scan.py [--n-max 20] [--out-dir DIR]
"""

import argparse
import math
from fractions import Fraction
from pathlib import Path

from bakerfr.cli import fr_table, fr_texts, write_csv
from bakerfr.fluctuation import exact_distribution, fr_report


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--l-values", default="1/8,1/6,1/5")
    ap.add_argument("--n-max", type=int, default=20)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()

    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'l':>6} {'band':>8} {'alpha range attained over n<=N':>34} {'pass':>6}")
    for text in args.l_values.split(","):
        l = Fraction(text)
        band = math.log(1 / (4 * l))
        lo, hi = Fraction(10 ** 9), Fraction(0)
        ok = True
        for n in range(1, args.n_max + 1):
            rep = fr_report(exact_distribution("map2", l, n))
            ok &= rep.all_pass
            for row in rep.rows:
                lo, hi = min(lo, row.alpha), max(hi, row.alpha)
            if out_dir:
                write_csv(out_dir / f"fr_l{l.numerator}_{l.denominator}_n{n}.csv",
                          *fr_table(rep, fr_texts(rep)))
        print(f"{str(l):>6} {band:8.4f} {f'[{lo}, {hi}]':>34} {str(ok):>6}")


if __name__ == "__main__":
    main()
