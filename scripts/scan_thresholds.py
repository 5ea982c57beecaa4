#!/usr/bin/env python3
"""Empirical onset of the long-row-or-column property.

For each budget (C, k), every irreducible of S_n with dimension at most
C * n^k should eventually have a first row or first column of length at
least n - k.  This scans n up to a cap and reports, per budget, the
smallest N from which no counterexamples appear, together with the
counterexamples at N - 1.

    python scripts/scan_thresholds.py --n-max 20
    python scripts/scan_thresholds.py --n-max 30 --c 1 --k 1
"""

import argparse
import sys
from fractions import Fraction

from repst import bounds
from repst.partitions import check_size_cap, format_partition


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=20)
    parser.add_argument("--c", type=Fraction, nargs="*",
                        default=[Fraction(1), Fraction(2), Fraction(10)])
    parser.add_argument("--k", type=int, nargs="*", default=[0, 1, 2, 3])
    args = parser.parse_args()
    try:
        check_size_cap("n_max", args.n_max)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print(f"{'C':>6} {'k':>3} {'threshold':>10}  last counterexamples")
    for c in args.c:
        for k in args.k:
            threshold = bounds.find_threshold(c, k, args.n_max)
            if threshold is None:
                print(f"{str(c):>6} {k:>3} {'> ' + str(args.n_max):>10}")
                continue
            if threshold == 1:
                print(f"{str(c):>6} {k:>3} {threshold:>10}  (none anywhere)")
                continue
            last = bounds.lemma_scan(c, k, threshold - 1)
            shown = " ".join(f"[{format_partition(mu)}]" for mu in last[:4])
            if len(last) > 4:
                shown += f", ... ({len(last)} total)"
            print(f"{str(c):>6} {k:>3} {threshold:>10}  n={threshold - 1}: {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
