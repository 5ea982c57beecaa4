#!/usr/bin/env python3
"""Dump the main interpolation tables as JSON, for plotting or downstream use.

Writes one object with dimension polynomials, transposition-class
eigenvalues, and class-size polynomials for all partitions / cycle types in
range, in the same wire format the CLI uses.

    python scripts/export_tables.py --max-size 5 --max-m 5 > tables.json
"""

import argparse
import json
import sys

from repst import deligne
from repst.exact import poly_to_json
from repst.partitions import (check_size_cap, format_cycle_type, format_partition,
                              partitions_up_to)
from repst.snoracle import cycle_types_with_support_up_to


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=5)
    parser.add_argument("--max-m", type=int, default=5)
    args = parser.parse_args()
    try:
        check_size_cap("max_size", args.max_size)
        check_size_cap("max_m", args.max_m)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    tables = {
        "dimensions": {
            format_partition(lam): poly_to_json(deligne.dimension_poly(lam))
            for lam in partitions_up_to(args.max_size)
        },
        "jm_eigenvalues": {
            format_partition(lam): poly_to_json(deligne.jm_eigenvalue(lam))
            for lam in partitions_up_to(args.max_size)
        },
        "class_sizes": {
            format_cycle_type(rho): poly_to_json(deligne.class_size_poly(rho))
            for rho in cycle_types_with_support_up_to(args.max_m)
        },
    }
    json.dump(tables, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
