"""Command-line front end.

Every operation of the library is reachable as a subcommand, with
human-readable output by default and a stable JSON schema under --json.
Exit codes: 0 success, 1 a verification suite found a failed identity,
2 malformed usage, 3 an exact computation broke down (a division with a
remainder, a series coefficient beyond its truncation bounds, or a failed
combinatorial invariant).
Each command computes one quantity and exits, so handlers import the
modules only they use, and a cold start loads no more than its command runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import deligne, groupalg
from .exact import NonDivisibleError, OutOfBoundsError, poly_to_json, rational_to_json, to_binomial_basis
from .partitions import InvariantError, format_partition, parse_cycle_type, parse_partition

USAGE_ERROR = 2
COMPUTATION_ERROR = 3


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"not a rational number: {text!r}") from err


def _emit_poly(args, poly, label: str, extra: dict | None = None) -> None:
    binom = to_binomial_basis(poly)
    payload = dict(extra or {})
    payload[label] = poly_to_json(poly)
    payload[f"{label}_binomial"] = poly_to_json(binom)
    if args.t_eval is not None:
        at_t = poly(args.t_eval)
        payload["t_eval"] = {"t": str(args.t_eval), "value": rational_to_json(at_t)}
    if args.json:
        print(json.dumps(payload))
        return
    for key, value in (extra or {}).items():
        print(f"{key} = {value}")
    print(f"{label} = {poly}")
    print(f"{label} (binomial basis) = {binom}")
    if args.t_eval is not None:
        print(f"value at t = {args.t_eval}: {at_t}")


def cmd_dim(args) -> int:
    lam = parse_partition(args.lam)
    _emit_poly(args, deligne.dimension_poly(lam), "dimension",
               {"lambda": format_partition(lam)})
    return 0


def cmd_pieri(args) -> int:
    lam = parse_partition(args.lam)
    decomp = deligne.pieri(lam)
    entries = deligne.decomposition_to_json(decomp)
    if args.json:
        print(json.dumps({"lambda": format_partition(lam), "terms": entries}))
        return 0
    print(f"lambda = {format_partition(lam)}")
    for entry in entries:
        print(f"  [{entry['partition']}] x {entry['mult']}")
    return 0


def cmd_omega(args) -> int:
    lam = parse_partition(args.lam)
    _emit_poly(args, deligne.jm_eigenvalue(lam), "eigenvalue",
               {"lambda": format_partition(lam)})
    return 0


def cmd_omega_m(args) -> int:
    lam = parse_partition(args.lam)
    rho = parse_cycle_type(args.rho)
    _emit_poly(args, deligne.central_eigenvalue_poly(rho, lam), "eigenvalue",
               {"lambda": format_partition(lam), "rho": args.rho.strip()})
    return 0


def cmd_class_size(args) -> int:
    rho = parse_cycle_type(args.rho)
    _emit_poly(args, deligne.class_size_poly(rho), "class_size",
               {"rho": args.rho.strip()})
    return 0


def cmd_hilbert(args) -> int:
    from . import schurweyl
    coefficients = tuple(int(piece) for piece in args.h.split(","))
    series = schurweyl.tensor_power_hilbert(schurweyl.UnitalHilbert(coefficients), args.deg)
    rows = [(k, series.coefficient((k,))) for k in range(args.deg + 1)]
    if args.json:
        print(json.dumps({
            "h": args.h,
            "deg": args.deg,
            "coefficients": {str(k): poly_to_json(p) for k, p in rows},
        }))
        return 0
    print(f"h(x) = {args.h}; coefficients of h(x)^t:")
    for k, poly in rows:
        print(f"  x^{k}: {poly}")
    return 0


def cmd_verma(args) -> int:
    from . import schurweyl
    lam = parse_partition(args.lam)
    weight = schurweyl.VermaWeight(lam, args.space_dim)
    triples = schurweyl.verma_candidates(weight, args.t_max)
    t_values = sorted({t for t, _, _ in triples})
    if args.json:
        print(json.dumps({
            "lambda": format_partition(lam),
            "N": args.space_dim,
            "tMax": args.t_max,
            "t": t_values,
            "witnesses": [{"t": t, "i": i, "m": m} for t, i, m in triples],
        }))
        return 0
    print(f"lambda = {format_partition(lam)}, N = {args.space_dim}, t <= {args.t_max}")
    print("candidate integer ranks:", " ".join(map(str, t_values)) or "(none)")
    return 0


def cmd_branch(args) -> int:
    from . import schurweyl
    lam = parse_partition(args.lam)
    mus = schurweyl.interlacing_branch(lam, args.space_dim, args.max_size)
    if args.json:
        print(json.dumps({
            "lambda": format_partition(lam),
            "N": args.space_dim,
            "bound": args.max_size,
            "branches": [format_partition(mu) for mu in mus],
        }))
        return 0
    print(f"lambda = {format_partition(lam)}, N = {args.space_dim}, |mu| <= {args.max_size}")
    for mu in mus:
        print(f"  [{format_partition(mu)}]")
    return 0


def cmd_stirling(args) -> int:
    table = groupalg.coefficient_table(args.max_m)
    if args.json:
        print(json.dumps({str(m): poly_to_json(p) for m, p in table.items()}))
        return 0
    for m, poly in table.items():
        print(f"  x^{m}: {poly}")
    return 0


def cmd_bounds(args) -> int:
    from . import bounds
    report = bounds.bound_sweep(args.max_n)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(f"n = {report.n}: {report.partition_count} partitions, "
              f"min slack {report.min_slack} at [{format_partition(report.argmin)}], "
              f"{'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    from . import verify
    reports = verify.run_suites(args.suite, max_size=args.max_size,
                                max_n=args.max_n, max_m=args.max_m,
                                degree=args.deg)
    failed = any(not r.passed for r in reports)
    if args.json:
        print(json.dumps({"pass": not failed, "suites": [r.to_json() for r in reports]}))
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.suite}: {r.checks} checks, {status} ({r.elapsed:.2f}s)")
            for f in r.failures:
                print(f"  FAIL {f.check} {f.where}: {f.detail}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repst",
        description="Exact rank-interpolation formulas for symmetric-group "
                    "representation data, with classical S_n cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, **kwargs):
        p = sub.add_parser(name, help=help_text, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    def lam_flag(p, required=True):
        p.add_argument("--lambda", dest="lam", required=required, default="",
                       help='partition as comma-separated parts, "" for empty')

    def rho_flag(p):
        p.add_argument("--rho", required=True,
                       help='cycle type as counts of 2-cycles,3-cycles,...; "" for identity')

    def t_eval_flag(p):
        p.add_argument("--t-eval", type=_parse_rational, default=None,
                       help="also evaluate the polynomial at this rational t")

    p = add("dim", cmd_dim, "dimension polynomial of the object labeled by a partition")
    lam_flag(p); t_eval_flag(p)

    p = add("pieri", cmd_pieri, "decomposition of (one-box object) tensor X_lambda")
    lam_flag(p)

    p = add("omega", cmd_omega, "sum-of-transpositions (Jucys-Murphy) eigenvalue")
    lam_flag(p); t_eval_flag(p)

    p = add("omega-m", cmd_omega_m, "class-sum eigenvalue for a general cycle type")
    lam_flag(p); rho_flag(p); t_eval_flag(p)

    p = add("class-size", cmd_class_size, "conjugacy-class size as a polynomial in the rank")
    rho_flag(p); t_eval_flag(p)

    p = add("hilbert", cmd_hilbert, "coefficients of h(x)^t for a unital Hilbert series")
    p.add_argument("--h", required=True, help="comma-separated coefficients of h, starting with 1")
    p.add_argument("--deg", type=int, default=6, help="truncation degree")

    p = add("verma", cmd_verma, "integer ranks at which the highest-weight module may degenerate")
    lam_flag(p)
    p.add_argument("--N", dest="space_dim", type=int, required=True, help="dimension of the ambient space")
    p.add_argument("--t-max", type=int, default=10, help="largest rank to scan")

    p = add("branch", cmd_branch, "interlacing branching of the induced module")
    lam_flag(p)
    p.add_argument("--N", dest="space_dim", type=int, required=True, help="dimension of the ambient space")
    p.add_argument("--max-size", type=int, default=6, help="largest |mu| to list")

    p = add("stirling", cmd_stirling,
            "Hilbert coefficients of the filtered group algebra",
            epilog=groupalg.order_remark())
    p.add_argument("--max-m", type=int, default=4, help="largest coefficient index")

    p = add("bounds", cmd_bounds, "dimension lower-bound sweep over all partitions of n")
    p.add_argument("--max-n", type=int, default=12, help="size to sweep")

    p = add("verify", cmd_verify, "run a batch verification suite (exit 1 on any failure)")
    p.add_argument("--suite", required=True,
                   choices=["bounds", "graded", "oracle", "pieri", "stirling", "all"],
                   help="which identities to check")
    p.add_argument("--max-size", type=int, default=None, help="cap on |lambda|")
    p.add_argument("--max-n", type=int, default=None, help="cap on the integer rank n")
    p.add_argument("--max-m", type=int, default=None, help="cap on moved points / coefficient index")
    p.add_argument("--deg", type=int, default=None, help="series truncation degree")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (NonDivisibleError, OutOfBoundsError, InvariantError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return COMPUTATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
