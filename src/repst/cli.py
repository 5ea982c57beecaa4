"""Command-line front end, and the only writer of the JSON wire format.

Every operation of the library is reachable as a subcommand, with
human-readable output by default and a stable JSON schema under --json,
the appendix threshold scan (`thresholds`) and table export (`tables`) too.
The library returns values and reports; each `cmd_*` handler turns them into
`(payload, lines)`, the JSON object and the text lines of its answer, and
`main` alone prints one of them and picks the exit code.

Wire format: {"basis": "monomial"|"binomial",
              "coeffs": [[numerator, denominator], ...]}
with numerators and denominators as decimal strings (arbitrary precision);
rational_to_json writes that pair for every rational the CLI reports.
Partitions and cycle types are written as their comma-separated parts.

Exit codes: 0 success, 1 the payload says `"pass": false` (a verify suite
or the bounds sweep found a failure), 2 malformed usage, 3 an exact
computation broke down (a division with a remainder, a series coefficient
beyond its truncation bounds, or a failed combinatorial invariant).
Each command computes one quantity and exits, so handlers import the
modules only they use, and a cold start loads no more than its command runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import deligne
from .exact import (BinomialBasisPolynomial, ExactPolynomial, NonDivisibleError, OutOfBoundsError, Scalar,
                    to_binomial_basis)
from .partitions import (InvariantError, check_size_cap, cycle_types_with_support_up_to,
                         format_partition, parse_counts, parse_cycle_type, parse_partition,
                         partitions_up_to)

CHECK_FAILED = 1
USAGE_ERROR = 2
COMPUTATION_ERROR = 3

Output = tuple[dict, list[str]]  # (JSON payload, text lines); empty lines would print a blank line

# why `repst stirling` reports no "total dimension" at formal rank
ORDER_CAVEAT = (
    "Substituting x = 1 into the Hilbert series term by term would "
    "suggest a total dimension of Gamma(1 + t), matching t! at integer "
    "rank, but the series in x has zero radius of convergence, so that "
    "substitution defines no value.  This tool therefore reports "
    "coefficients only and never evaluates the series at a point."
)


def rational_to_json(q: Scalar) -> list[str]:
    return [str(q.numerator), str(q.denominator)]


def poly_to_json(p) -> dict:
    if isinstance(p, ExactPolynomial):
        basis = "monomial"
    elif isinstance(p, BinomialBasisPolynomial):
        basis = "binomial"
    else:
        raise TypeError(f"cannot serialize {type(p).__name__}")
    return {"basis": basis, "coeffs": [rational_to_json(c) for c in p.coeffs]}


def bound_sweep_to_json(report) -> dict:
    """A bounds.BoundSweepReport as `repst bounds --json` writes it."""
    least = report.least_ratio
    return {"check": "bound-sweep", "n": report.n, "partitions": report.partition_count,
            "pass": report.passed, "minSlack": rational_to_json(report.min_slack),
            "argmin": format_partition(report.argmin),
            "leastRatio": None if least is None else rational_to_json(least),
            "leastRatioAt": None if least is None else format_partition(report.least_ratio_at)}


def _where(where: dict) -> dict:
    """A failure's inputs as written: partitions and cycle types comma-separated."""
    return {key: format_partition(value) if isinstance(value, tuple) else value
            for key, value in where.items()}


def suite_to_json(report) -> dict:
    """A verify.SuiteReport as `repst verify --json` writes it, elapsed in ms steps."""
    return {"suite": report.suite, "checks": report.checks, "pass": report.passed,
            "failures": [{"check": f.check, "where": _where(f.where), "detail": f.detail}
                         for f in report.failures],
            "elapsed": round(report.elapsed, 3)}


def _parse_rational(text: str) -> Fraction:
    # argparse prints the message of an ArgumentTypeError; any other error
    # becomes its own "invalid <function name> value"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from err


def _positive_rational(text: str) -> Fraction:
    # a budget C * n^k with C <= 0 admits no irreducible, so its threshold says nothing
    if (c := _parse_rational(text)) > 0:
        return c
    raise argparse.ArgumentTypeError(f"not a positive rational number: {text!r}")


def _poly_output(args, poly, label: str, extra: dict) -> Output:
    binom = to_binomial_basis(poly)
    payload = {**extra, label: poly_to_json(poly), f"{label}_binomial": poly_to_json(binom)}
    lines = [f"{key} = {value}" for key, value in extra.items()]
    lines += [f"{label} = {poly}", f"{label} (binomial basis) = {binom}"]
    if args.t_eval is not None:
        at_t = poly(args.t_eval)
        payload["t_eval"] = {"t": str(args.t_eval), "value": rational_to_json(at_t)}
        lines.append(f"value at t = {args.t_eval}: {at_t}")
    return payload, lines


def cmd_dim(args) -> Output:
    lam = parse_partition(args.lam)
    return _poly_output(args, deligne.dimension_poly(lam), "dimension",
                      {"lambda": format_partition(lam)})


def cmd_pieri(args) -> Output:
    lam = parse_partition(args.lam)
    terms = sorted(deligne.pieri(lam).items(), key=lambda term: (sum(term[0]), term[0]))
    entries = [{"partition": format_partition(mu), "mult": mult} for mu, mult in terms]
    return ({"lambda": format_partition(lam), "terms": entries},
            [f"lambda = {format_partition(lam)}"]
            + [f"  [{entry['partition']}] x {entry['mult']}" for entry in entries])


def cmd_omega(args) -> Output:
    lam = parse_partition(args.lam)
    return _poly_output(args, deligne.jm_eigenvalue(lam), "eigenvalue",
                      {"lambda": format_partition(lam)})


def cmd_omega_m(args) -> Output:
    lam = parse_partition(args.lam)
    rho = parse_cycle_type(args.rho)
    return _poly_output(args, deligne.central_eigenvalue_poly(rho, lam), "eigenvalue",
                      {"lambda": format_partition(lam), "rho": format_partition(rho)})


def cmd_class_size(args) -> Output:
    rho = parse_cycle_type(args.rho)
    return _poly_output(args, deligne.class_size_poly(rho), "class_size", {"rho": format_partition(rho)})


def cmd_hilbert(args) -> Output:
    from . import schurweyl
    coefficients = parse_counts(args.h)
    power = schurweyl.tensor_power_hilbert(schurweyl.UnitalHilbert(coefficients), args.deg)
    rows = list(enumerate(power))
    h = ",".join(map(str, coefficients))
    return ({"h": h, "deg": args.deg,
             "coefficients": {str(k): poly_to_json(p) for k, p in rows}},
            [f"h(x) = {h}; coefficients of h(x)^t:"] + [f"  x^{k}: {p}" for k, p in rows])


def cmd_verma(args) -> Output:
    from . import schurweyl
    lam = parse_partition(args.lam)
    triples = schurweyl.verma_candidates(schurweyl.VermaWeight(lam, args.space_dim), args.t_max)
    t_values = sorted({t for t, _, _ in triples})
    return ({"lambda": format_partition(lam), "N": args.space_dim, "tMax": args.t_max,
             "t": t_values, "witnesses": [{"t": t, "i": i, "m": m} for t, i, m in triples]},
            [f"lambda = {format_partition(lam)}, N = {args.space_dim}, t <= {args.t_max}",
             "candidate integer ranks: " + (" ".join(map(str, t_values)) or "(none)")])


def cmd_branch(args) -> Output:
    from . import schurweyl
    lam = parse_partition(args.lam)
    mus = [format_partition(mu) for mu in
           schurweyl.interlacing_branch(lam, args.space_dim, args.max_size)]
    return ({"lambda": format_partition(lam), "N": args.space_dim, "bound": args.max_size,
             "branches": mus},
            [f"lambda = {format_partition(lam)}, N = {args.space_dim}, |mu| <= {args.max_size}"]
            + [f"  [{mu}]" for mu in mus])


def cmd_stirling(args) -> Output:
    from . import groupalg
    check_size_cap("m_max", args.max_m)
    table = {m: groupalg.hilbert_coefficient(m) for m in range(args.max_m + 1)}
    return ({str(m): poly_to_json(p) for m, p in table.items()},
            [f"  x^{m}: {p}" for m, p in table.items()])


def cmd_bounds(args) -> Output:
    from . import bounds
    report = bounds.bound_sweep(args.max_n)
    least = ("" if report.least_ratio is None else
             f"least ratio {report.least_ratio} at [{format_partition(report.least_ratio_at)}], ")
    return (bound_sweep_to_json(report),
            [f"n = {report.n}: {report.partition_count} partitions, "
             f"min slack {report.min_slack} at [{format_partition(report.argmin)}], "
             f"{least}{'pass' if report.passed else 'FAIL'}"])


def cmd_thresholds(args) -> Output:
    from . import bounds
    check_size_cap("n_max", args.n_max, bounds.LEAST_N)
    for k in args.k:
        check_size_cap("k", k)
    for flag, values in (("--c", args.c), ("--k", args.k)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{flag} repeats {value}")
    budgets = []
    lines = [f"{'C':>6} {'k':>3} {'threshold':>10}  last counterexamples"]
    for c in args.c:
        for k in args.k:
            threshold, last = bounds.find_threshold(c, k, args.n_max)
            budgets.append({"c": rational_to_json(c), "k": k, "threshold": threshold,
                            "last": [format_partition(mu) for mu in last]})
            row = f"{str(c):>6} {k:>3} {'> ' + str(args.n_max) if threshold is None else threshold:>10}"
            if threshold == bounds.LEAST_N:
                row += "  (none anywhere)"
            elif last:
                row += f"  n={threshold - 1}: " + " ".join(f"[{format_partition(mu)}]" for mu in last[:4])
                if len(last) > 4:
                    row += f", ... ({len(last)} total)"
            lines.append(row)
    return {"nMax": args.n_max, "budgets": budgets}, lines


def cmd_tables(args) -> Output:
    check_size_cap("max_size", args.max_size)
    check_size_cap("max_m", args.max_m)
    lams = list(partitions_up_to(args.max_size))
    tables = {
        "dimensions": {format_partition(lam): deligne.dimension_poly(lam) for lam in lams},
        "jm_eigenvalues": {format_partition(lam): deligne.jm_eigenvalue(lam) for lam in lams},
        "class_sizes": {format_partition(rho): deligne.class_size_poly(rho)
                        for rho in cycle_types_with_support_up_to(args.max_m)},
    }
    return ({name: {key: poly_to_json(p) for key, p in table.items()} for name, table in tables.items()},
            [f"{name}[{key}] = {p}" for name, table in tables.items() for key, p in table.items()])


def cmd_verify(args) -> Output:
    from . import verify
    reports = verify.run_suites(args.suite, max_size=args.max_size,
                                max_n=args.max_n, max_m=args.max_m,
                                degree=args.deg)
    lines = []
    for r in reports:
        lines.append(f"{r.suite}: {r.checks} checks, {'pass' if r.passed else 'FAIL'} ({r.elapsed:.2f}s)")
        lines += [f"  FAIL {f.check} {_where(f.where)}: {f.detail}" for f in r.failures]
    return {"pass": all(r.passed for r in reports), "suites": [suite_to_json(r) for r in reports]}, lines


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

    def lam_flag(p):
        p.add_argument("--lambda", dest="lam", required=True,
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
            epilog=ORDER_CAVEAT)
    p.add_argument("--max-m", type=int, default=4, help="largest coefficient index")

    p = add("bounds", cmd_bounds, "dimension lower-bound sweep over all partitions of n")
    p.add_argument("--max-n", type=int, default=12, help="size to sweep")

    p = add("thresholds", cmd_thresholds,
            "smallest n from which every irreducible of dimension <= C n^k has a "
            "first row or column of length >= n - k")
    p.add_argument("--n-max", type=int, default=20, help="largest n to scan")
    p.add_argument("--c", type=_positive_rational, nargs="+", default=[Fraction(1), Fraction(2), Fraction(10)],
                   help="positive rational budget constants C")
    p.add_argument("--k", type=int, nargs="+", default=[0, 1, 2, 3], help="budget exponents k")

    p = add("tables", cmd_tables, "dimension, Jucys-Murphy eigenvalue and class-size tables")
    p.add_argument("--max-size", type=int, default=5, help="largest |lambda|")
    p.add_argument("--max-m", type=int, default=5, help="largest number of moved points")

    p = add("verify", cmd_verify, "run a batch verification suite (exit 1 on any failure)")
    p.add_argument("--suite", required=True,
                   choices=["bounds", "graded", "oracle", "pieri", "stirling", "all"],
                   help="which identities to check")
    p.add_argument("--max-size", type=int, default=None, help="cap on |lambda|")
    p.add_argument("--max-n", type=int, default=None, help="largest n of the bounds sweep (bounds only)")
    p.add_argument("--max-m", type=int, default=None, help="cap on moved points / coefficient index")
    p.add_argument("--deg", type=int, default=None,
                   help="series truncation degree of the graded decomposition and the integer "
                        "specializations (graded only); its binomial family checks the "
                        "coefficients of x^0..x^10 of (1+x)^t as a fixed set")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines = args.handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (NonDivisibleError, OutOfBoundsError, InvariantError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return COMPUTATION_ERROR
    print(json.dumps(payload) if args.json else "\n".join(lines))
    return 0 if payload.get("pass", True) else CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
