"""Batch verification sweeps: every interpolated quantity against its
classical oracle, and every polynomial identity at the deg + 1 ranks that
prove it, since Rep(S_t) specializes to Rep(S_n) at t = n.

Each suite returns a SuiteReport listing the individual comparisons that
failed (none, on a correct build), each with its inputs as values.  The CLI
exposes these under `repst verify --suite ...` through run_suites, which
times them, and writes the reports as text or JSON; acceptance criterion 11
runs the oracle suite against a deliberately flipped content sign.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from time import perf_counter

from . import bounds, deligne, groupalg, partitions, schurweyl, snoracle
from .exact import ExactPolynomial, NotIntegerValuedError, T, ZERO, binomial_poly
from .partitions import cycle_types_with_support_up_to, format_partition, partitions_up_to, validity_start


@dataclass
class Failure:
    check: str
    where: dict  # the inputs: ints, strings, and partitions or cycle types as tuples
    detail: str


@dataclass
class SuiteReport:
    suite: str
    checks: int = 0
    failures: list[Failure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, check: str, where: dict, detail: str | Callable[[], str] = ""):
        """Count one check.  detail may be a zero-argument callable; it is
        called only for a failing check, so a pass formats nothing."""
        self.checks += 1
        if not ok:
            self.failures.append(Failure(check, where, detail() if callable(detail) else detail))

    def expect(self, check: str, where: dict, expected, got):
        """Record the comparison got == expected, reporting both on failure."""
        self.record(got == expected, check, where, lambda: f"expected {expected}, got {got}")


def oracle_suite(*, max_size: int | None = None, max_m: int = 5) -> SuiteReport:
    """Interpolated dimensions, central-element eigenvalues, and character
    values against honest S_n at the ranks that prove them, plus integrality
    certificates.  With no overrides, dimensions run to size 6, and central
    elements to size 4 and 5 moved points.  Explicit limits apply to every
    sub-check, and each meets the size rule before any check runs.
    """
    for name, value in (("max_size", max_size), ("max_m", max_m)):
        if value is not None:
            partitions.check_size_cap(name, value)
    report = SuiteReport("oracle")
    dim_size, cen_size = (6, 4) if max_size is None else (max_size, max_size)

    for lam in partitions_up_to(dim_size):
        dim, jm = deligne.dimension_poly(lam), deligne.jm_eigenvalue(lam)
        for n in _proving_ranks(lam, (), sum(lam), dim):
            report.expect("dim-oracle", {"lambda": lam, "n": n},
                          snoracle.hook_dim(partitions.pad(lam, n)), dim(n))
        for n in _proving_ranks(lam, (1,), 2, jm):
            report.expect("jm-oracle", {"lambda": lam, "n": n},
                          snoracle.central_eigenvalue(n, (1,), partitions.pad(lam, n)), jm(n))
        _certify(report, dim, "integrality-dim", {"lambda": lam})

    cycle_types = cycle_types_with_support_up_to(max_m)
    for lam in partitions_up_to(cen_size):
        for rho in cycle_types:
            frob = deligne.frobenius_coefficient(lam, rho)
            omega = deligne.central_eigenvalue_poly(rho, lam)
            for n in _proving_ranks(lam, rho, max(sum(lam), partitions.support(rho)), frob, omega):
                where = {"lambda": lam, "rho": rho, "n": n}
                mu = partitions.pad(lam, n)
                report.expect("character-shadow", where, snoracle.character(mu, rho), frob(n))
                report.expect("central-oracle", where,
                              snoracle.central_eigenvalue(n, rho, mu), omega(n))
            _certify(report, omega, "integrality-central", {"lambda": lam, "rho": rho})

    for rho in cycle_types:
        _certify(report, deligne.class_size_poly(rho), "integrality-class-size", {"rho": rho})

    stab_types = cycle_types_with_support_up_to(min(max_m, 4))
    for lam in partitions_up_to(min(cen_size, 4)):
        for rho in stab_types:
            same = deligne.frobenius_coefficient(lam, rho) == \
                deligne.frobenius_coefficient(lam, rho, variables=len(lam) + 1)
            report.record(same, "variable-stability", {"lambda": lam, "rho": rho},
                          "coefficient changed when adding a variable")

    return report


def _proving_ranks(lam, rho, oracle_degree: int, *polys: ExactPolynomial) -> range:
    """The deg + 1 ranks from validity_start(lam, rho) that prove polys equal
    to an S_n side of degree oracle_degree in n; deg is the largest degree."""
    start = validity_start(lam, rho)
    return range(start, start + max(oracle_degree, *(p.degree for p in polys)) + 1)


def _certify(report: SuiteReport, poly: ExactPolynomial, check: str, where: dict):
    try:
        deligne.certify_integer_valued(poly)
        report.record(True, check, where)
    except NotIntegerValuedError as err:
        report.record(False, check, where, str(err))


def pieri_suite(*, max_size: int = 8) -> SuiteReport:
    """(t - 1) * dim(lam) = sum of dims over the corner-move decomposition,
    as a polynomial identity, plus symmetry of the decomposition."""
    partitions.check_size_cap("max_size", max_size)
    report = SuiteReport("pieri")
    decomps = {lam: deligne.pieri(lam) for lam in partitions_up_to(max_size)}
    for lam, decomp in decomps.items():
        lhs = (T - 1) * deligne.dimension_poly(lam)
        rhs = ZERO
        for mu, mult in decomp.items():
            rhs = rhs + deligne.dimension_poly(mu).scale(mult)
        report.expect("pieri-dimension", {"lambda": lam}, lhs, rhs)
    for lam, decomp in decomps.items():
        for mu, mult in decomp.items():
            if mu not in decomps:
                continue
            back = decomps[mu].get(lam, 0)
            report.record(back == mult, "pieri-symmetry", {"lambda": lam, "mu": mu},
                          lambda: f"multiplicity {mult} one way, {back} back")
    return report


def stirling_suite(*, max_m: int = 8) -> SuiteReport:
    """Filtered group-algebra Hilbert coefficients: interpolation route
    against elementary symmetric values at the 2m + 1 ranks past its nodes,
    a proof at degree 2m; the Gamma-ratio route; integrality; and the row
    sums n! at n = 0..max_m + 1, the ranks whose rows need no m past max_m."""
    partitions.check_size_cap("max_m", max_m)
    report = SuiteReport("stirling")
    table = groupalg.elementary_symmetric_table(max_m, list(range(1, 4 * max_m + 1)))
    for m in range(max_m + 1):
        poly = groupalg.hilbert_coefficient(m)
        for n in range(2 * m + 1, 4 * m + 2):
            report.expect("stirling-values", {"m": m, "n": n}, table[n - 1][m], poly(n))
        gamma = groupalg.hilbert_coefficient_gamma(m)
        report.record(gamma == poly, "gamma-route", {"m": m},
                      lambda: f"interpolation gave {poly}, Gamma expansion gave {gamma}")
        _certify(report, poly, "integrality-stirling", {"m": m})
    for n in range(max_m + 2):
        total = sum(groupalg.hilbert_coefficient(m)(n) for m in range(max(n, 1)))
        report.expect("stirling-row-sum", {"n": n}, factorial(n), total)
    return report


def bounds_suite(*, max_n: int = 18) -> SuiteReport:
    """Appendix inequalities: the dimension lower bound for every partition
    of n = 1..max_n, the AM-GM step for every partition of n = 1..min(12,
    max_n), and the long-row-or-column scan window at n = 10..min(15, max_n)."""
    partitions.check_size_cap("max_n", max_n, bounds.LEAST_N)
    report = SuiteReport("bounds")
    for n in range(bounds.LEAST_N, max_n + 1):
        sweep = bounds.bound_sweep(n)
        report.record(sweep.passed, "dimension-bound", {"n": n},
                      lambda: f"min slack {sweep.min_slack} at {format_partition(sweep.argmin)}")
    for n in range(1, min(12, max_n) + 1):
        for mu in partitions.partitions_of(n):
            report.record(bounds.amgm_check(mu), "amgm", {"mu": mu}, "inequality failed")
    for n in range(10, min(15, max_n) + 1):
        violations = bounds.lemma_scan(Fraction(1), 1, n)
        report.record(not violations, "lemma-scan", {"C": "1", "k": 1, "n": n},
                      lambda: f"violations: {[format_partition(v) for v in violations]}")
    return report


def graded_suite(*, degree: int = 6) -> SuiteReport:
    """Tensor-power Hilbert series: the coefficients of x^0..x^10 of
    (1+x)^t, a fixed set; the graded decomposition identity and the integer
    specializations, both truncated at degree; and the first filtration
    layer.  The specializations run at t = 0..max(degree, the largest
    coefficient degree), a proof, as x^k of h(x)^t has degree <= k in t."""
    partitions.check_size_cap("degree", degree)
    report = SuiteReport("graded")
    series = schurweyl.tensor_power_hilbert(schurweyl.UnitalHilbert((1, 1)), 10)
    for k, coefficient in enumerate(series):
        report.expect("binomial-series", {"k": k}, binomial_poly(0, k), coefficient)
    for d in (1, 2, 3):
        outcome = schurweyl.graded_decomposition_check(d, degree)
        report.record(outcome.passed, "graded-decomposition",
                      {"d": d, "D": degree},
                      lambda: f"first failing degree {outcome.first_failure}")
    for v in range(1, 6):
        poly = schurweyl.degree_one_dimension(v)
        h0, h1 = schurweyl.tensor_power_hilbert(schurweyl.UnitalHilbert.ungraded(v - 1), 1)
        report.expect("degree-one-layer", {"v": v}, poly, h0 + h1)
    for coeffs in ((1, 1), (1, 2, 1), (1, 0, 3)):
        power = schurweyl.tensor_power_hilbert(schurweyl.UnitalHilbert(coeffs), degree)
        product = [1] + [0] * degree  # h^n truncated at degree, in ints
        for n in range(max(degree, *(c.degree for c in power)) + 1):
            report.record([c(n) for c in power] == product, "integer-specialization",
                          {"h": coeffs, "n": n}, "t = n specialization differs from the n-fold product")
            product = [sum(product[k - i] * c for i, c in enumerate(coeffs[:k + 1]))
                       for k in range(degree + 1)]
    return report


SUITES = {
    "oracle": oracle_suite,
    "pieri": pieri_suite,
    "stirling": stirling_suite,
    "bounds": bounds_suite,
    "graded": graded_suite,
}


def run_suites(name: str, **limits: int | None) -> list[SuiteReport]:
    """Run one named suite, or all of them, with optional range overrides
    (max_size, max_n, max_m, degree), timing each suite.  A suite gets the
    given overrides that its keyword-only parameters name, and its own
    defaults for the rest.  Before any suite runs, an override no chosen
    suite reads is a ValueError, and the rest meet the size rule."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    suites = list(SUITES.values()) if name == "all" else [SUITES[name]]
    given = {key: value for key, value in limits.items() if value is not None}
    for key, value in given.items():
        if not any(key in suite.__kwdefaults__ for suite in suites):
            raise ValueError(f"{key} does not apply to suite {name}")
        least = bounds.LEAST_N if key == "max_n" else 0
        partitions.check_size_cap(key, value, least)
    reports = []
    for suite in suites:
        start = perf_counter()
        report = suite(**{key: given[key] for key in suite.__kwdefaults__ if key in given})
        report.elapsed = perf_counter() - start
        reports.append(report)
    return reports
