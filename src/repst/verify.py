"""Batch verification sweeps: every interpolated quantity against its
classical oracle, every polynomial identity at its full documented range.

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
from .exact import ExactPolynomial, NotIntegerValuedError, T, TruncatedSeries, binomial_poly
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


def oracle_suite(*, max_size: int | None = None, max_n: int | None = None,
                 max_m: int = 5) -> SuiteReport:
    """Interpolated dimensions, central-element eigenvalues, and character
    values against honest S_n, plus integrality certificates.

    With no overrides, each comparison runs over its full documented range
    (dimensions to size 6 / n = 20, central elements to size 4 / moved
    points 5 / n = 10).  Explicit limits apply to every sub-check.
    """
    report = SuiteReport("oracle")
    dim_size = max_size if max_size is not None else 6
    dim_n = max_n if max_n is not None else 20
    cen_size = max_size if max_size is not None else 4
    cen_n = max_n if max_n is not None else 10

    for lam in partitions_up_to(dim_size):
        dim, jm = deligne.dimension_poly(lam), deligne.jm_eigenvalue(lam)
        jm_start = validity_start(lam, (1,))  # never below validity_start(lam)
        for n in range(validity_start(lam), dim_n + 1):
            where = {"lambda": lam, "n": n}
            mu = partitions.pad(lam, n)
            report.expect("dim-oracle", where, snoracle.hook_dim(mu), dim(n))
            if n >= jm_start:
                report.expect("jm-oracle", where, snoracle.central_eigenvalue(n, (1,), mu), jm(n))
        _certify(report, dim, "integrality-dim", {"lambda": lam})

    cycle_types = cycle_types_with_support_up_to(max_m)
    for lam in partitions_up_to(cen_size):
        for rho in cycle_types:
            frob = deligne.frobenius_coefficient(lam, rho)
            omega = deligne.central_eigenvalue_poly(rho, lam)
            for n in range(validity_start(lam, rho), cen_n + 1):
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


def _certify(report: SuiteReport, poly: ExactPolynomial, check: str, where: dict):
    try:
        deligne.certify_integer_valued(poly)
        report.record(True, check, where)
    except NotIntegerValuedError as err:
        report.record(False, check, where, str(err))


def pieri_suite(*, max_size: int = 8) -> SuiteReport:
    """(t - 1) * dim(lam) = sum of dims over the corner-move decomposition,
    as a polynomial identity, plus symmetry of the decomposition."""
    report = SuiteReport("pieri")
    decomps = {lam: deligne.pieri(lam) for lam in partitions_up_to(max_size)}
    for lam, decomp in decomps.items():
        lhs = (T - 1) * deligne.dimension_poly(lam)
        rhs = ExactPolynomial()
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


def stirling_suite(*, max_n: int = 13, max_m: int = 6) -> SuiteReport:
    """Filtered group-algebra Hilbert coefficients: interpolation route
    against elementary symmetric values beyond the nodes, agreement of the
    Gamma-ratio route, factorial row sums, integrality."""
    report = SuiteReport("stirling")
    for m in range(max_m + 1):
        poly = groupalg.hilbert_coefficient(m)
        table = groupalg.elementary_symmetric_table(m, list(range(1, max_n)))
        for n in range(2 * m + 1, max_n + 1):
            report.expect("stirling-values", {"m": m, "n": n}, table[n - 1][m], poly(n))
        gamma = groupalg.hilbert_coefficient_gamma(m)
        same = gamma == poly
        report.record(same, "gamma-route", {"m": m},
                      "" if same else f"interpolation gave {poly}, Gamma expansion gave {gamma}")
        _certify(report, poly, "integrality-stirling", {"m": m})
    for n in range(min(9, max_n) + 1):
        total = sum(groupalg.hilbert_coefficient(m)(n) for m in range(max(n, 1)))
        report.expect("stirling-row-sum", {"n": n}, factorial(n), total)
    return report


def bounds_suite(*, max_n: int = 18) -> SuiteReport:
    """Appendix inequalities: the dimension lower bound for every partition,
    the AM-GM step, and the long-row-or-column scan window.  A max_n below
    1 would check nothing, so it is a ValueError."""
    if max_n < 1:
        raise ValueError(f"suite bounds needs max_n >= 1, got {max_n}")
    report = SuiteReport("bounds")
    for n in range(1, max_n + 1):
        sweep = bounds.bound_sweep(n)
        report.record(sweep.passed, "dimension-bound", {"n": n},
                      lambda: f"min slack {sweep.min_slack} at {format_partition(sweep.argmin)}")
    for n in range(1, min(12, max_n) + 1):
        for mu in partitions.partitions_of(n):
            report.record(bounds.amgm_check(mu), "amgm", {"mu": mu}, "inequality failed")
    if max_n >= 15:
        for n in range(10, 16):
            violations = bounds.lemma_scan(Fraction(1), 1, n)
            report.record(not violations, "lemma-scan", {"C": "1", "k": 1, "n": n},
                          lambda: f"violations: {[format_partition(v) for v in violations]}")
    return report


def graded_suite(*, degree: int = 6) -> SuiteReport:
    """Tensor-power Hilbert series: binomial coefficients of (1+x)^t, the
    graded decomposition identity, the first filtration layer, and integer
    specializations."""
    report = SuiteReport("graded")
    series = schurweyl.tensor_power_hilbert(schurweyl.UnitalHilbert((1, 1)), 10)
    for k in range(11):
        report.expect("binomial-series", {"k": k}, binomial_poly(0, k), series.coefficient((k,)))
    for d in (1, 2, 3):
        outcome = schurweyl.graded_decomposition_check(d, degree)
        report.record(outcome.passed, "graded-decomposition",
                      {"d": d, "D": degree},
                      lambda: f"first failing degree {outcome.first_failure}")
    for v in range(1, 6):
        poly = schurweyl.degree_one_dimension(v)
        h = schurweyl.tensor_power_hilbert(schurweyl.UnitalHilbert.ungraded(v - 1), 1)
        truncated = h.coefficient((0,)) + h.coefficient((1,))
        report.expect("degree-one-layer", {"v": v}, poly, truncated)
    for coeffs in ((1, 1), (1, 2, 1), (1, 0, 3)):
        h = schurweyl.UnitalHilbert(coeffs)
        power = schurweyl.tensor_power_hilbert(h, 6)
        base = TruncatedSeries((6,), {(k,): c for k, c in enumerate(coeffs)})
        product = TruncatedSeries.constant((6,), 1)
        for n in range(7):
            report.record(power.eval_t(n) == product, "integer-specialization",
                          {"h": coeffs, "n": n}, "t = n specialization differs from the n-fold product")
            product = product * base
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
    suite reads is a ValueError; the rest meet the enumeration cap."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    suites = list(SUITES.values()) if name == "all" else [SUITES[name]]
    given = {key: value for key, value in limits.items() if value is not None}
    for key, value in given.items():
        if not any(key in suite.__kwdefaults__ for suite in suites):
            raise ValueError(f"{key} does not apply to suite {name}")
        partitions.check_size_cap(key, value)
    reports = []
    for suite in suites:
        start = perf_counter()
        report = suite(**{key: given[key] for key in suite.__kwdefaults__ if key in given})
        report.elapsed = perf_counter() - start
        reports.append(report)
    return reports
