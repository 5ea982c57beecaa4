"""The benchmark's workloads: fixed item sets computed through repst's
public API, and the output checks that prove each result.

An item is one result a user of the library asks for.  `compute` runs inside
the timed region; `check` runs afterwards, outside it, and returns a list of
(label, ok) pairs, one per comparison.  The item set of a workload does not
depend on the seed; the seed only shuffles the order of each pass and picks
the rational rank used for the off-node identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial
from typing import Callable

from repst import bounds, deligne, groupalg, partitions, schurweyl, snoracle, verify
from repst.exact import ExactPolynomial, T

Checks = list[tuple[str, bool]]

# the classes of criterion 5 and its neighbours: few cycle types, many rows
COLUMN_CLASSES = ((1,), (0, 1), (2,))


@dataclass(frozen=True)
class Item:
    key: str
    compute: Callable[[], object]
    check: Callable[[object, Fraction], Checks]


def _fmt(parts) -> str:
    return ",".join(map(str, parts)) or "-"


def _padded(lam, n: int):
    """(n - |lam|, lam_1, ...), built here rather than by repst."""
    size = sum(lam)
    return ((n - size,) if n > size else ()) + tuple(lam)


def _class_size_at(rho, t: Fraction) -> Fraction:
    """|class of rho| at rank t: t (t-1) ... (t-m+1) / prod c! (i+2)^c."""
    num = Fraction(1)
    for j in range(snoracle.support(rho)):
        num *= t - j
    den = 1
    for i, c in enumerate(rho):
        den *= factorial(c) * (i + 2) ** c
    return num / den


def _elementary(m: int, n: int) -> int:
    """e_m(1, ..., n-1) by the usual recurrence."""
    row = [1] + [0] * m
    for v in range(1, n):
        for k in range(m, 0, -1):
            row[k] += v * row[k - 1]
    return row[m]


def _partition_count(n: int) -> int:
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            counts[k] += counts[k - part]
    return counts[n]


# --- central and columns: class-sum eigenvalues through the Frobenius route --


def _frobenius_compute(lam, rho):
    omega = deligne.central_eigenvalue_poly(rho, lam)
    frob = deligne.frobenius_coefficient(lam, rho)
    return frob, omega, deligne.certify_integer_valued(omega)


def frobenius_check(lam, rho, result, t: Fraction) -> Checks:
    """Proof of one (lam, rho) item against the S_n oracle.

    For n >= start the oracle character is a polynomial in n of degree at
    most |lam|, and the eigenvalue one of degree at most the number of moved
    points; agreement at one more rank than the largest degree in play is
    therefore a proof, not a sample.
    """
    frob, omega, cert = result
    size, moved = sum(lam), snoracle.support(rho)
    start = max(size + (lam[0] if lam else 0), moved)
    top = max(frob.degree, omega.degree, len(cert.coeffs) - 1, size, moved)
    checks = [("certificate-integral", all(c.denominator == 1 for c in cert.coeffs))]
    for n in range(start, start + top + 1):
        mu = _padded(lam, n)
        value = omega(n)
        checks.append((f"character@{n}", frob(n) == snoracle.character(mu, rho)))
        checks.append((f"eigenvalue@{n}", value == snoracle.central_eigenvalue(n, rho, mu)))
        checks.append((f"certificate@{n}",
                       sum(c * comb(n, j) for j, c in enumerate(cert.coeffs)) == value))
    lhs = _class_size_at(rho, t) * frob(t)
    checks.append((f"off-node@{t}", lhs == omega(t) * deligne.dimension_poly(lam)(t)))
    return checks


def frobenius_items(max_size: int, classes) -> list[Item]:
    return [
        Item(f"lambda={_fmt(lam)};rho={_fmt(rho)}",
             partial(_frobenius_compute, lam, rho),
             partial(frobenius_check, lam, rho))
        for lam in partitions.partitions_up_to(max_size)
        for rho in classes
    ]


# --- sweep: dimensions, Pieri, group algebra, bounds, graded, verify suites --


def _dim_jm_compute(lam, max_n):
    dim, jm = deligne.dimension_poly(lam), deligne.jm_eigenvalue(lam)
    outcomes = []
    for n in range(sum(lam) + (lam[0] if lam else 0), max_n + 1):
        mu = partitions.pad(lam, n)
        outcomes.append((f"dim@{n}", dim(n) == snoracle.hook_dim(mu)))
        if n >= 2:
            outcomes.append((f"jm@{n}", jm(n) == snoracle.central_eigenvalue(n, (1,), mu)))
    return dim, jm, tuple(outcomes)


def _dim_jm_check(lam, result, t: Fraction) -> Checks:
    _, jm, outcomes = result
    size = sum(lam)
    contents = sum(j - i for i, row in enumerate(lam) for j in range(row))
    closed = contents - size + (t - size) * (t - size - 1) / 2
    return list(outcomes) + [(f"jm-closed-form@{t}", jm(t) == closed)]


def _pieri_compute(lam):
    decomp = deligne.pieri(lam)
    lhs = (T - 1) * deligne.dimension_poly(lam)
    rhs = ExactPolynomial()
    for mu, mult in decomp.items():
        rhs = rhs + deligne.dimension_poly(mu).scale(mult)
    return decomp, lhs, rhs


def _pieri_check(lam, result, t: Fraction) -> Checks:
    """The identity as polynomials, and as the S_n fact (n - 1) f^lam =
    sum mult f^mu at |lam| + 2 ranks, one more than its degree."""
    decomp, lhs, rhs = result
    checks = [("pieri-polynomial", lhs == rhs), (f"pieri@{t}", lhs(t) == rhs(t))]
    start = sum(lam) + (lam[0] if lam else 0) + 2
    for n in range(start, start + sum(lam) + 2):
        expected = (n - 1) * snoracle.hook_dim(_padded(lam, n))
        got = sum(mult * snoracle.hook_dim(_padded(mu, n)) for mu, mult in decomp.items())
        checks.append((f"pieri-oracle@{n}", got == expected))
    return checks


def _stirling_compute(m):
    return groupalg.hilbert_coefficient(m), groupalg.hilbert_coefficient_gamma(m)


def _stirling_check(m, result, t: Fraction) -> Checks:
    """Degree 2m, so the 2m + 3 ranks 0 .. 2m + 2 prove it; the last two are
    off the interpolation nodes."""
    poly, gamma = result
    checks = [("gamma-route", gamma == poly)]
    for n in range(2 * m + 3):
        checks.append((f"stirling@{n}", poly(n) == _elementary(m, n)))
    return checks


def _bound_check(n, report, t: Fraction) -> Checks:
    return [("bound-passed", report.passed and report.min_slack >= 0),
            ("bound-count", report.partition_count == _partition_count(n))]


def _graded_check(d, report, t: Fraction) -> Checks:
    return [("graded-passed", report.passed and report.first_failure is None)]


def _suite_compute(name):
    # through the module attribute, which the tracer wraps; SUITES holds the originals
    report = getattr(verify, f"{name}_suite")()
    return report.suite, report.checks, tuple((f.check, str(f.where)) for f in report.failures)


def _suite_check(name, result, t: Fraction) -> Checks:
    suite, count, failures = result
    passed = count - len(failures)
    return ([(f"{suite}:{check} {where}", False) for check, where in failures]
            + [(f"{suite}:ok", True)] * passed)


def sweep_items() -> list[Item]:
    """Everything but the Frobenius route: none of these call
    frobenius_coefficient."""
    items = [Item(f"dim-jm:{_fmt(lam)}", partial(_dim_jm_compute, lam, 30),
                  partial(_dim_jm_check, lam))
             for lam in partitions.partitions_up_to(8)]
    items += [Item(f"pieri:{_fmt(lam)}", partial(_pieri_compute, lam), partial(_pieri_check, lam))
              for lam in partitions.partitions_up_to(10)]
    items += [Item(f"stirling:{m}", partial(_stirling_compute, m), partial(_stirling_check, m))
              for m in range(13)]
    items += [Item(f"bound-sweep:{n}", partial(bounds.bound_sweep, n), partial(_bound_check, n))
              for n in range(1, 31)]
    items += [Item(f"graded:{d}", partial(schurweyl.graded_decomposition_check, d, 12),
                   partial(_graded_check, d))
              for d in (1, 2, 3)]
    items += [Item(f"verify:{name}", partial(_suite_compute, name), partial(_suite_check, name))
              for name in ("pieri", "stirling", "bounds", "graded")]
    return items


WORKLOADS: dict[str, Callable[[], list[Item]]] = {
    "central": lambda: frobenius_items(5, snoracle.cycle_types_with_support_up_to(6)),
    "columns": lambda: frobenius_items(7, COLUMN_CLASSES),
    "sweep": sweep_items,
}


class Schedule:
    """What the seed decides: a non-integer rational rank for the off-node
    identities, and a fresh order of the items for every pass.  Per-item
    times then cover many orders, so they do not hinge on which item of one
    order happened to fill a shared cache first."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        while True:
            t = Fraction(self._rng.randint(-999, 999), self._rng.randint(2, 999))
            if t.denominator != 1:
                self.t = t
                break

    def order(self, count: int) -> list[int]:
        order = list(range(count))
        self._rng.shuffle(order)
        return order
