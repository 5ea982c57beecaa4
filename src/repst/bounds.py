"""Exact dimension lower bounds for symmetric-group irreducibles.

For mu of size n with d the larger of first-row and first-column lengths,

    hook_dim(mu)  >=  binom(n, d) * (d / n)^d,

an inequality derived by peeling the first row (or column) off the diagram
and bounding the correction factor with the AM-GM inequality.  Everything
here is checked in exact rational arithmetic; only the finite inequalities
are implemented, never their asymptotic consequences.

Conjugation fixes both hook_dim(mu) and d, so the sweeps over all mu of n
compute hook_dim only for mu with mu_1 >= len(mu), one of each conjugate
pair, and stream the partitions through iter_partitions instead of keeping
them in the partitions_of cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, prod

from .exact import _ratio, rational_to_json
from .partitions import Partition, conjugate, format_partition, iter_partitions
from .snoracle import SizeMismatchError, hook_dim


def dimension_lower_bound(n: int, mu: Partition) -> Fraction:
    """binom(n, d) (d/n)^d with d = max(first row, first column) of mu."""
    if n < 1 or sum(mu) != n:
        raise SizeMismatchError(f"{format_partition(mu)} is not a partition of {n} >= 1")
    d = max(mu[0], len(mu))
    return comb(n, d) * Fraction(d, n) ** d


def row_peel_factors(mu: Partition) -> list[Fraction]:
    """The factors 1 + (c_i - 1)/i, i = 1..d, where d is the first-row
    length and c_i the length of column d - i + 1 (columns counted from the
    right, so c_1 is the shortest)."""
    if not mu:
        return []
    d = mu[0]
    cols = conjugate(mu)
    return [1 + Fraction(cols[d - i] - 1, i) for i in range(1, d + 1)]


def amgm_check(mu: Partition) -> bool:
    """Exact check of the two-step estimate behind the bound, first-row case:

        prod_i (1 + (c_i - 1)/i)  <=  prod_i c_i  <=  (n/d)^d.
    """
    if not mu:
        return True
    n = sum(mu)
    d = mu[0]
    col_product = prod(conjugate(mu))
    return prod(row_peel_factors(mu)) <= col_product <= Fraction(n, d) ** d


def peel_identity_holds(mu: Partition) -> bool:
    """Exact form of the row-peeling step: for nonempty mu with first row d,

        hook_dim(mu) * prod_i (1 + (c_i - 1)/i) == hook_dim(mu') * binom(n, d)

    where mu' is mu without its first row."""
    if not mu:
        return True
    return hook_dim(mu) * prod(row_peel_factors(mu)) == hook_dim(mu[1:]) * comb(sum(mu), mu[0])


@dataclass(frozen=True)
class BoundSweepReport:
    n: int
    partition_count: int
    min_slack: Fraction
    argmin: Partition

    @property
    def passed(self) -> bool:
        return self.min_slack >= 0

    def to_json(self) -> dict:
        return {
            "check": "bound-sweep",
            "n": self.n,
            "partitions": self.partition_count,
            "pass": self.passed,
            "minSlack": rational_to_json(self.min_slack),
            "argmin": format_partition(self.argmin),
        }


def bound_sweep(n: int) -> BoundSweepReport:
    """Check hook_dim(mu) >= dimension_lower_bound(n, mu) for every mu of n,
    reporting the minimum slack (dimension minus bound) and the first mu,
    in enumeration order, that attains it.

    The bound depends on mu only through d, so per d only the first mu of
    least dimension can attain the minimum slack.  That mu has mu_1 >= len(mu):
    its conjugate has the same d and dimension, and of two conjugates the one
    with the longer first row comes first.  So hook_dim is computed only for
    mu_1 >= len(mu), while every mu is still counted and keeps its position."""
    if n < 1:
        raise ValueError("n must be positive")
    least: dict[int, tuple[int, int, Partition]] = {}  # d -> (dim, position, mu)
    count = 0
    for position, mu in enumerate(iter_partitions(n)):
        count += 1
        d = mu[0]
        if d < len(mu):
            continue
        dim = hook_dim(mu)
        best = least.get(d)
        if best is None or dim < best[0]:
            least[d] = (dim, position, mu)
    min_slack, _, argmin = min((dim - dimension_lower_bound(n, mu), position, mu)
                               for dim, position, mu in least.values())
    return BoundSweepReport(n, count, min_slack, argmin)


def lemma_scan(c: Fraction, k: int, n: int) -> list[Partition]:
    """Partitions of n with hook_dim <= c * n^k whose first row AND first
    column are both shorter than n - k, in enumeration order.

    An empty list means the low-dimension irreducibles at this n are all
    hooks-with-long-arm-or-leg; nonempty lists are expected at small n since
    the statement is only eventually true.

    The filter is unchanged by conjugation, so only mu with mu_1 >= len(mu)
    are tested, and a hit with mu_1 > len(mu) brings its conjugate along.
    """
    if n < 1:
        raise SizeMismatchError(f"lemma_scan needs n >= 1, got {n}")
    # hook_dim is an integer, so comparing it with the floor is exact
    threshold = floor(Fraction(*_ratio(c)) * Fraction(n) ** k)
    found = []
    for mu in iter_partitions(n):
        if len(mu) <= mu[0] < n - k and hook_dim(mu) <= threshold:
            found.append(mu)
            if mu[0] > len(mu):
                found.append(conjugate(mu))
    # descending lexicographic order is the enumeration order
    return sorted(found, reverse=True)


def find_threshold(c: Fraction, k: int, n_max: int) -> tuple[int | None, list[Partition]]:
    """Smallest N such that lemma_scan(c, k, n) is empty for every
    N <= n <= n_max, or None if even n_max has violations, together with
    lemma_scan(c, k, N - 1): the last counterexamples, empty when N is 1 or
    None.  c is checked before any scan, and each n is streamed, so a scan to
    the cap caches no partitions."""
    c = Fraction(*_ratio(c))
    threshold = None
    for n in range(n_max, 0, -1):
        found = lemma_scan(c, k, n)
        if found:
            return threshold, found if threshold else []
        threshold = n
    return threshold, []
