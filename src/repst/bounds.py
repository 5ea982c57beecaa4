"""Exact dimension lower bounds for symmetric-group irreducibles.

For mu of size n with d the larger of first-row and first-column lengths,

    hook_dim(mu)  >=  binom(n, d) * (d / n)^d,

an inequality derived by peeling the first row (or column) off the diagram
and bounding the correction factor with the AM-GM inequality.  Everything
here is checked in exact rational arithmetic; only the finite inequalities
are implemented, never their asymptotic consequences.

Conjugation fixes both hook_dim(mu) and d, so the sweeps over all mu of n
visit only mu with mu_1 >= len(mu), one of each conjugate pair.  They get
the hook product H(mu) = n! / hook_dim(mu) of each from one walk,
_wide_hook_products, which builds the diagrams row by row from the bottom
and shares the hooks of the lower rows between all the diagrams above them
(the hook-length formula of Frame, Robinson and Thrall in its beta-number
form, Fulton-Harris eq. 4.11), and read each dimension n!/H(mu) off it.
The walk keeps only its depth-first stack, so a sweep caches no partitions.
Like every module but verify, this one imports nothing from the oracle,
snoracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, floor, prod
from operator import itemgetter, mul
from typing import Iterator

from .exact import _ratio
from .partitions import Partition, SizeMismatchError, check_size_cap, conjugate, format_partition


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


def _wide_hook_products(n: int) -> Iterator[tuple[Partition, int]]:
    """(mu, hook product of mu) for every mu of n with mu_1 >= len(mu), each
    once, in no fixed order, depth first.  The cap is checked at the first
    next(), before any work.

    The rows are chosen bottom-up, each at least as long as the row below.
    The k-th row from the bottom (0-based) has beta-number row + k whatever
    the final length, so the rows chosen so far form a partition whose
    beta-numbers stay put.  A row with beta-number b put on top of them
    multiplies the hook product by that row's hooks, the exact integer
    b! / prod_j (b - b_j) over the lower beta-numbers b_j.  A branch is
    dropped once no diagram above it can have a top row as long as its
    first column."""
    check_size_cap("n", n)
    # beta-numbers stay below 2n, since len(mu) <= mu_1 <= n
    factorials = list(accumulate(range(1, 2 * n + 1), mul, initial=1))
    # (rows chosen, top first; their beta-numbers, bottom first; least next
    # row; cells left, more than the rows chosen; their hook product)
    stack = [((), (), 1, n, 1)] if n else []  # () has no first row
    while stack:
        below, betas, low, rest, hooks = stack.pop()
        k = len(betas)
        # all of rest as the top row: mu_1 = rest >= len(mu) = k + 1
        beta = rest + k
        yield (rest, *below), hooks * (factorials[beta] // prod(map(beta.__sub__, betas)))
        # another row at depth k must leave at least itself for the rows
        # above, and more than k + 1 cells, since the top row is at least as
        # long as the k + 2 or more rows of the diagram
        for row in range(low, min(rest // 2, rest - k - 2) + 1):
            beta = row + k
            stack.append(((row, *below), (*betas, beta), row, rest - row,
                          hooks * (factorials[beta] // prod(map(beta.__sub__, betas)))))


@dataclass(frozen=True)
class BoundSweepReport:
    n: int
    partition_count: int
    min_slack: Fraction
    argmin: Partition

    @property
    def passed(self) -> bool:
        return self.min_slack >= 0


def bound_sweep(n: int) -> BoundSweepReport:
    """Check hook_dim(mu) >= dimension_lower_bound(n, mu) for every mu of n,
    reporting the minimum slack (dimension minus bound) and the first mu,
    in descending lexicographic order, that attains it.

    The bound depends on mu only through d, so per d only the first mu of
    least dimension can attain the minimum slack.  That mu has mu_1 >= len(mu):
    its conjugate has the same d and dimension, and of two conjugates the one
    with the longer first row comes first.  So the sweep walks only
    mu_1 >= len(mu), counting each mu twice unless mu_1 = len(mu), since its
    conjugate is the partner the walk does not visit.  Per d = mu_1 it keeps
    the largest hook product, the least dimension, with the lexicographically
    larger mu on a tie, and reads each winner's dimension n!/H off the walk;
    H divides n! exactly.

    (n) has dimension 1 and bound binom(n, n) = 1, and comes first in that
    order, so a passing sweep always reports slack 0 at (n): what it shows
    is that no d-class goes below its bound."""
    if n < 1:
        raise ValueError("n must be positive")
    widest: dict[int, tuple[int, Partition]] = {}  # d -> (hook product, mu)
    count = 0
    for mu, hooks in _wide_hook_products(n):
        d = mu[0]
        count += 1 if d == len(mu) else 2
        best = widest.get(d)
        if best is None or (hooks, mu) > best:
            widest[d] = (hooks, mu)
    # descending d is descending lexicographic order, and min keeps the first
    total = factorial(n)
    min_slack, argmin = min(((total // hooks - dimension_lower_bound(n, mu), mu)
                             for _, (hooks, mu) in sorted(widest.items(), reverse=True)),
                            key=itemgetter(0))
    return BoundSweepReport(n, count, min_slack, argmin)


def lemma_scan(c: Fraction, k: int, n: int) -> list[Partition]:
    """Partitions of n with hook_dim <= c * n^k whose first row AND first
    column are both shorter than n - k, in descending lexicographic order.

    An empty list means the low-dimension irreducibles at this n are all
    hooks-with-long-arm-or-leg; nonempty lists are expected at small n since
    the statement is only eventually true.

    The filter is unchanged by conjugation, so only mu with mu_1 >= len(mu)
    are tested, and a hit with mu_1 > len(mu) brings its conjugate along.
    hook_dim(mu) = n! / H(mu) for the hook product H(mu) of the walk, so the
    budget is tested as n! <= threshold * H(mu), in integers, and hook_dim
    is never called.  k is held to the enumeration cap before n^k is formed.
    """
    if n < 1:
        raise SizeMismatchError(f"lemma_scan needs n >= 1, got {n}")
    check_size_cap("k", k)
    # hook_dim is an integer, so comparing it with the floor is exact
    threshold = floor(Fraction(*_ratio(c)) * Fraction(n) ** k)
    total = factorial(n)
    found = []
    for mu, hooks in _wide_hook_products(n):
        if mu[0] < n - k and total <= threshold * hooks:
            found.append(mu)
            if mu[0] > len(mu):
                found.append(conjugate(mu))
    return sorted(found, reverse=True)


def find_threshold(c: Fraction, k: int, n_max: int) -> tuple[int | None, list[Partition]]:
    """Smallest N such that lemma_scan(c, k, n) is empty for every
    N <= n <= n_max, or None if even n_max has violations, together with
    lemma_scan(c, k, N - 1): the last counterexamples, empty when N is 1 or
    None.  c, then n_max >= 1, are checked before any scan, and each n is
    one walk of _wide_hook_products, which calls hook_dim for no partition
    and caches none."""
    c = Fraction(*_ratio(c))
    if n_max < 1:
        raise SizeMismatchError(f"find_threshold needs n_max >= 1, got {n_max}")
    threshold = None
    for n in range(n_max, 0, -1):
        found = lemma_scan(c, k, n)
        if found:
            return threshold, found if threshold else []
        threshold = n
    return threshold, []
