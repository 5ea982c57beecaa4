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
The walk keeps only the rows of its current branch, so a sweep caches no
partitions.  The threshold scan cuts the walk with the peeling step
applied again to the rows below the first, a table of exact lower bounds
that is the one cache here, one row of rationals per n.
Like every module but verify, this one imports nothing from the oracle,
snoracle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, floor
from operator import itemgetter, mul
from typing import Callable

from .exact import ratio
from .partitions import Partition, SizeMismatchError, check_floor, check_size_cap, conjugate, format_partition

LEAST_N = 1  # the appendix floor: every bound and scan here is stated for n >= 1


def dimension_lower_bound(n: int, mu: Partition) -> Fraction:
    """binom(n, d) (d/n)^d with d = max(first row, first column) of mu."""
    check_floor("n", n, LEAST_N)
    if sum(mu) != n:
        raise SizeMismatchError(f"{format_partition(mu)} is not a partition of {n}")
    d = max(mu[0], len(mu))
    return comb(n, d) * Fraction(d, n) ** d


def amgm_check(mu: Partition) -> bool:
    """Exact check of the two-step estimate behind the bound, first-row case:

        prod_i (1 + (c_i - 1)/i)  <=  prod_i c_i  <=  (n/d)^d,

    where d is the first-row length and c_i the length of column d - i + 1
    (columns counted from the right, so c_1 is the shortest).  Every term is
    positive, so it is checked with the denominators cleared, in integers:
    prod_i (i + c_i - 1) <= d! prod_i c_i and d^d prod_i c_i <= n^d.
    """
    if not mu:
        return True
    n = sum(mu)
    d = mu[0]
    peeled = 1
    col_product = 1
    for i, c in enumerate(reversed(conjugate(mu)), 1):
        peeled *= i + c - 1
        col_product *= c
    return peeled <= factorial(d) * col_product and d ** d * col_product <= n ** d


def _wide_hook_products(n: int, visit: Callable[[int, int, list[int]], None], cut: int | None = None) -> None:
    """Call visit(hooks, top, rows) for every mu of n with mu_1 >= len(mu),
    each once, in no fixed order, depth first, where mu = (top,
    *reversed(rows)) and hooks is its hook product; rows is the walk's own
    list, valid only during the call.  Its callers hold n to the size rule.

    The rows are chosen bottom-up, each at least as long as the row below.
    The k-th row from the bottom (0-based) has beta-number row + k whatever
    the final length, so the rows chosen so far form a partition whose
    beta-numbers stay put.  A row with beta-number b put on top of them
    multiplies the hook product by that row's hooks, the exact integer
    b! / prod_j (b - b_j) over the lower beta-numbers b_j.  A branch is
    dropped once no diagram above it can have a top row as long as its
    first column.

    With `rest` cells left for the top rows, every diagram of a branch has
    a first row of at most rest cells, so its dimension is at least the
    row-peel bound P(n, rest).  Given an integer cut, the walk drops every
    branch with P(n, rest) > cut; P only grows as rest shrinks."""
    least = 1  # every diagram has a first row
    if cut is not None:
        # the least rest with P(n, rest) <= cut, or n + 1 if there is none
        least = bisect_left(_peel_minima(n), True, key=lambda bound: bound is not None and bound <= cut)
    # beta-numbers stay below 2n, since len(mu) <= mu_1 <= n
    factorials = list(accumulate(range(1, 2 * n + 1), mul, initial=1))
    rows: list[int] = []  # the rows chosen, bottom first
    betas: list[int] = []  # their beta-numbers

    def walk(low: int, rest: int, hooks: int) -> None:
        # low: the least next row; rest: cells left, more than the rows
        # chosen; hooks: the hook product of the rows chosen
        k = len(betas)
        # all of rest as the top row: mu_1 = rest >= len(mu) = k + 1
        beta = rest + k
        gaps = 1
        for b in betas:
            gaps *= beta - b
        visit(hooks * (factorials[beta] // gaps), rest, rows)
        # another row at depth k must leave at least itself and `least` for
        # the rows above, and more than k + 1 cells, since the top row is at
        # least as long as the k + 2 or more rows of the diagram
        for row in range(low, min(rest // 2, rest - k - 2, rest - least) + 1):
            beta = row + k
            gaps = 1
            for b in betas:
                gaps *= beta - b
            rows.append(row)
            betas.append(beta)
            walk(row, rest - row, hooks * (factorials[beta] // gaps))
            rows.pop()
            betas.pop()

    if n >= least:
        walk(1, n, 1)


@lru_cache(maxsize=None)
def _peel_minima(m: int) -> tuple[Fraction | None, ...]:
    """P(m, D) for D = 0..m, the least row-peel bound L(m, d) over d <= D,
    or None while no d qualifies.  L(m, d) bounds hook_dim(mu) below for
    every mu of m with mu_1 = d >= len(mu), so d^2 >= m:

        L(0, 0) = 1,   L(m, d) = binom(m, d) (d/m)^d P(m - d, min(d, m - d)).

    Peeling the first row off mu costs at most the appendix factor
    binom(m, d) (d/m)^d, and leaves a partition of m - d whose first row
    and first column are both at most min(d, m - d); it has the dimension
    of its conjugate, and the longer of the two is the first row of
    whichever of them has mu_1 >= len(mu)."""
    if m == 0:
        return (Fraction(1),)
    minima: list[Fraction | None] = []
    least = None
    for d in range(m + 1):
        if d * d >= m:
            bound = comb(m, d) * Fraction(d, m) ** d * _peel_minima(m - d)[min(d, m - d)]
            if least is None or bound < least:
                least = bound
        minima.append(least)
    return tuple(minima)


@dataclass(frozen=True)
class BoundSweepReport:
    n: int
    partition_count: int
    min_slack: Fraction
    argmin: Partition
    least_ratio: Fraction | None  # least dim/bound over d < n, None if n <= 2
    least_ratio_at: Partition | None

    @property
    def passed(self) -> bool:
        return self.min_slack >= 0


def bound_sweep(n: int) -> BoundSweepReport:
    """Check hook_dim(mu) >= dimension_lower_bound(n, mu) for every mu of n,
    reporting the minimum slack (dimension minus bound) and the first mu,
    in descending lexicographic order, that attains it, and likewise the
    least ratio of dimension to bound over d < n.

    The bound depends on mu only through d, so per d only the first mu of
    least dimension can attain either minimum.  That mu has mu_1 >= len(mu):
    its conjugate has the same d and dimension, and of two conjugates the one
    with the longer first row comes first.  So the sweep walks only
    mu_1 >= len(mu), counting each mu twice unless mu_1 = len(mu), since its
    conjugate is the partner the walk does not visit.  Per d = mu_1 it keeps
    the largest hook product, the least dimension, with the lexicographically
    larger mu on a tie, and reads each winner's dimension n!/H off the walk;
    H divides n! exactly.

    (n) has dimension 1 and bound binom(n, n) = 1, and comes first in that
    order, so a passing sweep always reports slack 0 at (n); the least ratio
    leaves d = n out, and shows how close the other classes come."""
    check_size_cap("n", n, LEAST_N)
    best = [0] * (n + 1)  # per d, the largest hook product
    winners: list[Partition] = [()] * (n + 1)  # per d, the first mu with it
    count = 0

    def visit(hooks: int, top: int, rows: list[int]) -> None:
        nonlocal count
        count += 1 if top == len(rows) + 1 else 2
        if hooks >= best[top]:
            mu = (top, *reversed(rows))
            if hooks > best[top] or mu > winners[top]:
                best[top] = hooks
                winners[top] = mu

    _wide_hook_products(n, visit)
    # descending d is descending lexicographic order, and min keeps the first
    total = factorial(n)
    classes = [d for d in range(n, 0, -1) if best[d]]
    min_slack, argmin = min(((total // best[d] - dimension_lower_bound(n, winners[d]), winners[d])
                             for d in classes), key=itemgetter(0))

    def scale(d: int) -> int:
        # dim/bound = n! n^d / scale(d) for the winner of class d
        return best[d] * comb(n, d) * d ** d

    least = None  # the class d < n of least ratio, the first on a tie
    for d in classes[1:]:
        if least is None or scale(d) * n ** least > scale(least) * n ** d:
            least = d
    if least is None:
        return BoundSweepReport(n, count, min_slack, argmin, None, None)
    return BoundSweepReport(n, count, min_slack, argmin,
                            Fraction(total * n ** least, scale(least)), winners[least])


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
    is never called.  The walk is cut at the threshold: a branch whose
    row-peel bound exceeds it holds no hit.  n and k are held to the size
    rule before n^k is formed or the peel table is built.
    """
    check_size_cap("n", n, LEAST_N)
    check_size_cap("k", k)
    # hook_dim is an integer, so comparing it with the floor is exact
    threshold = floor(Fraction(*ratio(c)) * Fraction(n) ** k)
    total = factorial(n)
    found = []

    def visit(hooks: int, top: int, rows: list[int]) -> None:
        if top < n - k and total <= threshold * hooks:
            mu = (top, *reversed(rows))
            found.append(mu)
            if top > len(mu):
                found.append(conjugate(mu))

    _wide_hook_products(n, visit, threshold)
    return sorted(found, reverse=True)


def find_threshold(c: Fraction, k: int, n_max: int) -> tuple[int | None, list[Partition]]:
    """Smallest N such that lemma_scan(c, k, n) is empty for every
    N <= n <= n_max, or None if even n_max has violations, together with
    lemma_scan(c, k, N - 1): the last counterexamples, empty when N is LEAST_N
    or None.  c, then n_max (by check_size_cap), are checked before any scan,
    and each n is one walk of _wide_hook_products, cut at the budget, which
    calls hook_dim for no partition and caches none; the peel table it cuts
    by is cached per n, and shared by every budget."""
    c = Fraction(*ratio(c))
    check_size_cap("n_max", n_max, LEAST_N)
    threshold = None
    for n in range(n_max, LEAST_N - 1, -1):
        found = lemma_scan(c, k, n)
        if found:
            return threshold, found if threshold else []
        threshold = n
    return threshold, []
