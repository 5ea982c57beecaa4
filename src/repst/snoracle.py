"""Classical symmetric-group reference computations.

Dimensions, Murnaghan-Nakayama characters, conjugacy-class sizes and
central eigenvalues for honest S_n.  The first two work on beta-numbers: a
border strip lowers one beta-number, and the character recursion ends in
Frobenius's dimension formula (Macdonald, Symmetric Functions and Hall
Polynomials, I.1, I.7).  The recursion's memo is the module's one cache: a
dimension is its case with no cycles left, and a central eigenvalue reads
both its character and its dimension there, so each diagram's dimension is
computed once per cache lifetime, whoever asks.  This module is the ground
truth that the rank interpolations elsewhere are checked against, so it
must not import from them, and only the checks in verify import it;
everything here is textbook S_n combinatorics.  Its dimension formula
shares no code with partitions.hook_product, which the interpolated
dimensions divide by.  The cycle-type format it reads, and the list of
cycle types, are defined in partitions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, starmap
from math import factorial, prod
from operator import sub

# cycle_types_with_support_up_to is re-exported for the benchmark, which reads it here
from .partitions import (CycleType, InvariantError, Partition, SizeMismatchError, check_cycle_type,
                         cycle_types_with_support_up_to, format_partition, support)


def cycle_lengths(rho: CycleType) -> tuple[int, ...]:
    """Nontrivial cycle lengths, largest first."""
    lengths = []
    for i, c in enumerate(rho):
        lengths.extend([i + 2] * c)
    return tuple(sorted(lengths, reverse=True))


def _beta(mu: Partition) -> tuple[int, ...]:
    """Beta-numbers mu_i + l - 1 - i (0-based i, l = len(mu)), decreasing."""
    top = len(mu) - 1
    # from a list: tuple() of a generator allocates 10 slots and resizes,
    # and the resized tuples pile up in CPython's tuple free lists
    return tuple([part + top - i for i, part in enumerate(mu)])


def _dimension(beta: tuple[int, ...]) -> int:
    """Frobenius's formula (Fulton-Harris, eq. 4.11) on strictly decreasing
    beta-numbers of any length l, which fix n = sum(beta) - l(l-1)/2:

        f = n! prod_{i<j} (beta_i - beta_j) / prod_i beta_i!."""
    k = len(beta)
    n = sum(beta) - k * (k - 1) // 2
    quotient, remainder = divmod(factorial(n) * prod(starmap(sub, combinations(beta, 2))),
                                 prod(map(factorial, beta)))
    if remainder:
        raise InvariantError(
            f"factorials of the beta-numbers {format_partition(beta)} do not divide {n}! "
            "times their Vandermonde product")
    return quotient


def hook_dim(mu: Partition) -> int:
    """Dimension of the irreducible S_{|mu|}-representation, by Frobenius's
    formula on its beta-numbers, independently of partitions.hook_product:
    the character at the identity, read from the recursion's memo."""
    return _mn_recurse(_beta(mu), ())


@lru_cache(maxsize=None)
def _mn_recurse(beta: tuple[int, ...], lengths: tuple[int, ...]) -> int:
    """The character on beta-numbers at the class with the given cycle
    lengths; the oracle's one memo, whose empty-cycle entries are the
    dimensions."""
    if not lengths:
        # all remaining cycles are fixed points; the character of the
        # identity is the dimension
        return _dimension(beta)
    strip, rest = lengths[0], lengths[1:]
    size = len(beta)
    total = 0
    # removing a border strip of the given length = lowering one beta
    # number by it, provided the slot is free; the sign is the parity of
    # the beta numbers jumped over (= leg length of the strip).  beta is
    # strictly decreasing, so the numbers jumped over are the ones between
    # b and its landing slot, and the lowered number is spliced in there.
    for i, b in enumerate(beta):
        c = b - strip
        if c < 0:
            break  # so does every later, smaller number
        j = i + 1
        while j < size and beta[j] > c:
            j += 1
        if j < size and beta[j] == c:
            continue  # the slot is taken
        value = _mn_recurse(beta[:i] + beta[i + 1:j] + (c,) + beta[j:], rest)
        total += -value if (j - i - 1) & 1 else value
    return total


def character(mu: Partition, rho: CycleType) -> int:
    """Murnaghan-Nakayama character of S_{|mu|} at the class with the given
    nontrivial cycles (padded with fixed points)."""
    rho = check_cycle_type(rho)
    if sum(mu) < support(rho):
        raise SizeMismatchError(f"|{format_partition(mu)}| < moved points {support(rho)}")
    return _mn_recurse(_beta(mu), cycle_lengths(rho))


def class_size(n: int, rho: CycleType) -> int:
    """Number of permutations in S_n with the given nontrivial cycles."""
    rho = check_cycle_type(rho)
    m = support(rho)
    if n < m:
        raise SizeMismatchError(f"n={n} < moved points {m}")
    num = 1
    for j in range(m):
        num *= n - j
    den = 1
    for i, c in enumerate(rho):
        den *= factorial(c) * (i + 2) ** c
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InvariantError(f"centralizer order {den} does not divide {num}")
    return quotient


def central_eigenvalue(n: int, rho: CycleType, mu: Partition) -> Fraction:
    """Scalar by which the class sum of type rho acts on the irreducible mu
    of S_n: |class| * character / dimension."""
    if sum(mu) != n:
        raise SizeMismatchError(f"|{format_partition(mu)}| != n={n}")
    rho = check_cycle_type(rho)
    beta = _beta(mu)
    # class_size raises if the cycles move more than n points
    return Fraction(class_size(n, rho) * _mn_recurse(beta, cycle_lengths(rho)),
                    _mn_recurse(beta, ()))

