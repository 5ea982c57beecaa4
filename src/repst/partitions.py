"""Young diagram primitives.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the empty diagram.  Cells are 1-based (row, col) pairs.
corner_moves, Pieri's cell-moves, joins one-cell additions and removals.

A cycle type records only nontrivial cycles: entry i (0-based) counts
cycles of length i + 2.  Fixed points are implied by the ambient n.
cycle_types_with_support_up_to lists the cycle types by moved points.

validity_start(lam, rho) is the first rank n with a padded partition of n
and room for the cycles of rho; interpolated identities hold from there on.
Every floor on a size goes through check_floor; check_size_cap adds the cap.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain
from operator import index
from typing import Iterator

Partition = tuple[int, ...]
CycleType = tuple[int, ...]
Cell = tuple[int, int]

_DEFAULT_ENUMERATION_LIMIT = 40


class LimitExceededError(ValueError):
    """A capped size (|lambda|, t_max, degree, m, k, ...) exceeds the
    enumeration cap; check_size_cap raises it for every one of them."""


class SizeMismatchError(ValueError):
    """A size does not fit its data: fewer points than the cycles move, a
    partition of another size, or a size below its floor (check_floor)."""


class BadLimitError(ValueError):
    """REPST_LIMITS is set to something other than an integer >= the default cap."""


class InvariantError(ArithmeticError):
    """An exact combinatorial identity failed: a bug, never bad input."""


def enumeration_limit() -> int:
    """Largest n for which partitions_of(n) will run.

    Raised by setting the REPST_LIMITS environment variable to an integer
    of at least the default cap; any other value raises BadLimitError.
    """
    raw = os.environ.get("REPST_LIMITS")
    if not raw:
        return _DEFAULT_ENUMERATION_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise BadLimitError(f"REPST_LIMITS={raw!r} is not an integer") from None
    if limit < _DEFAULT_ENUMERATION_LIMIT:
        raise BadLimitError(
            f"REPST_LIMITS={limit} is below the default cap {_DEFAULT_ENUMERATION_LIMIT}")
    return limit


def check_floor(name: str, value: int, least: int = 0) -> None:
    """The one floor rule, checked before any work: below least is a SizeMismatchError."""
    if value < least:
        floor = "nonnegative" if least == 0 else f">= {least}"
        raise SizeMismatchError(f"{name} must be {floor}, got {value}")


def check_size_cap(name: str, value: int, least: int = 0) -> None:
    """The one size rule, checked before any work: check_floor, and a size
    or a cap on sizes above enumeration_limit() is a LimitExceededError."""
    check_floor(name, value, least)
    if value > enumeration_limit():
        raise LimitExceededError(
            f"{name}={value} exceeds the enumeration cap {enumeration_limit()}; "
            "raise REPST_LIMITS to allow it")


def check_partition(parts) -> Partition:
    """Validate and normalize an iterable of parts into a Partition."""
    lam = tuple(index(p) for p in parts)
    if any(p <= 0 for p in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def parse_counts(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; blank text is the empty list."""
    text = text.strip()
    return tuple(int(piece) for piece in text.split(",")) if text else ()


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated part list; the empty string is the empty
    diagram.  |lam| is held to the enumeration cap."""
    lam = check_partition(parse_counts(text))
    check_size_cap("|lambda|", sum(lam))
    return lam


def format_partition(lam: Partition) -> str:
    """The parts comma-separated; a cycle type is written the same way."""
    return ",".join(str(p) for p in lam)


def check_cycle_type(counts) -> CycleType:
    rho = tuple(index(c) for c in counts)
    if any(c < 0 for c in rho):
        raise ValueError(f"cycle counts must be nonnegative: {rho}")
    while rho and rho[-1] == 0:
        rho = rho[:-1]
    return rho


def parse_cycle_type(text: str) -> CycleType:
    """Parse "m1,m2,..." (counts of 2-cycles, 3-cycles, ...); "" is the
    identity.  The number of moved points is held to the enumeration cap."""
    rho = check_cycle_type(parse_counts(text))
    check_size_cap("support(rho)", support(rho))
    return rho


def support(rho: CycleType) -> int:
    """Number of points moved: sum of m_i * (i + 1) with cycle length i + 1."""
    return sum(c * (i + 2) for i, c in enumerate(rho))


def cycle_type_of_partition(shape: Partition) -> CycleType:
    """Cycle type of a permutation whose cycle lengths are the parts of shape."""
    counts = [0] * (max(shape, default=1) - 1)
    for part in shape:
        if part >= 2:
            counts[part - 2] += 1
    return check_cycle_type(counts)


def cycle_types_with_support_up_to(m_max: int) -> list[CycleType]:
    """All cycle types moving at most m_max points, identity included,
    ordered by (support, cycle type).  A type moving exactly k points is
    the cycle type of a partition of k with no part equal to 1."""
    return sorted((cycle_type_of_partition(shape) for shape in partitions_up_to(m_max)
                   if 1 not in shape), key=lambda r: (support(r), r))


def conjugate(lam: Partition) -> Partition:
    """Column lengths, from one walk up the rows: the columns that row i
    (0-based) has beyond the rows below it all have length i + 1."""
    conj: list[int] = []
    for i in range(len(lam) - 1, -1, -1):
        conj.extend([i + 1] * (lam[i] - len(conj)))
    return tuple(conj)


def cells(lam: Partition) -> Iterator[Cell]:
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            yield (i, j)


def hook_product(lam: Partition) -> int:
    """Product of all hook lengths; the hook of 0-based cell (i, j) is
    lam_i - j + lam'_j - i - 1."""
    conj = conjugate(lam)
    prod = 1
    for i, row in enumerate(lam):
        arm_leg = row - i - 1
        for j in range(row):
            prod *= arm_leg - j + conj[j]
    return prod


def content_sum(lam: Partition) -> int:
    """Sum of (col - row) over all cells.

    This is the sign convention under which the class sum of transpositions
    in S_n acts on an irreducible by exactly this number; see the oracle
    tests, which pin it down.
    """
    return sum(j - i for i, j in cells(lam))


def _added(lam: Partition) -> list[Partition]:
    """Every diagram with one more cell: a row grows, or a new row starts."""
    return [lam[:i] + (row + 1,) + lam[i + 1:] for i, row in enumerate(lam)
            if i == 0 or row < lam[i - 1]] + [lam + (1,)]


def _removed(lam: Partition) -> list[Partition]:
    """Every diagram with one fewer cell; a row of one cell that shrinks goes."""
    return [lam[:i] + ((row - 1,) if row > 1 else ()) + lam[i + 1:]
            for i, (row, below) in enumerate(zip(lam, lam[1:] + (0,))) if row > below]


def corner_moves(lam: Partition) -> list[Partition]:
    """Every diagram one cell-move from lam, with multiplicity: each addable
    cell added, each removable cell removed, and each removable cell removed
    then a cell added anywhere, which gives lam once per removable cell.

    The sizes |lam| + 1, |lam| - 1 and |lam| keep the kinds apart.  A moved
    mu != lam comes from one (removed r, added a) pair only: r is the cell of
    lam not in mu, a the cell of mu not in lam.  Counted, this is Pieri's rule."""
    removed = _removed(lam)
    return _added(lam) + removed + [mu for shrunk in removed for mu in _added(shrunk)]


def validity_start(lam: Partition, rho: CycleType = ()) -> int:
    """Smallest n with n >= |lam| + lam_1, where pad(lam, n) exists, and
    n >= support(rho), where the cycles of rho fit."""
    lowest = sum(lam) + (lam[0] if lam else 0)
    return max(lowest, support(rho))


def pad(lam: Partition, n: int) -> Partition:
    """Prepend a first row so the result is a partition of n.

    Defined only from n = validity_start(lam) on.
    """
    check_floor("n", n, validity_start(lam))
    return (n - sum(lam),) + lam if n > sum(lam) else lam


def b_set(lam: Partition) -> frozenset[int]:
    """The beta-numbers lam_i + |lam| - i, i = 1..|lam| (lam_i = 0 past the
    last row); they are distinct because lam_i - i strictly decreases."""
    n = sum(lam)
    return frozenset((lam[i] if i < len(lam) else 0) + n - 1 - i for i in range(n))


@lru_cache(maxsize=None)
def _partitions_of(n: int) -> tuple[Partition, ...]:
    """partitions_of(n) past its cap check, by the reverse-lexicographic
    step (Knuth, TAOCP vol. 4A, sec. 7.2.1.4): pop the trailing 1s, lower
    the last part above 1 to top, and refill the cells popped, plus the one
    freed, greedily with parts of at most top.  The remainder after the
    parts of size top is between 1 and top, so it is always a part."""
    parts = [n] if n else []
    found = [tuple(parts)]
    while len(parts) < n:  # (1, ..., 1) comes last
        rest = 1
        while parts[-1] == 1:
            rest += parts.pop()
        top = parts[-1] - 1
        parts[-1] = top
        while rest > top:
            parts.append(top)
            rest -= top
        parts.append(rest)
        found.append(tuple(parts))
    return tuple(found)


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, descending lexicographically, each exactly once.
    Cached for the life of the process, for callers that visit the same n
    again or need a sequence."""
    check_size_cap("n", n)
    return _partitions_of(n)


def partitions_up_to(n: int) -> Iterator[Partition]:
    """All partitions of every size 0..n; n is checked before any is made."""
    check_size_cap("n", n)
    return chain.from_iterable(map(_partitions_of, range(n + 1)))
