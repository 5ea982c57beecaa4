"""Complex tensor powers of a vector space with a marked vector.

For a nonnegatively graded space V with one-dimensional degree-0 part, the
Hilbert series of the t-th tensor power is h(x)^t with polynomial-in-t
coefficients, and the associated graded object factors through symmetric
powers and Schur functors of V/<marked vector>.  This module computes those
series, the finite-dimensional bookkeeping identities they satisfy, and the
integrality constraints on the rank t at which the associated
highest-weight module can degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from . import deligne
from .exact import BadConstantTermError, ExactPolynomial, T, TruncatedSeries, ZERO
from .partitions import (InvariantError, Partition, cells, check_floor, check_size_cap,
                         format_partition, hook_product, partitions_of)


@dataclass(frozen=True)
class UnitalHilbert:
    """Hilbert series coefficients of a graded space whose degree-0 part is
    spanned by the marked vector (so the constant coefficient is 1)."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[0] != 1:
            raise BadConstantTermError("unital Hilbert series must start with 1")
        if any(c < 0 for c in self.coefficients):
            raise ValueError("Hilbert coefficients must be nonnegative")

    @classmethod
    def ungraded(cls, bar_dim: int) -> "UnitalHilbert":
        """The two-step filtration of an ungraded space: 1 + bar_dim * x."""
        return cls((1, bar_dim))


def tensor_power_hilbert(h: UnitalHilbert, degree: int) -> TruncatedSeries:
    """h(x)^t, truncated at the given degree; at t = n this is the n-fold
    product of h with itself."""
    check_size_cap("degree", degree)
    base = TruncatedSeries((degree,), {(k,): c for k, c in enumerate(h.coefficients)})
    return base.pow_poly(T)


def symmetric_algebra_hilbert(d: int, degree: int) -> TruncatedSeries:
    """(1 - x)^{-d}, the Hilbert series of a polynomial ring in d variables,
    truncated at the given degree: x^j has coefficient binom(d + j - 1, j),
    which is 1 at j = 0 and, when d = 0, zero at every j > 0."""
    return TruncatedSeries((degree,), {(j,): comb(d + j - 1, j) if j else 1
                                       for j in range(degree + 1)})


def schur_dimension(lam: Partition, d: int) -> int:
    """Dimension of the Schur functor of shape lam applied to C^d, via the
    hook-content formula; zero when lam has more than d rows."""
    if len(lam) > d:
        return 0
    num = 1
    for i, j in cells(lam):
        num *= d + (j - i)
    hooks = hook_product(lam)
    quotient, remainder = divmod(num, hooks)
    if remainder:
        raise InvariantError(f"hook product {hooks} does not divide content product {num}")
    return quotient


@dataclass(frozen=True)
class GradedCheckReport:
    """Outcome of comparing the two Hilbert-series routes for the associated
    graded of a tensor power, degree by degree."""

    first_failure: int | None

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def graded_decomposition_check(d: int, degree: int) -> GradedCheckReport:
    """Verify, coefficient by coefficient in x and exactly in t, that

        (1 + d x)^t  =  (1 - x)^{-d} * sum_lam schur_dimension(lam, d)
                                        * x^{|lam|} * dim_poly(lam).

    The left side is the Hilbert series of the t-th tensor power of an
    ungraded (d+1)-dimensional space; the right side is the series of its
    associated graded, summed over the Schur-functor decomposition.
    """
    lhs = tensor_power_hilbert(UnitalHilbert.ungraded(d), degree)
    sym = symmetric_algebra_hilbert(d, degree)
    layers = {}
    for size in range(degree + 1):
        total = ZERO
        for lam in partitions_of(size):
            s = schur_dimension(lam, d)
            if s:
                total = total + deligne.dimension_poly(lam).scale(s)
        layers[(size,)] = total
    rhs = sym * TruncatedSeries((degree,), layers)
    first_failure = next((k for k in range(degree + 1)
                          if lhs.coefficient((k,)) != rhs.coefficient((k,))), None)
    return GradedCheckReport(first_failure)


def degree_one_dimension(v: int) -> ExactPolynomial:
    """Dimension of the first filtration layer of the t-th tensor power of a
    v-dimensional unital space: v + (v-1)(t-1), equivalently 1 + t(v-1)."""
    check_floor("v", v, 1)
    return (T - 1).scale(v - 1) + v


@dataclass(frozen=True)
class VermaWeight:
    """Highest-weight data (t - |lam|, lam_1, ..., lam_{N-1}) for gl_N,
    with the first coordinate carrying the rank parameter."""

    lam: Partition
    space_dim: int

    def __post_init__(self):
        check_floor("space_dim", self.space_dim, 1)  # no cap: rows past len(lam) + 1 go unscanned
        if len(self.lam) > self.space_dim - 1:
            raise ValueError(
                f"partition {format_partition(self.lam)} needs at most "
                f"{self.space_dim - 1} parts for dim V = {self.space_dim}")


def _row_windows(weight: VermaWeight, top: int) -> list[tuple[int, int, int]]:
    """(i, lo, hi): row i admits t in [|lam| + lam_i - i + 1, |lam| + lam_{i-1} - i],
    the first row without an upper end, and hi is clipped at top.  Rows past
    len(lam) + 1 admit nothing, so only rows 1..min(N-1, len(lam)+1) are listed."""
    size = sum(weight.lam)
    padded = weight.lam + (0,)
    return [(i, size + padded[i - 1] - i + 1,
             top if i == 1 else min(top, size + padded[i - 2] - i))
            for i in range(1, min(weight.space_dim, len(padded) + 1))]


def verma_candidates(weight: VermaWeight, t_max: int) -> list[tuple[int, int, int]]:
    """All (t, i, m) with 1 <= i <= N-1, m >= 1, lam_{i-1} >= lam_i + m
    (no constraint for i = 1), and t = |lam| + lam_i + m - i in [0, t_max].

    Degeneration of the module with highest weight (t - |lam|, lam) forces
    t to appear in this list; the converse is not asserted.
    """
    check_size_cap("t_max", t_max)
    return sorted((t, i, t - lo + 1) for i, lo, hi in _row_windows(weight, t_max)
                  for t in range(lo, hi + 1))


def interlacing_branch(lam: Partition, space_dim: int, size_bound: int) -> list[Partition]:
    """All mu with at most space_dim - 1 parts, |mu| <= size_bound, and
    mu_i >= lam_i >= mu_{i+1} for every i; each exactly once.

    These index the multiplicity-free restriction of the induced module to
    the Levi subgroup: mu/lam runs over horizontal strips.
    """
    VermaWeight(lam, space_dim)  # checks N >= 1 and len(lam) <= N - 1
    check_size_cap("size_bound", size_bound)
    # row i of mu lies in [lam_i, lam_{i-1}]: rows past len(lam) + 1 are 0,
    # and zeros only trail, so stripping them keeps every mu distinct
    low = (lam + (0,))[:space_dim - 1]
    if not low:
        return [()]
    rests = product(*(range(lo, hi + 1) for lo, hi in zip(low[1:], low)))
    mus = [tuple(p for p in (first,) + rest if p)
           for rest in rests
           for first in range(low[0], size_bound - sum(rest) + 1)]
    return sorted(mus, key=lambda mu: (sum(mu), mu))
