"""Hilbert series coefficients of the filtered group algebra at formal rank.

At integer rank n the graded algebra has Hilbert series
prod_{k=0}^{n-1} (1 + k x), whose x^m-coefficient is the elementary
symmetric polynomial e_m(1, ..., n-1), an unsigned Stirling number of the
first kind.  As a function of n this is a polynomial of degree 2m, which is
what the formal-rank series interpolates.

Two independent routes are provided:

  hilbert_coefficient        the values e_m(1,...,n-1) at n = 0..2m,
                             turned into the polynomial by their forward
                             differences (exact.lagrange_interpolate)
  hilbert_coefficient_gamma  the coefficients of exp of the asymptotic
                             log-Gamma difference series, whose coefficients
                             are Bernoulli polynomials, by Miller's
                             recurrence over the cached lower coefficients:
                             a new m costs O(m) coefficient products

Their agreement is the acceptance contract for the second route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .exact import ExactPolynomial, ONE, ZERO, lagrange_interpolate
from .partitions import check_size_cap


def elementary_symmetric_table(m_max: int, values: list[int]) -> list[list[int]]:
    """table[j][m] = e_m over the first j values, for m <= m_max: an int,
    as every e_m of integers is."""
    table = [[1] + [0] * m_max]
    for j, v in enumerate(values):
        prev = table[j]
        row = [1]
        for m in range(1, m_max + 1):
            row.append(prev[m] + v * prev[m - 1])
        table.append(row)
    return table


@lru_cache(maxsize=None)
def hilbert_coefficient(m: int) -> ExactPolynomial:
    """x^m-coefficient of the formal-rank Hilbert series: the unique
    polynomial of degree <= 2m through e_m(1, ..., n-1) at n = 0..2m."""
    check_size_cap("m", m)
    table = elementary_symmetric_table(m, list(range(1, 2 * m + 1)))
    # rank n contributes e_m over {1, ..., n-1}, i.e. the first n-1 values
    return lagrange_interpolate([table[max(n - 1, 0)][m] for n in range(2 * m + 1)])


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """Bernoulli number B_k with B_1 = -1/2."""
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(k):
        total += comb(k + 1, j) * bernoulli_number(j)
    return -total / (k + 1)


def bernoulli_poly(k: int) -> ExactPolynomial:
    """Bernoulli polynomial B_k(t) = sum_j binom(k, j) B_j t^{k-j}."""
    coeffs = [Fraction(0)] * (k + 1)
    for j in range(k + 1):
        coeffs[k - j] = comb(k, j) * bernoulli_number(j)
    return ExactPolynomial(coeffs)


@lru_cache(maxsize=None)
def log_coefficient(k: int) -> ExactPolynomial:
    """x^k-coefficient of log h, the log-Gamma difference series below:
    (-1)^{k+1} (B_{k+1}(t) - B_{k+1}) / (k (k+1)) for k >= 1."""
    poly = bernoulli_poly(k + 1) - bernoulli_number(k + 1)
    return poly.scale(Fraction((-1) ** (k + 1), k * (k + 1)))


@lru_cache(maxsize=None)
def hilbert_coefficient_gamma(m: int) -> ExactPolynomial:
    """The same coefficient extracted from the ratio-of-Gamma form.

    Writing the series as x^t Gamma(1/x + t) / Gamma(1/x) and expanding both
    log-Gamma terms asymptotically in z = 1/x, the prefactor cancels the
    t log z term and what survives is

        log h = sum_{k>=1} (-1)^{k+1} (B_{k+1}(t) - B_{k+1}) / (k (k+1)) x^k

    with B Bernoulli polynomials/numbers (log_coefficient).  Exponentiating
    gives the coefficient exactly, by J.C.P. Miller's recurrence (Knuth,
    TAOCP vol. 2, 4.7):

        h_0 = 1,   m h_m = sum_{j=1}^{m} j (log h)_j h_{m-j}.

    Only this route runs it; the tests' reference, TruncatedSeries.exp,
    sums the Taylor series sum_k (log h)^k / k! instead.  The lower h_j
    come from this function's cache, asked for in increasing order first, so
    each is computed once and the recursion never nests more than three
    frames deep, whatever m.
    """
    check_size_cap("m", m)
    if not m:
        return ONE
    for j in range(1, m):
        hilbert_coefficient_gamma(j)
    total = ZERO
    for j in range(1, m + 1):
        total = total + (log_coefficient(j) * hilbert_coefficient_gamma(m - j)).scale(j)
    return total.scale(Fraction(1, m))
