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
  hilbert_coefficient_gamma  term extraction from exp of the asymptotic
                             log-Gamma difference series, whose coefficients
                             are Bernoulli polynomials; exp runs Miller's
                             recurrence, O(m^2) coefficient products

Their agreement is the acceptance contract for the second route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .exact import ExactPolynomial, TruncatedSeries, lagrange_interpolate
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
    if m < 0:
        raise ValueError("m must be nonnegative")
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
def hilbert_coefficient_gamma(m: int) -> ExactPolynomial:
    """The same coefficient extracted from the ratio-of-Gamma form.

    Writing the series as x^t Gamma(1/x + t) / Gamma(1/x) and expanding both
    log-Gamma terms asymptotically in z = 1/x, the prefactor cancels the
    t log z term and what survives is

        log h = sum_{k>=1} (-1)^{k+1} (B_{k+1}(t) - B_{k+1}) / (k (k+1)) x^k

    with B Bernoulli polynomials/numbers; exponentiating and truncating at
    degree m gives the coefficient exactly.  TruncatedSeries.exp builds
    h = exp(log h) one coefficient at a time by Miller's recurrence,
    m h_m = sum_{j=1}^{m} j (log h)_j h_{m-j}, with no full series product.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    log_terms = {}
    for k in range(1, m + 1):
        poly = bernoulli_poly(k + 1) - bernoulli_number(k + 1)
        log_terms[(k,)] = poly.scale(Fraction((-1) ** (k + 1), k * (k + 1)))
    log_series = TruncatedSeries((m,), log_terms)
    return log_series.exp().coefficient((m,))


def coefficient_table(m_max: int) -> dict[int, ExactPolynomial]:
    """Coefficients 0..m_max keyed by degree; entry 0 is the constant 1.
    m_max is checked against the enumeration cap before any work."""
    check_size_cap("m_max", m_max)
    return {m: hilbert_coefficient(m) for m in range(m_max + 1)}

