"""Interpolation of symmetric-group representation data to a formal rank t.

Every quantity here is an exact polynomial in t that specializes, for large
integer t = n, to the corresponding classical number for the padded
partition (n - |lam|, lam_1, lam_2, ...).  The snoracle module computes
those classical numbers independently; agreement of the two routes is the
correctness contract, enforced by the verification suites.
Products of linear factors t - r (dimensions, class sizes, the Jucys-Murphy
quadratic) all go through exact.linear_product.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial

from . import partitions
from .exact import (
    BinomialBasisPolynomial,
    ExactPolynomial,
    NotIntegerValuedError,
    T,
    TruncatedSeries,
    binomial_poly,
    convolve_coefficient,
    falling_factorial_poly,
    linear_product,
    to_binomial_basis,
)
from .partitions import CycleType, Partition, check_cycle_type, check_floor, check_partition, support

Decomposition = dict[Partition, int]


@lru_cache(maxsize=None)
def dimension_poly(lam: Partition) -> ExactPolynomial:
    """Dimension of the indecomposable object labeled by lam, as a degree-|lam|
    polynomial in the rank t: prod(t - b) over the b-set of lam, divided by
    the hook product of lam."""
    check_partition(lam)
    return linear_product(partitions.b_set(lam), partitions.hook_product(lam))


def pieri(lam: Partition) -> Decomposition:
    """Decomposition of (one-box object) tensor X_lam: each diagram mu with
    the number of times it is one cell-move from lam, by
    partitions.corner_moves, so lam itself once per removable cell."""
    return dict(Counter(partitions.corner_moves(check_partition(lam))))


def jm_eigenvalue(lam: Partition) -> ExactPolynomial:
    """Eigenvalue of the interpolated sum-of-transpositions (Jucys-Murphy)
    central element on X_lam:

        ct(lam) - |lam| + binom(t - |lam|, 2)

    which at t = n is the content sum of the padded partition."""
    lam = check_partition(lam)
    n = sum(lam)
    return binomial_poly(-n, 2) + (partitions.content_sum(lam) - n)


def class_size_poly(rho: CycleType) -> ExactPolynomial:
    """Size of the conjugacy class with the given nontrivial cycles, as a
    polynomial in the ambient rank: t(t-1)...(t-m+1) / prod m_i! (i+1)^m_i."""
    rho = check_cycle_type(rho)
    m = support(rho)
    den = 1
    for i, c in enumerate(rho):
        den *= factorial(c) * (i + 2) ** c
    return falling_factorial_poly(m).scale(Fraction(1, den))


def _alternant(lam: Partition) -> dict[tuple[int, ...], int]:
    """prod_i (1 - x_i) prod_{i>j} (1 - x_i / x_j) in len(lam) variables,
    as the alternant sum_sigma sgn(sigma) prod_k x_k^{k - sigma(k)} over the
    permutations sigma of 0..len(lam), with x_0 = 1 (Macdonald, I.3): the
    terms whose x-exponent c stays <= lam, as c -> +-1, where the integer
    block of frobenius_coefficient starts.

    A depth-first search assigns sigma(len(lam)), ..., sigma(1) from the
    sorted free values and drops a branch as soon as c_i = i - sigma(i)
    passes lam_i: no other factor lowers an x-exponent, so such a term never
    meets x^lam.  Taking the value at position pos of the i + 1 free values
    leaves i - pos larger ones for the positions below i, so it flips the
    sign by (-1)^(i - pos)."""
    terms: dict[tuple[int, ...], int] = {}
    exponent = [0] * len(lam)

    def assign(i: int, free: list[int], sign: int):
        if i == 0:
            terms[tuple(exponent)] = sign
            return
        for pos, value in enumerate(free):
            if i - value <= lam[i - 1]:
                exponent[i - 1] = i - value
                assign(i - 1, free[:pos] + free[pos + 1:], -sign if (i - pos) % 2 else sign)

    assign(len(lam), list(range(len(lam) + 1)), 1)
    return terms


def _times_one_plus_power_sum(terms: dict[tuple[int, ...], int],
                              lam: Partition, r: int) -> dict[tuple[int, ...], int]:
    """terms * (1 + p_r) in integers, kept to the x-exponents c <= lam,
    without the terms that cancel: the term x_j^r adds r to c_j."""
    out = dict(terms)
    for c, coeff in terms.items():
        for j, bound in enumerate(lam):
            if c[j] + r <= bound:
                key = c[:j] + (c[j] + r,) + c[j + 1:]
                out[key] = out.get(key, 0) + coeff
    return {c: coeff for c, coeff in out.items() if coeff}


@lru_cache(maxsize=None)
def frobenius_coefficient(lam: Partition, rho: CycleType,
                          variables: int | None = None) -> ExactPolynomial:
    """Coefficient of x^lam = prod x_i^{lam_i} in

        (1 + p_1)^(t-m) * prod_i (1 + p_{i+2})^{rho_i}
                        * prod_i (1 - x_i) * prod_{i>j} (1 - x_i / x_j)

    worked in `variables` >= len(lam) variables (default: exactly len(lam)),
    with m the number of points rho moves (Macdonald, I.3 and I.7).

    Only the first factor depends on t.  It is the polynomial block, series
    arithmetic with a polynomial in t for every coefficient (pow_poly), and
    only it needs the substitution x_i = u_1 ... u_i: p_1 becomes the sum of
    the monomials u_1 ... u_i, and the target monomial has u_k-exponent
    sum_{i>=k} lam_i, which is the tightest truncation bound.

    Every other factor has integer coefficients and stays in plain ints and
    in x-exponents, the integer block: _alternant lists the alternating
    factors' +-1 terms, and _times_one_plus_power_sum multiplies each cycle
    factor into them.  No factor but the alternating one has a negative
    x-exponent, so with lam padded by zeros to `variables` both keep only the
    terms with x-exponent c <= lam, the ones that can meet x^lam.  One
    suffix-sum map takes x- to u-exponents, for the bounds and for the
    integer block (an alternant term's suffix sums are >= 0), so that one
    convolve_coefficient joins the two blocks.

    At t = n the result is the character of the padded partition at the
    class rho, which is how the verification suites check it.
    """
    lam = check_partition(lam)
    rho = check_cycle_type(rho)
    m = support(rho)
    if variables is None:
        variables = len(lam)
    check_floor("variables", variables, len(lam))
    lam += (0,) * (variables - len(lam))

    def u_exponent(c: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(accumulate(reversed(c)))[::-1]

    integral = _alternant(lam)
    for i, count in enumerate(rho):
        for _ in range(count):
            integral = _times_one_plus_power_sum(integral, lam, i + 2)
    bounds = u_exponent(lam)
    power_block = TruncatedSeries(
        bounds, {(1,) * i + (0,) * (variables - i): 1 for i in range(variables + 1)}).pow_poly(T - m)
    integral = TruncatedSeries(bounds, {u_exponent(c): coeff for c, coeff in integral.items()})
    return convolve_coefficient(power_block, integral, bounds)


def central_eigenvalue_poly(rho: CycleType, lam: Partition) -> ExactPolynomial:
    """Eigenvalue of the interpolated class sum of type rho on X_lam:
    class_size_poly * frobenius_coefficient / dimension_poly.

    The division is exact; a nonzero remainder would falsify the identity
    the whole construction rests on, so it surfaces as NonDivisibleError.
    """
    rho = check_cycle_type(rho)
    numerator = class_size_poly(rho) * frobenius_coefficient(lam, rho)
    return numerator.exact_div(dimension_poly(lam))


def certify_integer_valued(p: ExactPolynomial) -> BinomialBasisPolynomial:
    """Rewrite p over binomial coefficients and demand integer coefficients.

    The binomial-basis form is in lowest terms over one denominator, so p is
    certified exactly when that denominator is 1, and a success is a proof
    that p maps integers to integers.  Otherwise raises NotIntegerValuedError
    carrying the first coefficient (lowest j) that is not an integer.
    """
    b = to_binomial_basis(p)
    nums, den = b.nums, b.den
    if den != 1:
        j = next(j for j, c in enumerate(nums) if c % den)
        raise NotIntegerValuedError(j, Fraction(nums[j], den))
    return b
