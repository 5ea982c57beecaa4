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

from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import partitions
from .exact import (
    BinomialBasisPolynomial,
    ExactPolynomial,
    NotIntegerValuedError,
    ONE,
    T,
    TruncatedSeries,
    binomial_poly,
    convolve_coefficient,
    falling_factorial_poly,
    linear_product,
    to_binomial_basis,
)
from .partitions import CycleType, Partition, check_cycle_type, support

Decomposition = dict[Partition, int]


@lru_cache(maxsize=None)
def dimension_poly(lam: Partition) -> ExactPolynomial:
    """Dimension of the indecomposable object labeled by lam, as a degree-|lam|
    polynomial in the rank t: prod(t - b) over the b-set of lam, divided by
    the hook product of lam."""
    return linear_product(partitions.b_set(lam), partitions.hook_product(lam))


def pieri(lam: Partition) -> Decomposition:
    """Decomposition of (one-box object) tensor X_lam: every diagram obtained
    by adding, deleting, or moving a corner cell once, plus lam itself with
    multiplicity the number of its corner cells."""
    moves = partitions.corner_moves(lam)
    decomp: Decomposition = {}
    for mu in moves.added | moves.removed | moves.moved:
        decomp[mu] = decomp.get(mu, 0) + 1
    if moves.corner_count:
        decomp[lam] = decomp.get(lam, 0) + moves.corner_count
    return decomp


def jm_eigenvalue(lam: Partition) -> ExactPolynomial:
    """Eigenvalue of the interpolated sum-of-transpositions (Jucys-Murphy)
    central element on X_lam:

        ct(lam) - |lam| + binom(t - |lam|, 2)

    which at t = n is the content sum of the padded partition."""
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


def _one_plus_power_sum(bounds: tuple[int, ...], r: int) -> TruncatedSeries:
    """1 + p_r, with p_r = sum_i x_i^r after the substitution x_i = u_1 ... u_i."""
    n = len(bounds)
    return TruncatedSeries(bounds, {(r,) * i + (0,) * (n - i): 1 for i in range(n + 1)})


def _alternant(bounds: tuple[int, ...]) -> TruncatedSeries:
    """prod_i (1 - x_i) prod_{i>j} (1 - x_i / x_j) in len(bounds) variables,
    as the alternant sum_sigma sgn(sigma) prod_k x_k^{k - sigma(k)} over the
    permutations sigma of 0..len(bounds), with x_0 = 1 (Macdonald, I.3).

    After x_i = u_1 ... u_i the exponent of u_k is the suffix sum
    a_k = sum_{i>=k} (i - sigma(i)) >= 0.  A depth-first search assigns
    sigma(len(bounds)), ..., sigma(1) from the sorted free values and drops a
    branch as soon as a_k > bounds[k-1].  Taking the value at position pos of
    the i + 1 free values leaves i - pos larger ones for the positions below
    i, so it flips the sign by (-1)^(i - pos)."""
    terms: dict[tuple[int, ...], ExactPolynomial] = {}
    exponent = [0] * len(bounds)
    coefficient = {1: ONE, -1: -ONE}

    def assign(i: int, free: list[int], suffix: int, sign: int):
        if i == 0:
            terms[tuple(exponent)] = coefficient[sign]
            return
        for pos, value in enumerate(free):
            a = suffix + i - value
            if a <= bounds[i - 1]:
                exponent[i - 1] = a
                assign(i - 1, free[:pos] + free[pos + 1:], a,
                       -sign if (i - pos) % 2 else sign)

    assign(len(bounds), list(range(len(bounds) + 1)), 0, 1)
    return TruncatedSeries(bounds, terms)


@lru_cache(maxsize=None)
def frobenius_coefficient(lam: Partition, rho: CycleType,
                          variables: int | None = None) -> ExactPolynomial:
    """Coefficient of x^lam = prod x_i^{lam_i} in

        (1 + p_1)^(t-m) * prod_i (1 + p_{i+1})^{m_i}
                        * prod_i (1 - x_i) * prod_{i>j} (1 - x_i / x_j)

    worked in `variables` >= len(lam) variables (default: exactly len(lam)).

    The substitution x_i = u_1 ... u_i turns every factor into a genuine
    power series: x_i / x_j = u_{j+1} ... u_i for i > j, and p_r loses its
    constant term, so the generalized binomial expansion of the first factor
    is legitimate.  The target monomial has u_k-exponent sum_{i>=k} lam_i,
    which is also the tightest truncation bound.

    Only the power block (the first two factors) is series arithmetic.  The
    alternating block is the alternant sum_sigma sgn(sigma) prod x_k^{k-sigma(k)},
    whose +-1 terms _alternant lists by a depth-first search over sigma: the
    sign flips by (-1)^(i - pos) per step, and a branch stops as soon as a
    u-exponent passes its bound.  One convolve_coefficient joins the two.

    At t = n the result is the character of the padded partition at the
    class rho, which is how the verification suites check it.
    """
    rho = check_cycle_type(rho)
    m = support(rho)
    ell = len(lam)
    if variables is None:
        variables = ell
    if variables < ell:
        raise ValueError(f"need at least {ell} variables for {lam}")
    bounds = tuple(sum(lam[i] for i in range(k - 1, ell)) for k in range(1, variables + 1))

    # "power block": all of its monomials are sums of prefix intervals, so
    # its support stays on weakly decreasing exponents and small
    power_block = _one_plus_power_sum(bounds, 1).pow_poly(T - m)
    for i, count in enumerate(rho):
        if count:
            power_block = power_block * _one_plus_power_sum(bounds, i + 2) ** count

    return convolve_coefficient(power_block, _alternant(bounds), bounds)


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

    Raises NotIntegerValuedError (carrying the first fractional coefficient)
    otherwise; a success is a proof that p maps integers to integers.
    """
    b = to_binomial_basis(p)
    for j, c in enumerate(b.coeffs):
        if c.denominator != 1:
            raise NotIntegerValuedError(j, c)
    return b


def decomposition_to_json(decomp: Decomposition) -> list[dict]:
    return [
        {"partition": partitions.format_partition(mu), "mult": mult}
        for mu, mult in sorted(decomp.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    ]
