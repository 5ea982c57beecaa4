from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import factorial
from operator import le, lt, mul
import time

import pytest
from hypothesis import given, settings, strategies as st

from repst import deligne as dl, partitions as pt, snoracle as sn
from repst.exact import (
    BinomialBasisPolynomial,
    ExactPolynomial,
    NonDivisibleError,
    NotIntegerValuedError,
    T,
    TruncatedSeries,
    binomial_poly,
)
from conftest import cycle_type_strategy, partition_strategy


def validity_start(lam, rho=()):
    return max(sum(lam) + (lam[0] if lam else 0), sn.support(rho))


def test_dimension_known_closed_forms():
    assert dl.dimension_poly(()) == ExactPolynomial((1,))
    assert dl.dimension_poly((1, 1)) == ((T - 1) * (T - 2)).scale(Fraction(1, 2))
    assert dl.dimension_poly((2,)) == (T * (T - 3)).scale(Fraction(1, 2))
    for k in range(1, 9):
        assert dl.dimension_poly((1,) * k) == binomial_poly(-1, k)
        assert dl.dimension_poly((k,)) == binomial_poly(0, k) - binomial_poly(0, k - 1)


@given(lam=partition_strategy(max_n=6))
def test_dimension_degree_and_leading_term(lam):
    p = dl.dimension_poly(lam)
    assert p.degree == sum(lam)
    assert p.coeffs[-1] == Fraction(1, pt.hook_product(lam))


@given(lam=partition_strategy(max_n=6))
@settings(max_examples=30)
def test_dimension_matches_hook_dim_of_padded(lam):
    p = dl.dimension_poly(lam)
    for n in range(validity_start(lam), 21):
        assert p(n) == sn.hook_dim(pt.pad(lam, n))


def test_dimension_poly_matches_rational_product_and_oracle_through_size_10():
    for lam in pt.partitions_up_to(10):
        expected = ExactPolynomial((1,))
        for b in sorted(pt.b_set(lam)):
            expected = expected * ExactPolynomial((-b, 1))
        expected = expected.scale(Fraction(1, pt.hook_product(lam)))
        p = dl.dimension_poly(lam)
        assert p == expected
        # deg + 1 consecutive valid ranks: agreement proves the identity
        start = validity_start(lam)
        for n in range(start, start + sum(lam) + 1):
            assert p(n) == sn.hook_dim(pt.pad(lam, n))


def test_pieri_known_values():
    assert dl.pieri(()) == {(1,): 1}
    assert dl.pieri((1,)) == {(2,): 1, (1, 1): 1, (): 1, (1,): 1}
    assert dl.pieri((2, 1)) == {
        (3, 1): 1, (2, 2): 1, (2, 1, 1): 1,
        (2,): 1, (1, 1): 1,
        (3,): 1, (1, 1, 1): 1,
        (2, 1): 2,
    }


@given(lam=partition_strategy(max_n=8))
@settings(max_examples=40)
def test_pieri_dimension_identity(lam):
    lhs = (T - 1) * dl.dimension_poly(lam)
    rhs = ExactPolynomial()
    for mu, mult in dl.pieri(lam).items():
        rhs = rhs + dl.dimension_poly(mu).scale(mult)
    assert lhs == rhs


@given(lam=partition_strategy(max_n=8), mu=partition_strategy(max_n=8))
def test_pieri_multiplicity_symmetry(lam, mu):
    assert dl.pieri(lam).get(mu, 0) == dl.pieri(mu).get(lam, 0)


@pytest.mark.parametrize("bad", [(1, 2), (2, 0)])
@pytest.mark.parametrize("entry", [
    dl.dimension_poly,
    lambda lam: dl.frobenius_coefficient(lam, ()),
    dl.jm_eigenvalue,
    dl.pieri,
], ids=["dimension", "frobenius", "jm", "pieri"])
def test_entry_points_reject_a_non_partition(entry, bad):
    """Each returned a value before: dimension_poly((1, 2)) was
    t^2/4 - 3t/4 and frobenius_coefficient((1, 2), ()) was 0."""
    with pytest.raises(ValueError):
        entry(bad)


def test_jm_eigenvalue_known_values():
    assert dl.jm_eigenvalue(()) == (T * (T - 1)).scale(Fraction(1, 2))
    assert dl.jm_eigenvalue((1,)) == (T * (T - 3)).scale(Fraction(1, 2))
    assert dl.jm_eigenvalue((2,)) == ((T - 2) * (T - 3)).scale(Fraction(1, 2)) - 1


@given(lam=partition_strategy(max_n=6))
def test_jm_matches_classical_transposition_sum(lam):
    p = dl.jm_eigenvalue(lam)
    for n in range(max(validity_start(lam), 2), 13):
        assert p(n) == sn.central_eigenvalue(n, (1,), pt.pad(lam, n))


def test_class_size_poly_known_values():
    assert dl.class_size_poly(()) == ExactPolynomial((1,))
    assert dl.class_size_poly((1,)) == (T * (T - 1)).scale(Fraction(1, 2))
    assert dl.class_size_poly((0, 1)) == (T * (T - 1) * (T - 2)).scale(Fraction(1, 3))
    assert dl.class_size_poly((0, 1))(5) == 20


@given(rho=cycle_type_strategy(max_support=7), n=st.integers(0, 14))
def test_class_size_poly_specializes(rho, n):
    if n < sn.support(rho):
        return
    assert dl.class_size_poly(rho)(n) == sn.class_size(n, rho)


def test_frobenius_coefficient_known_values():
    assert dl.frobenius_coefficient((), (1,)) == ExactPolynomial((1,))
    assert dl.frobenius_coefficient((1,), ()) == T - 1
    assert dl.frobenius_coefficient((1,), (1,)) == T - 3


def test_frobenius_empty_partition_is_one():
    for rho in pt.cycle_types_with_support_up_to(5):
        assert dl.frobenius_coefficient((), rho) == ExactPolynomial((1,))


@given(lam=partition_strategy(max_n=4), rho=cycle_type_strategy(max_support=5))
@settings(max_examples=40)
def test_frobenius_matches_character_of_padded(lam, rho):
    c = dl.frobenius_coefficient(lam, rho)
    for n in range(validity_start(lam, rho), 11):
        assert c(n) == sn.character(pt.pad(lam, n), rho)


@given(lam=partition_strategy(max_n=4), rho=cycle_type_strategy(max_support=4))
@settings(max_examples=25)
def test_frobenius_stable_under_extra_variable(lam, rho):
    expected = dl.frobenius_coefficient(lam, rho)
    assert dl.frobenius_coefficient(lam, rho, variables=len(lam) + 1) == expected


def _interval_product(bounds):
    """prod over 1 <= lo <= hi <= len(bounds) of 1 - u_lo ... u_hi: the
    alternating block as the product of its l(l+1)/2 factors."""
    nvars = len(bounds)
    factors = (TruncatedSeries(bounds, {(0,) * nvars: 1,
                                        tuple(int(lo <= k <= hi) for k in range(1, nvars + 1)): -1})
               for hi in range(1, nvars + 1) for lo in range(1, hi + 1))
    return reduce(mul, factors, TruncatedSeries(bounds, {(0,) * nvars: 1}))


def _padded(lam, variables):
    return lam + (0,) * (variables - len(lam))


def _u_exponent(c):
    # x_i = u_1 ... u_i: u_k carries sum_{i>=k} c_i
    return tuple(sum(c[k:]) for k in range(len(c)))


def _x_terms_within(series, lam):
    """The terms of a series in u-exponents, in x-exponents c_k = a_k - a_{k+1},
    kept to c <= lam."""
    out = {}
    for a, coeff in series.terms.items():
        c = tuple(a[k] - (a[k + 1] if k + 1 < len(a) else 0) for k in range(len(a)))
        if all(map(le, c, lam)):
            assert coeff.degree <= 0
            out[c] = int(coeff(0))
    return out


def test_alternant_equals_product_of_interval_factors():
    for lam in pt.partitions_up_to(8):
        ell = len(lam)
        for variables in (ell, ell + 1, ell + 2):
            padded = _padded(lam, variables)
            expected = _x_terms_within(_interval_product(_u_exponent(padded)), padded)
            assert dl._alternant(padded) == expected, (lam, variables)


@pytest.mark.parametrize("ell", range(1, 6))
def test_untruncated_alternant_is_signed_sum_over_permutations(ell):
    terms = dl._alternant((100,) * ell)
    assert len(terms) == factorial(ell + 1)
    assert set(terms.values()) == {1, -1}
    assert sum(terms.values()) == 0
    # term by term: x_k carries k - sigma(k), sign by inversions
    for sigma in permutations(range(ell + 1)):
        exponent = tuple(k - sigma[k] for k in range(1, ell + 1))
        inversions = sum(sigma[j] > sigma[i] for i in range(ell + 1) for j in range(i))
        assert terms[exponent] == (-1) ** inversions


def test_integer_cycle_factor_equals_the_series_product():
    # from the alternant, one and then two factors 1 + p_r, as a class with
    # one or two r-cycles multiplies them in; p_r = sum_i x_i^r is the sum of
    # the monomials (u_1 ... u_i)^r
    for lam in pt.partitions_up_to(7):
        ell = len(lam)
        for variables in (ell, ell + 1):
            padded = _padded(lam, variables)
            bounds = _u_exponent(padded)
            for r in range(2, 5):
                one_plus_power_sum = TruncatedSeries(
                    bounds, {(r,) * i + (0,) * (variables - i): 1 for i in range(variables + 1)})
                terms = dl._alternant(padded)
                for _ in range(2):
                    series = TruncatedSeries(bounds, {_u_exponent(c): a for c, a in terms.items()})
                    expected = _x_terms_within(series * one_plus_power_sum, padded)
                    terms = dl._times_one_plus_power_sum(terms, padded, r)
                    assert terms == expected, (lam, variables, r)


def test_integer_block_keeps_only_exponents_within_lam(monkeypatch):
    # every term the integer block builds can still meet x^lam: its
    # x-exponent stays <= lam componentwise
    built = []

    def recording(function):
        def record(*args):
            terms = function(*args)
            built.extend(terms)
            return terms
        return record
    monkeypatch.setattr(dl, "_alternant", recording(dl._alternant))
    monkeypatch.setattr(dl, "_times_one_plus_power_sum", recording(dl._times_one_plus_power_sum))
    over = []
    for lam in pt.partitions_up_to(7):
        for rho in ((1,), (0, 1), (2,)):
            built.clear()
            dl.frobenius_coefficient.__wrapped__(lam, rho)
            assert built, (lam, rho)
            over += [(lam, rho, c) for c in built if not all(map(le, c, lam))]
    assert over == []


def test_frobenius_equals_murnaghan_nakayama_at_deg_plus_one_ranks():
    # for n >= validity_start the character is a polynomial in n of degree at
    # most |lam|, so agreement at max(deg, |lam|) + 1 consecutive ranks proves
    # the identity on every lam of size <= 6 and every class moving <= 6 points
    compared = 0
    for lam in pt.partitions_up_to(6):
        for rho in pt.cycle_types_with_support_up_to(6):
            frob = dl.frobenius_coefficient(lam, rho)
            start = pt.validity_start(lam, rho)
            for n in range(start, start + max(frob.degree, sum(lam)) + 1):
                assert frob(n) == sn.character(pt.pad(lam, n), rho), (lam, rho, n)
                compared += 1
    assert compared == 1815


def test_frobenius_equals_murnaghan_nakayama_on_columns_of_size_7():
    # every lam of size 7, up to 7 rows, at the three small classes: the
    # cycle factors 1 + p_2, 1 + p_3 and (1 + p_2)^2 in many variables;
    # deg + 1 ranks each prove the identity, computed cold within 2 s
    start_time = time.perf_counter()
    compared = 0
    for lam in pt.partitions_of(7):
        for rho in ((1,), (0, 1), (2,)):
            frob = dl.frobenius_coefficient.__wrapped__(lam, rho)
            start = pt.validity_start(lam, rho)
            for n in range(start, start + max(frob.degree, sum(lam)) + 1):
                assert frob(n) == sn.character(pt.pad(lam, n), rho), (lam, rho, n)
                compared += 1
    assert compared == 360
    assert time.perf_counter() - start_time < 2.0


def test_frobenius_joins_only_integer_terms_the_power_block_can_meet(monkeypatch):
    # every power-block term has a weakly decreasing u-exponent, so every
    # integer term reaching the join has a weakly decreasing complement
    joined = []
    convolve = dl.convolve_coefficient

    def recording(power_block, integral, target):
        joined.extend((integral.bounds, e) for e in integral.terms)
        return convolve(power_block, integral, target)
    monkeypatch.setattr(dl, "convolve_coefficient", recording)
    for lam in pt.partitions_up_to(7):
        for rho in ((1,), (0, 1), (2,)):
            dl.frobenius_coefficient.__wrapped__(lam, rho)
    assert joined
    rests = [tuple(b - x for b, x in zip(bounds, e)) for bounds, e in joined]
    assert [rest for rest in rests if any(map(lt, rest, rest[1:]))] == []


def test_frobenius_rejects_too_few_variables():
    with pytest.raises(ValueError):
        dl.frobenius_coefficient((2, 1), (1,), variables=1)


def test_central_eigenvalue_poly_known_values():
    assert dl.central_eigenvalue_poly((1,), (1,)) == (T * (T - 3)).scale(Fraction(1, 2))
    for rho in pt.cycle_types_with_support_up_to(5):
        assert dl.central_eigenvalue_poly(rho, ()) == dl.class_size_poly(rho)


@given(lam=partition_strategy(max_n=8))
@settings(max_examples=20)
def test_transposition_class_sum_is_jm(lam):
    assert dl.central_eigenvalue_poly((1,), lam) == dl.jm_eigenvalue(lam)


@given(lam=partition_strategy(max_n=4), rho=cycle_type_strategy(max_support=5))
@settings(max_examples=30)
def test_central_eigenvalue_matches_classical(lam, rho):
    p = dl.central_eigenvalue_poly(rho, lam)
    for n in range(validity_start(lam, rho), 11):
        assert p(n) == sn.central_eigenvalue(n, rho, pt.pad(lam, n))


@given(lam=partition_strategy(max_n=5), rho=cycle_type_strategy(max_support=5))
@settings(max_examples=30)
def test_interpolations_are_integer_valued(lam, rho):
    dl.certify_integer_valued(dl.dimension_poly(lam))
    dl.certify_integer_valued(dl.class_size_poly(rho))
    dl.certify_integer_valued(dl.central_eigenvalue_poly(rho, lam))


def test_certificate_known_values():
    cert = dl.certify_integer_valued(dl.dimension_poly((2,)))
    assert cert.coeffs == (0, -1, 1)  # binom(t,2) - binom(t,1)
    cert = dl.certify_integer_valued(dl.class_size_poly((1,)))
    assert cert.coeffs == (0, 0, 1)
    with pytest.raises(NotIntegerValuedError) as err:
        dl.certify_integer_valued(T.scale(Fraction(1, 2)))
    assert err.value.index == 1 and err.value.value == Fraction(1, 2)


@pytest.mark.parametrize("coeffs, index, value", [
    ((0, Fraction(1, 2), 0, Fraction(1, 3)), 1, Fraction(1, 2)),
    ((0, 1, 0, Fraction(1, 3)), 3, Fraction(1, 3)),
], ids=["two-fractional", "top-fractional"])
def test_certificate_names_the_first_fractional_coefficient(coeffs, index, value):
    # sum_j c_j binom(t, j): the error names the lowest j with c_j not an
    # integer, which neither a scan from the top nor a look at c_0 finds
    p = BinomialBasisPolynomial(coeffs).to_monomial()
    with pytest.raises(NotIntegerValuedError) as err:
        dl.certify_integer_valued(p)
    assert (err.value.index, err.value.value) == (index, value)


def test_division_guard_fires_on_corrupted_numerator():
    # a deliberately inconsistent "identity": dividing by a dimension that
    # does not divide the product must raise, not truncate
    bad = dl.class_size_poly((1,)) * dl.frobenius_coefficient((1,), (1,)) + 1
    with pytest.raises(NonDivisibleError):
        bad.exact_div(dl.dimension_poly((1,)))


@pytest.mark.parametrize("lam, rho", [((2, 1), (1,)), ((1, 1, 1), (0, 1)), ((3,), (2,))])
def test_frobenius_takes_no_product_by_the_one_series(lam, rho, monkeypatch):
    expected = dl.frobenius_coefficient(lam, rho)
    operands = []
    multiply = TruncatedSeries.__mul__

    def recording(a, b):
        operands.extend((a, b))
        return multiply(a, b)
    monkeypatch.setattr(TruncatedSeries, "__mul__", recording)
    assert dl.frobenius_coefficient.__wrapped__(lam, rho) == expected
    assert operands
    assert not [x for x in operands if x == TruncatedSeries(x.bounds, {(0,) * len(x.bounds): 1})]
