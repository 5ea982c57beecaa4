import hashlib
from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd
from operator import add, mul

import pytest
from hypothesis import given, strategies as st

from repst import bounds as bd, deligne, groupalg, partitions
from repst.exact import (
    BadConstantTermError,
    BinomialBasisPolynomial,
    ExactPolynomial,
    NonDivisibleError,
    ONE,
    OutOfBoundsError,
    T,
    TruncatedSeries,
    ZERO,
    binomial_poly,
    convolve_coefficient,
    falling_factorial_poly,
    lagrange_interpolate,
    linear_product,
    to_binomial_basis,
)
from repst.cli import poly_to_json
from conftest import poly_from_json

fractions = st.fractions(min_value=-60, max_value=60, max_denominator=12)
coefficient_lists = st.lists(fractions, max_size=13)
polynomials = coefficient_lists.map(ExactPolynomial)


def test_polynomial_basic_arithmetic():
    assert (T - 1) * (T - 2) == ExactPolynomial((2, -3, 1))
    assert (T * T - T).exact_div(T - 1) == T
    assert T + 1 - 1 == T
    assert (T ** 3)(2) == 8
    assert ExactPolynomial().degree == -1
    assert T * 0 == 0


def test_exact_div_rejects_remainder():
    # t(t-3)/2 = (t-1) q + r with r = -1 at t = 1, so not divisible
    p = (T * (T - 3)).scale(Fraction(1, 2))
    assert p(1) == -1
    with pytest.raises(NonDivisibleError):
        p.exact_div(T - 1)
    with pytest.raises(NonDivisibleError):
        ONE.exact_div(T)
    with pytest.raises(ZeroDivisionError):
        T.exact_div(ExactPolynomial())


@given(a=polynomials, b=polynomials)
def test_product_then_exact_div_roundtrips(a, b):
    if b == 0:
        return
    assert (a * b).exact_div(b) == a


def test_binomial_poly_values():
    assert binomial_poly(0, 0) == 1
    assert binomial_poly(-1, 1) == T - 1
    assert binomial_poly(0, 2) == (T * (T - 1)).scale(Fraction(1, 2))
    assert falling_factorial_poly(3) == T * (T - 1) * (T - 2)


def _fraction_product(roots, den):
    """prod (t - r) / den as a list of Fraction coefficients, convolving
    with the coefficient list [-r, 1] of each factor in turn."""
    coeffs = [Fraction(1, den)]
    for r in roots:
        product = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            product[k] -= r * c
            product[k + 1] += c
        coeffs = product
    return coeffs


@given(roots=st.lists(st.integers(-12, 12), max_size=10), den=st.integers(1, 5040))
def test_linear_product_matches_a_fraction_product(roots, den):
    p = linear_product(roots, den)
    assert p.coeffs == tuple(_fraction_product(roots, den))
    assert gcd(p.den, *p.nums) == 1
    for t in (-3, 0, Fraction(1, 2), 7):
        expected = Fraction(1, den)
        for r in roots:
            expected *= t - r
        assert p(t) == expected


def test_linear_product_edge_cases():
    assert linear_product([]) == ONE
    assert linear_product((), 6) == Fraction(1, 6)
    assert linear_product([2, 2]) == (T - 2) ** 2
    assert linear_product([-1, -1, 3], 4) == ((T + 1) ** 2 * (T - 3)).scale(Fraction(1, 4))
    falling = T * (T - 1) * (T - 2) * (T - 3)
    assert linear_product(iter(range(4)), 24) == falling.scale(Fraction(1, 24))
    with pytest.raises(ValueError, match="den must be positive, got 0"):
        linear_product([1], 0)
    with pytest.raises(TypeError):
        linear_product([1.5])
    with pytest.raises(TypeError):
        linear_product([1], Fraction(1, 2))


def test_binomial_basis_known_values():
    assert to_binomial_basis(ONE).coeffs == (1,)
    assert to_binomial_basis((T * (T - 1)).scale(Fraction(1, 2))).coeffs == (0, 0, 1)
    # t^2 = binom(t,1) + 2 binom(t,2); checked at t = 0, 1, 2
    b = to_binomial_basis(T * T)
    assert b.coeffs == (0, 1, 2)
    for n in range(3):
        assert b.to_monomial()(n) == n * n


@given(p=polynomials)
def test_binomial_basis_roundtrip(p):
    assert to_binomial_basis(p).to_monomial() == p


@given(coeffs=st.lists(st.integers(-9, 9), max_size=10))
def test_integer_binomial_combinations_are_integer_valued(coeffs):
    p = BinomialBasisPolynomial(coeffs).to_monomial()
    for n in range(-5, 12):
        assert p(n).denominator == 1


def test_integer_valued_detection():
    # t/2 = 1/2 binom(t,1): the fractional coefficient sits at index 1
    assert to_binomial_basis(T.scale(Fraction(1, 2))).coeffs == (0, Fraction(1, 2))
    assert to_binomial_basis(T * (T - 1)).coeffs == (0, 0, 2)


@given(p=polynomials)
def test_json_roundtrip(p):
    assert poly_from_json(poly_to_json(p)) == p
    b = to_binomial_basis(p)
    assert poly_from_json(poly_to_json(b)) == b


def test_json_uses_decimal_strings():
    data = poly_to_json(T.scale(Fraction(-7, 3)))
    assert data == {"basis": "monomial", "coeffs": [["0", "1"], ["-7", "3"]]}


def test_lagrange_interpolation_known_values():
    assert lagrange_interpolate([0, 0, 1, 3]) == binomial_poly(0, 2)
    assert lagrange_interpolate([]) == ExactPolynomial()


@given(p=polynomials)
def test_lagrange_interpolation_inverts_the_values_at_0_to_deg(p):
    assert lagrange_interpolate([p(n) for n in range(p.degree + 1)]) == p


@given(values=st.lists(fractions, max_size=10))
def test_interpolant_binomial_coefficients_are_forward_differences(values):
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    while diffs and diffs[-1] == 0:
        diffs.pop()
    assert to_binomial_basis(lagrange_interpolate(values)).coeffs == tuple(diffs)


def test_polynomial_str():
    assert str(T * (T - 3)) == "t^2 - 3*t"
    assert str(ExactPolynomial()) == "0"
    assert str(to_binomial_basis((T * (T - 3)).scale(Fraction(1, 2)))) == "binom(t,2) - binom(t,1)"


# --- integer kernels against a plain-Fraction reference --------------------


def ref(cs):
    """Coefficient tuple of a polynomial as plain Fractions, trailing zeros stripped."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    return ref(Fraction(x) + y for x, y in zip_longest(a, b, fillvalue=0))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_eval(a, x):
    return sum((Fraction(c) * Fraction(x) ** k for k, c in enumerate(a)), Fraction(0))


def assert_canonical(p):
    """The one storage of ExactPolynomial and BinomialBasisPolynomial."""
    assert all(type(n) is int for n in p.nums) and type(p.den) is int
    assert p.den > 0
    assert not p.nums or p.nums[-1] != 0
    assert gcd(p.den, *p.nums) == 1
    assert p.nums or p.den == 1
    assert all(type(c) is Fraction for c in p.coeffs)


@given(p=polynomials, ints=st.lists(st.integers(-9, 9), max_size=8), half=st.integers(0, 7))
def test_binomial_basis_is_stored_in_canonical_form(p, ints, half):
    # integer-valued (though its t^k coefficients need not be integers), and
    # one binom(t, half) / 2 off it
    integral = BinomialBasisPolynomial(ints).to_monomial()
    off_at_half = integral + binomial_poly(0, half).scale(Fraction(1, 2))
    for q in (p, p.scale(p.den), integral, off_at_half):
        b = to_binomial_basis(q)
        assert type(b) is BinomialBasisPolynomial
        assert_canonical(b)
        values = [q(n) for n in range(q.degree + 1)]
        for same in (BinomialBasisPolynomial(b.coeffs), BinomialBasisPolynomial(b.coeffs + (0, 0)),
                     to_binomial_basis(b.to_monomial()), to_binomial_basis(lagrange_interpolate(values))):
            assert_canonical(same)
            assert same == b and hash(same) == hash(b)
            assert (same.nums, same.den) == (b.nums, b.den)
        assert (b.den == 1) == all(v.denominator == 1 for v in values)
    assert to_binomial_basis(integral).den == 1
    assert to_binomial_basis(off_at_half).den == 2
    for zero in (to_binomial_basis(ZERO), BinomialBasisPolynomial((0, 0))):
        assert (zero.nums, zero.den) == ((), 1)


@given(a=coefficient_lists, b=coefficient_lists, c=fractions, x=fractions,
       n=st.integers(0, 4))
def test_kernels_match_fraction_reference(a, b, c, x, n):
    pa, pb = ExactPolynomial(a), ExactPolynomial(b)
    ra, rb = ref(a), ref(b)
    power = (Fraction(1),)
    for _ in range(n):
        power = ref_mul(power, ra)
    cases = [
        (pa, ra),
        (pa * pb, ref_mul(ra, rb)),
        (pa + pb, ref_add(ra, rb)),
        (pa - pb, ref_add(ra, [-y for y in rb])),
        (-pa, ref([-y for y in ra])),
        (pa.scale(c), ref([y * c for y in ra])),
        (pa * c, ref([y * c for y in ra])),
        (c + pa, ref_add(ra, (c,))),
        (c - pa, ref_add((c,), [-y for y in ra])),
        (pa ** n, power),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert got.coeffs == want
        assert got.degree == len(want) - 1
    assert pa(x) == ref_eval(ra, x)
    assert type(pa(x)) is Fraction and type(pa(3)) is Fraction
    assert pa(3) == ref_eval(ra, 3)


@given(a=polynomials, b=polynomials)
def test_exact_div_roundtrips_in_canonical_form(a, b):
    if b == 0:
        return
    product = a * b
    quotient = product.exact_div(b)
    assert_canonical(quotient)
    assert quotient == a and hash(quotient) == hash(a)
    if a != 0:
        assert product.exact_div(a) == b
    if b.degree >= 1:
        with pytest.raises(NonDivisibleError):
            (product + Fraction(1, 7)).exact_div(b)


@given(a=polynomials, b=polynomials, c=fractions)
def test_equal_polynomials_hash_equal(a, b, c):
    assert hash(T.scale(Fraction(1, 2)) * 2) == hash(T)
    assert T.scale(Fraction(1, 2)) * 2 == T
    for same in ((a + b) - b, -(-a), a * 1, a.scale(Fraction(1, 3)).scale(3),
                 ExactPolynomial(a.coeffs), ExactPolynomial(tuple(a.coeffs) + (0, 0))):
        assert same == a and hash(same) == hash(a)
        assert (same.nums, same.den) == (a.nums, a.den)
    if c:
        same = a.scale(c).scale(1 / c)
        assert same == a and hash(same) == hash(a)


def test_constant_polynomials_hash_like_their_scalar():
    assert len({ONE, 1}) == 1
    assert len({ZERO, 0}) == 1
    assert hash(ExactPolynomial((Fraction(1, 2),))) == hash(Fraction(1, 2))


def test_mixed_scalar_arithmetic_and_zero():
    assert ExactPolynomial() == 0 and ExactPolynomial((0, 0)).nums == ()
    assert (ExactPolynomial() * T).den == 1
    assert (T - T).nums == () and (T - T).den == 1
    assert T + Fraction(1, 2) == ExactPolynomial((Fraction(1, 2), 1))
    assert 2 * T == T.scale(2) == T + T
    assert sum([T, T, ONE]) == T.scale(2) + 1
    assert ExactPolynomial((Fraction(1, 2), Fraction(1, 3))).nums == (3, 2)
    assert ExactPolynomial((Fraction(1, 2), Fraction(1, 3))).den == 6
    assert ExactPolynomial((4,)).coeffs == (4,) and T.coeffs == (0, 1)
    assert ExactPolynomial()(Fraction(1, 3)) == 0


def test_polynomials_are_immutable():
    p = T.scale(Fraction(1, 2))
    for name, value in (("nums", (1,)), ("den", 3), ("coeffs", ()), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    assert p.nums == (0, 1) and p.den == 2


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", None, 1j])
def test_polynomials_reject_non_rational_scalars(bad):
    with pytest.raises(TypeError):
        ExactPolynomial((1, bad))
    with pytest.raises(TypeError):
        T.scale(bad)
    with pytest.raises(TypeError):
        T(bad)


def test_a_scalar_becomes_a_polynomial_one_way(monkeypatch):
    """Every int, bool or Fraction that meets a polynomial or a series
    coefficient is lifted by _make from its ratio, never through the public
    constructor and its common denominator, and anything else still fails."""
    half, third = ExactPolynomial((Fraction(1, 2),)), ExactPolynomial((0, Fraction(1, 3)))

    def refuse(scalars):
        raise AssertionError("a scalar was lifted through the public constructor")
    monkeypatch.setattr("repst.exact._common_denominator", refuse)
    s = TruncatedSeries((3,), {(0,): 1, (1,): True, (2,): Fraction(1, 2), (3,): T})
    assert s.coefficient((1,)) == ONE and s.coefficient((2,)) == half
    assert (s * s).coefficient((2,)) == 2
    assert s.pow_poly(3) == s ** 3
    assert s.eval_t(Fraction(1, 2)).coefficient((3,)) == half
    assert (T + 1).nums == (1, 1) and T * Fraction(1, 3) == third
    assert T.exact_div(2) == T.scale(Fraction(1, 2)) and ONE == 1 and (ONE == "1") is False
    for bad in (0.5, "1", None, 1j):
        with pytest.raises(TypeError):
            TruncatedSeries((1,), {(0,): bad})
        with pytest.raises(TypeError):
            s.pow_poly(bad)
        with pytest.raises(TypeError):
            T.exact_div(bad)


@pytest.mark.parametrize("call", [
    lambda: lagrange_interpolate([0.1]),
    lambda: BinomialBasisPolynomial(["1/2"]),
    lambda: BinomialBasisPolynomial([1, 0.5]),
    lambda: bd.lemma_scan(0.1, 1, 8),
    lambda: bd.find_threshold(0.5, 1, 10),
    lambda: partitions.check_partition([2.5, 1.9]),
    lambda: partitions.check_cycle_type([1.0]),
    lambda: deligne.class_size_poly((1.5,)),
    lambda: T.exact_div("x"),
], ids=["lagrange-float", "binomial-str", "binomial-float", "lemma-scan", "find-threshold",
        "partition", "cycle-type", "class-size", "exact-div"])
def test_no_float_or_string_enters_the_exact_engine(call):
    """Each was silently converted before: a float to its binary value, a
    string parsed, a fractional part truncated."""
    with pytest.raises(TypeError):
        call()


def test_kernel_outputs_are_those_of_the_fraction_tuple_representation():
    """Every coefficient tuple listed below is identical, Fraction for
    Fraction, to the output of the earlier representation (a tuple of
    Fractions with per-term products and sums), whose digest this pins:
    dimension_poly for |lam| <= 10, frobenius_coefficient for |lam| <= 5
    against every class moving at most 6 points, hilbert_coefficient(m)
    for m <= 12."""
    lines = []
    for lam in partitions.partitions_up_to(10):
        lines.append(f"dim {lam} {deligne.dimension_poly(lam).coeffs!r}")
    for lam in partitions.partitions_up_to(5):
        for rho in partitions.cycle_types_with_support_up_to(6):
            lines.append(f"frob {lam} {rho} {deligne.frobenius_coefficient(lam, rho).coeffs!r}")
    for m in range(13):
        lines.append(f"hilbert {m} {groupalg.hilbert_coefficient(m).coeffs!r}")
    assert len(lines) == 361
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "2fb848ee5f4927f3b25777b3fc10dd9418b34847d9d2fb4f0472012551dabb26"


# --- truncated series --------------------------------------------------------


def geometric_like(bounds, entries):
    return TruncatedSeries(bounds, entries)


def test_series_coefficient_bounds():
    s = TruncatedSeries((2, 1), {(1, 0): 1})
    assert s.coefficient((1, 0)) == 1
    assert s.coefficient((0, 1)) == 0
    with pytest.raises(OutOfBoundsError):
        s.coefficient((3, 0))
    with pytest.raises(OutOfBoundsError):
        s.coefficient((1,))


def test_series_truncation_drops_high_terms():
    s = TruncatedSeries((1,), {(0,): 1, (1,): 2, (2,): 5})
    assert (1,) in s.terms and (2,) not in s.terms


def test_binary_ops_need_equal_bounds():
    a = TruncatedSeries((3,), {(0,): 1, (3,): 1})
    for b in (TruncatedSeries((2,), {(0,): 1}), TruncatedSeries.constant((3, 0), 1)):
        for combine in (add, mul, lambda x, y: convolve_coefficient(x, y, (0,))):
            with pytest.raises(ValueError, match="series bounds differ"):
                combine(a, b)
            with pytest.raises(ValueError, match="series bounds differ"):
                combine(b, a)


def test_series_constructor_validates_its_input():
    with pytest.raises(ValueError, match="nonnegative"):
        TruncatedSeries((2, -1))
    with pytest.raises(ValueError, match="exponent length"):
        TruncatedSeries((2, 1), {(1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        TruncatedSeries((2,), {(-1,): 1})
    for bounds, terms in (((2.0,), {}), ((2,), {(1.0,): 1}), ((2,), {(1,): 0.5}),
                          ((2,), {(5,): 0.5})):
        with pytest.raises(TypeError, match="float"):
            TruncatedSeries(bounds, terms)
    assert TruncatedSeries((2,), {(0,): 1, (1,): 0, (3,): 4}).terms == {(0,): ONE}


def test_operator_results_skip_the_validating_constructor(monkeypatch):
    a = TruncatedSeries((2, 1), {(1, 0): 1, (0, 1): T})
    one_plus_a = TruncatedSeries.constant((2, 1), 1) + a

    def refuse(cls, *args, **kwargs):
        raise AssertionError("an operator re-validated its result")
    monkeypatch.setattr(TruncatedSeries, "__new__", staticmethod(refuse))
    results = [a + a, a * a, a ** 3, a.exp(), one_plus_a.pow_poly(T), a.eval_t(2)]
    assert all(type(r) is TruncatedSeries for r in results)
    assert convolve_coefficient(a, one_plus_a, (1, 1)) == T.scale(2)


def series_dicts(nvars):
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exponents, st.integers(-3, 3), max_size=6)


@given(data=st.data(), nvars=st.integers(1, 3))
def test_sum_and_product_match_brute_force_dicts(data, nvars):
    bounds = tuple(data.draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)))
    a, b = data.draw(series_dicts(nvars)), data.draw(series_dicts(nvars))
    in_bounds = lambda e: all(x <= y for x, y in zip(e, bounds))
    expected_sum, expected_product = {}, {}
    for ea, ca in a.items():
        if in_bounds(ea):
            expected_sum[ea] = expected_sum.get(ea, 0) + ca
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if in_bounds(eb) and in_bounds(e):
                    expected_product[e] = expected_product.get(e, 0) + ca * cb
    for eb, cb in b.items():
        if in_bounds(eb):
            expected_sum[eb] = expected_sum.get(eb, 0) + cb
    sa, sb = TruncatedSeries(bounds, a), TruncatedSeries(bounds, b)
    for result, expected in ((sa + sb, expected_sum), (sa * sb, expected_product)):
        assert result.bounds == bounds
        assert all(c != 0 for c in result.terms.values())
        assert all(in_bounds(e) for e in result.terms)
        assert result.terms == {e: ExactPolynomial((c,)) for e, c in expected.items() if c}


# the unit coefficient, polynomials in t and a non-integer constant, so a
# product meets every kind of coefficient on either side
series_coefficients = st.one_of(st.integers(-4, 4),
                                st.sampled_from([ONE, T, T - 2, Fraction(1, 2)]))


@given(
    a=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                      series_coefficients, max_size=5),
    b=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                      series_coefficients, max_size=5),
)
def test_series_product_matches_brute_force_convolution(a, b):
    bounds = (3, 2)
    sa = TruncatedSeries(bounds, a)
    sb = TruncatedSeries(bounds, b)
    product = sa * sb
    for e0 in range(4):
        for e1 in range(3):
            total = ExactPolynomial()
            for (x0, x1), ca in sa.terms.items():
                for (y0, y1), cb in sb.terms.items():
                    if (x0 + y0, x1 + y1) == (e0, e1):
                        total = total + ca * cb
            assert product.coefficient((e0, e1)) == total
            assert convolve_coefficient(sa, sb, (e0, e1)) == total


def test_unit_coefficients_take_no_polynomial_product(monkeypatch):
    bounds = (3, 3)
    units = TruncatedSeries(bounds, {(1, 0): 1, (0, 1): 1})
    polys = TruncatedSeries(bounds, {(0, 0): T, (1, 0): T - 2, (2, 1): Fraction(1, 2),
                                     (0, 3): T * T})
    # x * polys + y * polys, with y * y^3 truncated away
    expected = TruncatedSeries(bounds, {(1, 0): T, (2, 0): T - 2, (3, 1): Fraction(1, 2),
                                        (1, 3): T * T, (0, 1): T, (1, 1): T - 2,
                                        (2, 2): Fraction(1, 2)})
    calls = []
    multiply = ExactPolynomial.__mul__

    def counting(a, b):
        calls.append(1)
        return multiply(a, b)
    monkeypatch.setattr(ExactPolynomial, "__mul__", counting)
    assert units * polys == expected
    assert polys * units == expected
    assert calls == []


def test_pow_poly_binomial_series():
    one_plus_x = TruncatedSeries((7,), {(0,): 1, (1,): 1})
    power = one_plus_x.pow_poly(T)
    for k in range(8):
        assert power.coefficient((k,)) == binomial_poly(0, k)


def test_pow_poly_with_a_coefficient_in_t_specializes_to_the_power():
    h = TruncatedSeries((2, 1), {(0, 0): 1, (1, 0): 1, (0, 1): T})
    power = h.pow_poly(T)
    for n in range(5):
        assert power.eval_t(n) == h.eval_t(n) ** n


def test_pow_poly_known_expansion():
    h = TruncatedSeries((2,), {(0,): 1, (1,): 2})
    power = h.pow_poly(T)
    assert power.coefficient((0,)) == 1
    assert power.coefficient((1,)) == T.scale(2)
    assert power.coefficient((2,)) == (T * (T - 1)).scale(2)


@given(c1=st.integers(0, 3), c2=st.integers(0, 3), n=st.integers(0, 6))
def test_pow_poly_specializes_to_repeated_product(c1, c2, n):
    bounds = (4,)
    h = TruncatedSeries(bounds, {(0,): 1, (1,): c1, (2,): c2})
    power = h.pow_poly(T)
    product = TruncatedSeries.constant(bounds, 1)
    for _ in range(n):
        product = product * h
    assert power.eval_t(n) == product


@given(data=st.data(), nvars=st.integers(2, 3))
def test_multivariate_pow_poly_specializes_to_repeated_product(data, nvars):
    bounds = tuple(data.draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars)))
    terms = data.draw(series_dicts(nvars))
    terms[(0,) * nvars] = 1
    h = TruncatedSeries(bounds, terms)
    power = h.pow_poly(T)
    product = TruncatedSeries.constant(bounds, 1)
    for n in range(6):
        assert power.eval_t(n) == product
        product = product * h


def test_exp_and_pow_poly_preconditions():
    with pytest.raises(BadConstantTermError):
        TruncatedSeries((2,), {(0,): 1}).exp()
    with pytest.raises(BadConstantTermError):
        TruncatedSeries((2,), {(0,): 2}).pow_poly(T)
    with pytest.raises(BadConstantTermError):
        TruncatedSeries((2,), {(1,): 1}).pow_poly(T)
    assert TruncatedSeries((3,)).exp() == TruncatedSeries.constant((3,), 1)
    assert TruncatedSeries.constant((3,), 1).pow_poly(T) == TruncatedSeries.constant((3,), 1)


@given(a1=fractions, a2=fractions, b1=fractions, b2=fractions)
def test_exp_of_a_sum_is_the_product_of_exps(a1, a2, b1, b2):
    a = TruncatedSeries((4,), {(1,): a1, (2,): a2})
    b = TruncatedSeries((4,), {(1,): b1, (2,): T.scale(b2)})
    assert (a + b).exp() == a.exp() * b.exp()


@given(c1=fractions, c2=fractions)
def test_exp_matches_its_explicit_series(c1, c2):
    for a in (TruncatedSeries((2, 3), {(1, 0): c1, (0, 1): T.scale(c2), (1, 1): 1}),
              TruncatedSeries((2, 1, 2), {(1, 0, 0): c1, (0, 1, 1): T.scale(c2),
                                          (0, 0, 1): 1, (1, 1, 0): T - c1})):
        expected = TruncatedSeries.constant(a.bounds, 0)
        for k in range(sum(a.bounds) + 1):
            expected = expected + (a ** k) * TruncatedSeries.constant(a.bounds, Fraction(1, factorial(k)))
        assert a.exp() == expected


def test_pow_poly_is_a_homomorphism_in_the_exponent():
    h = TruncatedSeries((3, 2), {(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): -1})
    g1, g2 = T * T - 3, T.scale(Fraction(1, 2)) + 5
    assert h.pow_poly(g1 + g2) == h.pow_poly(g1) * h.pow_poly(g2)
    for n in range(6):
        assert h.pow_poly(ExactPolynomial((n,))) == h ** n


POWER_BASES = [
    ExactPolynomial((1, 2, Fraction(1, 3))),
    TruncatedSeries((3, 2), {(0, 0): 2, (1, 0): 1, (0, 1): T, (1, 1): -1}),
]


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (5, 3)])
@pytest.mark.parametrize("base", POWER_BASES, ids=["polynomial", "series"])
def test_power_takes_the_binary_method_products(base, n, products, monkeypatch):
    one = ONE if isinstance(base, ExactPolynomial) else TruncatedSeries.constant(base.bounds, 1)
    expected = one
    for _ in range(n):
        expected = expected * base
    calls = []
    multiply = type(base).__mul__

    def counting(a, b):
        calls.append(1)
        return multiply(a, b)
    monkeypatch.setattr(type(base), "__mul__", counting)
    assert base ** n == expected
    assert len(calls) == products


# u = x at bound (5,): pow_poly's expansion takes x^2 ... x^5, and x^1 is u
# itself; exp's recurrence works coefficient by coefficient, with no product
@pytest.mark.parametrize("expand, products", [
    (lambda: TruncatedSeries((5,), {(0,): 1, (1,): 1}).pow_poly(T), 4),
    (lambda: TruncatedSeries((5,), {(1,): 1}).exp(), 0),
], ids=["pow_poly", "exp"])
def test_power_series_takes_no_product_by_one(expand, products, monkeypatch):
    expected = expand()
    calls = []
    multiply = TruncatedSeries.__mul__

    def counting(a, b):
        calls.append(1)
        return multiply(a, b)
    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    assert expand() == expected
    assert len(calls) == products


@pytest.mark.parametrize("base, kind", zip(POWER_BASES, ["polynomial", "series"]))
def test_negative_power_is_a_value_error(base, kind):
    with pytest.raises(ValueError, match=f"negative {kind} power"):
        base ** -1
