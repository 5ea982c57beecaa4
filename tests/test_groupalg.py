import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from repst import groupalg as ga
from repst.deligne import certify_integer_valued
from repst.exact import T, TruncatedSeries, ZERO, binomial_poly


def e_m_of_initial_integers(m, n):
    """Elementary symmetric polynomial e_m(1, ..., n-1), directly."""
    table = ga.elementary_symmetric_table(m, list(range(1, n)))
    return table[max(n - 1, 0)][m]


def second_order_eulerian(n_max):
    """Rows n = 0..n_max of <<n,k>>, k = 0..n, by the recurrence
    <<0,0>> = 1 and <<n,k>> = (k+1) <<n-1,k>> + (2n-1-k) <<n-1,k-1>>."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([(k + 1) * prev[k] + (2 * n - 1 - k) * (prev[k - 1] if k else 0)
                     for k in range(n + 1)])
    return rows


def test_hilbert_coefficient_is_the_second_order_eulerian_sum():
    # Graham-Knuth-Patashnik, Concrete Mathematics, eq. 6.44:
    # e_m(1, ..., t-1) = [t, t-m] = sum_k <<m,k>> binom(t + k, 2m), an identity
    # of polynomials, so it holds at every t and not only at the ranks 0..2m
    eulerian = second_order_eulerian(12)
    assert eulerian[3] == [1, 8, 6, 0] and eulerian[4] == [1, 22, 58, 24, 0]  # GKP Table 6.2
    for m in range(1, 13):
        closed_form = sum((binomial_poly(k, 2 * m).scale(e) for k, e in enumerate(eulerian[m])), ZERO)
        assert ga.hilbert_coefficient(m) == closed_form, m


def test_bernoulli_numbers():
    expected = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30),
                0, Fraction(1, 42), 0, Fraction(-1, 30)]
    for k, value in enumerate(expected):
        assert ga.bernoulli_number(k) == value


def test_bernoulli_polynomials():
    assert ga.bernoulli_poly(1) == T - Fraction(1, 2)
    assert ga.bernoulli_poly(2) == T * T - T + Fraction(1, 6)
    # B_k(t+1) - B_k(t) = k t^{k-1}
    for k in range(1, 8):
        b = ga.bernoulli_poly(k)
        for n in range(0, 6):
            assert b(n + 1) - b(n) == k * Fraction(n) ** (k - 1)


def test_hilbert_coefficient_known_values():
    assert ga.hilbert_coefficient(0) == 1
    assert ga.hilbert_coefficient(1) == (T * (T - 1)).scale(Fraction(1, 2))
    expected_m2 = (T * (T - 1) * (T - 2) * (T.scale(3) - 1)).scale(Fraction(1, 24))
    assert ga.hilbert_coefficient(2) == expected_m2
    assert ga.hilbert_coefficient(2)(4) == 11
    assert ga.hilbert_coefficient(2)(5) == 35


@given(m=st.integers(0, 6), n=st.integers(0, 13))
def test_hilbert_coefficient_interpolates_beyond_nodes(m, n):
    assert ga.hilbert_coefficient(m)(n) == e_m_of_initial_integers(m, n)


@pytest.mark.parametrize("m", range(17))
def test_gamma_route_agrees(m):
    assert ga.hilbert_coefficient_gamma(m) == ga.hilbert_coefficient(m)


@pytest.mark.parametrize("m", range(17))
def test_gamma_route_is_the_coefficient_of_exp_of_the_log_gamma_series(m):
    # TruncatedSeries.exp runs the same recurrence over the whole series at
    # once; the log terms are written out here, not read from log_coefficient
    log_terms = {(k,): (ga.bernoulli_poly(k + 1) - ga.bernoulli_number(k + 1))
                 .scale(Fraction((-1) ** (k + 1), k * (k + 1))) for k in range(1, m + 1)}
    expected = TruncatedSeries((m,), log_terms).exp().coefficient((m,))
    assert ga.hilbert_coefficient_gamma(m) == expected


def test_a_cold_gamma_coefficient_nests_at_most_three_frames(monkeypatch):
    # every cache miss checks its m first, so the check sees each frame's depth
    code = ga.hilbert_coefficient_gamma.__wrapped__.__code__
    depths = []
    check = ga.check_size_cap

    def check_and_count(name, value, *least):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            depth += frame.f_code is code
            frame = frame.f_back
        depths.append(depth)
        check(name, value, *least)

    expected = ga.hilbert_coefficient(40)
    ga.hilbert_coefficient_gamma.cache_clear()
    monkeypatch.setattr(ga, "check_size_cap", check_and_count)
    assert ga.hilbert_coefficient_gamma(40) == expected
    assert len(depths) == 41 and max(depths) <= 3


@given(n=st.integers(0, 9))
def test_row_sums_are_factorials(n):
    total = sum(ga.hilbert_coefficient(m)(n) for m in range(max(n, 1)))
    assert total == factorial(n)


@given(n=st.integers(1, 10))
def test_coefficients_vanish_at_small_ranks(n):
    # at rank n the series is a polynomial of degree n-1 in x
    assert ga.hilbert_coefficient(n)(n) == 0


@given(m=st.integers(0, 7))
def test_coefficients_are_integer_valued(m):
    certify_integer_valued(ga.hilbert_coefficient(m))


def test_order_remark_is_documentation_only():
    """The caveat on the order of the Hilbert series is text for the
    `stirling` help; it lives in the CLI, and groupalg carries no copy."""
    from repst.cli import ORDER_CAVEAT
    assert "zero radius of convergence" in ORDER_CAVEAT
    assert "coefficients only" in ORDER_CAVEAT
    assert "t!" in ORDER_CAVEAT and "never" in ORDER_CAVEAT
    assert not hasattr(ga, "order_remark")


def test_negative_m_rejected():
    with pytest.raises(ValueError):
        ga.hilbert_coefficient(-1)
    with pytest.raises(ValueError):
        ga.hilbert_coefficient_gamma(-1)
