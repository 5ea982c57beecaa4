from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from repst import schurweyl as sw, snoracle as sn, partitions as pt
from repst.exact import BadConstantTermError, ONE, T, TruncatedSeries, ZERO, binomial_poly
from conftest import partition_strategy


def candidate_ranks(weight, t_max):
    """The distinct ranks t among the witnesses (t, i, m) of verma_candidates."""
    return {t for t, _, _ in sw.verma_candidates(weight, t_max)}


def test_unital_hilbert_validation():
    with pytest.raises(BadConstantTermError):
        sw.UnitalHilbert((2, 1))
    with pytest.raises(BadConstantTermError):
        sw.UnitalHilbert(())
    with pytest.raises(ValueError):
        sw.UnitalHilbert((1, -1))
    assert sw.UnitalHilbert.ungraded(3).coefficients == (1, 3)


def test_tensor_power_hilbert_binomial_case():
    series = sw.tensor_power_hilbert(sw.UnitalHilbert((1, 1)), 10)
    for k in range(11):
        assert series[k] == binomial_poly(0, k)


def test_tensor_power_hilbert_known_expansion():
    series = sw.tensor_power_hilbert(sw.UnitalHilbert((1, 2)), 2)
    assert series[0] == 1
    assert series[1] == T.scale(2)
    assert series[2] == (T * (T - 1)).scale(2)


def test_tensor_power_hilbert_lists_every_coefficient_to_its_degree():
    # trailing zero coefficients stay, so the tuple has degree + 1 entries
    assert sw.tensor_power_hilbert(sw.UnitalHilbert((1,)), 3) == (ONE, ZERO, ZERO, ZERO)
    assert sw.tensor_power_hilbert(sw.UnitalHilbert((1, 1)), 0) == (ONE,)


@given(
    coeffs=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    n=st.integers(0, 6),
)
def test_tensor_power_specializes_to_product(coeffs, n):
    h = sw.UnitalHilbert((1,) + coeffs)
    series = sw.tensor_power_hilbert(h, 5)
    base = TruncatedSeries((5,), {(k,): c for k, c in enumerate(h.coefficients)})
    product = TruncatedSeries((5,), {(0,): 1})
    for _ in range(n):
        product = product * base
    assert [c(n) for c in series] == [product.coefficient((k,)) for k in range(6)]


def test_schur_dimension_known_values():
    assert sw.schur_dimension((1,), 5) == 5
    assert sw.schur_dimension((2,), 2) == 3  # monomials x^2, xy, y^2
    assert sw.schur_dimension((1, 1), 1) == 0
    assert sw.schur_dimension((), 4) == 1
    assert sw.schur_dimension((2, 1), 3) == 8


def test_schur_dimension_non_dividing_hook_product_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(sw, "hook_product", lambda lam: 7)
    with pytest.raises(pt.InvariantError, match="hook product 7 does not divide"):
        sw.schur_dimension((1,), 2)


@given(d=st.integers(1, 4), k=st.integers(0, 6))
def test_schur_dimensions_refine_tensor_powers(d, k):
    # d^k = sum over |lam| = k of (Schur dim at d) * (number of standard tableaux)
    total = sum(sw.schur_dimension(lam, d) * sn.hook_dim(lam)
                for lam in pt.partitions_of(k))
    assert total == d ** k


@given(lam=partition_strategy(max_n=7), d=st.integers(1, 5))
def test_schur_dimension_row_cutoff(lam, d):
    dim = sw.schur_dimension(lam, d)
    assert (dim == 0) == (len(lam) > d)
    assert dim >= 0


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_graded_decomposition_passes(d):
    report = sw.graded_decomposition_check(d, 6)
    assert report.passed
    assert report.first_failure is None


def test_graded_decomposition_reports_the_first_broken_degree(monkeypatch):
    original = sw.schur_dimension
    monkeypatch.setattr(sw, "schur_dimension",
                        lambda lam, d: original(lam, d) + (sum(lam) == 3))
    report = sw.graded_decomposition_check(2, 6)
    assert report.passed is False
    assert report.first_failure == 3


def test_degree_one_dimension_known_values():
    assert sw.degree_one_dimension(1) == 1
    assert sw.degree_one_dimension(2) == T + 1
    assert sw.degree_one_dimension(3) == T.scale(2) + 1
    with pytest.raises(ValueError):
        sw.degree_one_dimension(0)


@pytest.mark.parametrize("v", range(1, 6))
def test_degree_one_matches_series_truncation(v):
    series = sw.tensor_power_hilbert(sw.UnitalHilbert.ungraded(v - 1), 1)
    assert sw.degree_one_dimension(v) == series[0] + series[1]


def test_verma_weight_validation():
    with pytest.raises(ValueError):
        sw.VermaWeight((1, 1, 1), 3)
    with pytest.raises(ValueError, match="^space_dim must be >= 1, got 0$"):
        sw.VermaWeight((), 0)
    sw.VermaWeight((1, 1), 3)
    sw.VermaWeight((), 1)


def test_verma_candidates_empty_partition_fills_z_plus():
    weight = sw.VermaWeight((), 4)
    assert candidate_ranks(weight, 9) == set(range(10))


def test_verma_candidates_one_box():
    weight = sw.VermaWeight((1,), 4)
    assert candidate_ranks(weight, 5) == {0, 2, 3, 4, 5}
    assert candidate_ranks(weight, 10) == set(range(11)) - {1}
    # the t = 0 witness comes from moving into the second row with m = 1
    assert (0, 2, 1) in sw.verma_candidates(weight, 5)


@given(lam=partition_strategy(max_n=6), t_max=st.integers(0, 12))
def test_verma_candidates_are_nonnegative_integers(lam, t_max):
    weight = sw.VermaWeight(lam, len(lam) + 3)
    values = candidate_ranks(weight, t_max)
    assert all(isinstance(t, int) and 0 <= t <= t_max for t in values)


@given(lam=partition_strategy(max_n=6))
def test_verma_witnesses_satisfy_their_constraints(lam):
    weight = sw.VermaWeight(lam, len(lam) + 3)
    for t, i, m in sw.verma_candidates(weight, 12):
        lam_i = lam[i - 1] if i <= len(lam) else 0
        assert m >= 1
        assert t == sum(lam) + lam_i + m - i
        if i > 1:
            lam_prev = lam[i - 2] if i - 1 <= len(lam) else 0
            assert lam_prev >= lam_i + m


def scan_every_row(lam, space_dim, t_max):
    """verma_candidates as a scan over every row 1..N-1 with a filter on t."""
    found = []
    for i in range(1, space_dim):
        lam_i = lam[i - 1] if i <= len(lam) else 0
        lam_prev = lam[i - 2] if 2 <= i <= len(lam) + 1 else 0
        for m in range(1, t_max + i + 1):
            t = sum(lam) + lam_i + m - i
            if (i == 1 or lam_prev >= lam_i + m) and 0 <= t <= t_max:
                found.append((t, i, m))
    return sorted(found)


@given(lam=partition_strategy(max_n=6), extra=st.integers(1, 4), t_max=st.integers(0, 14))
def test_verma_candidates_match_a_scan_over_every_row(lam, extra, t_max):
    weight = sw.VermaWeight(lam, len(lam) + extra)
    assert sw.verma_candidates(weight, t_max) == scan_every_row(lam, len(lam) + extra, t_max)


def test_verma_candidates_cap_t_max(monkeypatch):
    monkeypatch.delenv("REPST_LIMITS", raising=False)
    weight = sw.VermaWeight((1,), 4)
    with pytest.raises(pt.LimitExceededError, match="t_max=41 exceeds the enumeration cap 40"):
        sw.verma_candidates(weight, 41)
    with pytest.raises(ValueError, match="t_max must be nonnegative, got -1"):
        sw.verma_candidates(weight, -1)
    monkeypatch.setenv("REPST_LIMITS", "45")
    assert candidate_ranks(weight, 45) == set(range(46)) - {1}


def test_interlacing_branch_known_values():
    assert sw.interlacing_branch((), 2, 3) == [(), (1,), (2,), (3,)]
    assert sorted(sw.interlacing_branch((1,), 3, 2)) == [(1,), (1, 1), (2,)]
    assert sorted(sw.interlacing_branch((1,), 2, 2)) == [(1,), (2,)]


def test_interlacing_branch_matches_a_brute_force_filter():
    # every mu of size <= size_bound with at most N - 1 rows that interlaces
    # lam, in the order (|mu|, mu)
    def interlaces(mu, lam):
        rows = max(len(mu), len(lam)) + 1
        mu, lam = mu + (0,) * (rows - len(mu)), lam + (0,) * (rows - len(lam))
        return all(mu[i] >= lam[i] >= mu[i + 1] for i in range(rows - 1))

    candidates = list(pt.partitions_up_to(11))
    for space_dim in range(1, 7):
        for lam in pt.partitions_up_to(7):
            if len(lam) > space_dim - 1:
                continue
            for size_bound in range(12):
                expected = sorted((mu for mu in candidates
                                   if sum(mu) <= size_bound and len(mu) <= space_dim - 1
                                   and interlaces(mu, lam)),
                                  key=lambda mu: (sum(mu), mu))
                assert sw.interlacing_branch(lam, space_dim, size_bound) == expected


def test_interlacing_branch_with_a_large_space_dim():
    # rows past len(lam) + 1 are 0, so N only caps the row count
    assert sw.interlacing_branch((1,), 2000, 3) == [(1,), (1, 1), (2,), (2, 1), (3,)]


@given(lam=partition_strategy(max_n=5), extra=st.integers(0, 3))
@settings(max_examples=30)
def test_interlacing_branch_inequalities(lam, extra):
    space_dim = len(lam) + 2
    bound = sum(lam) + extra
    mus = sw.interlacing_branch(lam, space_dim, bound)
    assert len(mus) == len(set(mus))
    for mu in mus:
        assert len(mu) <= space_dim - 1
        assert sum(mu) <= bound
        for i in range(max(len(mu), len(lam))):
            mu_i = mu[i] if i < len(mu) else 0
            lam_i = lam[i] if i < len(lam) else 0
            mu_next = mu[i + 1] if i + 1 < len(mu) else 0
            assert mu_i >= lam_i >= mu_next


@given(lam=partition_strategy(max_n=4), space_dim=st.integers(2, 4), extra=st.integers(0, 3))
@settings(max_examples=30)
def test_interlacing_branch_dimension_bookkeeping(lam, space_dim, extra):
    # accumulated Schur dimensions over the branching match the graded
    # dimension of Sym(U) tensor S^lam(U), degree by degree up to the bound
    if len(lam) > space_dim - 1:
        return
    bound = sum(lam) + extra
    d = space_dim - 1
    total = sum(sw.schur_dimension(mu, d) for mu in sw.interlacing_branch(lam, space_dim, bound))
    expected = sum(comb(d - 1 + k, k) * sw.schur_dimension(lam, d)
                   for k in range(bound - sum(lam) + 1))
    assert total == expected
