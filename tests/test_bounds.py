from collections import Counter
from fractions import Fraction
from itertools import product as cartesian_product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from repst import bounds as bd, cli, partitions as pt, snoracle as sn
from conftest import partition_strategy


def test_dimension_lower_bound_known_values():
    assert bd.dimension_lower_bound(6, (6,)) == 1
    assert bd.dimension_lower_bound(4, (2, 2)) == Fraction(3, 2)
    assert bd.dimension_lower_bound(4, (3, 1)) == Fraction(27, 16)
    with pytest.raises(sn.SizeMismatchError):
        bd.dimension_lower_bound(5, (2, 2))


@given(mu=partition_strategy(max_n=14, min_n=1))
def test_bound_never_exceeds_dimension(mu):
    assert sn.hook_dim(mu) >= bd.dimension_lower_bound(sum(mu), mu)


def test_bound_sweep_matches_per_partition_reference_through_24():
    for n in range(1, 25):
        slacks = []
        for mu in pt.partitions_of(n):
            d = max(mu[0], len(mu))
            slacks.append((sn.hook_dim(mu) - comb(n, d) * Fraction(d, n) ** d, mu))
        min_slack, argmin = min(slacks, key=lambda pair: pair[0])
        report = bd.bound_sweep(n)
        assert (report.partition_count, report.passed, report.min_slack, report.argmin) == (
            len(slacks), all(s >= 0 for s, _ in slacks), min_slack, argmin)


def test_the_walk_visits_each_wide_partition_once_with_its_hook_product():
    for n in range(23):
        visits = Counter()
        for mu, hooks in bd._wide_hook_products(n):
            visits[mu] += 1
            assert hooks * sn.hook_dim(mu) == factorial(n), mu
        assert visits == Counter(mu for mu in pt.partitions_of(n) if mu and mu[0] >= len(mu)), n


def _partition_counts(n_max):
    """p(0..n_max), adding the parts 1, 2, ..., n_max one size at a time."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def test_bound_sweep_counts_every_partition_and_is_tight_at_the_row_through_40():
    counts = _partition_counts(40)
    assert counts[40] == 37338
    for n in range(1, 41):
        report = bd.bound_sweep(n)
        assert report.partition_count == counts[n], n
        # dim (n) = 1 = binom(n, n) (n/n)^n, and (n) comes first
        assert (report.min_slack, report.argmin) == (0, (n,)), n


def test_the_sweeps_check_the_cap_when_called(monkeypatch):
    monkeypatch.delenv("REPST_LIMITS", raising=False)
    n = pt.enumeration_limit() + 1
    for call in (lambda: bd.bound_sweep(n), lambda: bd.lemma_scan(Fraction(1), 1, n)):
        with pytest.raises(pt.LimitExceededError, match=r"^n=41 exceeds"):
            call()


def test_a_failing_sweep_reports_the_first_partition_of_least_slack(monkeypatch):
    # classes with two partitions of least dimension, such as (3, 3, 1) and
    # (3, 2, 2) at n = 7, report the lexicographically larger one
    original = bd.dimension_lower_bound

    def raised(d):
        # n! is above every dimension, so the sweep fails in class d
        return lambda n, mu: original(n, mu) + (factorial(n) if max(mu[0], len(mu)) == d else 0)
    for n in range(1, 15):
        for d in range(1, n + 1):
            monkeypatch.setattr(bd, "dimension_lower_bound", raised(d))
            min_slack, argmin = min(((sn.hook_dim(mu) - bd.dimension_lower_bound(n, mu), mu)
                                     for mu in pt.partitions_of(n)), key=lambda pair: pair[0])
            report = bd.bound_sweep(n)
            assert (report.min_slack, report.argmin) == (min_slack, argmin), (n, d)
    # every class at slack -1: the first partition of all, (n), is reported
    monkeypatch.setattr(bd, "dimension_lower_bound", lambda n, mu: sn.hook_dim(mu) + 1)
    report = bd.bound_sweep(9)
    assert (report.min_slack, report.argmin) == (-1, (9,))


def row_peel_factors(mu):
    """The factors 1 + (c_i - 1)/i, i = 1..d, where d is the first-row
    length and c_i the length of column d - i + 1 (columns counted from the
    right, so c_1 is the shortest)."""
    if not mu:
        return []
    d = mu[0]
    cols = pt.conjugate(mu)
    return [1 + Fraction(cols[d - i] - 1, i) for i in range(1, d + 1)]


def _amgm_statement(mu):
    """The estimate amgm_check tests, as its docstring states it, in Fractions."""
    if not mu:
        return True
    n, d = sum(mu), mu[0]
    return prod(row_peel_factors(mu)) <= prod(pt.conjugate(mu)) <= Fraction(n, d) ** d


def test_amgm_check_is_the_fraction_statement(monkeypatch):
    for n in range(17):
        for mu in pt.partitions_of(n):
            assert bd.amgm_check(mu) is _amgm_statement(mu) is True, mu
    # the two agree where the statement is false too: column lengths, 0
    # among them, that belong to no partition of n, for mu = (d, n - d)
    outcomes = set()
    for d in range(1, 4):
        for cols in cartesian_product(range(5), repeat=d):
            for module in (bd, pt):
                monkeypatch.setattr(module, "conjugate", lambda mu: cols)
            for n in range(d, 3 * d + 1):
                expected = _amgm_statement((d, n - d))
                assert bd.amgm_check((d, n - d)) is expected, (n, cols)
                outcomes.add(expected)
    assert outcomes == {True, False}


@given(mu=partition_strategy(max_n=12))
def test_amgm_factors_multiply_to_something_below_the_power_bound(mu):
    if not mu:
        return
    n, d = sum(mu), mu[0]
    product = Fraction(1)
    for f in row_peel_factors(mu):
        product *= f
    assert product <= Fraction(n, d) ** d


@given(mu=partition_strategy(max_n=12, min_n=1))
def test_row_peel_identity_is_exact(mu):
    # the row-peeling step behind the bound, with d the first row of mu
    assert sn.hook_dim(mu) * prod(row_peel_factors(mu)) == sn.hook_dim(mu[1:]) * comb(sum(mu), mu[0])


@pytest.mark.parametrize("n", [1, 4, 12, 18])
def test_bound_sweep_passes(n):
    report = bd.bound_sweep(n)
    assert report.passed
    assert report.partition_count == len(pt.partitions_of(n))
    assert report.min_slack >= 0


def test_bound_sweep_n18_has_385_partitions():
    assert bd.bound_sweep(18).partition_count == 385


def test_bound_sweep_json():
    data = cli.bound_sweep_to_json(bd.bound_sweep(4))
    assert data["check"] == "bound-sweep"
    assert data["pass"] is True
    assert data["partitions"] == 5
    num, den = data["minSlack"]
    assert Fraction(int(num), int(den)) >= 0


def test_lemma_scan_trivial_cases():
    # C=1, k=0: only the two one-dimensional representations qualify, and
    # both have a full-length first row or column
    for n in range(1, 13):
        assert bd.lemma_scan(Fraction(1), 0, n) == []


def test_lemma_scan_needs_a_positive_n():
    for n in (0, -3):
        with pytest.raises(sn.SizeMismatchError, match=f"got {n}"):
            bd.lemma_scan(Fraction(1), 1, n)


def test_lemma_scan_k1_window():
    for n in range(10, 16):
        assert bd.lemma_scan(Fraction(1), 1, n) == []
    qualifying = [mu for mu in pt.partitions_of(10) if sn.hook_dim(mu) <= 10]
    assert sorted(qualifying) == sorted([(10,), (9, 1), (2,) + (1,) * 8, (1,) * 10])


def test_lemma_scan_small_n_can_fail():
    # the long-row-or-column conclusion is only eventually true; at n = 6
    # with a quadratic budget there are genuine violations, reported not hidden
    violations = bd.lemma_scan(Fraction(1), 2, 6)
    assert violations
    for mu in violations:
        assert mu[0] < 4 and len(mu) < 4
        assert sn.hook_dim(mu) <= 36


# 21/5 * 10 = 42 = hook_dim((5, 5)) puts a dimension exactly on the budget
@pytest.mark.parametrize("c, k", [(Fraction(1), 1), (Fraction(1, 2), 2), (Fraction(3), 1),
                                  (Fraction(21, 5), 1)])
def test_lemma_scan_matches_the_per_partition_reference(c, k):
    for n in range(10, 16):
        expected = [mu for mu in pt.partitions_of(n)
                    if sn.hook_dim(mu) <= c * Fraction(n) ** k
                    and mu[0] < n - k and len(mu) < n - k]
        assert bd.lemma_scan(c, k, n) == expected


@given(c=st.fractions(min_value="1/2", max_value=4, max_denominator=4),
       k=st.integers(0, 2), n=st.integers(1, 12))
@settings(max_examples=40)
def test_lemma_scan_filter_self_consistency(c, k, n):
    for mu in bd.lemma_scan(c, k, n):
        assert mu[0] < n - k and len(mu) < n - k
        assert sn.hook_dim(mu) <= c * Fraction(n) ** k


SCAN_BUDGETS = [(Fraction(c), k) for c in (1, 2, 10) for k in range(4)]


def test_lemma_scan_matches_the_per_partition_filter_on_every_default_budget():
    # the default budgets of `repst thresholds`; the range holds
    # self-conjugate hits such as (2, 2) and (3, 2, 1)
    seen = set()
    for n in range(1, 23):
        dims = {mu: sn.hook_dim(mu) for mu in pt.partitions_of(n)}
        for c, k in SCAN_BUDGETS:
            expected = [mu for mu, dim in dims.items()
                        if dim <= c * Fraction(n) ** k and mu[0] < n - k and len(mu) < n - k]
            assert bd.lemma_scan(c, k, n) == expected, (c, k, n)
            seen.update(expected)
    assert {(2, 2), (3, 2, 1)} <= seen


def test_sweeps_leave_the_partition_cache_empty():
    pt._partitions_of.cache_clear()
    bd.bound_sweep(30)
    bd.lemma_scan(Fraction(1), 1, 30)
    bd.find_threshold(Fraction(1), 1, 30)
    assert pt._partitions_of.cache_info().currsize == 0


def test_find_threshold():
    assert bd.find_threshold(Fraction(1), 0, 12) == (1, [])
    threshold, last = bd.find_threshold(Fraction(1), 1, 15)
    assert threshold is not None and threshold <= 15
    for n in range(threshold, 16):
        assert bd.lemma_scan(Fraction(1), 1, n) == []
    assert last == bd.lemma_scan(Fraction(1), 1, threshold - 1) != []
    assert (threshold, last) == (7, [(3, 3), (2, 2, 2)])


def test_find_threshold_none_when_last_point_fails():
    # pick a budget so generous that n_max itself has violations
    assert bd.find_threshold(Fraction(10 ** 6), 3, 8) == (None, [])


@pytest.mark.parametrize("n_max", [0, 10])
def test_find_threshold_rejects_a_float_budget_before_any_scan(n_max):
    with pytest.raises(TypeError):
        bd.find_threshold(0.5, 1, n_max)


@pytest.mark.parametrize("n_max", [0, -1])
def test_find_threshold_needs_a_positive_n_max(n_max):
    # no n is scanned, so None would wrongly say n_max has counterexamples
    with pytest.raises(sn.SizeMismatchError, match=rf"^n_max must be >= 1, got {n_max}$"):
        bd.find_threshold(Fraction(1), 1, n_max)
