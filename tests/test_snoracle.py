from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from repst import partitions as pt, snoracle as sn, verify
from conftest import cycle_type_strategy, partition_strategy


def test_hook_dim_known_values():
    assert sn.hook_dim(()) == 1
    assert sn.hook_dim((7,)) == 1
    assert sn.hook_dim((2, 1)) == 2
    assert sn.hook_dim((3, 2)) == 5
    assert sn.hook_dim((4, 3, 2, 1)) == 768


@given(n=st.integers(0, 12))
def test_hook_dim_squares_sum_to_factorial(n):
    assert sum(sn.hook_dim(mu) ** 2 for mu in pt.partitions_of(n)) == factorial(n)


@given(mu=partition_strategy(max_n=12))
def test_hook_dim_conjugation_invariant(mu):
    assert sn.hook_dim(mu) == sn.hook_dim(pt.conjugate(mu))


def test_hook_dim_is_conjugation_invariant_for_every_partition_through_16():
    # bounds.bound_sweep and bounds.lemma_scan compute hook_dim for one
    # partition of each conjugate pair and rest on this
    for n in range(17):
        for mu in pt.partitions_of(n):
            assert sn.hook_dim(mu) == sn.hook_dim(pt.conjugate(mu)), mu


def test_hook_dim_non_dividing_hook_product_is_a_typed_error(monkeypatch):
    # every factorial becomes 7: 7 * (3 - 1) is not divisible by 7 * 7.
    # hook_dim reads the character recursion's memo, which an earlier test
    # may have filled with (2, 1), so the patched formula runs on a cleared
    # memo, and no patched value outlives the test
    sn._mn_recurse.cache_clear()
    monkeypatch.setattr(sn, "factorial", lambda k: 7)
    try:
        with pytest.raises(pt.InvariantError, match="do not divide 3!"):
            sn.hook_dim((2, 1))
    finally:
        sn._mn_recurse.cache_clear()


def test_hook_dim_frobenius_formula_agrees_with_the_hook_length_formula():
    for n in range(21):
        for mu in pt.partitions_of(n):
            assert factorial(n) // pt.hook_product(mu) == sn.hook_dim(mu)


def test_the_oracle_suite_computes_each_dimension_once(monkeypatch):
    # hook_dim, character and central_eigenvalue share the memo of the
    # character recursion, whose leaves are the dimensions: over the oracle
    # suite's dim, jm, character and eigenvalue checks, Frobenius's formula
    # runs once per beta-set, whoever asks
    betas, eigenvalues = [], []
    dimension, central_eigenvalue = sn._dimension, sn.central_eigenvalue

    def count_dimension(beta):
        betas.append(beta)
        return dimension(beta)

    def record_eigenvalue(n, rho, mu):
        eigenvalues.append((n, rho, mu, central_eigenvalue(n, rho, mu)))
        return eigenvalues[-1][-1]

    monkeypatch.setattr(sn, "_dimension", count_dimension)
    monkeypatch.setattr(sn, "central_eigenvalue", record_eigenvalue)
    sn._mn_recurse.cache_clear()
    assert verify.oracle_suite().passed
    assert betas and len(betas) == len(set(betas))
    assert eigenvalues
    for n, rho, mu, value in eigenvalues:
        assert value == Fraction(sn.class_size(n, rho) * sn.character(mu, rho), sn.hook_dim(mu))


def test_class_size_non_dividing_centralizer_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(sn, "factorial", lambda c: 7)
    with pytest.raises(pt.InvariantError, match="centralizer order 14 does not divide 20"):
        sn.class_size(5, (1,))


def test_cycle_type_parsing_and_support():
    assert pt.parse_cycle_type("") == ()
    assert pt.parse_cycle_type("1,0,2") == (1, 0, 2)
    assert pt.support((1, 0, 2)) == 2 + 8
    assert pt.check_cycle_type((1, 0)) == (1,)
    assert sn.cycle_lengths((1, 1)) == (3, 2)


def test_character_known_values():
    assert sn.character((5,), (1, 1)) == 1
    assert sn.character((2, 1), (0, 1)) == -1
    assert sn.character((4, 1), (1,)) == 2
    with pytest.raises(sn.SizeMismatchError):
        sn.character((1,), (1,))


S3_TABLE = {
    (3,): {(): 1, (1,): 1, (0, 1): 1},
    (2, 1): {(): 2, (1,): 0, (0, 1): -1},
    (1, 1, 1): {(): 1, (1,): -1, (0, 1): 1},
}

S4_TABLE = {
    (4,): {(): 1, (1,): 1, (2,): 1, (0, 1): 1, (0, 0, 1): 1},
    (3, 1): {(): 3, (1,): 1, (2,): -1, (0, 1): 0, (0, 0, 1): -1},
    (2, 2): {(): 2, (1,): 0, (2,): 2, (0, 1): -1, (0, 0, 1): 0},
    (2, 1, 1): {(): 3, (1,): -1, (2,): -1, (0, 1): 0, (0, 0, 1): 1},
    (1, 1, 1, 1): {(): 1, (1,): -1, (2,): 1, (0, 1): 1, (0, 0, 1): -1},
}


@pytest.mark.parametrize("table", [S3_TABLE, S4_TABLE])
def test_character_tables(table):
    for mu, row in table.items():
        for rho, value in row.items():
            assert sn.character(mu, rho) == value, (mu, rho)


@pytest.mark.parametrize("n", range(1, 13))
def test_n_cycle_characters_follow_the_hook_rule(n):
    # one strip of length n removes the whole diagram, crossing every
    # beta-number: (-1)^k on the hook (n-k, 1^k), 0 off the hooks
    n_cycle = pt.cycle_type_of_partition((n,))
    for mu in pt.partitions_of(n):
        k = len(mu) - 1
        expected = (-1) ** k if mu[1:] == (1,) * k else 0
        assert sn.character(mu, n_cycle) == expected, mu


@given(mu=partition_strategy(max_n=8, min_n=2))
def test_standard_representation_character(mu):
    # on (n-1,1), the character is (number of fixed points) - 1
    n = sum(mu)
    rho = pt.cycle_type_of_partition(mu)
    assert sn.character((n - 1, 1), rho) == (n - sn.support(rho)) - 1


@given(mu=partition_strategy(max_n=9, min_n=1))
def test_sign_representation_character(mu):
    n = sum(mu)
    rho = pt.cycle_type_of_partition(mu)
    parity = sum((i + 1) * c for i, c in enumerate(rho))
    assert sn.character((1,) * n, rho) == (-1) ** parity


@given(mu=partition_strategy(max_n=8, min_n=1), rho=cycle_type_strategy(max_support=6))
def test_character_conjugate_twists_by_sign(mu, rho):
    if sum(mu) < sn.support(rho):
        return
    parity = sum((i + 1) * c for i, c in enumerate(rho))
    assert sn.character(pt.conjugate(mu), rho) == (-1) ** parity * sn.character(mu, rho)


def _brute_class_size(n, rho):
    target = tuple(sorted(sn.cycle_lengths(rho)))
    count = 0
    for perm in permutations(range(n)):
        seen = [False] * n
        lengths = []
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length > 1:
                lengths.append(length)
        if tuple(sorted(lengths)) == target:
            count += 1
    return count


@given(n=st.integers(1, 6), rho=cycle_type_strategy(max_support=6))
def test_class_size_matches_permutation_enumeration(n, rho):
    if sn.support(rho) > n:
        return
    assert sn.class_size(n, rho) == _brute_class_size(n, rho)


def test_class_size_known_values():
    assert sn.class_size(4, (1,)) == 6
    assert sn.class_size(9, ()) == 1
    assert sn.class_size(5, (0, 1)) == 20
    with pytest.raises(sn.SizeMismatchError):
        sn.class_size(2, (0, 1))


@given(n=st.integers(1, 10))
def test_class_sizes_sum_to_factorial(n):
    total = sum(sn.class_size(n, pt.cycle_type_of_partition(shape))
                for shape in pt.partitions_of(n))
    assert total == factorial(n)


@given(n=st.integers(1, 8))
def test_column_orthogonality(n):
    types = [pt.cycle_type_of_partition(shape) for shape in pt.partitions_of(n)]
    mus = pt.partitions_of(n)
    for mu in mus:
        for nu in mus:
            total = sum(sn.class_size(n, rho) * sn.character(mu, rho) * sn.character(nu, rho)
                        for rho in types)
            assert total == (factorial(n) if mu == nu else 0)


def test_central_eigenvalue_known_values():
    assert sn.central_eigenvalue(6, (1,), (6,)) == 15  # class size on the trivial rep
    assert sn.central_eigenvalue(5, (1,), (4, 1)) == 5
    assert sn.central_eigenvalue(3, (1,), (1, 1, 1)) == -3
    # class of 3-cycles in S_5 (20 elements) on the standard rep: 20 * 1 / 4
    assert sn.central_eigenvalue(5, (0, 1), (4, 1)) == Fraction(5)
    with pytest.raises(sn.SizeMismatchError):
        sn.central_eigenvalue(4, (), (2, 1))


def test_cycle_types_with_support_up_to():
    assert pt.cycle_types_with_support_up_to(0) == [()]
    assert set(pt.cycle_types_with_support_up_to(5)) == {
        (), (1,), (0, 1), (2,), (0, 0, 1), (1, 1), (0, 0, 0, 1)}


@pytest.mark.parametrize("m", range(9))
def test_cycle_types_with_support_up_to_are_the_partitions_without_fixed_points(m):
    # types moving exactly k points <-> partitions of k with no part 1,
    # counted by p(k) - p(k - 1)
    p = [len(pt.partitions_of(k)) for k in range(m + 1)]
    types = pt.cycle_types_with_support_up_to(m)
    assert len(types) == sum(p[k] - (p[k - 1] if k else 0) for k in range(m + 1))
    assert len(set(types)) == len(types)
    assert types == sorted(types, key=lambda r: (pt.support(r), r))


def test_cycle_types_with_support_up_to_six_is_pinned():
    assert pt.cycle_types_with_support_up_to(6) == [
        (), (1,), (0, 1), (0, 0, 1), (2,), (0, 0, 0, 1), (1, 1),
        (0, 0, 0, 0, 1), (0, 2), (1, 0, 1), (3,)]
