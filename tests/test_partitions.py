from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repst import bounds as bd, deligne as dl, groupalg as ga, partitions as pt, schurweyl as sw, verify
from conftest import partition_strategy


def test_conjugate_known_values():
    assert pt.conjugate(()) == ()
    assert pt.conjugate((2, 1)) == (2, 1)
    assert pt.conjugate((3, 1)) == (2, 1, 1)


@given(lam=partition_strategy(max_n=12))
def test_conjugate_involution(lam):
    assert pt.conjugate(pt.conjugate(lam)) == lam


def test_conjugate_matches_definition_through_size_15():
    for lam in pt.partitions_up_to(15):
        columns = tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))
        assert pt.conjugate(lam) == columns
        assert pt.conjugate(columns) == lam


def test_hook_product_matches_cell_hooks_through_size_12():
    for lam in pt.partitions_up_to(12):
        expected = 1
        for i, row in enumerate(lam):
            for j in range(row):
                arm = row - j - 1
                leg = sum(1 for below in lam[i + 1:] if below > j)
                expected *= arm + leg + 1
        assert pt.hook_product(lam) == expected


@given(lam=partition_strategy(max_n=12))
def test_hook_product_invariant_under_conjugation(lam):
    assert pt.hook_product(lam) == pt.hook_product(pt.conjugate(lam))


def test_hook_product_known_values():
    assert pt.hook_product((1,)) == 1
    assert pt.hook_product((2, 1)) == 3
    assert pt.hook_product((3, 2)) == 24


def test_content_sum():
    assert pt.content_sum(()) == 0
    assert pt.content_sum((1,)) == 0
    assert pt.content_sum((2,)) == 1
    assert pt.content_sum((1, 1)) == -1


@given(lam=partition_strategy(max_n=12))
def test_content_negates_under_conjugation(lam):
    assert pt.content_sum(pt.conjugate(lam)) == -pt.content_sum(lam)


def _brute_corner_moves(lam):
    """Independent route: manipulate diagrams as cell sets.  The multiset
    of every addable cell added, every removable cell removed, and every
    (removable r, then a) pair, a = r included."""
    cells = {(i, j) for i, row in enumerate(lam, 1) for j in range(1, row + 1)}

    def is_diagram(cs):
        return all((i - 1, j) in cs or i == 1 for (i, j) in cs) and \
               all((i, j - 1) in cs or j == 1 for (i, j) in cs)

    def to_partition(cs):
        rows = {}
        for i, _ in cs:
            rows[i] = rows.get(i, 0) + 1
        return tuple(sorted(rows.values(), reverse=True))

    n = sum(lam)
    universe = {(i, j) for i in range(1, n + 3) for j in range(1, n + 3)}
    addable = [c for c in universe - cells if is_diagram(cells | {c})]
    removable = [c for c in cells if is_diagram(cells - {c})]
    added = [to_partition(cells | {c}) for c in addable]
    removed = [to_partition(cells - {c}) for c in removable]
    moved = [to_partition((cells - {r}) | {a}) for r in removable
             for a in universe - (cells - {r}) if is_diagram((cells - {r}) | {a})]
    return Counter(added + removed + moved)


def test_corner_moves_known_values():
    assert pt.corner_moves(()) == [(1,)]
    assert Counter(pt.corner_moves((1,))) == {(2,): 1, (1, 1): 1, (): 1, (1,): 1}
    assert Counter(pt.corner_moves((2, 1))) == {
        (3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (2,): 1, (1, 1): 1,
        (3,): 1, (1, 1, 1): 1, (2, 1): 2}
    assert pt.corner_moves((2, 1)).count((2, 1)) == 2
    assert pt.corner_moves((2, 1)) == pt.corner_moves((2, 1))
    assert Counter(pt.corner_moves((2, 1))) != Counter(pt.corner_moves((1, 1)))


@given(lam=partition_strategy(max_n=8))
def test_corner_moves_match_cell_level_enumeration(lam):
    moves = Counter(pt.corner_moves(lam))
    assert moves == _brute_corner_moves(lam)
    # a moved mu != lam comes from one (removed, added) cell pair only
    assert all(mult == 1 for mu, mult in moves.items() if mu != lam)


@given(lam=partition_strategy(max_n=8), mu=partition_strategy(max_n=8))
def test_corner_moves_symmetry(lam, mu):
    """mu is added to lam as often as lam is removed from mu, and moved
    from lam as often as lam from mu."""
    assert pt.corner_moves(lam).count(mu) == pt.corner_moves(mu).count(lam)


def test_pad():
    assert pt.pad((), 5) == (5,)
    assert pt.pad((1,), 4) == (3, 1)
    assert pt.pad((2,), 4) == (2, 2)
    with pytest.raises(pt.SizeMismatchError, match=r"^n must be >= 5, got 4$"):
        pt.pad((2, 1), 4)


def test_pad_fails_exactly_below_the_validity_start():
    for lam in pt.partitions_up_to(6):
        for n in range(21):
            if n < pt.validity_start(lam):
                with pytest.raises(pt.SizeMismatchError, match=rf"^n must be >= {pt.validity_start(lam)}, got {n}$"):
                    pt.pad(lam, n)
            else:
                assert sum(pt.pad(lam, n)) == n and pt.pad(lam, n)[1:] == lam


def test_validity_start_leaves_room_for_the_cycles():
    for lam in pt.partitions_up_to(6):
        for rho in pt.cycle_types_with_support_up_to(6):
            start = pt.validity_start(lam, rho)
            assert start >= pt.support(rho) and start >= pt.validity_start(lam)


def test_b_set_known_values():
    assert pt.b_set(()) == frozenset()
    assert pt.b_set((1,)) == {1}
    assert pt.b_set((2,)) == {0, 3}
    assert pt.b_set((1, 1)) == {1, 2}


@given(lam=partition_strategy(max_n=10))
def test_b_set_size(lam):
    assert len(pt.b_set(lam)) == sum(lam)


def test_b_set_closed_form():
    # the beta-numbers lam_i + |lam| - i are the first |lam| nonnegative
    # integers missing from the increasing sequence |lam| - 1 + k - lam*_k
    for lam in pt.partitions_up_to(16):
        n = sum(lam)
        conj = pt.conjugate(lam)
        span = n + (lam[0] if lam else 0) + 1
        excluded = {n - 1 + k - (conj[k - 1] if k <= len(conj) else 0)
                    for k in range(1, span + 1)}
        complement = [x for x in range(span) if x not in excluded][:n]
        assert pt.b_set(lam) == frozenset(complement), lam


def test_partition_enumeration_counts():
    assert pt.partitions_of(0) == ((),)
    assert len(pt.partitions_of(4)) == 5
    assert len(pt.partitions_of(10)) == 42
    assert len(set(pt.partitions_of(10))) == 42
    assert all(sum(lam) == 10 for lam in pt.partitions_of(10))


def _partition_numbers(n_max):
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    p = [1]
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for pentagonal in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pentagonal <= n:
                    total += sign * p[n - pentagonal]
            k += 1
        p.append(total)
    return p


def test_partitions_of_is_every_partition_once_in_descending_order():
    counts = _partition_numbers(40)
    for n in range(41):
        mus = pt.partitions_of(n)
        assert len(mus) == counts[n]
        assert all(a > b for a, b in zip(mus, mus[1:]))
        for mu in mus:
            assert sum(mu) == n and all(part > 0 for part in mu)
            assert all(a >= b for a, b in zip(mu, mu[1:]))


def test_partition_enumeration_limit(monkeypatch):
    monkeypatch.delenv("REPST_LIMITS", raising=False)
    with pytest.raises(pt.LimitExceededError):
        pt.partitions_of(pt.enumeration_limit() + 1)
    monkeypatch.setenv("REPST_LIMITS", "45")
    assert pt.enumeration_limit() == 45


@pytest.mark.parametrize("raw", ["abc", "39"])
def test_malformed_enumeration_limit_is_rejected(monkeypatch, raw):
    monkeypatch.setenv("REPST_LIMITS", raw)
    with pytest.raises(pt.BadLimitError, match="REPST_LIMITS"):
        pt.enumeration_limit()
    with pytest.raises(pt.BadLimitError):
        pt.partitions_of(3)


def test_parse_and_format_partition():
    assert pt.parse_partition("") == ()
    assert pt.parse_partition("2,1") == (2, 1)
    assert pt.format_partition((2, 1)) == "2,1"
    assert pt.format_partition(()) == ""
    with pytest.raises(ValueError):
        pt.parse_partition("1,2")
    with pytest.raises(ValueError):
        pt.parse_partition("0")


def test_parsed_sizes_are_held_to_the_enumeration_cap(monkeypatch):
    monkeypatch.delenv("REPST_LIMITS", raising=False)
    assert pt.parse_partition("40") == (40,)
    assert pt.parse_cycle_type("20") == (20,)
    with pytest.raises(pt.LimitExceededError, match=r"^\|lambda\|=41 exceeds"):
        pt.parse_partition("21,20")
    with pytest.raises(pt.LimitExceededError, match=r"^support\(rho\)=42 exceeds"):
        pt.parse_cycle_type("0,14")
    monkeypatch.setenv("REPST_LIMITS", "42")
    assert pt.parse_partition("21,20") == (21, 20)
    assert pt.parse_cycle_type("0,14") == (0, 14)


# every entry point the enumeration cap governs: a call with the size, the
# size's name and floor, and the module and name of the function doing the work
_GOVERNED = {
    "bound_sweep": (bd.bound_sweep, "n", 1, bd, "_wide_hook_products"),
    "lemma_scan": (lambda n: bd.lemma_scan(Fraction(1), 1, n), "n", 1, bd, "_wide_hook_products"),
    "find_threshold": (lambda n: bd.find_threshold(Fraction(1), 1, n), "n_max", 1, bd, "lemma_scan"),
    "bounds_suite": (lambda n: verify.bounds_suite(max_n=n), "max_n", 1, bd, "bound_sweep"),
    "stirling_suite": (lambda m: verify.stirling_suite(max_m=m), "max_m", 0, ga, "elementary_symmetric_table"),
    "hilbert_coefficient": (ga.hilbert_coefficient, "m", 0, ga, "elementary_symmetric_table"),
    "hilbert_coefficient_gamma": (ga.hilbert_coefficient_gamma, "m", 0, ga, "bernoulli_poly"),
    "partitions_up_to": (pt.partitions_up_to, "n", 0, pt, "_partitions_of"),
    "pieri_suite": (lambda n: verify.pieri_suite(max_size=n), "max_size", 0, verify, "partitions_up_to"),
    "graded_suite": (lambda d: verify.graded_suite(degree=d), "degree", 0, sw, "tensor_power_hilbert"),
    **{f"oracle_suite:{key}": (lambda v, key=key: verify.oracle_suite(**{key: v}), key, 0, dl, "dimension_poly")
       for key in ("max_size", "max_m")},
}

# every floor with no cap above it: a call with the size, its name and its floor
_FLOORED = {
    "pad": (lambda n: pt.pad((2, 1), n), "n", 5),
    "VermaWeight": (lambda n: sw.VermaWeight((), n), "space_dim", 1),
    "degree_one_dimension": (sw.degree_one_dimension, "v", 1),
    "frobenius_coefficient": (lambda v: dl.frobenius_coefficient((2, 1), (1,), variables=v), "variables", 2),
    "dimension_lower_bound": (lambda n: bd.dimension_lower_bound(n, (1,) * n), "n", 1),
}


@pytest.mark.parametrize("side", ["below-floor", "above-cap"])
@pytest.mark.parametrize("entry", sorted(_GOVERNED))
def test_every_governed_size_is_checked_by_the_one_rule_before_any_work(monkeypatch, entry, side):
    call, name, least, module, worker = _GOVERNED[entry]

    def work(*args, **kwargs):
        raise AssertionError(f"{entry} started work before checking {name}")

    monkeypatch.setattr(module, worker, work)
    monkeypatch.delenv("REPST_LIMITS", raising=False)
    if side == "below-floor":
        floor = "nonnegative" if least == 0 else f">= {least}"
        with pytest.raises(pt.SizeMismatchError, match=rf"^{name} must be {floor}, got {least - 1}$"):
            call(least - 1)
    else:
        cap = pt.enumeration_limit()
        with pytest.raises(pt.LimitExceededError, match=rf"^{name}={cap + 1} exceeds the enumeration cap"):
            call(cap + 1)


@pytest.mark.parametrize("entry", sorted(_FLOORED))
def test_every_uncapped_floor_goes_through_the_one_rule(entry):
    call, name, least = _FLOORED[entry]
    with pytest.raises(pt.SizeMismatchError, match=rf"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)
    call(least)


def test_the_uncapped_floors_take_sizes_far_past_the_enumeration_cap(monkeypatch):
    monkeypatch.delenv("REPST_LIMITS", raising=False)
    huge = 10**9
    assert sw.VermaWeight((1,), huge).space_dim == huge
    assert pt.pad((2, 1), huge) == (huge - 3, 2, 1)
    assert sw.degree_one_dimension(huge)(1) == huge


@given(lam=partition_strategy(max_n=12))
def test_partition_string_roundtrip(lam):
    assert pt.parse_partition(pt.format_partition(lam)) == lam
