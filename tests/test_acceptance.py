"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact (big-rational arithmetic, zero tolerance).  Stated
runtime budgets are enforced with perf_counter.  Run as

    pytest tests/test_acceptance.py -v

(the summary lines print through pytest's capture either way).
"""

import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from repst import (
    bounds as bd,
    deligne as dl,
    groupalg as ga,
    partitions as pt,
    schurweyl as sw,
    snoracle as sn,
    verify,
)
from repst.exact import ExactPolynomial, T, binomial_poly


import conftest


def _emit(line: str) -> None:
    conftest.acceptance_lines.append(line)
    print(line, flush=True)  # also visible under pytest -s and direct runs


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(f"[criterion {number:2d}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        _emit(f"[criterion {number:2d}] FAIL {label} ({elapsed:.2f}s over {budget:.0f}s budget)")
        raise AssertionError(f"criterion {number} exceeded its runtime budget")
    _emit(f"[criterion {number:2d}] PASS {label} ({elapsed:.2f}s)")


def _validity_start(lam, rho=()):
    return max(sum(lam) + (lam[0] if lam else 0), sn.support(rho))


def test_criterion_01_closed_form_dimensions():
    with criterion(1, "closed-form dimensions for columns and rows, k <= 8", budget=1.0):
        for k in range(1, 9):
            assert dl.dimension_poly((1,) * k) == binomial_poly(-1, k)
            assert dl.dimension_poly((k,)) == binomial_poly(0, k) - binomial_poly(0, k - 1)


def test_criterion_02_dimension_oracle_sweep():
    with criterion(2, "dimension polynomials match hook-length dimensions, |lam| <= 6, n <= 20",
                   budget=1.0):
        for lam in pt.partitions_up_to(6):
            poly = dl.dimension_poly(lam)
            for n in range(_validity_start(lam), 21):
                assert poly(n) == sn.hook_dim(pt.pad(lam, n)), (lam, n)


def test_criterion_03_pieri_polynomial_identity():
    with criterion(3, "corner-move decomposition satisfies the dimension identity, |lam| <= 8",
                   budget=1.0):
        for lam in pt.partitions_up_to(8):
            lhs = (T - 1) * dl.dimension_poly(lam)
            rhs = ExactPolynomial()
            for mu, mult in dl.pieri(lam).items():
                rhs = rhs + dl.dimension_poly(mu).scale(mult)
            assert lhs == rhs, lam


def _central_element_oracle():
    """Each class-sum eigenvalue and character for |lam| <= 4, moved <= 5,
    against S_n at the deg + 1 ranks from its validity start that prove it:
    deg is the larger of the degrees compared and the degree in n of the
    S_n side, |lam| for the character and support(rho) for the class sum."""
    for lam in pt.partitions_up_to(4):
        for rho in pt.cycle_types_with_support_up_to(5):
            omega = dl.central_eigenvalue_poly(rho, lam)
            frob = dl.frobenius_coefficient(lam, rho)
            start = _validity_start(lam, rho)
            deg = max(sum(lam), sn.support(rho), omega.degree, frob.degree)
            for n in range(start, start + deg + 1):
                mu = pt.pad(lam, n)
                assert omega(n) == sn.central_eigenvalue(n, rho, mu), (lam, rho, n)
                assert frob(n) == sn.character(mu, rho), (lam, rho, n)


def test_criterion_04_central_element_oracle():
    with criterion(4, "class-sum eigenvalues and characters match S_n, |lam| <= 4, moved <= 5, "
                      "at the deg + 1 ranks that prove each", budget=2.0):
        _central_element_oracle()


def test_criterion_04_catches_a_class_sum_wrong_only_past_rank_10(monkeypatch):
    """A cubic that vanishes at n = 8, 9 and 10, the ranks a sweep capped at
    n = 10 compared, added to one class-sum eigenvalue: criterion 4 reaches
    past it, at n = 11."""
    original = dl.central_eigenvalue_poly
    cubic = ((T - 8) * (T - 9) * (T - 10)).scale(3)

    def mutated(rho, lam):
        poly = original(rho, lam)
        return poly + cubic if (rho, lam) == ((0, 1), (4,)) else poly
    monkeypatch.setattr(dl, "central_eigenvalue_poly", mutated)
    with pytest.raises(AssertionError, match=r"^\(\(4,\), \(0, 1\), 11\)"):
        _central_element_oracle()


def test_criterion_05_transposition_class_sum_is_jm():
    with criterion(5, "transposition class sum equals the content-shift eigenvalue, |lam| <= 8",
                   budget=1.0):
        for lam in pt.partitions_up_to(8):
            assert dl.central_eigenvalue_poly((1,), lam) == dl.jm_eigenvalue(lam), lam


def test_criterion_06_integer_valuedness_certificates():
    with criterion(6, "integrality certificates for dimensions, class sizes, eigenvalues"):
        for lam in pt.partitions_up_to(6):
            dl.certify_integer_valued(dl.dimension_poly(lam))
        for rho in pt.cycle_types_with_support_up_to(5):
            dl.certify_integer_valued(dl.class_size_poly(rho))
            for lam in pt.partitions_up_to(4):
                dl.certify_integer_valued(dl.central_eigenvalue_poly(rho, lam))


def test_criterion_07_tensor_power_hilbert_series():
    with criterion(7, "tensor-power Hilbert series: binomials, graded decomposition, first layer"):
        series = sw.tensor_power_hilbert(sw.UnitalHilbert((1, 1)), 10)
        for k in range(11):
            assert series[k] == binomial_poly(0, k), k
        for d in (1, 2, 3):
            assert sw.graded_decomposition_check(d, 6).passed, d
        for v in range(1, 6):
            h = sw.tensor_power_hilbert(sw.UnitalHilbert.ungraded(v - 1), 1)
            assert sw.degree_one_dimension(v) == h[0] + h[1], v


def test_criterion_08_group_algebra_hilbert_coefficients():
    with criterion(8, "filtered group-algebra coefficients: values, Gamma route, row sums"):
        for m in range(7):
            poly = ga.hilbert_coefficient(m)
            table = ga.elementary_symmetric_table(m, list(range(1, 13)))
            for n in range(14):
                assert poly(n) == table[max(n - 1, 0)][m], (m, n)
            assert ga.hilbert_coefficient_gamma(m) == poly, m
        for n in range(10):
            total = sum(ga.hilbert_coefficient(m)(n) for m in range(max(n, 1)))
            assert total == factorial(n), n


def test_criterion_09_verma_candidate_ranks():
    with criterion(9, "degeneration candidates are nonnegative integers with the right gaps"):
        for lam in [(), (1,), (2,), (2, 1), (3, 1, 1)]:
            weight = sw.VermaWeight(lam, len(lam) + 3)
            for t_max in (0, 4, 9):
                values = {t for t, _, _ in sw.verma_candidates(weight, t_max)}
                assert all(isinstance(t, int) and 0 <= t <= t_max for t in values)
        for lam, n_dim, gaps in [((), 2, set()), ((), 3, set()), ((), 5, set()), ((1,), 4, {1})]:
            weight = sw.VermaWeight(lam, n_dim)
            assert {t for t, _, _ in sw.verma_candidates(weight, 10)} == set(range(11)) - gaps


def test_criterion_10_appendix_dimension_bounds():
    with criterion(10, "dimension lower bound n <= 18, AM-GM n <= 12, scan window 10..15",
                   budget=1.0):
        for n in range(1, 19):
            report = bd.bound_sweep(n)
            assert report.passed, n
        assert bd.bound_sweep(18).partition_count == 385
        for n in range(1, 13):
            for mu in pt.partitions_of(n):
                assert bd.amgm_check(mu), mu
        for n in range(10, 16):
            assert bd.lemma_scan(Fraction(1), 1, n) == [], n


def test_criterion_11_mutation_sensitivity(monkeypatch):
    """A deliberately wrong content sign must be caught by the oracle sweep,
    with a failure at rank 5; this guards the checks against being vacuous."""
    with criterion(11, "flipped content sign is caught by the oracle sweep at n = 5"):
        original = pt.content_sum
        monkeypatch.setattr("repst.partitions.content_sum", lambda lam: -original(lam))
        mutated = dl.jm_eigenvalue((2,))
        assert mutated(5) != sn.central_eigenvalue(5, (1,), pt.pad((2,), 5))
        report = verify.oracle_suite(max_size=4, max_m=2)
        assert not report.passed
        assert any(f.check == "jm-oracle" and f.where["n"] == 5 for f in report.failures)
        monkeypatch.undo()
        assert dl.jm_eigenvalue((2,))(5) == sn.central_eigenvalue(5, (1,), pt.pad((2,), 5))


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
