from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

import hypothesis
from hypothesis import strategies as st

from repst.exact import BinomialBasisPolynomial, ExactPolynomial

hypothesis.settings.register_profile("default", max_examples=50, deadline=None)
hypothesis.settings.load_profile("default")

# one line per acceptance criterion, shown in the terminal summary of every
# run (tests/test_acceptance.py fills this in)
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def poly_from_json(data: Mapping):
    """The polynomial that `repst ... --json` wrote in the wire format."""
    coeffs = [Fraction(int(num), int(den)) for num, den in data["coeffs"]]
    basis = data["basis"]
    if basis == "monomial":
        return ExactPolynomial(coeffs)
    if basis == "binomial":
        return BinomialBasisPolynomial(coeffs)
    raise ValueError(f"unknown basis {basis!r}")


@st.composite
def partition_strategy(draw, max_n=10, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    counts = Counter(bins)
    return tuple(sorted(counts.values(), reverse=True))


@st.composite
def cycle_type_strategy(draw, max_support=6):
    counts = []
    budget = draw(st.integers(min_value=0, max_value=max_support))
    length = 2
    while budget >= length:
        c = draw(st.integers(min_value=0, max_value=budget // length))
        counts.append(c)
        budget -= c * length
        length += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)
