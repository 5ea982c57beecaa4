"""Exact rational arithmetic: polynomials in one variable t and truncated
multivariate power series whose coefficients are such polynomials.

Every coefficient is an exact rational (`int` or `fractions.Fraction`); no
floating point appears anywhere.  `ratio` alone decides what such a scalar
is, and `_as_poly` alone lifts one into a constant polynomial.  All
identities verified elsewhere in the package are therefore exact
statements about rational numbers, and a mismatch is a bug, never roundoff.

Representations:

  ExactPolynomial          dense tuple of int numerators over one positive
                           int denominator, index = power of t; kept in
                           lowest terms, so products and sums are integer
                           convolutions with one gcd per result
  BinomialBasisPolynomial  the same storage, index j = numerator of the
                           coefficient of binom(t, j); denominator 1
                           certifies an integer-valued polynomial
  TruncatedSeries          sparse dict mapping exponent tuples to nonzero
                           ExactPolynomial, truncated per variable; the
                           operands of one operation share their bounds;
                           it serves the Frobenius kernel and
                           schurweyl.tensor_power_hilbert only

Newton's forward-difference formula links the values at t = 0..N and the
binom(t, j) coefficients.  Both directions run in ints over one
denominator: to_binomial_basis takes the forward differences of p's integer
numerators at t = 0..deg p, lagrange_interpolate those of the values put
over their common denominator, and to_monomial sums c_j t(t-1)...(t-j+1)/j!
over den * N!, each reduced once.  Fractions appear only when coefficients
are read out.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add, index, le, sub
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class NonDivisibleError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class BadConstantTermError(ValueError):
    """Series operation applied to a series with the wrong constant term."""


class OutOfBoundsError(LookupError):
    """Requested a series coefficient beyond the truncation bounds."""


class NotIntegerValuedError(ValueError):
    """Polynomial is not integer-valued; carries the first bad coefficient."""

    def __init__(self, index: int, value: Fraction):
        super().__init__(f"coefficient of binom(t,{index}) is {value}, not an integer")
        self.index = index
        self.value = value


class _CommonDenominator:
    """Rational coefficients stored as int numerators `nums` over one
    positive int denominator `den`, in canonical form: gcd(den, *nums) == 1,
    no trailing zero numerators, and the zero sequence is ((), 1).  Equal
    coefficient sequences therefore have equal (nums, den).  Immutable."""

    __slots__ = ("nums", "den")

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        return _make(*_common_denominator(coeffs), cls)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)


class ExactPolynomial(_CommonDenominator):
    """Univariate polynomial in t with rational coefficients, nums[k] / den
    the coefficient of t^k, in the canonical form of _CommonDenominator."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.nums) - 1

    def __call__(self, value: Scalar) -> Fraction:
        p, q = ratio(value)
        nums = self.nums
        if not nums:
            return Fraction(0)
        # Horner on p/q with q^k cleared: acc = sum_k nums[k] p^k q^(deg-k)
        acc, qk = nums[-1], 1
        for c in reversed(nums[:-1]):
            qk *= q
            acc = acc * p + c * qk
        return Fraction(acc, self.den * qk)

    def _coerce(self, other) -> "ExactPolynomial":
        """other itself (inline, the common case), the lift of a scalar, or NotImplemented."""
        if isinstance(other, ExactPolynomial):
            return other
        try:
            return _as_poly(other)
        except TypeError:
            return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.nums, other.nums
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        if da != db:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            a = [x * sa for x in a]
            b = [y * sb for y in b]
            da *= sa
        if len(a) < len(b):
            a, b = b, a
        out = list(map(add, a, b))
        out.extend(a[len(b):])
        return _make(out, da)

    __radd__ = __add__

    def __neg__(self):
        return _make([-c for c in self.nums], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.nums, other.nums
        if not a or not b:
            return ZERO
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                for j, x in enumerate(a, i):
                    out[j] += x * y
        return _make(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, ONE, "polynomial")

    def exact_div(self, other: "ExactPolynomial | Scalar") -> "ExactPolynomial":
        """Divide exactly, raising NonDivisibleError on a nonzero remainder."""
        divisor = _as_poly(other)
        b, db = divisor.nums, divisor.den
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        if b[-1] < 0:
            b, db = [-y for y in b], -db
        rem, lead = list(self.nums), b[-1]
        quot = [0] * max(len(rem) - len(b) + 1, 0)
        # pseudo-division: s * self.nums == quot * b + rem, with s a power of lead
        s = 1
        for i in reversed(range(len(quot))):
            c = rem[i + len(b) - 1]
            if c % lead:
                rem = [x * lead for x in rem]
                quot = [x * lead for x in quot]
                s *= lead
                c *= lead
            quot[i] = c = c // lead
            if c:
                for j, y in enumerate(b, i):
                    rem[j] -= c * y
        if any(rem):
            raise NonDivisibleError(f"{self} is not divisible by {divisor}")
        return _make([q * db for q in quot], s * self.den)

    def scale(self, c: Scalar) -> "ExactPolynomial":
        p, q = ratio(c)
        return _make([a * p for a in self.nums], self.den * q)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        # a constant equals its scalar value, so it must hash like it
        if len(self.nums) > 1:
            return hash((self.nums, self.den))
        return hash(Fraction(sum(self.nums), self.den))

    def __repr__(self):
        return f"ExactPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        return format_terms(self.coeffs, lambda k: "" if k == 0 else ("t" if k == 1 else f"t^{k}"))


_set_nums = _CommonDenominator.nums.__set__
_set_den = _CommonDenominator.den.__set__


def _make(nums: list[int], den: int, cls=ExactPolynomial):
    """The cls (ExactPolynomial unless named) with coefficients nums[k]/den for
    a positive den, in canonical form; nums must be a fresh list, which this
    may modify."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        den = 1
    elif den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    p = object.__new__(cls)
    _set_nums(p, tuple(nums))
    _set_den(p, den)
    return p


def _common_denominator(scalars: Iterable[Scalar]) -> tuple[list[int], int]:
    """The scalars as int numerators over their least common denominator."""
    pairs = [ratio(c) for c in scalars]
    den = lcm(*[q for _, q in pairs])
    return [p * (den // q) for p, q in pairs], den


def ratio(c: Scalar) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction; anything else is a TypeError."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected int or Fraction, not {type(c).__name__}")
    return c.numerator, c.denominator


def _as_poly(value) -> ExactPolynomial:
    """value itself, or the constant of a scalar that ratio accepts: the one lift."""
    if isinstance(value, ExactPolynomial):
        return value
    p, q = ratio(value)
    return _make([p], q)


def _power(base, n: int, one, kind: str):
    """base**n, right-to-left binary (Knuth, TAOCP vol. 2, 4.6.3, Algorithm A):
    it starts from base, not one * base, and squares no further than n's top bit."""
    if n < 0:
        raise ValueError(f"negative {kind} power")
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return one if result is None else result
        base = base * base


T = ExactPolynomial((0, 1))
ONE = ExactPolynomial((1,))
ZERO = ExactPolynomial()


def format_terms(coeffs: Sequence[Fraction], basis_name) -> str:
    """Render a coefficient sequence against a named basis, high index first."""
    if not any(coeffs):
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        name = basis_name(k)
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if name == "":
            body = str(mag)
        elif mag == 1:
            body = name
        else:
            body = f"{mag}*{name}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def linear_product(roots: Iterable[int], den: int = 1) -> ExactPolynomial:
    """prod (t - r) over the integer roots, divided by the positive int den;
    the numerator is expanded in place in integers and reduced once."""
    if index(den) < 1:
        raise ValueError(f"den must be positive, got {den}")
    nums = [1]
    for r in map(index, roots):
        nums.insert(0, 0)  # times (t - r): c_k <- c_{k-1} - r * c_k
        for k in range(len(nums) - 1):
            nums[k] -= r * nums[k + 1]
    return _make(nums, den)


def binomial_poly(shift: int, k: int) -> ExactPolynomial:
    """The polynomial binom(t + shift, k) = prod_{j<k} (t + shift - j) / k!."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return linear_product(range(-shift, k - shift), factorial(k))


def falling_factorial_poly(m: int) -> ExactPolynomial:
    """t (t-1) ... (t-m+1)."""
    return linear_product(range(m))


class BinomialBasisPolynomial(_CommonDenominator):
    """A polynomial written as sum_j c_j * binom(t, j), with c_j = nums[j] / den
    in the canonical form of _CommonDenominator, as ExactPolynomial is stored.

    So den == 1 exactly when every c_j is an integer, which certifies that the
    polynomial takes integer values at every integer.  Otherwise the first j
    with nums[j] % den != 0 witnesses the opposite: the value at t = j is not
    an integer, given that the values at 0..j-1 are.
    """

    __slots__ = ()

    def to_monomial(self) -> ExactPolynomial:
        """sum_j c_j t(t-1)...(t-j+1)/j! in ints over den * D!, D the top
        index: Horner's rule in the factors t - j, with the numerator of c_j
        scaled by D!/j!, and one reduction at the end."""
        nums = self.nums
        if not nums:
            return ZERO
        acc, weight = [nums[-1]], 1  # weight = D!/j!
        for j in range(len(nums) - 2, -1, -1):
            weight *= j + 1
            acc.insert(0, 0)  # times (t - j), as in linear_product
            for k in range(len(acc) - 1):
                acc[k] -= j * acc[k + 1]
            acc[0] += nums[j] * weight
        return _make(acc, self.den * weight)

    def __eq__(self, other):
        if not isinstance(other, BinomialBasisPolynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash(("binomial", self.nums, self.den))

    def __repr__(self):
        return f"BinomialBasisPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        return format_terms(self.coeffs, lambda k: "" if k == 0 else f"binom(t,{k})")


def _forward_differences(values: list[int]) -> list[int]:
    """[v_0, dv_0, d^2 v_0, ...] for values v_n at t = n = 0, 1, ..., d the
    forward difference: by Newton's formula, the coefficients over binom(t, j)
    of the polynomial through them.  Works in place on the fresh list."""
    diffs = values
    for j in range(1, len(diffs)):
        # diffs[i] = d^(j-1) v_(i-j+1) becomes d^j v_(i-j), for i >= j
        for i in range(len(diffs) - 1, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    return diffs


def to_binomial_basis(p: ExactPolynomial) -> BinomialBasisPolynomial:
    """Expand p over binom(t, j): the forward differences of its values at
    t = 0..deg p, taken on the numerators (integer Horner) over p.den.
    Exact, and inverse to BinomialBasisPolynomial.to_monomial."""
    nums = p.nums
    values = []
    for n in range(len(nums)):
        value = 0
        for c in reversed(nums):
            value = value * n + c
        values.append(value)
    return _make(_forward_differences(values), p.den, BinomialBasisPolynomial)


def lagrange_interpolate(values: Sequence[Scalar]) -> ExactPolynomial:
    """The unique polynomial of degree < len(values) that takes values[n] at
    t = n for n = 0, 1, ...: the inverse of reading p off at t = 0..deg p,
    through the same forward differences as to_binomial_basis, taken on the
    values' numerators over their common denominator."""
    nums, den = _common_denominator(values)
    return _make(_forward_differences(nums), den, BinomialBasisPolynomial).to_monomial()


# --- Truncated multivariate power series ------------------------------------


class TruncatedSeries:
    """Formal power series in several commuting variables, truncated so the
    exponent of variable i never exceeds bounds[i].

    The constructor takes `terms` as a dict from exponent tuples to
    coefficients (int, Fraction or ExactPolynomial in t), each kept as an
    ExactPolynomial.  Exponents outside the bounds are silently dropped on
    construction and during arithmetic (that is what truncation means);
    *querying* such a coefficient raises OutOfBoundsError because the stored
    data says nothing about it.

    Operands of +, * and convolve_coefficient must have equal bounds (else
    ValueError).  Only the constructor validates; operators build via _series.
    A product passes each partner of a unit coefficient of its smaller
    factor through as it is, with no polynomial product: every coefficient
    of the u = p_1 that pow_poly multiplies by is 1.

    exp and pow_poly both sum a power series in u one full power of u at a
    time (_power_sum), which keeps the sparse (1 + p_1)^(t - m) of deligne's
    Frobenius kernel on its small support.
    """

    __slots__ = ("bounds", "terms")

    def __new__(cls, bounds: Sequence[int], terms: Mapping[tuple[int, ...], object] = {}):
        bounds = tuple(map(index, bounds))
        if any(b < 0 for b in bounds):
            raise ValueError("truncation bounds must be nonnegative")
        clean: dict[tuple[int, ...], ExactPolynomial] = {}
        for exp, coeff in terms.items():
            exp = tuple(map(index, exp))
            if len(exp) != len(bounds):
                raise ValueError("exponent length does not match variable count")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent in truncated series")
            poly = _as_poly(coeff)
            if all(map(le, exp, bounds)):
                clean[exp] = poly
        return _series(bounds, clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def _index(self, exponent: Sequence[int]) -> tuple[int, ...]:
        """exponent as a key of terms; OutOfBoundsError where bounds say nothing."""
        exp = tuple(map(index, exponent))
        if len(exp) != len(self.bounds):
            raise OutOfBoundsError(f"exponent {exp} has wrong arity for bounds {self.bounds}")
        if any(e < 0 or e > b for e, b in zip(exp, self.bounds)):
            raise OutOfBoundsError(f"exponent {exp} outside truncation bounds {self.bounds}")
        return exp

    def coefficient(self, exponent: Sequence[int]) -> ExactPolynomial:
        return self.terms.get(self._index(exponent), ZERO)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        bounds = _same_bounds(self, other)
        merged = dict(self.terms)
        for exp, coeff in other.terms.items():
            prev = merged.get(exp)
            merged[exp] = coeff if prev is None else prev + coeff
        return _series(bounds, merged)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        bounds = _same_bounds(self, other)
        out: dict[tuple[int, ...], ExactPolynomial] = {}
        small, large = (self.terms, other.terms)
        if len(small) > len(large):
            small, large = large, small
        for ea, ca in small.items():
            room = tuple(map(sub, bounds, ea))
            unit = ca == ONE
            for eb, cb in large.items():
                if all(map(le, eb, room)):
                    exp = tuple(map(add, ea, eb))
                    prod = cb if unit else ca * cb
                    prev = out.get(exp)
                    out[exp] = prod if prev is None else prev + prod
        return _series(bounds, out)

    def __pow__(self, n: int) -> "TruncatedSeries":
        return _power(self, n, _series(self.bounds, {(0,) * len(self.bounds): ONE}), "series")

    def exp(self) -> "TruncatedSeries":
        """exp f for a series f with constant term 0: the Taylor series
        sum_k f^k / k!, which truncation cuts off at k = sum(bounds)."""
        if (0,) * len(self.bounds) in self.terms:
            raise BadConstantTermError("exp requires constant term 0")
        return _power_sum(self, lambda c, k: c.scale(Fraction(1, k)))

    def pow_poly(self, exponent: ExactPolynomial) -> "TruncatedSeries":
        """h**g(t) for a series h with constant term 1 and polynomial exponent g.

        Expanded as the generalized binomial series
        sum_k binom(g, k) u^k with u = h - 1, which agrees with exp(g * log h)
        as a formal identity and terminates under truncation.
        """
        bounds = self.bounds
        if self.terms.get((0,) * len(bounds)) != ONE:
            raise BadConstantTermError("pow_poly requires constant term 1")
        exponent = _as_poly(exponent)
        # u = h - 1: the constant term is ONE, so drop the zero exponent
        u = _series(bounds, {e: c for e, c in self.terms.items() if any(e)})
        # c = binom(g, k)
        return _power_sum(u, lambda c, k: (c * (exponent - (k - 1))).scale(Fraction(1, k)))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.bounds == other.bounds and self.terms == other.terms

    def __repr__(self):
        items = ", ".join(f"{e}: {c}" for e, c in sorted(self.terms.items()))
        return f"TruncatedSeries(bounds={self.bounds}, {{{items}}})"


def _series(bounds: tuple[int, ...], terms: dict) -> TruncatedSeries:
    """The series with these bounds and terms, unchecked: every exponent must
    be a tuple of ints within bounds and every coefficient an ExactPolynomial.
    Zero coefficients are dropped here, and only here."""
    s = object.__new__(TruncatedSeries)
    object.__setattr__(s, "bounds", bounds)
    object.__setattr__(s, "terms", {e: c for e, c in terms.items() if c.nums})
    return s


def _power_sum(u: TruncatedSeries, step) -> TruncatedSeries:
    """sum_k c_k u^k for a series u with constant term 0, where c_0 = 1 and
    c_k = step(c_(k-1), k).  The sum stops at the first power of u that
    truncation kills, u^(sum(bounds) + 1) at the latest, and u^1 is u
    itself, never a product by one."""
    bounds = u.bounds
    result = _series(bounds, {(0,) * len(bounds): ONE})
    power, c = u, ONE
    for k in range(1, sum(bounds) + 1):
        if k > 1:
            power = power * u
        if not power.terms:
            break
        c = step(c, k)
        result = result + _series(bounds, {e: x * c for e, x in power.terms.items()})
    return result


def _same_bounds(a: TruncatedSeries, b: TruncatedSeries) -> tuple[int, ...]:
    if a.bounds != b.bounds:
        raise ValueError(f"series bounds differ: {a.bounds} and {b.bounds}")
    return a.bounds


def convolve_coefficient(a: TruncatedSeries, b: TruncatedSeries,
                         target: Sequence[int]) -> ExactPolynomial:
    """Coefficient of the given exponent in a*b, without forming the product.

    Iterates the sparser factor and looks up the complementary exponent in
    the other; much cheaper than a full multiplication when only one
    coefficient is wanted.
    """
    _same_bounds(a, b)
    target = a._index(target)
    outer, inner = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    total = ZERO
    for exp, coeff in outer.terms.items():
        if all(map(le, exp, target)):
            match = inner.terms.get(tuple(map(sub, target, exp)))
            if match is not None:
                total = total + coeff * match
    return total
