"""Exact rational arithmetic: polynomials in one variable t and truncated
multivariate power series whose coefficients are such polynomials.

Every coefficient is an exact rational (`int` or `fractions.Fraction`); no
floating point appears anywhere.  All identities verified elsewhere in the
package are therefore exact statements about rational numbers, and a
mismatch is a bug, never roundoff.

Representations:

  ExactPolynomial          dense tuple of int numerators over one positive
                           int denominator, index = power of t; kept in
                           lowest terms, so products and sums are integer
                           convolutions with one gcd per result
  BinomialBasisPolynomial  dense tuple of Fractions, index j = coefficient
                           of binom(t, j); integer coefficients certify an
                           integer-valued polynomial
  TruncatedSeries          sparse dict mapping exponent tuples to nonzero
                           ExactPolynomial, truncated per variable; the
                           operands of one operation share their bounds

Newton's forward-difference formula links the values at t = 0..N and the
binom(t, j) coefficients; the one kernel _forward_differences serves both
to_binomial_basis and its inverse, lagrange_interpolate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
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


class ExactPolynomial:
    """Univariate polynomial in t with rational coefficients.

    Stored as integer numerators `nums` (index = power of t) over one
    positive denominator `den`, in canonical form: gcd(den, *nums) == 1,
    no trailing zero numerators, and the zero polynomial is ((), 1).  Equal
    polynomials therefore have equal (nums, den).  Immutable.
    """

    __slots__ = ("nums", "den")

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        pairs = [_ratio(c) for c in coeffs]
        den = lcm(*[q for _, q in pairs])
        return _make([p * (den // q) for p, q in pairs], den)

    def __setattr__(self, name, value):
        raise AttributeError("ExactPolynomial is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.nums) - 1

    def __call__(self, value: Scalar) -> Fraction:
        p, q = _ratio(value)
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
        if isinstance(other, ExactPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return _make([other.numerator], other.denominator)
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

    def exact_div(self, other: "ExactPolynomial") -> "ExactPolynomial":
        """Divide exactly, raising NonDivisibleError on a nonzero remainder."""
        divisor = self._coerce(other)
        if divisor is NotImplemented:
            raise TypeError(f"cannot divide a polynomial by {type(other).__name__}")
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
        p, q = _ratio(c)
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


_set_nums = ExactPolynomial.nums.__set__
_set_den = ExactPolynomial.den.__set__


def _make(nums: list[int], den: int) -> ExactPolynomial:
    """The polynomial sum_k nums[k]/den * t^k for a positive den, in canonical
    form; nums must be a fresh list, which this may modify."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        den = 1
    elif den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    p = object.__new__(ExactPolynomial)
    _set_nums(p, tuple(nums))
    _set_den(p, den)
    return p


def _ratio(c: Scalar) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction; anything else is a TypeError."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected int or Fraction, not {type(c).__name__}")
    return c.numerator, c.denominator


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


class BinomialBasisPolynomial:
    """A polynomial written as sum_j c_j * binom(t, j).

    Integer c_j certify that the polynomial takes integer values at every
    integer; a fractional c_j witnesses the opposite (at t = j, given that
    values at 0..j-1 are integers).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(*_ratio(c)) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("BinomialBasisPolynomial is immutable")

    def to_monomial(self) -> ExactPolynomial:
        p = ZERO
        for j, c in enumerate(self.coeffs):
            if c:
                p = p + binomial_poly(0, j).scale(c)
        return p

    def __eq__(self, other):
        if not isinstance(other, BinomialBasisPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("binomial", self.coeffs))

    def __repr__(self):
        return f"BinomialBasisPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        return format_terms(self.coeffs, lambda k: "" if k == 0 else f"binom(t,{k})")


def _forward_differences(values: Sequence[Scalar]) -> list[Scalar]:
    """[v_0, dv_0, d^2 v_0, ...] for values v_n at t = n = 0, 1, ..., d the
    forward difference: by Newton's formula, the coefficients over binom(t, j)
    of the polynomial through them.  Integer values give integer differences."""
    diffs = list(values)
    for j in range(1, len(diffs)):
        # diffs[i] = d^(j-1) v_(i-j+1) becomes d^j v_(i-j), for i >= j
        for i in range(len(diffs) - 1, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    return diffs


def to_binomial_basis(p: ExactPolynomial) -> BinomialBasisPolynomial:
    """Expand p over binom(t, j): the forward differences of its values at
    t = 0..deg p.  Exact, and inverse to BinomialBasisPolynomial.to_monomial."""
    return BinomialBasisPolynomial(_forward_differences([p(n) for n in range(p.degree + 1)]))


def lagrange_interpolate(values: Sequence[Scalar]) -> ExactPolynomial:
    """The unique polynomial of degree < len(values) that takes values[n] at
    t = n for n = 0, 1, ...: the inverse of reading p off at t = 0..deg p,
    through the same forward differences as to_binomial_basis."""
    return BinomialBasisPolynomial(_forward_differences(values)).to_monomial()


# --- Truncated multivariate power series ------------------------------------


def _as_poly(value) -> ExactPolynomial:
    if isinstance(value, ExactPolynomial):
        return value
    return ExactPolynomial((value,))


class TruncatedSeries:
    """Formal power series in several commuting variables, truncated so the
    exponent of variable i never exceeds bounds[i].

    Coefficients are ExactPolynomial in t.  Exponents outside the bounds are
    silently dropped on construction and during arithmetic (that is what
    truncation means); *querying* such a coefficient raises OutOfBoundsError
    because the stored data says nothing about it.

    Operands of +, * and convolve_coefficient must have equal bounds (else
    ValueError).  Only the constructor validates; operators build via _series.

    exp runs Miller's recurrence one coefficient at a time over the whole
    bounds box, which suits few variables; pow_poly sums the binomial series
    sum_k binom(g, k) (h - 1)^k one full power of h - 1 at a time, which keeps
    the sparse many-variable (1 + p_1)^(t - m) of deligne's Frobenius kernel
    on its small support.
    """

    __slots__ = ("bounds", "terms")

    def __new__(cls, bounds: Sequence[int], terms: Mapping[tuple[int, ...], object] = ()):
        bounds = tuple(map(index, bounds))
        if any(b < 0 for b in bounds):
            raise ValueError("truncation bounds must be nonnegative")
        clean: dict[tuple[int, ...], ExactPolynomial] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
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

    @classmethod
    def constant(cls, bounds: Sequence[int], value) -> "TruncatedSeries":
        return cls(bounds, {(0,) * len(bounds): value})

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
            for eb, cb in large.items():
                if all(map(le, eb, room)):
                    exp = tuple(map(add, ea, eb))
                    prod = ca * cb
                    prev = out.get(exp)
                    out[exp] = prod if prev is None else prev + prod
        return _series(bounds, out)

    def scale(self, value) -> "TruncatedSeries":
        poly = _as_poly(value)
        return _series(self.bounds, {e: c * poly for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "TruncatedSeries":
        return _power(self, n, _series(self.bounds, {(0,) * len(self.bounds): ONE}), "series")

    def exp(self) -> "TruncatedSeries":
        """g = exp f for a series f with zero constant term, by J.C.P. Miller's
        recurrence (Knuth, TAOCP vol. 2, 4.7), one coefficient at a time:

            g_0 = 1,   |e| g_e = sum_{a != 0} |a| f_a g_{e-a},

        with |e| the total degree.  The Euler operator E = sum_i x_i d/dx_i
        multiplies a monomial by its total degree, and it is a derivation, so
        E g = (E f) g in any number of variables; its x^e coefficient is the
        recurrence.  The walk covers the whole bounds box, which suits few
        variables; its lexicographic itertools.product order reaches every
        e - a before e.  A missing e - a is zero or has a negative exponent,
        and contributes nothing."""
        if (0,) * len(self.bounds) in self.terms:
            raise BadConstantTermError("exp requires constant term 0")
        weighted = [(a, c.scale(sum(a))) for a, c in self.terms.items()]
        g = {(0,) * len(self.bounds): ONE}
        for e in islice(product(*(range(b + 1) for b in self.bounds)), 1, None):
            total = ZERO
            for a, c in weighted:
                prev = g.get(tuple(map(sub, e, a)))
                if prev is not None:
                    total = total + c * prev
            if total.nums:
                g[e] = total.scale(Fraction(1, sum(e)))
        return _series(self.bounds, g)

    def pow_poly(self, exponent: ExactPolynomial) -> "TruncatedSeries":
        """h**g(t) for a series h with constant term 1 and polynomial exponent g.

        Expanded as the generalized binomial series
        sum_k binom(g, k) u^k with u = h - 1, which agrees with exp(g * log h)
        as a formal identity and terminates under truncation: the sum stops at
        the first power of u that truncation kills, u^(sum(bounds) + 1) at
        the latest.  u^1 is u itself, never a product by one.
        """
        bounds = self.bounds
        if self.terms.get((0,) * len(bounds)) != ONE:
            raise BadConstantTermError("pow_poly requires constant term 1")
        exponent = _as_poly(exponent)
        # u = h - 1: the constant term is ONE, so drop the zero exponent
        u = _series(bounds, {e: c for e, c in self.terms.items() if any(e)})
        result = _series(bounds, {(0,) * len(bounds): ONE})
        power, c = u, ONE  # c = binom(g, k)
        for k in range(1, sum(bounds) + 1):
            if k > 1:
                power = power * u
            if not power.terms:
                break
            c = (c * (exponent - (k - 1))).scale(Fraction(1, k))
            result = result + power.scale(c)
        return result

    def eval_t(self, value: Scalar) -> "TruncatedSeries":
        """Specialize every polynomial coefficient at t = value."""
        return _series(self.bounds, {e: _as_poly(c(value)) for e, c in self.terms.items()})

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
