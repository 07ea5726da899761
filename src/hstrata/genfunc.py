"""Exact counting of strata by dimension: closed forms and series oracles.

Everything here is exact rational arithmetic; no floating point.  The number
of d-dimensional strata on an m x n grid, written h(m, n, d) below, is
obtained from three independent routes:

* a closed triple sum over Stirling numbers and falling factorials of
  polynomials in t, whose t^d coefficient is h(m, n, d) (stratum_count);
* the same sum regrouped as h(m, n, d) = sum_k c_k(m, d) * k^n with rational
  coefficients independent of n (closed_form_coeffs);
* a truncated bivariate power series in x and y with polynomial-in-t
  coefficients whose exponential coefficient of x^m y^n is the polynomial
  sum_d h(m, n, d) t^d (stratum_series).

For n -> infinity at fixed m, the proportion of d-dimensional strata tends to
a rational limit read off the polynomial (t+1)(t+3)...(t+2m-1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class RatPoly:
    """Dense univariate polynomial in t over exact rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, value: Scalar) -> "RatPoly":
        return cls([value])

    @classmethod
    def t(cls) -> "RatPoly":
        return cls([0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, d: int) -> Fraction:
        if d < 0:
            raise ValueError("coefficient index must be nonnegative")
        return self._coeffs[d] if d < len(self._coeffs) else Fraction(0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: "RatPoly | Scalar") -> "RatPoly":
        other = _as_poly(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self._coeffs])

    def __sub__(self, other: "RatPoly | Scalar") -> "RatPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "RatPoly | Scalar") -> "RatPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "RatPoly | Scalar") -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return RatPoly()
            return RatPoly([c * other for c in self._coeffs])
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return RatPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
        return RatPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "RatPoly":
        return RatPoly([c / scalar for c in self._coeffs])

    def __pow__(self, k: int) -> "RatPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = RatPoly([1])
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_poly(other)
        return isinstance(other, RatPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"RatPoly({[str(c) for c in self._coeffs]!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self._coeffs):
            if not c:
                continue
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{d}")
        return " + ".join(parts).replace("+ -", "- ")


def _as_poly(x: "RatPoly | Scalar") -> RatPoly:
    return x if isinstance(x, RatPoly) else RatPoly([x])


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of [n] into k parts."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def falling_factorial_poly(p: RatPoly, k: int) -> RatPoly:
    """The product p (p-1) ... (p-k+1); the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = RatPoly([1])
    for i in range(k):
        out = out * (p - i)
    return out


# The two affine arguments whose falling factorials drive the closed form.
_HALF_ONE_MINUS_T = RatPoly([Fraction(1, 2), Fraction(-1, 2)])
_NEG_HALF_ONE_PLUS_T = RatPoly([Fraction(-1, 2), Fraction(-1, 2)])


def _closed_sum_terms(m: int):
    """Terms (k, coefficient-polynomial) of the closed triple sum at size m.

    k = 1 - l1 + l2 ranges over 1-m .. m+1; multiplying each polynomial by
    k^n and summing gives the dimension-counting polynomial for an m x n
    grid.  The factor k^n is left to the callers.
    """
    for mp in range(m + 1):
        sign = -1 if (m - mp) % 2 else 1
        binom = comb(m, mp)
        for l1 in range(mp + 1):
            s1 = stirling2(mp, l1)
            if not s1:
                continue
            ff1 = falling_factorial_poly(_HALF_ONE_MINUS_T, l1)
            for l2 in range(m - mp + 1):
                s2 = stirling2(m - mp, l2)
                if not s2:
                    continue
                ff2 = falling_factorial_poly(_NEG_HALF_ONE_PLUS_T, l2)
                yield 1 - l1 + l2, ff1 * ff2 * (sign * binom * s1 * s2)


@lru_cache(maxsize=None)
def stratum_poly(m: int, n: int) -> RatPoly:
    """The polynomial in t whose t^d coefficient is h(m, n, d)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    total = RatPoly()
    for k, poly in _closed_sum_terms(m):
        if k == 0:
            continue  # 0^n = 0 for n >= 1
        total = total + poly * k**n
    return total


def stratum_count(m: int, n: int, d: int) -> int:
    """Number of d-dimensional strata on an m x n grid, by the closed form."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    value = stratum_poly(m, n).coeff(d)
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(f"closed form gave a non-count {value} at ({m},{n},{d})")
    return int(value)


class ClosedForm:
    """Exact coefficients c_k with h(m, n, d) = sum_k c_k * k^n for all n >= 1.

    Only nonzero coefficients are stored; k = 0 never appears since its term
    would contribute nothing (0^n = 0 for n >= 1).
    """

    __slots__ = ("m", "d", "_coeffs")

    def __init__(self, m: int, d: int, coeffs: Mapping[int, Scalar]):
        self.m = m
        self.d = d
        self._coeffs = {int(k): Fraction(v) for k, v in coeffs.items() if v}
        if 0 in self._coeffs:
            raise ValueError("the base k = 0 cannot carry a coefficient")
        lo, hi = 1 - m, m + 1
        if any(not lo <= k <= hi for k in self._coeffs):
            raise ValueError(f"bases must lie in {lo}..{hi}")

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def coeff(self, k: int) -> Fraction:
        return self._coeffs.get(k, Fraction(0))

    def evaluate(self, n: int) -> int:
        if n < 1:
            raise ValueError("the closed form is valid for n >= 1 only")
        value = sum((c * k**n for k, c in self._coeffs.items()), Fraction(0))
        if value.denominator != 1:
            raise ArithmeticError(f"closed form evaluated to the non-integer {value}")
        return int(value)

    def to_json_dict(self) -> dict:
        ordered = sorted(self._coeffs.items(), key=lambda kv: -kv[0])
        return {"m": self.m, "d": self.d, "coeffs": {str(k): str(c) for k, c in ordered}}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ClosedForm)
            and (self.m, self.d) == (other.m, other.d)
            and self._coeffs == other._coeffs
        )

    def __str__(self) -> str:
        parts = []
        for k, c in sorted(self._coeffs.items(), key=lambda kv: -kv[0]):
            base = f"({k})^n" if k < 0 else ("1" if k == 1 else f"{k}^n")
            if base == "1":
                parts.append(str(c))
            else:
                parts.append(f"{c}*{base}")
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"h({self.m},n,{self.d}) = {body}"

    def __repr__(self) -> str:
        return f"ClosedForm(m={self.m}, d={self.d}, coeffs={self._coeffs!r})"


def closed_form_coeffs(m: int, d: int) -> ClosedForm:
    """Group the closed triple sum by base k and extract the t^d coefficient."""
    if m < 1:
        raise ValueError("m must be positive")
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    grouped: dict[int, Fraction] = {}
    for k, poly in _closed_sum_terms(m):
        if k == 0:
            continue  # contributes 0^n = 0 for every n >= 1
        grouped[k] = grouped.get(k, Fraction(0)) + poly.coeff(d)
    return ClosedForm(m, d, grouped)


def double_factorial_poly(m: int) -> RatPoly:
    """The product (t+1)(t+3)...(t+2m-1); its value at 0 is (2m-1)!!."""
    if m < 1:
        raise ValueError("m must be positive")
    out = RatPoly([1])
    for i in range(1, m + 1):
        out = out * RatPoly([2 * i - 1, 1])
    return out


def double_factorial_coeff(m: int, d: int) -> int:
    """Coefficient of t^d in double_factorial_poly(m)."""
    value = double_factorial_poly(m).coeff(d)
    if value.denominator != 1:
        raise ArithmeticError(f"(t+1)(t+3)... gave the non-integer {value} at ({m},{d})")
    return int(value)


def asymptotic_proportion(m: int, d: int) -> Fraction:
    """Limiting share of d-dimensional strata among all strata as n grows.

    Equals the t^d coefficient of (t+1)(t+3)...(t+2m-1) divided by m! 2^m;
    the shares over d = 0..m sum to 1.
    """
    if not 0 <= d <= m:
        raise ValueError("need 0 <= d <= m")
    return Fraction(double_factorial_coeff(m, d), factorial(m) * 2**m)


class TruncatedSeries3:
    """Bivariate power series in x, y truncated at fixed orders, with
    polynomial-in-t coefficients.

    coeffs[i][j] stores the ordinary coefficient of x^i y^j.  The counting
    coefficient attached to an i x j grid is the exponential one, i!*j! times
    the stored value; it is applied only in egf_coeff, never internally.
    """

    __slots__ = ("max_x", "max_y", "_coeffs")

    def __init__(
        self,
        max_x: int,
        max_y: int,
        coeffs: Sequence[Sequence[RatPoly]] | None = None,
    ):
        if max_x < 1 or max_y < 1:
            raise ValueError("truncation orders must be at least 1")
        self.max_x = max_x
        self.max_y = max_y
        if coeffs is None:
            self._coeffs = tuple(
                tuple(RatPoly() for _ in range(max_y + 1)) for _ in range(max_x + 1)
            )
        else:
            self._coeffs = tuple(tuple(row) for row in coeffs)
            if len(self._coeffs) != max_x + 1 or any(
                len(row) != max_y + 1 for row in self._coeffs
            ):
                raise ValueError("coefficient array does not match truncation orders")

    @classmethod
    def constant(cls, max_x: int, max_y: int, value: Scalar | RatPoly) -> "TruncatedSeries3":
        s = cls(max_x, max_y)
        rows = [list(r) for r in s._coeffs]
        rows[0][0] = _as_poly(value)
        return cls(max_x, max_y, rows)

    @classmethod
    def exponential(cls, max_x: int, max_y: int, cx: Scalar, cy: Scalar) -> "TruncatedSeries3":
        """The series of exp(cx*x + cy*y), truncated."""
        rows = []
        px = Fraction(1)
        for i in range(max_x + 1):
            row = []
            py = Fraction(1)
            for j in range(max_y + 1):
                row.append(RatPoly([px * py / (factorial(i) * factorial(j))]))
                py *= Fraction(cy)
            rows.append(row)
            px *= Fraction(cx)
        return cls(max_x, max_y, rows)

    @classmethod
    def from_egf_values(
        cls, max_x: int, max_y: int, value: Callable[[int, int], Scalar | RatPoly]
    ) -> "TruncatedSeries3":
        """Build the series whose exponential coefficients are value(i, j).

        value is consulted for i, j >= 1 only; all other coefficients are 0.
        """
        rows = [[RatPoly() for _ in range(max_y + 1)] for _ in range(max_x + 1)]
        for i in range(1, max_x + 1):
            for j in range(1, max_y + 1):
                rows[i][j] = _as_poly(value(i, j)) * Fraction(1, factorial(i) * factorial(j))
        return cls(max_x, max_y, rows)

    def coeff(self, i: int, j: int) -> RatPoly:
        """Ordinary coefficient of x^i y^j."""
        return self._coeffs[i][j]

    def egf_coeff(self, i: int, j: int) -> RatPoly:
        """Exponential coefficient: i! * j! times the ordinary one."""
        return self._coeffs[i][j] * (factorial(i) * factorial(j))

    @property
    def constant_term(self) -> RatPoly:
        return self._coeffs[0][0]

    def _match(self, other: "TruncatedSeries3") -> None:
        if (self.max_x, self.max_y) != (other.max_x, other.max_y):
            raise ValueError("truncation orders differ")

    def map_coeffs(self, fn: Callable[[int, int, RatPoly], RatPoly]) -> "TruncatedSeries3":
        rows = [
            [fn(i, j, c) for j, c in enumerate(row)] for i, row in enumerate(self._coeffs)
        ]
        return TruncatedSeries3(self.max_x, self.max_y, rows)

    def __add__(self, other: "TruncatedSeries3 | Scalar | RatPoly") -> "TruncatedSeries3":
        if not isinstance(other, TruncatedSeries3):
            other = TruncatedSeries3.constant(self.max_x, self.max_y, other)
        self._match(other)
        return self.map_coeffs(lambda i, j, c: c + other._coeffs[i][j])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries3":
        return self.map_coeffs(lambda i, j, c: -c)

    def __sub__(self, other: "TruncatedSeries3 | Scalar | RatPoly") -> "TruncatedSeries3":
        if not isinstance(other, TruncatedSeries3):
            other = TruncatedSeries3.constant(self.max_x, self.max_y, other)
        return self + (-other)

    def __rsub__(self, other: "Scalar | RatPoly") -> "TruncatedSeries3":
        return TruncatedSeries3.constant(self.max_x, self.max_y, other) - self

    def scale(self, factor: Scalar | RatPoly) -> "TruncatedSeries3":
        poly = _as_poly(factor)
        return self.map_coeffs(lambda i, j, c: c * poly)

    def __mul__(self, other: "TruncatedSeries3 | Scalar | RatPoly") -> "TruncatedSeries3":
        if not isinstance(other, TruncatedSeries3):
            return self.scale(other)
        self._match(other)
        rows = [[RatPoly() for _ in range(self.max_y + 1)] for _ in range(self.max_x + 1)]
        a, b = self._coeffs, other._coeffs
        for i1, row1 in enumerate(a):
            for j1, c1 in enumerate(row1):
                if c1.is_zero():
                    continue
                for i2 in range(self.max_x + 1 - i1):
                    row2 = b[i2]
                    target = rows[i1 + i2]
                    for j2 in range(self.max_y + 1 - j1):
                        c2 = row2[j2]
                        if not c2.is_zero():
                            target[j1 + j2] = target[j1 + j2] + c1 * c2
        return TruncatedSeries3(self.max_x, self.max_y, rows)

    def __rmul__(self, other: "Scalar | RatPoly") -> "TruncatedSeries3":
        return self.scale(other)

    def exp(self) -> "TruncatedSeries3":
        """exp of a series with zero constant term, truncated exactly."""
        if not self.constant_term.is_zero():
            raise ValueError("exp needs a zero constant term")
        one = TruncatedSeries3.constant(self.max_x, self.max_y, 1)
        acc = one
        term = one
        for k in range(1, self.max_x + self.max_y + 1):
            term = term * self
            term = term.scale(Fraction(1, k))
            acc = acc + term
        return acc

    def log(self) -> "TruncatedSeries3":
        """log of a series with constant term one, truncated exactly."""
        if self.constant_term != RatPoly([1]):
            raise ValueError("log needs constant term 1")
        u = self - 1
        acc = TruncatedSeries3(self.max_x, self.max_y)
        power = TruncatedSeries3.constant(self.max_x, self.max_y, 1)
        for k in range(1, self.max_x + self.max_y + 1):
            power = power * u
            acc = acc + power.scale(Fraction((-1) ** (k + 1), k))
        return acc

    def inverse(self) -> "TruncatedSeries3":
        """Reciprocal of a series with constant term one (geometric sum)."""
        if self.constant_term != RatPoly([1]):
            raise ValueError("inverse needs constant term 1")
        u = 1 - self
        acc = TruncatedSeries3.constant(self.max_x, self.max_y, 1)
        power = TruncatedSeries3.constant(self.max_x, self.max_y, 1)
        for _ in range(self.max_x + self.max_y):
            power = power * u
            acc = acc + power
        return acc

    def pow_poly(self, exponent: RatPoly | Scalar) -> "TruncatedSeries3":
        """Raise a constant-term-1 series to a polynomial-in-t power."""
        return self.log().scale(_as_poly(exponent)).exp()

    def substitute_negated(self) -> "TruncatedSeries3":
        """The series with x and y both negated."""
        return self.map_coeffs(lambda i, j, c: c if (i + j) % 2 == 0 else -c)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries3)
            and (self.max_x, self.max_y) == (other.max_x, other.max_y)
            and self._coeffs == other._coeffs
        )

    def __repr__(self) -> str:
        return f"TruncatedSeries3(max_x={self.max_x}, max_y={self.max_y})"


def _exp_xy(max_x: int, max_y: int, cx: Scalar = 1, cy: Scalar = 1) -> TruncatedSeries3:
    return TruncatedSeries3.exponential(max_x, max_y, cx, cy)


def stratum_series(max_x: int, max_y: int) -> TruncatedSeries3:
    """Trivariate counting series, truncated to the given orders.

    The exponential coefficient of x^m y^n is the polynomial whose t^d
    coefficient is h(m, n, d).  Computed as the product of the two binomial
    factors (e^-y + e^-x - 1) and (e^x + e^y - 1) raised to the affine
    exponents -(1+t)/2 and (1-t)/2 via exp(exponent * log(factor)).
    """
    neg_factor = _exp_xy(max_x, max_y, 0, -1) + _exp_xy(max_x, max_y, -1, 0) - 1
    pos_factor = _exp_xy(max_x, max_y, 1, 0) + _exp_xy(max_x, max_y, 0, 1) - 1
    alpha_neg = RatPoly([Fraction(-1, 2), Fraction(-1, 2)])  # -(1+t)/2
    alpha_pos = RatPoly([Fraction(1, 2), Fraction(-1, 2)])  # (1-t)/2
    return neg_factor.pow_poly(alpha_neg) * pos_factor.pow_poly(alpha_pos)


def poly_bernoulli_series(max_x: int, max_y: int) -> TruncatedSeries3:
    """Series whose exponential coefficient of x^m y^n counts all diagrams.

    The closed form e^(x+y) / (e^x + e^y - e^(x+y)), truncated.
    """
    numerator = _exp_xy(max_x, max_y, 1, 1)
    denominator = _exp_xy(max_x, max_y, 1, 0) + _exp_xy(max_x, max_y, 0, 1) - numerator
    return numerator * denominator.inverse()


def series_pipeline_check(
    max_x: int,
    max_y: int,
    cycle_counts: Callable[[int, int], int] | None = None,
) -> bool:
    """Verify the exponential-formula pipeline to the truncation order.

    Builds the series D whose exponential coefficients are the single-cycle
    diagram counts and checks that (a) exp(x+y) * exp(D) reproduces the
    closed-form total-count series and (b) exp(x + y + D_even + t*D_odd)
    reproduces the trivariate counting series, where D_even and D_odd split D
    by the parity of the cycle (even length versus odd length) and t marks
    the even-length cycles.  cycle_counts may override the single-cycle
    counting function, e.g. to confirm the check is sensitive to bad counts.
    """
    if cycle_counts is None:
        from .enumeration import single_cycle_count as cycle_counts  # lazy: avoids an import cycle

    d_series = TruncatedSeries3.from_egf_values(max_x, max_y, cycle_counts)
    exp_xy = _exp_xy(max_x, max_y, 1, 1)
    if exp_xy * d_series.exp() != poly_bernoulli_series(max_x, max_y):
        return False

    d_negated = d_series.substitute_negated()
    even_part = (d_series - d_negated).scale(Fraction(1, 2))
    odd_part = (d_series + d_negated).scale(Fraction(1, 2))
    rows = [[RatPoly() for _ in range(max_y + 1)] for _ in range(max_x + 1)]
    rows[1][0] = RatPoly([1])
    rows[0][1] = RatPoly([1])
    x_plus_y = TruncatedSeries3(max_x, max_y, rows)
    argument = x_plus_y + even_part + odd_part.scale(RatPoly.t())
    return argument.exp() == stratum_series(max_x, max_y)
