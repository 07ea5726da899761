"""Exact counting of strata by dimension: closed forms and series oracles.

Everything here is exact; no floating point.  The number of d-dimensional
strata on an m x n grid, written h(m, n, d) below, is obtained from two
mathematically independent routes:

* the closed triple sum over Stirling numbers and falling factorials of
  (1-t)/2 and -(1+t)/2, grouped once per m into an integer table of
  polynomials C_k(t) with h(m, n, d) = 2^-m sum_k C_k[d] k^n for all n >= 1,
  its Stirling weights read off one difference table of x^m, O(m^3) in all.
  stratum_poly sums the table against k^n, and ClosedForm.evaluate (behind
  stratum_count) one column of it, in integers divided once (_exact);
  closed_form_coeffs returns the c_k = C_k[d] / 2^m as Fractions;
* a truncated bivariate power series in x and y with polynomial-in-t
  coefficients (RatPoly, over Fractions) whose exponential coefficient of
  x^m y^n is sum_d h(m, n, d) t^d (stratum_series): G^alpha F^(alpha+1)
  with F = e^x + e^y - 1, G(x, y) = F(-x, -y) and alpha = -(1+t)/2, so
  with H = F^alpha it is (H(-x, -y) H(x, y)) F: one power, its mirror
  square on the even half of the grid, and one product over the few
  nonzero terms of F (products skip zero coefficients).  Its exp and its
  powers (the reciprocal is the power -1) are solved coefficient by
  coefficient from first-order recurrences (J.C.P. Miller's power
  recurrence).  The counting series is symmetric in x and y, since
  transposing a diagram keeps its dimension, and so are F, H and the
  pipeline check's series; on a square, symmetric input the recurrence
  solves only j >= i and mirrors the rest.

For n -> infinity at fixed m, the proportion of d-dimensional strata tends to
a rational limit read off the integer coefficients of (t+1)(t+3)...(t+2m-1).

The totals over d (poly_bernoulli), the single-cycle counts and stirling2
read one row of surjection counts j! S(n, j) = D^j[x^n](0) (_surjections;
Graham, Knuth and Patashnik, Concrete Mathematics, 6.1).  _closed_table has
its own difference table, so a check of its totals compares two codes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class RatPoly:
    """Dense univariate polynomial in t over exact rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coeff(self, d: int) -> Fraction:
        if d < 0:
            raise ValueError("coefficient index must be nonnegative")
        return self._coeffs[d] if d < len(self._coeffs) else Fraction(0)

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

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self._coeffs])

    def __sub__(self, other: "RatPoly | Scalar") -> "RatPoly":
        return self + (-_as_poly(other))

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


def _as_poly(x: "RatPoly | Scalar") -> RatPoly:
    return x if isinstance(x, RatPoly) else RatPoly([x])


def _add_product(acc: list[int], pa: Sequence[int], pb: Sequence[int], scale: int = 1) -> list[int]:
    """acc += scale * pa * pb on integer coefficient lists; acc grows as needed and is returned."""
    if len(pa) + len(pb) - 1 > len(acc):
        acc += [0] * (len(pa) + len(pb) - 1 - len(acc))
    for i, x in enumerate(pa):
        if x:
            x *= scale
            for j, y in enumerate(pb):
                acc[i + j] += x * y
    return acc


def _product_coeff(a: list[list[list[int]]], b: list[list[list[int]]], i: int, j: int) -> list[int]:
    """The x^i y^j coefficient of the product of two series' integer grids (_integer_grid).

    Pairs where either coefficient is zero are skipped, so a product with
    F = e^x + e^y - 1 costs F's i + j + 1 nonzero terms per coefficient.
    """
    acc: list[int] = []
    for i1 in range(i + 1):
        row_a, row_b = a[i1], b[i - i1]
        for j1 in range(j + 1):
            pa, pb = row_a[j1], row_b[j - j1]
            if pa and pb:
                _add_product(acc, pa, pb)
    return acc


def _mirror_square(h: list[list[list[int]]]) -> list[list[list[int]]]:
    """The integer grid of h(-x, -y) h(x, y), over the square of h's denominator.

    Its x^i y^j coefficient is sum_(a,b) (-1)^(a+b) h[a][b] h[i-a][j-b].  The
    terms at (a, b) and (i-a, j-b) carry the signs (-1)^(a+b) and
    (-1)^(i+j-a-b): they cancel when i + j is odd and are equal when it is
    even, so each unordered pair is added once, doubled, and the middle
    term (i/2, j/2) once.
    """
    rows, cols = len(h), len(h[0])
    out: list[list[list[int]]] = [[[] for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(i % 2, cols, 2):
            acc: list[int] = []
            for a in range(i // 2 + 1):
                row_a, row_b = h[a], h[i - a]
                # (a, b) before its partner (i-a, j-b): every b while a < i-a, else b < j-b
                for b in range(j + 1 if 2 * a < i else j // 2):
                    pa, pb = row_a[b], row_b[j - b]
                    if pa and pb:
                        _add_product(acc, pa, pb, -2 if (a + b) % 2 else 2)
            if not i % 2:  # then j is even too, and (i/2, j/2) is its own partner
                mid = h[i // 2][j // 2]
                _add_product(acc, mid, mid, -1 if (i + j) // 2 % 2 else 1)
            out[i][j] = acc
    return out


@lru_cache(maxsize=None)
def _surjections(n: int, k: int) -> tuple[int, ...]:
    """j! S(n, j) for j = 0..k: the first column of the difference table of x^n over x = 0..k."""
    row, out = [x**n for x in range(k + 1)], []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return tuple(out)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of [n] into k parts."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    return _surjections(n, k)[k] // factorial(k) if k <= n else 0


def poly_bernoulli(m: int, n: int) -> int:
    """The poly-Bernoulli number counting all m x n Cauchon diagrams, symmetric in m and n.

    With s = min(m, n), L = max(m, n) and F(s, j) = j! S(s, j): the sum over j <= s of
    (-1)^(s-j) F(s, j) (j+1)^L (M. Kaneko, "Poly-Bernoulli numbers", J. Theor.
    Nombres Bordeaux 9 (1997) 221-228, Thm 1).
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    s, big = min(m, n), max(m, n)
    return sum((-1) ** (s - j) * f * (j + 1) ** big for j, f in enumerate(_surjections(s, s)))


def single_cycle_count(m: int, n: int) -> int:
    """Number of m x n diagrams whose toric permutation is one (m+n)-cycle.

    The sum over k of F(m, k) F(n, k) / k with F(n, k) = k! S(n, k); the
    tests check it against enumeration.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    s = min(m, n)
    fm, fn = _surjections(m, s), _surjections(n, s)
    return sum(fm[k] * fn[k] // k for k in range(1, s + 1))


@lru_cache(maxsize=None)
def _closed_table(m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Pairs (k, C_k) with h(m, n, d) = 2^-m sum_k C_k[d] k^n for every n >= 1.

    C_k(t) = sum over 1 - l1 + l2 = k of W(l1, l2) 2^(m-l1-l2) P1_l1(t) P2_l2(t),
    where W(l1, l2) = sum_mp (-1)^(m-mp) C(m, mp) S(mp, l1) S(m-mp, l2),
    P1_l = prod_{i<l} (1-2i-t) and P2_l = prod_{i<l} (-1-2i-t): the closed
    triple sum over Stirling numbers and the falling factorials of (1-t)/2
    and -(1+t)/2, times 2^m so every coefficient is an integer.  Each C_k is
    a tuple of m+1 ints (t^0 .. t^m); the base k = 0 (0^n = 0 for n >= 1)
    and bases whose weights are all 0 are left out.

    W(l1, l2) = (-1)^l2 D^(l1+l2)[x^m](-l2) / (l1! l2!), with D f(x) = f(x+1) - f(x).
    Proof: as sum_n S(n, l) x^n/n! = (e^x - 1)^l / l!, the mp-sum is m! [x^m] of
    (e^x - 1)^l1 (e^-x - 1)^l2 / (l1! l2!) = (-1)^l2 e^(-l2 x) (e^x - 1)^(l1+l2) / (l1! l2!),
    and m! [x^m] e^(ax) (e^x - 1)^L = sum_j C(L, j) (-1)^(L-j) (a+j)^m = D^L[x^m](a).
    A step (l1, l2) -> (l1+1, l2+1) along a base's diagonal multiplies P1 P2
    by (1-2l1-t)(-1-2l2-t), so C_k is its first product times one Horner sum.
    """
    diffs, row = [], [x**m for x in range(-m, m + 1)]
    for L in range(m + 1):  # diffs[L][l1] = D^L[x^m](l1 - L), l1 = 0..L
        diffs.append(row[m - L : m + 1])
        row = [b - a for a, b in zip(row, row[1:])]
    table = []
    # bases k = j + 1 start at (0, j) on the seed P2_j, bases k = 1 - j <= -1 at (j, 0) on P1_j
    for shift, first in ((-1, 0), (1, 2)):
        seed = [1]
        for j in range(m + 1):
            if j >= first:
                l1, l2 = (j, 0) if shift == 1 else (0, j)
                acc: list[int] = []
                for i in range((m - j) // 2, -1, -1):  # the diagonal's pairs, last first
                    a, b = l1 + i, l2 + i
                    w = (-1) ** b * diffs[a + b][a] // (factorial(a) * factorial(b)) << (m - a - b)
                    step = ((1 - 2 * a) * (-1 - 2 * b), 2 * (a + b), 1)
                    acc = _add_product([w], acc, step) if acc else [w]
                if any(acc):
                    table.append((1 - l1 + l2, tuple(_add_product([0] * (m + 1), seed, acc))))
            seed = _add_product([], seed, (shift - 2 * j, -1))
    return tuple(sorted(table))


def _exact(num: int, den: int, where: tuple[int, int, int]) -> int:
    """num / den, an integer by the closed form; ArithmeticError naming where = (m, n, d) if not."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"closed form gave the non-integer {num}/{den} at {where}")
    return q


def stratum_poly(m: int, n: int) -> RatPoly:
    """The polynomial in t whose t^d coefficient is h(m, n, d)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    total = [0] * (m + 1)
    for k, c in _closed_table(m):
        kn = k**n
        for d, a in enumerate(c):
            total[d] += a * kn
    return RatPoly([_exact(v, 1 << m, (m, n, d)) for d, v in enumerate(total)])


def stratum_count(m: int, n: int, d: int) -> int:
    """Number of d-dimensional strata on an m x n grid: one column of the closed form."""
    value = closed_form_coeffs(m, d).evaluate(n)
    if value < 0:
        raise ArithmeticError(f"closed form gave the negative count {value} at {(m, n, d)}")
    return value


class ClosedForm:
    """Exact coefficients c_k with h(m, n, d) = sum_k c_k * k^n for all n >= 1.

    Only nonzero coefficients are stored, as Fractions; k = 0 never appears
    (0^n = 0 for n >= 1).  evaluate sums them on one common denominator.
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
        den = lcm(*(c.denominator for c in self._coeffs.values()))
        num = sum(c.numerator * (den // c.denominator) * k**n for k, c in self._coeffs.items())
        return _exact(num, den, (self.m, n, self.d))

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
            base = f"({k})^n" if k < 0 else f"{k}^n"
            parts.append(str(c) if k == 1 else f"{c}*{base}")
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"h({self.m},n,{self.d}) = {body}"

    def __repr__(self) -> str:
        return f"ClosedForm(m={self.m}, d={self.d}, coeffs={self._coeffs!r})"


def closed_form_coeffs(m: int, d: int) -> ClosedForm:
    """The coefficients c_k = C_k[d] / 2^m of the closed form at size m."""
    if m < 1:
        raise ValueError("m must be positive")
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    if d > m:
        return ClosedForm(m, d, {})
    return ClosedForm(m, d, {k: Fraction(c[d], 1 << m) for k, c in _closed_table(m)})


def _odd_rising(m: int) -> list[int]:
    """The integer coefficients of (t+1)(t+3)...(t+2m-1), t^0 first."""
    if m < 1:
        raise ValueError("m must be positive")
    out = [1]
    for i in range(1, m + 1):
        out = _add_product([], out, (2 * i - 1, 1))
    return out


def double_factorial_poly(m: int) -> RatPoly:
    """The product (t+1)(t+3)...(t+2m-1); its value at 0 is (2m-1)!!."""
    return RatPoly(_odd_rising(m))


def double_factorial_coeff(m: int, d: int) -> int:
    """Coefficient of t^d in double_factorial_poly(m)."""
    coeffs = _odd_rising(m)
    if d < 0:
        raise ValueError("coefficient index must be nonnegative")
    return coeffs[d] if d <= m else 0


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

    def egf_coeff(self, i: int, j: int) -> RatPoly:
        """Exponential coefficient: i! * j! times the ordinary one."""
        if not (0 <= i <= self.max_x and 0 <= j <= self.max_y):
            raise ValueError(f"x^{i} y^{j} is outside the truncation orders {self.max_x}, {self.max_y}")
        return self._coeffs[i][j] * (factorial(i) * factorial(j))

    @property
    def constant_term(self) -> RatPoly:
        return self._coeffs[0][0]

    def _match(self, other: "TruncatedSeries3") -> None:
        if (self.max_x, self.max_y) != (other.max_x, other.max_y):
            raise ValueError("truncation orders differ")

    def _map_coeffs(self, fn: Callable[[int, int, RatPoly], RatPoly]) -> "TruncatedSeries3":
        rows = [
            [fn(i, j, c) for j, c in enumerate(row)] for i, row in enumerate(self._coeffs)
        ]
        return TruncatedSeries3(self.max_x, self.max_y, rows)

    def __add__(self, other: "TruncatedSeries3 | Scalar | RatPoly") -> "TruncatedSeries3":
        if not isinstance(other, TruncatedSeries3):
            other = TruncatedSeries3.constant(self.max_x, self.max_y, other)
        self._match(other)
        return self._map_coeffs(lambda i, j, c: c + other._coeffs[i][j])

    def __neg__(self) -> "TruncatedSeries3":
        return self._map_coeffs(lambda i, j, c: -c)

    def __sub__(self, other: "TruncatedSeries3 | Scalar | RatPoly") -> "TruncatedSeries3":
        return self + (-other)

    def scale(self, factor: Scalar | RatPoly) -> "TruncatedSeries3":
        poly = _as_poly(factor)
        return self._map_coeffs(lambda i, j, c: c * poly)

    def __mul__(self, other: "TruncatedSeries3 | Scalar | RatPoly") -> "TruncatedSeries3":
        if not isinstance(other, TruncatedSeries3):
            return self.scale(other)
        self._match(other)
        (a, da), (b, db) = self._integer_grid(), other._integer_grid()
        return _grid_series(_grid_product(a, b), da * db)

    def _integer_grid(self) -> tuple[list[list[list[int]]], int]:
        """The coefficients as integer lists over one common denominator."""
        den = lcm(*(q.denominator for row in self._coeffs for c in row for q in c.coeffs))
        grid = [
            [[q.numerator * (den // q.denominator) for q in c.coeffs] for c in row]
            for row in self._coeffs
        ]
        return grid, den

    def exp(self) -> "TruncatedSeries3":
        """exp of a series with zero constant term, truncated exactly.

        H = exp(G) solves x dH/dx = (x dG/dx) H, so for i >= 1
        i H[i][j] = sum_(a,b) a G[a][b] H[i-a][j-b]; on the first row the
        same recurrence runs along y.  A square, symmetric G solves only
        j >= i and mirrors the rest (_recurrence).
        """
        if self.constant_term:
            raise ValueError("exp needs a zero constant term")
        return self._recurrence(RatPoly([1]), 0)

    def pow_poly(self, exponent: RatPoly | Scalar) -> "TruncatedSeries3":
        """Raise a constant-term-1 series to a polynomial-in-t power.

        H = F^alpha solves F x dH/dx = alpha (x dF/dx) H (J.C.P. Miller's
        recurrence; Knuth, TAOCP vol. 2, 4.7), so for i >= 1
        i H[i][j] = sum_((a,b) != (0,0)) ((alpha+1) a - i) F[a][b] H[i-a][j-b];
        on the first row the same recurrence runs along y.  A square,
        symmetric F solves only j >= i and mirrors the rest (_recurrence).
        """
        if self.constant_term != RatPoly([1]):
            raise ValueError("pow_poly needs constant term 1")
        return self._recurrence(_as_poly(exponent) + 1, 1)

    def _recurrence(self, p: RatPoly, q: int) -> "TruncatedSeries3":
        """The series H with H[0][0] = 1 and, for every other (i, j),

            n H[i][j] = sum_((a,b) != (0,0)) (p e - q n) c[a][b] H[i-a][j-b],

        where c = self, n = i and e = a when i >= 1, and n = j and e = b on
        the first row.  Each coefficient costs one pass over the nonzero
        coefficients of c.

        When the orders are equal and c[a][b] == c[b][a] for every a, b, H is
        symmetric too, so only j >= i is solved and H[j][i] = H[i][j].  This
        is exact: the solution is unique and symmetric, and rows are solved
        in order, so every H[i-a][j-b] read at (i, j) is solved or mirrored.
        """
        terms = [
            (a, b, ca)
            for a, row in enumerate(self._coeffs)
            for b, ca in enumerate(row)
            if ca and (a, b) != (0, 0)
        ]
        symmetric = self.max_x == self.max_y and all(
            self._coeffs[a][b] == self._coeffs[b][a] for a in range(self.max_x + 1) for b in range(a)
        )
        h = [[RatPoly()] * (self.max_y + 1) for _ in range(self.max_x + 1)]
        h[0][0] = RatPoly([1])
        for i in range(self.max_x + 1):
            for j in range(i if symmetric else 0, self.max_y + 1):
                if (i, j) == (0, 0):
                    continue
                n = i or j
                weighted = RatPoly()  # sum of e c[a][b] H[i-a][j-b]
                plain = RatPoly()  # sum of c[a][b] H[i-a][j-b]
                for a, b, ca in terms:
                    if a <= i and b <= j and h[i - a][j - b]:
                        e = a if i else b
                        prod = ca * h[i - a][j - b]
                        if e:
                            weighted = weighted + prod * e
                        if q:
                            plain = plain + prod
                h[i][j] = (p * weighted - plain * (q * n)) * Fraction(1, n)
                if symmetric:
                    h[j][i] = h[i][j]
        return TruncatedSeries3(self.max_x, self.max_y, h)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries3)
            and (self.max_x, self.max_y) == (other.max_x, other.max_y)
            and self._coeffs == other._coeffs
        )

    def __repr__(self) -> str:
        return f"TruncatedSeries3(max_x={self.max_x}, max_y={self.max_y})"


def _grid_product(a: list[list[list[int]]], b: list[list[list[int]]]) -> list[list[list[int]]]:
    """The integer grid of the product of two integer grids of one shape."""
    return [[_product_coeff(a, b, i, j) for j in range(len(a[0]))] for i in range(len(a))]


def _grid_series(grid: list[list[list[int]]], den: int) -> TruncatedSeries3:
    """The series of an integer grid divided by den."""
    rows = [[RatPoly([Fraction(v, den) for v in c]) for c in row] for row in grid]
    return TruncatedSeries3(len(grid) - 1, len(grid[0]) - 1, rows)


def _stratum_power(max_x: int, max_y: int) -> tuple[tuple[list, int], tuple[list, int]]:
    """The integer grids of H = F^alpha (one recurrence) and F = e^x + e^y - 1; alpha = -(1+t)/2."""
    exponential = TruncatedSeries3.exponential
    f = exponential(max_x, max_y, 1, 0) + exponential(max_x, max_y, 0, 1) - 1
    return f.pow_poly(RatPoly([Fraction(-1, 2), Fraction(-1, 2)]))._integer_grid(), f._integer_grid()


def stratum_series(max_x: int, max_y: int) -> TruncatedSeries3:
    """Trivariate counting series, truncated to the given orders.

    The exponential coefficient of x^m y^n is the polynomial whose t^d
    coefficient is h(m, n, d).  It is G^alpha F^(alpha+1) with
    F = e^x + e^y - 1, G = e^-x + e^-y - 1 and alpha = -(1+t)/2.  Since
    G(x, y) = F(-x, -y), with H = F^alpha from pow_poly's one recurrence it
    is (H(-x, -y) H(x, y)) F: the mirror square of H (_mirror_square), zero
    at odd total degree, times F's max_x + max_y + 1 nonzero terms.
    """
    (hg, dh), (fg, df) = _stratum_power(max_x, max_y)
    return _grid_series(_grid_product(_mirror_square(hg), fg), dh * dh * df)


def _stratum_series_coeff(m: int, n: int) -> RatPoly:
    """stratum_series(m, n).egf_coeff(m, n) as G^alpha (H F), convolving only that coefficient.

    H F is the product of H's and F's integer grids, and G^alpha = H(-x, -y)
    is H's grid with the coefficients of odd total degree negated.
    """
    (a, da), (b, db) = _stratum_power(m, n)
    hf = _grid_product(a, b)
    a = [[[-v for v in c] if (i + j) % 2 else c for j, c in enumerate(row)] for i, row in enumerate(a)]
    scale = factorial(m) * factorial(n)
    return RatPoly([Fraction(v * scale, da * da * db) for v in _product_coeff(a, hf, m, n)])


def poly_bernoulli_series(max_x: int, max_y: int) -> TruncatedSeries3:
    """Series whose exponential coefficient of x^m y^n counts all diagrams.

    The closed form e^(x+y) / (e^x + e^y - e^(x+y)), truncated.  Dividing
    through by e^(x+y), it equals (e^-x + e^-y - 1)^-1: one power recurrence
    over the max_x + max_y + 1 nonzero terms of e^-x + e^-y - 1, and no product.
    """
    exponential = TruncatedSeries3.exponential
    return (exponential(max_x, max_y, -1, 0) + exponential(max_x, max_y, 0, -1) - 1).pow_poly(-1)


def series_pipeline_check(max_x: int, max_y: int) -> bool:
    """Verify the exponential-formula pipeline to the truncation order.

    Builds the series D whose exponential coefficients are the single-cycle
    diagram counts and checks that (a) exp(x+y) * exp(D) reproduces the
    closed-form total-count series and (b) exp(x + y + D_odd-length +
    t*D_even-length) reproduces the trivariate counting series.  The single
    cycle of an i x j diagram has length i + j, so D_odd-length and
    D_even-length keep the terms of D with i + j odd and even, and t marks
    the even-length cycles.
    """
    d_series = TruncatedSeries3.from_egf_values(max_x, max_y, single_cycle_count)
    exp_xy = TruncatedSeries3.exponential(max_x, max_y, 1, 1)
    if exp_xy * d_series.exp() != poly_bernoulli_series(max_x, max_y):
        return False

    # x + y fills degree 1, where D has no terms, and t marks D's even-length terms
    one, t = RatPoly([1]), RatPoly([0, 1])
    argument = d_series._map_coeffs(lambda i, j, c: one if i + j == 1 else c if (i + j) % 2 else c * t)
    return argument.exp() == stratum_series(max_x, max_y)
