"""Exact arithmetic over Q and over the cyclotomic fields Q(zeta_N).

Every scalar is a ``CycScalar``: a residue modulo the N-th cyclotomic
polynomial in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1), with Fraction
coefficients.  It is stored at the least conductor N with the value in
Q(zeta_N) (1 for rationals), where its coordinates are unique, so equal numbers
compare equal.  A cyclotomic sum or product runs on integer numerators over one
common denominator: the operands are lifted to the lcm conductor L, combined
and reduced mod Phi_L there, and Fractions are built once, at the least
conductor.  That value of Q(zeta_L) descends to Q(zeta_(L/p)), for a prime
p | L, while some such subfield contains it.  This reaches the least conductor:
Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), so the conductors d | L
whose fields hold the value are closed under gcd, and the least one divides the
others and is reached from any of them by prime steps.  Each membership test is
exact: with a cached sparse integer left inverse P / s of the embedding E of
the subfield, x lies in it exactly when E P x = s x.  ``zeta(n, k)`` needs no
descent: its least conductor follows from n and k.  Conductors above
``MAX_CONDUCTOR``, from ``zeta(n)`` or an lcm of operands, raise ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Optional, Union

Rational = Fraction

ScalarLike = Union["CycScalar", Fraction, int]

MAX_CONDUCTOR = 1000

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def _check_conductor(n: int) -> int:
    if n > MAX_CONDUCTOR:
        raise ValueError(f"conductor {n} exceeds MAX_CONDUCTOR = {MAX_CONDUCTOR}")
    return n


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Dense integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if n == 1:
        return (-1, 1)
    # Phi_n is the product over d | n of (1 - t^d)^mu(n/d), expanded as a power
    # series cut above degree phi(n); each factor or its inverse is one pass.
    deg = euler_phi(n)
    poly = [1] + [0] * deg
    for d in divisors(n):
        primes = _prime_factors(n // d)
        if prod(primes) != n // d:
            continue  # mu(n/d) = 0
        if len(primes) % 2 == 0:
            for i in range(deg, d - 1, -1):
                poly[i] -= poly[i - d]
        else:
            for i in range(d, deg + 1):
                poly[i] += poly[i - d]
    return tuple(poly)


def _mod_phi(coeffs: list, n: int) -> list:
    """Remainder of a dense int or Fraction polynomial modulo Phi_n (monic), computed in place."""
    phi = cyclotomic_coeffs(n)
    deg = len(phi) - 1
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(deg):
                coeffs[i - deg + j] -= c * phi[j]
    del coeffs[deg:]
    coeffs += [0] * (deg - len(coeffs))
    return coeffs


def _axpy(dst: dict[int, Fraction], a: Fraction, src: dict[int, Fraction]) -> None:
    """dst += a * src, for nonzero a and sparse vectors stored as {index: value}."""
    for i, v in src.items():
        w = dst.get(i, _ZERO) + a * v
        if w:
            dst[i] = w
        else:
            del dst[i]


@lru_cache(maxsize=None)
def _projector(L: int, d: int) -> tuple[int, tuple, tuple]:
    """The embedding E of Q(zeta_d) in Q(zeta_L) and a left inverse P / s of it, in integers.

    Column k of E is zeta_L^(k*L/d) mod Phi_L, the image of zeta_d^k.  Gauss-Jordan
    elimination on the rows of E^T, recording the row operations U, leaves unit
    vectors at pivot coordinates R; then U = (E_R^-1)^T, so P x / s = U^T x_R.  Returns
    s = lcm of U's denominators, P as pairs (R_i, ((k, s U[i][k]), ...)), E as its columns' nonzeros.
    """
    step = L // d
    cols = [{r: c for r, c in enumerate(_mod_phi([0] * (k * step) + [1], L)) if c}
            for k in range(euler_phi(d))]
    # row k of E^T; U[k] is kept in the same dict under the keys -1 - k
    rows = [{**col, -1 - k: _ONE} for k, col in enumerate(cols)]
    pivots: list[int] = []
    for i, row in enumerate(rows):
        for j, r in enumerate(pivots):
            if r in row:
                _axpy(row, -row[r], rows[j])
        r = max(row)  # a coordinate, since E has full column rank
        inv = _ONE / row[r]
        for c in row:
            row[c] *= inv
        for other in rows[:i]:
            if r in other:
                _axpy(other, -other[r], row)
        pivots.append(r)
    s = lcm(*(u.denominator for row in rows for k, u in row.items() if k < 0))
    P = tuple((r, tuple((-1 - k, int(u * s)) for k, u in row.items() if k < 0))
              for r, row in zip(pivots, rows))
    return s, P, tuple(tuple(col.items()) for col in cols)


def _in_subfield(L: int, d: int, x: list) -> Optional[tuple[list, int]]:
    """(y, s) with y / s the coordinates in Q(zeta_d) of x, given in Q(zeta_L), or None
    if x is not there; x holds ints or Fractions, and x = E y / s exactly when E P x = s x."""
    s, P, E = _projector(L, d)
    y = [0] * len(E)
    for r, op in P:
        c = x[r]
        if c:
            for k, u in op:
                y[k] += u * c
    z = [0] * len(x)
    for col, c in zip(E, y):
        if c:
            for r, e in col:
                z[r] += e * c
    return (y, s) if z == (x if s == 1 else [s * v for v in x]) else None


def _fractions(nums: list, D: int) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, nums)) if D == 1 else tuple(Fraction(n, D) for n in nums)


def _minimized(L: int, nums: list, D: int = 1) -> "CycScalar":
    """The canonical scalar of the residue nums / D of Q(zeta_L), by prime descent: nums
    are ints over one denominator D (or Fractions, D = 1), made Fractions at the end."""
    while L > 1 and any(nums[1:]):
        for p in _prime_factors(L):
            sub = _in_subfield(L, L // p, nums)
            if sub is not None:
                L, (nums, s) = L // p, sub
                D *= s
                break
        else:
            return CycScalar._raw(L, _fractions(nums, D))
    return CycScalar._raw(1, _fractions(nums[:1], D))


class CycScalar:
    """An element of some Q(zeta_N), stored at its minimal conductor.

    >>> i = CycScalar.zeta(4)
    >>> i * i
    CycScalar(-1)
    >>> CycScalar.zeta(3) + CycScalar.zeta(3) ** 2
    CycScalar(-1)
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, value: ScalarLike = 0):
        if isinstance(value, CycScalar):
            object.__setattr__(self, "conductor", value.conductor)
            object.__setattr__(self, "coeffs", value.coeffs)
        elif isinstance(value, (int, Fraction)):
            object.__setattr__(self, "conductor", 1)
            object.__setattr__(self, "coeffs", (Fraction(value),))
        else:
            raise TypeError(f"cannot build a scalar from {value!r}")

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    @staticmethod
    def _raw(conductor: int, coeffs: tuple[Fraction, ...]) -> "CycScalar":
        self = object.__new__(CycScalar)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycScalar":
        """zeta(n)^power = zeta_r^e, r = n/g and e = power/g for g = gcd(n, power), at its
        least conductor: r, or d = r/2 when r = 2 mod 4, as zeta_2d = -zeta_d^((d+1)/2)."""
        if n < 1:
            raise ValueError("zeta index must be >= 1")
        g = gcd(n, power % _check_conductor(n))
        r, e, sign = n // g, power % n // g, 1
        if r % 4 == 2:
            r, sign = r // 2, -1  # e is odd
            e = e * (r + 1) // 2 % r
        return CycScalar._raw(r, _fractions(_mod_phi([0] * e + [sign], r), 1))

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 1

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_rational(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic -------------------------------------------------------

    def _lifted(self, L: int) -> tuple[list[int], int]:
        """(nums, D): the residue in Q(zeta_L) as integer numerators over one denominator."""
        D = lcm(*(c.denominator for c in self.coeffs))
        nums = [c.numerator * (D // c.denominator) for c in self.coeffs]
        if L == self.conductor:
            return nums, D
        vec = [0] * ((len(nums) - 1) * (L // self.conductor) + 1)
        vec[::L // self.conductor] = nums
        return _mod_phi(vec, L), D

    @staticmethod
    def _coerce(value: ScalarLike) -> "CycScalar":
        if isinstance(value, CycScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return CycScalar(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: ScalarLike) -> "CycScalar":
        other = CycScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return CycScalar._raw(1, (self.coeffs[0] + other.coeffs[0],))
        L = _check_conductor(lcm(self.conductor, other.conductor))
        (a, da), (b, db) = self._lifted(L), other._lifted(L)
        D = lcm(da, db)
        ma, mb = D // da, D // db
        return _minimized(L, [x * ma + y * mb for x, y in zip(a, b)], D)

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        return CycScalar._raw(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other: ScalarLike) -> "CycScalar":
        other = CycScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> "CycScalar":
        return (-self) + other

    def __mul__(self, other: ScalarLike) -> "CycScalar":
        other = CycScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1 or other.conductor == 1:
            q, v = (self.coeffs[0], other) if self.conductor == 1 else (other.coeffs[0], self)
            if q == 0:
                return CycScalar._raw(1, (_ZERO,))
            return CycScalar._raw(v.conductor, tuple(q * c for c in v.coeffs))
        L = _check_conductor(lcm(self.conductor, other.conductor))
        (a, da), (b, db) = self._lifted(L), other._lifted(L)
        nonzero_b = [(j, y) for j, y in enumerate(b) if y]
        product = [0] * (len(a) + nonzero_b[-1][0])
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero_b:
                    product[i + j] += x * y
        return _minimized(L, _mod_phi(product, L), da * db)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if self.conductor == 1:
            return CycScalar(1 / self.coeffs[0])
        # extended gcd of the residue with Phi_N (irreducible, so the gcd is a nonzero
        # constant); a and 1/a generate one field, so N is already the least conductor
        u = _poly_xgcd_mod(list(self.coeffs), self.conductor)
        return CycScalar._raw(self.conductor, _fractions(u, 1))

    def __truediv__(self, other: ScalarLike) -> "CycScalar":
        other = CycScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: ScalarLike) -> "CycScalar":
        return CycScalar._coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "CycScalar":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = CycScalar(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycScalar(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self.conductor == 1:
            return hash(self.coeffs[0])
        return hash((self.conductor, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        if self.conductor == 1:
            return str(self.coeffs[0])
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            q = self.coeffs[e]
            if q == 0:
                continue
            if e == 0:
                body = str(abs(q))
            else:
                base = f"zeta({self.conductor})" + (f"^{e}" if e > 1 else "")
                body = base if abs(q) == 1 else f"{abs(q)}*{base}"
            if not parts:
                parts.append(("-" if q < 0 else "") + body)
            else:
                parts.append((" - " if q < 0 else " + ") + body)
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CycScalar({self})"


def _poly_xgcd_mod(a: list[Fraction], n: int) -> list[Fraction]:
    """Return u with u*a = 1 modulo Phi_n, via the extended Euclid algorithm.

    Polynomials are dense ascending lists; each step keeps r0 = s0*a and
    r1 = s1*a modulo Phi_n.  ``a`` is consumed.
    """
    r0, r1 = [Fraction(c) for c in cyclotomic_coeffs(n)], a
    s0, s1 = [_ZERO], [_ONE]
    while True:
        while r1 and r1[-1] == 0:
            r1.pop()
        if len(r1) <= 1:
            break
        # r0 = q*r1 + r by long division in place: r is left in r0[:d]
        d = len(r1) - 1
        q = [_ZERO] * (len(r0) - d)
        for k in range(len(q) - 1, -1, -1):
            c = q[k] = r0[k + d] / r1[d]
            if c:
                for j in range(d):
                    r0[k + j] -= c * r1[j]
        s = s0 + [_ZERO] * (len(q) + len(s1) - 1 - len(s0))
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1):
                    s[i + j] -= x * y
        r0, r1 = r1, r0[:d]
        s0, s1 = s1, s
    if not r1:
        raise ZeroDivisionError("residue shares a factor with the modulus")
    c = r1[0]
    return _mod_phi([v / c for v in s1], n)


def zeta(n: int, power: int = 1) -> CycScalar:
    return CycScalar.zeta(n, power)


def root_of_unity_order(a: ScalarLike) -> Optional[int]:
    """Least k >= 1 with a^k = 1, or None if a is not a root of unity.

    A root of unity of order r has least conductor r, or r/2 when r = 2 mod 4.
    So at the conductor N of a, which is least, the only possible orders are
    N when N is odd and lcm(2, N); no other power needs testing.
    """
    a = CycScalar._coerce(a)
    N = a.conductor
    if N % 2 and (a ** N).is_one():
        return N
    m = lcm(2, N)
    return m if (a ** m).is_one() else None


def cyclotomic_polynomial(n: int):
    """The n-th cyclotomic polynomial as a univariate polynomial in ``t``."""
    from .multipoly import MultiPoly

    coeffs = cyclotomic_coeffs(n)
    return MultiPoly.from_pairs(
        ("t",), [((e,), Fraction(c)) for e, c in enumerate(coeffs) if c]
    )
