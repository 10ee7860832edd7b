"""Exact arithmetic over Q and over the cyclotomic fields Q(zeta_N).

Every scalar is a ``CycScalar``: a residue modulo the N-th cyclotomic
polynomial in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1), stored as
``int`` numerators ``nums`` over one positive denominator ``den`` with
gcd(den, *nums) = 1, the form every kernel works on.  It is stored at the least
conductor N with the value in Q(zeta_N) (1 for rationals), where its
coordinates are unique, so equal numbers compare equal.  A sum lifts the
operands to the lcm conductor L, adds them and reduces mod Phi_L there, all on
integers.  A product lifts nothing: one kernel multiplies the coordinates of
Q(zeta_(L/sa)) and Q(zeta_(L/sb)) at strides sa and sb, for scalars and polynomial
terms alike, by the schoolbook over nonzero coordinates or, for dense ones, a
Kronecker product, and reduces mod Phi_L once, walking only the nonzero
coefficients of Phi_L.  That value of Q(zeta_L) descends to Q(zeta_(L/p)), for a
prime p | L, while some such subfield contains it.  This reaches the least
conductor: Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), so the conductors
d | L whose fields hold the value are closed under gcd, and the least one
divides the others and is reached from any of them by prime steps.  Each
membership test is exact, on integers, from the tower Q(zeta_M) in Q(zeta_pM):
x's coordinates at the multiples of p if p | M, else a shifted difference of
two strided slices of x that must lift back to x (``_in_subfield``).
``zeta(n, k)`` needs no descent: its least conductor follows from n and k, nor does
a sum or product of operands with coprime least conductors, whose lcm L is least.
A power is one square-and-multiply on the product kernel at the base's own conductor
(``_vec_power``), for scalars and one-term polynomials alike, and descends once, at the end.
Fractions are built only on request: ``coeffs`` and ``as_rational``; ``str`` prints the integers.
Conductors above ``MAX_CONDUCTOR``, from ``zeta(n)`` or an lcm of operands,
raise ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import takewhile
from math import gcd, isqrt, lcm, prod
from typing import Optional, Sequence, Union

Rational = Fraction

ScalarLike = Union["CycScalar", Fraction, int]

MAX_CONDUCTOR = 1000

@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return tuple(primes + [n] * (n > 1))


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    return n // prod(primes := _prime_factors(n)) * prod([p - 1 for p in primes])


def _check_conductor(n: int) -> int:
    if n > MAX_CONDUCTOR:
        raise ValueError(f"conductor {n} exceeds MAX_CONDUCTOR = {MAX_CONDUCTOR}")
    return n


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


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


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:  # phi(n), nonzero (j, c) of Phi_n below t^phi(n)
    return euler_phi(n), tuple((j, c) for j, c in enumerate(cyclotomic_coeffs(n)[:-1]) if c)


def _mod_phi(coeffs: list, n: int) -> list:
    """Remainder of a dense integer polynomial modulo Phi_n (monic), computed in place."""
    deg, tail = _phi_tail(n)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            i -= deg
            for j, p in tail:
                coeffs[i + j] -= c * p
    del coeffs[deg:]
    coeffs += [0] * (deg - len(coeffs))
    return coeffs


def _in_subfield(L: int, p: int, x: Sequence[int]) -> Optional[list[int]]:
    """The coordinates in Q(zeta_M), M = L/p for a prime p | L, of the integer vector x of Q(zeta_L), or
    None if x is not there.  If p | M, Phi_L(t) = Phi_M(t^p): x is there exactly when its coordinates
    off the multiples of p are zero.  Else zeta_L^i = zeta_p^(i/M) * zeta_M^(i/p) (inverses mod p and M),
    so x = sum zeta_p^s * W_s, W_s in Q(zeta_M) from the coordinates x[r::p], r = s*M mod p.  As zeta_p,
    ..., zeta_p^(p-1) is a basis over Q(zeta_M) with sum -1, x is there exactly when W_1 = ... = W_(p-1),
    and then x = W_0 - W_(1/M): y = x[::p] - t^c * x[1::p] mod Phi_M, c = 1/p mod M, must lift back to x."""
    M = L // p
    if not any(x[1:]):
        return [x[0]] + [0] * (euler_phi(M) - 1)
    if M % p == 0 or M == 1:  # at M = 1 (L = p) an irrational x has a coordinate off the multiples of p
        return None if any(any(x[r::p]) for r in range(1, p)) else list(x[::p])
    c, head, tail = pow(p, -1, M), x[::p], x[1::p]
    y = list(head) + [0] * (c + len(tail) - len(head))
    for k, v in enumerate(tail, c):
        y[k] -= v
    y = _mod_phi(y, M)
    return y if _lifted(y, M, L) == tuple(x) else None


class _Frozen:
    """A value whose slots are written once, by ``_fill`` (which also fills a copy or an unpickled value from the
    slots ``__reduce__`` took) or, where that is hot, by hand: ``_canonical``, ``_built`` and ``SurfaceElement``'s
    ``__init__`` run up to 338, 2,382 and 763 times a warm pass, 3-7% slower via ``_fill``.  Repr: Type(str)."""

    __slots__ = ()

    def __init_subclass__(cls):  # _fields: every slot, a base class's first
        cls._fields = getattr(cls, "_fields", ()) + cls.__dict__.get("__slots__", ())

    def _fill(self, values: tuple):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        return self

    __setstate__ = _fill

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return object.__new__, (type(self),), tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _canonical(L: int, nums: Sequence[int], D: int) -> "CycScalar":
    """The scalar nums / D of Q(zeta_L), L its least conductor and D nonzero, stored with
    the gcd of D and the numerators divided out and den > 0."""
    g = gcd(D, *nums) if D > 0 else -gcd(D, *nums)
    self = object.__new__(CycScalar)
    object.__setattr__(self, "conductor", L)
    object.__setattr__(self, "nums", tuple(nums) if g == 1 else tuple(n // g for n in nums))
    object.__setattr__(self, "den", D // g)
    return self


def _ratio(n: int, D: int) -> str:
    """|n|/D, D > 0, in lowest terms as a Fraction prints it, from the integers."""
    return f"{abs(n) // (g := gcd(n, D))}" + (f"/{D // g}" if g < D else "")


def _descended(L: int, vecs: list) -> tuple[int, list]:
    """(N, ys): N the least conductor whose field holds every vector of vecs in Q(zeta_L), and ys
    their coordinates there; prime steps while one subfield holds all, as for a single value."""
    while L > 1 and any(any(x[1:]) for x in vecs):
        for p in _prime_factors(L):
            ys = list(takewhile(lambda y: y is not None, (_in_subfield(L, p, x) for x in vecs)))
            if len(ys) == len(vecs):
                L, vecs = L // p, ys
                break
        else:
            return L, vecs
    return 1, [x[:1] for x in vecs]


def _minimized(L: int, nums: list[int], D: int = 1) -> "CycScalar":
    """The canonical scalar of the residue nums / D of Q(zeta_L), by prime descent."""
    L, (nums,) = _descended(L, [nums])
    return _canonical(L, nums, D)


def _lifted(nums: Sequence[int], N: int, L: int) -> Sequence[int]:
    """The coordinates in Q(zeta_L) of the element of Q(zeta_N) with coordinates nums, N | L."""
    if L == N:
        return nums
    vec = [0] * ((len(nums) - 1) * (L // N) + 1)
    vec[::L // N] = nums
    return tuple(_mod_phi(vec, L))


def _pack(c: Sequence[int], k: int) -> int:
    """sum(c[i] * 2^(k*i)): a vector in signed k-bit slots, zeta -> 2^k (Kronecker)."""
    n = 0
    for v in reversed(c):
        n = (n << k) + v
    return n


def _unpack(n: int, k: int, count: int) -> list:
    """The first ``count`` slots of n (fewer if the rest are 0), inverting _pack for slots in (-2^(k-1), 2^(k-1))."""
    out, mask, half = [], (1 << k) - 1, 1 << (k - 1)
    while n and len(out) < count:
        c, n = n & mask, n >> k
        if c >= half:  # a negative slot borrowed one from the slot above
            c, n = c - (1 << k), n + 1
        out.append(c)
    return out


def _vec_product(a: Sequence[int], sa: int, b: Sequence[int], sb: int, L: int) -> list:
    """The coordinates in Q(zeta_L) of a*b for nonzero integer vectors a of Q(zeta_(L/sa)) and b of
    Q(zeta_(L/sb)), unlifted: zeta_(L/sa)^i * zeta_(L/sb)^j = zeta_L^(i*sa + j*sb).  The schoolbook while
    nnz(a)*nnz(b) <= 10*phi(L) (the timings cross there at L = 105, 140, 420), else Kronecker, a at
    slots i*sa and b at slots j*sb; reduced mod Phi_L once.  An index i*sa + j*sb takes at most one
    j per i, so a slot sums at most min(nnz(a), nnz(b)) products."""
    na = [(i * sa, x) for i, x in enumerate(a) if x]
    nb = [(j * sb, y) for j, y in enumerate(b) if y]
    if len(na) * len(nb) <= 10 * _phi_tail(L)[0]:
        product = [0] * (na[-1][0] + nb[-1][0] + 1)
        for i, x in na:
            for j, y in nb:
                product[i + j] += x * y
    else:
        k = (min(len(na), len(nb)) * max(map(abs, a)) * max(map(abs, b))).bit_length() + 1
        product = _unpack(_pack(a, k * sa) * _pack(b, k * sb), k, (len(a) - 1) * sa + (len(b) - 1) * sb + 1)
    return _mod_phi(product, L)


def _vec_power(a: Sequence[int], k: int, N: int) -> list:
    """The coordinates in Q(zeta_N) of a^k, k >= 0, for an integer vector a of Q(zeta_N), nonzero at
    N > 1, by square-and-multiply at N with no lift, descent or square after the last bit."""
    if N == 1:
        return [a[0] ** k]
    out = list(a) if k & 1 else [1] + [0] * (len(a) - 1)
    while k := k >> 1:
        a = _vec_product(a, 1, a, 1, N)
        if k & 1:
            out = _vec_product(out, 1, a, 1, N)
    return out


class CycScalar(_Frozen):
    """An element of some Q(zeta_N), stored at its minimal conductor.

    >>> i = CycScalar.zeta(4)
    >>> i * i
    CycScalar(-1)
    >>> CycScalar.zeta(3) + CycScalar.zeta(3) ** 2
    CycScalar(-1)
    >>> h = CycScalar.zeta(8) / 2
    >>> h.nums, h.den
    ((0, 1, 0, 0), 2)
    """

    __slots__ = ("conductor", "nums", "den")

    def __new__(cls, value: ScalarLike = 0) -> "CycScalar":
        """value itself if a scalar, an int or Fraction at conductor 1, else TypeError: the one coercion."""
        if isinstance(value, CycScalar):
            return value
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot build a scalar from {value!r}")
        return _canonical(1, (value.numerator,), value.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates in the power basis of Q(zeta_conductor), as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

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
        return _canonical(r, _mod_phi([0] * e + [sign], r), 1)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.conductor == 1 and self.nums[0] == self.den

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_rational(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "CycScalar":
        if not isinstance(other, _SCALARS):
            return NotImplemented
        other = CycScalar(other)
        L = _check_conductor(lcm(self.conductor, other.conductor))
        D = lcm(self.den, other.den)
        ma, mb = D // self.den, D // other.den
        a, b = _lifted(self.nums, self.conductor, L), _lifted(other.nums, other.conductor, L)
        least = _canonical if gcd(self.conductor, other.conductor) == 1 else _minimized  # coprime: L is least
        return least(L, [x * ma + y * mb for x, y in zip(a, b)], D)

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        return _canonical(self.conductor, [-n for n in self.nums], self.den)

    def __sub__(self, other: ScalarLike) -> "CycScalar":
        return self + -other if isinstance(other, _SCALARS) else NotImplemented

    def __rsub__(self, other: ScalarLike) -> "CycScalar":
        return -self + other if isinstance(other, _SCALARS) else NotImplemented

    def __mul__(self, other: ScalarLike) -> "CycScalar":
        if not isinstance(other, _SCALARS):
            return NotImplemented
        other = CycScalar(other)
        if self.conductor == 1 or other.conductor == 1:
            q, v = (self, other) if self.conductor == 1 else (other, self)
            return _canonical(v.conductor, [n * c for c in v.nums], q.den * v.den) if (n := q.nums[0]) else q
        L = _check_conductor(lcm(self.conductor, other.conductor))
        product = _vec_product(self.nums, L // self.conductor, other.nums, L // other.conductor, L)
        least = _canonical if gcd(self.conductor, other.conductor) == 1 else _minimized  # coprime: L is least
        return least(L, product, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if self.conductor == 1:
            return _canonical(1, [self.den], self.nums[0])
        # extended gcd of the residue with Phi_N (irreducible, so the gcd is a nonzero
        # constant); a and 1/a generate one field, so N is already the least conductor
        u, c = _poly_xgcd_mod(list(self.nums), self.conductor)
        return _canonical(self.conductor, [self.den * v for v in u], c)

    def __truediv__(self, other: ScalarLike) -> "CycScalar":
        return self * CycScalar(other).inverse() if isinstance(other, _SCALARS) else NotImplemented

    def __rtruediv__(self, other: ScalarLike) -> "CycScalar":
        return self.inverse() * other if isinstance(other, _SCALARS) else NotImplemented

    def __pow__(self, k: int) -> "CycScalar":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return _minimized(self.conductor, _vec_power(self.nums, k, self.conductor), self.den ** k)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SCALARS):
            return NotImplemented
        other = CycScalar(other)
        return (self.conductor == other.conductor and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        if self.conductor == 1:
            return hash(self.as_rational())
        return hash((self.conductor, self.nums, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        N, D, parts = self.conductor, self.den, []
        for e in range(len(self.nums) - 1, -1, -1):
            if q := self.nums[e]:
                mag, base = _ratio(q, D), f"zeta({N})" + (f"^{e}" if e > 1 else "")
                body = mag if e == 0 else base if mag == "1" else f"{mag}*{base}"
                parts.append(((" - " if q < 0 else " + ") if parts else "-" if q < 0 else "") + body)
        return "".join(parts) or "0"


_SCALARS = (CycScalar, Fraction, int)  # what a scalar is built from


def _poly_xgcd_mod(a: list[int], n: int) -> tuple[list[int], int]:
    """Return (u, c), c a nonzero integer, with u*a = c modulo Phi_n, via the extended
    Euclid algorithm on integers.

    Polynomials are dense ascending lists; each step keeps r0 = s0*a and
    r1 = s1*a modulo Phi_n.  Scaling both lists of a pair by one number keeps
    that, so each long division scales r0 and s0 by the leading coefficient of
    r1 instead of dividing, and the new pair is divided by its content.
    ``a`` is consumed.
    """
    r0, r1 = list(cyclotomic_coeffs(n)), a
    s0, s1 = [0], [1]
    while True:
        while r1 and r1[-1] == 0:
            r1.pop()
        if len(r1) <= 1:
            break
        # lc^k*r0 = q*r1 + r by pseudo-division in place: r is left in r0[:d]
        d, lc = len(r1) - 1, r1[-1]
        s0 += [0] * (len(r0) - d + len(s1) - 1 - len(s0))
        for k in range(len(r0) - 1 - d, -1, -1):
            c = r0[k + d]
            if c:
                r0, s0 = [lc * v for v in r0], [lc * v for v in s0]
                for j, y in enumerate(r1):
                    r0[k + j] -= c * y
                for j, y in enumerate(s1):
                    s0[k + j] -= c * y
        g = gcd(*r0[:d], *s0)
        r0, r1 = r1, [v // g for v in r0[:d]]
        s0, s1 = s1, [v // g for v in s0]
    if not r1:
        raise ZeroDivisionError("residue shares a factor with the modulus")
    return _mod_phi(s1, n), r1[0]


def zeta(n: int, power: int = 1) -> CycScalar:
    return CycScalar.zeta(n, power)


def root_of_unity_order(a: ScalarLike) -> Optional[int]:
    """Least k >= 1 with a^k = 1, or None if a is not a root of unity.

    A root of unity of order r has least conductor r, or r/2 when r = 2 mod 4.
    So at the conductor N of a, which is least, the only possible orders are
    N when N is odd and lcm(2, N); no other power needs testing.
    """
    a = CycScalar(a)
    N = a.conductor
    if N % 2 and (a ** N).is_one():
        return N
    m = lcm(2, N)
    return m if (a ** m).is_one() else None


def cyclotomic_polynomial(n: int):
    """The n-th cyclotomic polynomial as a univariate polynomial in ``t``."""
    from .multipoly import MultiPoly

    return MultiPoly.univariate("t", cyclotomic_coeffs(n))
