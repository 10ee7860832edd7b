"""Sparse multivariate polynomials over cyclotomic scalars.

A ``MultiPoly`` has one stored form: the least ``conductor`` N with every coefficient in
Q(zeta_N), one positive ``den`` coprime to all numerators, and ``nums``: per monomial key an
``int`` numerator when N = 1, else a tuple of phi(N) power-basis coordinates.  Coefficients
that need N above the scalar bound raise ValueError, as scalars do.  A key is one ``int``
with each variable's exponent in that name's 20-bit slot: x, y and z hold slots 0, 1 and 2,
any other name the next free slot from its first use on, so a monomial's key depends only on
its exponents.  The top bit of each slot is a guard kept clear, so exponents stay below 2^19.
``variables`` is the sorted tuple of the names the keys use, so equal polynomials have
identical representations; ``terms`` builds exponent tuples and ``CycScalar`` coefficients
on request.  Term order everywhere is graded lexicographic in the variable tuple.
Products and substitution run one ``int`` pair loop: keys add with ``+``, a set guard bit
raising ValueError.  At L > 1 a side of one term, or a rational side of two, multiplies the
other side term by term and lifts nothing: an integer scales a vector, and two vectors meet in
one scalar product of their unlifted coordinates (``exactnum``'s kernel).  Only two sides of
several terms each are packed into signed slots, zeta -> 2^k (Kronecker), a rational side never,
and each product term is unpacked and reduced mod Phi_L once.
Each result descends and divides out its gcd once.  ``substitute`` moves only the variables
whose image is not the variable itself: it groups the terms by their exponents of those and
multiplies each group once by each image's cached power.  Those powers and ``**`` raise one
term c*m as m's key times k and c^k by ``exactnum``'s square-and-multiply kernel (or one product
past a cached P^(k-1)); parts A and B over disjoint variables by the binomial rule, so no two
keys of a product meet; any other as P^(k-1)*P.  ``**`` settles once, over den^k.

>>> from danisurf.exactnum import zeta
>>> x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
>>> print((x + y) ** 2)
x^2 + 2*x*y + y^2
>>> print((zeta(8)*x + zeta(8)) * zeta(8, 7))
x + 1
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, count
from math import comb, gcd, lcm, prod
from operator import add, or_
from typing import Iterable, Iterator, Mapping, Union

from .exactnum import (_SCALARS, CycScalar, ScalarLike, _canonical, _check_conductor, _descended, _Frozen, _lifted,
                       _minimized, _mod_phi, _pack, _ratio, _unpack, _vec_power, _vec_product, euler_phi)

PolyLike = Union["MultiPoly", CycScalar, Fraction, int]

_W = 20  # bits per exponent slot of a key: 3 variables fit in 60 bits; W = 32 made term pairs ~40% slower
_MASK = (1 << _W) - 1
_OVERFLOW = "exponent above 2^19 - 1"


class _Shifts(dict):
    """name -> the bit offset of its slot in every key.  A name missing takes the next free slot;
    setdefault keeps two threads from sharing one, and no slot is ever reused."""
    _free = count(3)

    def __missing__(self, name: str) -> int:
        return self.setdefault(name, _W * next(self._free))


_SHIFT = _Shifts(x=0, y=_W, z=2 * _W)


class MultiPoly(_Frozen):
    __slots__ = ("variables", "conductor", "den", "nums")

    def __new__(cls, variables: Iterable[str] = (), terms: Mapping[tuple[int, ...], ScalarLike] | None = None):
        vars_in = _names(variables)
        pairs = [(tuple(e), c) for e, v in (terms or {}).items() if (c := CycScalar(v))]  # TypeError if no scalar
        if any(len(e) != len(vars_in) for e, _ in pairs):
            raise ValueError("exponent tuple does not match variable list")
        if any(k < 0 for e, _ in pairs for k in e):
            raise ValueError("negative exponent")
        if any(k >> _W - 1 for e, _ in pairs for k in e):
            raise ValueError(_OVERFLOW)
        L = _check_conductor(lcm(*(c.conductor for _, c in pairs)))  # least: the lcm of the least conductors
        D = lcm(*(c.den for _, c in pairs))
        nums = {sum([k << _SHIFT[v] for k, v in zip(e, vars_in)]):
                _times(c.nums[0] if L == 1 else _lifted(c.nums, c.conductor, L), D // c.den) for e, c in pairs}
        return _settled(tuple(sorted(vars_in)), L, D, nums, descend=False)

    def __reduce__(self):  # by exponent tuples, as the slots of a key belong to one process
        return MultiPoly, (self.variables, self.terms)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return _built(_names((name,)), 1, 1, {1 << _SHIFT[name]: 1})

    @staticmethod
    def constant(value: ScalarLike) -> "MultiPoly":
        c = CycScalar(value)  # TypeError if no scalar
        return _built((), c.conductor, c.den, {0: c.nums[0] if c.conductor == 1 else c.nums} if c else {})

    @staticmethod
    def zero() -> "MultiPoly":
        return _built((), 1, 1, {})

    @staticmethod
    def one() -> "MultiPoly":
        return _built((), 1, 1, {0: 1})

    @staticmethod
    def from_pairs(variables: Iterable[str], pairs: Iterable[tuple[tuple[int, ...], ScalarLike]]) -> "MultiPoly":
        return MultiPoly(variables, dict(pairs))

    @staticmethod
    def univariate(name: str, coeffs: Iterable[ScalarLike]) -> "MultiPoly":
        """Polynomial in one variable from ascending coefficients."""
        return MultiPoly((name,), {(e,): c for e, c in enumerate(coeffs)})

    @staticmethod
    def _coerce(value: PolyLike) -> "MultiPoly":
        """value as a polynomial, TypeError for a foreign type; operators return NotImplemented for one."""
        return value if isinstance(value, MultiPoly) else MultiPoly.constant(value)

    # -- structure --------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], CycScalar]:
        """The coefficients as CycScalars, each at its own least conductor, in a new dict."""
        N, D = self.conductor, self.den
        return {_unpacked(e, self.variables): _canonical(1, (c,), D) if N == 1 else _minimized(N, list(c), D)
                for e, c in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def as_scalar(self) -> CycScalar:
        if self.variables:
            raise ValueError(f"{self} is not a constant")
        c = self.nums.get(0, 0)  # a constant's conductor is its coefficient's least one
        return _canonical(self.conductor, (c,) if self.conductor == 1 else c, self.den)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum([k for _, k in _slots(e)]) for e in self.nums), default=-1)

    def degree_in(self, var: str) -> int:
        if var not in self.variables:
            return 0 if self.nums else -1
        s = _SHIFT[var]
        return max((e >> s & _MASK for e in self.nums), default=-1)

    def coefficient_of(self, var: str, power: int) -> "MultiPoly":
        """Coefficient of var**power, a polynomial in the other variables."""
        if not isinstance(power, int):
            raise TypeError(f"power must be an int, not {power!r}")
        if var not in self.variables:
            return self if power == 0 else MultiPoly.zero()
        s = _SHIFT[var]
        picked = {e - (power << s): c for e, c in self.nums.items() if e >> s & _MASK == power}
        return _settled(self.variables, self.conductor, self.den, picked)  # var pruned

    def leading_coefficient(self, var: str) -> CycScalar:
        return self.coefficient_of(var, self.degree_in(var)).as_scalar()

    def exponent_support(self, var: str) -> tuple[int, ...]:
        """Sorted exponents of a nonzero polynomial depending only on ``var``."""
        if self.is_zero():
            raise ValueError("zero polynomial has no exponent support")
        if any(v != var for v in self.variables):
            raise ValueError(f"polynomial depends on more than {var!r}")
        return tuple(sorted([sum([k for _, k in _slots(e)]) for e in self.nums]))  # var's exponent, or 0

    def depends_only_on(self, var: str) -> bool:
        return all(v == var for v in self.variables)

    # -- arithmetic -------------------------------------------------------

    def _merged(self, signed: list) -> "MultiPoly":
        """self + sum(sign*q) over the pairs (q, sign) of polynomials, one signed merge of all
        numerators over the lcm denominator."""
        names = tuple(sorted(set(self.variables).union(*[q.variables for q, _ in signed])))
        L = _check_conductor(lcm(self.conductor, *[q.conductor for q, _ in signed]))
        D = lcm(self.den, *[q.den for q, _ in signed])
        acc = _added({}, _at(self.nums.items(), self.conductor, L), D // self.den)
        for q, sign in signed:
            _added(acc, _at(q.nums.items(), q.conductor, L), sign * (D // q.den))
        if overlap := len(acc) < len(self.nums) + sum([len(q.nums) for q, _ in signed]):  # drop what cancelled
            acc = {e: c for e, c in acc.items() if (c if L == 1 else any(c))}
        coprime = prod([q.conductor for q, _ in signed], start=self.conductor) == L  # pairwise: L is least
        return _settled(names, L, D, acc, overlap and not coprime, prune=overlap)

    def __add__(self, other: PolyLike) -> "MultiPoly":
        return self._merged([(MultiPoly._coerce(other), 1)]) if isinstance(other, _POLYS) else NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _built(self.variables, self.conductor, self.den, {e: _times(c, -1) for e, c in self.nums.items()})

    def __sub__(self, other: PolyLike) -> "MultiPoly":
        return self._merged([(MultiPoly._coerce(other), -1)]) if isinstance(other, _POLYS) else NotImplemented

    def __rsub__(self, other: PolyLike) -> "MultiPoly":
        return -self + other if isinstance(other, _POLYS) else NotImplemented

    def __mul__(self, other: PolyLike) -> "MultiPoly":
        if not isinstance(other, _POLYS):
            return NotImplemented
        other = MultiPoly._coerce(other)
        names = tuple(sorted({*self.variables, *other.variables}))
        L, G = _check_conductor(lcm(self.conductor, other.conductor)), _guard(names)
        out = dict(_product(self.nums.items(), self.conductor, other.nums.items(), other.conductor, G))
        # a nonzero product uses every variable of its factors
        return _settled(names, L, self.den * other.den, out, gcd(self.conductor, other.conductor) > 1,
                        prune=not out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if not (k and self.nums):
            return self if k else MultiPoly.one()
        terms = _power_of({1: list(self.nums.items())}, k, self.conductor, _guard(self.variables))
        return _settled(self.variables, self.conductor, self.den ** k, dict(terms), prune=False)  # uses every variable

    # -- calculus and substitution ----------------------------------------

    def partial_derivative(self, var: str) -> "MultiPoly":
        if var not in self.variables:
            return MultiPoly.zero()
        s = _SHIFT[var]
        out = {e - (1 << s): _times(c, k) for e, c in self.nums.items() if (k := e >> s & _MASK)}
        return _settled(self.variables, self.conductor, self.den, out, len(out) < len(self.nums))

    def substitute(self, images: Mapping[str, PolyLike]) -> "MultiPoly":
        """Ring-homomorphism evaluation; self when no variable has an image other than itself.  The
        terms are grouped by their exponents k_v of the moved v.  With self = N / D and image v = N_v / D_v,
        a group is scaled once by prod(D_v^(K_v - k_v)), K_v = deg_v self, and multiplied once by each
        cached power N_v^k_v, so every sum is on integers over D*prod(D_v^K_v)."""
        moved = [(s, p) for v in self.variables if v in images
                 if ((p := MultiPoly._coerce(images[v])).den, p.nums) != (1, {1 << (s := _SHIFT[v]): 1})]
        if not moved:
            return self
        mask = sum([_MASK << s for s, _ in moved])
        names = tuple(sorted(set(self.variables).union(*[p.variables for _, p in moved])))  # pruned at the end
        L, G = _check_conductor(lcm(self.conductor, *[p.conductor for _, p in moved])), _guard(names)
        dens = [(s, p.den, max(e >> s & _MASK for e in self.nums)) for s, p in moved if p.den > 1]  # s, D_v, K_v
        moved = [(s, p.conductor, {1: list(p.nums.items())}) for s, p in moved]  # cache[k]: the image to the k
        groups, acc, kept = {}, {}, ~mask
        for e, c in self.nums.items():
            groups.setdefault(e & mask, []).append((e & kept, c))
        for g, part in groups.items():
            if dens and (scale := prod([d ** (t - (g >> s & _MASK)) for s, d, t in dens])) > 1:
                part = [(e, _times(c, scale)) for e, c in part]
            N = self.conductor
            for s, Nv, cache in moved:
                if k := g >> s & _MASK:
                    part, N = _product(part, N, _power_of(cache, k, Nv, G), Nv, G), lcm(N, Nv)
            _added(acc, _at(part, N, L))
        den = self.den * prod([d ** t for _, d, t in dens])
        return _settled(names, L, den, {e: c for e, c in acc.items() if (c if L == 1 else any(c))})

    def divide_by_variable(self, var: str) -> "MultiPoly":
        """Exact division by ``var``; every term must contain it."""
        s = 1 << _SHIFT[var] if var in self.variables else 0
        if not all(e & _MASK * s for e in self.nums):
            raise ValueError(f"{self} is not divisible by {var}")
        return _built(self.variables, self.conductor, self.den, {e - s: c for e, c in self.nums.items()}, prune=True)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _POLYS):
            return NotImplemented
        other = MultiPoly._coerce(other)
        return self.conductor == other.conductor and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        if not self.variables:  # a constant hashes as its scalar, which it equals
            return hash(self.as_scalar())
        return hash((self.conductor, self.den, frozenset(self.nums.items())))

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        """Terms in graded lex order, each sorted on one int: its degree above its exponents packed with
        the first variable highest, read off only the slots its key uses, so a wide ring costs no more."""
        rows, out, N, D, top = [], [], self.conductor, self.den, len(self.variables) * _W
        at = {_SHIFT[v]: (top - _W * i, v) for i, v in enumerate(self.variables, 1)}
        for e, c in self.nums.items():
            order, parts = 0, []
            for s, k in _slots(e):
                order += (k << top) + (k << (pos := at[s])[0])
                parts.append((pos[0], pos[1] if k == 1 else f"{pos[1]}^{k}"))
            rows.append((order, "*".join([t for _, t in sorted(parts, reverse=True)]), c))
        for _, mono, c in sorted(rows, reverse=True):  # on order alone, as no two terms share one
            if N > 1 and any(c[1:]):
                sign, body = "+", f"({_minimized(N, list(c), D)})" + ("*" + mono if mono else "")
            else:
                sign, mag = "-" if (m := c if N == 1 else c[0]) < 0 else "+", _ratio(m, D)
                body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
            out.append(f" {sign} {body}" if out else body if sign == "+" else f"-{body}")
        return "".join(out) or "0"


_POLYS = (MultiPoly, *_SCALARS)  # what a polynomial is built from


def _times(c, k: int):
    """Numerators, an int or a coordinate vector, times the integer k."""
    return c if k == 1 else c * k if type(c) is int else tuple([v * k for v in c])


def _added(acc: dict, terms: Iterable, scale: int = 1) -> dict:
    """acc with the numerators (ints or vectors) of terms times scale added in, zeros kept."""
    for e, c in terms if scale == 1 else [(e, _times(c, scale)) for e, c in terms]:
        acc[e] = (tuple(map(add, acc[e], c)) if type(c) is tuple else acc[e] + c) if e in acc else c
    return acc


def _at(terms: Iterable, N: int, L: int) -> Iterable:
    """Terms at conductor N (int numerators at N = 1, vectors otherwise) lifted to L, N | L."""
    return terms if N == L else [(e, _lifted((c,) if N == 1 else c, N, L)) for e, c in terms]


def _names(variables: Iterable[str]) -> tuple[str, ...]:
    """The names as a tuple, checked before any takes a slot: TypeError naming the first that is not
    a str, ValueError for a repeated one."""
    names = tuple(variables)
    if bad := [v for v in names if not isinstance(v, str)]:
        raise TypeError(f"a variable name must be a str, not {bad[0]!r}")
    if len(set(names)) < len(names):
        raise ValueError("duplicate variable names")
    return names


def _slots(e: int) -> Iterator[tuple[int, int]]:  # (shift, exponent) of each slot key e uses, lowest first
    while e:
        s = ((e & -e).bit_length() - 1) // _W * _W  # the lowest slot e uses
        yield s, (k := e >> s & _MASK)
        e -= k << s


def _unpacked(e: int, variables: tuple[str, ...]) -> tuple[int, ...]:
    used = dict(_slots(e))
    return tuple([used.get(_SHIFT[v], 0) for v in variables])


@lru_cache(maxsize=256)
def _guard(variables: tuple[str, ...]) -> int:  # the top bit of each of the variables' slots
    return sum(1 << _SHIFT[v] + _W - 1 for v in variables)


def _convolve(a: Iterable, b: Iterable, guard: int) -> list:
    """The nonzero terms of the product of two term lists, with ``guard`` the guard bits of the
    slots their keys use: the one pair loop of products and substitution.  A key sum's slots
    are below 2^20, so none carries; a slot's largest sum is a leading term's, which never cancels."""
    acc = {}
    for ea, ca in a:
        for eb, cb in b:
            e = ea + eb
            acc[e] = acc[e] + ca * cb if e in acc else ca * cb
    if reduce(or_, acc, 0) & guard:
        raise ValueError(_OVERFLOW)
    return [(e, c) for e, c in acc.items() if c]


def _product(a, Na: int, b, Nb: int, guard: int) -> list:
    """The nonzero terms, at L = lcm(Na, Nb), of the product of term lists at conductors Na and Nb.  A side of
    one term (either order, any conductor), or a rational side of two (faster than packing the other side at two
    terms, not at four), multiplies the other side term by term with no lift, pack or extra reduction: an integer
    scales a vector, two vectors meet in one scalar product of their unlifted coordinates.  Only where both sides
    have several terms are they packed, a rational side never; a slot of a product term sums min(len(a), len(b))
    pairs of phi(L) products, or of one by a rational side, and each product term is reduced mod Phi_L once.
    The packed path stays: multiplying those term by term too took cli-session's ``cmd_p95_ms`` 0.67 -> 0.71 ms."""
    L = lcm(Na, Nb)
    if L == 1 or not a or not b:
        return _convolve(a, b, guard)
    if Nb == 1:  # the rational side, if any, first
        a, Na, b, Nb = b, Nb, a, Na
    if Na == 1 and len(a) <= 2 or len(a) == 1 or len(b) == 1:  # scale b's vectors, or multiply unlifted
        out = [(ea + eb, tuple([ca * w for w in cb] if Na == 1 else _vec_product(ca, L // Na, cb, L // Nb, L)))
               for ea, ca in a for eb, cb in b]
        if reduce(or_, [e for e, _ in out], 0) & guard:
            raise ValueError(_OVERFLOW)
        return out if len(a) == 1 or len(b) == 1 else [(e, v) for e, v in _added({}, out).items() if any(v)]
    a, b, n = a if Na == 1 else _at(a, Na, L), _at(b, Nb, L), euler_phi(L)
    top = [max([abs(c) if type(c) is int else max(map(abs, c)) for _, c in t]) for t in (a, b)]  # |numerator|
    k = (min(len(a), len(b)) * (1 if Na == 1 else n) * top[0] * top[1]).bit_length() + 1
    out = _convolve(a if Na == 1 else [(e, _pack(c, k)) for e, c in a], [(e, _pack(c, k)) for e, c in b], guard)
    return [(e, tuple(v)) for e, c in out if any(v := _mod_phi(_unpack(c, k, 2 * n - 1), L))]


def _parts(terms: list, guard: int):
    """The power caches {1: A} and {1: B} of two parts of a term list whose non-constant terms
    fall into two sets over disjoint variables, else False.  A term's support ((e | G) - ones) & G
    keeps the guard bit of each slot it uses; A grows from the first non-constant term until
    closed, and B takes the rest, with any constant."""
    sup = [((e | guard) - (guard >> _W - 1)) & guard for e, _ in terms]
    comp, last = next(filter(None, sup), 0), None
    while comp != last:
        comp, last = reduce(or_, [s for s in sup if s & comp], comp), comp
    return any(s and not s & comp for s in sup) and tuple(
        {1: [t for t, s in zip(terms, sup) if bool(s & comp) == side]} for side in (True, False))


def _power_of(cache: dict, k: int, N: int, guard: int) -> list:
    """cache[k], the k-th power at conductor N of the term list P = cache[1], filled in: for one term
    c*m, as P^(k-1) * P when cache holds P^(k-1) (one product, where the kernel takes up to 2 log2 k),
    else as c^k by exactnum's square-and-multiply kernel and m's key times k, each slot below 2^19;
    for parts A and B (cache[0], from _parts once per cache) by the binomial rule
    P^k = sum C(k, i) A^(k-i) B^i, both parts' powers walking up and no two keys meeting in a
    product; else as P^(k-1) * P."""
    if k in cache:
        return cache[k]
    if len(cache[1]) == 1 and k - 1 in cache:
        cache[k] = _product(cache[k - 1], N, cache[1], N, guard)
    elif len(cache[1]) == 1:
        (e, c), = cache[1]
        if max([m for _, m in _slots(e)], default=0) * k >> _W - 1:
            raise ValueError(_OVERFLOW)
        cache[k] = [(e * k, c ** k if N == 1 else tuple(_vec_power(c, k, N)))]
    elif parts := cache[0] if 0 in cache else cache.setdefault(0, _parts(cache[1], guard)):
        pa = [_power_of(parts[0], j, N, guard) for j in range(1, k + 1)]
        acc = dict(pa[-1])
        for i in range(1, k + 1):
            bi = _power_of(parts[1], i, N, guard)
            _added(acc, bi if i == k else _product(pa[k - i - 1], N, bi, N, guard), comb(k, i))
        cache[k] = [(e, c) for e, c in acc.items() if (c if N == 1 else any(c))]
    else:
        for j in range(len(cache) - 1, k):  # the keys are 0 and the powers 1..j
            cache[j + 1] = _product(cache[j], N, cache[1], N, guard)
    return cache[k]


def _settled(variables: tuple[str, ...], L: int, D: int, nums: dict, descend: bool = True,
             prune: bool = True) -> MultiPoly:
    """The polynomial of nonzero numerators ``nums`` over D > 0 at conductor L, descended to its least conductor
    unless the caller proves L least (``descend`` False), and with the gcd divided out.  L is least for a sum or
    product of a and b with coprime least conductors (were it in a smaller cyclotomic field, an automorphism fixing
    that field and b but not a would fix a + b or a*b), for a sum without a common monomial, whose coefficients are
    those of a and b, and for a derivative that drops no term, whose coefficients k*c have the least conductors of
    the c.  Descending every result instead made ``pass_s`` 35% higher on plane-cyclo and 3% on verify-rational."""
    if L > 1 and descend:
        N, vecs = _descended(L, list(nums.values()))
        if N < L:
            L, nums = N, dict(zip(nums, (tuple(v) for v in vecs) if N > 1 else (v[0] for v in vecs)))
    g = gcd(D, *(nums.values() if L == 1 else chain.from_iterable(nums.values()))) if D > 1 else 1
    if g > 1:
        nums = {e: c // g if L == 1 else tuple([v // g for v in c]) for e, c in nums.items()}
    return _built(variables, L if nums else 1, D // g, nums, prune)


def _built(variables: tuple[str, ...], N: int, D: int, nums: dict, prune: bool = False) -> MultiPoly:
    """Trusted constructor from sorted variables, the least conductor N and nonzero numerators over D, in lowest
    terms.  ``prune``, the caller's word that a variable may have lost its last term, drops the variables no term
    uses; pruning every result instead made ``pass_s`` 3% higher on plane-cyclo and 2% on verify-rational."""
    if prune:
        used = reduce(or_, nums, 0)
        variables = tuple([v for v in variables if used >> _SHIFT[v] & _MASK])
    p = object.__new__(MultiPoly)
    object.__setattr__(p, "variables", variables)
    object.__setattr__(p, "conductor", N)
    object.__setattr__(p, "den", D)
    object.__setattr__(p, "nums", nums)
    return p
