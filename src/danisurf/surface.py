"""The coordinate ring of a Danielewski surface, with unique normal forms.

A relation surface is K[X,Y,Z]/(f(X)Y - phi(Z)).  Since the ideal is
principal, the single relation is a Groebner basis for any monomial order,
and we reduce with respect to lex y > x > z, whose leading monomial is
lc * x^m * y (m = deg f).  A polynomial is in normal form exactly when no
monomial has x-degree >= m together with y-degree >= 1.

One sweep reduces, over the polynomial's variables and z.  Every key holds x's exponent in slot 0 and
y's in slot 1, so terms go into buckets keyed by those two slots, which order as plain ints by
(y-degree, x-degree), and the buckets are popped from the top; every other exponent rides along in its
slot.  A bucket x^i*y^j*c(z) with
i >= m, j >= 1 is rewritten once by x^m*y = -rest/den (rest: the monic relation's other terms, over
den): a row x^a*y*r(z) of rest, a < m, sends it to x-degree i - m + a < i and the row phi(z) to
y-degree j - 1, so every bucket is final when popped.  Each keeps its own power of den until one settle.

The degenerate "free" kind is a plain polynomial ring in named variables
(used for the plane K[X,Y] examples); its normal form is the identity.
"""

from __future__ import annotations

import operator
from bisect import insort
from math import lcm
from typing import Iterable

from .exactnum import _check_conductor, _Frozen
from .multipoly import (_MASK, _POLYS, _W, MultiPoly, PolyLike, _added, _at, _guard, _names, _product,
                        _settled, _times)

_XY, _G = _MASK | _MASK << _W, _guard(("x", "y"))  # x's and y's slots, and their guard bits


class SurfaceSpec(_Frozen):
    __slots__ = ("kind", "f", "phi", "variables", "m", "lc", "d", "relation", "monic", "rows")

    def __init__(self, kind: str, f: MultiPoly | None, phi: MultiPoly | None,
                 variables: tuple[str, ...]):
        if kind not in ("relation", "free"):
            raise ValueError(f"unknown surface kind {kind!r}")
        if kind == "relation":
            if f is None or phi is None:
                raise ValueError("relation surface needs f and phi")
            if not f.depends_only_on("x") or f.degree_in("x") < 1:
                raise ValueError("f must be univariate in x with deg f >= 1")
            if not phi.depends_only_on("z") or phi.degree_in("z") < 1:
                raise ValueError("phi must be univariate in z with deg phi >= 1")
            variables = ("x", "y", "z")
            m, lc, d = f.degree_in("x"), f.leading_coefficient("x"), phi.degree_in("z")
            relation = f * MultiPoly.variable("y") - phi
            monic = relation if lc.is_one() else relation * lc.inverse()  # leading coefficient 1
            rows = _rows(monic.nums.items(), m)
        else:
            variables = _names(variables)
            if not variables:
                raise ValueError("free surface needs at least one variable")
            m = lc = d = relation = monic = rows = None
        self._fill((kind, f, phi, variables, m, lc, d, relation, monic, rows))

    @staticmethod
    def danielewski(f: PolyLike, phi: PolyLike) -> "SurfaceSpec":
        """The surface with relation f(x)*y = phi(z)."""
        return SurfaceSpec("relation", MultiPoly._coerce(f), MultiPoly._coerce(phi), ())

    @staticmethod
    def free_ring(variables: Iterable[str]) -> "SurfaceSpec":
        return SurfaceSpec("free", None, None, tuple(variables))

    @property
    def is_free(self) -> bool:
        return self.kind == "free"

    def check_variables(self, p: MultiPoly) -> None:
        foreign = set(p.variables) - set(self.variables)
        if foreign:
            raise ValueError(f"foreign variables {sorted(foreign)} for surface {self}")

    def reduce(self, p: MultiPoly) -> MultiPoly:
        """Unique normal form of p modulo the relation ideal."""
        self.check_variables(p)
        if self.is_free:
            return p
        _check_conductor(lcm(p.conductor, self.monic.conductor))  # whether or not p needs a rewrite
        return _reduce_relation(p, self)

    def element(self, p: "SurfaceElement | PolyLike") -> "SurfaceElement":
        """p itself if an element of this surface, else p's normal form: the one coercion of elements, raising
        ValueError for another surface's element and TypeError for a value of any other type."""
        if not isinstance(p, SurfaceElement):
            return SurfaceElement(self, MultiPoly._coerce(p))
        if p.surface != self:
            raise ValueError("elements live on different surfaces")
        return p

    def gen(self, name: str) -> "SurfaceElement":
        if name not in self.variables:
            raise ValueError(f"{name!r} is not a generator of {self}")
        return self.element(MultiPoly.variable(name))

    @property
    def generators(self) -> tuple["SurfaceElement", ...]:
        return tuple(self.gen(v) for v in self.variables)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurfaceSpec):
            return NotImplemented
        return self is other or (self.kind == other.kind and self.f == other.f
                                 and self.phi == other.phi and self.variables == other.variables)

    def __hash__(self) -> int:
        return hash((self.kind, self.f, self.phi, self.variables))

    def __str__(self) -> str:
        if self.is_free:
            return "free: " + ",".join(self.variables)
        return f"f={self.f}; phi={self.phi}"


def _rows(terms: Iterable, m: int) -> list:
    """-rest, x^m*y's image times den, as rows (the key offset of their (x, y)-part from x^m*y, their terms)."""
    xy, rows = m | 1 << _W, {}
    for e, c in terms:
        if e != xy:
            rows.setdefault((e & _XY) - xy, []).append((e, _times(c, -1)))
    return list(rows.items())


def _reduce_relation(p: MultiPoly, S: SurfaceSpec) -> MultiPoly:
    """The normal form of p: one sweep of its (y-degree, x-degree) buckets, on numerators, over p's variables and z."""
    if "x" not in p.variables or "y" not in p.variables:
        return p  # no term is divisible by x^m*y
    xy = S.m | 1 << _W
    divisible = lambda e: ((e | _G) - xy) & _G == _G  # x-degree >= m and y-degree >= 1; no other slot changes
    if not any(map(divisible, p.nums)):
        return p
    names = tuple(sorted({*p.variables, "z"}))
    N, L, den, G3 = S.monic.conductor, lcm(p.conductor, S.monic.conductor), S.monic.den, _guard(names)
    buckets = {}  # (y, x)-part -> [t, {key: numerator over p.den * den^t}]
    for e, c in _at(p.nums.items(), p.conductor, L):
        buckets.setdefault(e & _XY, [0, {}])[1][e] = c
    todo = sorted(filter(divisible, buckets))  # the buckets to rewrite, ascending
    while todo:
        b = todo.pop()
        t, part = buckets.pop(b)
        t += den != 1  # the power of den under the terms this rewrite emits
        quotient = [(e - xy, c) for e, c in part.items() if (any(c) if type(c) is tuple else c)]
        for off, row in S.rows:
            out = _product(quotient, L, row, N, G3)
            if (target := b + off) not in buckets and divisible(target):
                insort(todo, target)
            s, acc = buckets.setdefault(target, [t, {}])
            if s < t:  # bring the bucket up to power t
                s, acc = buckets[target] = [t, {e: _times(c, den ** (t - s)) for e, c in acc.items()}]
            _added(acc, out, den ** (s - t))
    T = max(t for t, _ in buckets.values())
    nums = {e: _times(c, den ** (T - t)) for t, part in buckets.values() for e, c in part.items()
            if (any(c) if type(c) is tuple else c)}
    return _settled(names, L, p.den * den ** T, nums)


class SurfaceElement(_Frozen):
    """A ring element kept in normal form on its surface."""

    __slots__ = ("surface", "rep")

    def __init__(self, surface: SurfaceSpec, p: MultiPoly):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "rep", surface.reduce(p))

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def _combined(self, other, op) -> "SurfaceElement":
        """The element of op on the representatives of self and other, an element of the same surface."""
        if not isinstance(other, (SurfaceElement, _POLYS)):
            return NotImplemented
        return SurfaceElement(self.surface, op(self.rep, self.surface.element(other).rep))

    def __add__(self, other) -> "SurfaceElement":
        return self._combined(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "SurfaceElement":
        return SurfaceElement(self.surface, -self.rep)

    def __sub__(self, other) -> "SurfaceElement":
        return self._combined(other, operator.sub)

    def __rsub__(self, other) -> "SurfaceElement":
        return -self + other if isinstance(other, _POLYS) else NotImplemented

    def __mul__(self, other) -> "SurfaceElement":
        return self._combined(other, operator.mul)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SurfaceElement":
        return SurfaceElement(self.surface, self.rep ** k)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _POLYS):
            return self.rep == other  # unreduced, so == stays transitive and agrees with hash
        if not isinstance(other, SurfaceElement):
            return NotImplemented
        return self.surface == other.surface and self.rep == other.rep

    def __hash__(self) -> int:
        return hash(self.rep)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        return str(self.rep)


def normal_form(p: PolyLike, S: SurfaceSpec) -> SurfaceElement:
    return S.element(p)


def elements_equal(p: SurfaceElement, q: SurfaceElement) -> bool:
    return p.rep == p.surface.element(q).rep
