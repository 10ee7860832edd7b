"""The coordinate ring of a Danielewski surface, with unique normal forms.

A relation surface is K[X,Y,Z]/(f(X)Y - phi(Z)).  Since the ideal is
principal, the single relation is a Groebner basis for any monomial order,
and we reduce with respect to lex y > x > z, whose leading monomial is
lc * x^m * y (m = deg f).  A polynomial is in normal form exactly when no
monomial has x-degree >= m together with y-degree >= 1.

The degenerate "free" kind is a plain polynomial ring in named variables
(used for the plane K[X,Y] examples); its normal form is the identity.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable

from .exactnum import CycScalar
from .multipoly import MultiPoly, PolyLike


class SurfaceSpec:
    __slots__ = ("kind", "f", "phi", "variables", "m", "lc", "d", "relation", "monic")

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
            m = f.degree_in("x")
            lc = f.leading_coefficient("x")
            d = phi.degree_in("z")
            relation = f * MultiPoly.variable("y") - phi
            monic = relation if lc.is_one() else relation * lc.inverse()  # leading coefficient 1
        else:
            if not variables:
                raise ValueError("free surface needs at least one variable")
            if len(set(variables)) != len(variables):
                raise ValueError("duplicate variable names")
            m = lc = d = relation = monic = None
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "lc", lc)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "monic", monic)

    def __setattr__(self, name, value):
        raise AttributeError("SurfaceSpec is immutable")

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
        return _reduce_relation(p, self)

    def element(self, p: PolyLike) -> "SurfaceElement":
        return SurfaceElement(self, MultiPoly._coerce(p))

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

    def __repr__(self) -> str:
        return f"SurfaceSpec({self})"


def _reduce_relation(p: MultiPoly, S: SurfaceSpec) -> MultiPoly:
    # subtract (p's terms divisible by x^m*y, divided by it) * monic relation until none is left
    while "x" in p.variables and "y" in p.variables and (quotient := p._cofactor({"x": S.m, "y": 1})):
        p = p - quotient * S.monic
    return p


class SurfaceElement:
    """A ring element kept in normal form on its surface."""

    __slots__ = ("surface", "rep")

    def __init__(self, surface: SurfaceSpec, p: MultiPoly):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "rep", surface.reduce(p))

    def __setattr__(self, name, value):
        raise AttributeError("SurfaceElement is immutable")

    @staticmethod
    def _coerce(value, surface: SurfaceSpec) -> "SurfaceElement":
        if isinstance(value, SurfaceElement):
            return value
        if isinstance(value, (MultiPoly, CycScalar, Fraction, int)):
            return surface.element(MultiPoly._coerce(value))
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def _combined(self, other, op) -> "SurfaceElement":
        """op on the representatives of self and other, an element of the same surface."""
        other = SurfaceElement._coerce(other, self.surface)
        if other is NotImplemented:
            return NotImplemented
        if self.surface != other.surface:
            raise ValueError("elements live on different surfaces")
        return SurfaceElement(self.surface, op(self.rep, other.rep))

    def __add__(self, other) -> "SurfaceElement":
        return self._combined(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "SurfaceElement":
        return SurfaceElement(self.surface, -self.rep)

    def __sub__(self, other) -> "SurfaceElement":
        return self._combined(other, operator.sub)

    def __rsub__(self, other) -> "SurfaceElement":
        return (-self) + other

    def __mul__(self, other) -> "SurfaceElement":
        return self._combined(other, operator.mul)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SurfaceElement":
        return SurfaceElement(self.surface, self.rep ** k)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (MultiPoly, CycScalar, Fraction, int)):
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

    def __repr__(self) -> str:
        return f"SurfaceElement({self.rep})"


def normal_form(p: PolyLike, S: SurfaceSpec) -> SurfaceElement:
    return S.element(MultiPoly._coerce(p))


def elements_equal(p: SurfaceElement, q: SurfaceElement) -> bool:
    if p.surface != q.surface:
        raise ValueError("elements live on different surfaces")
    return p.rep == q.rep
