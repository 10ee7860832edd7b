"""Derivations and ring endomorphisms of a surface, given by generator images.

A derivation or map is a table generator -> SurfaceElement.  On a relation surface a table is well defined iff
the normal form of its image of the monic relation, (f(x)*y - phi(z))/lc f, is 0 (it spans the same ideal, in
a field no larger), computed by the same rule as ``apply``: Leibniz for a derivation, substitution for a map.
Both kinds share one constructor, which coerces a user table once and refuses it unless this holds, and the
public checks run the same proof.  Tables whose construction proves it (factories, identity, composition,
exponentials) go through ``_trusted``, which skips the re-proof; each caller states its proof, and may defer
an image whose build it shows raises nothing, to build and coerce it on first read (y in ``triangular``).
Commutation with a derivation is decided on generators alone: the defect delta = rho∘D - D∘rho is a
rho-derivation, delta(ab) = delta(a)*rho(b) + rho(a)*delta(b), so vanishing on generators forces it to vanish
everywhere.  On a relation surface x and z suffice once rho(f) != 0, given rho and D well defined on B: f(x)*y -
phi(z) has degree 1 in y and coprime coefficients f(x), phi(z), so it is irreducible and B a domain; delta of the
relation, 0 = f'(rho x)*delta(x)*rho(y) + rho(f)*delta(y) - phi'(rho z)*delta(z), then leaves rho(f)*delta(y) = 0
once delta(x) = delta(z) = 0, so delta(y) = 0.  Normal forms are unique, so the two sides are compared as they
are.  The result records (``CommutationResult``, ``NilpotencyReport``) are immutable ``NamedTuple``s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Callable, Mapping, NamedTuple, Optional

from .exactnum import _Frozen
from .multipoly import MultiPoly, PolyLike
from .surface import SurfaceElement, SurfaceSpec


MAX_CAP = 5000  # bound on an explicit cap; the default cap of a parsed table is at most 2 + 64*65


class CapExceededError(RuntimeError):
    """An iteration bound was hit before the computation settled."""


def _image_table(images: Mapping[str, object], S: SurfaceSpec, deferred: Mapping = {}) -> Mapping[str, SurfaceElement]:
    table = {}
    for name in [v for v in S.variables if v not in deferred]:
        if name not in images:
            raise ValueError(f"missing image for generator {name!r}")
        table[name] = S.element(images[name])
    extra = set(images) - set(S.variables)
    if extra:
        raise ValueError(f"images given for unknown generators {sorted(extra)}")
    return _Images(S, table, deferred) if deferred else table


def _leibniz(table: Mapping[str, SurfaceElement], p: MultiPoly) -> MultiPoly:
    """sum dp/dv * D(v) over the generators, on representatives, in one merge of the products."""
    return MultiPoly.zero()._merged([(part * dv.rep, 1) for v, dv in table.items()
                                     if dv and (part := p.partial_derivative(v))])


def _substituted(table: Mapping[str, SurfaceElement], p: MultiPoly) -> MultiPoly:
    """p at the images of its own variables, on representatives; no other image is read."""
    return p.substitute({v: table[v].rep for v in p.variables})


class _Images(Mapping):
    """Generator -> image; a deferred image is built on first read, and ``setdefault`` keeps one if threads race."""

    def __init__(self, surface: SurfaceSpec, table: dict, deferred: Mapping[str, Callable[[], object]]):
        self._surface, self._table, self._deferred = surface, table, deferred

    def __getitem__(self, v: str) -> SurfaceElement:
        return self._table[v] if v in self._table else self._table.setdefault(
            v, self._surface.element(self._deferred[v]()))

    def __iter__(self):
        return iter(self._surface.variables)

    def __len__(self) -> int:
        return len(self._surface.variables)

    def __reduce__(self):  # a deferred build is a closure, so a copy or pickle holds every image built
        return dict, (dict(self),)


def _trusted(cls: type, surface: SurfaceSpec, images: Mapping[str, object],
             deferred: Mapping[str, Callable[[], object]] = {}):
    """A RingMap or Derivation whose caller proved its images well defined: coerced, reduced, not re-proved;
    a deferred image is one whose build the caller shows cannot raise, so reading it raises nothing new."""
    return object.__new__(cls)._fill((surface, _image_table(images, surface, deferred)))


def check_derivation_well_defined(images: Mapping[str, object], S: SurfaceSpec) -> bool:
    """True iff the image table extends to a derivation of the quotient ring: D(relation) reduces to 0."""
    return Derivation._holds(_image_table(images, S), S)  # the table is checked on a free surface too


def check_map_well_defined(images: Mapping[str, object], S: SurfaceSpec) -> bool:
    """True iff the image table preserves the relation ideal: the relation's image reduces to 0."""
    return RingMap._holds(_image_table(images, S), S)  # the table is checked on a free surface too


class _ImageTable(_Frozen):
    """An immutable table generator -> image on a surface, built, proved and applied by the ``_rule`` (Leibniz or
    substitution) of its kind, which gives only that rule, its tag and its refusal message.  Each kind binds
    ``__init__`` and ``apply`` in its own namespace, so either kind's can be wrapped alone (``bench/tracer.py``)."""

    __slots__ = ("surface", "images")
    _tag = ""

    def _proved(self, surface: SurfaceSpec, images: Mapping[str, object]):
        if not self._holds(table := _image_table(images, surface), surface):
            raise ValueError(self._refusal)
        self._fill((surface, table))

    @classmethod
    def _holds(cls, table: Mapping[str, SurfaceElement], S: SurfaceSpec) -> bool:
        return S.is_free or S.reduce(cls._rule(table, S.monic)).is_zero()

    def _applied(self, p: SurfaceElement | PolyLike) -> SurfaceElement:
        return self.surface.element(self._rule(self.images, self.surface.element(p).rep))

    def __call__(self, p) -> SurfaceElement:
        return self.apply(p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.surface == other.surface and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.surface, tuple(sorted((v, e.rep) for v, e in self.images.items()))))

    def __str__(self) -> str:
        body = "; ".join(f"{v} -> {self.images[v]}" for v in self.surface.variables)
        return f"{self._tag}: {body}"


class Derivation(_ImageTable):
    """A K-linear derivation of the surface ring, defined by generator images."""

    __slots__ = ()
    _tag, _rule, _refusal = "D", staticmethod(_leibniz), "images do not define a derivation of the quotient ring"
    __init__, apply = _ImageTable._proved, _ImageTable._applied

    @staticmethod
    def zero(surface: SurfaceSpec) -> "Derivation":
        """The zero derivation; it sends the relation to 0."""
        return _trusted(Derivation, surface, {v: 0 for v in surface.variables})

    def is_zero(self) -> bool:
        return all(el.is_zero() for el in self.images.values())

    def scaled_by(self, w: SurfaceElement | PolyLike) -> "Derivation":
        """The derivation w*D for a kernel element w; (w*D)(relation) = w*0."""
        w = self.surface.element(w)
        if not self.apply(w).is_zero():
            raise ValueError("scaling factor is not in the kernel of the derivation")
        return _trusted(Derivation, self.surface, {v: w * el for v, el in self.images.items()})

    def default_cap(self) -> int:
        if self.surface.is_free:
            return 32
        degx = max(el.rep.degree_in("x") for el in self.images.values())
        return 2 + self.surface.d * (1 + max(degx, 0))


class RingMap(_ImageTable):
    """A ring endomorphism of the surface ring, defined by generator images."""

    __slots__ = ()
    _tag, _rule, _refusal = "M", staticmethod(_substituted), "images do not preserve the relation ideal"
    __init__, apply = _ImageTable._proved, _ImageTable._applied

    @staticmethod
    def identity(surface: SurfaceSpec) -> "RingMap":
        """The identity map; it fixes the relation."""
        return _trusted(RingMap, surface, {v: surface.gen(v) for v in surface.variables})

    def is_identity(self) -> bool:
        return all(self.images[v] == self.surface.gen(v) for v in self.surface.variables)

    def compose(self, inner: "RingMap") -> "RingMap":
        """self(inner(p)); inner sends the relation into the ideal, and self sends that to 0."""
        if self.surface != inner.surface:
            raise ValueError("maps live on different surfaces")
        return _trusted(RingMap, self.surface, {v: self.apply(el) for v, el in inner.images.items()})


def apply_derivation(D: Derivation, p: SurfaceElement) -> SurfaceElement:
    return D.apply(p)


def apply_map(rho: RingMap, p: SurfaceElement) -> SurfaceElement:
    return rho.apply(p)


def compose_maps(rho: RingMap, sigma: RingMap) -> RingMap:
    return rho.compose(sigma)


class CommutationResult(NamedTuple):
    commutes: bool
    generator: Optional[str] = None
    difference: Optional[SurfaceElement] = None

    def __bool__(self) -> bool:
        return self.commutes


def commutes(rho: RingMap, D: Derivation) -> CommutationResult:
    """Decide rho∘D = D∘rho, with the first generator witness on failure.  For well-defined rho and D on a
    relation surface, a domain, agreement at x and z with rho(f) != 0 proves it at y (module docstring)."""
    S = rho.surface
    if S != D.surface:
        raise ValueError("map and derivation live on different surfaces")
    sides = {}  # v -> (rho(D(v)), D(rho(v))), each computed at most once
    side = lambda v: sides.get(v) or sides.setdefault(v, (rho.apply(D.images[v]), D.apply(rho.images[v])))
    if (not S.is_free and all(left.rep == right.rep for left, right in map(side, "xz"))
            and not rho.apply(S.f).is_zero()):
        return CommutationResult(True)
    for v in S.variables:
        left, right = side(v)
        if left.rep != right.rep:  # normal forms are unique, so only the witness needs left - right
            return CommutationResult(False, v, left - right)
    return CommutationResult(True)


class NilpotencyReport(NamedTuple):
    indices: dict[str, Optional[int]]  # None marks "exceeded cap"
    cap: int

    @property
    def all_nilpotent(self) -> bool:
        return all(k is not None for k in self.indices.values())

    @property
    def inconclusive(self) -> bool:
        return any(k is None for k in self.indices.values())

    def __str__(self) -> str:
        parts = [
            f"{v}: {'exceeded cap' if k is None else k}"
            for v, k in self.indices.items()
        ]
        verdict = "locally nilpotent" if self.all_nilpotent else "inconclusive"
        return f"{'; '.join(parts)} (cap {self.cap}) -> {verdict}"


def _checked_cap(D: Derivation, cap: Optional[int]) -> int:
    """The given cap, within 1..MAX_CAP, or else D's default cap."""
    if cap is None:
        return D.default_cap()
    if cap < 1:
        raise ValueError("cap must be positive")
    if cap > MAX_CAP:
        raise ValueError(f"cap above MAX_CAP = {MAX_CAP}")
    return cap


def _powers(D: Derivation, v: str):
    """D(v), D^2(v), ... while nonzero; each is computed only when asked for."""
    current = D.images[v]
    while not current.is_zero():
        yield current
        current = D.apply(current)


def is_locally_nilpotent(D: Derivation, cap: Optional[int] = None) -> NilpotencyReport:
    """Iterate D on each generator; exceeding the cap is inconclusive, not a disproof."""
    cap = _checked_cap(D, cap)
    counts = {v: sum(1 for _ in islice(_powers(D, v), cap)) for v in D.surface.variables}
    return NilpotencyReport({v: n + 1 if n < cap else None for v, n in counts.items()}, cap)


def kernel_contains(D: Derivation, p: SurfaceElement | PolyLike) -> bool:
    return D.apply(p).is_zero()


def scale_by_kernel(D: Derivation, w: SurfaceElement | PolyLike) -> Derivation:
    return D.scaled_by(w)


def exp_derivation(D: Derivation, cap: Optional[int] = None) -> RingMap:
    """The exponential automorphism v -> sum_k D^k(v)/k! of a locally nilpotent D, not re-proved: D is
    a derivation (proved or factory-built) nilpotent on the generators, so locally nilpotent, and in
    characteristic 0 exp(D) is a ring automorphism (Freudenburg, ch. 1)."""
    cap = _checked_cap(D, cap)
    images = {}
    for v in D.surface.variables:
        powers = list(islice(_powers(D, v), cap + 1))  # summed only once some D^k(v) is 0
        if len(powers) > cap:
            raise CapExceededError(f"inconclusive: D^k({v}) is nonzero for every k <= {cap}")
        terms = [(p.rep * Fraction(1, math.factorial(k)), 1) for k, p in enumerate(powers, 1)]
        images[v] = MultiPoly.variable(v)._merged(terms)
    return _trusted(RingMap, D.surface, images)
