"""Sparse multivariate polynomials over cyclotomic scalars.

A ``MultiPoly`` stores a map from exponent tuples to nonzero ``CycScalar``
coefficients, together with a sorted tuple of variable names.  Unused
variables are pruned, so two polynomials describing the same function have
identical representations and compare equal.  Term order everywhere is
graded lexicographic with respect to the variable tuple.

>>> x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
>>> print((x + y) ** 2)
x^2 + 2*x*y + y^2
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add
from typing import Iterable, Mapping, Union

from .exactnum import CycScalar, ScalarLike, _canonical, _power

PolyLike = Union["MultiPoly", CycScalar, Fraction, int]


class MultiPoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str] = (), terms: Mapping[tuple[int, ...], ScalarLike] | None = None):
        vars_in = tuple(variables)
        order = sorted(range(len(vars_in)), key=vars_in.__getitem__)
        pairs = [(tuple(e), c if isinstance(c, CycScalar) else CycScalar(c)) for e, c in (terms or {}).items()]
        pairs = [(e, c) for e, c in pairs if not c.is_zero()]
        if any(len(e) != len(vars_in) for e, _ in pairs):
            raise ValueError("exponent tuple does not match variable list")
        if any(k < 0 for e, _ in pairs for k in e):
            raise ValueError("negative exponent")
        cleaned: dict[tuple[int, ...], CycScalar] = {}
        _accumulate(cleaned, ((tuple(e[i] for i in order), c) for e, c in pairs))
        _built(tuple(vars_in[i] for i in order), cleaned, prune=True, into=self)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return _built((name,), {(1,): CycScalar(1)}, prune=False)

    @staticmethod
    def constant(value: ScalarLike) -> "MultiPoly":
        c = value if isinstance(value, CycScalar) else CycScalar(value)  # TypeError if no scalar
        return _built((), {(): c} if c else {}, prune=False)

    @staticmethod
    def zero() -> "MultiPoly":
        return _built((), {}, prune=False)

    @staticmethod
    def one() -> "MultiPoly":
        return MultiPoly.constant(1)

    @staticmethod
    def from_pairs(variables: Iterable[str], pairs: Iterable[tuple[tuple[int, ...], ScalarLike]]) -> "MultiPoly":
        return MultiPoly(variables, dict(pairs))

    @staticmethod
    def univariate(name: str, coeffs: Iterable[ScalarLike]) -> "MultiPoly":
        """Polynomial in one variable from ascending coefficients."""
        return MultiPoly((name,), {(e,): c for e, c in enumerate(coeffs)})

    @staticmethod
    def _coerce(value: PolyLike) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (CycScalar, Fraction, int)):
            return MultiPoly.constant(value)
        return NotImplemented  # type: ignore[return-value]

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.variables

    def as_scalar(self) -> CycScalar:
        if self.variables:
            raise ValueError(f"{self} is not a constant")
        return self.terms.get((), CycScalar(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        if var not in self.variables:
            return 0 if self.terms else -1
        i = self.variables.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def coefficient_of(self, var: str, power: int) -> "MultiPoly":
        """Coefficient of var**power, a polynomial in the other variables."""
        if var not in self.variables:
            return self if power == 0 else MultiPoly.zero()
        i = self.variables.index(var)
        rest = self.variables[:i] + self.variables[i + 1:]
        picked = {e[:i] + e[i + 1:]: c for e, c in self.terms.items() if e[i] == power}
        return _built(rest, picked, prune=True)

    def leading_coefficient(self, var: str) -> CycScalar:
        lc = self.coefficient_of(var, self.degree_in(var))
        return lc.as_scalar()

    def exponent_support(self, var: str) -> tuple[int, ...]:
        """Sorted exponents of a nonzero polynomial depending only on ``var``."""
        if self.is_zero():
            raise ValueError("zero polynomial has no exponent support")
        if any(v != var for v in self.variables):
            raise ValueError(f"polynomial depends on more than {var!r}")
        if not self.variables:
            return (0,)
        return tuple(sorted(e[0] for e in self.terms))

    def depends_only_on(self, var: str) -> bool:
        return all(v == var for v in self.variables)

    # -- arithmetic -------------------------------------------------------

    def _widened(self, names: tuple[str, ...]) -> dict:
        """The terms with exponents over ``names``, a sorted superset of the variables."""
        if self.variables == names:
            return self.terms
        idx = [self.variables.index(n) if n in self.variables else -1 for n in names]
        return {tuple(e[i] if i >= 0 else 0 for i in idx): c for e, c in self.terms.items()}

    def __add__(self, other: PolyLike) -> "MultiPoly":
        other = MultiPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        names = tuple(sorted({*self.variables, *other.variables}))
        terms = dict(self._widened(names))
        return _built(names, terms, prune=_accumulate(terms, other._widened(names).items()))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _built(self.variables, {e: -c for e, c in self.terms.items()}, prune=False)

    def __sub__(self, other: PolyLike) -> "MultiPoly":
        other = MultiPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: PolyLike) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: PolyLike) -> "MultiPoly":
        other = MultiPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        names = tuple(sorted({*self.variables, *other.variables}))
        a, b = self._widened(names), other._widened(names)
        rational = all(c.conductor == 1 for p in (a, b) for c in p.values())
        (da, a), (db, b) = _unboxed(a, rational), _unboxed(b, rational)
        out = _boxed(_convolve(a, b), da * db, rational)
        # over a domain a nonzero product uses every variable of its factors
        return _built(names, out, prune=not out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, k, MultiPoly.one())

    # -- calculus and substitution ----------------------------------------

    def partial_derivative(self, var: str) -> "MultiPoly":
        if var not in self.variables:
            return MultiPoly.zero()
        i = self.variables.index(var)
        out = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]}
        return _built(self.variables, out, prune=True)

    def substitute(self, images: Mapping[str, PolyLike]) -> "MultiPoly":
        """Ring-homomorphism evaluation; variables without an image map to themselves.
        All-rational input runs on integers: with self = N / D and image v = N_v / D_v, the
        term c*prod(v^k) lands on the common denominator D*prod(D_v^K_v), K_v = deg_v self."""
        table = [MultiPoly._coerce(images[v]) if v in images else MultiPoly.variable(v)
                 for v in self.variables]
        names = tuple(sorted({n for p in table for n in p.variables}))
        rational = all(c.conductor == 1 for p in (self, *table) for c in p.terms.values())
        den, terms = _unboxed(self.terms, rational)
        unboxed = [_unboxed(p._widened(names), rational) for p in table]
        top = [max(ks) for ks in zip(*self.terms)]
        powers = [[img] for _, img in unboxed]  # powers[i][k - 1]: numerators of image i to the k
        zero, acc = (0,) * len(names), {}
        for e, c in terms:
            scale = prod(d ** (t - k) for (d, _), t, k in zip(unboxed, top, e))
            part = [(zero, c * scale if rational else c)]
            for cache, k in zip(powers, e):
                while len(cache) < k:
                    cache.append(_convolve(cache[-1], cache[0]))
                if k:
                    part = _convolve(part, cache[k - 1])
            for ep, cp in part:
                acc[ep] = acc[ep] + cp if ep in acc else cp
        den *= prod(d ** t for (d, _), t in zip(unboxed, top))
        return _built(names, _boxed(acc.items(), den, rational), prune=True)

    def divide_by_variable(self, var: str) -> "MultiPoly":
        """Exact division by ``var``; every term must contain it."""
        if self.is_zero():
            return self
        if var not in self.variables:
            raise ValueError(f"{self} is not divisible by {var}")
        i = self.variables.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                raise ValueError(f"{self} is not divisible by {var}")
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c
        return _built(self.variables, out, prune=True)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (CycScalar, Fraction, int)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        if not self.variables:  # a constant hashes as its scalar, which it equals
            return hash(self.as_scalar())
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- rendering --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], CycScalar]]:
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def _monomial_str(self, exps: tuple[int, ...]) -> str:
        pieces = []
        for v, e in zip(self.variables, exps):
            if e == 1:
                pieces.append(v)
            elif e > 1:
                pieces.append(f"{v}^{e}")
        return "*".join(pieces)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for exps, coeff in self.sorted_terms():
            mono = self._monomial_str(exps)
            if coeff.is_rational():
                q = coeff.as_rational()
                sign = "-" if q < 0 else "+"
                mag = abs(q)
                if not mono:
                    body = str(mag)
                elif mag == 1:
                    body = mono
                else:
                    body = f"{mag}*{mono}"
            else:
                sign = "+"
                body = f"({coeff})*{mono}" if mono else f"({coeff})"
            if not out:
                out.append(body if sign == "+" else f"-{body}")
            else:
                out.append(f" {sign} {body}")
        return "".join(out)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _unboxed(terms: dict, rational: bool) -> tuple[int, list]:
    """(D, [(e, n), ...]) with each rational coefficient equal to the integer n / D, D the lcm;
    (1, the terms) unchanged when some coefficient is cyclotomic."""
    if not rational:
        return 1, list(terms.items())
    D = lcm(*(c.den for c in terms.values()))
    return D, [(e, c.nums[0] * (D // c.den)) for e, c in terms.items()]


def _convolve(a: Iterable, b: Iterable) -> list:
    """The nonzero terms of the product of two term lists over one variable tuple, with
    int or CycScalar coefficients: the one pair loop of products and substitution."""
    acc = {}
    for ea, ca in a:
        for eb, cb in b:
            e = tuple(map(add, ea, eb))
            acc[e] = acc[e] + ca * cb if e in acc else ca * cb
    return [(e, c) for e, c in acc.items() if c]


def _boxed(pairs: Iterable, D: int, rational: bool) -> dict:
    """The nonzero terms as CycScalars, from integer numerators over D if rational."""
    if not rational:
        return {e: c for e, c in pairs if c}
    return {e: _canonical(1, (n,), D) for e, n in pairs if n}


def _accumulate(dst: dict, pairs: Iterable) -> bool:
    """Add (exponents, coefficient) pairs over one variable tuple into ``dst``; True if a term cancelled."""
    cancelled = False
    for e, c in pairs:
        if e in dst and (c := dst[e] + c).is_zero():
            del dst[e]
            cancelled = True
        else:
            dst[e] = c
    return cancelled


def _built(variables: tuple[str, ...], terms: dict, prune: bool, into: MultiPoly | None = None) -> MultiPoly:
    """Trusted constructor (filling ``into`` if given) from sorted variables and nonzero
    ``CycScalar`` terms; ``prune`` drops the variables that no term uses."""
    if prune:
        used = [i for i in range(len(variables)) if any(e[i] for e in terms)]
        if len(used) < len(variables):
            variables = tuple(variables[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
    p = object.__new__(MultiPoly) if into is None else into
    object.__setattr__(p, "variables", variables)
    object.__setattr__(p, "terms", terms)
    return p
