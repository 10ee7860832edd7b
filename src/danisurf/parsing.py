"""Recursive-descent parser for the expression and spec grammar.

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' ['-'] int)?
    base     := rational | 'zeta' '(' int ')' | variable | '(' expr ')'
    rational := int ('/' int)?

Negative exponents are allowed only on scalar subexpressions (no
variables), which provides exact inverses such as zeta(4)^-1.  Surfaces
are written ``f=<expr>; phi=<expr>`` or ``free: X,Y``; image tables are
written ``x -> <expr>; y -> <expr>; z -> <expr>`` with an optional
leading ``D:`` or ``M:`` tag.

Parse errors carry the 0-based position of the offending token.  A term that is a '*'-product of
unsigned rationals and variable powers is read from plain ints as a key, numerator and denominator that
its sum settles together; any other term, or one past a bound, is reread by the general grammar.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from typing import Collection, Iterator, Optional, Sequence

from .exactnum import CycScalar, _check_conductor, _descended, _prime_factors
from .multipoly import _SHIFT, MultiPoly, _added, _settled
from .surface import SurfaceSpec

MAX_EXPONENT = 64  # bound on a ^ exponent and on the total degree of a power or product
MAX_DIGITS = 1000  # bound on the length of an integer literal and of a numerator or denominator
MAX_DEPTH = 100  # bound on the nesting of parentheses, well within the interpreter's recursion limit
MAX_TERMS = 1 << 16  # a product or power is refused when t_a*t_b (or C(t+k-1, k)) and C(n+D, n) both pass it
MAX_PAIRS = 1 << 22  # a product is refused when t_a*t_b, the number of term pairs it multiplies, passes it
_TOO_LONG = 10 ** MAX_DIGITS


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(->)|([()+\-*/^=;:,])|(\S)")
_KINDS = (None, "int", "name", "arrow", "sym")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token.  The search skips only whitespace, as the last
    group takes any other character that starts no token."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        group, value, pos = match.lastindex, match.group(), match.start()
        if group == 5:
            raise ParseError(f"unexpected character {value!r}", pos)
        if group == 1 and len(value) > MAX_DIGITS:
            raise ParseError(f"integer literal longer than MAX_DIGITS = {MAX_DIGITS} digits", pos)
        tokens.append((_KINDS[group], value, pos))
    return tokens


class _Parser:
    def __init__(self, text: str, allowed_vars: Optional[Sequence[str]] = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = self.depth = 0
        self.allowed_vars = tuple(allowed_vars) if allowed_vars is not None else None

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.index += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None or tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            got = tok[1] if tok else "end of input"
            pos = tok[2] if tok else len(self.text)
            raise ParseError(f"expected {want!r}, found {got!r}", pos)
        return self.next()

    def at_symbol(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "sym" and tok[1] == value

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])

    def entries(self) -> Iterator[tuple[str, str, int]]:
        """The leading name token of each entry of a ';'-separated table.

        The caller parses the rest of an entry before asking for the next one.
        Stray separators are skipped; a table without entries is an error.
        """
        empty = True
        while True:
            while self.at_symbol(";"):
                self.next()
            if self.peek() is None:
                break
            yield self.expect("name")
            empty = False
            if self.peek() is not None:
                self.expect("sym", ";")
        if empty:
            raise ParseError("empty specification", 0)

    # -- expression grammar -------------------------------------------------

    def expr(self) -> MultiPoly:
        """The sum, its monomial terms settled once over their lcm denominator, the others merged once."""
        monomials, names, others, L, sign = [], set(), [], 1, -1 if self.at_symbol("-") and self.next() else 1
        while sign:  # 0 after the last term
            if not self.monomial(sign, monomials, names):
                others.append((self.term(), sign))
                L = _check_conductor(lcm(L, others[-1][0].conductor))  # raise before reading on
            sign = (1 if self.next()[1] == "+" else -1) if self.at_symbol("+") or self.at_symbol("-") else 0
        if not monomials and len(others) == 1 and others[0][1] == 1:
            return others[0][0]
        D = lcm(*[d for _, _, d in monomials])
        nums = _added({}, [(e, n * (D // d)) for e, n, d in monomials])
        head = _settled(tuple(sorted(names)), 1, D, {e: n for e, n in nums.items() if n})
        return head._merged(others) if others else head  # a sum of n terms is linear in n

    def term(self) -> MultiPoly:
        acc = self.factor()
        while self.at_symbol("*"):
            star = self.next()
            rhs = self.factor()
            if (degree := acc.total_degree() + rhs.total_degree()) > MAX_EXPONENT:
                raise ParseError(f"degree above MAX_EXPONENT = {MAX_EXPONENT}", star[2])
            _check_terms(pairs := len(acc.nums) * len(rhs.nums), {*acc.variables, *rhs.variables}, degree, star[2])
            if pairs > MAX_PAIRS:
                raise ParseError(f"more than MAX_PAIRS = {MAX_PAIRS} term pairs to multiply", star[2])
            acc = _bounded(acc * rhs, star[2])
        return acc

    def monomial(self, sign: int, monomials: list, names: set) -> bool:
        """Whether the term, a '*'-product of unsigned rationals and allowed variable powers with raw numerator,
        denominator and degree in bounds (the general path gives it the same value), was read: then its (key,
        sign * numerator, denominator) is in ``monomials``.  ``names`` gains each variable read."""
        tokens, i, allowed = self.tokens, self.index, self.allowed_vars
        n, num, den, degree, key = len(tokens), 1, 1, 0, 0
        while i < n:
            kind, value, _ = tokens[i]
            op, arg = tokens[i + 1][1] if i + 1 < n else None, 1
            if op in ("/", "^"):
                if i + 2 == n or tokens[i + 2][0] != "int":
                    return False
                arg, i = int(tokens[i + 2][1]), i + 2
            i += 1
            after = tokens[i][1] if i < n else None
            if kind == "int" and op != "^" and after != "^" and arg:
                num, den = num * int(value), den * arg
                if num >= _TOO_LONG or den >= _TOO_LONG:
                    return False
            elif kind == "name" and value != "zeta" and op != "/" and (allowed is None or value in allowed):
                degree += arg
                if degree > MAX_EXPONENT:
                    return False
                key += arg << _SHIFT[value]
                names.add(value)
            else:
                return False
            if after != "*":
                self.index = i
                monomials.append((key, sign * num, den))
                return True
            i += 1
        return False

    def factor(self) -> MultiPoly:
        base = self.base()
        if not self.at_symbol("^"):
            return base
        caret = self.next()
        negative = False
        if self.at_symbol("-"):
            self.next()
            negative = True
        _, digits, pos = self.expect("int")
        k = int(digits)
        if k > MAX_EXPONENT or k * base.total_degree() > MAX_EXPONENT:
            raise ParseError(f"exponent or degree above MAX_EXPONENT = {MAX_EXPONENT}", pos)
        if negative:
            if base.variables:
                raise ParseError("negative exponent on a non-scalar expression", caret[2])
            if not base:
                raise ParseError("zero to a negative power", caret[2])
            return _bounded(MultiPoly.constant(base.as_scalar() ** (-k)), caret[2])
        _check_terms(comb(len(base.nums) + k - 1, k) if base else 0, base.variables, k * base.total_degree(), caret[2])
        return _bounded(base ** k, caret[2])

    def base(self) -> MultiPoly:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        kind, value, pos = tok
        if kind == "int":
            self.next()
            num = int(value)
            if self.at_symbol("/"):
                self.next()
                den = int(self.expect("int")[1])
                if den == 0:
                    raise ParseError("zero denominator", pos)
                return MultiPoly.constant(Fraction(num, den))
            return MultiPoly.constant(num)
        if kind == "name" and value == "zeta":
            self.next()
            self.expect("sym", "(")
            n = int(self.expect("int")[1])
            self.expect("sym", ")")
            if n < 1:
                raise ParseError("zeta index must be >= 1", pos)
            return MultiPoly.constant(CycScalar.zeta(n))
        if kind == "name":
            self.next()
            if self.allowed_vars is not None and value not in self.allowed_vars:
                raise ParseError(f"unknown variable {value!r}", pos)
            return MultiPoly.variable(value)
        if kind == "sym" and value == "(":
            self.next()
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than MAX_DEPTH = {MAX_DEPTH}", pos)
            self.depth += 1
            inner = self.expr()
            self.expect("sym", ")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def _check_terms(terms: int, names: Collection[str], degree: int, pos: int) -> None:
    """ParseError at pos if ``terms`` and the C(n + degree, n) monomials in n ``names`` both pass MAX_TERMS."""
    if terms > MAX_TERMS and comb(len(names) + degree, len(names)) > MAX_TERMS:
        raise ParseError(f"more than MAX_TERMS = {MAX_TERMS} terms possible", pos)


def _bounded(p: MultiPoly, pos: int) -> MultiPoly:
    """p, unless a coefficient's denominator or a numerator, in lowest terms at the coefficient's
    own least conductor, has more than MAX_DIGITS digits; each is compared with 10^MAX_DIGITS,
    never turned into text, so any size is cheap.  The stored numerators x over ``den`` are those
    coordinates, up to their gcd with ``den``, when x is rational or the conductor a prime power,
    whose subfields embed by selecting coordinates; only other coefficients descend.  There the
    stored values bound the lowest terms, so when they are all short no gcd is taken."""
    N, D = p.conductor, p.den
    composite = N > 1 and len(_prime_factors(N)) > 1
    if not composite and D < _TOO_LONG and max(
            map(abs, p.nums.values() if N == 1 else chain.from_iterable(p.nums.values())), default=0) < _TOO_LONG:
        return p
    coeffs = ((n,) for n in p.nums.values()) if N == 1 else (
        _descended(N, [x])[1][0] if composite and any(x[1:]) else x for x in p.nums.values())
    sizes = ((D // (g := gcd(D, *x)), *(v // g for v in x)) for x in coeffs)
    if any(abs(n) >= _TOO_LONG for size in sizes for n in size):
        raise ParseError(f"coefficient longer than MAX_DIGITS = {MAX_DIGITS} digits", pos)
    return p


def parse_expression(text: str, allowed_vars: Optional[Sequence[str]] = None) -> MultiPoly:
    parser = _Parser(text, allowed_vars)
    result = parser.expr()
    parser.done()
    return result


def parse_scalar(text: str) -> CycScalar:
    p = parse_expression(text)
    if p.variables:
        raise ParseError("expected a scalar expression", 0)
    return p.as_scalar()


def parse_surface(text: str) -> SurfaceSpec:
    parser = _Parser(text)
    first = parser.peek()
    if first is not None and first[1] == "free":
        parser.next()
        parser.expect("sym", ":")
        names = [parser.expect("name")[1]]
        while parser.at_symbol(","):
            parser.next()
            names.append(parser.expect("name")[1])
        parser.done()
        return SurfaceSpec.free_ring(names)
    usage = "surface spec needs 'f=<expr>; phi=<expr>'"
    table = {}
    for _, key, pos in parser.entries():
        if key not in ("f", "phi") or key in table:
            raise ParseError(usage, pos)
        parser.expect("sym", "=")
        parser.allowed_vars = ("x",) if key == "f" else ("z",)
        table[key] = parser.expr()
    if len(table) != 2:
        raise ParseError(usage, len(text))
    return SurfaceSpec.danielewski(table["f"], table["phi"])


def parse_images(text: str, surface: SurfaceSpec) -> dict[str, MultiPoly]:
    """Image table ``x -> expr; ...`` covering every generator of the surface."""
    parser = _Parser(text, surface.variables)
    first = parser.peek()
    if first and first[1] in ("D", "M", "d", "m") and text.startswith(":", first[2] + 1):
        parser.index = 2  # skip the tag, which is one token 'D:' with no space
    images: dict[str, MultiPoly] = {}
    for _, name, pos in parser.entries():
        if name not in surface.variables:
            raise ParseError(f"unknown generator {name!r}", pos)
        if name in images:
            raise ParseError(f"duplicate image for {name!r}", pos)
        parser.expect("arrow")
        images[name] = parser.expr()
    missing = set(surface.variables) - set(images)
    if missing:
        raise ParseError(f"missing images for {sorted(missing)}", len(text))
    return images
