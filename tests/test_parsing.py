"""Expression grammar, spec parsing, and render round-trips."""

import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from danisurf import parsing
from danisurf.exactnum import CycScalar, zeta
from danisurf.multipoly import MultiPoly
from danisurf.parsing import (MAX_DEPTH, MAX_PAIRS, MAX_TERMS, ParseError, parse_expression, parse_images,
                              parse_scalar, parse_surface)
from danisurf.surface import SurfaceSpec

from oracles import map_add, map_mul, map_neg, random_poly, term_map

x, y, z = (MultiPoly.variable(v) for v in "xyz")


class TestExpressionGrammar:
    def test_two_term_polynomial(self):
        assert parse_expression("x^2*y - z^3") == x ** 2 * y - z ** 3

    def test_zeta_power(self):
        assert parse_expression("zeta(4)^2") == MultiPoly.constant(-1)

    def test_scalar_inverse(self):
        assert parse_expression("zeta(4)^-1") == MultiPoly.constant(zeta(4) ** -1)
        assert parse_expression("(1/2)^-2") == MultiPoly.constant(4)

    def test_non_scalar_inverse_rejected(self):
        with pytest.raises(ParseError, match="non-scalar"):
            parse_expression("y^-1")
        with pytest.raises(ParseError, match="non-scalar"):
            parse_expression("(x + 1)^-2")

    def test_rational_literals(self):
        assert parse_expression("3/4") == MultiPoly.constant(Fraction(3, 4))
        assert parse_expression("-1/2 + x") == x - MultiPoly.constant(Fraction(1, 2))

    def test_parentheses_and_precedence(self):
        assert parse_expression("(x + y)^2") == (x + y) ** 2
        assert parse_expression("2*x^3") == 2 * x ** 3
        assert parse_expression("x + y*z") == x + y * z

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x + $")
        assert err.value.position == 4
        with pytest.raises(ParseError):
            parse_expression("x +")
        with pytest.raises(ParseError):
            parse_expression("x 2")
        # positions inside tables and specs count from the start of the whole text
        S = parse_surface("f=x; phi=z^2")
        with pytest.raises(ParseError, match="unknown variable") as err:
            parse_images("x -> 0; y -> 2*z + w; z -> x", S)
        assert err.value.position == 19
        with pytest.raises(ParseError, match="unknown variable") as err:
            parse_surface("f=x; phi=z^2 + w")
        assert err.value.position == 15
        with pytest.raises(ParseError, match="expected 'name'") as err:
            parse_surface("  free: X, 1")
        assert err.value.position == 11

    def test_parentheses_at_max_depth(self):
        nested = "(" * MAX_DEPTH + "x + zeta(3)" + ")" * MAX_DEPTH
        assert parse_expression(f"{nested}^2 - {nested}") == (x + zeta(3)) ** 2 - x - zeta(3)

    @pytest.mark.parametrize("text,position", [
        ("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), MAX_DEPTH),
        ("x + 2*" + "((" * MAX_DEPTH + "y" + "))" * MAX_DEPTH, 6 + MAX_DEPTH),
        ("(x)+" * 3 + "(" * 3000 + "y", 12 + MAX_DEPTH)], ids=["one past", "twice as deep", "unclosed"])
    def test_parentheses_past_max_depth(self, text, position):
        """The '(' that opens level MAX_DEPTH + 1 is refused before the parser recurses into it."""
        with pytest.raises(ParseError, match=f"MAX_DEPTH = {MAX_DEPTH}") as err:
            parse_expression(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text,position", [
        ("(A+B+C+D+1)^40", 11), ("(A+B+C+D+E+1)^64", 13), ("(A+B+C+D+1)^20*(A+B+C+D+1)^20", 14)])
    def test_expansion_past_max_terms(self, text, position):
        """Refused at its operator before it is expanded: C(44, 4) = 135,751 terms may come of each."""
        with pytest.raises(ParseError, match=f"MAX_TERMS = {MAX_TERMS}") as err:
            parse_expression(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text,terms", [("(x+y+z+1)^64", 47905), ("(x+y+1)^30*(x+y+1)^30", 1891)])
    def test_expansion_within_max_terms(self, text, terms):
        """The term count is bounded by the monomials of its degree too, so 496^2 term pairs are accepted."""
        assert len(parse_expression(text).nums) == terms

    def test_product_past_max_pairs(self):
        """6,545^2 term pairs (47,905 terms, within MAX_TERMS) are refused at the '*' before any is multiplied."""
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"MAX_PAIRS = {MAX_PAIRS}") as err:
            parse_expression("(x+y+z+1)^32*(x+y+z+1)^32")
        assert err.value.position == 12
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("bound,accepted", [(496 ** 2, True), (496 ** 2 - 1, False)])
    def test_product_at_max_pairs(self, monkeypatch, bound, accepted):
        """t_a*t_b equal to MAX_PAIRS is accepted, one more is not; a power is never counted in pairs."""
        monkeypatch.setattr(parsing, "MAX_PAIRS", bound)
        text = "(x+y+1)^30*(x+y+1)^30"
        if accepted:
            assert len(parse_expression(text).nums) == 1891
        else:
            with pytest.raises(ParseError, match=f"MAX_PAIRS = {bound} term pairs"):
                parse_expression(text)
        assert len(parse_expression("(x+y+1)^60").nums) == 1891

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_expression("w + 1", ("x", "y", "z"))

    def test_scalar_helper(self):
        assert parse_scalar("zeta(3) + 1") == zeta(3) + 1
        with pytest.raises(ParseError):
            parse_scalar("x + 1")


class TestSurfaceSpecGrammar:
    def test_relation(self):
        S = parse_surface("f=x^2; phi=z^3")
        assert S.m == 2 and S.d == 3

    def test_free(self):
        S = parse_surface("free: X, Y")
        assert S.variables == ("X", "Y")

    def test_round_trip(self):
        for text in ("f=x^2 + x; phi=z^2", "free: X,Y"):
            assert str(parse_surface(text)) == text

    def test_separators_and_order(self):
        S = parse_surface(";phi = z^3 ;; f = x^2;")
        assert S == parse_surface("f=x^2; phi=z^3")
        with pytest.raises(ParseError, match="empty specification"):
            parse_surface(" ; ")

    def test_errors(self):
        for bad in ("f=x^2", "phi=z^2; g=1", "f=; phi=z", "f=y; phi=z^2"):
            with pytest.raises((ParseError, ValueError)):
                parse_surface(bad)


class TestImageTables:
    def test_derivation_table(self):
        S = parse_surface("f=x; phi=z^2")
        images = parse_images("x -> 0; y -> 2*z; z -> x", S)
        assert images["y"] == 2 * z

    def test_tagged_map(self):
        S = parse_surface("f=x; phi=z^2")
        images = parse_images("M: x -> y; y -> x; z -> z", S)
        assert images["x"] == y

    def test_tags_and_stray_separators(self):
        S = parse_surface("f=x; phi=z^2")
        plain = parse_images("x -> 0; y -> 2*z; z -> x", S)
        for text in ("D: x -> 0; y -> 2*z; z -> x", "  d:;x -> 0;; y -> 2*z ; z -> x;"):
            assert parse_images(text, S) == plain
        for text in ("", " ; ", "M:"):
            with pytest.raises(ParseError, match="empty specification"):
                parse_images(text, S)
        with pytest.raises(ParseError, match="unknown generator"):
            parse_images("D : x -> 0; y -> 2*z; z -> x", S)  # a tag is one token 'D:'

    def test_missing_generator(self):
        S = parse_surface("f=x; phi=z^2")
        with pytest.raises(ParseError, match="missing images"):
            parse_images("x -> 0; y -> 1", S)

    def test_duplicate_generator(self):
        S = parse_surface("f=x; phi=z^2")
        with pytest.raises(ParseError, match="duplicate"):
            parse_images("x -> 0; x -> 1; y -> 0; z -> 0", S)

    def test_foreign_generator(self):
        S = parse_surface("f=x; phi=z^2")
        with pytest.raises(ParseError):
            parse_images("w -> 0; x -> 0; y -> 0; z -> 0", S)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2 ** 30))
def test_poly_render_parse_round_trip(seed):
    p = random_poly(random.Random(seed), max_exp=4, max_terms=5, cyclotomic=True)
    assert parse_expression(str(p)) == p


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 30))
def test_map_render_parse_round_trip(seed):
    from danisurf.diffmaps import RingMap
    from danisurf.isotropy import triangular

    rnd = random.Random(seed)
    S = SurfaceSpec.danielewski(x ** rnd.randint(1, 2), z ** rnd.randint(2, 3))
    T = triangular(S, random_poly(rnd, ("x",), max_exp=2, max_terms=2))
    again = RingMap(S, parse_images(str(T), S))
    assert again == T


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 30))
def test_derivation_render_parse_round_trip(seed):
    from danisurf.diffmaps import Derivation
    from danisurf.isotropy import canonical_lnd

    rnd = random.Random(seed)
    S = SurfaceSpec.danielewski(x ** rnd.randint(1, 2), z ** rnd.randint(2, 3))
    D = canonical_lnd(S, random_poly(rnd, ("x",), max_exp=2, max_terms=2) + 1).derivation
    again = Derivation(S, parse_images(str(D), S))
    assert again == D


# -- terms read as one monomial, and those left to the general path ----------------------

_XYZ = ("x", "y", "z")
_ONE = {(0, 0, 0): Fraction(1)}


def _literal(n, d):
    return (str(n) if d is None else f"{n}/{d}"), ({(0, 0, 0): Fraction(n, d or 1)} if n else {})


def _var_power(v, k):
    return (v if k is None else f"{v}^{k}"), {tuple((1 if k is None else k) if w == v else 0 for w in _XYZ): Fraction(1)}


def _sum(terms):
    """(text, {exponents: coefficient}) of a sum of (sign, [(text, map) of each factor], '*' or ' * ')."""
    text, value = "", {}
    for i, (sign, factors, star) in enumerate(terms):
        text += ("-" if sign < 0 else "") if i == 0 else (" + ", " - ")[sign < 0]
        text += star.join(t for t, _ in factors)
        product = reduce(map_mul, (m for _, m in factors), _ONE)
        value = map_add(value, map_neg(product) if sign < 0 else product)
    return text, value


_MONOMIAL_FACTORS = st.one_of(
    st.builds(_literal, st.integers(0, 30), st.one_of(st.none(), st.integers(1, 12))),
    st.builds(_var_power, st.sampled_from(_XYZ), st.one_of(st.none(), st.integers(0, 4))))
_STAR = st.sampled_from(("*", " * "))


def _sums(factors):
    return st.lists(st.tuples(st.sampled_from((1, -1)), st.lists(factors, min_size=1, max_size=4), _STAR),
                    min_size=1, max_size=4).map(_sum)


_OTHER_FACTORS = st.one_of(
    st.sampled_from((1, 3, 4, 6, 12)).map(lambda k: (f"zeta({k})", {(0, 0, 0): zeta(k)})),
    st.just(("2^3", {(0, 0, 0): Fraction(8)})),
    _sums(_MONOMIAL_FACTORS).map(lambda s: (f"({s[0]})", s[1])))


@settings(deadline=None, max_examples=200)
@given(_sums(st.one_of(_MONOMIAL_FACTORS, _MONOMIAL_FACTORS, _OTHER_FACTORS)))
def test_terms_match_the_oracle(expression):
    """Sums of terms mixing rational literals, powers of x, y, z and factors that are no monomial
    literal (roots of unity, parentheses, a literal to a power), against term-by-term evaluation."""
    text, expected = expression
    got, built = parse_expression(text, _XYZ), MultiPoly(_XYZ, expected)
    assert term_map(got) == expected
    assert got == built and str(got) == str(built)


_A = "7" * 1000


# outputs and messages as the general path alone gives them
_EDGES = [
    ("0*x^40*x^40", None, "0"),
    ("x^40*y^25", None, "degree above MAX_EXPONENT = 64 (at position 4)"),
    (f"{_A}*1/{_A}", None, "1"),
    ("9" * 1000 + "*x*10", None, "coefficient longer than MAX_DIGITS = 1000 digits (at position 1002)"),
    ("2*w", _XYZ, "unknown variable 'w' (at position 2)"),
    ("3/0*x", None, "zero denominator (at position 0)"),
    ("2^3*x", None, "8*x"),
    ("x^-1", None, "negative exponent on a non-scalar expression (at position 1)"),
    ("x^2^3", None, "trailing input '^' (at position 3)"),
    ("2 x", None, "trailing input 'x' (at position 2)"),
    ("x^0*y", None, "y"),
    ("4/6*x*3", None, "2*x"),
    ("x*", None, "unexpected end of input (at position 2)"),
    ("zeta*x", None, "expected '(', found '*' (at position 4)"),
    ("x*y^(2)", None, "expected 'int', found '(' (at position 4)"),
]


@pytest.mark.parametrize("text,allowed,expected", _EDGES,
                         ids=[t if len(t) < 20 else f"{t[0]}-{len(t)}-chars" for t, _, _ in _EDGES])
def test_monomial_edge_cases(text, allowed, expected):
    try:
        got = str(parse_expression(text, allowed))
    except ParseError as err:
        got = str(err)
    assert got == expected


def test_a_long_sum_parses_to_the_polynomial_built_term_by_term():
    """A sum of 4,000 signed terms, merged once after its terms are read: rational and cyclotomic
    coefficients, repeated monomials, and every tenth term cancelling an earlier one."""
    rnd, pieces, expected = random.Random(4), [], {}
    for i in range(4000):
        if i % 10 == 9:
            sign, body, e, c = pieces[rnd.randrange(i - 9, i - 1)]  # a term of the last ten, so none cancels twice
            sign = "+" if sign == "-" else "-"
        else:
            e = (rnd.randint(0, 20), rnd.randint(0, 20), rnd.randint(0, 20))
            q = Fraction(rnd.randint(1, 9), rnd.randint(1, 4))
            c = q * zeta(7, i) if i % 100 == 0 else q
            body = f"{q}*" + (f"zeta(7)^{i % 7}*" if i % 100 == 0 else "") + f"x^{e[0]}*y^{e[1]}*z^{e[2]}"
            sign = rnd.choice("+-")
        pieces.append((sign, body, e, c))
        expected[e] = expected.get(e, 0) + (c if sign == "+" else -c)
    text = "".join(f" {sign} {body}" if k else f"{'-' if sign == '-' else ''}{body}"
                   for k, (sign, body, _, _) in enumerate(pieces))
    assert parse_expression(text) == MultiPoly(("x", "y", "z"), expected)


def test_a_sum_outside_one_field_raises_before_reading_on():
    """A sum raises once the terms read so far need a conductor above MAX_CONDUCTOR, before a later
    syntax error; the bound is on the lcm of all its terms, as a polynomial of them needs it, even
    where some of them cancel."""
    with pytest.raises(ValueError, match="conductor 988027"):
        parse_expression("zeta(997)*x + zeta(991)*x + )")
    with pytest.raises(ValueError, match="conductor 988027"):
        parse_expression("-zeta(991)*x + y + zeta(991)*x + zeta(997)*x")
    assert parse_expression("-zeta(991)*x + y + zeta(991)*x") == y
