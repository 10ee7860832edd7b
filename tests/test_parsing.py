"""Expression grammar, spec parsing, and render round-trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from danisurf.exactnum import CycScalar, zeta
from danisurf.multipoly import MultiPoly
from danisurf.parsing import (ParseError, parse_expression, parse_images,
                              parse_scalar, parse_surface)
from danisurf.surface import SurfaceSpec

from oracles import random_poly

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
