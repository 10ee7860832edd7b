"""Sparse polynomial arithmetic, substitution, derivatives, support queries."""

import operator
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from danisurf.exactnum import MAX_CONDUCTOR, CycScalar, euler_phi, zeta
from danisurf.multipoly import MultiPoly, _guard, _parts, _unpacked
from danisurf.surface import SurfaceSpec

from oracles import (Dense, dense_map, map_add, map_derivative, map_mul, map_neg, map_substitute, pick_max,
                     random_poly, reduce_mod_cyclotomic, reduce_with_strategy, render_with_fractions, term_map)

x, y, z = (MultiPoly.variable(v) for v in "xyz")


def _polys(variables=("x", "y", "z"), cyclotomic=False):
    return st.integers(0, 2 ** 30).map(
        lambda seed: random_poly(random.Random(seed), variables, cyclotomic=cyclotomic))


class TestArith:
    def test_binomial_square(self):
        assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2

    def test_multiply_by_zero(self):
        p = 3 * x ** 2 * y - z
        assert (p * MultiPoly.zero()).is_zero()
        assert (p * 0).is_zero()

    def test_cancellation_leaves_empty_term_map(self):
        d = z ** 2 - z ** 2
        assert d.is_zero()
        assert d.terms == {}
        assert d.variables == ()

    def test_unifies_disjoint_variable_lists(self):
        p = MultiPoly.variable("x") + 1
        q = MultiPoly.variable("z") ** 2
        assert (p * q).variables == ("x", "z")
        assert p * q == x * z ** 2 + z ** 2

    def test_pow_matches_repeated_multiplication(self):
        rnd = random.Random(5)
        for _ in range(20):
            p = random_poly(rnd, ("x", "z"), max_exp=2, max_terms=3)
            k = rnd.randint(0, 4)
            naive = MultiPoly.one()
            for _ in range(k):
                naive = naive * p
            assert p ** k == naive

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            (x + 1) ** -1


class TestSubstitute:
    def test_shift_z(self):
        assert (z ** 2).substitute({"z": z + x}) == z ** 2 + 2 * x * z + x ** 2

    def test_scale_x(self):
        lam = zeta(3)
        assert x.substitute({"x": MultiPoly.constant(lam) * x}) == MultiPoly.constant(lam) * x

    def test_cube_shift_matches_repeated_multiplication(self):
        image = z + x
        oracle = image * image * image
        assert (z ** 3).substitute({"z": image}) == oracle
        assert oracle == z ** 3 + 3 * z ** 2 * x + 3 * z * x ** 2 + x ** 3

    def test_missing_image_is_identity(self):
        p = x * y + z
        assert p.substitute({"y": y}) == p

    def test_scalar_images(self):
        assert (x ** 2 + y).substitute({"x": 2, "y": Fraction(1, 2)}) == Fraction(9, 2)


class TestPartialDerivative:
    def test_z_cubed(self):
        assert (z ** 3).partial_derivative("z") == 3 * z ** 2

    def test_mixed(self):
        assert (x ** 2 * y).partial_derivative("y") == x ** 2

    def test_constant(self):
        assert MultiPoly.constant(Fraction(7, 3)).partial_derivative("x").is_zero()
        assert (z ** 4).partial_derivative("x").is_zero()

    def test_conductor_stays_least_unless_a_term_drops(self):
        """k*c has c's least conductor, so the conductor only falls when a term drops."""
        p = zeta(3) * x ** 2 + zeta(5) * x
        with mock.patch("danisurf.multipoly._descended", side_effect=AssertionError("descended")):
            kept = p.partial_derivative("x")
        assert (kept.conductor, kept) == (15, 2 * zeta(3) * x + zeta(5))
        dropped = (zeta(3) * x + zeta(5)).partial_derivative("x")
        assert (dropped.conductor, dropped) == (3, MultiPoly.constant(zeta(3)))


class TestExponentSupport:
    def test_one_plus_x(self):
        assert (1 + x).exponent_support("x") == (0, 1)

    def test_monomial(self):
        assert (x ** 3).exponent_support("x") == (3,)

    def test_constant(self):
        assert MultiPoly.constant(5).exponent_support("x") == (0,)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.zero().exponent_support("x")

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError):
            (x * y).exponent_support("x")

    def test_support_and_coefficients_reconstruct(self):
        rnd = random.Random(11)
        for _ in range(50):
            g = random_poly(rnd, ("x",), max_exp=6, max_terms=4)
            if g.is_zero():
                continue
            rebuilt = MultiPoly.zero()
            for e in g.exponent_support("x"):
                rebuilt = rebuilt + MultiPoly.constant(g.coefficient_of("x", e).as_scalar()) * x ** e
            assert rebuilt == g


@settings(deadline=None, max_examples=60)
@given(_polys(), _polys(), _polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(deadline=None, max_examples=40)
@given(_polys(cyclotomic=True), _polys(cyclotomic=True), st.integers(0, 2 ** 30))
def test_substitution_is_a_ring_homomorphism(p, q, seed):
    rnd = random.Random(seed)
    images = {v: random_poly(rnd, ("x", "z"), max_exp=1, max_terms=2)
              for v in ("x", "y", "z")}
    assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)
    assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


@settings(deadline=None, max_examples=60)
@given(_polys(), _polys(), st.sampled_from(["x", "y", "z"]))
def test_leibniz_rule(p, q, v):
    lhs = (p * q).partial_derivative(v)
    rhs = p * q.partial_derivative(v) + q * p.partial_derivative(v)
    assert lhs == rhs


def test_canonical_rendering_order():
    p = z ** 3 - x ** 2 * y
    assert str(p) == "-x^2*y + z^3"
    assert str(MultiPoly.zero()) == "0"
    assert str(x - 1) == "x - 1"
    assert str(MultiPoly.constant(zeta(3)) * x + 1) == "(zeta(3))*x + 1"


_RENDER_EXPS = st.tuples(st.integers(0, 2), st.integers(0, 2))
_RENDER_COEFFS = (st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 12))
                  | st.sampled_from([Fraction(1), Fraction(-1)]))  # magnitude 1: a bare monomial


@settings(deadline=None)
@given(st.dictionaries(_RENDER_EXPS, _RENDER_COEFFS, max_size=6),
       st.none() | st.tuples(_RENDER_EXPS, st.sampled_from([zeta(3), zeta(7, 2) + 1, Fraction(-2, 9) * zeta(5)])))
@example({(1, 0): Fraction(1), (0, 1): Fraction(1, 3)}, None)  # magnitude 1 over a common den of 3
@example({(0, 0): Fraction(-7, 12), (2, 1): Fraction(-1)}, ((1, 0), zeta(3)))  # constant; -1 at N = 3
@example({(0, 0): Fraction(6, 4), (1, 1): Fraction(-5)}, None)
def test_str_matches_fraction_renderer(coeffs, cyclotomic):
    """Rational coefficients render from the integers exactly as from one Fraction per term."""
    terms = dict(coeffs)
    if cyclotomic is not None:
        terms[cyclotomic[0]] = cyclotomic[1]
    p = MultiPoly(("x", "y"), terms)
    assert str(p) == render_with_fractions(p)


class TestTrustedConstructors:
    @pytest.mark.parametrize("c", [2, Fraction(-3, 4), CycScalar(5), zeta(3), zeta(12) + 1])
    def test_constant_matches_validating_constructor(self, c):
        built = MultiPoly.constant(c)
        assert built == MultiPoly((), {(): c}) and built.variables == () and built.terms == {(): c}

    @pytest.mark.parametrize("c", [0, Fraction(0), CycScalar(0), zeta(4) ** 2 + 1])
    def test_constant_zero_is_the_empty_polynomial(self, c):
        assert MultiPoly.constant(c).terms == {} and MultiPoly.constant(c) == MultiPoly.zero()

    @pytest.mark.parametrize("value", ["x", 1.5, None, x])
    def test_constant_rejects_non_scalars(self, value):
        with pytest.raises(TypeError):
            MultiPoly.constant(value)

    def test_variable_one_and_zero(self):
        assert x.variables == ("x",) and x.terms == {(1,): CycScalar(1)}
        assert MultiPoly.one() == MultiPoly((), {(): 1}) == 1
        assert MultiPoly.zero() == MultiPoly() and not MultiPoly.zero().variables

    def test_scalar_operands_are_coerced(self):
        assert x * Fraction(1, 2) + zeta(3) == MultiPoly(("x",), {(1,): Fraction(1, 2), (0,): zeta(3)})
        assert x + 0 == x and (x * 0).is_zero()


def test_equality_ignores_phantom_variables():
    p = MultiPoly(("x", "y"), {(2, 0): CycScalar(1)})
    assert p == x ** 2
    assert p.variables == ("x",)


def test_repeated_variable_name_is_rejected():
    """x*x^2 over ("x", "x") would print as such and differ from x^3."""
    with pytest.raises(ValueError, match="duplicate variable names"):
        MultiPoly(("x", "x"), {(1, 2): 1})
    with pytest.raises(ValueError, match="duplicate variable names"):
        MultiPoly.from_pairs(("y", "x", "y"), [])


@pytest.mark.parametrize("c", [0, 2, -7, Fraction(3, 4), CycScalar(Fraction(-1, 3)),
                               zeta(7), zeta(12) + 2])
def test_constant_hashes_as_its_scalar(c):
    p = MultiPoly.constant(c)
    assert p == c and hash(p) == hash(c)
    assert len({p, c}) == 1


# -- differential tests of the arithmetic against the term-by-term oracle ------

_XYZ = ("x", "y", "z")


def _term_maps(max_exp=3, max_size=6, coeff=st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))):
    """Sparse {exponents: coefficient} maps in x, y, z, by default Fractions with denominators
    1-12 and both signs, drawn as often as not as the zero polynomial or a constant."""
    sparse = st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * 3), coeff, max_size=max_size)
    constant = coeff.map(lambda c: {(0, 0, 0): c})
    return st.one_of(st.just({}), constant, sparse, sparse).map(
        lambda m: {e: c for e, c in m.items() if c})


def _check_representation(p):
    """Sorted, pruned variables and nonzero CycScalar coefficients."""
    assert isinstance(p.variables, tuple) and list(p.variables) == sorted(set(p.variables))
    for i in range(len(p.variables)):
        assert any(e[i] for e in p.terms)
    for e, c in p.terms.items():
        assert len(e) == len(p.variables)
        assert isinstance(c, CycScalar) and not c.is_zero()


def _check_against_oracle(a, b, images):
    p, q = MultiPoly(_XYZ, a), MultiPoly(_XYZ, b)
    cases = [(p * q, map_mul(a, b)), (p + q, map_add(a, b)), (p - q, map_add(a, map_neg(b))),
             (p.substitute(dict(zip(_XYZ, (MultiPoly(_XYZ, m) for m in images)))),
              map_substitute(a, images))]
    for result, expected in cases:
        _check_representation(result)
        assert term_map(result) == expected


@settings(deadline=None, max_examples=150)
@given(_term_maps(), _term_maps(), st.booleans(),
       st.lists(_term_maps(max_exp=1, max_size=3), min_size=3, max_size=3))
def test_rational_arithmetic_matches_oracle(a, b, conjugate, images):
    if conjugate:  # (a + b) * (a - b): the cross terms cancel
        a, b = map_add(a, b), map_add(a, map_neg(b))
    _check_against_oracle(a, b, images)


@settings(deadline=None, max_examples=60)
@given(_term_maps(), _term_maps(), st.integers(0, 5), st.booleans(),
       st.lists(_term_maps(max_exp=1, max_size=3), min_size=3, max_size=3))
def test_one_cyclotomic_coefficient_matches_oracle(a, b, pick, conjugate, images):
    a = a or {(0, 0, 0): Fraction(1)}
    e = sorted(a)[pick % len(a)]
    a = {**a, e: zeta(12) * a[e]}
    if conjugate:  # cyclotomic cross terms cancel in the product
        a, b = map_add(a, b), map_add(a, map_neg(b))
    _check_against_oracle(a, b, images)
    _check_against_oracle(b, a, images)



def _power_map(base: dict, k: int) -> dict:
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(k):
        out = map_mul(out, base)
    return out


def _stacked(var: int):
    """(x_var/a + 1/b)^k for small a, b: each power stacks another denominator."""
    unit = tuple(int(i == var) for i in range(3))
    return st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(0, 4)).map(
        lambda t: _power_map({unit: Fraction(1, t[0]), (0, 0, 0): Fraction(1, t[1])}, t[2]))


def _image_maps():
    """Per variable: missing (None), zero, a constant, a stacked power or a sparse map."""
    def one(var):
        return st.one_of(st.none(), st.just({}), _term_maps(max_exp=0, max_size=1),
                         _stacked(var), _stacked((var + 1) % 3), _term_maps(max_exp=1, max_size=3))
    return st.tuples(*(one(var) for var in range(3))).map(list)


def _check_substitute(a, images):
    identity = [{tuple(int(i == v) for i in range(3)): Fraction(1)} for v in range(3)]
    table = {name: MultiPoly(_XYZ, m) for name, m in zip(_XYZ, images) if m is not None}
    result = MultiPoly(_XYZ, a).substitute(table)
    _check_representation(result)
    expected = map_substitute(a, [i if m is None else m for m, i in zip(images, identity)])
    assert term_map(result) == expected


@settings(deadline=None, max_examples=150)
@given(_term_maps(), _image_maps(), st.lists(st.integers(1, 4), min_size=3, max_size=3))
def test_integer_substitute_matches_oracle(a, images, degrees):
    """The all-rational substitute against term-by-term expansion, with stacked denominators
    in the images and in a: the result sits on the common denominator D*prod(D_v^K_v)."""
    stacked = _power_map({(1, 0, 0): Fraction(1, 6), (0, 1, 0): Fraction(-1, 4),
                          (0, 0, 1): Fraction(2, 9)}, degrees[0])
    _check_substitute(map_add(a, stacked), images)
    _check_substitute(a, images)


@settings(deadline=None, max_examples=60)
@given(_term_maps(), _image_maps(), st.integers(0, 2))
def test_one_cyclotomic_image_takes_the_scalar_path(a, images, which):
    """A rational polynomial with one cyclotomic image: the fallback path on CycScalars."""
    image = images[which] or {(0, 0, 0): Fraction(1)}
    images[which] = {**image, (0, 0, 0): zeta(12) + image.get((0, 0, 0), 0)}
    _check_substitute(a, images)


def test_substitute_denominator_stacks_exactly():
    image = Fraction(1, 6) * x + Fraction(1, 4)
    p = Fraction(1, 5) * z ** 3 + Fraction(1, 7) * x ** 2 - Fraction(1, 3)
    got = p.substitute({"x": image, "z": image ** 2})
    assert got == Fraction(1, 5) * image ** 6 + Fraction(1, 7) * image ** 2 - Fraction(1, 3)
    assert p.substitute({"x": 0, "z": Fraction(1, 2)}) == Fraction(1, 40) - Fraction(1, 3)


# -- cyclotomic kernels against the dense oracle ---------------------------------

_CONDUCTORS = (7, 12, 15, 20, 105, 140)
_XY = ("x", "y")


def _key(e):
    """The stored key of the exponent tuple e over (x, y, z), which hold bits [0, 20), [20, 40) and [40, 60)."""
    return sum(k << 20 * i for i, k in enumerate(e))


def _check_canonical(p):
    """The stored form: least conductor, den > 0 coprime to the numerators, int or phi(N)-tuple."""
    _check_representation(p)
    N = p.conductor
    assert N == lcm(1, *(c.conductor for c in p.terms.values()))
    assert all(type(c) is int if N == 1 else type(c) is tuple and len(c) == euler_phi(N) for c in p.nums.values())
    assert p.den > 0 and gcd(p.den, *(n for c in p.nums.values() for n in ((c,) if N == 1 else c))) == 1


def _cyclo_maps(L, max_exp=3, max_size=4):
    """{exponents in x, y: coordinates at conductor L}: numerators of both signs, small or near
    2^60, over a small denominator; x-degrees up to max_exp, so many pairs share a monomial."""
    numerator = st.one_of(st.just(0), st.integers(-3, 3), st.integers(2 ** 60 - 4, 2 ** 60 + 4),
                          st.integers(-2 ** 60 - 4, -2 ** 60 + 4))
    coords = st.tuples(st.lists(numerator, min_size=euler_phi(L), max_size=euler_phi(L)), st.integers(1, 6))
    return st.dictionaries(st.tuples(st.integers(0, max_exp), st.integers(0, 1)),
                           coords.map(lambda t: [Fraction(n, t[1]) for n in t[0]]), max_size=max_size)


def _poly_and_oracle(m, L):
    """The polynomial with the coordinates of m at conductor L, and its Dense term map."""
    coeffs = {e: sum((c * zeta(L, i) for i, c in enumerate(v) if c), CycScalar(0)) for e, v in m.items()}
    return MultiPoly(_XY, coeffs), {e: Dense(L, v) for e, v in m.items() if any(v)}


def _at_the_slot_bound(L, sign):
    """Coordinates +-(2^60 - 1) whose products add up in one slot: the middle slot of the
    product of the first two maps at x^3 is exactly 4 * phi(L) * (2^60 - 1)^2, the bound
    that sizes the slots, so one bit less misreads it."""
    n, top = euler_phi(L), 2 ** 60 - 1
    a = [Fraction(sign * top * (-1) ** i) for i in range(n)]
    b = [Fraction(top * (-1) ** (n - 1 - i)) for i in range(n)]
    image = {(1, 0): [Fraction(1)] + [Fraction(0)] * (n - 1)}
    return L, {(i, 0): a for i in range(4)}, {(i, 0): b for i in range(4)}, image, image


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(_CONDUCTORS).flatmap(lambda L: st.tuples(
    st.just(L), _cyclo_maps(L), _cyclo_maps(L), _cyclo_maps(L, 1, 2), _cyclo_maps(L, 1, 2))))
@example(_at_the_slot_bound(7, 1))
@example(_at_the_slot_bound(20, -1))
@example(_at_the_slot_bound(140, 1))
def test_cyclotomic_arithmetic_matches_dense_oracle(case):
    L, *maps = case
    (p, a), (q, b), (r, c), (s, d) = (_poly_and_oracle(m, L) for m in maps)
    cases = [(p * q, map_mul(a, b)), (p + q, map_add(a, b)), (p - q, map_add(a, map_neg(b))),
             (p.substitute({"x": r, "y": s}), map_substitute(a, [c, d])),
             (p.partial_derivative("x"), map_derivative(a, 0))]
    for result, expected in cases:
        _check_canonical(result)
        assert dense_map(result, L, _XY) == expected


# -- every product path of _product, against the dense oracle ---------------------------------

# (Na, Nb): a rational side against a cyclotomic one, and fields that meet at a larger conductor
_PATH_FIELDS = ((1, 140), (140, 1), (1, 12), (105, 1), (1, 420), (7, 20), (20, 7), (12, 12), (4, 3),
                (3, 35), (105, 105), (7, 60), (140, 140), (420, 420))
_BIG = 2 ** 64


@st.composite
def _path_operand(draw, N, max_terms):
    """{exponents in x, y: coordinates at conductor N}, 1..max_terms terms, each vector sparse (one
    or two nonzero coordinates) or dense (none zero); numerators small or beyond 2^64, of both signs."""
    n = euler_phi(N)
    numerator = st.one_of(st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(_BIG, 4 * _BIG),
                          st.integers(-4 * _BIG, -_BIG))
    den = draw(st.integers(1, 6))
    monomial = st.tuples(st.integers(0, 2), st.integers(0, 1))
    keys = draw(st.lists(monomial, min_size=1, max_size=max_terms, unique=True))
    out = {}
    for e in keys:
        sparse = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 2), unique=True)
        spots = range(n) if draw(st.booleans()) else draw(sparse)
        out[e] = [Fraction(draw(numerator), den) if i in spots else Fraction(0) for i in range(n)]
    return out


def _path_poly(m, N, L):
    """The polynomial with the coordinates of m at conductor N, and its term map of Dense elements of
    Q(zeta_L), N | L, lifted independently: zeta_N^i = zeta_L^(i*L/N), reduced by naive division."""
    coeffs = {e: sum((c * zeta(N, i) for i, c in enumerate(v) if c), CycScalar(0)) for e, v in m.items()}
    lifted = {}
    for e, v in m.items():
        spread = [Fraction(0)] * ((len(v) - 1) * (L // N) + 1)
        spread[::L // N] = v
        lifted[e] = Dense(L, reduce_mod_cyclotomic(spread, L))
    return MultiPoly(_XY, coeffs), lifted


def _coords(N, spots):
    """The phi(N) coordinates at conductor N with the values of ``spots`` ({index: value}), zero elsewhere."""
    return [Fraction(spots.get(i, 0)) for i in range(euler_phi(N))]


def _dense_one_term(N, top):
    """One term x*y whose coordinates at N are all nonzero, alternating +-top: beyond the crossover."""
    return {(1, 1): [Fraction(top * (-1) ** i) for i in range(euler_phi(N))]}


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(_PATH_FIELDS).flatmap(lambda f: st.tuples(
    st.just(f), st.integers(1, 3).flatmap(lambda t: _path_operand(f[0], t)),
    st.integers(1, 3).flatmap(lambda t: _path_operand(f[1], t)), st.integers(0, 2))))
@example(((1, 140), {(2, 0): [Fraction(-3 * _BIG, 5)]}, _dense_one_term(140, _BIG + 1), 2))  # one rational term
@example(((140, 1), _dense_one_term(140, 3), {(0, 0): [Fraction(2)], (2, 1): [Fraction(-_BIG)]}, 1))  # two
@example(((1, 20), {(0, 0): [Fraction(2)], (1, 0): [Fraction(-7)], (2, 1): [Fraction(_BIG, 3)]},
          {(1, 0): [Fraction(1)] * 8, (0, 1): [Fraction(0)] * 7 + [Fraction(-1)]}, 2))  # three, packed
@example(((7, 20), {(1, 0): [Fraction(0)] * 5 + [Fraction(-1)]}, {(0, 1): [Fraction(1)] + [Fraction(0)] * 7}, 3))
@example(((140, 140), _dense_one_term(140, -_BIG), _dense_one_term(140, 7), 2))  # Kronecker side
@example(((420, 420), _dense_one_term(420, 2), {(1, 0): [Fraction(0)] * 95 + [Fraction(5)]}, 1))  # schoolbook
@example(((105, 105), _dense_one_term(105, -1), _dense_one_term(105, _BIG), 0))
# one term by one term at two conductors: unlifted coordinates in slots i*L/Na + j*L/Nb, reduced once
@example(((7, 5), _dense_one_term(7, 2), {(0, 1): [Fraction(0), Fraction(-1), Fraction(0), Fraction(3, 2)]}, 1))
@example(((7, 15), {(2, 0): [Fraction(0)] * 5 + [Fraction(-_BIG)]}, _dense_one_term(15, 5), 2))
@example(((5, 21), _dense_one_term(5, -_BIG), _dense_one_term(21, 3), 1))
@example(((4, 3), {(1, 0): [Fraction(1, 2), Fraction(-1)]}, {(0, 1): [Fraction(0), Fraction(7)]}, 2))
@example(((20, 7), _dense_one_term(20, 1), {(2, 1): [Fraction(-3, 4)] + [Fraction(0)] * 4 + [Fraction(_BIG)]}, 1))
# ... and dense on both sides, 48 * 48 > 10 * phi(420): the Kronecker branch, each side packed at its stride
@example(((105, 140), _dense_one_term(105, 3), _dense_one_term(140, -_BIG), 1))
@example(((140, 105), _dense_one_term(140, _BIG), _dense_one_term(105, -2), 2))
@example(((1, 20), {(1, 0): [Fraction(1)], (0, 1): [Fraction(-1)]},  # two rational terms whose pairs meet and cancel
          {(1, 0): _coords(20, {0: 1, 3: _BIG}), (0, 1): _coords(20, {0: 1, 3: _BIG})}, 2))
# one term by several, in either order: each pair one product of unlifted coordinates, nothing lifted or packed
@example(((15, 7), _dense_one_term(15, 3), {(1, 0): _coords(7, {5: -1}), (0, 2): _coords(7, {0: 2, 3: _BIG})}, 3))
@example(((7, 15), {(2, 0): _coords(7, {0: 1}), (1, 1): [Fraction(-2, 3)] * 6, (0, 0): _coords(7, {1: _BIG})},
          {(0, 1): _coords(15, {7: 5})}, 2))
@example(((20, 7), {(1, 0): _coords(20, {1: -_BIG})},
          {(0, 0): _coords(7, {0: 3}), (1, 1): _dense_one_term(7, 2)[(1, 1)],
           (0, 2): _coords(7, {3: Fraction(1, 2)})}, 2))
@example(((7, 20), {(1, 0): _coords(7, {2: -1}), (0, 1): [Fraction(4)] * 6}, _dense_one_term(20, -_BIG), 3))
@example(((105, 140), _dense_one_term(105, -_BIG),  # a dense term at 105 by two at 140: Kronecker pairs at 420
          {(1, 0): _dense_one_term(140, 3)[(1, 1)], (0, 2): _coords(140, {47: -7})}, 2))
@example(((1, 20), {(0, 0): [Fraction(2)], (1, 0): [Fraction(-7, 2)], (2, 1): [Fraction(_BIG)]},  # three rational terms
          {(0, 1): _coords(20, {5: Fraction(-1, 3)})}, 2))
@example(((12, 12), {(1, 0): _coords(12, {1: -3, 3: Fraction(1, 2)})},  # one term by five in one field
          {(i, i % 2): _coords(12, {0: i - 2, 2: _BIG, 3: 1}) for i in range(5)}, 3))
def test_every_product_path_matches_dense_oracle(case):
    """*, ** and substitute against term-by-term Dense arithmetic at L = lcm(Na, Nb): rational sides of
    one, two (scaling) and three terms (packed) times cyclotomic ones, a rational side of three by one
    cyclotomic term, one term by one or several at one conductor or at two, in either order, with
    sparse and dense vectors on both sides of the schoolbook/Kronecker crossover, one-term powers, and
    fields that meet at a larger conductor."""
    (Na, Nb), ma, mb, k = case
    L = lcm(Na, Nb)
    (p, a), (q, b) = _path_poly(ma, Na, L), _path_poly(mb, Nb, L)
    one = {(0, 0): Dense(L, [1] + [0] * (euler_phi(L) - 1))}
    power = one
    for _ in range(k):
        power = map_mul(power, a)
    y_image = {(0, 1): Dense(L, [1] + [0] * (euler_phi(L) - 1))}
    cases = [(p * q, map_mul(a, b)), (q * p, map_mul(b, a)), (p ** k, power),
             (p.substitute({"x": q}), map_substitute(a, [b, y_image])),
             (q.substitute({"y": p}), map_substitute(b, [{(1, 0): one[(0, 0)]}, a]))]
    for result, expected in cases:
        _check_canonical(result)
        assert dense_map(result, L, _XY) == expected


# -- substitute on packed exponent keys, against the dense oracle at conductor 12 ------

_C12 = st.builds(lambda q, k, r: q * zeta(12, k) + r, st.fractions(-3, 3, max_denominator=4),
                 st.integers(0, 11), st.integers(-2, 2))  # scalars of Q(zeta_12)
_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@settings(deadline=None, max_examples=60)
@given(_term_maps(3, 4, _C12), st.lists(st.one_of(st.none(), _term_maps(2, 3, _C12)), min_size=3, max_size=3))
# x -> y^5 + z on x^3*z: the slot bounds B_y = 15 = 2^4 - 1 and B_z = 3 + 1 = 2^2, both reached
@example({(3, 0, 1): zeta(12), (0, 0, 0): Fraction(2)}, [{(0, 5, 0): 1, (0, 0, 1): zeta(12, 7)}, None, None])
# x -> y^4 + 3*y*z on x^4: B_y = 16 = 2^4, reached by y^16
@example({(4, 0, 0): Fraction(1), (1, 0, 2): zeta(12, 5)}, [{(0, 4, 0): 1, (0, 1, 1): 3}, None, None])
# a one-term image of x to the 31st, 32nd and 33rd power: the squaring branch, B_y = 66, B_z = 34
@example({(31, 0, 0): Fraction(1), (32, 0, 0): zeta(12), (33, 0, 1): Fraction(-1, 2)},
         [{(0, 2, 1): zeta(12, 5)}, None, None])
# a zero and a constant image
@example({(1, 1, 1): Fraction(1), (2, 0, 0): zeta(12), (0, 2, 0): Fraction(3)},
         [{}, {(0, 0, 0): Fraction(1, 2) + zeta(12)}, None])
def test_packed_substitute_matches_dense_oracle(a, images):
    """substitute, whose products run on exponent keys packed into slots of bit_length(B_n) bits,
    against term-by-term expansion of Dense coefficients; a None image keeps its variable."""
    p = MultiPoly(_XYZ, a)
    table = {v: MultiPoly(_XYZ, m) for v, m in zip(_XYZ, images) if m is not None}
    dense = [dense_map(table[v], 12, _XYZ) if v in table else {unit: Dense(12, [1, 0, 0, 0])}
             for v, unit in zip(_XYZ, _UNITS)]
    got = p.substitute(table)
    _check_canonical(got)
    assert dense_map(got, 12, _XYZ) == map_substitute(dense_map(p, 12, _XYZ), dense)


# -- substitution by groups of terms over the moved variables, against the dense oracle at 60 --

_W2 = x ** 2 - Fraction(1, 3) * x + 2
_GROUP_TABLES = {
    "identity": {"x": x, "y": y, "z": z},
    "identity on an absent variable only": {"w": x + 1},
    "x kept, z -> z + w(x)": {"x": x, "z": z + _W2},
    "y -> x, x kept": {"y": x},
    "y -> x, x named": {"x": x, "y": x},
    "swap x and y": {"x": y, "y": x},
    "a scale per group": {"x": Fraction(1, 3) * x + Fraction(1, 2), "z": Fraction(2, 5) * y - 1},
    "zeta_12 and zeta_5": {"x": zeta(12) * y + 1, "z": zeta(5, 2) * x - z},
    "zero image": {"y": MultiPoly.zero(), "z": z + Fraction(1, 7)},
}


@settings(deadline=None, max_examples=15)
@given(_term_maps(2, 4, _C12))
@example({(2, 1, 2): Fraction(1, 2), (2, 0, 1): zeta(12, 5), (1, 1, 0): Fraction(-3), (0, 0, 2): Fraction(2, 3)})
@pytest.mark.parametrize("case", _GROUP_TABLES)
def test_grouped_substitute_matches_dense_oracle(case, a):
    """substitute moves only the variables whose image is not themselves and returns p itself
    when none moves; each table against term-by-term expansion of Dense coefficients of Q(zeta_60)."""
    p, table = MultiPoly(_XYZ, a), _GROUP_TABLES[case]
    unit = [1] + [0] * (euler_phi(60) - 1)
    dense = [dense_map(MultiPoly._coerce(table[v]), 60, _XYZ) if v in table else {e: Dense(60, unit)}
             for v, e in zip(_XYZ, _UNITS)]
    got = p.substitute(table)
    _check_canonical(got)
    assert dense_map(got, 60, _XYZ) == map_substitute(dense_map(p, 60, _XYZ), dense)
    if case.startswith("identity"):
        assert got is p


# -- binomial powers of images whose parts share no variable, against the dense oracle ------

_PART_COEFF = st.one_of(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)), _C12)


@st.composite
def _split_images(draw):
    """{exponents: coefficient} over x, y, z: up to three parts over disjoint sets of variables,
    each one to three non-constant terms of mixed degree, and at times a constant."""
    groups = draw(st.lists(st.sampled_from((None, 0, 1, 2)), min_size=3, max_size=3))
    m = {}
    for g in {*groups} - {None}:
        exps = st.tuples(*(st.integers(0, 2) if h == g else st.just(0) for h in groups))
        m.update(draw(st.dictionaries(exps.filter(any), _PART_COEFF, min_size=1, max_size=3)))
    m[(0, 0, 0)] = draw(st.one_of(st.just(0), _PART_COEFF))
    return {e: c for e, c in m.items() if c}


def _leaves(terms, guard):
    """The parts whose powers the binomial rule combines: the leaves of the split tree."""
    parts = _parts(terms, guard)
    return [terms] if not parts else [t for part in parts for t in _leaves(part[1], guard)]


def _check_split(p):
    """p's terms fall into one part per connected component of its non-constant terms, joined
    where two share a variable, with the constant in one of them; no split for one component."""
    def support(e):
        return frozenset(v for v, k in zip(p.variables, _unpacked(e, p.variables)) if k)
    components = []
    for s in (support(e) for e in p.nums if e):
        joined = [c for c in components if c & s]
        components = [c for c in components if not c & s] + [s.union(*joined)]
    leaves = _leaves(list(p.nums.items()), _guard(p.variables))
    assert sorted(t for leaf in leaves for t in leaf) == sorted(p.nums.items())
    if len(components) < 2:
        assert len(leaves) == 1
    else:
        parts = [sorted(frozenset().union(*(support(e) for e, _ in leaf))) for leaf in leaves]
        assert sorted(parts) == sorted(map(sorted, components))


@settings(deadline=None, max_examples=80)
@given(_term_maps(3, 3, _C12), st.lists(st.one_of(st.none(), _split_images()), min_size=3, max_size=3))
# z -> z + w(x): the triangular maps of the isotropy suites
@example({(0, 0, 5): Fraction(1), (0, 0, 2): Fraction(3), (1, 0, 0): zeta(12)},
         [None, None, {(0, 0, 1): 1, (2, 0, 0): Fraction(1, 2), (1, 0, 0): zeta(12)}])
# x -> x + y + z: three parts, the second split again
@example({(3, 1, 0): Fraction(1), (0, 0, 2): Fraction(-2, 3)}, [{(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, None, None])
# z -> (z + z^2) + (x + 1): inhomogeneous parts, the constant riding with one of them
@example({(0, 0, 4): Fraction(1), (1, 1, 1): Fraction(2)}, [None, None, {(0, 0, 1): 1, (0, 0, 2): 1, (1, 0, 0): 1, (0, 0, 0): 1}])
# z -> z + z^2 + 5: a constant-only remainder, which does not split
@example({(0, 0, 3): Fraction(1), (0, 1, 1): Fraction(2)}, [None, None, {(0, 0, 1): 1, (0, 0, 2): 1, (0, 0, 0): 5}])
# x -> x + x*y + y*z: a chain of shared variables, one component, which does not split
@example({(2, 0, 0): Fraction(1), (1, 0, 1): zeta(12, 3)}, [{(1, 0, 0): 1, (1, 1, 0): 2, (0, 1, 1): -1}, None, None])
# x -> x/3 + zeta_12^5*y/2 + 1/4: denominators stacking over the powers
@example({(4, 0, 0): Fraction(1, 5), (2, 1, 0): zeta(12)}, [{(1, 0, 0): Fraction(1, 3), (0, 1, 0): zeta(12, 5) / 2,
                                                           (0, 0, 0): Fraction(1, 4)}, None, None])
def test_split_images_match_dense_oracle(a, images):
    """substitute with images whose terms split into parts over disjoint variables, raised by the
    binomial rule, against term-by-term expansion of Dense coefficients; the split itself against
    the connected components of each image's terms."""
    p = MultiPoly(_XYZ, a)
    table = {v: MultiPoly(_XYZ, m) for v, m in zip(_XYZ, images) if m is not None}
    for image in table.values():
        _check_split(image)
    dense = [dense_map(table[v], 12, _XYZ) if v in table else {unit: Dense(12, [1, 0, 0, 0])}
             for v, unit in zip(_XYZ, _UNITS)]
    got = p.substitute(table)
    _check_canonical(got)
    assert dense_map(got, 12, _XYZ) == map_substitute(dense_map(p, 12, _XYZ), dense)



@settings(deadline=None, max_examples=80)
@given(st.one_of(_split_images(), _term_maps(max_exp=2, max_size=4, coeff=_PART_COEFF)), st.integers(0, 6))
@example({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1}, 6)  # split, and split again
@example({(0, 0, 1): 1, (0, 0, 2): 1, (0, 0, 0): 5}, 5)  # a constant-only remainder, which does not split
@example({(1, 0, 0): zeta(4)}, 2)  # one term whose square descends to conductor 1
# one term to the 31st: its key times 31 and one square-and-multiply on the coefficient, at 15, at 20 and dense at 420
@example({(1, 0, 1): zeta(15, 4) - 2}, 31)
@example({(0, 2, 0): Fraction(3, 2) * zeta(20, 3) + zeta(20)}, 31)
@example({(0, 0, 1): sum((zeta(420, i) * (i % 5 - 2 or 3) for i in range(euler_phi(420))), CycScalar(0))}, 31)
@example({(1, 0, 0): Fraction(1, 3), (0, 1, 0): zeta(12, 5) / 2, (0, 0, 0): Fraction(1, 4)}, 6)  # stacked dens
@example({(1, 0, 0): 1, (1, 1, 0): 2, (0, 1, 1): zeta(12)}, 4)  # one component, which does not split
def test_power_matches_dense_oracle(a, k):
    """p**k, through the power rule that substitute uses, against k repeated term-by-term products
    of Dense coefficients at L = lcm(12, conductor of p)."""
    p = MultiPoly(_XYZ, a)
    got, L = p ** k, lcm(12, p.conductor)
    _check_canonical(got)
    expected = {(0, 0, 0): Dense(L, [1] + [0] * (euler_phi(L) - 1))}
    for _ in range(k):
        expected = map_mul(expected, dense_map(p, L, _XYZ))
    assert dense_map(got, L, _XYZ) == expected

class TestCanonicalForm:
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    target = Fraction(1, 2) * x + MultiPoly.constant(zeta(3)) * y

    def test_sum_with_a_larger_conductor_comes_back(self):
        q = MultiPoly.constant(zeta(140, 3)) * self.x * self.y + zeta(105)
        built = (self.target + q) - q
        assert (q + self.target).conductor == 420
        assert built == self.target and hash(built) == hash(self.target)
        assert (built.conductor, built.den) == (self.target.conductor, self.target.den) == (3, 2)

    def test_cancelling_roots_of_unity_leave_the_least_conductor(self):
        z8 = MultiPoly.constant(zeta(8))
        built = (z8 * Fraction(1, 2) * self.x + z8 * zeta(3) * self.y) * zeta(8, 7)
        assert built == self.target and hash(built) == hash(self.target)
        assert (built.conductor, built.den) == (3, 2)
        rational = (MultiPoly.constant(zeta(12)) * self.x + zeta(12)) * zeta(12, 11) * Fraction(1, 3)
        assert rational == (self.x + 1) * Fraction(1, 3)
        assert (rational.conductor, rational.den, rational.nums) == (1, 3, {_key((1,)): 1, _key((0,)): 1})

    @pytest.mark.parametrize("c", [zeta(7), CycScalar(1), Fraction(-2, 9)])
    def test_a_constant_built_from_cancelling_terms_hashes_as_its_scalar(self, c):
        built = (self.x * zeta(105, 2) + c) - self.x * zeta(105, 2)
        assert built == c and hash(built) == hash(c) and built.variables == ()


# -- coefficients that no one field up to MAX_CONDUCTOR holds ----------------------------

def _apart_maps():
    """{exponents in x, y, z: CycScalar}: a rational plus a rational multiple of a root of unity
    of conductor 1, 7, 11 or 13.  Two of these conductors share a field of conductor at most
    143; all three need 1001 > MAX_CONDUCTOR."""
    coeff = st.builds(lambda n, k, q, r: q * zeta(n, k) + r, st.sampled_from((1, 7, 11, 13)),
                      st.integers(1, 12), st.fractions(-3, 3, max_denominator=4), st.integers(-2, 2))
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), coeff, max_size=5).map(
        lambda m: {e: c for e, c in m.items() if c})


_APART = {(1, 0, 0): zeta(7), (0, 1, 0): zeta(11), (0, 0, 1): zeta(13)}


def _built_or_rejected(m):
    """MultiPoly(_XYZ, m), canonical with the terms m, when the lcm of their least conductors is at
    most MAX_CONDUCTOR; else None, after checking that building it raises the scalar layer's error."""
    L = lcm(1, *(c.conductor for c in m.values()))
    if L > MAX_CONDUCTOR:
        with pytest.raises(ValueError, match=f"conductor {L} exceeds MAX_CONDUCTOR = {MAX_CONDUCTOR}"):
            MultiPoly(_XYZ, m)
        return None
    p = MultiPoly(_XYZ, m)
    _check_canonical(p)
    assert term_map(p) == m
    return p


@settings(deadline=None, max_examples=100)
@given(_apart_maps(), _apart_maps())
@example(_APART, {(1, 0, 0): zeta(13), (0, 0, 0): CycScalar(1)})
@example({(1, 0, 0): zeta(7), (0, 1, 0): zeta(11)}, {(1, 0, 0): zeta(13), (0, 1, 1): CycScalar(1)})
@example({(1, 0, 0): zeta(997), (0, 1, 0): zeta(991), (1, 1, 0): CycScalar(Fraction(-3, 4)), (0, 0, 0): CycScalar(1)},
         {(1, 0, 0): zeta(143)})
def test_coefficients_apart_raise_beyond_conductor_bound(a, b):
    """One stored form: a polynomial, sum or product whose coefficients need a conductor above
    MAX_CONDUCTOR raises, as a scalar product of those coefficients does, whether or not any two of
    them meet; otherwise the result is canonical."""
    p, q = _built_or_rejected(a), _built_or_rejected(b)
    if p is None or q is None:
        return
    L = lcm(p.conductor, q.conductor)
    for op, expected in ((operator.add, lambda: map_add(a, b)), (operator.sub, lambda: map_add(a, map_neg(b))),
                         (operator.mul, lambda: map_mul(a, b))):
        if L > MAX_CONDUCTOR:
            with pytest.raises(ValueError, match=f"conductor {L} exceeds MAX_CONDUCTOR"):
                op(p, q)
            continue
        got = op(p, q)
        _check_canonical(got)
        assert term_map(got) == expected()


class TestCoefficientsApart:
    q = zeta(7) * x + zeta(11) * y  # conductor 77; with zeta(13) the lcm is 1001

    def test_products_bound_the_lcm(self):
        """Each pair zeta(13)*zeta(7), zeta(13)*zeta(11) lies in a field below the bound, their lcm not."""
        assert self.q.conductor == 77 and (self.q ** 2).conductor == 77
        for other in (MultiPoly.constant(zeta(13)), zeta(13) * z + 1, zeta(13) * x):
            with pytest.raises(ValueError, match="conductor 1001"):
                self.q * other
        with pytest.raises(ValueError, match="conductor 1001"):
            self.q + zeta(13) * z
        assert term_map(zeta(3) * self.q) == {e: zeta(3) * c for e, c in term_map(self.q).items()}

    def test_substitute_and_str(self):
        got = self.q.substitute({"x": y, "z": Fraction(1, 2)})
        assert got == (zeta(7) + zeta(11)) * y
        with pytest.raises(ValueError, match="conductor 1001"):
            self.q.substitute({"x": zeta(13) * y})
        assert str(self.q + 5 - 2 * x * y) == "-2*x*y + (zeta(7))*x + (zeta(11))*y + 5"
        assert (x * self.q).divide_by_variable("x") == self.q


# -- the packed store over different variable subsets, against the term-map oracles -----------

_ALL = ("X", "Y", "u", "x", "y", "z")  # sorted
_SUBSET_COEFF = st.one_of(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
                          st.builds(lambda q, k: q * zeta(12, k), st.fractions(-2, 2, max_denominator=3),
                                    st.integers(0, 11)))


@st.composite
def _over_a_subset(draw, pool=_ALL, max_exp=2, max_size=4):
    """(p, a): a polynomial over up to four variables of ``pool``, listed in any order, and its
    term map over _ALL; coefficients rational or rational multiples of roots of unity of order 12."""
    names = tuple(draw(st.lists(st.sampled_from(pool), unique=True, max_size=4)))
    m = draw(st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * len(names)), _SUBSET_COEFF, max_size=max_size))
    a = {tuple(e[names.index(v)] if v in names else 0 for v in _ALL): c for e, c in m.items() if c}
    return MultiPoly(names, m), a


def _check_stored(result, expected):
    _check_representation(result)
    assert term_map(result, _ALL) == expected
    assert str(result) == render_with_fractions(result)
    built = MultiPoly(_ALL, expected)
    assert result == built and hash(result) == hash(built)


@settings(deadline=None, max_examples=120)
@given(_over_a_subset(), _over_a_subset(),
       st.dictionaries(st.sampled_from(_ALL), _over_a_subset(max_exp=1, max_size=3), max_size=3),
       st.sampled_from(_ALL), st.integers(0, 2))
@example((MultiPoly(("z", "u"), {(2, 1): 1, (0, 2): Fraction(1, 2)}), {(0, 0, 1, 0, 0, 2): 1, (0, 0, 2, 0, 0, 0): Fraction(1, 2)}),
         (MultiPoly(("Y", "x"), {(1, 1): -1}), {(0, 1, 0, 1, 0, 0): -1}),
         {"u": (MultiPoly(("X", "y"), {(1, 0): 1, (0, 1): 3}), {(1, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1, 0): 3})},
         "u", 1)
def test_packed_store_matches_oracle_across_variable_subsets(pa, qb, images, v, k):
    """Every operation whose result changes variable set: operands over different subsets,
    substitution into and out of other subsets, and the queries that read one slot, against
    term-by-term arithmetic on exponent tuples over _ALL."""
    (p, a), (q, b), i = pa, qb, _ALL.index(v)
    identity = [{tuple(int(j == n) for j in range(len(_ALL))): Fraction(1)} for n in range(len(_ALL))]
    table = [images[w][1] if w in images else identity[n] for n, w in enumerate(_ALL)]
    cases = [(p + q, map_add(a, b)), (p - q, map_add(a, map_neg(b))), (p * q, map_mul(a, b)),
             (p.substitute({w: image for w, (image, _) in images.items()}), map_substitute(a, table)),
             (p.partial_derivative(v), map_derivative(a, i)),
             (p.coefficient_of(v, k), {e[:i] + (0,) + e[i + 1:]: c for e, c in a.items() if e[i] == k}),
             (MultiPoly(_ALL, {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in a.items()}).divide_by_variable(v), a)]
    for result, expected in cases:
        _check_stored(result, expected)
    if any(e[i] == 0 for e in a):
        with pytest.raises(ValueError, match="not divisible"):
            p.divide_by_variable(v)
    else:
        _check_stored(p.divide_by_variable(v), {e[:i] + (e[i] - 1,) + e[i + 1:]: c for e, c in a.items()})
    assert p.degree_in(v) == max((e[i] for e in a), default=-1)
    assert p.total_degree() == max((sum(e) for e in a), default=-1)
    univariate = {e: c for e, c in a.items() if not any(e[:i] + e[i + 1:])}
    for m in (a, univariate):
        if m and m.keys() <= univariate.keys():
            assert MultiPoly(_ALL, m).exponent_support(v) == tuple(sorted(e[i] for e in m))
        else:
            with pytest.raises(ValueError):
                MultiPoly(_ALL, m).exponent_support(v)


_REDUCE_SURFACES = [SurfaceSpec.danielewski(x, z ** 2), SurfaceSpec.danielewski(x ** 2, z ** 3 + 1),
                    SurfaceSpec.danielewski(2 * x ** 3 + x, z ** 2 + z),
                    SurfaceSpec.danielewski(x ** 2, zeta(3) * z ** 2 + zeta(4))]


@settings(deadline=None, max_examples=80)
@given(_over_a_subset(pool=_XYZ, max_exp=4, max_size=5), st.sampled_from(range(len(_REDUCE_SURFACES))))
def test_reduce_on_packed_keys_matches_one_offender_at_a_time(pa, si):
    """reduce picks the terms divisible by x^m*y with one test on each packed key; the normal
    form is unique, so rewriting one offender at a time must reach the same polynomial."""
    S, (p, _) = _REDUCE_SURFACES[si], pa
    assert S.reduce(p) == reduce_with_strategy(p, S, pick_max)


# -- the exponent guard: slots hold exponents up to 2^19 - 1 ------------------------------

_TOP = 2 ** 19 - 1
_HALF = 2 ** 18
_DENSE_140 = sum((zeta(140, i) for i in range(euler_phi(140))), CycScalar(0))  # no coordinate zero


class TestExponentGuard:
    def test_the_largest_exponent_builds_and_renders(self):
        p = y * x ** _TOP * z ** _TOP
        assert p == MultiPoly(("z", "y", "x"), {(_TOP, 1, _TOP): 1})
        assert str(p) == f"x^{_TOP}*y*z^{_TOP}" and p.degree_in("x") == p.degree_in("z") == _TOP
        assert p.terms == {(_TOP, 1, _TOP): CycScalar(1)} and p.total_degree() == 2 * _TOP + 1
        assert (p * x ** 0).coefficient_of("z", _TOP) == y * x ** _TOP
        assert (p.partial_derivative("x") * x).divide_by_variable("y") == _TOP * x ** _TOP * z ** _TOP

    @pytest.mark.parametrize("build", [
        lambda: x ** _HALF * x ** _HALF,
        lambda: (y * x ** _TOP) ** 2,
        lambda: (x ** _TOP * y) ** 4,  # unguarded, the x slot would carry into y's
        lambda: (x * y ** _HALF * z) ** 2,  # a middle slot
        lambda: x ** (_TOP + 1),
        lambda: (zeta(7) * x ** _HALF + 1) * (x ** _HALF * y),  # a cyclotomic product
        lambda: (zeta(7) * x + zeta(3) * z ** _HALF) * (zeta(5) * z ** _HALF + y),  # two conductors, packed
        lambda: (x ** _HALF + y).substitute({"x": x ** 2}),
        lambda: (z ** 2 + 1).substitute({"z": x ** _HALF * z}),
        lambda: MultiPoly(("x", "y"), {(1, _TOP + 1): 1}),
        lambda: (z ** 2 + y).substitute({"z": z + x ** _HALF}),  # split images, crossing in x ...
        lambda: (z ** 3).substitute({"z": zeta(12) * z ** _HALF + x + 1}),  # ... or in z
        lambda: (x ** _HALF + y) ** 2,  # a power of a split polynomial
        lambda: (x ** _TOP * zeta(7)) * (3 * x),  # one or two rational terms scale a cyclotomic side ...
        lambda: (3 * x) * (x ** _TOP * y * zeta(7) + zeta(7, 2) * y),
        lambda: (zeta(7) * x ** _TOP + y) * (3 * x + 1),
        lambda: (zeta(7) * x ** _TOP + y) * (3 * x + y + 1),  # ... more multiply its packed vectors
        lambda: (zeta(20) * x ** _HALF) * (zeta(7) * x ** _HALF),  # one term by one term: schoolbook ...
        lambda: (_DENSE_140 * x ** _HALF) * (_DENSE_140 * y * x ** _HALF),  # ... and Kronecker
        lambda: (x * y).substitute({"x": zeta(7) * x ** _TOP, "y": 3 * x}),
        lambda: (x ** 2).substitute({"x": zeta(12) * x ** _HALF}),
        lambda: SurfaceSpec.danielewski(x, z ** 4 + 1).reduce(x * y * z ** (_TOP - 1)),  # the normal form's sweep ...
        lambda: SurfaceSpec.danielewski(x ** 2 + zeta(3) * x, z ** 4 + zeta(7)).reduce(  # ... at a cyclotomic relation
            zeta(5) * x ** 3 * y + x ** 2 * y * z ** (_TOP - 1)),
        lambda: (MultiPoly.variable("w") ** _HALF + x) * (x * MultiPoly.variable("w") ** _HALF),  # a slot past z's
        lambda: (zeta(15) * x ** _HALF) * (zeta(7) * x ** _HALF + y),  # one term by several, unlifted ...
        lambda: (zeta(7) * x ** _HALF + y) * (zeta(15) * x ** _HALF),  # ... in either order
        lambda: (zeta(7) * x ** _HALF) ** 2,  # one term to a power: its key times k ...
        lambda: (zeta(7) * y * x ** 2 ** 17) ** 4,
        lambda: (zeta(7) * x ** _TOP * y) ** 4,  # ... where, unchecked, the x slot would carry into y's
        lambda: (x ** 2).substitute({"x": zeta(15) * x ** _HALF}),
    ])
    def test_crossing_the_largest_exponent_raises(self, build):
        with pytest.raises(ValueError, match=r"exponent above 2\^19 - 1"):
            build()

    def test_reduce_at_the_largest_exponent(self):
        S = SurfaceSpec.danielewski(x ** _TOP, z ** 2)
        assert S.reduce(x ** _TOP * y * z) == z ** 3
        assert S.reduce(x ** (_TOP - 1) * y ** 3) == x ** (_TOP - 1) * y ** 3


def test_threads_registering_names_at_once_get_one_unshared_slot_each():
    """A name takes its key slot on first use, for the whole process: four threads registering the
    same new names in different orders, switching often, must all see one slot per name, and no
    two names may share a slot."""
    names = [f"threaded_{i}" for i in range(200)]
    orders = [random.Random(seed).sample(names, len(names)) for seed in range(4)]
    start = threading.Barrier(4, timeout=60)

    def register(order):
        start.wait()
        return {v: tuple(MultiPoly.variable(v).nums) for v in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            seen = [f.result(timeout=60) for f in [pool.submit(register, o) for o in orders]]
    finally:
        sys.setswitchinterval(interval)
    assert all(keys == seen[0] for keys in seen)
    assert len(set(seen[0].values())) == len(names)
    assert all(MultiPoly.variable(v) ** 2 * x == MultiPoly((v, "x"), {(2, 1): 1}) for v in names)
