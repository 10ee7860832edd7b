"""Generator factories, shape classification, order bounds, and suite runs."""

import json
import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from danisurf.diffmaps import (Derivation, RingMap, _trusted, check_derivation_well_defined,
                               check_map_well_defined, commutes, exp_derivation)
from danisurf.exactnum import CycScalar, root_of_unity_order, zeta
from danisurf.multipoly import MultiPoly
from danisurf.parsing import parse_scalar
from danisurf.surface import SurfaceSpec
from danisurf.isotropy import (CanonicalLND, CheckRecord, GeneratorRequest,
                               PhiShape, SamplingPlan, VerifyReport,
                               ShapeMismatchError, canonical_lnd, classify_phi,
                               hyperbolic_order_bound, hyperbolic_rotation,
                               involution, make_generator, monomial_split,
                               plane_example_suite, rescaling, surface_class,
                               symmetry, triangular, verify_isotropy_theorem)
from danisurf.isotropy import _psi, _shape

from oracles import Dense, dense_map, map_add, map_neg, map_substitute, random_univariate

x, y, z = (MultiPoly.variable(v) for v in "xyz")

S_XY2 = SurfaceSpec.danielewski(x, z ** 2)
S_XY3 = SurfaceSpec.danielewski(x, z ** 3)
S_X2Z3 = SurfaceSpec.danielewski(x ** 2, z ** 3)
S_X2Z2 = SurfaceSpec.danielewski(x ** 2, z ** 2)
_FAMILIES = ("hyperbolic", "involution", "triangular", "rescaling", "symmetry")


class TestClassifyPhi:
    def test_pure_monomial(self):
        shape = classify_phi(z ** 4)
        assert shape.degree == 4
        assert shape.power == (CycScalar(1), CycScalar(0))
        i, m, phi0 = shape.periodic
        assert (i, m) == (4, 0)
        assert phi0 == MultiPoly.one()

    def test_shifted_power(self):
        shape = classify_phi(3 * (z - 2) ** 5)
        assert shape.power == (CycScalar(3), CycScalar(2))
        assert shape.reconstruct_power() == 3 * (z - 2) ** 5

    def test_periodic(self):
        shape = classify_phi(z ** 8 + z ** 2)
        assert shape.power is None
        i, m, phi0 = shape.periodic
        assert (i, m) == (2, 6)
        assert phi0 == z + 1
        assert shape.reconstruct_periodic() == z ** 8 + z ** 2

    def test_dense_support(self):
        i, m, _ = classify_phi(z ** 2 + z).periodic
        assert (i, m) == (1, 1)

    def test_degree_one(self):
        shape = classify_phi(2 * z + 4)
        assert shape.power == (CycScalar(2), CycScalar(-2))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2 ** 30))
    def test_periodic_round_trip(self, seed):
        rnd = random.Random(seed)
        phi = random_univariate(rnd, "z", rnd.randint(1, 6))
        if phi.degree_in("z") < 1:
            return
        shape = classify_phi(phi)
        assert shape.reconstruct_periodic() == phi
        if shape.power is not None:
            assert shape.reconstruct_power() == phi


class TestPhiCaches:
    """classify_phi and triangular keep one shape and one psi per phi, keyed on the polynomial."""

    PHIS = [lambda: 2 * (z - 1) ** 3, lambda: z ** 8 + z ** 2,
            lambda: MultiPoly.univariate("z", [1, 0, Fraction(1, 2), zeta(3)])]

    @pytest.mark.parametrize("build", PHIS)
    def test_cold_and_warm_results_agree(self, build):
        _shape.cache_clear()
        _psi.cache_clear()
        shapes = [classify_phi(build()) for _ in range(3)]  # cold, then warm for equal phis built apart
        maps = [triangular(SurfaceSpec.danielewski(x ** 2 + x, build()), x + 1) for _ in range(3)]
        assert _shape.cache_info().hits == 2 and _psi.cache_info().hits == 2
        for results in (shapes, maps):
            assert results[0] == results[1] == results[2]
            assert str(results[0]) == str(results[1]) == str(results[2])
        assert shapes[0].reconstruct_periodic() == build()

    @pytest.mark.parametrize("phi", [MultiPoly.constant(3), MultiPoly.zero(), x + z])
    def test_a_raising_phi_is_never_cached(self, phi):
        size = _shape.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError, match=r"deg phi >= 1"):
                classify_phi(phi)
        assert _shape.cache_info().currsize == size

    def test_shape_mismatch_errors_are_unchanged(self):
        S = SurfaceSpec.danielewski(x, z ** 2 + z ** 5)  # i = 2, m = 3, no power form
        for _ in range(2):  # cold, then warm
            with pytest.raises(ShapeMismatchError, match=re.escape("phi = z^5 + z^2 is not of the form c*(z - a)^d")):
                rescaling(S, CycScalar(-1))
            with pytest.raises(ShapeMismatchError, match=re.escape("does not satisfy mu^3 = 1")):
                symmetry(S, zeta(4))
            with pytest.raises(ShapeMismatchError, match="phi is a monomial"):
                symmetry(S_X2Z3, zeta(3))


class TestMonomialSplit:
    def test_cases(self):
        assert monomial_split(x) == (1, 0)
        assert monomial_split(x ** 3) == (3, 0)
        assert monomial_split(x ** 3 + 1) == (0, 3)
        assert monomial_split(x ** 2 + x) == (1, 1)
        assert monomial_split(x ** 6 + x ** 2) == (2, 4)

    def test_class_detection(self):
        assert surface_class(S_XY2) == "xy"
        assert surface_class(S_X2Z3) == "xn"
        assert surface_class(SurfaceSpec.danielewski(x ** 2 + x, z ** 2)) == "fx"
        assert surface_class(SurfaceSpec.danielewski(2 * x, z ** 2)) == "xy"


class TestOrderBound:
    def test_constant_g(self):
        assert hyperbolic_order_bound(MultiPoly.one(), 2) == 2

    def test_x_plus_one(self):
        assert hyperbolic_order_bound(x + 1, 2) == 1

    def test_cubed_with_brute_force_confirmation(self):
        assert hyperbolic_order_bound(x ** 3, 1) == 4
        D = canonical_lnd(S_XY2, x ** 3).derivation
        for j in range(4):
            assert commutes(hyperbolic_rotation(S_XY2, zeta(4, j)), D)
        assert not commutes(hyperbolic_rotation(S_XY2, zeta(3)), D)
        assert not commutes(hyperbolic_rotation(S_XY2, zeta(8)), D)

    def test_zero_g_rejected(self):
        with pytest.raises(ValueError):
            hyperbolic_order_bound(MultiPoly.zero(), 2)
        with pytest.raises(ValueError):
            hyperbolic_order_bound(x, 0)


class TestFactories:
    def test_triangular_zero_is_identity(self):
        assert triangular(S_XY2, 0).is_identity()

    def test_triangular_h_one(self):
        T = triangular(S_XY2, 1)
        assert T.images["x"].rep == x
        assert T.images["y"].rep == y + 2 * z + x
        assert T.images["z"].rep == z + x

    def test_hyperbolic_on_xy(self):
        lam = zeta(5)
        H = hyperbolic_rotation(S_XY2, lam)
        assert H.images["x"].rep == MultiPoly.constant(lam) * x
        assert H.images["y"].rep == MultiPoly.constant(lam ** -1) * y
        assert H.images["z"].rep == z

    def test_hyperbolic_exponent_tracks_f(self):
        H = hyperbolic_rotation(S_X2Z3, zeta(3))
        assert H.images["y"].rep == MultiPoly.constant(zeta(3) ** -2) * y
        S = SurfaceSpec.danielewski(x ** 3 + 1, z ** 2)  # j = 0: y fixed
        H0 = hyperbolic_rotation(S, zeta(3))
        assert H0.images["y"] == S.gen("y")

    def test_hyperbolic_respects_period_constraint(self):
        S = SurfaceSpec.danielewski(x ** 3 + 1, z ** 2)
        with pytest.raises(ShapeMismatchError):
            hyperbolic_rotation(S, zeta(4))
        with pytest.raises(ShapeMismatchError):
            hyperbolic_rotation(S, CycScalar(2))

    def test_involution_only_on_xy(self):
        I = involution(S_XY2)
        assert I.images["x"] == S_XY2.gen("y")
        with pytest.raises(ShapeMismatchError):
            involution(S_X2Z3)

    def test_rescaling_needs_power_form(self):
        R = rescaling(S_X2Z3, zeta(3))
        assert R.images["z"].rep == MultiPoly.constant(zeta(3)) * z
        with pytest.raises(ShapeMismatchError):
            rescaling(SurfaceSpec.danielewski(x, z ** 2 + z ** 5), CycScalar(-1))

    def test_rescaling_with_shifted_power(self):
        S = SurfaceSpec.danielewski(x, (z - 1) ** 3)
        R = rescaling(S, CycScalar(-1))
        # R(z) - 1 = -(z - 1)
        assert R.images["z"].rep == -z + 2

    def test_symmetry_on_periodic_phi(self):
        S = SurfaceSpec.danielewski(x ** 2, z ** 8 + z ** 2)  # i=2, m=6
        Ssym = symmetry(S, zeta(6))
        assert Ssym.images["y"].rep == MultiPoly.constant(zeta(6) ** 2) * y
        with pytest.raises(ShapeMismatchError):
            symmetry(S, zeta(4))
        with pytest.raises(ShapeMismatchError):
            symmetry(S_X2Z3, zeta(3))  # monomial phi: rescaling covers it

    def test_every_factory_output_is_well_defined(self):
        surfaces = [S_XY2, S_XY3, S_X2Z3, S_X2Z2,
                    SurfaceSpec.danielewski(x ** 2 + x, z ** 2),
                    SurfaceSpec.danielewski(x ** 3 + 1, z ** 3)]
        rnd = random.Random(0)
        for S in surfaces:
            for h in (MultiPoly.zero(), MultiPoly.one(), random_univariate(rnd, "x", 3)):
                assert check_map_well_defined(triangular(S, h).images, S)
            j, s = monomial_split(S.f)
            lams = [CycScalar(1), CycScalar(-1), zeta(3), CycScalar(5)] if s == 0 \
                else [zeta(s, t) for t in range(s)]
            for lam in lams:
                assert check_map_well_defined(hyperbolic_rotation(S, lam).images, S)

    @pytest.mark.parametrize("build", [
        lambda S: hyperbolic_rotation(S, -1), involution, lambda S: triangular(S, Fraction(1, 2)),
        lambda S: rescaling(S, -1), lambda S: symmetry(S, -1),
        *(lambda S, request=request: make_generator(request, S) for request in (
            GeneratorRequest("hyperbolic", -1), GeneratorRequest("involution"), GeneratorRequest("triangular", x),
            GeneratorRequest("rescaling", -1), GeneratorRequest("symmetry", -1)))],
        ids=[*_FAMILIES, *(f"make_generator-{family}" for family in _FAMILIES)])
    @pytest.mark.parametrize("S", [SurfaceSpec.free_ring("XY"), SurfaceSpec.free_ring("xyz")], ids=str)
    def test_every_family_refuses_a_free_surface(self, build, S):
        """A free surface has no generator families: each factory refuses it with a ValueError."""
        with pytest.raises(ValueError):
            build(S)

    def test_make_generator_dispatch(self):
        req = GeneratorRequest("hyperbolic", zeta(4))
        assert make_generator(req, S_XY2) == hyperbolic_rotation(S_XY2, zeta(4))
        assert make_generator(GeneratorRequest("involution"), S_XY2) == involution(S_XY2)
        with pytest.raises(ValueError):
            make_generator(GeneratorRequest("mystery"), S_XY2)


def _random_unit(rnd: random.Random) -> CycScalar:
    return rnd.choice([CycScalar(2), CycScalar(-1), CycScalar(Fraction(-3, 2)),
                       zeta(3), zeta(4) + 1])


@st.composite
def _factory_cases(draw):
    """(S, g, h, seed): f of the shapes x^j*h0(x^s) and random, phi in power form,
    periodic or random, g and h random in x (h also zero or cyclotomic)."""
    rnd = random.Random(draw(st.integers(0, 2 ** 30)))
    xs = MultiPoly.variable("x")
    j, s = rnd.randint(1, 2), rnd.randint(1, 3)
    f = draw(st.sampled_from([
        _random_unit(rnd) * xs ** j,
        xs ** j * (1 + rnd.choice([1, -2, Fraction(1, 3)]) * xs ** s),
        random_univariate(rnd, "x", rnd.randint(1, 3)) * xs + rnd.randint(-1, 1)]))
    a = CycScalar(rnd.choice([0, 1, Fraction(-1, 2)]))
    d, i, m = rnd.randint(2, 4), rnd.randint(0, 1), rnd.randint(2, 3)
    phi = draw(st.sampled_from([
        MultiPoly.constant(_random_unit(rnd)) * (z - MultiPoly.constant(a)) ** d,
        z ** i * (z ** (2 * m) + rnd.choice([2, -1, Fraction(1, 2)]) * z ** m + rnd.randint(0, 1)),
        random_univariate(rnd, "z", rnd.randint(0, 3)) * z + 1]))
    g = random_univariate(rnd, "x", rnd.randint(0, 2))
    h = draw(st.sampled_from([MultiPoly.zero(), MultiPoly.constant(zeta(3)) * xs + 1,
                              random_univariate(rnd, "x", rnd.randint(0, 2), False)]))
    return SurfaceSpec.danielewski(f, phi), g, h, rnd


@settings(deadline=None, max_examples=40)
@given(_factory_cases())
def test_factory_outputs_are_well_defined(case):
    """Every factory builds its map without re-proving it; the proof obligation is checked here,
    also for the maps and derivations built from them without a check."""
    S, g, h, rnd = case
    j, s = monomial_split(S.f)
    shape = classify_phi(S.phi)
    i, m, _ = shape.periodic
    maps = [triangular(S, h), RingMap.identity(S)]
    maps += [hyperbolic_rotation(S, lam) for lam in
             ([_random_unit(rnd), CycScalar(-1)] if s == 0 else [zeta(s, t) for t in range(s)])]
    if surface_class(S) == "xy":
        maps.append(involution(S))
    if shape.power is not None:
        maps += [rescaling(S, lam) for lam in (CycScalar(-1), _random_unit(rnd))]
    if m >= 1:
        maps += [symmetry(S, zeta(m, t)) for t in range(m)]
    maps.append(rnd.choice(maps).compose(rnd.choice(maps)))
    for rho in maps:
        assert check_map_well_defined(rho.images, S), rho
    D = canonical_lnd(S, g).derivation
    for delta in (D, D.scaled_by(g * x + 1), Derivation.zero(S)):
        assert check_derivation_well_defined(delta.images, S), delta


@settings(deadline=None, max_examples=30)
@given(_factory_cases())
def test_exponentials_are_well_defined(case):
    """exp_derivation builds its map without re-proving it; the proof obligation is checked here,
    on canonical derivations and on their multiples by kernel elements."""
    S, g, h, rnd = case
    D = canonical_lnd(S, g).derivation
    for delta in (D, D.scaled_by(x + 1), D.scaled_by(h * x - 2)):
        rho = exp_derivation(delta)
        assert check_map_well_defined(rho.images, S), (delta, rho)


_FRAC = st.fractions(-3, 3, max_denominator=4).filter(bool)
# zeta_12^0 - 1 and zeta_12^6 + 1 are zero: phi must keep every drawn term and its degree.
_FRAC_OR_Z12 = st.one_of(_FRAC, st.builds(lambda k, r: zeta(12, k) + r, st.integers(0, 11), st.integers(-1, 1)).filter(bool))
_ONE_12 = Dense(12, [1, 0, 0, 0])


@st.composite
def _triangular_cases(draw):
    """(S, h, g): f a monomial c*x^j or not; phi sparse (one or two terms) or dense (no zero
    coefficient) of degree 1-4, with fractional and zeta_12 coefficients; h zero, a constant or
    a fractional polynomial of degree up to 6; g a nonzero polynomial in x."""
    f = draw(st.one_of(st.builds(lambda c, j: c * x ** j, _FRAC, st.integers(1, 3)),
                       st.builds(lambda cs, c: MultiPoly.univariate("x", cs + [c]),
                                 st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=3), _FRAC)
                       .filter(lambda f: len(f.nums) > 1)))
    sparse = st.dictionaries(st.integers(0, 4), _FRAC_OR_Z12, min_size=1, max_size=2).filter(lambda m: max(m) > 0)
    phi = draw(st.one_of(sparse.map(lambda m: MultiPoly(("z",), {(e,): c for e, c in m.items()})),
                         st.lists(_FRAC_OR_Z12, min_size=2, max_size=5).map(lambda cs: MultiPoly.univariate("z", cs))))
    h = draw(st.one_of(st.just(MultiPoly.zero()), _FRAC.map(MultiPoly.constant),
                       st.lists(st.fractions(-2, 2, max_denominator=3), min_size=2, max_size=7)
                       .map(lambda cs: MultiPoly.univariate("x", cs))))
    g = draw(st.sampled_from([MultiPoly.one(), x, x + 1, Fraction(1, 2) * x ** 2 - 3]))
    return SurfaceSpec.danielewski(f, phi), h, g


@settings(deadline=None, max_examples=60)
@given(_triangular_cases())
@example((SurfaceSpec.danielewski(2 * x ** 2 - x + 3, z ** 4 + zeta(12) * z ** 3 + Fraction(1, 2) * z ** 2 - z + 2),
          Fraction(1, 2) * x ** 6 - x ** 3 + Fraction(2, 3) * x + 1, x + 1))
@example((SurfaceSpec.danielewski(Fraction(-2, 3) * x ** 3, zeta(12, 5) * z ** 4 + Fraction(1, 3)),
          MultiPoly.constant(Fraction(3, 2)), MultiPoly.one()))
def test_triangular_maps_solve_the_relation(case):
    """T = (x, y + h*psi, z + h*f) from the factory, which skips the proof: f*(T(y) - y) is
    phi(z + h*f) - phi(z), expanded term by term on Dense coefficients of Q(zeta_12); T preserves
    the relation and commutes with the canonical derivation."""
    S, h, g = case
    T = triangular(S, h)
    lhs = S.f * (T.images["y"].rep - y)  # y + h*psi is a normal form: no term is divisible by x^m*y
    phi = dense_map(S.phi, 12, ("x", "y", "z"))
    shift = [{(1, 0, 0): _ONE_12}, {(0, 1, 0): _ONE_12}, dense_map(z + h * S.f, 12, ("x", "y", "z"))]
    assert dense_map(lhs, 12, ("x", "y", "z")) == map_add(map_substitute(phi, shift), map_neg(phi))
    assert check_map_well_defined(T.images, S)
    assert commutes(T, canonical_lnd(S, g).derivation)


# ---------------------------------------------------------------------------
# T(y) is built on first read


def _eager_triangular(S: SurfaceSpec, h: MultiPoly) -> RingMap:
    """The triangular map with T(y) built at once, before T(z): the reference for what T(y) is and for
    what building it raises."""
    coeffs, w, hw = _psi(S.phi), h * S.f, [h]
    for _ in coeffs[1:]:
        hw.append(hw[-1] * w)
    bump = [(c * q, 1) for c, q in zip(coeffs, hw)]
    return _trusted(RingMap, S, {"x": x, "y": y._merged(bump), "z": z + w})


def _built_or_raised(build, *args):
    """build(*args), or the text of the ValueError it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# MAX_CONDUCTOR is 1000 and 7*11*13 = 1001.  In the first case T(z) lies over Q(zeta_91), but T(y) forms
# phi'(z)*h, whose operands need Q(zeta_1001).  In the second the conductors of h, f and phi have lcm 1001,
# yet every operand T(y) forms lies over Q(zeta_77) or Q(zeta_91): that lcm alone does not decide a raise.
_Z7, _Z11, _Z13, _Z11_INV = (MultiPoly.constant(c) for c in (zeta(7), zeta(11), zeta(13), zeta(11, -1)))
_FIELD_CASES = [(SurfaceSpec.danielewski(_Z11 * x, _Z11 * _Z7 * z ** 2 + _Z11), _Z11_INV * _Z13 * x),
                (SurfaceSpec.danielewski(_Z11 * x, _Z11 * z ** 2 + _Z11 * _Z13), _Z11_INV * _Z7 * x)]


# For h = x^k on x*y = z^12 + z^5 + 1 the largest x exponent T(y) forms is k + 11*(k + 1); a key holds
# exponents up to 2^19 - 1 = 524287, which 12*k + 11 passes first at k = 43690.
@pytest.mark.parametrize("k", [43689, 43690])
def test_triangular_raises_at_the_exponent_bound_as_the_eager_build(k):
    S = SurfaceSpec.danielewski(x, z ** 12 + z ** 5 + 1)
    eager, T = _built_or_raised(_eager_triangular, S, x ** k), _built_or_raised(triangular, S, x ** k)
    if k == 43690:
        assert T == eager == "ValueError: exponent above 2^19 - 1"
    else:
        assert "y" not in T.images._table and T.images["y"] == eager.images["y"]


# Each polynomial's coefficients are rational numbers times roots of unity of the orders in one palette,
# whose lcm is at most 143; h draws its palette apart from f and phi, so the lcm over all three falls on
# either side of MAX_CONDUCTOR = 1000 (7*11*13 = 1001, 8*9*13 = 936, 9*11*13 = 1287, ...).
_PALETTES = [(), (7,), (13,), (7, 11), (8, 9), (9, 11), (7, 13), (11, 13), (8, 13)]


def _coefficients(palette: tuple, **size):
    roots = st.lists(st.tuples(st.sampled_from(palette), st.integers(-3, 3)), max_size=2) if palette else st.just([])
    return st.lists(st.builds(lambda r, roots: r * math.prod([zeta(n, k) for n, k in roots], start=CycScalar(1)),
                              _FRAC, roots), **size)


@st.composite
def _field_cases(draw):
    """(S, h): f non-monic of degree 1-2 with a constant term, phi of degree 2-3, h of degree 0-2."""
    surface, field = draw(st.sampled_from(_PALETTES)), draw(st.sampled_from(_PALETTES))
    f = draw(_coefficients(surface, min_size=2, max_size=3).filter(lambda cs: cs[-1] != 1))
    phi = draw(_coefficients(surface, min_size=3, max_size=4))
    h = draw(_coefficients(field, min_size=1, max_size=3))
    return SurfaceSpec.danielewski(MultiPoly.univariate("x", f), MultiPoly.univariate("z", phi)), \
        MultiPoly.univariate("x", h)


@settings(deadline=None, max_examples=60)
@given(_field_cases())
@example(_FIELD_CASES[0])
@example(_FIELD_CASES[1])
def test_deferred_triangular_matches_the_eager_build(case):
    """triangular raises iff the eager build does, with its message; otherwise each reader of the whole
    table, on a map of its own, gets from it what it gets from the eager map, or raises as it does there
    (the relation's image can need a field above MAX_CONDUCTOR when T itself does not)."""
    eager = _built_or_raised(_eager_triangular, *case)
    if isinstance(eager, str):
        assert _built_or_raised(triangular, *case) == eager
        return
    readers = [lambda T: T.images["y"], str, hash, lambda T: check_map_well_defined(T.images, case[0]),
               lambda T: T == eager, lambda T: eager == T]
    for read in readers:
        assert _built_or_raised(read, triangular(*case)) == _built_or_raised(read, eager)


# the four surfaces of the verify-rational bench workload, with its g and h degrees
_VERIFY_RATIONAL = [(SurfaceSpec.danielewski(x ** 2, z ** 12 + z ** 5 + 1), x, 8),
                    (SurfaceSpec.danielewski(x ** 12, z ** 9 + z ** 3 + 1), x ** 6 + x ** 2, 6),
                    (SurfaceSpec.danielewski(x ** 3 + x, 2 * (z - 1) ** 3), x, 4),
                    (SurfaceSpec.danielewski(x, z ** 6 + 2 * z ** 2), x + 1, 4)]


@pytest.mark.parametrize("S, g, hdeg", _VERIFY_RATIONAL)
def test_passing_check_never_builds_y(S, g, hdeg):
    """A triangular map passes against g*D0 from x and z alone, so T(y) is never built."""
    D = canonical_lnd(S, g).derivation
    for h in (MultiPoly.zero(), MultiPoly.one(), random_univariate(random.Random(hdeg), "x", hdeg)):
        T = triangular(S, h)
        assert commutes(T, D)
        assert "y" not in T.images._table


@pytest.mark.parametrize("S, g, hdeg", _VERIFY_RATIONAL)
def test_check_failing_at_z_matches_a_full_scan(S, g, hdeg):
    """D = (0, phi'*z, f*z) is a derivation, and T(D(z)) - D(T(z)) = h*f^2 != 0: the x and z check fails
    at z, so commutes reads y too and reports the witness and difference of a scan of every generator."""
    D = Derivation(S, {"x": 0, "y": S.phi.partial_derivative("z") * z, "z": S.f * z})
    h = random_univariate(random.Random(hdeg), "x", hdeg)
    T = triangular(S, h)
    assert (T.apply(D.images["z"]) - D.apply(T.images["z"])).rep == h * S.f ** 2
    differences = [(v, T.apply(D.images[v]) - D.apply(T.images[v])) for v in S.variables]
    assert tuple(commutes(triangular(S, h), D)) == next((False, v, d) for v, d in differences if d)


def test_threads_reading_y_at_once_get_one_image():
    """Eight threads read T(y) of one map at once, switching every microsecond: each gets the one stored
    image, equal to the eager build's."""
    S, _, hdeg = _VERIFY_RATIONAL[0]
    h = random_univariate(random.Random(hdeg), "x", hdeg)
    expected = _eager_triangular(S, h).images["y"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            T, barrier, seen = triangular(S, h), threading.Barrier(8), []
            threads = [threading.Thread(target=lambda: seen.append((barrier.wait(), T.images["y"])[1]))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads) and len(seen) == 8
            assert all(el is T.images["y"] for el in seen) and seen[0] == expected
    finally:
        sys.setswitchinterval(interval)


class TestCanonicalLND:
    def test_xy_with_unit_g(self):
        can = canonical_lnd(S_XY2, 1)
        D = can.derivation
        assert D.images["x"].is_zero()
        assert D.images["y"].rep == 2 * z
        assert D.images["z"].rep == x

    def test_xn(self):
        D = canonical_lnd(S_X2Z3, 1).derivation
        assert D.images["y"].rep == 3 * z ** 2
        assert D.images["z"].rep == x ** 2

    def test_general_f(self):
        S = SurfaceSpec.danielewski(x ** 2 + x, z ** 2)
        D = canonical_lnd(S, x).derivation
        assert D.images["y"].rep == 2 * x * z
        assert D.images["z"].rep == x ** 3 + x ** 2
        from danisurf.diffmaps import is_locally_nilpotent

        assert is_locally_nilpotent(D).all_nilpotent

    def test_rejects_bad_g(self):
        with pytest.raises(ValueError):
            canonical_lnd(S_XY2, z)
        with pytest.raises(ValueError):
            canonical_lnd(SurfaceSpec.free_ring(("X",)), 1)


class TestVerifySuite:
    def test_xy_cubic_bound_one(self):
        report = verify_isotropy_theorem(S_XY3, 1)
        assert report.passed
        assert report.suite == "isotropy-xy"
        fams = {rec.family for rec in report.checks}
        assert {"triangular", "involution", "hyperbolic", "rescaling"} <= fams

    def test_xn_example_bound_two(self):
        report = verify_isotropy_theorem(S_X2Z3, 1)
        assert report.passed
        records = {rec.params: rec for rec in report.checks if rec.family == "hyperbolic"}
        assert records["lambda = -1 (order 2)"].expected is True
        assert records["lambda = zeta(4) (order 4)"].expected is False

    def test_xn_with_g_x_plus_one_bound_one(self):
        report = verify_isotropy_theorem(S_X2Z2, x + 1)
        assert report.passed
        hyper = [rec for rec in report.checks
                 if rec.family == "hyperbolic" and rec.expected]
        # identity is the only expected member besides the bound banner
        assert all("bound" in rec.params or "lambda = 1 " in rec.params for rec in hyper)

    def test_fx_class(self):
        for f in (x ** 2 + x, x ** 3 + 1):
            for g in (MultiPoly.one(), x):
                report = verify_isotropy_theorem(
                    SurfaceSpec.danielewski(f, z ** 2), g, SamplingPlan(seed=1))
                assert report.passed, report.render_text()

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_isotropy_theorem(SurfaceSpec.danielewski(x, z), 1)
        with pytest.raises(ValueError):
            verify_isotropy_theorem(S_XY2, 0)
        with pytest.raises(ValueError):
            verify_isotropy_theorem(SurfaceSpec.free_ring(("X",)), 1)

    def test_triangular_closure_under_composition(self):
        D = canonical_lnd(S_X2Z3, 1).derivation
        rnd = random.Random(3)
        for _ in range(5):
            t1 = triangular(S_X2Z3, random_univariate(rnd, "x", rnd.randint(0, 2)))
            t2 = triangular(S_X2Z3, random_univariate(rnd, "x", rnd.randint(0, 2)))
            assert commutes(t1, D) and commutes(t2, D)
            assert commutes(t1.compose(t2), D)

    def test_exp_subgroup_members_commute(self):
        from danisurf.diffmaps import exp_derivation, scale_by_kernel

        D = canonical_lnd(S_XY3, x).derivation
        rnd = random.Random(5)
        for _ in range(5):
            w = S_XY3.element(random_univariate(rnd, "x", rnd.randint(0, 3)))
            assert commutes(exp_derivation(scale_by_kernel(D, w)), D)

    def test_involution_never_commutes_with_nonzero_canonical(self):
        rnd = random.Random(7)
        for _ in range(10):
            g = random_univariate(rnd, "x", rnd.randint(0, 3))
            D = canonical_lnd(S_XY2, g).derivation
            assert not commutes(involution(S_XY2), D)

    def test_hyperbolic_criterion_bidirectional(self):
        rnd = random.Random(13)
        for S, n in [(S_XY2, 1), (S_X2Z3, 2), (SurfaceSpec.danielewski(x ** 3, z ** 2), 3)]:
            g = random_univariate(rnd, "x", rnd.randint(0, 3))
            bound = hyperbolic_order_bound(g, n)
            D = canonical_lnd(S, g).derivation
            for k in range(1, 9):
                for j in range(k):
                    lam = zeta(k, j)
                    order = root_of_unity_order(lam)
                    expected = bound % order == 0
                    assert bool(commutes(hyperbolic_rotation(S, lam), D)) == expected

    def test_report_json_schema(self):
        report = verify_isotropy_theorem(S_X2Z3, 1)
        payload = report.to_dict()
        assert list(payload) == ["suite", "surface", "g", "checks", "pass"]
        for record in payload["checks"]:
            assert set(record) <= {"family", "params", "expected", "observed", "witness"}
        # deterministic: same seed, same serialization
        again = verify_isotropy_theorem(S_X2Z3, 1)
        assert json.dumps(payload) == json.dumps(again.to_dict())


_STATED_ORDER = re.compile(r"(?:lambda|mu|c) = (.+) \(order (\w+)\)")
_ORDER_SUITES = [(s, p, {"dilation"}) for s in range(2, 14) for p in (1, zeta(7))] + [
    (SurfaceSpec.danielewski(x, z ** 3 + 1), x ** 2, {"hyperbolic", "symmetry"}),  # xy: bound 3, mu^3 = 1
    (SurfaceSpec.danielewski(x ** 2, 2 * (z - 1) ** 3), x ** 4, {"hyperbolic", "rescaling", "symmetry"}),
    (SurfaceSpec.danielewski(x ** 3 + x, z ** 6 + z ** 2), x, {"hyperbolic", "symmetry"}),  # fx: mu^4 = 1
]


@pytest.mark.parametrize("surface,g,families", _ORDER_SUITES)
def test_stated_orders_match_the_definition(surface, g, families):
    """The suites print the order of each parameter from how they built it; parsed back, each
    parameter's root_of_unity_order must say the same, "none" for a non-root of unity."""
    if isinstance(surface, int):
        report = plane_example_suite(surface, g)
    else:
        report = verify_isotropy_theorem(surface, g, SamplingPlan(h_degrees=(1,)))
    stated = [(rec.family, *m.groups()) for rec in report.checks if (m := _STATED_ORDER.fullmatch(rec.params))]
    assert {family for family, _, _ in stated} == families and any(order == "none" for *_, order in stated)
    for _, text, order in stated:
        assert str(root_of_unity_order(parse_scalar(text)) or "none") == order, text


class TestPlaneExampleSuite:
    @pytest.mark.parametrize("s,p,order", [(2, 1, 1), (3, 1, 2), (4, 2, 3), (5, 2, 4)])
    def test_group_order(self, s, p, order):
        report = plane_example_suite(s, CycScalar(p))
        assert report.passed, report.render_text()
        members = [rec for rec in report.checks
                   if rec.family == "dilation" and rec.expected]
        assert len(members) == order

    def test_quartic_rejects_zeta4(self):
        # s = 4: the cube roots commute and a fourth root must not
        F = SurfaceSpec.free_ring(("X", "Y"))
        X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")
        from danisurf.diffmaps import Derivation, RingMap

        d = Derivation(F, {"X": X, "Y": Y ** 4 + 2 * X})
        c = zeta(4)
        rho = RingMap(F, {"X": MultiPoly.constant(c) * X, "Y": MultiPoly.constant(c) * Y})
        assert not commutes(rho, d)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            plane_example_suite(1, CycScalar(1))
        with pytest.raises(ValueError):
            plane_example_suite(3, CycScalar(0))


class TestRecords:
    """The report records are immutable NamedTuples: defaults, keywords, repr, hashing, JSON shape."""

    HYP = CheckRecord("hyperbolic", "lambda = -1 (order 2)", False, True, "x: -2*x")
    TRI = CheckRecord("triangular", "h = 0", True, True)

    def test_defaults_and_keywords(self):
        assert SamplingPlan() == SamplingPlan(h_degrees=(0, 1, 2, 3, 4), seed=0)
        assert SamplingPlan(seed=3).h_degrees == (0, 1, 2, 3, 4)
        request = GeneratorRequest("involution")
        assert (request.family, request.parameter) == ("involution", None)
        assert GeneratorRequest(family="hyperbolic", parameter=2).parameter == 2
        assert self.TRI.witness is None

    def test_immutable(self):
        records = [(SamplingPlan(), "seed"), (GeneratorRequest("involution"), "family"),
                   (self.TRI, "observed"), (VerifyReport("s", "x*y = z^2", "1", ()), "checks"),
                   (classify_phi(z ** 2), "degree"), (canonical_lnd(S_XY2, 1), "g")]
        for record, field in records:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_repr_and_hash(self):
        assert repr(self.HYP) == ("CheckRecord(family='hyperbolic', params='lambda = -1 (order 2)', "
                                  "expected=False, observed=True, witness='x: -2*x')")
        assert repr(self.TRI) == ("CheckRecord(family='triangular', params='h = 0', "
                                  "expected=True, observed=True, witness=None)")
        twin = CheckRecord("triangular", "h = 0", True, True, None)
        assert twin == self.TRI and hash(twin) == hash(self.TRI)
        assert len({self.TRI, twin, self.HYP}) == 2
        assert not self.HYP.ok and self.TRI.ok

    def test_to_dict(self):
        report = VerifyReport("isotropy-xy", "x*y = z^2", "1", (self.TRI, self.HYP))
        assert report.to_dict() == {
            "suite": "isotropy-xy", "surface": "x*y = z^2", "g": "1",
            "checks": [{"family": "hyperbolic", "params": "lambda = -1 (order 2)",
                        "expected": False, "observed": True, "witness": "x: -2*x"},
                       {"family": "triangular", "params": "h = 0", "expected": True, "observed": True}],
            "pass": False}
        # the JSON output is byte-stable only if each check keeps its keys in field order
        assert [list(check) for check in report.to_dict()["checks"]] == [
            ["family", "params", "expected", "observed", "witness"], ["family", "params", "expected", "observed"]]

    def test_shape_and_canonical_records(self):
        shape = classify_phi(2 * (z - 1) ** 3)
        assert isinstance(shape, PhiShape) and shape.degree == 3
        assert shape.reconstruct_power() == 2 * (z - 1) ** 3
        lnd = canonical_lnd(S_XY2, x)
        assert isinstance(lnd, CanonicalLND) and lnd.surface == S_XY2 and lnd.g == x
