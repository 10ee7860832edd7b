"""Quotient-ring normal forms: uniqueness, soundness, confluence, basis shape."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from danisurf.exactnum import CycScalar, zeta
from danisurf.multipoly import MultiPoly
from danisurf.surface import SurfaceSpec, _reduce_relation, elements_equal, normal_form

from oracles import (in_relation_ideal, pick_max, pick_min, pick_random,
                     random_poly, reduce_with_strategy, term_exponents)

x, y, z = (MultiPoly.variable(v) for v in "xyz")

S_XY = SurfaceSpec.danielewski(x, z ** 2)
S_X2 = SurfaceSpec.danielewski(x ** 2, z ** 3)
S_FX = SurfaceSpec.danielewski(x ** 2 + x, z ** 2)
SURFACES = [S_XY, S_X2, S_FX,
            SurfaceSpec.danielewski(2 * x ** 2, z ** 2 + z),
            SurfaceSpec.danielewski(x ** 3 + 1, z ** 2)]


class TestNormalForm:
    def test_forced_single_rewrite(self):
        assert normal_form(x ** 2 * y, S_XY).rep == x * z ** 2

    def test_forced_rewrite_xn(self):
        assert normal_form(x ** 2 * y * z, S_X2).rep == z ** 4

    def test_non_monomial_f(self):
        nf = normal_form(x ** 2 * y, S_FX).rep
        assert nf == z ** 2 - x * y
        # oracle: the difference is in the relation ideal
        assert in_relation_ideal(x ** 2 * y - nf, S_FX.f, S_FX.phi)

    def test_free_kind_is_identity(self):
        F = SurfaceSpec.free_ring(("X", "Y"))
        p = MultiPoly.variable("X") ** 3 * MultiPoly.variable("Y")
        assert F.reduce(p) == p

    def test_foreign_variables_rejected(self):
        with pytest.raises(ValueError):
            S_XY.element(MultiPoly.variable("w"))
        with pytest.raises(ValueError):
            SurfaceSpec.free_ring(("X", "Y")).element(x)


class TestElementsEqual:
    def test_defining_relation(self):
        assert elements_equal(S_XY.element(x * y), S_XY.element(z ** 2))

    def test_distinct_generators(self):
        assert not elements_equal(S_XY.gen("x"), S_XY.gen("y"))

    def test_long_reduction_chains_agree(self):
        a = S_XY.element(x ** 3 * y ** 2)
        b = S_XY.element(x ** 2 * z ** 2 * y)
        assert elements_equal(a, b)
        assert a.rep == x * z ** 4

    def test_surface_mismatch_raises(self):
        with pytest.raises(ValueError):
            elements_equal(S_XY.gen("x"), S_X2.gen("x"))
        for op in ("__add__", "__sub__", "__mul__"):
            with pytest.raises(ValueError):
                getattr(S_XY.gen("x"), op)(S_X2.gen("x"))

    def test_equality_across_surfaces_is_false(self):
        """Elements of different surfaces are unequal, so hashed containers may mix them."""
        one, other = S_XY.element(1), S_X2.element(1)
        assert one != other and not (S_XY.gen("x") == S_X2.gen("x"))
        assert hash(one) == hash(other) and len({one, other}) == 2
        assert len({one, S_XY.element(x * y - z ** 2 + 1)}) == 1


class TestHash:
    @pytest.mark.parametrize("c", [0, 3, Fraction(-5, 2), zeta(5), zeta(4) - 1])
    def test_scalar_element_hashes_as_scalar(self, c):
        for S in SURFACES:
            element = S.element(c)
            assert element == c and hash(element) == hash(c)
            assert element == MultiPoly.constant(c)
            assert hash(element) == hash(MultiPoly.constant(c))

    def test_equal_elements_hash_equal(self):
        assert S_XY.element(x * y) == S_XY.element(z ** 2)
        assert hash(S_XY.element(x * y)) == hash(S_XY.element(z ** 2)) == hash(z ** 2)

    def test_unreduced_polynomial_equals_no_element(self):
        # x*y reduces to z^2 on x*y = z^2, but as a bare polynomial it is not
        # the representative, so it equals no element and hashing stays consistent
        element = S_XY.element(z ** 2)
        assert element != x * y and x * y != element
        assert element == z ** 2 and z ** 2 == element and hash(element) == hash(z ** 2)
        assert S_XY.element(x * y) == element
        assert len({element, z ** 2}) == 1 and len({element, x * y}) == 2


class TestConstruction:
    def test_relation_shape_enforced(self):
        with pytest.raises(ValueError):
            SurfaceSpec.danielewski(MultiPoly.one(), z ** 2)
        with pytest.raises(ValueError):
            SurfaceSpec.danielewski(x, MultiPoly.constant(3))
        with pytest.raises(ValueError):
            SurfaceSpec.danielewski(x + z, z ** 2)

    def test_derived_data(self):
        assert S_FX.m == 2 and S_FX.lc == CycScalar(1) and S_FX.d == 2
        S = SurfaceSpec.danielewski(2 * x ** 2, z ** 2 + z)
        assert S.lc == CycScalar(2)

    def test_deg_phi_one_accepted(self):
        S = SurfaceSpec.danielewski(x, MultiPoly.variable("z"))
        assert S.element(x * y).rep == z

    def test_free_needs_variables(self):
        with pytest.raises(ValueError):
            SurfaceSpec.free_ring(())

    def test_round_trip_strings(self):
        assert str(S_FX) == "f=x^2 + x; phi=z^2"
        assert str(SurfaceSpec.free_ring(("X", "Y"))) == "free: X,Y"


def _basis_shape_ok(p: MultiPoly, S: SurfaceSpec) -> bool:
    # normal forms live on {x^a z^c} plus {x^a y^b z^c : b >= 1, a < m}
    for exps, _ in term_exponents(p):
        if exps.get("y", 0) >= 1 and exps.get("x", 0) >= S.m:
            return False
    return True


_seeds = st.integers(0, 2 ** 30)


@settings(deadline=None, max_examples=50)
@given(_seeds, st.sampled_from(range(len(SURFACES))))
def test_idempotence_and_basis(seed, si):
    S = SURFACES[si]
    p = random_poly(random.Random(seed), max_exp=3, cyclotomic=True)
    nf = S.reduce(p)
    assert S.reduce(nf) == nf
    assert _basis_shape_ok(nf, S)
    # soundness against the independent membership oracle
    assert in_relation_ideal(p - nf, S.f, S.phi)


@settings(deadline=None, max_examples=50)
@given(_seeds, st.sampled_from(range(len(SURFACES))))
def test_ideal_soundness(seed, si):
    S = SURFACES[si]
    rnd = random.Random(seed)
    p = random_poly(rnd, max_exp=2)
    q = random_poly(rnd, max_exp=2)
    assert S.reduce(p + S.relation * q) == S.reduce(p)


@settings(deadline=None, max_examples=50)
@given(_seeds, st.sampled_from(range(len(SURFACES))))
def test_compatible_with_ring_operations(seed, si):
    S = SURFACES[si]
    rnd = random.Random(seed)
    p = random_poly(rnd, max_exp=2)
    q = random_poly(rnd, max_exp=2)
    assert S.reduce(p * q) == S.reduce(S.reduce(p) * S.reduce(q))
    assert S.reduce(p + q) == S.reduce(S.reduce(p) + S.reduce(q))


@settings(deadline=None, max_examples=40)
@given(_seeds, st.sampled_from(range(len(SURFACES))))
def test_confluence_probe(seed, si):
    S = SURFACES[si]
    rnd = random.Random(seed)
    p = random_poly(rnd, max_exp=3)
    expected = S.reduce(p)
    assert reduce_with_strategy(p, S, pick_max) == expected
    assert reduce_with_strategy(p, S, pick_min) == expected
    assert reduce_with_strategy(p, S, pick_random(random.Random(seed + 1))) == expected


def test_element_arithmetic_stays_reduced():
    a = S_XY.element(x * y)
    b = S_XY.element(z)
    assert (a + b).rep == z ** 2 + z
    assert (a * b).rep == z ** 3
    assert (a ** 2).rep == z ** 4
    assert (a - z ** 2).is_zero()
    assert (2 * b).rep == 2 * z


def test_non_monic_leading_coefficient_division():
    S = SurfaceSpec.danielewski(2 * x, z ** 2)
    # 2xy = z^2, so xy reduces to z^2/2
    assert S.element(x * y).rep == MultiPoly.constant(CycScalar(1) / 2) * z ** 2


# -- the one-sweep normal form, against one-offender-at-a-time rewriting -------------------

_SWEEP_F = [x, x ** 3, x ** 2 + x, 2 * x ** 2 - x + 3, Fraction(2, 3) * x ** 2 + Fraction(1, 2),
            x ** 2 + zeta(3) * x, zeta(4) * x + 1]  # monomial, not, non-monic, zeta coefficients
_SWEEP_PHI = [z ** 2, z ** 3 + z + 1, Fraction(1, 2) * z ** 3 + z, z ** 2 + zeta(7), 3 * z - zeta(12)]
_SWEEP_COEFFS = [1, -1, 2, Fraction(-3, 2), Fraction(5, 7), zeta(3), zeta(4) - 1, 2 * zeta(7, 3) + 1]


@st.composite
def _sweep_cases(draw):
    """(S, p): f and phi from the lists above, p of up to five terms with y-degree up to 6."""
    S = SurfaceSpec.danielewski(draw(st.sampled_from(_SWEEP_F)), draw(st.sampled_from(_SWEEP_PHI)))
    exps = st.tuples(st.integers(0, 4), st.integers(0, 6), st.integers(0, 2))
    terms = draw(st.dictionaries(exps, st.sampled_from(_SWEEP_COEFFS), min_size=1, max_size=5))
    return S, MultiPoly(("x", "y", "z"), terms)


def _check_sweep(S, p, nf):
    assert _basis_shape_ok(nf, S)
    assert in_relation_ideal(p - nf, S.f, S.phi)
    assert reduce_with_strategy(p, S, pick_max) == nf


@settings(deadline=None, max_examples=60)
@given(_sweep_cases())
def test_sweep_matches_one_offender_rewriting(case):
    """The bucket sweep against the oracle's one-rewrite-at-a-time reduction: rational and zeta
    coefficients, monomial and non-monomial f, non-monic lc (den > 1), cyclotomic relations."""
    S, p = case
    _check_sweep(S, p, S.reduce(p))


@pytest.mark.parametrize("f, phi, p", [
    (x, z ** 2, x ** 3 * y ** 6 * z),  # six y-rows, each bucket rewritten once
    (2 * x ** 2 - x + 3, Fraction(1, 2) * z ** 3 + z, (x * y + z - 1) ** 4),  # den = 2, powers of it
    (x ** 2 + zeta(3) * x, z ** 2 + zeta(7), zeta(5) * x ** 4 * y ** 3 + x ** 2 * y),  # conductor 105
    (zeta(4) * x + 1, z ** 3, Fraction(1, 3) * x ** 2 * y ** 2),  # lc zeta(4): a cyclotomic monic relation
])
def test_sweep_examples(f, phi, p):
    S = SurfaceSpec.danielewski(f, phi)
    _check_sweep(S, p, S.reduce(p))


def test_sweep_without_one_field():
    """zeta(997) polynomials on a surface whose phi holds zeta(991): no Q(zeta_N), N <= 1000, holds
    both, so reducing raises the scalar layer's conductor error, whether or not it needs a rewrite."""
    S = SurfaceSpec.danielewski(x ** 2 + x, z ** 2 + zeta(991))
    far = zeta(997) * z ** 9 + zeta(997, 2) * x * y * z ** 8
    for q in (far, zeta(997) * z, zeta(997) * x):  # normal forms
        with pytest.raises(ValueError, match="conductor 988027 exceeds MAX_CONDUCTOR"):
            S.element(q)
    for q in (x ** 2 * y, 3 * x ** 3 * y ** 2 * z - x ** 2 * y, x ** 4 * y ** 2 + 1):
        with pytest.raises(ValueError, match="conductor 988027 exceeds MAX_CONDUCTOR"):
            S.reduce(q + far)
        with pytest.raises(ValueError, match="conductor 988027 exceeds MAX_CONDUCTOR"):
            S.reduce(zeta(997) * q)


# -- the sweep on a polynomial with a name other than x, y and z ---------------------------

_EXTRA = ["a", "lam", "xa", "ya", "zz"]  # names sorting before x, between x and y, y and z, after z
_S_SLOTS = SurfaceSpec.danielewski(x ** 2 + 1, z ** 3 + z)
_P_SLOTS = [x ** 2 * y, x ** 3 * y ** 2 + x * y * z]  # the coefficients of t^0 and t^1


@st.composite
def _slot_cases(draw):
    """(S, t, parts): S from the sweep lists, an extra name t, and p's coefficients of t^0, ..., t^k,
    k <= 3, each of up to three terms over (x, y, z) with y-degree up to 4."""
    S = SurfaceSpec.danielewski(draw(st.sampled_from(_SWEEP_F)), draw(st.sampled_from(_SWEEP_PHI)))
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2))
    part = st.dictionaries(exps, st.sampled_from(_SWEEP_COEFFS), max_size=3)
    parts = draw(st.lists(part.map(lambda terms: MultiPoly(("x", "y", "z"), terms)), min_size=1, max_size=4))
    return S, draw(st.sampled_from(_EXTRA)), parts


@settings(deadline=None, max_examples=60)
@given(_slot_cases())
@example((_S_SLOTS, "ya", _P_SLOTS))  # sorting between y and z: its exponent was once read as z's
@example((_S_SLOTS, "zz", _P_SLOTS))  # sorting after z: once dropped into a key beyond the variables
def test_sweep_reads_slots_from_the_polynomial(case):
    """_reduce_relation (S.reduce refuses the extra name) on p = sum t^k * p_k, t an extra variable
    sorting anywhere relative to x, y and z: the normal form is sum t^k * NF(p_k), as the one-offender
    oracle carrying t's exponents finds, and every key lies within the result's variables."""
    S, name, parts = case
    t = MultiPoly.variable(name)
    p = sum((t ** k * q for k, q in enumerate(parts)), MultiPoly.zero())
    r = _reduce_relation(p, S)
    assert MultiPoly(r.variables, r.terms) == r
    assert r == sum((t ** k * S.reduce(q) for k, q in enumerate(parts)), MultiPoly.zero())
    assert r == reduce_with_strategy(p, S, pick_max)


@pytest.mark.parametrize("name", _EXTRA)
def test_sweep_with_an_extra_name(name):
    """(x^3*y^2 + x*y*z)*t + x^2*y on x^2*y + y = z^3 + z, by hand: x^2*y = z^3 + z - y."""
    t = MultiPoly.variable(name)
    p = _P_SLOTS[1] * t + _P_SLOTS[0]
    expected = t * (x * y * z ** 3 + 2 * x * y * z - x * y ** 2) + z ** 3 + z - y
    assert _reduce_relation(p, _S_SLOTS) == expected


@settings(deadline=None, max_examples=50)
@given(_seeds, st.sampled_from(range(len(SURFACES))))
def test_sums_of_normal_forms_need_no_reduction(seed, si):
    """Sums, differences and negations of elements are built without reducing: normal forms span
    a subspace, so each result must already be the normal form of the raw polynomial."""
    S = SURFACES[si]
    rnd = random.Random(seed)
    a, b = (S.element(random_poly(rnd, max_exp=3, cyclotomic=True)) for _ in range(2))
    for element, raw in [(a + b, a.rep + b.rep), (a - b, a.rep - b.rep), (-a, -a.rep),
                         (a + 3, a.rep + 3), (2 - b, 2 - b.rep)]:
        assert element.rep == S.reduce(raw)
