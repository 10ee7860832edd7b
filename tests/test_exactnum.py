"""Cyclotomic scalar arithmetic and root-of-unity detection."""

import math
import operator
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from danisurf import exactnum
from danisurf.exactnum import (MAX_CONDUCTOR, CycScalar, _minimized,
                               cyclotomic_coeffs, cyclotomic_polynomial,
                               divisors, euler_phi, root_of_unity_order, zeta)
from danisurf.multipoly import MultiPoly

from oracles import (_solve_in_subfield, brute_root_of_unity_order, dense_at, dense_product, dense_sum,
                     minimized_by_elimination, naive_dense_div, reduce_mod_cyclotomic, render_scalar)

t = MultiPoly.variable("t")


class TestCyclotomicPolynomial:
    def test_first_two(self):
        assert cyclotomic_polynomial(1) == t - 1
        assert cyclotomic_polynomial(2) == t + 1

    def test_phi6_against_division_oracle(self):
        # Phi_6 = (t^6 - 1) / (Phi_1 * Phi_2 * Phi_3)
        num = [Fraction(c) for c in (-1, 0, 0, 0, 0, 0, 1)]
        for d in (1, 2, 3):
            num, rem = naive_dense_div(num, [Fraction(c) for c in cyclotomic_coeffs(d)])
            assert not rem
        assert num == [Fraction(1), Fraction(-1), Fraction(1)]
        assert cyclotomic_polynomial(6) == t ** 2 - t + 1

    def test_monic_with_totient_degree(self):
        for n in range(1, 25):
            p = cyclotomic_polynomial(n)
            assert p.degree_in("t") == euler_phi(n)
            assert p.leading_coefficient("t") == 1

    def test_product_over_divisors_is_t_pow_n_minus_1(self):
        for n in range(1, 31):
            prod = MultiPoly.one()
            for d in divisors(n):
                prod = prod * cyclotomic_polynomial(d)
            assert prod == t ** n - 1, n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    def test_coefficients_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        s = sympy.Symbol("t")
        for n in range(1, 201):
            expected = sympy.Poly(sympy.cyclotomic_poly(n, s), s).all_coeffs()[::-1]
            assert cyclotomic_coeffs(n) == tuple(int(c) for c in expected), n


class TestArithmetic:
    def test_i_squared(self):
        assert zeta(4) * zeta(4) == CycScalar(-1)

    def test_zeta3_plus_square_reduces(self):
        # oracle: reduce t + t^2 modulo Phi_3 = t^2 + t + 1
        quot, rem = naive_dense_div(
            [Fraction(0), Fraction(1), Fraction(1)],
            [Fraction(1), Fraction(1), Fraction(1)])
        assert rem == [Fraction(-1)]
        assert zeta(3) + zeta(3) ** 2 == CycScalar(-1)

    def test_rational_addition(self):
        assert CycScalar(Fraction(1, 2)) + CycScalar(Fraction(1, 3)) == Fraction(5, 6)

    def test_mixed_conductors(self):
        w = zeta(3) * zeta(4)
        assert root_of_unity_order(w) == 12
        assert zeta(8) ** 2 == zeta(4)
        assert zeta(12, 6) == CycScalar(-1)
        assert zeta(12, 4) == zeta(3)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CycScalar(1) / CycScalar(0)
        with pytest.raises(ZeroDivisionError):
            CycScalar(0).inverse()

    def test_negative_powers(self):
        assert zeta(5) ** -1 * zeta(5) == CycScalar(1)
        assert (CycScalar(2) ** -3) == Fraction(1, 8)

    @pytest.mark.parametrize("N, a", [
        (1, CycScalar(Fraction(-3, 2))),
        (12, zeta(12) + Fraction(1, 2)),
        (105, zeta(105, 4) - 2 * zeta(105, 50) + 1),
        (420, Fraction(2, 3) * zeta(420) + zeta(7) - zeta(12, 5)),
    ])
    @pytest.mark.parametrize("k", [0, 1, 2, 31, -3])
    def test_power_matches_repeated_products(self, N, a, k):
        """a**k, one square-and-multiply at a's conductor and one descent, against |k| products."""
        assert a.conductor == N
        factor, expected = a if k >= 0 else CycScalar(1) / a, CycScalar(1)
        for _ in range(abs(k)):
            expected = expected * factor
        assert a ** k == expected

    def test_powers_of_zero(self):
        assert CycScalar(0) ** 5 == 0 and CycScalar(0) ** 0 == 1
        with pytest.raises(ZeroDivisionError):
            CycScalar(0) ** -1

    @pytest.mark.parametrize("divisor", [zeta(3), CycScalar(0)])
    def test_float_divided_by_scalar_is_a_type_error(self, divisor):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for /: 'float' and 'CycScalar'"):
            1.5 / divisor

    def test_fraction_divided_by_scalar(self):
        q = Fraction(1, 2) / zeta(3)
        assert q == Fraction(1, 2) * zeta(3, 2) and q * zeta(3) == Fraction(1, 2)
        assert 2 / zeta(4) == -2 * zeta(4)


class TestConductorMinimization:
    def test_rational_values_at_conductor_one(self):
        assert (zeta(3) + 1 - zeta(3)).conductor == 1
        assert zeta(7, 0).conductor == 1
        assert (zeta(4) ** 2).conductor == 1

    def test_same_number_same_representation(self):
        assert zeta(6) == zeta(3) + 1
        assert zeta(6).conductor == 3
        assert (zeta(5) + 1) - 1 == zeta(5)
        assert zeta(10) ** 5 == CycScalar(-1)

    def test_hash_consistent_with_rational_equality(self):
        assert hash(CycScalar(Fraction(3, 4))) == hash(Fraction(3, 4))


class TestConductorBound:
    def test_zeta_above_bound_rejected(self):
        assert zeta(MAX_CONDUCTOR).conductor == MAX_CONDUCTOR
        with pytest.raises(ValueError, match="MAX_CONDUCTOR"):
            zeta(MAX_CONDUCTOR + 1)

    def test_operand_lcm_above_bound_rejected(self):
        with pytest.raises(ValueError, match="MAX_CONDUCTOR"):
            zeta(997) * zeta(991)
        with pytest.raises(ValueError, match="MAX_CONDUCTOR"):
            zeta(997) + zeta(991)


class TestRootOfUnityOrder:
    def test_minus_one(self):
        assert root_of_unity_order(CycScalar(-1)) == 2

    def test_power_of_zeta6(self):
        w = zeta(6, 2)
        assert root_of_unity_order(w) == 3
        assert w ** 3 == CycScalar(1)
        assert w ** 1 != CycScalar(1) and w ** 2 != CycScalar(1)

    def test_non_root(self):
        assert root_of_unity_order(CycScalar(2)) is None
        assert root_of_unity_order(CycScalar(Fraction(1, 2))) is None
        assert root_of_unity_order(zeta(5) + 1) is None
        assert root_of_unity_order(CycScalar(0)) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 12])
    def test_primitive_root_has_exact_order(self, n):
        w = zeta(n)
        assert root_of_unity_order(w) == n
        assert w ** n == CycScalar(1)
        for k in range(1, n):
            assert w ** k != CycScalar(1)

    @pytest.mark.parametrize("n,j", [(6, 2), (6, 3), (8, 6), (12, 8), (9, 6)])
    def test_order_formula(self, n, j):
        from math import gcd

        assert root_of_unity_order(zeta(n, j)) == n // gcd(n, j)

    def test_large_conductor(self):
        # a linear search would take up to 840 multiplications at conductor 420
        assert root_of_unity_order(zeta(420) * zeta(7)) == 420

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_brute_force(self, n):
        cases = [sign * zeta(n, k) for k in range(n) for sign in (1, -1)]
        cases += [zeta(n) + 1, zeta(n) - 1, 2 * zeta(n), zeta(n) + zeta(n, 2)]
        for a in cases:
            assert root_of_unity_order(a) == brute_root_of_unity_order(a), a


_scalars = st.one_of(
    st.integers(-6, 6).map(CycScalar),
    st.fractions(-4, 4, max_denominator=5).map(CycScalar),
    st.tuples(st.sampled_from([3, 4, 5, 6, 8]), st.integers(0, 7)).map(lambda p: zeta(*p)),
    st.tuples(st.sampled_from([3, 4]), st.integers(-2, 2)).map(lambda p: zeta(p[0]) + p[1]),
)


_scaled_scalars = st.builds(operator.mul, _scalars, st.fractions(-3, 3, max_denominator=6))


@settings(deadline=None, max_examples=150)
@given(_scaled_scalars, _scaled_scalars, st.fractions(-4, 4, max_denominator=6),
       st.integers(1, 60), st.integers(-70, 70))
def test_results_are_stored_in_lowest_terms(a, b, q, n, k):
    """Every result holds int numerators over a positive denominator with no common factor,
    which ``coeffs`` turns into the coordinates; a rational one equals and hashes as its Fraction."""
    results = [a + b, a - b, a * b, zeta(n, k), CycScalar(q)] + ([a.inverse()] if a else [])
    for c in results:
        assert all(type(v) is int for v in c.nums) and type(c.den) is int
        assert c.den > 0 and math.gcd(c.den, *c.nums) == 1
        assert c.coeffs == tuple(Fraction(v, c.den) for v in c.nums)
        if c.is_rational():
            assert c == c.as_rational() and hash(c) == hash(c.as_rational())
    assert CycScalar(q) == q and hash(CycScalar(q)) == hash(q)


@settings(deadline=None)
@given(_scalars)
def test_inverse_round_trip(a):
    if not a.is_zero():
        assert (CycScalar(1) / a) * a == CycScalar(1)


@settings(deadline=None)
@given(_scalars, _scalars)
def test_commutative_ring_laws(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert a - b == -(b - a)


@settings(deadline=None)
@given(_scalars, _scalars, _scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


def _minimized_fractions(L, coeffs):
    """``_minimized`` of the Fraction coordinates coeffs of Q(zeta_L), as (nums, D)."""
    D = math.lcm(*(Fraction(c).denominator for c in coeffs))
    return _minimized(L, [int(c * D) for c in coeffs], D)


@st.composite
def _lifted_elements(draw):
    """(L, coefficients in Q(zeta_L)) of a sum of powers of zeta_c, lifted to a multiple L of c.

    Restricting the powers to multiples of a divisor of c puts the element in
    a proper subfield, so that descent has work to do.
    """
    c = draw(st.sampled_from([12, 15, 20, 21, 28, 35, 60, 84, 105, 140]))
    step = draw(st.sampled_from(divisors(c)))
    L = c * draw(st.sampled_from([1, 2, 3]))
    terms = draw(st.lists(st.tuples(st.integers(0, c // step - 1),
                                    st.fractions(-3, 3, max_denominator=3)),
                          min_size=1, max_size=6))
    vec = [Fraction(0)] * L
    for k, a in terms:
        vec[k * step * (L // c)] += a
    return L, reduce_mod_cyclotomic(vec, L)


@settings(deadline=None, max_examples=60)
@given(_lifted_elements())
def test_prime_descent_matches_elimination_oracle(case):
    L, coeffs = case
    got = _minimized_fractions(L, coeffs)
    assert (got.conductor, got.coeffs) == minimized_by_elimination(L, coeffs)


@settings(deadline=None, max_examples=60)
@given(_lifted_elements())
def test_inverse_round_trip_at_real_conductors(case):
    L, coeffs = case
    a = _minimized_fractions(L, coeffs)
    if not a.is_zero():
        assert (1 / a) * a == 1
        assert a.inverse().inverse() == a


@pytest.mark.parametrize("n", range(1, 31))
def test_zeta_inverse_is_conjugate_power(n):
    assert zeta(n) ** -1 == zeta(n, -1)
    assert zeta(n).inverse() * zeta(n) == 1


@pytest.mark.parametrize("n", range(1, 61))
def test_zeta_closed_form_matches_descent(n):
    for k in range(n):
        want = _minimized_fractions(n, reduce_mod_cyclotomic([Fraction(0)] * k + [Fraction(1)], n))
        got = zeta(n, k)
        assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)
        assert zeta(n, k - n) == got


def test_zeta_runs_no_descent():
    """zeta(n, k) finds its least conductor from n and k, with no membership test."""
    with mock.patch.object(exactnum, "_descended", side_effect=AssertionError("zeta descended")):
        # 770 = 2 * 385 and 990 = 2 * 495: zeta_2d = -zeta_d^((d+1)/2) stores them at d
        assert [zeta(n).conductor for n in (770, 969, 990)] == [385, 969, 495]
        assert [zeta(n, k).conductor for n, k in ((12, 3), (60, 10), (45, 9), (8, 4))] == [4, 3, 5, 1]


# every prime step (L, p) of these L: p | L/p at (8, 2), (12, 2), (45, 3), (63, 3), (140, 2);
# p not dividing L/p at (12, 3), (15, 3), (15, 5), (45, 5), (63, 7), (105, p) and (140, 5), (140, 7)
_PRIME_STEPS = [(L, p) for L in (8, 12, 15, 45, 63, 105, 140) for p in exactnum._prime_factors(L)]


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(_PRIME_STEPS), st.data())
@example((15, 3), None)
@example((12, 2), None)
def test_subfield_membership_matches_elimination_oracle(step, data):
    """_in_subfield(L, p, x) against Gaussian elimination over Q, on a member of Q(zeta_(L/p)) lifted by
    the oracle's dense_at and on that member with one coordinate moved, mostly a non-member."""
    L, p = step
    M = L // p
    if data is None:  # zeta_M + 2, and it plus zeta_L
        coords, i, delta = [2, 1] + [0] * (euler_phi(M) - 2), 1, 1
    else:
        coords = data.draw(st.lists(st.integers(-3, 3), min_size=euler_phi(M), max_size=euler_phi(M)))
        i, delta = data.draw(st.integers(0, euler_phi(L) - 1)), data.draw(st.sampled_from((-1, 1, 5)))
    member = dense_at(SimpleNamespace(conductor=M, coeffs=coords), L)
    moved = member[:i] + [member[i] + delta] + member[i + 1:]
    assert exactnum._in_subfield(L, p, [int(v) for v in member]) == _solve_in_subfield(L, M, member) == coords
    assert exactnum._in_subfield(L, p, [int(v) for v in moved]) == _solve_in_subfield(L, M, moved)
    if data is None:
        assert exactnum._in_subfield(L, p, [int(v) for v in moved]) is None


@st.composite
def _cyclotomic_scalars(draw):
    """A scalar of Q(zeta_c) with denominators up to 5, minimised from a lift to Q(zeta_L),
    L = c, 2c or 3c; c = 15, 21, 35 and 105 have primes p with p not dividing c/p, where
    a descent step is not a coordinate selection."""
    c = draw(st.sampled_from([15, 21, 35, 60, 105, 140]))
    step = draw(st.sampled_from(divisors(c)))
    L = c * draw(st.integers(1, 3))
    terms = draw(st.lists(st.tuples(st.integers(0, c // step - 1),
                                    st.fractions(-3, 3, max_denominator=5)),
                          min_size=1, max_size=5))
    vec = [Fraction(0)] * L
    for k, q in terms:
        vec[k * step * (L // c)] += q
    return _minimized_fractions(L, reduce_mod_cyclotomic(vec, L))


@settings(deadline=None, max_examples=40)
@given(_cyclotomic_scalars(), _cyclotomic_scalars())
def test_integer_kernel_matches_dense_oracle(a, b):
    """Sum, product and inverse against dense Fraction arithmetic at the lcm conductor;
    (a + b) - b descends from the lcm conductor back to a's."""
    total, product = a + b, a * b
    back = total - b
    inverse = a.inverse() if a else None
    assert (total.conductor, total.coeffs) == dense_sum(a, b)
    assert (product.conductor, product.coeffs) == dense_product(a, b)
    assert (back.conductor, back.coeffs) == (a.conductor, a.coeffs)
    if inverse is not None:
        assert dense_product(a, inverse) == (1, (1,))
        assert (inverse.conductor, inverse.coeffs) == minimized_by_elimination(
            inverse.conductor, list(inverse.coeffs))


@st.composite
def _scalars_at(draw, N):
    """A scalar from phi(N) coordinates at conductor N, dense (none zero) or sparse (about one in
    four nonzero), with numerators small or beyond 2^64, of both signs, over a denominator up to 6."""
    numerator = st.one_of(st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(2 ** 64, 2 ** 66),
                          st.integers(-2 ** 66, -2 ** 64))
    dense, den = draw(st.booleans()), draw(st.integers(1, 6))
    coords = [Fraction(draw(numerator), den) if dense or draw(st.integers(0, 3)) == 0 else Fraction(0)
              for _ in range(euler_phi(N))]
    return _minimized_fractions(N, coords)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([(12, 20), (20, 12), (105, 140), (140, 105), (7, 5), (4, 3), (140, 140)]).flatmap(
    lambda pair: st.tuples(_scalars_at(pair[0]), _scalars_at(pair[1]))))
def test_product_at_two_conductors_matches_dense_oracle(pair):
    """a * b multiplies the unlifted coordinates at strides L/Na and L/Nb and reduces mod Phi_L once;
    against the schoolbook on operands lifted to L = lcm(Na, Nb).  Dense operands at (105, 140) and
    (140, 140) take the Kronecker branch, sparse ones and the smaller fields the schoolbook."""
    a, b = pair
    product = a * b
    assert (product.conductor, product.coeffs) == dense_product(a, b)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([(15, 7), (7, 15), (4, 3), (8, 5), (1, 12), (12, 1)]).flatmap(
    lambda pair: st.tuples(_scalars_at(pair[0]), _scalars_at(pair[1]))))
@example((zeta(15) + Fraction(1, 3) * zeta(15, 4) + 2, zeta(7, 2) - Fraction(5, 2) * zeta(7)))
def test_coprime_conductors_need_no_descent(pair):
    """With coprime least conductors Na and Nb, lcm(Na, Nb) is the least conductor of a + b and
    of a * b (an automorphism fixing b and a smaller field would fix a), so neither descends;
    both against the dense oracle, which minimises."""
    a, b = pair
    with mock.patch.object(exactnum, "_minimized", side_effect=AssertionError("descended")):
        total, product = a + b, a * b
    assert (total.conductor, total.coeffs) == dense_sum(a, b)
    assert (product.conductor, product.coeffs) == dense_product(a, b)
    assert total.conductor == a.conductor * b.conductor
    assert product.conductor == (a.conductor * b.conductor if a and b else 1)


@settings(deadline=None, max_examples=60)
@given(st.one_of(_lifted_elements().map(lambda case: _minimized_fractions(*case)),
                 _cyclotomic_scalars()))
def test_inverse_stays_at_the_least_conductor(a):
    """a and 1/a generate the same field, so the inverse needs no descent: its conductor is
    a's, and its coordinates there are the canonical ones."""
    if a.is_zero():
        return
    inverse = a.inverse()
    assert inverse.conductor == a.conductor
    assert all(isinstance(c, Fraction) for c in inverse.coeffs)
    assert dense_product(a, inverse) == (1, (1,))
    assert (inverse.conductor, inverse.coeffs) == minimized_by_elimination(
        inverse.conductor, list(inverse.coeffs))


@st.composite
def _rendered_scalars(draw):
    """A scalar stored at conductor 1, 12, 105 or 420 or below, over a denominator > 1 before its gcd
    is divided out, whose coordinates are often exactly 1 or -1: the cases that drop a '1*'."""
    N = draw(st.sampled_from([1, 12, 105, 420]))
    den = draw(st.integers(2, 12))
    nums = draw(st.lists(st.one_of(st.sampled_from([0, den, -den]), st.integers(-3 * den, 3 * den)),
                         min_size=euler_phi(N), max_size=euler_phi(N)))
    return _minimized(N, nums, den)


@settings(deadline=None, max_examples=150)
@given(_rendered_scalars())
@example(_minimized(12, [1, -4, 4, 0], 4))  # 1/4 - zeta(12) + zeta(12)^2
@example(_minimized(105, [0, 3] + [0] * 45 + [-6], 6))  # -zeta(105)^47 + 1/2*zeta(105)
@example(_minimized(420, [1, -2] + [0] * 93 + [2], 2))  # zeta(420)^95 - zeta(420) + 1/2
@example(_minimized(1, [-6], 4))
def test_str_matches_fraction_renderer(c):
    """str renders from the integer numerators over den exactly as from one Fraction per coordinate."""
    assert str(c) == render_scalar(c)
