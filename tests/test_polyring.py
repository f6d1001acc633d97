"""Ring arithmetic, substitution, evaluation and rendering of MultiPoly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfibonacci.polyring import MultiPoly, Q, X, Y, q_pow, z_var


def T(coeff=1, x=0, y=0, q=0, z=()):
    return MultiPoly.term(coeff, x=x, y=y, q=q, z=z)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 5))
    p = MultiPoly.zero()
    for _ in range(n_terms):
        zidx = draw(st.lists(st.integers(1, 4), unique=True, max_size=2))
        z = tuple((i, draw(st.integers(1, 3))) for i in zidx)
        p = p + T(draw(st.integers(-9, 9)), x=draw(st.integers(0, 4)),
                  y=draw(st.integers(0, 4)), q=draw(st.integers(-4, 6)), z=z)
    return p


class TestArithmetic:
    def test_cancellation(self):
        assert T(1, x=2, q=1) + T(1, y=1) + T(-1, y=1) == T(1, x=2, q=1)

    def test_additive_identity(self):
        p = T(3, x=1, q=-2) + T(1, y=2)
        assert p + MultiPoly.zero() == p

    def test_add_collects(self):
        assert (Q + 1) + (Q - 1) == 2 * Q

    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X * X - Y * Y

    def test_laurent_inverse(self):
        assert q_pow(-1) * Q == MultiPoly.one()

    def test_multiplicative_identity(self):
        p = T(5, x=1, y=2, q=-3, z=((2, 1),))
        assert p * MultiPoly.one() == p

    def test_zero_annihilates(self):
        assert (X + Y) * MultiPoly.zero() == MultiPoly.zero()

    def test_negative_xy_exponents_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.term(1, x=-1)
        with pytest.raises(ValueError):
            MultiPoly.term(1, z=((1, -2),))

    @given(polys(), polys(), polys())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestSubstitute:
    def test_q_inverse(self):
        p = T(1, q=2) + Q
        assert p.substitute({"q": q_pow(-1)}) == T(1, q=-2) + q_pow(-1)

    def test_marker_shift_instance(self):
        # x -> xq, y -> yq^2 on x^2 q + y scales by q^2
        p = T(1, x=2, q=1) + Y
        shifted = p.substitute({"x": T(1, x=1, q=1), "y": T(1, y=1, q=2)})
        assert shifted == T(1, x=2, q=3) + T(1, y=1, q=2)
        assert shifted == q_pow(2) * p

    def test_identity_map(self):
        p = T(2, x=1, y=1, q=-1) + T(1, z=((3, 2),))
        assert p.substitute({}) == p
        assert p.substitute({"x": X, "q": Q}) == p

    def test_z_family_collapse(self):
        p = T(1, x=3, z=((1, 1), (2, 1))) + T(2, x=1, y=1, z=((3, 1),))
        assert p.substitute({"z": Q}) == T(1, x=3, q=2) + T(2, x=1, y=1, q=1)
        assert p.substitute({"z": 1}) == T(1, x=3) + T(2, x=1, y=1)

    def test_single_z_index(self):
        p = z_var(1) * z_var(2)
        assert p.substitute({"z1": Q}) == Q * z_var(2)

    def test_rejects_sum_target(self):
        with pytest.raises(ValueError):
            X.substitute({"x": X + Y})

    def test_rejects_negative_xy_result(self):
        # q -> x on a Laurent term would need x^-1, which does not exist here
        with pytest.raises(ValueError):
            q_pow(-1).substitute({"q": X})
        # y -> y/q is fine, since only q is Laurent
        p = T(1, y=1, q=1)
        assert p.substitute({"y": T(1, y=1, q=-1)}) == T(1, y=1)

    def test_rejects_uninvertible_coefficient(self):
        with pytest.raises(ValueError):
            q_pow(-1).substitute({"q": T(2, q=1)})

    @given(polys(), polys())
    @settings(max_examples=60)
    def test_homomorphism(self, a, b):
        mapping = {"x": T(1, x=1, q=2), "y": T(-1, y=1, q=-1),
                   "q": q_pow(-1), "z": MultiPoly.one()}
        sub = lambda p: p.substitute(mapping)
        assert sub(a + b) == sub(a) + sub(b)
        assert sub(a * b) == sub(a) * sub(b)

    @given(polys())
    def test_q_inversion_involution(self, p):
        flip = {"q": q_pow(-1)}
        assert p.substitute(flip).substitute(flip) == p


class TestEvaluate:
    def test_coefficient_sum(self):
        p = T(1, x=4, q=6) + T(3, x=2, y=1, q=5) + T(1, y=2, q=4)
        assert p.evaluate(x=1, y=1, q=1) == 5

    def test_laurent_point(self):
        p = q_pow(-1) + Q
        assert p.evaluate(q=2) == Fraction(5, 2)

    def test_zero_poly(self):
        assert MultiPoly.zero().evaluate(x=7, y=-2, q=Fraction(1, 3)) == 0

    def test_q_zero_signals(self):
        with pytest.raises(ZeroDivisionError):
            (q_pow(-1) + Q).evaluate(q=0)
        # fine when no negative exponent is present
        assert (Q + 1).evaluate(q=0) == 1

    def test_z_values(self):
        p = T(2, z=((1, 1), (3, 2)))
        assert p.evaluate() == 2
        assert p.evaluate(z={1: 3, 3: 2}) == 24
        assert p.evaluate(z=2) == 16


class TestText:
    def test_simple(self):
        assert (T(1, x=2, q=1) + Y).canonical_text() == "x^2*q + y"

    def test_zero(self):
        assert MultiPoly.zero().canonical_text() == "0"

    def test_negative_q_sorts_last(self):
        assert (T(1, q=-2) + T(3)).canonical_text() == "3 + q^-2"

    def test_spec_oracle_rendering(self):
        p = T(1, x=4, q=6) + T(3, x=2, y=1, q=5) + T(1, y=2, q=4)
        assert p.canonical_text() == "x^4*q^6 + 3*x^2*y*q^5 + y^2*q^4"

    def test_negative_coefficients(self):
        assert (T(-1, y=1) + T(2, q=1)).canonical_text() == "2*q - y"
        assert (-Y).canonical_text() == "-y"

    def test_z_rendering(self):
        p = T(1, x=3, z=((1, 1), (2, 1))) + T(2, x=1, y=1, z=((3, 1),))
        assert p.canonical_text() == "x^3*z1*z2 + 2*x*y*z3"

    @given(polys())
    def test_parse_roundtrip(self, p):
        assert MultiPoly.parse(p.canonical_text()) == p

    @given(polys())
    def test_json_roundtrip(self, p):
        assert MultiPoly.from_json_terms(p.to_json_terms()) == p

    @given(polys(), polys())
    @settings(max_examples=60)
    def test_text_injective(self, a, b):
        if a.canonical_text() == b.canonical_text():
            assert a == b
