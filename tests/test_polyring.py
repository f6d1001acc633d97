"""Ring arithmetic, substitution, evaluation and rendering of MultiPoly."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfibonacci import polyring, qfib
from qfibonacci.polyring import MultiPoly, q_pow


def T(coeff=1, x=0, y=0, q=0, z=()):
    return MultiPoly.term(coeff, x=x, y=y, q=q, z=z)


X, Y, Q = T(x=1), T(y=1), T(q=1)


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


#: Exponents of wide keys stay within about 2^29 of zero, so that every
#: product of two of them stays inside the ring's fields.
WIDE = 2 ** 29


@st.composite
def wide_polys(draw):
    """Up to five terms with z indices up to 70 (D' at 60 uses z58) and
    x, y, z exponents up to 2^29, q exponents in [-2^29, 2^29)."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        zidx = draw(st.lists(st.integers(1, 70), unique=True, max_size=4))
        z = tuple((i, draw(st.integers(1, WIDE))) for i in zidx)
        key = (draw(st.integers(0, WIDE)), draw(st.integers(0, WIDE)),
               draw(st.integers(-WIDE, WIDE - 1)), z)
        terms[key] = terms.get(key, 0) + draw(st.integers(-9, 9))
    return MultiPoly(terms)


nonzero = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                    st.integers(1, 4))


@st.composite
def points(draw):
    """A numeric point: nonzero values for x, y, q and z1..z4."""
    return {"x": draw(nonzero), "y": draw(nonzero), "q": draw(nonzero),
            "z": {i: draw(nonzero) for i in range(1, 5)}}


#: The tests below evaluate exponents of absolute value at most 18 (a ** 3
#: of a polys() term with q^6).  A ring fault that mis-decodes keys gives
#: exponents in the millions, and raising a Fraction to those runs for
#: minutes, so the tests refuse to evaluate anything beyond this bound.
EVAL_BOUND = 100


def small(p):
    """p, once every exponent in p.terms() is asserted within EVAL_BOUND."""
    for (x, y, q, z), _ in p.terms():
        exps = (x, y, q, *(e for _, e in z))
        assert max(map(abs, exps)) <= EVAL_BOUND, f"exponents {exps}"
    return p


def at(p, pt):
    return small(p).evaluate(x=pt["x"], y=pt["y"], q=pt["q"], z=pt["z"])


#: The substitutions the library uses: the homomorphism test's mapping,
#: Lemma 2.3's q -> q^-1, the cycle-type collapse z -> q, and one z index.
MAPPINGS = (
    {"x": T(1, x=1, q=2), "y": T(-1, y=1, q=-1), "q": q_pow(-1),
     "z": MultiPoly.one()},
    {"q": q_pow(-1)},
    {"z": Q},
    {"z2": T(3, x=1, q=-1)},
)


def image_point(mapping, pt):
    """The point where p must be evaluated so that its value equals
    p.substitute(mapping) evaluated at pt."""
    def value(name, default):
        return at(mapping[name], pt) if name in mapping else default
    zs = {i: value(f"z{i}", value("z", v)) for i, v in pt["z"].items()}
    return {"x": value("x", pt["x"]), "y": value("y", pt["y"]),
            "q": value("q", pt["q"]), "z": zs}


class TestEvaluationHomomorphism:
    """Every ring operation commutes with evaluation at a nonzero point."""

    @given(polys(), polys(), points())
    @settings(deadline=None)
    def test_add_sub_mul(self, a, b, pt):
        assert at(a + b, pt) == at(a, pt) + at(b, pt)
        assert at(a - b, pt) == at(a, pt) - at(b, pt)
        assert at(a * b, pt) == at(a, pt) * at(b, pt)
        assert at(-a, pt) == -at(a, pt)

    @given(polys(), st.integers(0, 3), points())
    @settings(deadline=None)
    def test_pow(self, a, k, pt):
        assert at(a ** k, pt) == at(a, pt) ** k

    @given(polys(), st.sampled_from(MAPPINGS), points())
    @settings(deadline=None)
    def test_substitute(self, p, mapping, pt):
        assert at(p.substitute(mapping), pt) == at(p, image_point(mapping, pt))


def _dense(key):
    """A key of terms() as the vector (q, x, y, z1, .., z4)."""
    x, y, q, z = key
    zs = dict(z)
    return (q, x, y, *(zs.get(i, 0) for i in range(1, 5)))


class TestCanonicalOrder:
    @given(polys(), polys())
    @settings(deadline=None)
    def test_terms_descend(self, a, b):
        # q, x, y descending, then z1, z2, ... descending; a missing z index
        # counts as exponent 0
        for p in (a, b, a * b + b):
            keys = [k for k, _ in p.terms()]
            for key in keys:
                z = key[3]
                assert list(z) == sorted(z) and all(e > 0 for _, e in z)
                assert len({i for i, _ in z}) == len(z)
            for before, after in zip(keys, keys[1:]):
                assert _dense(before) > _dense(after)


def _dense_wide(key):
    """A key of terms() as the vector (q, x, y, z1, .., z70)."""
    x, y, q, z = key
    zs = dict(z)
    return (q, x, y, *(zs.get(i, 0) for i in range(1, 71)))


class TestWideKeys:
    @given(wide_polys(), wide_polys())
    @settings(deadline=None)
    def test_product_adds_exponents(self, a, b):
        want = {}
        for (xa, ya, qa, za), ca in a.terms():
            for (xb, yb, qb, zb), cb in b.terms():
                z = dict(za)
                for i, e in zb:
                    z[i] = z.get(i, 0) + e
                key = (xa + xb, ya + yb, qa + qb, tuple(sorted(z.items())))
                want[key] = want.get(key, 0) + ca * cb
        assert dict((a * b).terms()) == {k: c for k, c in want.items() if c}

    @given(wide_polys(), wide_polys())
    @settings(deadline=None)
    def test_terms_descend(self, a, b):
        for p in (a, b, a * b + b):
            keys = [k for k, _ in p.terms()]
            for before, after in zip(keys, keys[1:]):
                assert _dense_wide(before) > _dense_wide(after)

    @given(wide_polys(), wide_polys())
    @settings(deadline=None)
    def test_renderings_invert(self, a, b):
        for p in (a, b, a * b):
            assert MultiPoly.parse(p.canonical_text()) == p
            assert MultiPoly.from_json_terms(p.to_json_terms()) == p


def reference_order(p):
    """The terms of p in canonical order by decode and sort: each exchange
    key as the dense vector (q, x, y, z1, .., z70), sorted descending."""
    def dense(term):
        (x, y, q, z), _ = term
        zs = dict(z)
        return (q, x, y, *(zs.get(i, 0) for i in range(1, 71)))
    return sorted(p.terms(), key=dense, reverse=True)


def reference_text(p, latex=False):
    """canonical_text of p joined from its one-term renderings, taken in
    the reference order."""
    out = ""
    for key, c in reference_order(p):
        text = MultiPoly({key: c}).canonical_text(latex=latex)
        if not out:
            out = text
        elif text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out or "0"


@st.composite
def shared_head_polys(draw):
    """Terms on one or two (x, y, q) heads, each head with several z
    vectors over z1..z70 and possibly no z at all."""
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        head = (draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(1, 12))):
            zidx = draw(st.lists(st.integers(1, 70), max_size=3, unique=True))
            z = tuple((i, draw(st.integers(1, 3))) for i in zidx)
            terms[(*head, z)] = draw(st.integers(-3, 3))
    return MultiPoly(terms)


any_polys = st.one_of(polys(), wide_polys(), shared_head_polys())


class TestOrderMatchesReference:
    """canonical_text and terms() follow the decode-and-sort order on
    z-free keys, on z indices up to 70 and on many z vectors under one
    head."""

    @given(any_polys, any_polys)
    @settings(deadline=None)
    def test_terms_and_text(self, a, b):
        for p in (a, b, a * b + b):
            assert list(p.terms()) == reference_order(p)
            for latex in (False, True):
                assert p.canonical_text(latex=latex) == reference_text(
                    p, latex)
            assert MultiPoly.parse(p.canonical_text()) == p

    def test_shared_head(self):
        p = (T(1, x=1, z=((1, 1),)) + T(2, x=1, z=((1, 1), (70, 1)))
             + T(-1, x=1) + T(3, x=1, z=((2, 5),)) + T(1, x=1, z=((1, 2),))
             + T(1, q=1, z=((3, 1),)) + T(1, y=2))
        assert p.canonical_text() == ("q*z3 + x*z1^2 + 2*x*z1*z70 + x*z1 "
                                      "+ 3*x*z2^5 - x + y^2")
        assert list(p.terms()) == reference_order(p)


class TestExponentRange:
    """x, y and z exponents lie in [0, 2^31), q exponents in
    [-2^30, 2^30); a value outside raises OverflowError, never wraps."""

    def test_x_y_z_limits(self):
        top = 2 ** 31 - 1
        assert T(1, x=top).canonical_text() == f"x^{top}"
        assert list(T(1, y=top, z=((9, top),)).terms()) == [
            ((0, top, 0, ((9, top),)), 1)]
        for bad in ({"x": top + 1}, {"y": top + 1}, {"z": ((9, top + 1),)},
                    {"z": ((9, top), (9, 1))}):
            with pytest.raises(OverflowError, match="2\\^31"):
                T(1, **bad)

    def test_q_limits(self):
        assert T(1, q=2 ** 30 - 1).canonical_text() == f"q^{2 ** 30 - 1}"
        assert T(1, q=-2 ** 30).canonical_text() == f"q^-{2 ** 30}"
        assert T(1, q=-2 ** 30) * T(1, q=2 ** 30 - 1) == q_pow(-1)
        for q in (2 ** 30, -2 ** 30 - 1):
            with pytest.raises(OverflowError, match="2\\^30"):
                T(1, q=q)

    def test_product_carry_refused(self):
        half = 2 ** 30
        assert T(1, x=half) * T(1, x=half - 1) == T(1, x=2 ** 31 - 1)
        assert q_pow(-half // 2) * q_pow(-half // 2) == q_pow(-half)
        for a, b in ((T(1, x=half), T(1, x=half)),
                     (T(1, y=1, z=((3, half),)), T(1, z=((3, half),))),
                     (q_pow(half // 2), q_pow(half // 2)),
                     (q_pow(-half), q_pow(-1)),
                     (T(1, x=1, q=-half), q_pow(-1)),
                     (X + q_pow(half - 1), Q)):
            with pytest.raises(OverflowError):
                a * b

    def test_power_refused(self):
        assert q_pow(2 ** 28) ** 3 == q_pow(3 * 2 ** 28)
        with pytest.raises(OverflowError):
            q_pow(2 ** 28) ** 4
        with pytest.raises(OverflowError):
            (1 + T(1, x=2 ** 30)) ** 2

    def test_large_power_takes_few_products(self, monkeypatch):
        # repeated squaring: at most two products per bit of the exponent,
        # so a power that overflows is refused at once, not after 2^31
        # products
        mul, calls = MultiPoly.__mul__, []

        def counted(a, b):
            calls.append(None)
            assert len(calls) <= 64, "more than two products per bit"
            return mul(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", counted)
        assert X ** (2 ** 30) == T(1, x=2 ** 30)
        calls.clear()
        with pytest.raises(OverflowError):
            X ** (2 ** 31)

    def test_substitute_refused(self):
        half = 2 ** 30
        assert T(1, x=2).substitute({"x": T(1, x=half - 1)}) == T(
            1, x=2 ** 31 - 2)
        with pytest.raises(OverflowError):
            T(1, x=2).substitute({"x": T(1, x=half)})
        assert q_pow(half // 2).substitute({"q": q_pow(-2)}) == q_pow(-half)
        with pytest.raises(OverflowError):
            q_pow(half // 2 + 1).substitute({"q": q_pow(-2)})
        with pytest.raises(OverflowError):
            T(1, z=((1, 2),)).substitute({"z": T(1, y=half)})


_HALF = 2 ** 30


def _outside(name, value):
    return f"{name} exponent {value} is outside its field: {polyring._RANGE}"


def _negative(name):
    return f"{name} exponent -1 is negative; only q is Laurent"


class TestErrorPrecedence:
    """When several fields of one monomial leave their range, the error
    names the highest z index first, then y, then x, then q, whatever the
    layout of the packed key."""

    @pytest.mark.parametrize("make, kind, text", [
        (lambda: T(1, x=-1, q=-_HALF - 1), ValueError, _negative("x")),
        (lambda: T(1, x=-1, y=-1), ValueError, _negative("y")),
        (lambda: T(1, y=2 ** 31, q=_HALF), OverflowError,
         _outside("y", 2 ** 31)),
        (lambda: T(1, x=2 ** 31, q=-_HALF - 1), OverflowError,
         _outside("x", 2 ** 31)),
        (lambda: T(1, x=2 ** 31, y=-1, q=_HALF), ValueError, _negative("y")),
        (lambda: T(1, y=-1, q=-_HALF - 1, z=((2, 2 ** 31),)), OverflowError,
         _outside("z2", 2 ** 31)),
        (lambda: T(1, x=-1, z=((1, 2 ** 31), (3, 2 ** 31))), OverflowError,
         _outside("z3", 2 ** 31)),
    ])
    def test_constructor(self, make, kind, text):
        with pytest.raises(kind) as err:
            make()
        assert str(err.value) == text

    @pytest.mark.parametrize("p, mapping, kind, text", [
        # q -> x leaves x at -1 while y -> q^(2^30 - 1) takes q above
        (T(1, y=2, q=-1), {"q": X, "y": T(1, q=_HALF - 1)}, ValueError,
         _negative("x")),
        (T(1, x=2, q=-1), {"q": X, "x": T(1, q=_HALF - 1)}, ValueError,
         _negative("x")),
        (T(1, x=2, q=-1), {"q": Y, "x": T(1, q=_HALF - 1)}, ValueError,
         _negative("y")),
        (T(1, x=2, y=2), {"x": T(1, x=_HALF, y=_HALF)}, OverflowError,
         _outside("y", 2 ** 31 + 2)),
        (T(1, x=2, z=((2, 2),)),
         {"x": T(1, x=_HALF, q=-_HALF), "z2": T(1, z=((2, _HALF),))},
         OverflowError, _outside("z2", 2 ** 31)),
    ])
    def test_substitute(self, p, mapping, kind, text):
        with pytest.raises(kind) as err:
            p.substitute(mapping)
        assert str(err.value) == text


class TestQBorrow:
    """A q exponent below -2^30 borrows out of the q field.  Each product
    below must raise OverflowError, with or without z fields above q and
    when the term cancels in the sum."""

    def test_z_free(self):
        with pytest.raises(OverflowError):
            q_pow(-_HALF) * q_pow(-1)
        with pytest.raises(OverflowError):
            (q_pow(-_HALF) + 1) * (q_pow(-1) + X)

    @pytest.mark.parametrize("z", [((1, 1),), ((5, 1),), ((1, 1), (4, 2))])
    def test_with_z(self, z):
        with pytest.raises(OverflowError):
            T(1, q=-_HALF, z=z) * q_pow(-1)

    def test_cancelled(self):
        low = q_pow(-_HALF)
        with pytest.raises(OverflowError):
            MultiPoly.sum_of_products([(low, q_pow(-1)), (-low, q_pow(-1))])
        with pytest.raises(OverflowError):
            MultiPoly.sum_of_products(
                [(X, Y), (low, q_pow(-1)), (q_pow(-1), -low)])


class TestConstructor:
    def test_rejects_values_that_are_not_integers(self):
        for make in (lambda: MultiPoly({(0.5, 0, 0, ()): 1}),
                     lambda: MultiPoly.term(1, q=1.5),
                     lambda: MultiPoly.term(0.5, q=1),
                     lambda: MultiPoly.term(1, z=((2.0, 1),)),
                     lambda: MultiPoly.term(1, z=((2, 1.0),)),
                     lambda: MultiPoly.term(Fraction(1, 2))):
            with pytest.raises(ValueError):
                make()

    def test_rejects_keys_the_ring_forbids(self):
        with pytest.raises(ValueError):
            MultiPoly({(-1, 0, 0, ()): 1, (0, 0, 0, ((0, -3),)): 2})
        for key in ((-1, 0, 0, ()), (0, 0, 0, ((0, -3),)),
                    (0, -1, 0, ()), (0, 0, 0, ((0, 1),)),
                    (0, 0, 0, ((1, -1),)), (0, 0, 0, ((2, 1), (1, -2)))):
            with pytest.raises(ValueError):
                MultiPoly({key: 1})

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([-1, 0, 2 ** 31 - 1, 2 ** 31, False, True]),
           st.sampled_from([-1, 0, 2 ** 31 - 1, 2 ** 31, False, True]),
           st.sampled_from([-2 ** 30 - 1, -2 ** 30, 2 ** 30 - 1, 2 ** 30,
                            False, True]))
    def test_z_free_keys_pack_as_the_checked_path(self, x, y, q):
        # at the field edges the z-free fast path of _flat gives the key, or
        # the exception type and text, of _pack, whose dense exponents are
        # in field order
        def outcome(make, arg):
            try:
                key = make(arg)
            except (ValueError, OverflowError) as err:
                return type(err), str(err)
            return type(key), key
        exps = {"x": x, "y": y, "q": q}
        assert outcome(polyring._flat, (x, y, q, ())) == outcome(
            polyring._pack, [exps[polyring._name(j)] for j in range(3)])

    def test_normalises_z_order(self):
        p = MultiPoly({(0, 0, 0, ((2, 1), (1, 1))): 1})
        assert p == MultiPoly.term(1, z=((1, 1), (2, 1)))
        assert p.canonical_text() == "z1*z2"

    def test_sums_keys_of_one_monomial(self):
        p = MultiPoly({(1, 0, 2, ((3, 1), (1, 2))): 4,
                       (1, 0, 2, ((1, 2), (3, 1))): -1,
                       (1, 0, 2, ((1, 1), (3, 1), (1, 1))): 2,
                       (0, 0, 0, ((5, 0),)): 7})
        assert p == T(5, x=1, q=2, z=((1, 2), (3, 1))) + 7
        assert list(p.terms()) == [((1, 0, 2, ((1, 2), (3, 1))), 5),
                                   ((0, 0, 0, ()), 7)]
        assert MultiPoly({(0, 0, 0, ((1, 1),)): 1,
                          (0, 0, 0, ((1, 1), (1, 0))): -1}) == 0

    def test_does_not_share_its_argument(self):
        d = {(1, 0, 0, ()): 2, (0, 0, 0, ((1, 1),)): 1}
        p = MultiPoly(d)
        d[(1, 0, 0, ())] = 7
        d[(0, 0, 3, ())] = 1
        del d[(0, 0, 0, ((1, 1),))]
        assert p == T(2, x=1) + T(1, z=((1, 1),))


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

    @given(polys(), st.integers(0, 8))
    @settings(deadline=None)
    def test_pow_is_repeated_product(self, a, k):
        out = MultiPoly.one()
        for _ in range(k):
            out = out * a
        assert a ** k == out

    @given(polys(), polys(), polys())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def reference_sum_of_products(pairs):
    """The sum of a * b by nested loops over exchange keys."""
    def terms(v):
        return v.terms() if isinstance(v, MultiPoly) else [((0, 0, 0, ()), v)]

    out = {}
    for a, b in pairs:
        for (xa, ya, qa, za), ca in terms(a):
            for (xb, yb, qb, zb), cb in terms(b):
                z = dict(za)
                for i, e in zb:
                    z[i] = z.get(i, 0) + e
                key = (xa + xb, ya + yb, qa + qb, tuple(sorted(z.items())))
                out[key] = out.get(key, 0) + ca * cb
    return MultiPoly(out)


factors = st.one_of(polys(), st.integers(-5, 5))


class TestSumOfProducts:
    @given(st.lists(st.tuples(factors, factors), max_size=6))
    @settings(max_examples=150)
    def test_matches_nested_loops(self, pairs):
        assert MultiPoly.sum_of_products(pairs) == reference_sum_of_products(
            pairs)

    @pytest.mark.parametrize("pairs", [
        [],
        [(2, 3)],
        [(X, 2), (-3, Y)],
        [(X, Y), (-X, Y)],
        [(T(1, x=1, q=-2), X + Y + T(2, q=2, z=((3, 1),)))],
        [(X + Y, X - Y), (Y, Y + 1), (T(1, x=1, q=1, z=((2, 2),)), X + Q)],
    ])
    def test_cases(self, pairs):
        # empty list, int operands, products that cancel to zero, one-term
        # and multi-term factors
        assert MultiPoly.sum_of_products(pairs) == reference_sum_of_products(
            pairs)

    def test_cancelled_overflow_refused(self):
        # x^(2^31) is outside its field; its two products cancel in the sum,
        # and the sum is still refused
        big = T(1, x=2 ** 30)
        with pytest.raises(OverflowError):
            MultiPoly.sum_of_products([(big, big), (-big, big)])
        with pytest.raises(OverflowError):
            MultiPoly.sum_of_products([(X, Y), (big, big), (big, -big)])

    @pytest.mark.parametrize("pairs, kind", [
        ([(X, 1.5)], "float"),
        ([("x", X)], "str"),
        ([(X, Y), (2, None)], "NoneType"),
    ])
    def test_other_factor_refused(self, pairs, kind):
        # a factor `*` refuses is refused here too, with the same exception
        with pytest.raises(TypeError):
            X * 1.5
        with pytest.raises(TypeError, match=f"got '{kind}'"):
            MultiPoly.sum_of_products(pairs)


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
        p = T(z=((1, 1),)) * T(z=((2, 1),))
        assert p.substitute({"z1": Q}) == Q * T(z=((2, 1),))

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


def reference_substitute(p, mapping):
    """p.substitute(mapping) by decoding every key into its dense
    exponents, applying each field's image and packing the result."""
    targets = {}
    for name, val in mapping.items():
        if not polyring._VAR_KEY_RE.fullmatch(name):
            raise ValueError(f"unknown substitution variable {name!r}")
        poly = polyring._as_poly(val)
        if poly is None:
            raise ValueError(f"substitution target for {name!r} must be a "
                             "polynomial or integer")
        if len(poly._terms) > 1:
            raise ValueError(f"substitution target for {name!r} is a sum, "
                             "not a single monomial")
        k, c = next(iter(poly._terms.items()), (polyring._ONE, 0))
        targets[name] = (polyring._exps(k), c)

    terms = [(polyring._exps(k), c) for k, c in p._terms.items()]
    images = []
    for j in range(max((len(e) for e, _ in terms), default=0)):
        fixed = ([0] * j + [1], 1)
        images.append(targets.get(polyring._name(j), fixed if j < 3
                                  else targets.get("z", fixed)))
    width = max([3] + [len(e) for e, _ in images])
    out = {}
    for exps_in, coeff in terms:
        exps = [0] * width
        for (te, tc), f in zip(images, exps_in):
            if not f:
                continue
            if f < 0 and tc not in (1, -1):
                if tc == 0:
                    raise ZeroDivisionError(
                        f"cannot raise zero target of q to {f}")
                raise ValueError(f"cannot invert coefficient {tc} exactly "
                                 "when substituting q")
            coeff *= tc ** abs(f)
            for i, t in enumerate(te):
                exps[i] += f * t
        k = polyring._pack(exps)
        out[k] = out.get(k, 0) + coeff
    return polyring._wrap(out)


@st.composite
def targets(draw, coeffs):
    """A substitution target: an int, or one monomial with its coefficient
    from coeffs and a q exponent of either sign."""
    coeff = draw(st.sampled_from(coeffs))
    if draw(st.booleans()):
        return coeff
    zidx = draw(st.lists(st.sampled_from([1, 2, 3, 58, 70]), max_size=2,
                         unique=True))
    return T(coeff, x=draw(st.integers(0, 4)), y=draw(st.integers(0, 4)),
             q=draw(st.integers(-3, 3)),
             z=tuple((i, draw(st.integers(1, 4))) for i in zidx))


def mappings(coeffs):
    return st.dictionaries(
        st.sampled_from(["x", "y", "q", "z", "z1", "z2", "z3", "z58", "z70"]),
        targets(coeffs), min_size=1, max_size=4)


#: A polynomial and a mapping to substitute into it.  A target with
#: coefficient 2 raises each term's coefficient to 2^f, which for the
#: exponents of wide_polys() is an int of up to 2^29 bits, so wide
#: polynomials are drawn with coefficients 0 and +-1 only.
substitutions = st.one_of(
    st.tuples(polys(), mappings([0, 1, -1, 2])),
    st.tuples(wide_polys(), mappings([0, 1, -1])))


def outcome(f, *args):
    """f(*args), or the type and text of the exception it raises."""
    try:
        return f(*args)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestSubstituteMatchesReference:
    """substitute on packed keys agrees with decode-and-pack, exceptions
    included."""

    @given(substitutions)
    @settings(max_examples=300, deadline=None)
    @example((T(3, x=1, z=((1, 2), (70, 1))) + T(1, y=1, z=((4, 1),)),
              {"z": 1}))
    @example((T(1, q=-2, z=((5, 1),)) + X, {}))
    @example((T(1, q=-1, z=((3, 2 ** 30),)),
              {"q": T(z=((1, 1),)), "z3": T(z=((3, 1),)) ** 2}))
    def test_agrees(self, case):
        # a z -> 1 image is shorter than the fields it clears, {} fixes
        # every key, and the last example takes z1 below 0 and z3 above
        # its field, where the higher field's OverflowError wins
        p, mapping = case
        assert outcome(p.substitute, mapping) == outcome(
            reference_substitute, p, mapping)


class TestEvaluate:
    def test_coefficient_sum(self):
        p = T(1, x=4, q=6) + T(3, x=2, y=1, q=5) + T(1, y=2, q=4)
        assert p.evaluate(x=1, y=1, q=1) == 5

    def test_laurent_point(self):
        p = q_pow(-1) + Q
        assert small(p).evaluate(q=2) == Fraction(5, 2)

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

    @pytest.mark.parametrize("p, text, latex", [
        (T(1, z=((1, 1), (2, 1))), "z1*z2", "z_{1} z_{2}"),
        (T(-1, z=((5, 1),)), "-z5", "-z_{5}"),
        (T(1, z=((2, 6),)), "z2^6", "z_{2}^{6}"),
        (T(4, q=-1, z=((1, 1),)), "4*q^-1*z1", "4 q^{-1} z_{1}"),
        (T(7, y=1, z=((3, 2),)) - 1, "7*y*z3^2 - 1", "7 y z_{3}^{2} - 1"),
        (T(-3, x=2) + T(5), "-3*x^2 + 5", "-3 x^{2} + 5"),
        (T(1, q=-3) + T(2, x=1, q=-1), "2*x*q^-1 + q^-3",
         "2 x q^{-1} + q^{-3}"),
    ])
    def test_pinned_renderings(self, p, text, latex):
        # z-only and z-bearing terms, a negative first term, a constant
        # with a coefficient and negative q exponents, in both formats
        assert (p.canonical_text(), p.canonical_text(latex=True)) == (
            text, latex)

    def test_text_and_latex_interleaved(self):
        # the two formats keep separate factor caches: renders that alternate
        # between them in one process equal renders from emptied caches
        polys = [qfib.qfib_recursive(f, n) for f in ("D'", "W1", "I'")
                 for n in (3, 9, 14)]
        polys += [T(1, q=-3, z=((2, 6),)) - T(2, x=1, y=3, q=4), Q - 1]
        mixed = []
        for i, p in enumerate(polys):
            order = (False, True) if i % 2 else (True, False)
            mixed.append({latex: p.canonical_text(latex=latex)
                          for latex in order})
        for latex in (False, True):
            for cache in polyring._PLAIN + polyring._LATEX:
                cache.clear()
            alone = [p.canonical_text(latex=latex) for p in polys]
            assert [m[latex] for m in mixed] == alone
        assert not any("{" in m[False] or "*" in m[True] for m in mixed)

    def test_cache_cap_crossed(self, monkeypatch):
        # more distinct q exponents than a cache holds: the cache is emptied
        # on the way and never exceeds its cap, and the text is unchanged
        cap = polyring._TEXTS_CAP
        p = MultiPoly({(0, 0, e, ()): 1 for e in range(-50, cap + 50)})
        want = " + ".join(["q^" + str(e) for e in range(cap + 49, 1, -1)]
                          + ["q", "1"]
                          + ["q^" + str(e) for e in range(-1, -51, -1)])
        for _ in range(2):
            assert p.canonical_text() == want
            assert len(polyring._PLAIN[2]) <= cap
        rows = [qfib.qfib_recursive(f, n) for f in ("D'", "W1") for n in
                range(21)]
        full = [(r.canonical_text(), r.canonical_text(latex=True))
                for r in rows]
        monkeypatch.setattr(polyring, "_TEXTS_CAP", 5)
        for cache in polyring._PLAIN + polyring._LATEX:
            cache.clear()
        assert [(r.canonical_text(), r.canonical_text(latex=True))
                for r in rows] == full
        assert max(map(len, polyring._PLAIN + polyring._LATEX)) <= 5

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
