"""Exact sparse polynomial arithmetic in x, y, q and an indexed z-family.

A polynomial is a finite integer combination of monomials

    c * x^a * y^b * q^e * z_{i1}^{f1} * z_{i2}^{f2} * ...

with arbitrary-precision integer coefficients.  The q exponent may be
negative (Laurent in q); x, y and every z_i are restricted to nonnegative
exponents so that encoding mistakes surface immediately instead of
producing silently meaningless polynomials.

Callers describe a monomial by the exchange key ``(a, b, e, zexps)``, where
``zexps`` is a tuple of ``(index, exponent)`` pairs in any order.  The
constructor ``MultiPoly(terms)`` is the one place that reads exchange keys:
it rejects exponents, z indices and coefficients that are not integers,
negative x, y or z exponents and z indices below 1, and sums keys that
name the same monomial.  ``term``, ``parse`` and ``from_json_terms`` go
through it, and ``terms()`` hands exchange keys back, with the z pairs
sorted by index and free of zero exponents.

Inside this module a monomial is one Python int made of 32-bit fields,
field 0 the lowest: field 0 holds e + 2^30 (the bias makes the Laurent
exponent nonnegative), fields 1 and 2 hold a and b, and field 2 + i holds
the exponent of z_i.  Every stored field is below 2^31, so x, y and z
exponents lie in [0, 2^31) and q exponents in [-2^30, 2^30).  Bit 31 of
each field is a guard bit and is clear in every key.  Zero fields above
the last nonzero one cost nothing, so there is nothing to strip: the
monomial 1 is the key 2^30, and equal polynomials have equal term dicts.

A monomial product is one int addition, ka + kb - 2^30.  Two fields below
2^31 sum below 2^32 without a carry, so a product exponent that leaves its
range sets the guard bit of its field (a q sum below -2^30 borrows, which
sets bit 31 of field 0).  The range is checked where keys are packed (the
constructor and ``substitute``, which raise ``OverflowError`` naming the
field limit) and in ``sum_of_products``, through which ``*`` and ``**``
multiply, by testing the guard bits of the OR of every product key.  A key
decodes to the tuple (e + 2^30, a, b, f1, ..., fk), at least three fields
long and without trailing zero z fields, which compared descending is the
canonical term order.  Ring operations build term dicts themselves and wrap
them unvalidated.  A polynomial maps keys to nonzero coefficients; the zero
polynomial is the empty mapping.  All values are immutable: every
operation returns a new polynomial.
"""

from __future__ import annotations

import re
import struct
import sys
from functools import reduce
from itertools import compress, count
from operator import itemgetter, or_
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from fractions import Fraction

#: The exchange key of a monomial: (x, y, q, ((z index, exponent), ...)).
Monomial = tuple[int, int, int, tuple[tuple[int, int], ...]]

_VAR_KEY_RE = re.compile(r"^(x|y|q|z|z[1-9][0-9]*)$")
_FACTOR_RE = re.compile(r"^(x|y|q|z[1-9][0-9]*)(?:\^(-?[0-9]+))?$")

_BIAS = 1 << 30   # added to the q exponent in field 0; the key of 1
_LIMIT = 1 << 31  # every stored field is below this
_RANGE = "x, y and z exponents must lie in [0, 2^31) and q in [-2^30, 2^30)"


def _name(j: int) -> str:
    """The variable of field j."""
    return "qxy"[j] if j < 3 else f"z{j - 2}"


def _pack(exps: list[int]) -> int:
    """The key of the dense exponents [e, a, b, f1, ..., fk], range-checked."""
    key = 0
    for j in range(len(exps) - 1, -1, -1):
        f = exps[j] + _BIAS if j == 0 else exps[j]
        if not 0 <= f < _LIMIT:
            if f < 0 and j:
                raise ValueError(f"{_name(j)} exponent {f} is negative; "
                                 "only q is Laurent")
            raise OverflowError(f"{_name(j)} exponent {exps[j]} is outside "
                                f"its field: {_RANGE}")
        key = key << 32 | f
    return key


def _flat(key: Monomial) -> int:
    """The internal key of an exchange key, validated."""
    a, b, e, z = key
    if not (isinstance(a, int) and isinstance(b, int) and isinstance(e, int)):
        raise ValueError(f"exponents must be integers, got {(a, b, e)!r}")
    exps = [e, a, b]
    for i, f in z:
        if not isinstance(i, int) or i < 1:
            raise ValueError(f"z index must be a positive integer, got {i!r}")
        if not isinstance(f, int) or f < 0:
            raise ValueError(f"z{i} exponent must be a nonnegative integer, "
                             f"got {f!r}")
        if f:
            exps.extend([0] * (i + 3 - len(exps)))
            exps[i + 2] += f
    return _pack(exps)


def _fields(key: int) -> tuple[int, ...]:
    """The fields (e + 2^30, a, b, f1, ..., fk) of a key.  "I" is the
    native 32-bit unsigned int, hence the native byte order."""
    n = (key.bit_length() + 31) >> 5
    if n < 3:
        n = 3
    return struct.unpack(f"{n}I", key.to_bytes(4 * n, sys.byteorder))


def _exchange(fields: tuple[int, ...]) -> Monomial:
    e, a, b, *z = fields
    return (a, b, e - _BIAS, tuple((i, f) for i, f in enumerate(z, 1) if f))


def _exps(key: int) -> list[int]:
    """The dense exponents [e, a, b, f1, ..., fk] of a key."""
    exps = list(_fields(key))
    exps[0] -= _BIAS
    return exps


def _guard_mask(bits: int) -> int:
    """The guard bit of every field of a key up to bits long."""
    return int.from_bytes(b"\0\0\0\x80" * ((bits + 31) >> 5), "little")


class MultiPoly:
    """Sparse exact polynomial in x, y, q (Laurent) and the z_i family."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        out: dict[int, int] = {}
        for key, c in (terms or {}).items():
            if not isinstance(c, int):
                raise ValueError(f"coefficient must be an integer, got {c!r}")
            k = _flat(key)
            out[k] = out.get(k, 0) + c
        self._terms = _nonzero(out)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.term(1)

    @classmethod
    def term(cls, coeff: int, x: int = 0, y: int = 0, q: int = 0,
             z: Iterable[tuple[int, int]] = ()) -> "MultiPoly":
        """The single-term polynomial coeff * x^x * y^y * q^q * prod z_i^e."""
        return cls({(x, y, q, tuple(z)): coeff})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        """The variable polynomial for 'x', 'y', 'q' or 'z<i>'."""
        if name == "x":
            return cls.term(1, x=1)
        if name == "y":
            return cls.term(1, y=1)
        if name == "q":
            return cls.term(1, q=1)
        m = re.fullmatch(r"z([1-9][0-9]*)", name)
        if m:
            return cls.term(1, z=((int(m.group(1)), 1),))
        raise ValueError(f"unknown variable {name!r}")

    # -- basic queries ------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical order (the order used by canonical_text),
        with exchange keys."""
        return ((_exchange(f), c) for f, c in self._ordered())

    def _ordered(self) -> list[tuple[tuple[int, ...], int]]:
        """The (fields, coefficient) pairs in canonical order: q, x, y
        exponents descending, then the z exponents as a vector z1, z2, ...
        compared descending.  Decoded fields are in exactly that order,
        and a key without z_i has exponent 0 there, which tuple order
        matches: a proper prefix sorts below the longer key, whose extra
        fields end in a positive one."""
        return sorted(zip(map(_fields, self._terms), self._terms.values()),
                      key=itemgetter(0), reverse=True)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    # not hashable: == accepts ints, so a hash would have to agree with
    # int hashes
    __hash__ = None

    def __add__(self, other: object) -> "MultiPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: object) -> "MultiPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "MultiPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "MultiPoly":
        if _as_poly(other) is None:
            return NotImplemented
        return MultiPoly.sum_of_products(((self, other),))

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple]) -> "MultiPoly":
        """The sum of a * b over the pairs (a, b), each product term added
        straight into one term dict, the smaller factor in the outer loop.
        The guard bits are tested on the OR of every product key, zero
        coefficients included, so a product exponent outside its field
        raises OverflowError even when its term cancels in the sum.  A
        factor other than a polynomial or an int raises TypeError."""
        out: dict[int, int] = {}
        for a, b in pairs:
            ta, tb = _factor(a)._terms, _factor(b)._terms
            if len(ta) > len(tb):
                ta, tb = tb, ta
            for ka, ca in ta.items():
                ka -= _BIAS
                for kb, cb in tb.items():
                    k = ka + kb
                    out[k] = out.get(k, 0) + ca * cb
        guards = reduce(or_, out, 0)
        if guards & _guard_mask(guards.bit_length()):
            raise OverflowError("a product exponent is outside its field: "
                                + _RANGE)
        return _wrap(out)

    def __pow__(self, n: int) -> "MultiPoly":
        """self ** n by repeated squaring.  Each product goes through `*`,
        so an exponent outside its field raises OverflowError; a square is
        taken only while bits of n remain, so it never exceeds the
        result's own range."""
        if n < 0:
            raise ValueError("negative polynomial powers are not supported")
        out, base = MultiPoly.one(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- substitution and evaluation ------------------------------------

    def substitute(self, mapping: Mapping[str, "MultiPoly | int"]) -> "MultiPoly":
        """Apply the ring homomorphism sending each mapped variable to a
        single signed monomial (e.g. q -> q^-1, x -> x*q^3, z -> 1).

        Keys are 'x', 'y', 'q', a specific 'z<i>', or 'z' meaning every
        z index at once.  Unmapped variables are fixed.  A target with
        more than one term is out of contract and rejected.
        """
        targets: dict[str, tuple[list[int], int]] = {}
        for name, val in mapping.items():
            if not _VAR_KEY_RE.fullmatch(name):
                raise ValueError(f"unknown substitution variable {name!r}")
            poly = _as_poly(val)
            if poly is None:
                raise ValueError(f"substitution target for {name!r} must be a "
                                 "polynomial or integer")
            if len(poly._terms) > 1:
                raise ValueError(f"substitution target for {name!r} is a sum, "
                                 "not a single monomial")
            k, c = next(iter(poly._terms.items()), (_BIAS, 0))
            targets[name] = (_exps(k), c)

        terms = [(_exps(k), c) for k, c in self._terms.items()]
        # images[j] is the (exponents, coeff) image of the variable of
        # field j; an unmapped variable maps to itself.
        images = []
        for j in range(max((len(e) for e, _ in terms), default=0)):
            fixed = ([0] * j + [1], 1)
            images.append(targets.get(_name(j), fixed if j < 3
                                      else targets.get("z", fixed)))
        width = max([3] + [len(e) for e, _ in images])

        out: dict[int, int] = {}
        for exps_in, coeff in terms:
            exps = [0] * width
            for (te, tc), f in zip(images, exps_in):
                if not f:
                    continue
                if f < 0 and tc not in (1, -1):  # only q is Laurent
                    if tc == 0:
                        raise ZeroDivisionError(
                            f"cannot raise zero target of q to {f}")
                    raise ValueError(f"cannot invert coefficient {tc} exactly "
                                     "when substituting q")
                coeff *= tc ** abs(f)
                for i, t in enumerate(te):
                    exps[i] += f * t
            k = _pack(exps)
            out[k] = out.get(k, 0) + coeff
        return _wrap(out)

    def evaluate(self, x: int | Fraction = 1, y: int | Fraction = 1,
                 q: int | Fraction = 1,
                 z: Mapping[int, int | Fraction] | int | Fraction | None = None,
                 ) -> Fraction:
        """Exact value at a numeric point.  z maps index -> value
        (unlisted indices default to 1); a bare number sets every z_i.
        q = 0 is rejected when a term has a negative q exponent.
        """
        from fractions import Fraction
        qv = Fraction(q)
        total = Fraction(0)
        for key, coeff in self._terms.items():
            e, a, b, *zz = _exps(key)
            if qv == 0 and e < 0:
                raise ZeroDivisionError(
                    "evaluation at q = 0 with a negative q exponent")
            val = Fraction(coeff) * Fraction(x) ** a * Fraction(y) ** b
            val *= qv ** e
            for i, f in enumerate(zz, 1):
                if z is None:
                    zi = Fraction(1)
                elif isinstance(z, Mapping):
                    zi = Fraction(z.get(i, 1))
                else:
                    zi = Fraction(z)
                val *= zi ** f
            total += val
        return total

    # -- rendering and parsing ------------------------------------------

    def canonical_text(self, latex: bool = False) -> str:
        """Deterministic rendering: terms sorted by qexp descending, then
        xexp, yexp and z exponents descending; unit exponents and unit
        coefficients elided; negative q exponents written q^-k.  With
        latex, exponents are braced and products are spaces.  A call builds
        each factor string, separator first, once per exponent or z vector.
        """
        if not self._terms:
            return "0"
        sep, power = (" ", "^{{{}}}") if latex else ("*", "^{}")

        def factors(name: str) -> _Texts:
            return _Texts((sep + name + power).format, {0: "", 1: sep + name})

        xs, ys, qs = factors("x"), factors("y"), factors("q")
        zname = ("z_{{{}}}" if latex else "z{}").format
        zf = _Texts(lambda i_f: sep + zname(i_f[0]) + (
            "" if i_f[1] == 1 else power.format(i_f[1]))).__getitem__
        zs = _Texts(lambda z: "".join(
            map(zf, zip(compress(count(1), z), filter(None, z)))))
        out = []
        for fields, coeff in self._ordered():
            body = (xs[fields[1]] + ys[fields[2]] + qs[fields[0] - _BIAS]
                    + zs[fields[3:]])
            c = abs(coeff)
            out.append(" + " if coeff > 0 else " - ")
            out.append(body[1:] if c == 1 and body else str(c) + body)
        out[0] = "" if out[0] == " + " else "-"
        return "".join(out)

    def __repr__(self) -> str:
        return f"MultiPoly({self.canonical_text()})"

    def to_json_terms(self) -> list[dict]:
        """JSON term list: {coeff: decimal text, x, y, q, z: [[i, e], ...]}."""
        return [
            {"coeff": str(c), "x": k[0], "y": k[1], "q": k[2],
             "z": [[i, e] for i, e in k[3]]}
            for k, c in self.terms()
        ]

    @classmethod
    def from_json_terms(cls, data: Iterable[Mapping]) -> "MultiPoly":
        return cls(_collect(
            ((t["x"], t["y"], t["q"],
              tuple((int(i), int(e)) for i, e in t.get("z", ()))),
             int(t["coeff"]))
            for t in data))

    @classmethod
    def parse(cls, text: str) -> "MultiPoly":
        """Inverse of canonical_text (also tolerates extra whitespace)."""
        s = text.strip()
        if s in ("", "0"):
            return cls.zero()
        s = s.replace(" - ", " + -").replace("\t", " ")
        terms = []
        for chunk in s.split(" + "):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"cannot parse polynomial text {text!r}")
            sign = 1
            if chunk.startswith("-"):
                sign = -1
                chunk = chunk[1:].strip()
            coeff = sign
            x = y = q = 0
            z: list[tuple[int, int]] = []
            for factor in chunk.split("*"):
                factor = factor.strip()
                if re.fullmatch(r"[0-9]+", factor):
                    coeff *= int(factor)
                    continue
                m = _FACTOR_RE.fullmatch(factor)
                if not m:
                    raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
                name, exp_s = m.groups()
                exp = 1 if exp_s is None else int(exp_s)
                if name == "x":
                    x += exp
                elif name == "y":
                    y += exp
                elif name == "q":
                    q += exp
                else:
                    z.append((int(name[1:]), exp))
            terms.append(((x, y, q, tuple(z)), coeff))
        return cls(_collect(terms))


def _collect(terms: Iterable[tuple[Monomial, int]]) -> dict[Monomial, int]:
    """Exchange-key terms summed into one mapping for the constructor."""
    out: dict[Monomial, int] = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return out


def _nonzero(terms: dict) -> dict:
    """Drop zero coefficients from terms in place."""
    if 0 in terms.values():
        for k in [k for k, c in terms.items() if not c]:
            del terms[k]
    return terms


def _wrap(terms: dict[int, int]) -> MultiPoly:
    """The polynomial of a term dict the ring built itself: its keys are
    internal and canonical, so they are not validated, and the dict is
    taken over, not copied."""
    p = MultiPoly.__new__(MultiPoly)
    p._terms = _nonzero(terms)
    return p


def _as_poly(v: object) -> MultiPoly | None:
    if isinstance(v, MultiPoly):
        return v
    if isinstance(v, int):
        return _wrap({_BIAS: v})
    return None


def _factor(v: object) -> MultiPoly:
    """A factor of sum_of_products as a polynomial, refusing what `*`
    refuses."""
    poly = _as_poly(v)
    if poly is None:
        raise TypeError("sum_of_products factors must be polynomials or "
                        f"integers, got {type(v).__name__!r}")
    return poly


class _Texts(dict):
    """Strings by key, each built by render on its first lookup."""

    def __init__(self, render, seed=()):
        super().__init__(seed)
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


# Convenience variable constants.
X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Q = MultiPoly.var("q")


def z_var(i: int) -> MultiPoly:
    return MultiPoly.var(f"z{i}")


def q_pow(e: int) -> MultiPoly:
    """q^e as a polynomial (e may be negative)."""
    return MultiPoly.term(1, q=e)
