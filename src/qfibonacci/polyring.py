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
constructor, which raises ``OverflowError`` naming the field limit), in
``sum_of_products``, through which ``*`` and ``**`` multiply, by testing
the guard bits of the OR of every product key, and in ``substitute``.
``substitute`` works on the keys themselves: it reads the fields of the
mapped variables, range-checks each field their images change, and adds
each change to the key in place, (new - old) << 32*i for field i.

The canonical term order is q, x, y exponents descending, then the z
exponents as a vector z1, z2, ... compared descending.  The low 96 bits of
a key, its head, hold q, x and y; z-free keys sort on the head's fields
repacked as the int q << 64 | x << 32 | y.  When some key has z, the keys
are split once into head and z part (key >> 96): the distinct heads and
the distinct z parts are each ranked once, the z parts by their decoded
exponent vectors, and the terms sort on the two ranks.  ``terms()`` and
``canonical_text`` share that order, and rendering builds the text of each
head and each z part once.  Ring operations build term dicts themselves
and wrap them unvalidated.  A polynomial maps keys to nonzero
coefficients; the zero polynomial is the empty mapping.  All values are
immutable: every operation returns a new polynomial.
"""

from __future__ import annotations

import re
import struct
import sys
from functools import reduce
from itertools import compress, count
from operator import or_
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from fractions import Fraction

#: The exchange key of a monomial: (x, y, q, ((z index, exponent), ...)).
Monomial = tuple[int, int, int, tuple[tuple[int, int], ...]]

_VAR_KEY_RE = re.compile(r"^(x|y|q|z|z[1-9][0-9]*)$")
_FACTOR_RE = re.compile(r"^(x|y|q|z[1-9][0-9]*)(?:\^(-?[0-9]+))?$")

_BIAS = 1 << 30   # added to the q exponent in field 0; the key of 1
_LIMIT = 1 << 31  # every stored field is below this
_MASK = (1 << 32) - 1  # one field
_HEAD = (1 << 96) - 1  # fields 0-2, the q, x and y of a key
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
            _refuse(j, f)
        key = key << 32 | f
    return key


def _refuse(j: int, f: int) -> None:
    """Raise the error for the value f, outside [0, 2^31), of field j."""
    if f < 0 and j:
        raise ValueError(f"{_name(j)} exponent {f} is negative; "
                         "only q is Laurent")
    raise OverflowError(f"{_name(j)} exponent {f - _BIAS if j == 0 else f} "
                        f"is outside its field: {_RANGE}")


def _flat(key: Monomial) -> int:
    """The internal key of an exchange key, validated."""
    a, b, e, z = key
    if not (isinstance(a, int) and isinstance(b, int) and isinstance(e, int)):
        raise ValueError(f"exponents must be integers, got {(a, b, e)!r}")
    if z == () and 0 <= a < _LIMIT and 0 <= b < _LIMIT and -_BIAS <= e < _BIAS:
        # z-free and in range: the fields packed at once
        return b << 64 | a << 32 | e + _BIAS
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


def _refuse_delta(key: int, delta: dict[int, int]) -> None:
    """Raise the error for the highest field of key that delta, changes
    by field shift, takes outside [0, 2^31)."""
    for shift in sorted(delta, reverse=True):
        f = (key >> shift & _MASK) + delta[shift]
        if not 0 <= f < _LIMIT:
            _refuse(shift >> 5, f)


def _fields(key: int) -> tuple[int, ...]:
    """The fields of a key, from field 0 to its last nonzero one: (e + 2^30,
    a, b, f1, ..., fk) for a monomial's key, () for 0.  "I" is the native
    32-bit unsigned int, hence the native byte order."""
    n = (key.bit_length() + 31) >> 5
    return struct.unpack(f"{n}I", key.to_bytes(4 * n, sys.byteorder))


def _head_rank(head: int) -> int:
    """The fields q + 2^30, x, y of a head (a key below 2^96) repacked
    as q << 64 | x << 32 | y, whose int order is their canonical order."""
    return (head & _MASK) << 64 | (head >> 32 & _MASK) << 32 | head >> 64


def _exps(key: int) -> list[int]:
    """The dense exponents [e, a, b, f1, ..., fk] of a key, at least
    three."""
    exps = list(_fields(key))
    exps += [0] * (3 - len(exps))
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

    # -- basic queries ------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical order (the order used by canonical_text),
        with exchange keys."""
        order, zvecs = self._canonical()
        zs = {z: tuple((i, f) for i, f in enumerate(v, 1) if f)
              for z, v in zvecs.items()}
        return (((h >> 32 & _MASK, h >> 64, (h & _MASK) - _BIAS, zs[z]), c)
                for h, z, c in order)

    def _canonical(self) -> tuple[list[tuple[int, int, int]],
                                  dict[int, tuple[int, ...]]]:
        """The terms as (head, z part, coefficient) triples in canonical
        order, and the z vector (f1, ..., fk) of each z part.  The head
        key & _HEAD holds q, x and y, the z part key >> 96 the z fields.
        Canonical order is q, x, y exponents descending, then the z vector
        compared descending; _head_rank gives the first three.  Only when
        some key has z are the keys split.  The distinct heads are then
        ranked by _head_rank, and the distinct z parts by their decoded
        vectors in tuple order, which is vector order: a decoded z part
        has no trailing zero, so a proper prefix is a vector whose missing
        exponents are 0 and sorts below the longer one.  Terms sort on the
        two ranks, the z part's below the head's."""
        terms = self._terms
        if max(terms, default=0) <= _HEAD:
            return ([(k, 0, terms[k])
                     for k in sorted(terms, key=_head_rank, reverse=True)],
                    {0: ()})
        order = [(k & _HEAD, k >> 96, c) for k, c in terms.items()]
        zvecs = {z: _fields(z) for z in {z for _, z, _ in order}}
        zrank = {z: r for r, z in enumerate(sorted(zvecs, key=zvecs.get))}
        bits = len(zrank).bit_length()
        hrank = {h: r << bits for r, h in enumerate(
            sorted({h for h, _, _ in order}, key=_head_rank))}
        order.sort(key=lambda t: hrank[t[0]] | zrank[t[1]], reverse=True)
        return order, zvecs

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
        more than one term is out of contract and rejected.  A target with
        coefficient c scales a term by c^|f|, f its exponent of the mapped
        variable, unbounded: x^(2^29) under x -> 2x builds a 64 MB int.
        The CLI's targets all have coefficient 1.
        """
        targets: dict[str, tuple[int, int]] = {}
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
            targets[name] = next(iter(poly._terms.items()), (_BIAS, 0))

        # Each mapped field j that some key holds, as its shift, its bias,
        # its target's coefficient and the change one unit of its exponent
        # makes to each field (by shift): the target's exponents minus 1 in
        # field j.  An unmapped variable maps to itself and changes nothing.
        maps = []
        for j in range((max(self._terms, default=0).bit_length() + 31) >> 5):
            target = targets.get(_name(j))
            if target is None and j >= 3:
                target = targets.get("z")
            if target is None:
                continue
            change = dict(enumerate(_exps(target[0])))
            change[j] = change.get(j, 0) - 1
            maps.append((32 * j, 0 if j else _BIAS, target[1],
                         [(32 * i, d) for i, d in change.items() if d]))

        out: dict[int, int] = {}
        for key, coeff in self._terms.items():
            delta: dict[int, int] = {}
            for shift, bias, tc, change in maps:
                f = (key >> shift & _MASK) - bias
                if not f:
                    continue
                if f < 0 and tc not in (1, -1):  # only q is Laurent
                    if tc == 0:
                        raise ZeroDivisionError(
                            f"cannot raise zero target of q to {f}")
                    raise ValueError(f"cannot invert coefficient {tc} exactly "
                                     "when substituting q")
                coeff *= tc ** abs(f)
                for at, d in change:
                    delta[at] = delta.get(at, 0) + f * d
            k = key
            for shift, d in delta.items():
                if not 0 <= (key >> shift & _MASK) + d < _LIMIT:
                    _refuse_delta(key, delta)
                k += d << shift
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
        each factor string, separator first, once per exponent, and the
        text of each (q, x, y) head and each z vector once.
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
        order, zvecs = self._canonical()
        zs = {z: "".join(map(zf, zip(compress(count(1), v), filter(None, v))))
              for z, v in zvecs.items()}
        out, last = [], None
        for h, z, coeff in order:
            if h != last:  # terms of one head are adjacent
                last, head = h, (xs[h >> 32 & _MASK] + ys[h >> 64]
                                 + qs[(h & _MASK) - _BIAS])
            body = head + zs[z]
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


def q_pow(e: int) -> MultiPoly:
    """q^e as a polynomial (e may be negative)."""
    return MultiPoly.term(1, q=e)
