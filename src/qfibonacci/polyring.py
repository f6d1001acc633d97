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
field 0 the lowest: field 0 holds b, field 1 holds a, field 2 holds
e + 2^30 (the bias makes the Laurent exponent nonnegative), and field 2 + i
holds the exponent of z_i.  Every stored field is below 2^31, so x, y and
z exponents lie in [0, 2^31) and q exponents in [-2^30, 2^30).  Bit 31 of
each field is a guard bit and is clear in every key.  Zero fields above
the last nonzero one cost nothing, so there is nothing to strip: the
monomial 1 is the key 2^30 << 64, and equal polynomials have equal term
dicts.  When several fields of a monomial leave their range, the error
names the highest z index first, then y, then x, then q.

A monomial product is one int addition, ka + kb - (2^30 << 64).  Two
fields below 2^31 sum below 2^32 without a carry, so a product exponent
that leaves its range sets the guard bit of its field.  A q sum below
-2^30 borrows from the field above q: it sets bit 31 of field 2 when the
key has z, and makes a z-free key negative.  The range is checked where
keys are packed (the constructor, which raises ``OverflowError`` naming
the field limit), in ``sum_of_products``, through which ``*`` and ``**``
multiply, by testing the sign and the guard bits of the OR of every
product key, and in ``substitute``.  ``substitute`` works on the keys
themselves: it reads the fields of the mapped variables, range-checks
each field their images change, and adds each change to the key in place,
(new - old) << 32*i for field i.

Two fast paths sit in front of those loops.  Each is chosen by one test
on the whole polynomial, and anything it does not serve goes to the loop,
which stays the one reference and raises every error:

- A q row is a polynomial in q alone (no x, y or z) with nonnegative
  coefficients, such as a row of the West recursions.  When every factor
  of ``sum_of_products`` is one, the sum is taken by Kronecker
  substitution: a row is the int whose digit i is its coefficient of
  q^(lo + i), and the sum is bignum products and shifts, unpacked with one
  ``struct.unpack``.  A digit is as wide as the sum's value at q = 1
  needs, in multiples of 64 bits (the W2 and W3 rows pass 64 bits at 48).
  A sum whose q leaves its field, or that would span more than twice its
  term products plus 64 exponents, goes to the loop.  Each polynomial has
  a second slot, ``_packed``, that holds its row shape and its digits at
  the last width used; the packed path fills it for its results, and a
  factor that has none is packed once, on first use.
- ``substitute`` on z-free keys, when each mapped x, y or q goes to a
  z-free monomial with coefficient 1 (q -> q^-1, x -> x*q^a, y -> y*q^b),
  moves every key at once: f * (target - 1 - unit of field j) for an
  exponent f of field j, through map chains.  A field that leaves its
  range, or two keys that meet (q -> 1), send it to the loop.

The canonical term order is q, x, y exponents descending, then the z
exponents as a vector z1, z2, ... compared descending.  The low 96 bits of
a key, its head, hold (q + 2^30) << 64 | x << 32 | y, so heads compare as
plain ints in canonical order and a z-free polynomial sorts its keys as
they are.  When some key has z, only the distinct z parts (key >> 96) are
ranked, and the terms sort on the head above the z part's rank.  When
every z exponent is below 256 the parts are ranked by their little-endian
bytes, which compare as the vectors do; otherwise by their decoded
exponent vectors.  ``terms()`` and ``canonical_text`` share that
order.  The factor strings of rendering (``*x^a``, ``*q^e``, ``*z2^f``
and their LaTeX forms) are built once per process, in caches of at most
``_TEXTS_CAP`` strings each; a call builds the text of each z part once.
Ring operations build term dicts themselves and wrap them unvalidated.  A
polynomial maps keys to nonzero coefficients; the zero polynomial is the
empty mapping.  All values are immutable: every operation returns a new
polynomial.
"""

from __future__ import annotations

import re
import struct
import sys
from functools import reduce
from itertools import compress, count, repeat
from operator import add, and_, lshift, mul, or_, rshift, sub
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from fractions import Fraction

#: The exchange key of a monomial: (x, y, q, ((z index, exponent), ...)).
Monomial = tuple[int, int, int, tuple[tuple[int, int], ...]]

_VAR_KEY_RE = re.compile(r"^(x|y|q|z|z[1-9][0-9]*)$")
_FACTOR_RE = re.compile(r"^(x|y|q|z[1-9][0-9]*)(?:\^(-?[0-9]+))?$")

_BIAS = 1 << 30   # added to the q exponent in field 2
_ONE = _BIAS << 64  # the key of the monomial 1
_LIMIT = 1 << 31  # every stored field is below this
_MASK = (1 << 32) - 1  # one field
_HEAD = (1 << 96) - 1  # fields 0-2, the y, x and q of a key
_XY = (1 << 64) - 1  # fields 0-1, the y and x of a key
_RANGE = "x, y and z exponents must lie in [0, 2^31) and q in [-2^30, 2^30)"


def _name(j: int) -> str:
    """The variable of field j."""
    return "yxq"[j] if j < 3 else f"z{j - 2}"


def _pack(exps: list[int]) -> int:
    """The key of the dense exponents [b, a, e, f1, ..., fk] (field order,
    at least three), range-checked: z fields from the highest index down,
    then y, x and q."""
    fields = [*exps]
    fields[2] += _BIAS
    for j in (*range(len(fields) - 1, 2, -1), 0, 1, 2):
        if not 0 <= fields[j] < _LIMIT:
            _refuse(j, fields[j])
    key = 0
    for f in reversed(fields):
        key = key << 32 | f
    return key


def _refuse(j: int, f: int) -> None:
    """Raise the error for the value f, outside [0, 2^31), of field j."""
    if f < 0 and j != 2:
        raise ValueError(f"{_name(j)} exponent {f} is negative; "
                         "only q is Laurent")
    raise OverflowError(f"{_name(j)} exponent {f - _BIAS if j == 2 else f} "
                        f"is outside its field: {_RANGE}")


def _flat(key: Monomial) -> int:
    """The internal key of an exchange key, validated."""
    a, b, e, z = key
    if not (isinstance(a, int) and isinstance(b, int) and isinstance(e, int)):
        raise ValueError(f"exponents must be integers, got {(a, b, e)!r}")
    if z == () and 0 <= a < _LIMIT and 0 <= b < _LIMIT and -_BIAS <= e < _BIAS:
        # z-free and in range: the fields packed at once
        return e + _BIAS << 64 | a << 32 | b
    exps = [b, a, e]
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
    """Raise the error for the first field of key, in _pack's order, that
    delta, changes by field shift, takes outside [0, 2^31)."""
    for shift in sorted(delta, key=lambda s: s if s >= 96 else -s,
                        reverse=True):
        f = (key >> shift & _MASK) + delta[shift]
        if not 0 <= f < _LIMIT:
            _refuse(shift >> 5, f)


def _fields(key: int) -> tuple[int, ...]:
    """The fields of a key, from field 0 to its last nonzero one: (b, a,
    e + 2^30, f1, ..., fk) for a monomial's key, () for 0.  "I" is the native
    32-bit unsigned int, hence the native byte order."""
    n = (key.bit_length() + 31) >> 5
    return struct.unpack(f"{n}I", key.to_bytes(4 * n, sys.byteorder))


def _exps(key: int) -> list[int]:
    """The dense exponents [b, a, e, f1, ..., fk] of a key, at least
    three."""
    exps = list(_fields(key))
    exps += [0] * (3 - len(exps))
    exps[2] -= _BIAS
    return exps


def _field_mask(field: bytes, bits: int) -> int:
    """The 4-byte little-endian field pattern repeated over every field of a
    key up to bits long."""
    return int.from_bytes(field * ((bits + 31) >> 5), "little")


def _guard_mask(bits: int) -> int:
    """The guard bit of every field of a key up to bits long."""
    return _field_mask(b"\0\0\0\x80", bits)


class MultiPoly:
    """Sparse exact polynomial in x, y, q (Laurent) and the z_i family."""

    __slots__ = ("_terms", "_packed")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        out: dict[int, int] = {}
        for key, c in (terms or {}).items():
            if not isinstance(c, int):
                raise ValueError(f"coefficient must be an integer, got {c!r}")
            k = _flat(key)
            out[k] = out.get(k, 0) + c
        self._terms = _nonzero(out)
        self._packed = None

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
        ranks, coeffs, bits, zvecs = self._canonical()
        zs = [tuple((i, f) for i, f in enumerate(v, 1) if f) for v in zvecs]
        low = (1 << bits) - 1
        return (((r >> bits + 32 & _MASK, r >> bits & _MASK,
                  (r >> bits + 64) - _BIAS, zs[r & low]), coeffs[r])
                for r in ranks)

    def _canonical(self) -> tuple[list[int], dict[int, int], int,
                                  list[bytes | tuple[int, ...]]]:
        """The terms in canonical order as (ranks, coefficient by rank,
        bits, z vectors): the rank of a term is its head (key & _HEAD, which
        holds q, x and y as an int in canonical order) shifted up by bits,
        above the rank of its z part (key >> 96), and ranks descend.  The
        z part of rank r has the vector zvecs[r] = (f1, ..., fk).

        A z-free polynomial needs no rank: its keys are its heads, so it
        sorts its term dict as it is, with bits 0 and the one z vector ().
        Otherwise the distinct z parts are ranked in vector order.  When
        one OR over them shows every z exponent below 256, a z part's
        little-endian bytes, all of one width, are (f1, 0, 0, 0, f2, ...),
        so byte order is vector order and every fourth byte is the vector,
        zero-padded.  Otherwise they are ranked by their decoded vectors in
        tuple order, which is vector order too: a decoded z part has no
        trailing zero, so a proper prefix is a vector whose missing
        exponents are 0 and sorts below the longer one."""
        terms = self._terms
        if max(terms, default=0) <= _HEAD:
            return sorted(terms, reverse=True), terms, 0, [()]
        zparts = list(map(rshift, terms, repeat(96)))
        distinct = set(zparts)
        zor = reduce(or_, distinct)
        if zor & _field_mask(b"\0\xff\xff\xff", zor.bit_length()):
            zvecs = {z: _fields(z) for z in distinct}
            order = sorted(zvecs, key=zvecs.get)
            vecs = list(map(zvecs.get, order))
        else:
            width = (zor.bit_length() + 31) >> 5 << 2
            ranked = sorted(map(int.to_bytes, distinct, repeat(width),
                                repeat("little")))
            order = list(map(int.from_bytes, ranked, repeat("little")))
            vecs = [b[::4] for b in ranked]
        bits = len(order).bit_length()
        coeffs = dict(zip(map(or_, map(lshift, map(and_, terms, repeat(_HEAD)),
                                       repeat(bits)),
                              map(dict(zip(order, count())).__getitem__,
                                  zparts)),
                          terms.values()))
        return sorted(coeffs, reverse=True), coeffs, bits, vecs

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
        """The sum of a * b over the pairs (a, b).  When every factor is a
        q row, the sum is taken on packed rows (_packed_sum); otherwise
        each product term is added straight into one term dict, the smaller
        factor in the outer loop.  The guard bits are tested on the OR of
        every product key, zero coefficients included, so a product
        exponent outside its field raises OverflowError even when its term
        cancels in the sum.  A factor other than a polynomial or an int
        raises TypeError."""
        pairs = [(_factor(a), _factor(b)) for a, b in pairs]
        packed = _packed_sum(pairs)
        if packed is not None:
            return packed
        out: dict[int, int] = {}
        for a, b in pairs:
            ta, tb = a._terms, b._terms
            if len(ta) > len(tb):
                ta, tb = tb, ta
            for ka, ca in ta.items():
                ka -= _ONE
                for kb, cb in tb.items():
                    k = ka + kb
                    out[k] = out.get(k, 0) + ca * cb
        guards = reduce(or_, out, 0)
        if guards < 0 or guards & _guard_mask(guards.bit_length()):
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
            targets[name] = next(iter(poly._terms.items()), (_ONE, 0))
        shifted = _shifted(self._terms, targets)
        if shifted is not None:
            return _wrap(shifted)

        # Each mapped field j that some key holds, as its shift, its bias,
        # its target's coefficient and the change one unit of its exponent
        # makes to each field (by shift): the target's exponents minus 1 in
        # field j.  An unmapped variable maps to itself and changes nothing.
        # Every key holds y, x and q, even one whose q field is 0 (q^-2^30).
        maps = []
        for j in range(max(3, (max(self._terms, default=0).bit_length() + 31)
                           >> 5)):
            target = targets.get(_name(j))
            if target is None and j >= 3:
                target = targets.get("z")
            if target is None:
                continue
            change = dict(enumerate(_exps(target[0])))
            change[j] = change.get(j, 0) - 1
            maps.append((32 * j, _BIAS if j == 2 else 0, target[1],
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
            b, a, e, *zz = _exps(key)
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
        latex, exponents are braced and products are spaces.  Each factor
        string, separator first, comes from the process's factor caches of
        the format; a call joins the text of each z part once and, when
        some key has z, the text of each (q, x, y) head once.
        """
        if not self._terms:
            return "0"
        xs, ys, qs, zf = _LATEX if latex else _PLAIN
        ranks, coeffs, bits, zvecs = self._canonical()
        out = []
        if not bits:  # z-free: each rank is a key
            for k in ranks:
                body = xs[k >> 32 & _MASK] + ys[k & _MASK] + qs[k >> 64]
                coeff = coeffs[k]
                c = abs(coeff)
                out.append(" + " if coeff > 0 else " - ")
                out.append(body[1:] if c == 1 and body else str(c) + body)
        else:
            zf = zf.__getitem__
            zs = ["".join(map(zf, zip(compress(count(1), v), filter(None, v))))
                  for v in zvecs]
            low, last = (1 << bits) - 1, None
            for r in ranks:
                h = r >> bits
                if h != last:  # terms of one head are adjacent
                    last, head = h, (xs[h >> 32 & _MASK] + ys[h & _MASK]
                                     + qs[h >> 64])
                body = head + zs[r & low]
                coeff = coeffs[r]
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
    p._packed = None
    return p


def _as_poly(v: object) -> MultiPoly | None:
    if isinstance(v, MultiPoly):
        return v
    if isinstance(v, int):
        return _wrap({_ONE: v})
    return None


def _factor(v: object) -> MultiPoly:
    """A factor of sum_of_products as a polynomial, refusing what `*`
    refuses."""
    poly = _as_poly(v)
    if poly is None:
        raise TypeError("sum_of_products factors must be polynomials or "
                        f"integers, got {type(v).__name__!r}")
    return poly


def _row(p: MultiPoly) -> tuple | bool:
    """The packed slot of p, filled on first use: False unless p is a q
    row, () for the zero polynomial, else (lo, hi, total, width, packed):
    the q fields of its least and greatest key, its value at q = 1, and
    its digits at width (0 while it has none)."""
    row = p._packed
    if row is None:
        terms = p._terms
        keys = reduce(or_, terms, 0)  # the fields any key uses
        if keys & _XY or keys > _HEAD or min(terms.values(), default=0) < 0:
            row = False
        else:
            row = ((min(terms) >> 64, max(terms) >> 64, sum(terms.values()),
                    0, 0) if terms else ())
        p._packed = row
    return row


def _digits(p: MultiPoly, width: int) -> int:
    """The q row p packed at width: the int whose digit i, bits [width*i,
    width*(i + 1)), is its coefficient of q^(lo + i).  Packed from the term
    dict when the slot holds another width."""
    lo, hi, total, w, packed = p._packed
    if w != width:
        size = width >> 3
        buf = bytearray((hi - lo + 1) * size)
        for k, c in p._terms.items():
            i = ((k >> 64) - lo) * size
            buf[i:i + size] = c.to_bytes(size, "little")
        packed = int.from_bytes(buf, "little")
        p._packed = (lo, hi, total, width, packed)
    return packed


def _packed_sum(pairs: list[tuple[MultiPoly, MultiPoly]]) -> MultiPoly | None:
    """sum_of_products by Kronecker substitution when every factor is a q
    row: each factor is one int (_digits), and the sum is bignum products
    and shifts.  A digit is as wide as the value at q = 1 of the sum needs,
    in multiples of 64 bits, so no digit carries.  None, for the dict path,
    when a factor is not a q row, when a product's q leaves its field (the
    dict path raises) or when the result spans more than twice its term
    products plus 64 exponents, so a sparse row is never packed."""
    live, lows, highs, bound, products = [], [], [], 0, 0
    for a, b in pairs:
        ra, rb = _row(a), _row(b)
        if ra is False or rb is False:
            return None
        if ra and rb:  # a product with the zero polynomial adds nothing
            live.append((a, b))
            lows.append(ra[0] + rb[0] - _BIAS)
            highs.append(ra[1] + rb[1] - _BIAS)
            bound += ra[2] * rb[2]
            products += len(a._terms) * len(b._terms)
    if not live:
        return _wrap({})
    lo, hi = min(lows), max(highs)
    if lo < 0 or hi >= _LIMIT or hi - lo > 2 * products + 64:
        return None
    width = max(64, (bound.bit_length() + 63) & -64)
    value = 0
    for (a, b), low in zip(live, lows):
        value += _digits(a, width) * _digits(b, width) << width * (low - lo)
    # one struct.unpack of 64-bit limbs; nothing cancels, so the digits at
    # lo and hi are nonzero, and compress drops the zero digits between
    limbs, n = width >> 6, hi - lo + 1
    words = struct.unpack(f"<{n * limbs}Q", value.to_bytes(8 * n * limbs,
                                                           "little"))
    digits = words[::limbs]
    for j in range(1, limbs):
        digits = list(map(or_, digits, map(lshift, words[j::limbs],
                                           repeat(64 * j))))
    p = _wrap(dict(zip(map(lshift, compress(range(lo, hi + 1), digits),
                           repeat(64)), filter(None, digits))))
    p._packed = (lo, hi, bound, width, value)
    return p


def _shifted(terms: dict[int, int], targets: dict[str, tuple[int, int]]
             ) -> dict[int, int] | None:
    """The term dict of substitute by key arithmetic, or None for the loop.
    This applies when every key is z-free and the target of each mapped x,
    y or q is a z-free monomial with coefficient 1 (a z target changes no
    z-free key).  A term's exponent f of field j moves its key by
    f * (target - 1 - unit of field j), all keys at once through map
    chains.  When no field can change by more than 2^31 (spread, from the
    largest |f| of each mapped field), a field that leaves [0, 2^31) sets
    its guard bit or makes the key negative, without a carry that could
    hide it; then, or when two keys meet (q -> 1), the loop raises or
    sums."""
    if not terms or max(terms) > _HEAD:
        return None
    keys, spread = terms, [0, 0, 0]
    for j, name in enumerate("yxq"):
        if name not in targets:
            continue
        target, coeff = targets[name]
        if coeff != 1 or target > _HEAD:
            return None
        fs = list(map(sub, map(and_, map(rshift, terms, repeat(32 * j)),
                               repeat(_MASK)), repeat(_BIAS if j == 2 else 0)))
        most = max(max(fs), -min(fs))
        change = _exps(target)
        change[j] -= 1
        spread = [s + most * abs(d) for s, d in zip(spread, change)]
        keys = map(add, keys, map(mul, fs, repeat(target - _ONE
                                                  - (1 << 32 * j))))
    if max(spread) > _LIMIT:
        return None
    keys = list(keys)
    moved = reduce(or_, keys)
    if moved < 0 or moved & _guard_mask(96):
        return None
    out = dict(zip(keys, terms.values()))
    return out if len(out) == len(terms) else None


#: The most strings one factor cache holds.  A full cache is emptied before
#: it takes the next string, so a long-running process stays bounded.  The
#: q exponents of large tables (I' to 200: C(200, 2)) rarely repeat across
#: rows, so a larger cap mostly keeps strings that are not read again.
_TEXTS_CAP = 1 << 12


class _Texts(dict):
    """Strings by key, each built by render on its first lookup."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        if len(self) >= _TEXTS_CAP:
            self.clear()
        text = self[key] = self.render(key)
        return text


def _factor_texts(latex: bool) -> tuple[_Texts, _Texts, _Texts, _Texts]:
    """The factor caches of one format: x^a by a, y^b by b, q^e by its
    field e + 2^30, and z_i^f by (i, f) with f nonzero."""
    sep, power = (" ", "^{{{}}}") if latex else ("*", "^{}")
    zname = ("z_{{{}}}" if latex else "z{}").format

    def factors(name: str, bias: int = 0) -> _Texts:
        return _Texts(lambda f: "" if f == bias else sep + name if f == bias + 1
                      else sep + name + power.format(f - bias))

    return (factors("x"), factors("y"), factors("q", _BIAS),
            _Texts(lambda i_f: sep + zname(i_f[0]) + (
                "" if i_f[1] == 1 else power.format(i_f[1]))))


_PLAIN, _LATEX = _factor_texts(False), _factor_texts(True)


def q_pow(e: int) -> MultiPoly:
    """q^e as a polynomial (e may be negative)."""
    return _wrap({_flat((0, 0, e, ())): 1})
