"""Exact sparse polynomial arithmetic in x, y, q and an indexed z-family.

A polynomial is a finite integer combination of monomials

    c * x^a * y^b * q^e * z_{i1}^{f1} * z_{i2}^{f2} * ...

with arbitrary-precision integer coefficients.  The q exponent may be
negative (Laurent in q); x, y and every z_i are restricted to nonnegative
exponents so that encoding mistakes surface immediately instead of
producing silently meaningless polynomials.

Internally a monomial is the key ``(xexp, yexp, qexp, zexps)`` where
``zexps`` is a tuple of ``(index, exponent)`` pairs sorted by index,
containing no zero exponents.  A polynomial maps monomial keys to nonzero
coefficients; the zero polynomial is the empty mapping.  All values are
immutable: every operation returns a new polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Monomial = tuple[int, int, int, tuple[tuple[int, int], ...]]

_VAR_KEY_RE = re.compile(r"^(x|y|q|z|z[1-9][0-9]*)$")
_FACTOR_RE = re.compile(r"^(x|y|q|z[1-9][0-9]*)(?:\^(-?[0-9]+))?$")


def _normalize_z(z: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for idx, exp in z:
        acc[idx] = acc.get(idx, 0) + exp
    pairs = tuple(sorted((i, e) for i, e in acc.items() if e != 0))
    for i, e in pairs:
        if i < 1:
            raise ValueError(f"z index must be a positive integer, got {i}")
        if e < 0:
            raise ValueError(f"z{i} exponent must be nonnegative, got {e}")
    return pairs


def _mul_keys(a: Monomial, b: Monomial) -> Monomial:
    za = dict(a[3])
    for i, e in b[3]:
        za[i] = za.get(i, 0) + e
    z = tuple(sorted((i, e) for i, e in za.items() if e != 0))
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], z)


class MultiPoly:
    """Sparse exact polynomial in x, y, q (Laurent) and the z_i family."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms: dict[Monomial, int] = {
            k: c for k, c in (terms or {}).items() if c != 0
        }

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
        if x < 0 or y < 0:
            raise ValueError("x and y exponents must be nonnegative")
        if coeff == 0:
            return cls()
        return cls({(x, y, q, _normalize_z(z)): coeff})

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
        """Terms in canonical order (the order used by canonical_text)."""
        return iter(sorted(self._terms.items(), key=_term_key))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, x: int = 0, y: int = 0, q: int = 0,
                    z: Iterable[tuple[int, int]] = ()) -> int:
        return self._terms.get((x, y, q, _normalize_z(z)), 0)

    def has_negative_qexp(self) -> bool:
        return any(k[2] < 0 for k in self._terms)

    # -- ring operations ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict semantics internally; not hashable

    def __add__(self, other: object) -> "MultiPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({k: -c for k, c in self._terms.items()})

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
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        out: dict[Monomial, int] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                k = _mul_keys(ka, kb)
                out[k] = out.get(k, 0) + ca * cb
        return MultiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial powers are not supported")
        out = MultiPoly.one()
        for _ in range(n):
            out = out * self
        return out

    # -- substitution and evaluation ------------------------------------

    def substitute(self, mapping: Mapping[str, "MultiPoly | int"]) -> "MultiPoly":
        """Apply the ring homomorphism sending each mapped variable to a
        single signed monomial (e.g. q -> q^-1, x -> x*q^3, z -> 1).

        Keys are 'x', 'y', 'q', a specific 'z<i>', or 'z' meaning every
        z index at once.  Unmapped variables are fixed.  A target with
        more than one term is out of contract and rejected.
        """
        targets: dict[str, tuple[int, Monomial]] = {}
        for key, val in mapping.items():
            if not _VAR_KEY_RE.fullmatch(key):
                raise ValueError(f"unknown substitution variable {key!r}")
            poly = _as_poly(val)
            if poly is None:
                raise ValueError(f"substitution target for {key!r} must be a "
                                 "polynomial or integer")
            if len(poly._terms) > 1:
                raise ValueError(f"substitution target for {key!r} is a sum, "
                                 "not a single monomial")
            if not poly._terms:
                targets[key] = (0, (0, 0, 0, ()))
            else:
                ((k, c),) = poly._terms.items()
                targets[key] = (c, k)

        out: dict[Monomial, int] = {}
        for (a, b, e, z), coeff in self._terms.items():
            factors = [(coeff, (0, 0, 0, ()))]
            factors.append(_raise(targets.get("x", (1, (1, 0, 0, ()))), a, "x"))
            factors.append(_raise(targets.get("y", (1, (0, 1, 0, ()))), b, "y"))
            factors.append(_raise(targets.get("q", (1, (0, 0, 1, ()))), e, "q"))
            for i, f in z:
                tgt = targets.get(f"z{i}", targets.get("z", (1, (0, 0, 0, ((i, 1),)))))
                factors.append(_raise(tgt, f, f"z{i}"))
            c = 1
            k = (0, 0, 0, ())
            for fc, fk in factors:
                c *= fc
                k = _mul_keys(k, fk)
            if k[0] < 0 or k[1] < 0 or any(ze < 0 for _, ze in k[3]):
                raise ValueError("substitution produced a negative exponent in "
                                 "x, y or z (only q is Laurent)")
            out[k] = out.get(k, 0) + c
        return MultiPoly(out)

    def evaluate(self, x: int | Fraction = 1, y: int | Fraction = 1,
                 q: int | Fraction = 1,
                 z: Mapping[int, int | Fraction] | int | Fraction | None = None,
                 ) -> Fraction:
        """Exact value at a numeric point.  z maps index -> value
        (unlisted indices default to 1); a bare number sets every z_i.
        q = 0 is rejected when a term has a negative q exponent.
        """
        qv = Fraction(q)
        total = Fraction(0)
        for (a, b, e, zz), coeff in self._terms.items():
            if qv == 0 and e < 0:
                raise ZeroDivisionError(
                    "evaluation at q = 0 with a negative q exponent")
            val = Fraction(coeff) * Fraction(x) ** a * Fraction(y) ** b
            val *= qv ** e
            for i, f in zz:
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
        latex, exponents are braced and products are spaces.
        """
        if not self._terms:
            return "0"
        out = []
        for idx, (key, coeff) in enumerate(self.terms()):
            body = _term_text(coeff, key, latex)
            if idx == 0:
                out.append(body if coeff > 0 else "-" + body)
            else:
                out.append((" + " if coeff > 0 else " - ") + body)
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
        return _sum(cls.term(int(t["coeff"]), x=t["x"], y=t["y"], q=t["q"],
                             z=tuple((int(i), int(e)) for i, e in t.get("z", ())))
                    for t in data)

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
            terms.append(cls.term(coeff, x=x, y=y, q=q, z=tuple(z)))
        return _sum(terms)


def _sum(polys: Iterable[MultiPoly]) -> MultiPoly:
    """The sum of the polynomials, accumulated in one dict."""
    out: dict[Monomial, int] = {}
    for p in polys:
        for k, c in p._terms.items():
            out[k] = out.get(k, 0) + c
    return MultiPoly(out)


def _as_poly(v: object) -> MultiPoly | None:
    if isinstance(v, MultiPoly):
        return v
    if isinstance(v, int):
        return MultiPoly.term(v)
    return None


def _raise(target: tuple[int, Monomial], exp: int, name: str) -> tuple[int, Monomial]:
    """Raise a signed monomial (coeff, key) to an integer power."""
    c, (a, b, e, z) = target
    if exp == 0:
        return (1, (0, 0, 0, ()))
    if exp < 0:
        if c == 0:
            raise ZeroDivisionError(f"cannot raise zero target of {name} to {exp}")
        if c not in (1, -1):
            raise ValueError(
                f"cannot invert coefficient {c} exactly when substituting {name}")
        cc = -1 if (c == -1 and exp % 2) else 1
    else:
        cc = c ** exp
    key = (a * exp, b * exp, e * exp, tuple((i, f * exp) for i, f in z))
    return (cc, key)


#: Sorts after every (index, -exponent) pair of a z key.
_Z_END = (float("inf"),)


def _term_key(term: tuple[Monomial, int]) -> tuple:
    """Canonical order: q, x, y exponents descending, then the z exponents
    as a dense vector z1, z2, ... compared descending.  At the first index
    where two sparse z keys differ, the term with the larger exponent there
    (a missing index is exponent 0) comes first."""
    (a, b, e, z), _ = term
    return (-e, -a, -b, tuple((i, -f) for i, f in z) + (_Z_END,))


def _term_text(coeff: int, key: Monomial, latex: bool = False) -> str:
    a, b, e, z = key
    pieces = []
    if a:
        pieces.append("x" if a == 1 else (f"x^{{{a}}}" if latex else f"x^{a}"))
    if b:
        pieces.append("y" if b == 1 else (f"y^{{{b}}}" if latex else f"y^{b}"))
    if e:
        pieces.append("q" if e == 1 else (f"q^{{{e}}}" if latex else f"q^{e}"))
    for i, f in z:
        base = f"z_{{{i}}}" if latex else f"z{i}"
        pieces.append(base if f == 1 else
                      (f"{base}^{{{f}}}" if latex else f"{base}^{f}"))
    c = abs(coeff)
    if not pieces:
        return str(c)
    if c != 1:
        pieces.insert(0, str(c))
    return (" ".join(pieces)) if latex else ("*".join(pieces))


# Convenience variable constants.
X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Q = MultiPoly.var("q")
ONE = MultiPoly.one()
ZERO = MultiPoly.zero()


def z_var(i: int) -> MultiPoly:
    return MultiPoly.var(f"z{i}")


def q_pow(e: int) -> MultiPoly:
    """q^e as a polynomial (e may be negative)."""
    return MultiPoly.term(1, q=e)
