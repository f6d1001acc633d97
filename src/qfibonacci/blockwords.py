"""Words over {S, D} (block structures of layered matchings), their three
statistic-carrying weights, Morse sequences, the end-interleaving
transform and the leading-prefix cycle classifier.

A word is an uppercase string over 'S' (a singleton layer, length 1) and
'D' (a doubleton layer, length 2); its length l(w) counts elements, not
letters.  Morse sequences are the same objects written with '.' (dot,
length 1) and '-' (dash, length 2).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .polyring import MultiPoly
from .permstats import (Perm, check_size, check_word, perm_from_word,
                        word_layers, word_length)


def iter_words(n: int) -> Iterator[str]:
    """All words of length n (F_n of them), S-branch first."""
    check_size(n)
    if n < 2:
        yield "S" * n                   # "" or "S"
        return
    for w in iter_words(n - 1):
        yield "S" + w
    for w in iter_words(n - 2):
        yield "D" + w


def enumerate_words(n: int) -> list[str]:
    """Words of length n in lexicographic order."""
    return sorted(iter_words(n))


# -- weights -----------------------------------------------------------------


def _monomial(layers: list[tuple[int, int]], e: int) -> MultiPoly:
    """x^#S y^#D q^e for a word's layers."""
    d = sum(size == 2 for _, size in layers)
    return MultiPoly.term(1, x=len(layers) - d, y=d, q=e)


def weight_inv(word: str) -> MultiPoly:
    """Single monomial x^#S y^#D q^e where e is inv of the reverse layered
    matching with this block word: S contributes q^(length right of it),
    D contributes q^(2 * length right of it)."""
    layers = word_layers(word)
    n = word_length(word)
    return _monomial(layers,
                     sum(size * (n - left - size) for left, size in layers))


def weight_maj(word: str) -> MultiPoly:
    """Single monomial x^#S y^#D q^e where e is maj of the reverse layered
    matching: every letter contributes q^(length left of it) except that
    S at the very front contributes nothing."""
    layers = word_layers(word)
    return _monomial(layers, sum(left for left, _ in layers))


def weight_rb(word: str) -> MultiPoly:
    """Single monomial whose q exponent is the rb statistic of the layered
    matching partition with this block word; textually the same weight as
    weight_maj (both use left lengths), which is the engine behind the
    maj/rb equidistribution."""
    return weight_maj(word)


# -- Morse sequences ----------------------------------------------------------


def morse_weight(word: str) -> int:
    """Cigler's weight: each dash (D) scores (length before it) + 1, dots
    score 0.

    >>> morse_weight("SSDDSD")
    16
    """
    return sum(left + 1 for left, size in word_layers(word) if size == 2)


def morse_to_perm(word: str) -> Perm:
    """The layered matching whose block i is a singleton iff letter i is a
    dot; satisfies morse_weight(w) = maj(morse_to_perm(w))."""
    return perm_from_word(word, "layered")


def morse_text(word: str) -> str:
    """Render with dots and dashes ('SSD' -> '..-')."""
    return check_word(word).replace("S", ".").replace("D", "-")


def morse_parse(text: str) -> str:
    s = text.strip()
    bad = set(s) - set(".-–−•")
    if bad:
        raise ValueError(f"not a Morse sequence: {text!r}")
    return "".join("D" if ch in "-–−" else "S" for ch in s)


# -- interleave transform ------------------------------------------------------


def interleave(word: str) -> str:
    """Reorder as a_1, a_k, a_2, a_{k-1}, ...: letters taken alternately
    from the front and the back.

    >>> interleave("SDSDSD")
    'SDDSSD'
    """
    w = check_word(word)
    out = []
    i, j = 0, len(w) - 1
    front = True
    while i <= j:
        if front:
            out.append(w[i])
            i += 1
        else:
            out.append(w[j])
            j -= 1
        front = not front
    return "".join(out)


def deinterleave(word: str) -> str:
    """Inverse of interleave."""
    w = check_word(word)
    out = [""] * len(w)
    i, j = 0, len(w) - 1
    front = True
    for ch in w:
        if front:
            out[i] = ch
            i += 1
        else:
            out[j] = ch
            j -= 1
        front = not front
    return "".join(out)


# -- leading-prefix classification ---------------------------------------------


class PrefixClass(NamedTuple):
    """Classification of the leading prefix of an interleaved word.

    kind: 'ss', 'dd', 'ds*s', 'dssd', 'sd^ls', 'dsd^ls' or 'residual'.
    ell is the repeat count for the two parametric kinds, star the letter
    matched by * in ds*s.  predicted_cycles is the cycle-length multiset
    the prefix contributes; consumed_letters is the number of leading
    letters the caller should treat as used (for ds*s the * letter is not
    consumed by the 4-cycle).  Residual prefixes carry no prediction.
    """

    kind: str
    consumed_letters: int
    predicted_cycles: tuple[int, ...]
    ell: int | None = None
    star: str | None = None


def classify_prefix(word: str) -> PrefixClass:
    """Longest-match classification of the leading prefix of a word.

    The cycle oracle adjudicates the matching rules, which trims the
    nominal patterns in two places.  ds*s is tested before dsd^ls: DSDS
    behaves as ds*s with * = d (a 4-cycle plus two fixed points), not as
    dsd^1s.  And dsd^ls is restricted to even l: for odd l >= 3 the
    traversal closes after 2l+2 steps and strands the central doubleton
    as two fixed points (dsd^3s gives cycle lengths (8, 1, 1), not the
    nominal 2l+4 = 10), so those strings are residual here.
    """
    w = check_word(word)
    if not w:
        raise ValueError("cannot classify an empty word")
    if w.startswith("DSSD"):
        return PrefixClass("dssd", 4, (6,))
    if len(w) >= 4 and w[0] == "D" and w[1] == "S" and w[3] == "S":
        return PrefixClass("ds*s", 2, (4,), star=w[2])
    if w[0] == "D" and len(w) >= 3 and w[1] == "S":
        ell = 0
        while 2 + ell < len(w) and w[2 + ell] == "D":
            ell += 1
        if 2 + ell < len(w) and w[2 + ell] == "S" and ell % 2 == 0:
            return PrefixClass("dsd^ls", ell + 3, (2 * ell + 4,), ell=ell)
    if w[0] == "S" and len(w) >= 2 and w[1] == "D":
        ell = 1
        while 1 + ell < len(w) and w[1 + ell] == "D":
            ell += 1
        if 1 + ell < len(w) and w[1 + ell] == "S":
            return PrefixClass("sd^ls", ell + 2, (2 * ell + 2,), ell=ell)
    if w.startswith("DD"):
        return PrefixClass("dd", 2, (2, 2))
    if w.startswith("SS"):
        return PrefixClass("ss", 2, (2,))
    return PrefixClass("residual", len(w), ())
