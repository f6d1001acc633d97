"""q-Fibonacci families: brute-force statistic distributions (the ground
truth oracles), the printed recursions, the closed form for the inversion
family, and a catalog of identity verifiers.

Families (polynomial index n = size of the underlying objects):

  I / I'  inv over reverse layered / layered matchings
  M / M'  maj over the same two classes
  RB      rb over the layered matching partitions (13/2 and 123 avoiders)
  C       Morse-sequence weight with dot/dash markers
  D / D'  cycle count q^c / cycle type prod z_i^{c_i} over the reverse class
  W1-W3   inv over West's doubly restricted classes (F_{2n-2} members at
          size n; the polynomial for size n is indexed here by n itself)

Each family is one entry of the FAMILY table: its printed recursion and
bases, its walk and its oracle bound.  The oracles visit every member of the
defining combinatorial class by a walk that computes the statistic step by
step: over the S/D words for the word families, down West's generating tree
for W1-W3.  Recursions and identities are hypotheses checked against them.
Each identity is one entry of the _CATALOG table: its index range and its
readings, the as-printed one first.  Several printed statements carry
typos, so the verifier evaluates every reading per instance and reports
which reading, if any, agrees with the oracle.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Callable, Iterable, Mapping, NamedTuple

from . import partitions, permstats
from .polyring import MultiPoly, q_pow

#: Oracle size cap of the word-structured classes (the T4.5 suite touches
#: index 25).  Their walks visit every word: one walk to 26 passes its
#: 514,228 nodes, 196,418 of them members of size 26, in 0.10-0.16 s for I
#: and D and 0.15-0.20 s for D' on one CPU, and split over two in 0.05-0.08
#: s for I and D and 0.08-0.12 s for D' (CPython 3.11, 2-vCPU host, min of
#: 9-21 walks).  No benchmark workload measures a larger size, so the cap
#: stays.  The West classes take permstats.WEST_BOUND: their walk is one
#: subtree, a whole level at a time, and the class sizes F_{2n-2} grow
#: about 2.6x per step.
STRUCTURAL_BOUND = 26


def fibonacci(n: int) -> int:
    """F_0 = F_1 = 1, F_n = F_{n-1} + F_{n-2}."""
    permstats.check_size(n)
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _t(coeff: int = 1, x: int = 0, y: int = 0, q: int = 0,
       z: Iterable[tuple[int, int]] = ()) -> MultiPoly:
    return MultiPoly.term(coeff, x=x, y=y, q=q, z=z)


def _c2(k: int) -> int:
    return comb(k, 2)


def lemma23_transform(p: MultiPoly, n: int) -> MultiPoly:
    """q^C(n,2) * p(x, y, 1/q): carries the inv (or maj) distribution of one
    orientation onto the other."""
    return q_pow(_c2(n)) * p.substitute({"q": q_pow(-1)})


# -- printed recursions -------------------------------------------------------
#
# A recursion is the printed right-hand side rhs(n, get) at size n, where
# get(family, m) is the family polynomial at size m (zero for m < 0).
# qfib_recursive feeds it its own values; the identity catalog feeds it
# oracle values.  Variant readings of a statement are parameters of its one
# function.  The D and West recursions are reproduced as printed, typos
# included; see the identity verifier for their oracle adjudication.

Get = Callable[[str, int], MultiPoly]
Rhs = Callable[[int, Get], MultiPoly]


def _rec_I(n: int, get: Get) -> MultiPoly:
    return MultiPoly.sum_of_products(((_t(1, x=1, q=n - 1), get("I", n - 1)),
                                      (_t(1, y=1, q=2 * (n - 2)),
                                       get("I", n - 2))))


def _rec_M(n: int, get: Get) -> MultiPoly:
    return MultiPoly.sum_of_products(((_t(1, x=1, q=n - 1), get("M", n - 1)),
                                      (_t(1, y=1, q=n - 2), get("M", n - 2))))


def _rec_C(n: int, get: Get) -> MultiPoly:
    return MultiPoly.sum_of_products(((_t(1, x=1), get("C", n - 1)),
                                      (_t(1, y=1, q=n - 1), get("C", n - 2))))


def _reversal_of(family: str):
    """I' and M' from I and M through the reversal transform."""
    def rhs(n: int, get: Get) -> MultiPoly:
        return lemma23_transform(get(family, n), n)
    return rhs


def _rec_D(family: str, dd_exp: int = 2, shift: int = 0):
    """The interleaved-prefix recursion at size n = m + 2, for D (every
    cycle marked by q) and D' (a cycle of length i marked by z_i).  dd_exp
    is the marker exponent of the dd prefix; shift moves the sum's
    subscript to m - 2k + shift."""
    def mark(length: int, count: int) -> dict:
        return {"q": count} if family == "D" else {"z": ((length, count),)}

    def rhs(n: int, get: Get) -> MultiPoly:
        m = n - 2
        return MultiPoly.sum_of_products(
            [(_t(1, x=2, **mark(2, 1)), get(family, m)),
             (_t(1, y=2, **mark(2, dd_exp)) + _t(2, x=2, y=1, **mark(4, 1)),
              get(family, m - 2)),
             *((_t(2, x=2, y=k - 1, **mark(2 * k, 1)),
                get(family, m - 2 * k + shift))
               for k in range(3, m // 2 + 1))])
    return rhs


def _rec_W1(sign: int = 1):
    """Gap insertion for S_n(123,2143) at size n = m + 1; sign is that of
    the C(k,2) term of the exponent."""
    def rhs(n: int, get: Get) -> MultiPoly:
        m = n - 1
        return MultiPoly.sum_of_products(
            [(q_pow(m - 1), get("W1", m)),
             *((q_pow((m - 1) * (k - 1) + sign * _c2(k)), get("W1", m - k + 1))
               for k in range(2, m + 1))])
    return rhs


def _rec_W2(lo: int = 1, hi_off: int = -1, tail_off: int = 1):
    """Gap insertion for S_n(132,3241): the sum runs over lo <= k <
    n + hi_off with a tail of size n - k - tail_off."""
    def rhs(n: int, get: Get) -> MultiPoly:
        return MultiPoly.sum_of_products(
            [(q_pow(n - 1) + 1, get("W2", n - 1)),
             *((q_pow(k * (n - k)), get("W2", n - k - tail_off))
               for k in range(lo, n + hi_off))])
    return rhs


def _rec_W3(first_family: str = "W2", lo: int = 1, hi_off: int = -1):
    """Gap insertion for S_n(132,3412): the first term reads first_family
    and the sum runs over lo <= k < n + hi_off."""
    def rhs(n: int, get: Get) -> MultiPoly:
        return MultiPoly.sum_of_products(
            [(q_pow(n - 1) + 1, get(first_family, n - 1)),
             *((q_pow(k * (n - k) + _c2(n - k)), get("W3", k - 1))
               for k in range(lo, n + hi_off))])
    return rhs


# -- the family table ---------------------------------------------------------


class Family(NamedTuple):
    """One q-Fibonacci family.

    recursion is the printed right-hand side (None when there is none) and
    bases holds the values at the sizes it does not cover.  walk(n) maps
    every size 0..n to its polynomial from one pass to size n: a level at a
    time over the S/D word tree, appending layers for the order-invariant
    families (_walked) and folding the word from both ends for D and D'
    (_folded); a level at a time down West's generating tree for W1-W3
    (_west_walk).  Every walk goes through permstats.level_walk, which
    shares large walks with a forked child (permstats.SPLIT_FROM).
    """

    recursion: Rhs | None
    bases: Mapping[int, MultiPoly]
    walk: Callable[[int], dict[int, MultiPoly]]
    bound: int = STRUCTURAL_BOUND

    def printed(self, n: int, get: Get, rhs: Rhs | None = None) -> MultiPoly:
        """The printed value at size n: a base, else rhs (by default the
        family's recursion) fed by get."""
        if n in self.bases:
            return self.bases[n]
        return (rhs or self.recursion)(n, get)


# -- the West walk ------------------------------------------------------------


def _inversions(invs: Iterable[int], m: int, k: int) -> list[int]:
    """The new maximum in gap k of a size-m node adds the m - k inversions
    with the values after it."""
    added = m - k
    return [q + added for q in invs]


def _west_walk(wclass: str):
    """walk(n) tallies inv at every size 0..n in one permstats.west_walk
    pass, whose nodes carry only their inv."""
    def walk(n: int) -> dict[int, MultiPoly]:
        return {m: MultiPoly({(0, 0, q, ()): c for q, c in tally.items()})
                for m, tally in enumerate(
                    permstats.west_walk(n, wclass, 0, _inversions))}
    return walk


# -- the word walks ------------------------------------------------------------
#
# A member of a word family is a word over {S, D}.  The walks grow words a
# letter at a time down a tree whose nodes of size m are the members of size
# m, so one walk to n tallies every size 0..n.  They go a level at a time
# (permstats.level_walk): a level holds one column per node field, and each
# letter builds its children's columns with one comprehension per field, at
# O(1) per node.
#
# _walked serves the families whose steps read values only by comparing them
# (I, I', M, M', RB, C).  It appends layers on the right.  The first m values
# a walk to size n places are order isomorphic to the size-m member with the
# same letters: reverse-layered layers take the highest values left, and
# layered and partition layers do not depend on n.  The placed values of a
# node form the interval low..low + left - 1, and a step reads at most one
# value of each node: its low (I, I', RB), its last placed value prev (M,
# M'), or none (C).  A level carries that one column beside the keys.  Each
# letter builds the children's keys in one comprehension, which compares the
# new layer's values with each node's own low or prev, and their carried
# column in a second.
#
# _folded serves D and D', whose cycles read actual values.  The reverse
# layered matching of a word of size n is R L_w, where R maps i to n + 1 - i
# and L_w swaps the two positions of each doubleton.  So its cycles are the
# components of a ladder on the positions: rungs join i and n + 1 - i, rails
# the two positions of a doubleton.  A component of k positions that holds a
# fixed point of R or L_w (a singleton, or the middle position of an odd n)
# is a path and one k-cycle; one without is a ring of 2j positions and two
# j-cycles.  The walk folds the word: it grows it from both ends, the end
# with fewer positions taking the next letter (the left end on a tie), so
# each rung it places joins the i-th positions from the two ends whatever
# the size.  The longer end overhangs the shorter by 0, 1 or 2 positions,
# and a node of size m is the member of size m once its overhang is closed
# through the middle, where R fixes one position or swaps two.  A node
# carries its overhang h and the length k of the one open path, which runs
# from the overhang to a singleton (k = 0 unless h = 1; with h = 2 the
# overhang is one doubleton); _FOLD steps them.  No step reads
# classify_prefix, the printed recursions or the block-word weights, so T5.3
# and T5.4 still compare independent computations.


def _children(step, carry, left: int, size: int, vals, columns: tuple):
    """The columns of the children, by the layer vals of that size, of the
    nodes in columns: their keys and, unless carry is None, their aux."""
    keys = step(left, vals, size - 1 << 16, *columns)
    return (keys, carry(vals, columns[1])) if carry else (keys,)


def _walked(family: str):
    """The walk of an order-invariant word family, from its _WALKED entry
    (values, step, carry).  values(n, left, size) is the layer of that size
    after left placed elements, and the statistic of a member is the sum of
    the steps along its word.  walk(n) maps every size 0..n to its
    polynomial.  A node is (left, 0, key, aux): the packed key d << 16 | q
    and the one value that the family's step reads, or (left, 0, key) when
    carry is None (C) and at size n, which has no children to read it.
    step(left, vals, shift, keys, *aux) returns the children's keys, each
    parent's key plus shift (the letter's d << 16) and what the layer adds
    to the statistic, and carry(vals, aux) their aux column."""
    def walk(n: int) -> dict[int, MultiPoly]:
        values, step, carry = _WALKED[family]
        layers = [[(size, values(n, left, size)) for size in (1, 2)
                   if left + size <= n] for left in range(n + 1)]

        def expand(left: int, level: tuple, tally: Counter):
            columns, = level
            # every statistic is at most C(n, 2), far below the 2^16 of a
            # key's q
            tally.update(columns[0])
            for size, vals in layers[left]:
                yield size, 0, _children(
                    step, carry if left + size < n else None, left, size,
                    vals, columns)

        # the root's aux, n + 1, lies above every value
        root, empty = (((0, 0, 0, n + 1), lambda: (([], []),)) if carry else
                       ((0, 0, 0), lambda: (([],),)))
        tallies = permstats.level_walk(n, root, empty, expand)
        return {m: MultiPoly({(m - 2 * (k >> 16), k >> 16, k & 0xFFFF, ()): c
                              for k, c in tally.items()})
                for m, tally in enumerate(tallies)}
    return walk


def _walked_path(word: str, family: str) -> list[tuple]:
    """The nodes (key, *aux) on one word's path down the family's walk,
    from the root, each letter stepped with the layers of the word's own
    size.

    >>> [(*divmod(key, 1 << 16), low)               # (3 4 2 1): (d, q, low)
    ...  for key, low in _walked_path("DSS", "I")]
    [(0, 0, 5), (1, 0, 3), (1, 2, 2), (1, 5, 1)]
    """
    values, step, carry = _WALKED[family]
    layout = permstats.word_layers(word)
    n = sum(size for _, size in layout)
    columns = ([0], [n + 1]) if carry else ([0],)
    path = [tuple(column[0] for column in columns)]
    for left, size in layout:
        columns = _children(step, carry, left, size, values(n, left, size),
                            columns)
        path.append(tuple(column[0] for column in columns))
    return path


# (overhang, letter) -> (overhang, growth of the open path, cycles closed
# beside it).  The letter goes on the shorter end, its positions taking the
# rungs to the overhang's in turn.  The open path grows to k + growth
# positions; it stays open if the new overhang is 1 and else closes as one
# cycle (none of length 0).  Letter 0 closes the node through the middle.
_FOLD = {
    (0, 1): (1, 1, ()),       # a singleton overhangs: a path of 1 opens
    (0, 2): (2, 0, ()),       # a doubleton overhangs
    (1, 1): (0, 1, ()),       # the singleton closes the path
    (1, 2): (1, 2, ()),       # a doubleton carries the path on, its tail
    #                           overhanging
    (2, 1): (1, 3, ()),       # the singleton, the overhang's head and its
    #                           tail: a path of 3 opens
    (2, 2): (0, 0, (2, 2)),   # two doubletons close a ring of 4
    (0, 0): (0, 0, ()),
    (1, 0): (0, 0, ()),       # R fixes the middle position: the path closes
    (2, 0): (0, 0, (1, 1)),   # R swaps the middle doubleton: a ring of 2
}


def _fold_step(marks, n: int):
    """(step, decode) for members of size at most n.  step(h, s, columns) ->
    (overhang, columns) is _FOLD over the columns of the nodes with overhang
    h, for their children by letter s, or for s = 0 the nodes closed through
    the middle.  The columns are (keys,), or (keys, ks) when h = 1.  A key
    packs a mark over a doubleton count, mark << 8 | d; marks(n) is (unit,
    decode): a closed cycle of length L adds unit[L] to the mark (unit[0] =
    0), and decode(mark) is the member's (q exponent, z exponents)."""
    # _FOLD names cycles of lengths up to 2
    unit, decode = marks(max(n, 2))
    cycle = [u << 8 for u in unit]
    rules = {(h, s): (to, grow, (s == 2) + sum(cycle[c] for c in closed))
             for (h, s), (to, grow, closed) in _FOLD.items()}

    def step(h: int, s: int, columns: tuple):
        to, grow, add = rules[h, s]
        keys = columns[0]
        if h == 1:
            ks = columns[1]
            if to == 1:
                return to, ([key + add for key in keys],
                            [k + grow for k in ks])
            return to, ([key + add + cycle[k + grow]
                         for key, k in zip(keys, ks)],)
        if to == 1:
            return to, ([key + add for key in keys], [grow] * len(keys))
        add += cycle[grow]
        return to, ([key + add for key in keys],)
    return step, decode


def _folded(marks):
    """The walk of a cycle family over the reverse layered matchings, folded
    (see the section comment), with the marks of _fold_step.  walk(n) maps
    every size 0..n to its polynomial.  A node is (size, h, key) or, for h =
    1, (size, 1, key, k), with the key of _fold_step."""
    def walk(n: int) -> dict[int, MultiPoly]:
        step, decode = _fold_step(marks, n)

        def expand(m: int, level: tuple, tally: Counter):
            for h, columns in enumerate(level):
                if columns[0]:
                    _, (members, *_) = step(h, 0, columns)
                    tally.update(members)
                    for s in (1, 2):
                        if m + s <= n:
                            yield (s, *step(h, s, columns))

        # a doubleton count is at most n / 2, far below the 2^8 of a key's d
        tallies = permstats.level_walk(
            n, (0, 0, 0), lambda: (([],), ([], []), ([],)), expand)
        return {m: MultiPoly({(m - 2 * (k & 0xFF), k & 0xFF,
                               *decode(k >> 8)): c for k, c in tally.items()})
                for m, tally in enumerate(tallies)}
    return walk


def _fold(word: str, marks) -> tuple:
    """The (q exponent, z exponents) of a word's reverse layered matching
    under marks, from _FOLD: its letters in the order the folded walk takes
    them, then the middle.

    >>> _fold("DSDSS", _count_marks)    # (6 7 5 3 4 2 1) = (1 6 2 7)(3 5 4)
    (2, ())
    >>> _fold("DSDSS", _type_marks)
    (0, ((3, 1), (4, 1)))
    """
    sizes = [size for _, size in permstats.word_layers(word)]
    step, decode = _fold_step(marks, sum(sizes))
    h, columns, left, right = 0, ([0],), 0, 0
    while sizes:
        # the end with fewer positions takes the next letter, the left end
        # on a tie
        if left <= right:
            size = sizes.pop(0)
            left += size
        else:
            size = sizes.pop()
            right += size
        h, columns = step(h, size, columns)
    _, ((key, *_), *_) = step(h, 0, columns)
    return decode(key >> 8)


def _count_marks(n: int):
    """D: every cycle adds 1 to the q exponent."""
    return [0] + [1] * n, lambda c: (c, ())


def _type_marks(n: int):
    """D': one field of n.bit_length() bits per cycle length, the count of
    cycles of that length (at most n)."""
    width = n.bit_length()
    mask = (1 << width) - 1

    def decode(c: int):
        # the fields from length 1 up to the highest nonzero one
        z, length = [], 0
        c >>= width
        while c:
            length += 1
            if c & mask:
                z.append((length, c & mask))
            c >>= width
        return 0, tuple(z)
    return [0] + [1 << width * length for length in range(1, n + 1)], decode


def _perm_layers(orientation: str):
    def values(n: int, left: int, size: int):
        return permstats.layer_values(n, left, size, orientation)
    return values


def _partition_layers(n: int, left: int, size: int):
    return partitions.layer_block(left, size)


def _lows(vals, lows):
    """The least placed value of each child."""
    least = min(vals)
    return [least if least < low else low for low in lows]


def _prevs(vals, prevs):
    """The last placed value of each child."""
    return [vals[-1]] * len(prevs)


def _inv_step(left, vals, shift, keys, lows):
    """The children's keys, with the inversions the layer adds: a new value
    below the placed interval is inverted with every placed value, one above
    it with none; plus the pair inside a doubleton."""
    a, b = vals[0], vals[-1]
    if len(vals) == 1:
        above = shift + left
        return [key + above if a < low else key + shift
                for key, low in zip(keys, lows)]
    shift += a > b
    one, two = shift + left, shift + 2 * left
    return [key + ((two if b < low else one) if a < low else
                   (one if b < low else shift))
            for key, low in zip(keys, lows)]


def _maj_step(left, vals, shift, keys, prevs):
    """The children's keys, with the descents the layer adds, at their
    1-based positions: at the junction with the placed values and inside a
    doubleton."""
    a = vals[0]
    if len(vals) == 2 and a > vals[1]:
        shift += left + 1
    above = shift + left
    return [key + above if prev > a else key + shift
            for key, prev in zip(keys, prevs)]


def _rb_step(left, vals, shift, keys, lows):
    """The children's keys, with the placed elements below the new block's
    maximum: all of the placed interval when the maximum lies above it, else
    none."""
    top, above = max(vals), shift + left
    return [key + above if top > low else key + shift
            for key, low in zip(keys, lows)]


def _morse_step(left, vals, shift, keys):
    """The children's keys, with Cigler's score: a dash scores the length
    before it plus one."""
    if len(vals) == 2:
        shift += left + 1
    return [key + shift for key in keys]


_REVERSE, _LAYERED = _perm_layers("reverse-layered"), _perm_layers("layered")

#: The order-invariant word families: (values, step, carry) for _walked.
_WALKED = {
    "I": (_REVERSE, _inv_step, _lows),
    "I'": (_LAYERED, _inv_step, _lows),
    "M": (_REVERSE, _maj_step, _prevs),
    "M'": (_LAYERED, _maj_step, _prevs),
    "RB": (_partition_layers, _rb_step, _lows),
    # the buffer holds the Morse sequence's layered matching (morse_to_perm)
    "C": (_LAYERED, _morse_step, None),
}

_ONE, _X = MultiPoly.one(), _t(1, x=1)

# D, D' have no printed bases and W1 is printed for even indices from F_2
# on; their bases are the class values (the size-2 members of W1 are 12 and
# 21).
FAMILY: dict[str, Family] = {
    "I": Family(_rec_I, {0: _ONE, 1: _X}, _walked("I")),
    "I'": Family(_reversal_of("I"), {}, _walked("I'")),
    "M": Family(_rec_M, {0: _ONE, 1: _X}, _walked("M")),
    "M'": Family(_reversal_of("M"), {}, _walked("M'")),
    "RB": Family(None, {}, _walked("RB")),
    "C": Family(_rec_C, {0: _ONE, 1: _X}, _walked("C")),
    "D": Family(_rec_D("D"), {0: _ONE, 1: _t(1, x=1, q=1)},
                _folded(_count_marks)),
    "D'": Family(_rec_D("D'"), {0: _ONE, 1: _t(1, x=1, z=((1, 1),))},
                 _folded(_type_marks)),
    "W1": Family(_rec_W1(), {0: _ONE, 1: _ONE, 2: _ONE + q_pow(1)},
                 _west_walk("W1"), permstats.WEST_BOUND),
    "W2": Family(_rec_W2(), {0: _ONE, 1: _ONE}, _west_walk("W2"),
                 permstats.WEST_BOUND),
    "W3": Family(_rec_W3(), {0: _ONE, 1: _ONE}, _west_walk("W3"),
                 permstats.WEST_BOUND),
}

FAMILIES = tuple(FAMILY)


# -- oracles ------------------------------------------------------------------

_oracle_cache: dict[tuple[str, int], MultiPoly] = {}


def lookup_family(family: str) -> Family:
    """The family's FAMILY entry; raises ValueError for an unknown name."""
    try:
        return FAMILY[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from "
                         f"{', '.join(FAMILIES)}") from None


def check_oracle_bound(family: str, n: int) -> None:
    """Raise unless the family is known and 0 <= n <= its oracle bound."""
    permstats.check_size(n, lookup_family(family).bound,
                         f"family {family} oracle")


def qfib_oracle(family: str, n: int) -> MultiPoly:
    """The exact distribution polynomial of the family's statistic over
    its defining class, visiting every member by the family's walk; the
    entries it fills beside n are kept unless already cached."""
    check_oracle_bound(family, n)
    key = (family, n)
    if key not in _oracle_cache:
        for m, poly in FAMILY[family].walk(n).items():
            _oracle_cache.setdefault((family, m), poly)
    return _oracle_cache[key]


# -- recursive values ---------------------------------------------------------

_rec_cache: dict[tuple[str, int], MultiPoly] = {}


def qfib_recursive(family: str, n: int) -> MultiPoly:
    """The polynomial computed from the family's printed recursion (zero for
    n < 0).  Sizes 0..n are filled bottom-up, so every value the recursion
    reads is already cached and the call depth does not grow with n."""
    fam = lookup_family(family)
    if fam.recursion is None:
        raise ValueError(f"family {family!r} has no printed recursion")
    if n < 0:
        return MultiPoly.zero()
    if (family, n) not in _rec_cache:
        for m in range(n + 1):
            if (family, m) not in _rec_cache:
                _rec_cache[family, m] = fam.printed(m, qfib_recursive)
    return _rec_cache[family, n]


def closed_form_I(n: int) -> MultiPoly:
    """sum over 2k <= n of C(n-k, k) x^{n-2k} y^k q^{C(n,2)-k}."""
    permstats.check_size(n)
    return MultiPoly({(n - 2 * k, k, _c2(n) - k, ()): comb(n - k, k)
                      for k in range(n // 2 + 1)})


# -- identity catalog ---------------------------------------------------------


class IdentityDef(NamedTuple):
    """One cataloged identity.  readings maps each reading's name to its
    builder, build(*indices) -> (lhs, rhs), the as-printed reading first."""

    description: str
    arity: tuple[str, ...]
    start: int
    default_max: int
    readings: dict[str, Callable[..., tuple[MultiPoly, MultiPoly]]]
    notes: str = ""


class IdentityReport(NamedTuple):
    """An identity's verdict on each instance of its range, ascending, and
    the sides of the smallest failing instance, or None."""

    ident: str
    range_checked: dict
    instances: list
    counterexample: dict | None = None
    notes: str = ""

    @property
    def holds(self) -> bool:
        return all(inst["verdict"] == "holds" for inst in self.instances)

    def to_json(self) -> dict:
        return {
            "id": self.ident,
            "range": self.range_checked,
            "instances": self.instances,
            "counterexample": self.counterexample,
            "notes": self.notes,
        }

    def to_json_text(self) -> str:
        import json
        return json.dumps(self.to_json(), indent=2)


def _oracle_at(family: str, m: int) -> MultiPoly:
    """The oracle as a recursion's get: zero below size 0."""
    return MultiPoly.zero() if m < 0 else qfib_oracle(family, m)


def _printed(family: str, rhs: Rhs | None = None, offset: int = 0):
    """A printed recursion against the oracle: instance n compares the
    family at size n + offset with the printed value there, the right-hand
    side (the family's recursion unless a variant reading is given) fed by
    oracle values."""
    fam = FAMILY[family]

    def build(n: int):
        size = n + offset
        return _oracle_at(family, size), fam.printed(size, _oracle_at, rhs)
    return build


def _reversed(family: str, other: str):
    """The family against the reversal transform of the other family."""
    return lambda n: (qfib_oracle(family, n),
                      lemma23_transform(qfib_oracle(other, n), n))


def _equal(family: str, other: str):
    """Two families with the same distribution."""
    return lambda n: (qfib_oracle(family, n), qfib_oracle(other, n))


def _t41(m: int, n: int):
    lhs = qfib_oracle("I", m + n)
    first = (_oracle_at("I", m).substitute({"x": _t(1, x=1, q=n),
                                            "y": _t(1, y=1, q=2 * n)})
             * _oracle_at("I", n))
    second = (_t(1, y=1, q=2 * (n - 1))
              * _oracle_at("I", m - 1).substitute(
                  {"x": _t(1, x=1, q=n + 1), "y": _t(1, y=1, q=2 * (n + 1))})
              * _oracle_at("I", n - 1))
    return lhs, first + second


def _t43a(n: int):
    lhs = qfib_oracle("I", n).substitute({"x": _t(1, x=1, q=1),
                                          "y": _t(1, y=1, q=2)})
    return lhs, q_pow(n) * qfib_oracle("I", n)


def _t43b(n: int):
    lhs = qfib_oracle("I", n)
    rhs = q_pow(_c2(n)) * qfib_oracle("I", n).substitute(
        {"y": _t(1, y=1, q=-1), "q": MultiPoly.one()})
    return lhs, rhs


def _cassini(square_q: bool):
    def build(n: int):
        fn = qfib_oracle("I", n)
        prod = qfib_oracle("I", n + 1) * qfib_oracle("I", n - 1)
        lhs = (q_pow(1) * fn) ** 2 - prod if square_q else q_pow(1) * fn * fn - prod
        rhs = _t((-1) ** n, y=n, q=(n - 1) ** 2)
        return lhs, rhs
    return build


def _t44(n: int):
    lhs = qfib_oracle("I", n + 2)
    return lhs, MultiPoly.sum_of_products(
        [(_t(1, x=n + 2, q=_c2(n + 2)), 1),
         *((_t(1, x=n - j, y=1, q=(n * n + 3 * n - j * j + j) // 2),
            _oracle_at("I", j)) for j in range(n + 1))])


def _t45(n: int):
    lhs = qfib_oracle("I", 2 * n + 1)
    return lhs, MultiPoly.sum_of_products(
        (_t(1, x=1, y=j, q=4 * n * j - 2 * j * j + 2 * n - 2 * j),
         _oracle_at("I", 2 * n - 2 * j)) for j in range(n + 1))


def _t46(first_term_exp: Callable[[int], int]):
    def build(n: int):
        lhs = qfib_oracle("I", 2 * n)
        return lhs, MultiPoly.sum_of_products(
            [(_t(1, y=n, q=first_term_exp(n)), 1),
             *((_t(1, x=1, y=j, q=4 * n * j - 2 * j * j - 4 * j + 2 * n - 1),
                _oracle_at("I", 2 * n - 2 * j - 1)) for j in range(n))])
    return build


def _t47(n: int):
    lhs = qfib_oracle("I", n + 1) * qfib_oracle("I", n)
    return lhs, MultiPoly.sum_of_products(
        (_t(1, x=1, y=n - j, q=(n - j) * (n + j - 1) + j) * _oracle_at("I", j),
         _oracle_at("I", j)) for j in range(n + 1))


_ASIS = "as-printed"

#: The identities by id, in report order.
_CATALOG: dict[str, IdentityDef] = {
    "T2.1": IdentityDef("inversion-family recursion vs oracle", ("n",), 0, 12,
                        {_ASIS: _printed("I")}),
    "T2.2": IdentityDef("major-index-family recursion vs oracle", ("n",), 0,
                        12, {_ASIS: _printed("M")}),
    "L2.3": IdentityDef("reversal transform between the inv families", ("n",),
                        0, 12, {_ASIS: _reversed("I", "I'")}),
    "L2.4": IdentityDef("block-word transform between the maj families",
                        ("n",), 0, 12, {_ASIS: _reversed("M", "M'")}),
    "T3.1": IdentityDef("maj distribution equals rb distribution", ("n",), 0,
                        9, {_ASIS: _equal("M", "RB")}),
    "T3.3": IdentityDef("layered maj distribution equals Morse weight",
                        ("n",), 0, 12, {_ASIS: _equal("M'", "C")}),
    "T4.1": IdentityDef("two-index splitting of the inversion family",
                        ("m", "n"), 1, 14, {_ASIS: _t41}),
    "T4.3a": IdentityDef("marker shift x->xq, y->yq^2 scales by q^n", ("n",),
                         0, 12, {_ASIS: _t43a}),
    "T4.3b": IdentityDef("q-content extraction at q=1", ("n",), 0, 12,
                         {_ASIS: _t43b}),
    "CASSINI": IdentityDef("Cassini-like identity", ("n",), 1, 12,
                           {"q*Fn^2": _cassini(False),
                            "(q*Fn)^2": _cassini(True)},
                           notes="The printed display has unbalanced "
                                 "parentheses; both groupings are checked."),
    "T4.4": IdentityDef("split at the first doubleton", ("n",), 0, 12,
                        {_ASIS: _t44}),
    "T4.5": IdentityDef("odd index split at the first singleton", ("n",), 0,
                        12, {_ASIS: _t45}),
    "T4.6": IdentityDef(
        "even index split at the first singleton", ("n",), 0, 12,
        {_ASIS: _t46(lambda n: n * (n - 1)),
         "first-term-2n(n-1)": _t46(lambda n: 2 * n * (n - 1))},
        notes="The printed all-doubleton term y^n q^{n(n-1)} undercounts "
              "the doubled doubleton weight; the closed form gives y^n "
              "q^{C(2n,2)-n} = y^n q^{2n(n-1)}."),
    "T4.7": IdentityDef("product F_{n+1} F_n split by the first singleton",
                        ("n",), 0, 12, {_ASIS: _t47}),
    "T5.3": IdentityDef(
        "cycle-count recursion from interleaved prefixes", ("n",), 0, 10,
        {_ASIS: _printed("D", offset=2),
         "dd-term-y2q": _printed("D", _rec_D("D", dd_exp=1), 2),
         "subscript-n+2-2k": _printed("D", _rec_D("D", shift=2), 2),
         "dd-term-y2q,subscript-n+2-2k": _printed("D", _rec_D("D", 1, 2), 2)},
        notes="Statement vs proof disagree on the dd prefix coefficient, "
              "and the sum's subscript is off by the prefix size; "
              "residual-led words (odd cycles) are unaccounted for by every "
              "reading."),
    "T5.4": IdentityDef("cycle-type recursion from interleaved prefixes",
                        ("n",), 0, 10, {_ASIS: _printed("D'", offset=2)}),
    "T6.1": IdentityDef(
        "gap-insertion recursion for S_n(123,2143)", ("n",), 2, 10,
        {_ASIS: _printed("W1", offset=1),
         "exponent-minus-C(k,2)": _printed("W1", _rec_W1(-1), 1)},
        notes="Indices follow the statement: instance n checks F_2n (size "
              "n+1) against size-n data.  Both exponent readings fail: "
              "members can have the new largest value past the second gap "
              "without the forced top-value prefix (e.g. 3142), and members "
              "of that shape do not split off a free class tail (tail values "
              "above the prefix minimum must descend), so no reading of the "
              "printed shape can match the class."),
    "T6.2": IdentityDef(
        "gap-insertion recursion for S_n(132,3241)", ("n",), 1, 10,
        {_ASIS: _printed("W2"),
         "proof-bounds-2..n-1": _printed("W2", _rec_W2(2, 0, 1)),
         "derived-tail-size-n-k": _printed("W2", _rec_W2(2, 0, 0))},
        notes="Instance 1 checks the printed base F_0 = 1.  The printed "
              "subscript F_{2n-2k-4} undercounts the interior-gap tail by "
              "one element."),
    "T6.3": IdentityDef(
        "gap-insertion recursion for S_n(132,3412)", ("n",), 1, 10,
        {_ASIS: _printed("W3"),
         "first-term-W3": _printed("W3", _rec_W3("W3", 1, -1)),
         "derived-gap-indexed-sum": _printed("W3", _rec_W3("W3", 2, 0))},
        notes="Instance 1 checks the printed base F_0 = 1.  The printed "
              "first term references the W2 family; the derived reading "
              "indexes the sum by the gap position k = 2..n-1 with left "
              "part of size k-1."),
}

IDENTITY_IDS = tuple(_CATALOG)


def identity_catalog() -> list[dict]:
    """Metadata for the 19 cataloged identities."""
    return [
        {
            "id": ident,
            "description": d.description,
            "arity": list(d.arity),
            "start": d.start,
            "default_max": d.default_max,
            "readings": list(d.readings),
        }
        for ident, d in _CATALOG.items()
    ]


def _instances(defn: IdentityDef, max_n: int | None,
               max_m: int | None) -> list[tuple[int, ...]]:
    cap = defn.default_max if max_n is None else max_n
    if defn.arity == ("m", "n"):
        return [(m, total - m) for total in range(2, cap + 1)
                for m in range(1, total) if max_m is None or m <= max_m]
    return [(n,) for n in range(defn.start, cap + 1)]


def _adjudicate(defn: IdentityDef, indices: tuple[int, ...]):
    """The first reading under which the instance holds, or None and the
    sides that every reading built when all of them fail."""
    sides = {}
    for name, build in defn.readings.items():
        lhs, rhs = sides[name] = build(*indices)
        if lhs == rhs:
            return name, None
    return None, sides


def _checked_instances(ident: str, max_n: int | None, max_m: int | None,
                       ) -> tuple[IdentityDef, list[tuple[int, ...]]]:
    """An identity's definition and its instances in the range; an unknown
    id or a range that holds no instance raises ValueError."""
    if ident not in _CATALOG:
        raise ValueError(f"unknown identity {ident!r}; valid ids: "
                         f"{', '.join(IDENTITY_IDS)}")
    defn = _CATALOG[ident]
    instances = _instances(defn, max_n, max_m)
    if not instances:
        # a report with nothing checked would read as a success
        first = _instances(defn, None, None)[0]
        raise ValueError(f"identity {ident} has no instance in this range; "
                         "its first instance is " + ", ".join(
                             f"{i} = {v}" for i, v in zip(defn.arity, first)))
    return defn, instances


def verify_identity(ident: str, max_n: int | None = None,
                    max_m: int | None = None) -> IdentityReport:
    """Check every cataloged reading of an identity on its index range.

    An instance holds when at least one reading agrees exactly with the
    oracle-built sides; the first reading that does is recorded.  The
    smallest instance where every reading fails becomes the report's
    counterexample, carrying both polynomials of the as-printed reading.
    A range that holds no instance raises ValueError.
    """
    defn, instances = _checked_instances(ident, max_n, max_m)
    # largest first, so that one oracle walk serves every smaller instance;
    # the last failure met is then the smallest
    used_by, failure = {}, None
    for indices in reversed(instances):
        used_by[indices], sides = _adjudicate(defn, indices)
        if sides:
            failure = indices, sides
    counterexample = None
    if failure:
        indices, sides = failure
        lhs, rhs = sides[next(iter(defn.readings))]
        counterexample = {
            "indices": dict(zip(defn.arity, indices)),
            "lhs": lhs.canonical_text(),
            "rhs": rhs.canonical_text(),
            "rhs_by_reading": {name: r.canonical_text()
                               for name, (_, r) in sides.items()},
        }
    range_checked = {"arity": list(defn.arity), "start": defn.start,
                     "max": defn.default_max if max_n is None else max_n}
    if max_m is not None and "m" in defn.arity:
        range_checked["max_m"] = max_m
    return IdentityReport(
        ident, range_checked,
        [{"indices": dict(zip(defn.arity, indices)),
          "verdict": "holds" if used_by[indices] else "fails",
          "reading": used_by[indices]} for indices in instances],
        counterexample, defn.notes)


def verify_all(max_n: int | None = None,
               max_m: int | None = None) -> list[IdentityReport]:
    """Reports for the whole catalog, in catalog order.  Every identity's
    range is checked before any report is built, so an empty one is
    refused before any oracle is."""
    for ident in IDENTITY_IDS:
        _checked_instances(ident, max_n, max_m)
    return [verify_identity(ident, max_n=max_n, max_m=max_m)
            for ident in IDENTITY_IDS]
