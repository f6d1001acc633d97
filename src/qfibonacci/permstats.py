"""Permutations, pattern containment, Mahonian statistics and the layered
matching classes.

Permutations of [n] = {1, ..., n} are plain tuples in one-line notation,
e.g. (6, 7, 5, 3, 4, 2, 1); the empty permutation is ().  Positions are
1-based throughout, matching the usual major-index convention.

The two structural classes:

* reverse layered matchings (= avoiders of 123, 132, 213): layers read
  left to right carry decreasing value ranges, each layer ascending
  within, all layers of size <= 2; e.g. 67|5|34|2|1.
* layered matchings (= avoiders of 231, 312, 321): the reversals of the
  above; layers carry increasing value ranges, descending within,
  e.g. 21|3|54|6|7.

A class member is determined by its block word over {S, D} (singleton or
doubleton layer, left to right); see the blockwords module.
"""

from __future__ import annotations

import itertools
import marshal
import os
import struct
from bisect import bisect_left, insort
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

Perm = tuple[int, ...]

#: Largest n accepted by the brute-force filter, enumerate_avoiders.
FILTER_BOUND = 9

#: Largest size generated for the West classes.  Size n has F_{2n-2}
#: members, and west_walk grows them a level at a time: a level's children
#: cost the class's rule and a few integer operations per node, plus a
#: member per child only where the members themselves are asked for
#: (west_class).
WEST_BOUND = 12

#: West's three doubly-restricted classes, counted by even-index Fibonacci.
WEST_PATTERNS: dict[str, tuple[Perm, ...]] = {
    "W1": ((1, 2, 3), (2, 1, 4, 3)),
    "W2": ((1, 3, 2), (3, 2, 4, 1)),
    "W3": ((1, 3, 2), (3, 4, 1, 2)),
}

def _w1_rule(sites: list[int], ps: list[int], m: int) -> list[int]:
    return [s if p == 0 else s & 0b11 for s, p in zip(sites, ps)]


def _w2_rule(sites: list[int], ps: list[int], m: int) -> list[int]:
    ends = 1 | 1 << m
    return [s & (ends | 2 << p) for s, p in zip(sites, ps)]


def _w3_rule(sites: list[int], ps: list[int], m: int) -> list[int]:
    # gap 0 if a site, and from gap p + 1 on the run of sites that ends at
    # gap m, which starts at h, the bit length of the non-sites up to m
    top = 1 << m + 1
    return [s & 1 | (top - (1 << (s ^ top - 1).bit_length())) & -2 << p
            for s, p in zip(sites, ps)]


#: Each West class's succession rule over a level of its generating tree:
#: the legal gaps of every node from its sites, the 0-based index p of its
#: maximum and the level's size m (see _west_gaps).  The root () takes p = 0,
#: and every rule gives it its one gap.
WEST_RULES: dict[str, Callable[[list[int], list[int], int], list[int]]] = {
    "W1": _w1_rule, "W2": _w2_rule, "W3": _w3_rule}


class BoundExceeded(ValueError):
    """An enumeration was requested beyond its configured safety bound."""


def check_size(n: int, bound: int | None = None, what: str = "size") -> None:
    """Refuse a negative size, and a size beyond the bound when one is
    given; what names the bound in the message."""
    if n < 0:
        raise ValueError(f"size must be nonnegative, got n = {n}")
    if bound is not None and n > bound:
        raise BoundExceeded(f"{what} bound is {bound}, got n = {n}")


def check_perm(seq: Iterable[int]) -> Perm:
    """Validate and return a permutation of 1..n as a tuple."""
    p = tuple(seq)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"{p} is not a permutation of 1..{len(p)}")
    return p


def perm_to_text(p: Sequence[int]) -> str:
    """Digit string for n <= 9, space-separated one-line notation above."""
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return " ".join(str(v) for v in p)


def perm_from_text(text: str) -> Perm:
    """A permutation in one-line notation: a digit string, or values
    separated by spaces or commas."""
    s = text.strip()
    if not s:
        return ()
    values = s.replace(",", " ").split() if " " in s or "," in s else list(s)
    if not all(v.isdecimal() for v in values):
        raise ValueError(f"{s!r} is not a permutation: write its values as "
                         "a digit string such as 132, or separated by "
                         "spaces or commas")
    return check_perm(int(v) for v in values)


# -- statistics ---------------------------------------------------------


def inv(p: Sequence[int]) -> int:
    """Number of pairs i < j with p_i > p_j."""
    seen: list[int] = []
    total = 0
    for v in reversed(p):
        total += bisect_left(seen, v)
        insort(seen, v)
    return total


def descent_set(p: Sequence[int]) -> set[int]:
    """1-based positions i with p_i > p_{i+1}."""
    return {i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1]}


def maj(p: Sequence[int]) -> int:
    """Sum of the descent positions."""
    return sum(descent_set(p))


def reversal(p: Sequence[int]) -> Perm:
    return tuple(reversed(p))


# -- pattern containment -------------------------------------------------


def contains_pattern(sigma: Sequence[int], pi: Sequence[int]) -> bool:
    """True iff some subsequence of sigma is order isomorphic to pi.

    >>> contains_pattern((5, 6, 4, 3, 1, 2), (3, 2, 1))
    True
    >>> contains_pattern((5, 6, 4, 3, 1, 2), (1, 2, 3))
    False
    """
    m, n = len(pi), len(sigma)
    if m == 0:
        return True
    if m > n:
        return False

    chosen: list[int] = []

    def extend(start: int) -> bool:
        k = len(chosen)
        if k == m:
            return True
        for j in range(start, n - (m - k) + 1):
            v = sigma[j]
            if all((pi[t] < pi[k]) == (chosen[t] < v) for t in range(k)):
                chosen.append(v)
                if extend(j + 1):
                    return True
                chosen.pop()
        return False

    return extend(0)


def avoids_all(sigma: Sequence[int], patterns: Iterable[Sequence[int]]) -> bool:
    return not any(contains_pattern(sigma, pi) for pi in patterns)


def enumerate_avoiders(n: int,
                       patterns: Iterable[Sequence[int]]) -> list[Perm]:
    """All permutations of [n] avoiding every pattern, by filtered search.

    The search extends prefixes and prunes any prefix already containing
    a pattern (containment is monotone under appending), so it touches
    only pattern-free prefixes; the result is in lexicographic order.
    Sizes beyond FILTER_BOUND are refused: use the structural generators
    (perm_from_word / west_class) for the classes that have them.
    """
    check_size(n, FILTER_BOUND, "filter enumeration")
    pats = [tuple(p) for p in patterns]
    out: list[Perm] = []
    prefix: list[int] = []
    free = list(range(1, n + 1))

    def walk() -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in list(free):
            prefix.append(v)
            free.remove(v)
            if avoids_all(prefix, pats):
                walk()
            free.insert(bisect_left(free, v), v)
            prefix.pop()

    walk()
    return out


# -- cycle decomposition ---------------------------------------------------


class CycleDecomposition(NamedTuple):
    """Disjoint cycles of the map i -> p_i, each starting at its smallest
    element, listed by increasing smallest element."""

    n: int
    cycles: tuple[tuple[int, ...], ...]

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    def length_counts(self) -> dict[int, int]:
        """c_i: number of cycles of each length i."""
        counts: dict[int, int] = {}
        for c in self.cycles:
            counts[len(c)] = counts.get(len(c), 0) + 1
        return counts

    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.cycles))

    def permutation(self) -> Perm:
        out = [0] * self.n
        for cyc in self.cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                out[a - 1] = b
        return tuple(out)


def cycle_decomposition(p: Sequence[int]) -> CycleDecomposition:
    """
    >>> cycle_decomposition((9, 7, 8, 6, 4, 5, 3, 1, 2)).cycles
    ((1, 9, 2, 7, 3, 8), (4, 6, 5))
    """
    n = len(p)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = p[i - 1]
        cycles.append(tuple(cyc))
    return CycleDecomposition(n, tuple(cycles))


# -- layered structure ------------------------------------------------------


def _layered_word(p: Sequence[int]) -> str | None:
    """Block word of p if p is a layered matching, else None.  A layer
    starts wherever the previous one ends, and it is a doubleton exactly
    when it starts with a descent; the word read off this way is kept only
    if perm_from_word builds p back from it."""
    letters = []
    i = 0
    while i < len(p):
        size = 2 if i + 1 < len(p) and p[i] > p[i + 1] else 1
        letters.append("S" if size == 1 else "D")
        i += size
    word = "".join(letters)
    return word if perm_from_word(word, "layered") == tuple(p) else None


def layered_classify(p: Sequence[int]) -> str:
    """One of 'layered-matching', 'reverse-layered-matching', 'both',
    'neither' per the size-<=-2 layer definitions."""
    is_lm = _layered_word(p) is not None
    is_rlm = _layered_word(reversal(p)) is not None
    if is_lm and is_rlm:
        return "both"
    if is_lm:
        return "layered-matching"
    if is_rlm:
        return "reverse-layered-matching"
    return "neither"


def check_orientation(orientation: str) -> str:
    """orientation itself; refuses anything but 'reverse-layered' and
    'layered'."""
    if orientation not in ("reverse-layered", "layered"):
        raise ValueError(f"unknown orientation {orientation!r}")
    return orientation


def block_structure(p: Sequence[int], orientation: str | None = None) -> str:
    """Block word of a (reverse) layered matching: letter k is S iff layer
    k is a singleton, else D.  A reverse layered matching is the reversal
    of the layered matching with the reversed word.

    orientation is 'reverse-layered', 'layered', or None to prefer the
    reverse-layered reading when both apply.
    """
    if orientation is not None:
        check_orientation(orientation)
    if orientation in (None, "reverse-layered"):
        word = _layered_word(reversal(p))
        if word is not None:
            return word[::-1]
        if orientation == "reverse-layered":
            raise ValueError(f"{p} is not a reverse layered matching")
    word = _layered_word(p)
    if word is not None:
        return word
    raise ValueError(f"{p} is not a (reverse) layered matching")


def layer_values(n: int, left: int, size: int, orientation: str) -> Perm:
    """The values of the layer of size elements that follows left placed
    ones in a (reverse) layered matching of [n]: the highest values not yet
    placed, ascending (reverse-layered), or the lowest, descending
    (layered).

    >>> layer_values(7, 2, 2, "reverse-layered"), layer_values(7, 2, 2, "layered")
    ((4, 5), (4, 3))
    """
    if check_orientation(orientation) == "layered":
        return tuple(range(left + size, left, -1))
    return tuple(range(n - left - size + 1, n - left + 1))


def check_word(word: str) -> str:
    """The block word in upper case; refuses letters other than S and D."""
    w = word.upper()
    if any(ch not in "SD" for ch in w):
        raise ValueError(f"word must be over {{S, D}}, got {word!r}")
    return w


def word_layers(word: str) -> list[tuple[int, int]]:
    """(left, size) for each letter of a block word: letter k is a layer
    of size 1 (S) or 2 (D), placed after the left elements of the layers
    before it.

    >>> word_layers("DSD")
    [(0, 2), (2, 1), (3, 2)]
    """
    sizes = [1 if ch == "S" else 2 for ch in check_word(word)]
    return list(zip(itertools.accumulate(sizes, initial=0), sizes))


def word_length(word: str) -> int:
    """l(w) = #S + 2 #D.

    >>> word_length("DSDSS")
    7
    """
    w = check_word(word)
    return len(w) + w.count("D")


def perm_from_word(word: str, orientation: str) -> Perm:
    """The unique (reverse) layered matching with the given block word.

    >>> perm_from_word("DSDSS", "reverse-layered")
    (6, 7, 5, 3, 4, 2, 1)
    >>> perm_from_word("DSDSS", "layered")
    (2, 1, 3, 5, 4, 6, 7)
    """
    layers = word_layers(word)
    check_orientation(orientation)
    n = word_length(word)
    return tuple(v for left, size in layers
                 for v in layer_values(n, left, size, orientation))


# -- West's gap-insertion classes -------------------------------------------

def _west(table: dict, wclass: str):
    if wclass not in table:
        raise ValueError(f"unknown West class {wclass!r}")
    return table[wclass]


def _west_gaps(legal: list[int], m: int, deepest: bool
               ) -> Iterator[tuple[int, list[int], list[int] | None]]:
    """The level step of West's generating tree, grown from the root () with
    the sites of every node carried: a bitmask of gaps (bit k: in front of
    position k) where the new maximum may still go.  legal holds the legal
    gaps of each node of a level of size m: its class's rule applied to the
    level's sites and p columns, p the index of a node's maximum.  For each
    gap k legal at some node, the step yields k, the selection mask of those
    nodes (bytes, one per node, nonzero where k is legal, for
    itertools.compress) and their children's sites by gap k, or None when
    deepest, as those children are not grown.  A child by gap k has its
    maximum at k.  The masks are packed into at most 64 bits a node, so m
    must be below 64; WEST_BOUND keeps it below 12.

    A child's sites are the images of its parent's legal gaps: an illegal
    gap stays illegal in every child, because deleting the child's maximum
    turns an insertion there back into the illegal one.  The same argument
    pins both largest values.  sigma avoids the patterns, so an occurrence
    in a child uses the new maximum n; and below the root every site of
    sigma is the image of a legal gap of sigma's parent, so the occurrence
    also uses the old maximum m, or deleting m would leave it in a legal
    child of the parent.  n and m play the pattern's two largest letters,
    and n follows m iff k > p.  So, at a site k:

    * W1.  123 needs n after m and a value before m, so k > p >= 1.  2143
      needs n before m and a descent before n, so 2 <= k <= p.  For
      p >= 2, sigma[0] > sigma[1], or else sigma[0], sigma[1], m would be
      a 123.
    * W2.  132 rules out 1 <= k <= p.  Gaps 0, p + 1 and m admit no 3241.
      Any other site k, with p + 1 < k < m, is the image of the parent's
      legal gap k - 1.  By induction that gap is p' + 1, so m - 1 sits at
      k - 1, and (m, m - 1, n, sigma[k]) is a 3241.
    * W3.  132 rules out 1 <= k <= p.  For k > p, a gap is legal iff
      sigma[:k] > sigma[k:] and sigma[k:] descends.  Those gaps form an
      interval [l, m] inside the sites, and l != p + 2, since sigma[:p] >
      sigma[p + 1:] (132).  If l > p + 2, gap l - 1 is not a site, because
      the parent's gap l - 2 being legal would make l - 1 legal here.  So
      l = max(h, p + 1), where h is the first gap of the run of sites
      that ends at gap m."""
    count = len(legal)
    # byte j of every node's legal gaps, as one little-endian int with a
    # byte lane per node: gap k's nodes are the lanes of lanes[k >> 3] with
    # bit k & 7 set
    width, code = ((1, "B") if m < 8 else (2, "H") if m < 16 else
                   (4, "I") if m < 32 else (8, "Q"))
    packed = struct.pack(f"<{count}{code}", *legal)
    lanes = [int.from_bytes(packed[j::width], "little")
             for j in range(width)]
    ones = int.from_bytes(b"\1" * count, "little")
    for k in range(m + 1):
        sel = lanes[k >> 3] & ones << (k & 7)
        if sel:
            mask = sel.to_bytes(count, "little")
            # gaps below k keep their index, gaps from k on move up by one
            # (adding g & high doubles them), and gap k itself becomes both
            # sides of the new maximum
            bit = 1 << k
            high = -bit
            yield k, mask, None if deepest else [
                g + (g & high) + bit for g in itertools.compress(legal, mask)]


def west_children(sigma: Sequence[int], wclass: str) -> list[Perm]:
    """All class members obtained from sigma by inserting the new largest
    value into one of its gaps, in gap order.

    Containing a pattern is hereditary: if sigma contains one, so does
    every child, and the answer is empty.  Otherwise each child is tested
    whole: sigma is arbitrary, so no gap is known to be legal for a parent,
    and the pins of _west_gaps do not apply.  The printed gap rules drop
    legal insertions (see the identity verifier); the pattern test is the
    trusted arbiter.
    """
    pats = _west(WEST_PATTERNS, wclass)
    sigma = check_perm(sigma)
    if not avoids_all(sigma, pats):
        return []
    n = len(sigma) + 1
    gaps = (sigma[:k] + (n,) + sigma[k:] for k in range(n))
    return [child for child in gaps if avoids_all(child, pats)]


def west_walk(n: int, wclass: str, root,
              grow: Callable[[Iterable, int, int], list]) -> Tallies:
    """The tallies of the West class's generating tree from the root () down
    to size n, through level_walk: tallies[m] counts the values that the
    size-m nodes carry.  The root carries root, and grow(values, m, k) gives
    the values of the children by gap k of the size-m nodes whose values it
    is given (an iterator over the nodes where gap k is legal).  A node is
    (size, 0, value, sites, p), with the sites and p of _west_gaps, and in
    one slot a level holds those three columns; the deepest level grows no
    sites, so its nodes are (n, 0, value).  The class and size are checked
    before any node is grown."""
    rule = _west(WEST_RULES, wclass)
    check_size(n, WEST_BOUND, "West class")

    def expand(m: int, level: tuple, tally: Counter):
        (values, sites, ps), = level
        tally.update(values)
        if m < n:
            deepest = m + 1 == n
            for k, mask, kid_sites in _west_gaps(rule(sites, ps, m), m,
                                                 deepest):
                kids = grow(itertools.compress(values, mask), m, k)
                yield 1, 0, ((kids,) if deepest else
                             (kids, kid_sites, [k] * len(kids)))

    return level_walk(n, (0, 0, root, 0b1, 0), lambda: (([], [], []),),
                      expand)


def west_class(n: int, wclass: str) -> list[Perm]:
    """The West class at size n, sorted: the size-n nodes of west_walk, which
    carry themselves.  They go as bytes (n <= WEST_BOUND < 256), which hash
    and sort faster than tuples, and become tuples once sorted."""
    def grow(members: Iterable[bytes], m: int, k: int) -> list[bytes]:
        top = bytes((m + 1,))
        return [sigma[:k] + top + sigma[k:] for sigma in members]

    return list(map(tuple, sorted(west_walk(n, wclass, b"", grow)[n])))


# -- walks a level at a time, split over two processes -----------------------

Tallies = list[Counter]
Descend = Callable[[tuple, int, Tallies], list]

#: A walk to n that does not split goes through the subtrees of the nodes
#: that first reach size n - SERIAL_DEPTH, one at a time: in a word tree a
#: level of such a subtree holds at most F_15 = 987 nodes, where a whole
#: level at 26 holds F_26 = 196,418.  Each level of a walk has a fixed
#: cost, and the deeper the subtrees, the more nodes share it: on one CPU
#: the word oracles to 20 take 25-35% less time at depth 15 than at 12, and
#: 14 or 16 is no faster (CPython 3.11, 2-vCPU host).  A West walk, at most
#: WEST_BOUND = 12 deep, is one subtree, and a West subtree 15 deep would
#: not be small: its levels grow about 2.6x a step.  A split walk cuts at
#: SPLIT_CUT instead, to share the subtrees out.
SERIAL_DEPTH = 15

#: A walk to n through level_walk is split over two processes from size
#: SPLIT_FROM on.  At 22 a walk of I, D or D' takes 13-28 ms split and 14-27
#: ms alone, the split faster in 7 of 9 measurements (by 12% in the median);
#: at 21 it is slower in 8 of 9 (by 7%), and it saves 16-41% at 23 and
#: about half at 26 (min of 21 walks, CPython 3.11, 2-vCPU host).  Its
#: subtree roots, the nodes that first reach size SPLIT_CUT or more, are
#: F_10 = 89 in a word tree, below 88 nodes of smaller size.  No West walk
#: splits: WEST_BOUND is 12, below SPLIT_FROM, and a West walk takes 1-1.6
#: ms to size 10 and 6-10 ms to 12.
SPLIT_FROM, SPLIT_CUT = 22, 9


def level_walk(n: int, root: tuple, empty, expand) -> Tallies:
    """The tallies of a tree walk to n through split_walk, a level at a time.
    empty() is a level with no node: for each slot, one empty column per
    node field.  A node is (size, slot, *fields).  expand(m, level, tally)
    counts the level's nodes, of size m, into tally and yields (size step,
    slot, columns) for their children, of size at most n."""
    def descend(node: tuple, stop: int, tallies: Tallies) -> list[tuple]:
        start, end = node[0], min(stop, n + 1)
        if start >= stop:
            return [node]
        levels = {m: empty() for m in range(start, end)}
        for column, value in zip(levels[start][node[1]], node[2:]):
            column.append(value)
        frontier = []
        for m in range(start, end):
            for size, slot, kids in expand(m, levels.pop(m), tallies[m]):
                if m + size < stop:
                    for column, new in zip(levels[m + size][slot], kids):
                        column += new
                else:
                    # a step of 2 can carry a node one past stop
                    count = len(kids[0])
                    frontier += zip([m + size] * count, [slot] * count, *kids)
        return frontier

    return split_walk(descend, root, n, SPLIT_CUT, n >= SPLIT_FROM)


def split_walk(descend: Descend, root: tuple, n: int, cut: int,
               big: bool) -> Tallies:
    """The counts of a tree walk to size n, one Counter per node size, from
    this process and, when big is true and the platform can fork onto a
    second CPU, one forked child.

    descend(node, stop, tallies) walks node's subtree, counts every node of
    size m < stop into tallies[m], and returns the unwalked nodes of size
    >= stop whose parent is smaller, in a fixed order.  descend(root, c,
    ...) gives the roots, whose subtrees partition the rest, and a walk holds
    one root's subtree at a time.  Alone, this process cuts at c = n -
    SERIAL_DEPTH (or 0) and walks every root.  Split, it cuts at c = cut,
    and each process walks the root of each ticket it draws from a pipe, so
    a slower CPU takes fewer.  The child sends back, with marshal, its
    counts of sizes >= cut and how many roots it took, and leaves by
    os._exit, so no buffered output is written twice.  Unless it exits 0
    having taken every root the parent did not, the parent walks those too
    (every root, when os.fork fails).  If the parent's share raises, the
    child is killed and reaped."""
    tallies: Tallies = [Counter() for _ in range(n + 1)]
    split = (big and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) >= 2)
    roots = descend(root, cut if split else max(n - SERIAL_DEPTH, 0), tallies)
    # the tickets, 4 bytes a root, are all written before the fork, so more
    # than 1,024 roots could fill a pipe's smallest buffer (4 KiB on Linux)
    # and block the write: they are walked here alone.  A word walk's 89
    # roots take 356 bytes
    if not (split and 0 < len(roots) <= 1024):
        for node in roots:
            descend(node, n + 1, tallies)
        return tallies
    read_end, write_end = os.pipe()
    with open(read_end, "rb", buffering=0) as tickets:
        with open(write_end, "wb") as deal:
            deal.write(b"".join(k.to_bytes(4, "little")
                                for k in range(len(roots))))
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as results, open(write_end, "wb") as sink:
            try:
                pid = os.fork()
            except OSError:
                pid = None
            if pid == 0:
                # the child: on any exception it exits 1, writing nothing
                code = 1
                try:
                    own: Tallies = [Counter() for _ in range(n + 1)]
                    taken = len(_drawn(descend, roots, n, tickets, own))
                    sink.write(marshal.dumps([[dict(t) for t in own[cut:]],
                                              taken]))
                    sink.flush()
                    code = 0
                finally:
                    os._exit(code)
            try:
                sink.close()
                mine = _drawn(descend, roots, n, tickets, tallies)
                data = results.read()
            except BaseException:
                if pid:
                    os.kill(pid, 9)     # SIGKILL
                raise
            finally:
                if pid:
                    status = os.waitpid(pid, 0)[1]
    if pid and os.waitstatus_to_exitcode(status) == 0:
        theirs, taken = marshal.loads(data)
        if len(mine) + taken == len(roots):
            for tally, their in zip(tallies[cut:], theirs):
                tally.update(their)
            return tallies
    for k, node in enumerate(roots):
        if k not in mine:
            descend(node, n + 1, tallies)
    return tallies


def _drawn(descend: Descend, roots: list, n: int, tickets,
           tallies: Tallies) -> list[int]:
    """Walk the root of each ticket drawn until none is left; the tickets."""
    drawn = []
    while ticket := tickets.read(4):
        k = int.from_bytes(ticket, "little")
        descend(roots[k], n + 1, tallies)
        drawn.append(k)
    return drawn
