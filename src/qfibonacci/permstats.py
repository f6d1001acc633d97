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
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

Perm = tuple[int, ...]

#: Largest n accepted by the brute-force filter enumerations (n! scan).
FILTER_BOUND = 9

#: Largest size generated for the West classes.  Size n has F_{2n-2}
#: members; growing it costs one pattern test with both largest values
#: pinned per carried site of each member of size n - 1, and at most one
#: pattern of W1-W3 backtracks at each site (see _grow).
WEST_BOUND = 12

#: West's three doubly-restricted classes, counted by even-index Fibonacci.
WEST_PATTERNS: dict[str, tuple[Perm, ...]] = {
    "W1": ((1, 2, 3), (2, 1, 4, 3)),
    "W2": ((1, 3, 2), (3, 2, 4, 1)),
    "W3": ((1, 3, 2), (3, 4, 1, 2)),
}


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
    s = text.strip()
    if not s:
        return ()
    if " " in s or "," in s:
        return check_perm(int(t) for t in s.replace(",", " ").split())
    return check_perm(int(ch) for ch in s)


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


def enumerate_avoiders_scan(n: int,
                            patterns: Iterable[Sequence[int]]) -> list[Perm]:
    """Plain n!-scan filter; slower cross-check for enumerate_avoiders."""
    check_size(n, FILTER_BOUND, "filter enumeration")
    pats = [tuple(p) for p in patterns]
    return [p for p in itertools.permutations(range(1, n + 1))
            if avoids_all(p, pats)]


# -- cycle decomposition ---------------------------------------------------


@dataclass(frozen=True)
class CycleDecomposition:
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


def block_structure(p: Sequence[int], orientation: str | None = None) -> str:
    """Block word of a (reverse) layered matching: letter k is S iff layer
    k is a singleton, else D.  A reverse layered matching is the reversal
    of the layered matching with the reversed word.

    orientation is 'reverse-layered', 'layered', or None to prefer the
    reverse-layered reading when both apply.
    """
    if orientation not in (None, "reverse-layered", "layered"):
        raise ValueError(f"unknown orientation {orientation!r}")
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
    if orientation == "reverse-layered":
        return tuple(range(n - left - size + 1, n - left + 1))
    if orientation == "layered":
        return tuple(range(left + size, left, -1))
    raise ValueError(f"unknown orientation {orientation!r}")


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
    if orientation not in ("reverse-layered", "layered"):
        raise ValueError(f"unknown orientation {orientation!r}")
    n = word_length(word)
    return tuple(v for left, size in layers
                 for v in layer_values(n, left, size, orientation))


# -- West's gap-insertion classes -------------------------------------------

def _west_patterns(wclass: str) -> tuple[Perm, ...]:
    try:
        return WEST_PATTERNS[wclass]
    except KeyError:
        raise ValueError(f"unknown West class {wclass!r}") from None


@lru_cache(maxsize=64)
def _site_plan(pi: Perm) -> tuple[int, int,
                                   tuple[tuple[int, int, int, int], ...]]:
    """pi compiled for _contains_through: the indices top and second of its
    largest and second-largest letters (equal for one letter), and for
    every other index i in order the step (i, low, high, seg).  low is the
    earlier such index whose letter is nearest below pi[i] (-1 when there
    is none); high is the one nearest above among them and second, which
    always qualifies.  seg counts the pinned indices before i.

    While the letters chosen so far are order isomorphic to pi's part at
    their indices, a value v fits as letter i exactly when it lies strictly
    between the values chosen for low and high."""
    top = pi.index(max(pi))
    rest = [t for t in range(len(pi)) if t != top]
    second = max(rest, key=pi.__getitem__, default=top)
    steps = []
    for i in rest:
        if i != second:
            earlier = [t for t in rest if t < i and t != second]
            below = [t for t in earlier if pi[t] < pi[i]]
            above = [t for t in earlier if pi[t] > pi[i]] + [second]
            steps.append((i, max(below, key=pi.__getitem__, default=-1),
                          min(above, key=pi.__getitem__),
                          (i > top) + (i > second)))
    return top, second, tuple(steps)


def _contains_through(sigma: Perm, pi: Perm, k: int, k2: int) -> bool:
    """True iff some occurrence of pi in sigma puts pi's largest letter at
    position k and its second-largest letter, if it has one, at k2
    (0-based), where sigma[k] and sigma[k2] are sigma's largest and
    second-largest values: False at once when pi orders those two letters
    the other way, else contains_pattern's backtrack over the other
    letters, each letter's fit reduced to one comparison (see _site_plan)."""
    top, second, steps = _site_plan(pi)
    if top == second:
        return True
    if (top < second) != (k < k2):
        return False
    if not steps:
        return True
    m, n = len(pi), len(sigma)
    last = len(steps) - 1
    # letter i of segment seg lies in floors[seg] .. stops[seg] + i - 1,
    # which leaves room for the letters up to the next pin or the end
    if k < k2:
        p1, p2, first, then = top, second, k, k2
    else:
        p1, p2, first, then = second, top, k2, k
    floors = (0, first + 1, then + 1)
    stops = (first - p1 + 1, then - p2 + 1, n - m + 1)
    # chosen[-1] is the 0 below every value; the pinned values are above
    # every other one
    chosen = [0] * (m + 1)
    chosen[top], chosen[second] = sigma[k], sigma[k2]

    def extend(s: int, start: int) -> bool:
        i, low, high, seg = steps[s]
        if start < floors[seg]:
            start = floors[seg]
        stop = stops[seg] + i
        lo, hi = chosen[low], chosen[high]
        if s == last:
            for v in sigma[start:stop]:
                if lo < v < hi:
                    return True
            return False
        for j in range(start, stop):
            v = sigma[j]
            if lo < v < hi:
                chosen[i] = v
                if extend(s + 1, j + 1):
                    return True
        return False

    return extend(0, 0)


def _grow(sigma: Perm, sites: int,
          pats: tuple[Perm, ...]) -> list[tuple[int, Perm, int]]:
    """The children of sigma, a node of the generating tree grown from the
    root () with its sites carried, inserted at the gaps in the bitmask
    sites (bit k: in front of position k): for each, the gap k that took
    the new maximum, the child and its own sites.

    A child's sites are the images of sigma's legal gaps: an illegal gap
    stays illegal in every child, because deleting the child's maximum
    turns an insertion there back into the illegal one.  The same argument
    pins both largest values.  sigma avoids pats, so an occurrence in a
    child uses the new maximum n; and below the root every site of sigma is
    the image of a legal gap of sigma's parent, so the occurrence also uses
    the old maximum n - 1, or deleting n - 1 would leave it in a legal
    child of the parent.  n and n - 1 therefore play pi's largest and
    second-largest letters.  The root has no old maximum, and its one
    child is tested whole."""
    n = len(sigma) + 1
    if n == 1:
        return ([(0, (1,), 0b11)] if sites & 1 and avoids_all((1,), pats)
                else [])
    old = sigma.index(n - 1)
    kids = []
    legal = 0
    for k in range(n):
        if sites >> k & 1:
            cand = sigma[:k] + (n,) + sigma[k:]
            k2 = old + (k <= old)
            for pi in pats:
                if _contains_through(cand, pi, k, k2):
                    break
            else:
                kids.append((k, cand))
                legal |= 1 << k
    # gaps below k keep their index, gaps from k on move up by one, and
    # gap k itself becomes both sides of the new maximum
    return [(k, cand,
             legal & ((1 << k) - 1) | (legal >> k) << (k + 1) | 1 << k)
            for k, cand in kids]


def west_children(sigma: Sequence[int], wclass: str) -> list[Perm]:
    """All class members obtained from sigma by inserting the new largest
    value into one of its gaps, in gap order.

    Containing a pattern is hereditary: if sigma contains one, so does
    every child, and the answer is empty.  Otherwise each child is tested
    whole: sigma is arbitrary, so no gap is known to be legal for a parent,
    and the pins of _grow do not apply.  The printed gap rules drop legal
    insertions (see the identity verifier); the pattern test is the trusted
    arbiter.
    """
    pats = _west_patterns(wclass)
    sigma = check_perm(sigma)
    if not avoids_all(sigma, pats):
        return []
    n = len(sigma) + 1
    gaps = (sigma[:k] + (n,) + sigma[k:] for k in range(n))
    return [child for child in gaps if avoids_all(child, pats)]


#: The root of West's generating tree, as a (sigma, sites, inv) node.
WEST_ROOT = ((), 0b1, 0)


def west_tree(n: int, wclass: str, visit: Callable[[Perm, int], None]) -> None:
    """Call visit(sigma, inv(sigma)) at every member sigma of the West
    class up to size n, depth first down the generating tree from (), each
    node with its sites (see _grow).  The new maximum in gap k of a size-m
    node adds m - k inversions.  No node outlives the path to it."""
    _west_subtree(n, wclass, visit, WEST_ROOT, n + 1)


def _west_subtree(n: int, wclass: str, visit: Callable[[Perm, int], None],
                  node: tuple[Perm, int, int], stop: int) -> list[tuple]:
    """west_tree's walk of node's subtree through its nodes below size
    stop; it returns the nodes of size stop, unwalked (see split_walk)."""
    pats = _west_patterns(wclass)
    check_size(n, WEST_BOUND, "West class")
    frontier: list[tuple] = []

    def grow(sigma: Perm, sites: int, q: int) -> None:
        m = len(sigma)
        if m >= stop:
            frontier.append((sigma, sites, q))
            return
        visit(sigma, q)
        if m < n:
            for k, child, kid_sites in _grow(sigma, sites, pats):
                grow(child, kid_sites, q + m - k)

    grow(*node)
    return frontier


def west_class(n: int, wclass: str) -> list[Perm]:
    """The West class at size n, sorted: west_tree's nodes at depth n."""
    members: list[Perm] = []

    def visit(sigma: Perm, q: int) -> None:
        if len(sigma) == n:
            members.append(sigma)

    west_tree(n, wclass, visit)
    return sorted(members)


# -- walks split over two processes -------------------------------------------

Tallies = list[dict]
Descend = Callable[[tuple, int, Tallies], list]


def split_walk(descend: Descend, root: tuple, n: int, cut: int,
               big: bool) -> Tallies:
    """The counts of a tree walk to size n, one dict per node size, from
    this process and, when big is true and the platform can fork onto a
    second CPU, one forked child.

    descend(node, stop, tallies) walks node's subtree depth first, counts
    every node of size m < stop into tallies[m], and returns the unwalked
    nodes of size >= stop whose parent is smaller, in depth-first order.
    Split, descend(root, cut, ...) gives the roots, whose subtrees partition
    the rest; each process walks the root of each ticket it draws from a
    pipe, so a slower CPU takes fewer.  The child sends back, with marshal,
    its counts of sizes >= cut and how many roots it took, and leaves by
    os._exit, so no buffered output is written twice.  Unless it exits 0
    having taken every root the parent did not, the parent walks those too
    (every root, when os.fork fails).  If the parent's share raises, the
    child is killed and reaped."""
    tallies: Tallies = [{} for _ in range(n + 1)]
    split = (big and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) >= 2)
    roots = descend(root, cut if split else n + 1, tallies)
    if not roots:
        return tallies
    read_end, write_end = os.pipe()
    with open(read_end, "rb", buffering=0) as tickets:
        # a few hundred bytes, far below the pipe's capacity
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
                    own: Tallies = [{} for _ in range(n + 1)]
                    taken = len(_drawn(descend, roots, n, tickets, own))
                    sink.write(marshal.dumps([own[cut:], taken]))
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
                for key, c in their.items():
                    tally[key] = tally.get(key, 0) + c
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
