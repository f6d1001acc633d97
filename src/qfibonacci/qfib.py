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

Each family is declared once, in the FAMILY table: its class, statistic,
oracle bound and printed recursion.  The oracles visit every member of the
defining combinatorial class by a depth-first walk that computes the
statistic step by step from the values placed: over the S/D words for the
word families, down West's generating tree for W1-W3.  Recursions and
identities are hypotheses checked against them.  Several
printed statements carry typos, so the verifier evaluates cataloged variant
readings per instance and reports which reading, if any, agrees with the
oracle.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from . import blockwords, partitions, permstats
from .polyring import MultiPoly, q_pow

#: Oracle size cap of the word-structured classes (the T4.5 suite touches
#: index 25).  Their walks visit every word: one walk to 26 passes 514,228
#: nodes in 0.4-0.6 s, and a D or D' walk at 26 its 196,418 members in
#: 0.3 s, at O(1) per layer either way (2 vCPUs, CPython 3.11).  No
#: benchmark workload measures a larger size, so the cap stays.  The West
#: classes take permstats.WEST_BOUND: their walk tests every carried site
#: of every member for a pattern through the new and the old maximum, and
#: the class sizes F_{2n-2} grow about 2.6x per step.
STRUCTURAL_BOUND = 26

#: The split walks (permstats.split_walk).  An oracle walk is split over two
#: processes from size *_SPLIT_FROM on, where it takes about 35 ms alone, ten
#: times what forking, the pipes and the merge cost (2 vCPUs, CPython 3.11).
#: Its subtree roots, the nodes of size *_CUT or more with a smaller parent,
#: are F_10 = 89 in both trees: the word nodes that first reach 9 or more
#: placed elements, below 88 with fewer, and the West members of size 6,
#: below 56.
WORD_SPLIT_FROM, WORD_CUT = 22, 9
WEST_SPLIT_FROM, WEST_CUT = 10, 6


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

    objects(n) yields (x exponent, y exponent, object) for every member of
    the defining class at size n; weight(object) is its (q exponent, z
    exponents).  recursion is the printed right-hand side (None when there
    is none) and bases holds the values at the sizes it does not cover.
    walk(n) maps sizes to polynomials from one depth-first pass to size n:
    over the S/D word tree, every size 0..n for the order-invariant families
    (_walked) and n alone for D and D' (_cycle_walk); down West's generating
    tree as permstats.west_tree walks it, every size 0..n (_west_walk).
    These two share large walks with a forked child (permstats.split_walk,
    WORD_SPLIT_FROM).  The oracle uses walk in place of the objects/weight
    loop, which stays the reference.  Class generators and statistics are
    looked up on their modules at call time, so wrappers installed after
    import see every call.
    """

    objects: Callable[[int], Iterator[tuple[int, int, object]]]
    weight: Callable[[object], tuple[int, tuple]]
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


def _words(orientation: str | None):
    """Block words of size n, as their (reverse) layered matching, or as
    words when orientation is None."""
    def objects(n: int):
        for w in blockwords.iter_words(n):
            yield w.count("S"), w.count("D"), (
                w if orientation is None
                else permstats.perm_from_word(w, orientation))
    return objects


def _layered_matchings(n: int):
    for alpha in partitions.enumerate_layered_matchings(n):
        yield (*partitions.singleton_doubleton_counts(alpha), alpha)


def _west(wclass: str):
    def objects(n: int):
        for p in permstats.west_class(n, wclass):
            yield 0, 0, p
    return objects


def _inv(p):
    return permstats.inv(p), ()


def _maj(p):
    return permstats.maj(p), ()


def _cycles(p):
    return permstats.cycle_decomposition(p).cycle_count, ()


def _cycle_type(p):
    counts = permstats.cycle_decomposition(p).length_counts()
    return 0, tuple(counts.items())


def _morse(w):
    return blockwords.morse_weight(w), ()


def _rb(alpha):
    return partitions.rb(alpha), ()


# -- the West walk ------------------------------------------------------------


def _west_walk(wclass: str):
    """walk(n) tallies inv at every size 0..n in one west_tree pass."""
    def walk(n: int) -> dict[int, MultiPoly]:
        def descend(node: tuple, stop: int, tallies: list) -> list[tuple]:
            def visit(sigma: tuple, q: int) -> None:
                tally = tallies[len(sigma)]
                tally[q] = tally.get(q, 0) + 1

            return permstats._west_subtree(n, wclass, visit, node, stop)

        tallies = permstats.split_walk(descend, permstats.WEST_ROOT, n,
                                       WEST_CUT, n >= WEST_SPLIT_FROM)
        return {m: MultiPoly({(0, 0, q, ()): c for q, c in tally.items()})
                for m, tally in enumerate(tallies)}
    return walk


# -- the word walks ------------------------------------------------------------
#
# A member of a word family is a word over {S, D}, read layer by layer.  The
# walks append layers depth first and update the statistic from the actual
# values each layer places, at O(1) per layer.
#
# _walked serves the families whose steps read values only by comparing them
# (I, I', M, M', RB, C).  The first m values a walk to size n places are order
# isomorphic to the size-m member with the same letters: reverse-layered
# layers take the highest values left, and layered and partition layers do
# not depend on n.  So each node at depth m is a size-m member, and one walk
# to n tallies every size 0..n.  The placed values of every prefix form an
# interval, so a step(buf, left, size, low) sees the new layer in
# buf[left:left + size] after the placed values low..low + left - 1.
#
# _cycle_walk serves D and D', whose cycles read actual values, one size per
# walk.  It keeps the partial map i -> p_i as open paths (_paths) and marks a
# cycle when an edge closes one.


def _walked(values, step):
    """The walk of an order-invariant word family.  values(n, left, size) is
    the layer of that size after left placed elements, and the statistic of
    a member is the sum of the steps along its word.  walk(n) maps every
    size 0..n to its polynomial.  Its nodes for permstats.split_walk are
    (left, d, q, low, placed values)."""
    def walk(n: int) -> dict[int, MultiPoly]:
        layers: list[list[tuple]] = [[] for _ in range(n + 1)]
        for left in range(n + 1):
            for size in (1, 2):
                if left + size <= n:
                    vals = values(n, left, size)
                    layers[left].append((size, vals, min(vals)))
        buf = [0] * n

        def descend(node: tuple, stop: int, tallies: list) -> list[tuple]:
            frontier: list[tuple] = []

            def grow(left: int, d: int, q: int, low: int) -> None:
                if left >= stop:
                    frontier.append((left, d, q, low, buf[:left]))
                    return
                tally = tallies[left]
                tally[d, q] = tally.get((d, q), 0) + 1
                for size, vals, least in layers[left]:
                    buf[left:left + size] = vals
                    grow(left + size, d + size - 1,
                         q + step(buf, left, size, low),
                         least if least < low else low)

            buf[:node[0]] = node[4]     # the placed values
            grow(*node[:4])
            return frontier

        tallies = permstats.split_walk(descend, (0, 0, 0, n + 1, []), n,
                                       WORD_CUT, n >= WORD_SPLIT_FROM)
        return {m: MultiPoly({(m - 2 * d, d, q, ()): c
                              for (d, q), c in tally.items()})
                for m, tally in enumerate(tallies)}
    return walk


def _paths(n: int):
    """link and unlink over the partial map i -> p_i on [n], kept as open
    paths: head[t] starts the path that ends at t, tail[h] ends the path
    that starts at h, and count[h] is its number of vertices.  Every vertex
    starts as a path of its own.

    link(i, v) adds the edge i -> v, where i ends a path and v starts one.
    It closes a cycle exactly when v starts the path that ends at i, and
    then returns the cycle's length; otherwise it joins the two paths and
    returns 0, and unlink(i, v) undoes the join.

    >>> link, unlink = _paths(3)
    >>> link(1, 2), link(2, 3)     # the path 1 -> 2 -> 3
    (0, 0)
    >>> link(3, 1)                 # closes the 3-cycle (1 2 3)
    3
    """
    head, tail, count = list(range(n + 1)), list(range(n + 1)), [1] * (n + 1)

    def link(i: int, v: int) -> int:
        h = head[i]
        if h == v:
            return count[v]
        t = tail[v]
        tail[h], head[t] = t, h
        count[h] += count[v]
        return 0

    def unlink(i: int, v: int) -> None:
        h, t = head[i], tail[v]
        tail[h], head[t] = i, v
        count[h] -= count[v]

    return link, unlink


def _cycle_walk(marks):
    """The walk of a cycle family over the reverse layered matchings of one
    size.  marks(n) is (unit, decode): a closed cycle of length L adds
    unit[L] to the member's mark (unit[0] = 0), and decode(mark) is its (q
    exponent, z exponents).  walk(n) maps n to its polynomial."""
    def walk(n: int) -> dict[int, MultiPoly]:
        unit, decode = marks(n)
        link, unlink = _paths(n)
        # the edge i -> v of each layer, and j -> w of a doubleton (else 0, 0)
        layers: list[list[tuple]] = [[] for _ in range(n + 1)]
        for left in range(n + 1):
            for size in (1, 2):
                if left + size <= n:
                    edges = [*enumerate(_REVERSE(n, left, size), left + 1),
                             (0, 0)]
                    layers[left].append((*edges[0], *edges[1]))
        tally: dict[tuple, int] = {}

        def grow(left: int, d: int, c: int) -> None:
            if left == n:
                tally[d, c] = tally.get((d, c), 0) + 1
                return
            for i, v, j, w in layers[left]:
                a = link(i, v)
                if j:
                    b = link(j, w)
                    grow(j, d + 1, c + unit[a] + unit[b])
                    if not b:
                        unlink(j, w)
                else:
                    grow(i, d, c + unit[a])
                if not a:
                    unlink(i, v)

        grow(0, 0, 0)
        return {n: MultiPoly({(n - 2 * d, d, *decode(c)): k
                              for (d, c), k in tally.items()})}
    return walk


def _count_marks(n: int):
    """D: every cycle adds 1 to the q exponent."""
    return [0] + [1] * n, lambda c: (c, ())


def _type_marks(n: int):
    """D': one field of n.bit_length() bits per cycle length, the count of
    cycles of that length (at most n)."""
    width = n.bit_length()
    mask = (1 << width) - 1

    def decode(c: int):
        return 0, tuple((length, c >> width * length & mask)
                        for length in range(1, n + 1)
                        if c >> width * length & mask)
    return [0] + [1 << width * length for length in range(1, n + 1)], decode


def _perm_layers(orientation: str):
    def values(n: int, left: int, size: int):
        return permstats.layer_values(n, left, size, orientation)
    return values


def _partition_layers(n: int, left: int, size: int):
    return partitions.layer_block(left, size)


def _inv_step(buf, left, size, low):
    """Inversions the layer adds: a new value below the placed interval is
    inverted with every placed value, one above it with none; plus the pair
    inside a doubleton."""
    a = buf[left]
    total = left if a < low else 0
    if size == 2:
        b = buf[left + 1]
        total += (left if b < low else 0) + (a > b)
    return total


def _maj_step(buf, left, size, low):
    """Descents the layer adds, at their 1-based positions: at the junction
    with the placed values and inside a doubleton."""
    total = left if left and buf[left - 1] > buf[left] else 0
    if size == 2 and buf[left] > buf[left + 1]:
        total += left + 1
    return total


def _rb_step(buf, left, size, low):
    """Placed elements below the new block's maximum: all of the placed
    interval when the maximum lies above it, else none."""
    return left if max(buf[left:left + size]) > low else 0


def _morse_step(buf, left, size, low):
    """Cigler's score: a dash scores the length before it plus one."""
    return left + 1 if size == 2 else 0


_REVERSE, _LAYERED = _perm_layers("reverse-layered"), _perm_layers("layered")
_ONE, _X = MultiPoly.one(), _t(1, x=1)

# D, D' have no printed bases and W1 is printed for even indices from F_2
# on; their bases are the class values (the size-2 members of W1 are 12 and
# 21).
FAMILY: dict[str, Family] = {
    "I": Family(_words("reverse-layered"), _inv, _rec_I, {0: _ONE, 1: _X},
                _walked(_REVERSE, _inv_step)),
    "I'": Family(_words("layered"), _inv, _reversal_of("I"), {},
                 _walked(_LAYERED, _inv_step)),
    "M": Family(_words("reverse-layered"), _maj, _rec_M, {0: _ONE, 1: _X},
                _walked(_REVERSE, _maj_step)),
    "M'": Family(_words("layered"), _maj, _reversal_of("M"), {},
                 _walked(_LAYERED, _maj_step)),
    "RB": Family(_layered_matchings, _rb, None, {},
                 _walked(_partition_layers, _rb_step)),
    # the buffer holds the Morse sequence's layered matching (morse_to_perm)
    "C": Family(_words(None), _morse, _rec_C, {0: _ONE, 1: _X},
                _walked(_LAYERED, _morse_step)),
    "D": Family(_words("reverse-layered"), _cycles, _rec_D("D"),
                {0: _ONE, 1: _t(1, x=1, q=1)}, _cycle_walk(_count_marks)),
    "D'": Family(_words("reverse-layered"), _cycle_type, _rec_D("D'"),
                 {0: _ONE, 1: _t(1, x=1, z=((1, 1),))},
                 _cycle_walk(_type_marks)),
    "W1": Family(_west("W1"), _inv, _rec_W1(),
                 {0: _ONE, 1: _ONE, 2: _ONE + q_pow(1)}, _west_walk("W1"),
                 permstats.WEST_BOUND),
    "W2": Family(_west("W2"), _inv, _rec_W2(), {0: _ONE, 1: _ONE},
                 _west_walk("W2"), permstats.WEST_BOUND),
    "W3": Family(_west("W3"), _inv, _rec_W3(), {0: _ONE, 1: _ONE},
                 _west_walk("W3"), permstats.WEST_BOUND),
}

FAMILIES = tuple(FAMILY)
RECURSIVE_FAMILIES = tuple(f for f, fam in FAMILY.items() if fam.recursion)


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


def _brute_force(family: str, n: int) -> MultiPoly:
    """The family's polynomial from its objects, the weight computed on
    each object: the tests' reference for the walks."""
    fam = FAMILY[family]
    acc: dict[tuple, int] = {}
    for x, y, obj in fam.objects(n):
        q, z = fam.weight(obj)
        k = (x, y, q, z)
        acc[k] = acc.get(k, 0) + 1
    return MultiPoly(acc)


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
    return MultiPoly({(n - 2 * k, k, _c2(n) - k, ()): comb(n - k, k)
                      for k in range(n // 2 + 1)})


# -- identity catalog ---------------------------------------------------------


class Reading(NamedTuple):
    name: str
    build: Callable[..., tuple[MultiPoly, MultiPoly]]


class IdentityDef(NamedTuple):
    ident: str
    description: str
    arity: tuple[str, ...]
    start: int
    default_max: int
    readings: tuple[Reading, ...]
    notes: str = ""


class IdentityReport:
    __slots__ = ("ident", "range_checked", "instances", "counterexample",
                 "notes")

    def __init__(self, ident: str, range_checked: dict,
                 instances: list | None = None,
                 counterexample: dict | None = None, notes: str = ""):
        self.ident = ident
        self.range_checked = range_checked
        self.instances = [] if instances is None else instances
        self.counterexample = counterexample
        self.notes = notes

    def __repr__(self) -> str:
        return "IdentityReport(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"

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


def _l23(n: int):
    return qfib_oracle("I", n), lemma23_transform(qfib_oracle("I'", n), n)


def _l24(n: int):
    return qfib_oracle("M", n), lemma23_transform(qfib_oracle("M'", n), n)


def _t31(n: int):
    return qfib_oracle("M", n), qfib_oracle("RB", n)


def _t33(n: int):
    return qfib_oracle("M'", n), qfib_oracle("C", n)


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


def _build_catalog() -> tuple[IdentityDef, ...]:
    asis = "as-printed"
    return (
        IdentityDef("T2.1", "inversion-family recursion vs oracle", ("n",),
                    0, 12, (Reading(asis, _printed("I")),)),
        IdentityDef("T2.2", "major-index-family recursion vs oracle", ("n",),
                    0, 12, (Reading(asis, _printed("M")),)),
        IdentityDef("L2.3", "reversal transform between the inv families",
                    ("n",), 0, 12, (Reading(asis, _l23),)),
        IdentityDef("L2.4", "block-word transform between the maj families",
                    ("n",), 0, 12, (Reading(asis, _l24),)),
        IdentityDef("T3.1", "maj distribution equals rb distribution", ("n",),
                    0, 9, (Reading(asis, _t31),)),
        IdentityDef("T3.3", "layered maj distribution equals Morse weight",
                    ("n",), 0, 12, (Reading(asis, _t33),)),
        IdentityDef("T4.1", "two-index splitting of the inversion family",
                    ("m", "n"), 1, 14, (Reading(asis, _t41),)),
        IdentityDef("T4.3a", "marker shift x->xq, y->yq^2 scales by q^n",
                    ("n",), 0, 12, (Reading(asis, _t43a),)),
        IdentityDef("T4.3b", "q-content extraction at q=1", ("n",),
                    0, 12, (Reading(asis, _t43b),)),
        IdentityDef("CASSINI", "Cassini-like identity", ("n",), 1, 12,
                    (Reading("q*Fn^2", _cassini(False)),
                     Reading("(q*Fn)^2", _cassini(True))),
                    notes="The printed display has unbalanced parentheses; "
                          "both groupings are checked."),
        IdentityDef("T4.4", "split at the first doubleton", ("n",),
                    0, 12, (Reading(asis, _t44),)),
        IdentityDef("T4.5", "odd index split at the first singleton", ("n",),
                    0, 12, (Reading(asis, _t45),)),
        IdentityDef("T4.6", "even index split at the first singleton", ("n",),
                    0, 12,
                    (Reading(asis, _t46(lambda n: n * (n - 1))),
                     Reading("first-term-2n(n-1)",
                             _t46(lambda n: 2 * n * (n - 1)))),
                    notes="The printed all-doubleton term y^n q^{n(n-1)} "
                          "undercounts the doubled doubleton weight; the "
                          "closed form gives y^n q^{C(2n,2)-n} = y^n "
                          "q^{2n(n-1)}."),
        IdentityDef("T4.7", "product F_{n+1} F_n split by the first singleton",
                    ("n",), 0, 12, (Reading(asis, _t47),)),
        IdentityDef("T5.3", "cycle-count recursion from interleaved prefixes",
                    ("n",), 0, 10,
                    (Reading(asis, _printed("D", offset=2)),
                     Reading("dd-term-y2q",
                             _printed("D", _rec_D("D", dd_exp=1), 2)),
                     Reading("subscript-n+2-2k",
                             _printed("D", _rec_D("D", shift=2), 2)),
                     Reading("dd-term-y2q,subscript-n+2-2k",
                             _printed("D", _rec_D("D", 1, 2), 2))),
                    notes="Statement vs proof disagree on the dd prefix "
                          "coefficient, and the sum's subscript is off by "
                          "the prefix size; residual-led words (odd cycles) "
                          "are unaccounted for by every reading."),
        IdentityDef("T5.4", "cycle-type recursion from interleaved prefixes",
                    ("n",), 0, 10, (Reading(asis, _printed("D'", offset=2)),)),
        IdentityDef("T6.1", "gap-insertion recursion for S_n(123,2143)",
                    ("n",), 2, 10,
                    (Reading(asis, _printed("W1", offset=1)),
                     Reading("exponent-minus-C(k,2)",
                             _printed("W1", _rec_W1(-1), 1))),
                    notes="Indices follow the statement: instance n checks "
                          "F_2n (size n+1) against size-n data.  Both "
                          "exponent readings fail: members can have the new "
                          "largest value past the second gap without the "
                          "forced top-value prefix (e.g. 3142), and members "
                          "of that shape do not split off a free class tail "
                          "(tail values above the prefix minimum must "
                          "descend), so no reading of the printed shape can "
                          "match the class."),
        IdentityDef("T6.2", "gap-insertion recursion for S_n(132,3241)",
                    ("n",), 1, 10,
                    (Reading(asis, _printed("W2")),
                     Reading("proof-bounds-2..n-1",
                             _printed("W2", _rec_W2(2, 0, 1))),
                     Reading("derived-tail-size-n-k",
                             _printed("W2", _rec_W2(2, 0, 0)))),
                    notes="Instance 1 checks the printed base F_0 = 1.  The "
                          "printed subscript F_{2n-2k-4} undercounts the "
                          "interior-gap tail by one element."),
        IdentityDef("T6.3", "gap-insertion recursion for S_n(132,3412)",
                    ("n",), 1, 10,
                    (Reading(asis, _printed("W3")),
                     Reading("first-term-W3",
                             _printed("W3", _rec_W3("W3", 1, -1))),
                     Reading("derived-gap-indexed-sum",
                             _printed("W3", _rec_W3("W3", 2, 0)))),
                    notes="Instance 1 checks the printed base F_0 = 1.  The "
                          "printed first term references the W2 family; the "
                          "derived reading indexes the sum by the gap "
                          "position k = 2..n-1 with left part of size k-1."),
    )


_CATALOG: tuple[IdentityDef, ...] = _build_catalog()
_CATALOG_BY_ID = {d.ident: d for d in _CATALOG}

IDENTITY_IDS = tuple(d.ident for d in _CATALOG)


def identity_catalog() -> list[dict]:
    """Metadata for the 19 cataloged identities."""
    return [
        {
            "id": d.ident,
            "description": d.description,
            "arity": list(d.arity),
            "start": d.start,
            "default_max": d.default_max,
            "readings": [r.name for r in d.readings],
        }
        for d in _CATALOG
    ]


def _instances(defn: IdentityDef, max_n: int | None,
               max_m: int | None) -> list[tuple[int, ...]]:
    if defn.arity == ("m", "n"):
        cap = defn.default_max if max_n is None else max_n
        out = []
        for total in range(2, cap + 1):
            for m in range(1, total):
                n = total - m
                if max_m is not None and m > max_m:
                    continue
                out.append((m, n))
        return out
    hi = defn.default_max if max_n is None else max_n
    return [(n,) for n in range(defn.start, hi + 1)]


def _adjudicate(defn: IdentityDef, indices: tuple[int, ...]):
    """The first reading under which the instance holds, or None and the
    sides that every reading built when all of them fail."""
    sides = {}
    for reading in defn.readings:
        lhs, rhs = sides[reading.name] = reading.build(*indices)
        if lhs == rhs:
            return reading.name, None
    return None, sides


def verify_identity(ident: str, max_n: int | None = None,
                    max_m: int | None = None) -> IdentityReport:
    """Check every cataloged reading of an identity on its index range.

    An instance holds when at least one reading agrees exactly with the
    oracle-built sides; the first reading that does is recorded.  The
    smallest instance where every reading fails becomes the report's
    counterexample, carrying both polynomials of the as-printed reading.
    A range that holds no instance raises ValueError.
    """
    if ident not in _CATALOG_BY_ID:
        raise ValueError(f"unknown identity {ident!r}; valid ids: "
                         f"{', '.join(IDENTITY_IDS)}")
    defn = _CATALOG_BY_ID[ident]
    instances = _instances(defn, max_n, max_m)
    if not instances:
        # a report with nothing checked would read as a success
        first = _instances(defn, None, None)[0]
        raise ValueError(f"identity {ident} has no instance in this range; "
                         "its first instance is " + ", ".join(
                             f"{i} = {v}" for i, v in zip(defn.arity, first)))
    # largest first, so that one oracle walk serves every smaller instance;
    # the last failure met is then the smallest
    used_by, failure = {}, None
    for indices in reversed(instances):
        used_by[indices], sides = _adjudicate(defn, indices)
        if sides:
            failure = indices, sides
    range_checked = {"arity": list(defn.arity), "start": defn.start,
                     "max": defn.default_max if max_n is None else max_n}
    if max_m is not None and "m" in defn.arity:
        range_checked["max_m"] = max_m
    report = IdentityReport(
        ident=ident,
        range_checked=range_checked,
        instances=[{"indices": dict(zip(defn.arity, indices)),
                    "verdict": "holds" if used_by[indices] else "fails",
                    "reading": used_by[indices]} for indices in instances],
        notes=defn.notes,
    )
    if failure:
        indices, sides = failure
        lhs, rhs = sides[defn.readings[0].name]
        report.counterexample = {
            "indices": dict(zip(defn.arity, indices)),
            "lhs": lhs.canonical_text(),
            "rhs": rhs.canonical_text(),
            "rhs_by_reading": {name: r.canonical_text()
                               for name, (_, r) in sides.items()},
        }
    return report


def verify_all(max_n: int | None = None,
               max_m: int | None = None) -> list[IdentityReport]:
    """Reports for the whole catalog, in catalog order."""
    return [verify_identity(ident, max_n=max_n, max_m=max_m)
            for ident in IDENTITY_IDS]
