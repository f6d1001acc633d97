"""q-Fibonacci families: oracles vs recursions vs closed form, evaluation
counts, and the identity verifier's adjudication behavior."""

import hashlib
import marshal
import math
import os
import signal
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfibonacci import blockwords, partitions, permstats, qfib
from qfibonacci.permstats import BoundExceeded
from qfibonacci.polyring import MultiPoly, q_pow


WORD_FAMILIES = ("I", "I'", "M", "M'", "RB", "C", "D", "D'")
WEST_FAMILIES = ("W1", "W2", "W3")
# the two sizes from which each word walk is split
SPLIT_SIZES = [(f, n) for f in WORD_FAMILIES for n in (22, 23)]


X, Q = MultiPoly.term(1, x=1), q_pow(1)


def P(text):
    return MultiPoly.parse(text)


# The brute-force reference for the walks, (members, weight) per family:
# members(n) yields (x exponent, y exponent, member) for every member of the
# class at size n, and weight(member) is its (q exponent, z exponents).


def words(orientation=None):
    """Block words of size n, as their (reverse) layered matching, or as
    words when orientation is None."""
    def members(n):
        for w in blockwords.iter_words(n):
            yield w.count("S"), w.count("D"), (
                w if orientation is None
                else permstats.perm_from_word(w, orientation))
    return members


def layered_matchings(n):
    for alpha in partitions.enumerate_layered_matchings(n):
        yield (*partitions.singleton_doubleton_counts(alpha), alpha)


def west(wclass):
    return lambda n: ((0, 0, p) for p in permstats.west_class(n, wclass))


def on_q(statistic):
    return lambda member: (statistic(member), ())


def cycle_type(p):
    return 0, tuple(permstats.cycle_decomposition(p).length_counts().items())


REV, LAY = words("reverse-layered"), words("layered")
INV = on_q(permstats.inv)
REFERENCE = {
    "I": (REV, INV), "I'": (LAY, INV),
    "M": (REV, on_q(permstats.maj)), "M'": (LAY, on_q(permstats.maj)),
    "RB": (layered_matchings, on_q(partitions.rb)),
    "C": (words(), on_q(blockwords.morse_weight)),
    "D": (REV, on_q(lambda p: permstats.cycle_decomposition(p).cycle_count)),
    "D'": (REV, cycle_type),
    "W1": (west("W1"), INV), "W2": (west("W2"), INV), "W3": (west("W3"), INV),
}


def reference(family, n):
    """The family's polynomial at size n, member by member."""
    members, weight = REFERENCE[family]
    return MultiPoly(Counter((x, y, *weight(member))
                             for x, y, member in members(n)))


class TestOracle:
    def test_inversion_family_examples(self):
        assert qfib.qfib_oracle("I", 4) == P("x^4*q^6 + 3*x^2*y*q^5 + y^2*q^4")
        assert qfib.qfib_oracle("I", 0) == MultiPoly.one()

    def test_cycle_family_example(self):
        assert qfib.qfib_oracle("D", 3) == P("x^3*q^2 + 2*x*y*q")

    def test_cycle_type_family(self):
        assert qfib.qfib_oracle("D'", 3) == P("x^3*z1*z2 + 2*x*y*z3")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            qfib.qfib_oracle("Q", 3)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            qfib.qfib_oracle("I", 40)
        with pytest.raises(BoundExceeded):
            qfib.qfib_oracle("W1", 13)

    def test_counts_at_one(self):
        for fam in WORD_FAMILIES:
            for n in range(23):
                assert qfib.qfib_oracle(fam, n).evaluate() == qfib.fibonacci(n)
        for fam in ("W1", "W2", "W3"):
            for n in range(1, 8):
                assert (qfib.qfib_oracle(fam, n).evaluate(q=1)
                        == qfib.fibonacci(2 * n - 2))
        with pytest.raises(ValueError):
            qfib.fibonacci(-1)

    def test_z_collapse_recovers_cycle_count(self):
        for n in range(9):
            dz = qfib.qfib_oracle("D'", n).substitute({"z": Q})
            assert dz == qfib.qfib_oracle("D", n)


class TestWalk:
    def test_every_family_walks(self):
        assert all(callable(fam.walk) for fam in qfib.FAMILY.values())
        assert set(qfib.FAMILY) == {*WORD_FAMILIES, *WEST_FAMILIES}
        # no family skips its reference
        assert set(REFERENCE) == set(qfib.FAMILY)

    def test_one_walk_serves_every_size(self, monkeypatch):
        # every family tallies every depth of one walk, alone and split,
        # from every cut: at 0 the root is the one root, past n there is
        # none, and between them a doubleton carries word nodes past it and
        # West nodes carry their sites and p; the references are built
        # before any walk is forced to split
        cases = [(fam, top, [reference(fam, n)
                             for n in range(top + 1)])
                 for fams, top in ((WORD_FAMILIES, 16), (WEST_FAMILIES, 10))
                 for fam in fams]
        monkeypatch.setattr(permstats, "SPLIT_FROM", 0)
        forks = count_forks(monkeypatch)
        for fam, top, want in cases:
            for cut in (0, 1, 5, 9, top, top + 1):
                # split at SPLIT_CUT, alone at top - SERIAL_DEPTH
                monkeypatch.setattr(permstats, "SPLIT_CUT", cut)
                monkeypatch.setattr(permstats, "SERIAL_DEPTH", top - cut)
                for cpus in ((0,), (0, 1)):
                    set_cpus(monkeypatch, cpus)
                    polys = qfib.FAMILY[fam].walk(top)
                    assert list(polys) == list(range(top + 1)), (fam, cut,
                                                                  cpus)
                    assert list(polys.values()) == want, (fam, cut, cpus)
        # every cut but top + 1 leaves roots to share, and every walk with
        # them splits but those whose roots need more than split_walk's
        # 1,024 tickets: a word walk cut at top (F_16 = 1,597 roots), and a
        # West walk cut at 9 (F_16) or at top (F_18 = 4,181)
        assert len(forks) == (5 * len(cases) - len(WORD_FAMILIES)
                              - 2 * len(WEST_FAMILIES))
        assert_no_child()

    def test_fold_table_from_the_ladder(self):
        # _FOLD rebuilt from the ladder graph of every folded node up to
        # size 9 and of its children, by union-find
        table = {}
        for left, right in fold_nodes(9):
            comps, fixed, pending = ladder(left, right)
            h, k = fold_state(comps, pending)
            done = {c for c in comps if not c & pending}
            kids = [(0, *ladder(left, right, middle=True))]
            a, b = sum(left), sum(right)
            for s in (1, 2):
                if a + b + s <= 9:
                    kid = ((left + (s,), right) if a <= b
                           else (left, right + (s,)))
                    kids.append((s, *ladder(*kid)))
            for s, kid_comps, kid_fixed, kid_pending in kids:
                to, kid_k = fold_state(kid_comps, kid_pending)
                closed = [c for c in kid_comps
                          if not c & kid_pending and c not in done]
                if h == 1 and to != 1:
                    # the open path closes, through a fixed point
                    path, = [c for c in closed if pending <= c]
                    assert path & kid_fixed
                    closed.remove(path)
                    grow = len(path) - k
                else:
                    grow = kid_k - k
                lengths = tuple(sorted(
                    n for c in closed for n in ((len(c),) if c & kid_fixed
                                                else (len(c) // 2,) * 2)))
                entry = (to, grow, lengths)
                assert table.setdefault((h, s), entry) == entry, (h, s)
        assert table == qfib._FOLD

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="SD", min_size=20, max_size=60))
    def test_fold_equals_cycle_decomposition(self, word):
        # single words far past STRUCTURAL_BOUND, through the steps of the
        # folded walk
        cycles = permstats.cycle_decomposition(
            permstats.perm_from_word(word, "reverse-layered"))
        assert qfib._fold(word, qfib._count_marks) == (cycles.cycle_count, ())
        assert qfib._fold(word, qfib._type_marks) == (
            0, tuple(sorted(cycles.length_counts().items())))

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="SD", min_size=20, max_size=60))
    def test_walked_step_along_one_word(self, word):
        # single words far past STRUCTURAL_BOUND, through the steps of the
        # order-invariant walks: the key of the last node against the
        # statistic of the word's own object, and every node's aux against
        # the values placed so far (the root's, n + 1, above them all)
        rev = permstats.perm_from_word(word, "reverse-layered")
        lay = permstats.perm_from_word(word, "layered")
        objects = {"I": rev, "I'": lay, "M": rev, "M'": lay,
                   "RB": partitions.partition_from_word(word), "C": word}
        layout = permstats.word_layers(word)
        n = sum(size for _, size in layout)
        for fam, obj in objects.items():
            path = qfib._walked_path(word, fam)
            q, _ = REFERENCE[fam][1](obj)
            assert divmod(path[-1][0], 1 << 16) == (word.count("D"), q), fam
            if fam == "C":
                assert {len(node) for node in path} == {1}
                continue
            placed = (obj if fam != "RB" else
                      [v for block in obj for v in block])
            # I, I' and RB carry the least placed value, M and M' the last
            aux = [n + 1] + [min(placed[:left + size])
                             if fam in ("I", "I'", "RB")
                             else placed[left + size - 1]
                             for left, size in layout]
            assert [a for _, a in path] == aux, fam

    def test_west_walk_serves_every_size(self):
        # one walk down the generating tree tallies every depth; the class
        # sizes F_{2m-2} also catch a fault of permstats.west_walk, which
        # west_class and so the reference also run
        for fam in WEST_FAMILIES:
            polys = qfib.FAMILY[fam].walk(11)
            assert list(polys) == list(range(12)), fam
            for m in range(12):
                assert polys[m] == reference(fam, m), (fam, m)
                assert polys[m].evaluate(q=1) == (
                    qfib.fibonacci(2 * m - 2) if m else 1), (fam, m)

    def test_west_walk_from_every_top_size(self):
        # the deepest level of a walk grows no sites: each walk stops at its
        # own n, and every size it tallies on the way is the same
        for fam in WEST_FAMILIES:
            walk = qfib.FAMILY[fam].walk
            want = [reference(fam, n) for n in range(11)]
            for n in range(11):
                polys = walk(n)
                assert list(polys) == list(range(n + 1)), (fam, n)
                assert list(polys.values()) == want[:n + 1], (fam, n)

    def test_west_walk_equals_filter(self):
        # the filter shares nothing with the walk; the reference does, as
        # west_class sorts the nodes of the walk's own west_walk
        for fam in WEST_FAMILIES:
            pats = permstats.WEST_PATTERNS[fam]
            polys = qfib.FAMILY[fam].walk(7)
            for n in range(8):
                tally = {}
                for p in permstats.enumerate_avoiders(n, pats):
                    q = permstats.inv(p)
                    tally[q] = tally.get(q, 0) + 1
                want = sum((c * q_pow(q) for q, c in tally.items()),
                           MultiPoly.zero())
                assert polys[n] == want, (fam, n)

    def test_walk_equals_brute_force(self):
        # the folded walks of D and D', from every top size: each stops
        # at its own n, and every size it tallies on the way is the same
        for fam in ("D", "D'"):
            walk = qfib.FAMILY[fam].walk
            want = [reference(fam, n) for n in range(17)]
            for n in range(17):
                polys = walk(n)
                assert list(polys) == list(range(n + 1)), (fam, n)
                assert list(polys.values()) == want[:n + 1], (fam, n)

    def test_oracle_walks_once_for_every_smaller_size(self, monkeypatch):
        walked = []
        fam = qfib.FAMILY["I"]

        def counted(n):
            walked.append(fam.walk(n))
            return walked[-1]
        monkeypatch.setattr(qfib, "_oracle_cache", {})
        monkeypatch.setitem(qfib.FAMILY, "I", fam._replace(walk=counted))
        qfib.qfib_oracle("I", 5)
        top = qfib.qfib_oracle("I", 12)
        assert [sorted(w) for w in walked] == [list(range(6)),
                                               list(range(13))]
        assert top is walked[1][12]
        # sizes 0..11 are cache hits, and the entries of the first walk
        # are kept
        for n in range(12):
            assert qfib.qfib_oracle("I", n) is walked[n > 5][n]
        assert len(walked) == 2


def fold_nodes(size):
    """The (left, right) letter sizes of every node of the folded walk up
    to size: the end with fewer positions takes the next letter, the left
    end on a tie."""
    nodes, todo = [], [((), ())]
    while todo:
        left, right = todo.pop()
        nodes.append((left, right))
        a, b = sum(left), sum(right)
        todo += [(left + (s,), right) if a <= b else (left, right + (s,))
                 for s in (1, 2) if a + b + s <= size]
    return nodes


def ladder(left, right, middle=False):
    """The components of a folded node's ladder, its fixed points and the
    positions of its overhang.  ("L", i) and ("R", i) are the i-th
    positions from each end.  Rails join the two positions of a doubleton,
    rungs the i-th positions of the two ends; with middle, R fixes the one
    position of the overhang or joins its two."""
    parent = {}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    def join(u, v):
        parent[find(u)] = find(v)
    fixed = set()
    for end, sizes in (("L", left), ("R", right)):
        i = 0
        for s in sizes:
            parent.update({(end, i + 1): (end, i + 1),
                           (end, i + s): (end, i + s)})
            if s == 1:
                fixed.add((end, i + 1))
            else:
                join((end, i + 1), (end, i + 2))
            i += s
    a, b = sum(left), sum(right)
    for i in range(1, min(a, b) + 1):
        join(("L", i), ("R", i))
    pending = {("L" if a > b else "R", i)
               for i in range(min(a, b) + 1, max(a, b) + 1)}
    if middle and len(pending) == 1:
        fixed |= pending
    elif middle and len(pending) == 2:
        join(*pending)
    comps = {}
    for v in parent:
        comps.setdefault(find(v), set()).add(v)
    return ([frozenset(c) for c in comps.values()], fixed,
            set() if middle else pending)


def fold_state(comps, pending):
    """(overhang, k): k counts the positions of the open path when the
    overhang is one position, and is 0 otherwise."""
    if len(pending) != 1:
        return len(pending), 0
    return 1, len(next(c for c in comps if c & pending))


def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def count_forks(monkeypatch):
    """The pids of the children forked from now on."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return forks


def record_descents(monkeypatch):
    """(stop, node, returned nodes) for each descend that split_walk runs in
    this process from now on, in order."""
    calls, split_walk = [], permstats.split_walk

    def recorded(descend, root, n, cut, big):
        def run(node, stop, tallies):
            frontier = descend(node, stop, tallies)
            calls.append((stop, node, frontier))
            return frontier
        return split_walk(run, root, n, cut, big)
    monkeypatch.setattr(permstats, "split_walk", recorded)
    return calls


def record_drawn(monkeypatch):
    """The tickets that this process draws from now on, in order."""
    tickets, drawn = [], permstats._drawn

    def recorded(descend, roots, n, pipe, tallies):
        mine = drawn(descend, roots, n, pipe, tallies)
        tickets.extend(mine)
        return mine
    monkeypatch.setattr(permstats, "_drawn", recorded)
    return tickets


def deep_walks(calls, cut, n):
    """The indices, among the roots that the first recorded descend
    returned, of the roots that the later descends walked; the first
    descend stops at cut and every later one at n + 1."""
    assert [stop for stop, _, _ in calls] == [cut] + [n + 1] * (len(calls) - 1)
    index = {id(root): k for k, root in enumerate(calls[0][2])}
    return [index[id(node)] for _, node, _ in calls[1:]]


def word_descend(n):
    """A toy descend for split_walk: S/D words of size up to n, S of size 1
    and D of size 2, each counted by its number of D."""
    def descend(word, stop, tallies):
        d = word.count("D")
        size = len(word) + d
        if size >= stop:
            return [word]
        tallies[size][d] = tallies[size].get(d, 0) + 1
        return [root for letter, step in (("S", 1), ("D", 2))
                if size + step <= n
                for root in descend(word + letter, stop, tallies)]
    return descend


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitWalk:
    @pytest.mark.parametrize("family, n", SPLIT_SIZES)
    def test_split_equals_serial(self, monkeypatch, family, n):
        walk = qfib.FAMILY[family].walk
        forks = count_forks(monkeypatch)
        calls = record_descents(monkeypatch)
        drawn = record_drawn(monkeypatch)
        set_cpus(monkeypatch, (0, 1))
        split = walk(n)
        # the roots, then the parent's share and no fallback walk, so the
        # child took the rest
        assert len(calls[0][2]) == 89 and len(forks) == 1
        assert deep_walks(calls, permstats.SPLIT_CUT, n) == drawn
        calls.clear()
        set_cpus(monkeypatch, (0,))
        assert walk(n) == split
        # alone, the cut at n - SERIAL_DEPTH, then each root's subtree in
        # turn
        cut = n - permstats.SERIAL_DEPTH
        roots = qfib.fibonacci(cut + 1)
        assert deep_walks(calls, cut, n) == list(range(roots))
        assert len(forks) == 1
        assert_no_child()

    @pytest.mark.parametrize("family, n, cpus", [
        ("I", 21, (0, 1)), ("W1", 9, (0, 1)), ("I", 22, (0,)),
        ("W1", 10, (0,)), ("I", 22, None), ("W1", 10, None),
        ("W3", 12, (0, 1))])
    def test_serial_walks_never_fork(self, monkeypatch, family, n, cpus):
        # below the split sizes, on one CPU, without sched_getaffinity, and
        # the West walks at any size
        def fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", fork)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            set_cpus(monkeypatch, cpus)
        assert list(qfib.FAMILY[family].walk(n)) == list(range(n + 1))

    @pytest.mark.parametrize("family, n", [("M", 22)])
    def test_failed_child_leaves_the_result(self, monkeypatch, family, n):
        # the child inherits the refusing marshal and exits nonzero, and the
        # parent walks the roots it had not taken
        walk = qfib.FAMILY[family].walk
        set_cpus(monkeypatch, (0,))
        serial = walk(n)

        def refuse(value):
            raise ValueError("refused")
        monkeypatch.setattr(permstats, "marshal", SimpleNamespace(
            dumps=refuse, loads=marshal.loads))
        forks = count_forks(monkeypatch)
        calls = record_descents(monkeypatch)
        set_cpus(monkeypatch, (0, 1))
        assert walk(n) == serial
        assert len(forks) == 1
        assert sorted(deep_walks(calls, permstats.SPLIT_CUT, n)) == list(
            range(89))
        assert_no_child()

    def test_toy_descend_counts_words(self):
        tallies = [{} for _ in range(13)]
        assert word_descend(12)("", 13, tallies) == []
        assert tallies == [{d: math.comb(m - d, d) for d in range(m // 2 + 1)}
                           for m in range(13)]

    @pytest.mark.parametrize("cut, forked", [(0, 1), (5, 1), (14, 0)])
    def test_toy_split_equals_alone(self, monkeypatch, cut, forked):
        # cut 0 makes the root the one root, and past n there is none
        n = 12
        set_cpus(monkeypatch, (0,))
        alone = permstats.split_walk(word_descend(n), "", n, cut, True)
        forks = count_forks(monkeypatch)
        set_cpus(monkeypatch, (0, 1))
        assert permstats.split_walk(word_descend(n), "", n, cut,
                                    True) == alone
        assert len(forks) == forked
        assert_no_child()

    def test_more_roots_than_tickets_walk_alone(self, monkeypatch):
        # 28,657 roots would write 114,628 bytes of tickets before the fork,
        # more than a 64 KiB pipe holds, and block that write for good; the
        # alarm turns such a hang into a failure
        n, cut = 22, 21
        set_cpus(monkeypatch, (0,))
        alone = permstats.split_walk(word_descend(n), "", n, cut, True)
        forks = count_forks(monkeypatch)
        set_cpus(monkeypatch, (0, 1))

        def hang(signum, frame):
            raise TimeoutError("split_walk blocked")
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(20)
        try:
            split = permstats.split_walk(word_descend(n), "", n, cut, True)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert split == alone
        assert forks == []
        assert_no_child()

    def test_short_count_walks_the_rest(self, monkeypatch):
        # the child drops a ticket unwalked, draws every other one and exits
        # 0 before the parent draws, so its count is short, and the parent
        # walks every root, none of which it drew
        n, cut = 16, 4
        alone = permstats.split_walk(word_descend(n), "", n, cut, False)
        parent, drawn = os.getpid(), permstats._drawn

        def lossy(descend, roots, n, tickets, tallies):
            if os.getpid() == parent:
                # wait for the child's exit, leaving it to split_walk to reap
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            else:
                tickets.read(4)
            return drawn(descend, roots, n, tickets, tallies)
        monkeypatch.setattr(permstats, "_drawn", lossy)
        calls = record_descents(monkeypatch)
        set_cpus(monkeypatch, (0, 1))
        assert permstats.split_walk(word_descend(n), "", n, cut,
                                    True) == alone
        assert deep_walks(calls, cut, n) == list(range(len(calls[0][2])))
        assert_no_child()

    def test_fork_failure_walks_every_root_here(self, monkeypatch):
        n, cut = 12, 5
        alone = permstats.split_walk(word_descend(n), "", n, cut, False)

        def fork():
            raise OSError("no fork")
        monkeypatch.setattr(os, "fork", fork)
        calls = record_descents(monkeypatch)
        set_cpus(monkeypatch, (0, 1))
        assert permstats.split_walk(word_descend(n), "", n, cut,
                                    True) == alone
        assert deep_walks(calls, cut, n) == list(range(len(calls[0][2])))
        assert_no_child()


class TestRecursive:
    def test_examples(self):
        assert qfib.qfib_recursive("I", 2) == P("x^2*q + y")
        assert qfib.qfib_recursive("M", 3) == P("x^3*q^3 + x*y*q^2 + x*y*q")
        assert qfib.qfib_recursive("C", 1) == P("x")

    def test_matches_oracle_where_the_recursion_is_sound(self):
        for fam in ("I", "M", "C"):
            for n in range(10):
                assert qfib.qfib_recursive(fam, n) == qfib.qfib_oracle(fam, n)

    def test_primed_families_via_transform(self):
        for fam in ("I'", "M'"):
            for n in range(10):
                assert qfib.qfib_recursive(fam, n) == qfib.qfib_oracle(fam, n)

    def test_d_recursion_is_the_printed_typo_bearing_formula(self):
        # the printed formula misses residual-led words (odd cycles), so the
        # self-fed recursion agrees with the oracle only at the bases
        assert qfib.qfib_recursive("D", 0) == qfib.qfib_oracle("D", 0)
        assert qfib.qfib_recursive("D", 1) == qfib.qfib_oracle("D", 1)
        for n in range(2, 7):
            assert qfib.qfib_recursive("D", n) != qfib.qfib_oracle("D", n)

    def test_d_prime_renders_canonically(self):
        p = qfib.qfib_recursive("D'", 12)
        assert p.canonical_text().startswith(
            "x^12*z2^6 + 10*x^10*y*z2^4*z4 + 5*x^8*y^2*z2^6 + ")
        assert p.canonical_text(latex=True).startswith(
            "x^{12} z_{2}^{6} + 10 x^{10} y z_{2}^{4} z_{4} + "
            "5 x^{8} y^{2} z_{2}^{6} + ")
        for n in range(31):
            p = qfib.qfib_recursive("D'", n)
            assert MultiPoly.parse(p.canonical_text()) == p

    def test_no_recursion_for_rb(self):
        with pytest.raises(ValueError):
            qfib.qfib_recursive("RB", 3)
        with pytest.raises(ValueError, match="unknown family"):
            qfib.qfib_recursive("Z", 3)

    def test_zero_below_size_zero(self):
        assert qfib.qfib_recursive("W2", -1) == MultiPoly.zero()

    def test_large_index_runs_bottom_up(self):
        # past the interpreter's recursion limit if evaluated top-down
        assert qfib.qfib_recursive("I", 1100) == qfib.closed_form_I(1100)


class TestClosedForm:
    def test_examples(self):
        assert qfib.closed_form_I(4) == P("x^4*q^6 + 3*x^2*y*q^5 + y^2*q^4")
        assert qfib.closed_form_I(0) == MultiPoly.one()
        assert qfib.closed_form_I(1) == P("x")

    def test_matches_oracle(self):
        for n in range(11):
            assert qfib.closed_form_I(n) == qfib.qfib_oracle("I", n)

    def test_negative_size(self):
        # refused as the oracle and fibonacci refuse it, not read as zero
        for n in (-1, -4):
            with pytest.raises(ValueError, match="nonnegative"):
                qfib.closed_form_I(n)


class TestHeldAtBound:
    def test_every_oracle_to_its_bound(self, monkeypatch):
        # Each family's bound is read from FAMILY, so the test grows with
        # it, and each oracle is held at every size up to it to a path that
        # shares nothing with its walk.  D and D' have no sound printed
        # recursion (T5.3 and T5.4 fail under every reading) and share
        # _fold: at the bound they are held only to the counts and to each
        # other.
        monkeypatch.setattr(qfib, "_oracle_cache", {})
        at = {}
        for family, fam in qfib.FAMILY.items():
            qfib.qfib_oracle(family, fam.bound)    # one walk fills every size
            at[family] = [qfib.qfib_oracle(family, n)
                          for n in range(fam.bound + 1)]

        def sizes(*families):
            return range(min(qfib.FAMILY[f].bound for f in families) + 1)

        for n in sizes("I"):
            assert at["I"][n] == qfib.closed_form_I(n), n
        # I' and M' come from the recursions for I and M through Lemma 2.3
        for family in ("I", "M", "C", "I'", "M'"):
            for n in sizes(family):
                assert at[family][n] == qfib.qfib_recursive(family, n), (
                    family, n)
        for a, b in (("M'", "C"), ("M", "RB")):    # T3.3 and T3.1
            for n in sizes(a, b):
                assert at[a][n] == at[b][n], (a, b, n)
        for n in sizes("D", "D'"):
            assert at["D'"][n].substitute({"z": Q}) == at["D"][n], n
        for family in WORD_FAMILIES:
            for n in sizes(family):
                assert at[family][n].evaluate() == qfib.fibonacci(n), (
                    family, n)
        for family in WEST_FAMILIES:
            for n in range(1, qfib.FAMILY[family].bound + 1):
                assert (at[family][n].evaluate(q=1)
                        == qfib.fibonacci(2 * n - 2)), (family, n)
        for ident, reading, family in (
                ("T6.2", "derived-tail-size-n-k", "W2"),
                ("T6.3", "derived-gap-indexed-sum", "W3")):
            build = qfib._CATALOG[ident].readings[reading]
            for n in sizes(family):
                lhs, rhs = build(n)
                assert lhs is at[family][n] and lhs == rhs, (ident, n)


class TestCatalog:
    def test_size_and_ids(self):
        cat = qfib.identity_catalog()
        assert len(cat) == 19
        assert [c["id"] for c in cat] == list(qfib.IDENTITY_IDS)
        assert set(qfib.IDENTITY_IDS) == {
            "T2.1", "T2.2", "L2.3", "L2.4", "T3.1", "T3.3", "T4.1", "T4.3a",
            "T4.3b", "CASSINI", "T4.4", "T4.5", "T4.6", "T4.7", "T5.3",
            "T5.4", "T6.1", "T6.2", "T6.3"}

    def test_t41_arity(self):
        entry = next(c for c in qfib.identity_catalog() if c["id"] == "T4.1")
        assert entry["arity"] == ["m", "n"]
        assert entry["start"] == 1

    def test_variant_readings_present(self):
        readings = {c["id"]: c["readings"] for c in qfib.identity_catalog()}
        assert readings["CASSINI"] == ["q*Fn^2", "(q*Fn)^2"]
        assert len(readings["T5.3"]) == 4
        assert len(readings["T6.1"]) == 2
        assert len(readings["T6.2"]) == 3
        assert len(readings["T6.3"]) == 3
        assert len(readings["T4.6"]) == 2


class TestVerifier:
    def test_unknown_id(self):
        with pytest.raises(ValueError) as info:
            qfib.verify_identity("T4.2")
        assert str(info.value).startswith("unknown identity 'T4.2'")

    @pytest.mark.parametrize("ident, max_n, max_m, first", [
        ("T4.1", None, 0, "m = 1, n = 1"),
        ("T4.1", 1, None, "m = 1, n = 1"),
        ("T6.1", 1, None, "n = 2")])
    def test_empty_range_refused(self, ident, max_n, max_m, first):
        # a report that checked nothing would read as holding
        with pytest.raises(ValueError) as info:
            qfib.verify_identity(ident, max_n=max_n, max_m=max_m)
        assert str(info.value) == (f"identity {ident} has no instance in "
                                   f"this range; its first instance is {first}")

    def test_t43a_holds_everywhere(self):
        report = qfib.verify_identity("T4.3a", max_n=10)
        assert report.holds
        assert len(report.instances) == 11
        assert all(i["verdict"] == "holds" for i in report.instances)

    def test_t41_small_instance(self):
        report = qfib.verify_identity("T4.1", max_n=4)
        assert report.holds
        assert report.instances[0]["indices"] == {"m": 1, "n": 1}

    def test_cassini_reading_reported(self):
        report = qfib.verify_identity("CASSINI", max_n=6)
        assert report.holds
        assert all(i["reading"] == "q*Fn^2" for i in report.instances)

    def test_t46_adjudication(self):
        report = qfib.verify_identity("T4.6", max_n=6)
        assert report.holds
        by_n = {i["indices"]["n"]: i["reading"] for i in report.instances}
        assert by_n[0] == by_n[1] == "as-printed"
        assert all(by_n[n] == "first-term-2n(n-1)" for n in range(2, 7))

    def test_t53_counterexample(self):
        report = qfib.verify_identity("T5.3", max_n=4)
        assert not report.holds
        assert report.counterexample["indices"] == {"n": 0}
        assert report.counterexample["lhs"] == "y*q^2 + x^2*q"
        assert report.counterexample["rhs"] == "x^2*q"
        assert set(report.counterexample["rhs_by_reading"]) == {
            "as-printed", "dd-term-y2q", "subscript-n+2-2k",
            "dd-term-y2q,subscript-n+2-2k"}

    def test_t61_counterexample(self):
        report = qfib.verify_identity("T6.1", max_n=4)
        assert not report.holds
        assert report.counterexample["indices"] == {"n": 2}
        assert report.counterexample["lhs"] == "q^3 + 2*q^2 + 2*q"

    def test_t62_t63_hold_via_derived_readings(self):
        for ident, derived in (("T6.2", "derived-tail-size-n-k"),
                               ("T6.3", "derived-gap-indexed-sum")):
            report = qfib.verify_identity(ident, max_n=8)
            assert report.holds
            late = [i for i in report.instances if i["indices"]["n"] >= 5]
            assert late and all(i["reading"] == derived for i in late)

    def test_largest_instance_first_reported_ascending(self, monkeypatch):
        built = []

        def build(n):
            built.append(n)
            return MultiPoly.one(), MultiPoly.one() if n % 2 == 0 else X
        defn = qfib.IdentityDef("toy", ("n",), 2, 7, {"as-printed": build})
        monkeypatch.setitem(qfib._CATALOG, "T", defn)
        report = qfib.verify_identity("T")
        assert built == [7, 6, 5, 4, 3, 2]
        assert [i["indices"]["n"] for i in report.instances] == list(
            range(2, 8))
        assert [i["verdict"] for i in report.instances] == [
            "holds", "fails"] * 3
        assert report.counterexample["indices"] == {"n": 3}
        assert report.counterexample["rhs"] == "x"

    @pytest.mark.parametrize("ident, digest", [
        ("T5.3", "35b44090cf966a3b451099a3d1abc46a"
                 "68bde9668c715f20340d8cb656788ea0"),
        ("T5.4", "2f5a5c4bd659ba1a9595d137fc53e542"
                 "7acc79a1d3d49618b7a39dcff70f550e")])
    def test_cycle_reports_unchanged(self, ident, digest):
        # the SHA-256 of the default-range reports built ascending with the
        # cycle oracles decomposing every permutation
        text = qfib.verify_identity(ident).to_json_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_deterministic_reports(self):
        a = qfib.verify_identity("T6.2", max_n=7).to_json_text()
        b = qfib.verify_identity("T6.2", max_n=7).to_json_text()
        assert a == b

    def test_report_json_schema(self):
        rep = qfib.verify_identity("T5.4", max_n=3).to_json()
        assert rep["id"] == "T5.4"
        assert {"indices", "verdict", "reading"} <= set(rep["instances"][0])
        assert rep["counterexample"] is None or \
            {"indices", "lhs", "rhs"} <= set(rep["counterexample"])


class TestValueTypes:
    @pytest.mark.parametrize("value", [
        permstats.cycle_decomposition((2, 1)),
        blockwords.classify_prefix("DSSD"),
        qfib.IdentityDef("toy", ("n",), 0, 1, {}),
        qfib.IdentityReport("T", {}, []),
    ])
    def test_immutable(self, value):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], value[0])
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_reports_own_their_instances(self):
        a = qfib.verify_identity("T2.1", max_n=2)
        b = qfib.verify_identity("T2.1", max_n=2)
        # reports compare by value; they hold dicts, so they do not hash
        assert a == b and a is not b
        with pytest.raises(TypeError):
            hash(a)
        a.instances.append({"verdict": "fails"})
        assert (a.holds, b.holds, len(b.instances)) == (False, True, 3)
        assert qfib.IdentityReport("A", {}, []).holds
        with pytest.raises(AttributeError):
            a.extra = 1


def _use(p):
    """Everything a caller can do with a returned polynomial."""
    for r in (p + X, 1 + p, p - p, 2 - p, -p, p * Q, 3 * p, p * p, p ** 2,
              p.substitute({"q": q_pow(-1)}), p.substitute({"z": 1, "x": Q})):
        r + p
    p += X
    p -= Q
    p *= p


class TestCacheSafety:
    """What a caller does with a returned value never changes a later
    result."""

    @given(st.sampled_from(qfib.FAMILIES), st.integers(0, 8))
    @settings(deadline=None, max_examples=40)
    def test_oracle(self, family, n):
        before = qfib.qfib_oracle(family, n).canonical_text()
        _use(qfib.qfib_oracle(family, n))
        assert qfib.qfib_oracle(family, n).canonical_text() == before
        assert qfib.qfib_oracle(family, n) == reference(family, n)

    @given(st.sampled_from(qfib.RECURSIVE_FAMILIES), st.integers(0, 12))
    @settings(deadline=None, max_examples=40)
    def test_recursive(self, family, n):
        # bases are shared between sizes and families, so check them all
        def texts():
            return [qfib.qfib_recursive(f, m).canonical_text()
                    for f in qfib.RECURSIVE_FAMILIES for m in range(13)]
        before = texts()
        _use(qfib.qfib_recursive(family, n))
        assert texts() == before

    @given(st.sampled_from(sorted(permstats.WEST_PATTERNS)), st.integers(0, 7))
    @settings(deadline=None, max_examples=30)
    def test_west_class(self, wclass, n):
        members = permstats.west_class(n, wclass)
        expected = list(members)
        members.reverse()
        members.append((9, 9))
        del members[0]
        _use(qfib.qfib_oracle(wclass, n))
        assert permstats.west_class(n, wclass) == expected
        assert expected == permstats.enumerate_avoiders(
            n, permstats.WEST_PATTERNS[wclass])
