"""Permutation statistics, pattern filters, layered structure and the West
classes, checked against worked examples and independent brute-force
recomputation."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfibonacci import permstats as ps
from qfibonacci.qfib import fibonacci

FIB_REVERSE = ((1, 2, 3), (1, 3, 2), (2, 1, 3))     # S_n(123,132,213)
FIB_LAYERED = ((2, 3, 1), (3, 1, 2), (3, 2, 1))     # S_n(231,312,321)


def naive_inv(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def naive_contains(sigma, pi):
    m = len(pi)
    for idxs in itertools.combinations(range(len(sigma)), m):
        vals = [sigma[i] for i in idxs]
        if all((pi[a] < pi[b]) == (vals[a] < vals[b])
               for a in range(m) for b in range(m)):
            return True
    return m == 0


def scan_avoiders(n, patterns):
    """The plain n!-scan filter, a slower cross-check for
    enumerate_avoiders."""
    pats = [tuple(p) for p in patterns]
    return [p for p in itertools.permutations(range(1, n + 1))
            if ps.avoids_all(p, pats)]


def per_gap_reference(legal, m, deepest):
    """_west_gaps as one pass over the level per gap: (k, the selected
    nodes, their children's sites) for each gap k legal at some node."""
    for k in range(m + 1):
        bit = 1 << k
        mask = [g & bit for g in legal]
        if any(mask):
            high = -bit
            selected = list(itertools.compress(legal, mask))
            yield k, selected, None if deepest else [
                g + (g & high) + bit for g in selected]


#: The sizes of the paths that test_rule_along_one_path draws.
PATH_SIZES = (12, 30)

#: _west_gaps packs a node's legal gaps into at most 64 bits.
LANE_LIMIT = 64


perms = st.integers(0, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


class TestPatterns:
    def test_paper_321_copy(self):
        assert ps.contains_pattern((5, 6, 4, 3, 1, 2), (3, 2, 1))

    def test_paper_123_avoided(self):
        assert not ps.contains_pattern((5, 6, 4, 3, 1, 2), (1, 2, 3))

    def test_empty_pattern(self):
        assert ps.contains_pattern((2, 1), ())
        assert ps.contains_pattern((), ())

    @given(perms, st.sampled_from([(1, 2), (2, 1), (1, 2, 3), (1, 3, 2),
                                   (2, 1, 3), (3, 1, 2), (2, 1, 4, 3),
                                   (3, 2, 4, 1)]))
    def test_matches_exhaustive_search(self, sigma, pi):
        assert ps.contains_pattern(sigma, pi) == naive_contains(sigma, pi)


class TestFilters:
    def test_fibonacci_counts(self):
        for n in range(8):
            assert len(ps.enumerate_avoiders(n, FIB_REVERSE)) == fibonacci(n)

    def test_empty_size(self):
        assert ps.enumerate_avoiders(0, [(1, 2, 3)]) == [()]

    def test_mixed_length_patterns(self):
        got = set(ps.enumerate_avoiders(3, [(1, 3, 2), (3, 2, 4, 1)]))
        assert got == {(3, 2, 1), (2, 3, 1), (2, 1, 3), (3, 1, 2), (1, 2, 3)}

    def test_bound_enforced(self):
        with pytest.raises(ps.BoundExceeded):
            ps.enumerate_avoiders(10, FIB_REVERSE)

    def test_agrees_with_plain_scan(self):
        for pats in (FIB_REVERSE, FIB_LAYERED, [(1, 3, 2), (3, 2, 4, 1)],
                     [(1, 2, 3), (2, 1, 4, 3)]):
            for n in range(7):
                assert (ps.enumerate_avoiders(n, pats)
                        == sorted(scan_avoiders(n, pats)))

    def test_lexicographic_order(self):
        out = ps.enumerate_avoiders(4, FIB_REVERSE)
        assert out == sorted(out)


class TestStatistics:
    def test_paper_inv(self):
        assert ps.inv((6, 7, 5, 3, 4, 2, 1)) == 19

    def test_identity_inv(self):
        assert ps.inv(tuple(range(1, 8))) == 0

    def test_reversed_identity_inv(self):
        for n in range(8):
            assert ps.inv(tuple(range(n, 0, -1))) == n * (n - 1) // 2

    @given(perms)
    def test_inv_matches_naive(self, p):
        assert ps.inv(p) == naive_inv(p)

    def test_descents(self):
        assert ps.descent_set((6, 7, 5, 3, 4, 2, 1)) == {2, 3, 5, 6}
        assert ps.descent_set((1, 2, 3)) == set()
        assert ps.descent_set((3, 1, 2)) == {1}

    def test_paper_maj(self):
        assert ps.maj((6, 7, 5, 3, 4, 2, 1)) == 16
        assert ps.maj((1, 2, 4, 3, 6, 5, 7, 9, 8)) == 16
        assert ps.maj(()) == 0

    def test_paper_reversal(self):
        assert (ps.reversal((3, 2, 1, 5, 4, 9, 8, 7, 6))
                == (6, 7, 8, 9, 4, 5, 1, 2, 3))
        assert ps.reversal((1,)) == (1,)

    @given(perms)
    def test_reversal_involution(self, p):
        assert ps.reversal(ps.reversal(p)) == p

    @given(perms)
    def test_inv_complement(self, p):
        n = len(p)
        assert ps.inv(p) + ps.inv(ps.reversal(p)) == n * (n - 1) // 2


class TestCycles:
    def test_paper_example(self):
        dec = ps.cycle_decomposition((9, 7, 8, 6, 4, 5, 3, 1, 2))
        assert dec.cycles == ((1, 9, 2, 7, 3, 8), (4, 6, 5))
        assert dec.cycle_count == 2
        assert dec.length_counts() == {6: 1, 3: 1}

    def test_identity(self):
        dec = ps.cycle_decomposition(tuple(range(1, 6)))
        assert dec.cycle_count == 5
        assert dec.length_counts() == {1: 5}

    def test_3412(self):
        dec = ps.cycle_decomposition((3, 4, 1, 2))
        assert dec.cycles == ((1, 3), (2, 4))

    @given(perms)
    def test_reconstruction_and_length_sum(self, p):
        dec = ps.cycle_decomposition(p)
        assert dec.permutation() == p
        assert sum(i * c for i, c in dec.length_counts().items()) == len(p)


class TestLayered:
    def test_paper_classifications(self):
        assert ps.layered_classify((6, 7, 5, 3, 4, 2, 1)) == "reverse-layered-matching"
        assert ps.layered_classify((3, 2, 1, 5, 4, 9, 8, 7, 6)) == "neither"
        assert ps.layered_classify((2, 1, 4, 3)) == "layered-matching"
        assert ps.layered_classify((1,)) == "both"
        assert ps.layered_classify(()) == "both"
        assert ps.layered_classify((1, 2)) == "both"
        assert ps.layered_classify((2, 1)) == "both"

    def test_block_structure(self):
        assert ps.block_structure((6, 7, 5, 3, 4, 2, 1)) == "DSDSS"
        assert ps.block_structure(()) == ""
        assert ps.block_structure((2, 1, 4, 3)) == "DD"
        with pytest.raises(ValueError):
            ps.block_structure((3, 2, 1, 5, 4, 9, 8, 7, 6))

    def test_classify_matches_pattern_definitions(self):
        for n in range(8):
            for p in itertools.permutations(range(1, n + 1)):
                is_lm = ps.avoids_all(p, FIB_LAYERED)
                is_rlm = ps.avoids_all(p, FIB_REVERSE)
                expected = {(True, True): "both",
                            (True, False): "layered-matching",
                            (False, True): "reverse-layered-matching",
                            (False, False): "neither"}[is_lm, is_rlm]
                assert ps.layered_classify(p) == expected

    def test_perm_from_word_examples(self):
        assert ps.perm_from_word("DSDSS", "reverse-layered") == (6, 7, 5, 3, 4, 2, 1)
        assert ps.perm_from_word("DSDSS", "layered") == (2, 1, 3, 5, 4, 6, 7)
        assert ps.perm_from_word("", "layered") == ()
        # the word is checked before the orientation
        with pytest.raises(ValueError, match=r"word must be over \{S, D\}"):
            ps.perm_from_word("SDX", "bogus")
        # inv of the layered image is C(7,2) - 19 = 2
        assert ps.inv((2, 1, 3, 5, 4, 6, 7)) == 2

    @pytest.mark.parametrize("call", [
        lambda o: ps.block_structure((2, 1), o),
        lambda o: ps.block_structure((), o),
        lambda o: ps.layer_values(7, 2, 2, o),
        lambda o: ps.perm_from_word("DSDSS", o),
        lambda o: ps.perm_from_word("", o),
    ])
    @pytest.mark.parametrize("orientation", ["bogus", "Layered", ""])
    def test_unknown_orientation(self, call, orientation):
        # every public entry refuses an orientation through one check, even
        # where no layer is read
        with pytest.raises(ValueError) as err:
            call(orientation)
        assert str(err.value) == f"unknown orientation {orientation!r}"

    def test_word_roundtrips(self):
        from qfibonacci.blockwords import iter_words
        for n in range(9):
            for w in iter_words(n):
                r = ps.perm_from_word(w, "reverse-layered")
                l = ps.perm_from_word(w, "layered")
                assert ps.block_structure(r, "reverse-layered") == w
                assert ps.block_structure(l, "layered") == w
                # reversing a class member reverses its block word
                assert ps.reversal(r) == ps.perm_from_word(w[::-1], "layered")

    def test_structural_class_equals_filter(self):
        from qfibonacci.blockwords import iter_words
        for n in range(8):
            rev = sorted(ps.perm_from_word(w, "reverse-layered")
                         for w in iter_words(n))
            lay = sorted(ps.perm_from_word(w, "layered")
                         for w in iter_words(n))
            assert rev == ps.enumerate_avoiders(n, FIB_REVERSE)
            assert lay == ps.enumerate_avoiders(n, FIB_LAYERED)

    def test_doubleton_inversion_count(self):
        # class members satisfy inv = C(n,2) - #doubletons; their reversals
        # carry exactly #doubletons inversions
        from qfibonacci.blockwords import iter_words
        for n in range(9):
            for w in iter_words(n):
                p = ps.perm_from_word(w, "reverse-layered")
                k = w.count("D")
                assert ps.inv(p) == n * (n - 1) // 2 - k
                assert ps.inv(ps.reversal(p)) == k

    def test_descent_sets_partition_positions(self):
        from qfibonacci.blockwords import iter_words
        for n in range(1, 10):
            for w in iter_words(n):
                rev = ps.perm_from_word(w, "reverse-layered")
                lay = ps.perm_from_word(w, "layered")
                a, b = ps.descent_set(rev), ps.descent_set(lay)
                assert a.isdisjoint(b)
                assert a | b == set(range(1, n))


class TestWest:
    def test_children_examples(self):
        assert set(ps.west_children((2, 1), "W1")) == {(3, 2, 1), (2, 3, 1),
                                                       (2, 1, 3)}
        assert set(ps.west_children((1, 2), "W2")) == {(3, 1, 2), (1, 2, 3)}
        for cls in ("W1", "W2", "W3"):
            assert set(ps.west_children((1,), cls)) == {(2, 1), (1, 2)}
        # every gap is tried, and the last is no carried site of 312 (its
        # parent's last gap makes 123): 3124 contains 123 through 4 but
        # not through 3, so pinning both largest values there would keep it
        assert ps.west_children((3, 1, 2), "W1") == [(4, 3, 1, 2),
                                                     (3, 4, 1, 2),
                                                     (3, 1, 4, 2)]

    def test_gap3_insertion_is_legal_for_w1(self):
        # 3142 avoids 123 and 2143 yet its prefix 31 is not the two largest
        # values; the printed gap rule would wrongly exclude it.
        assert (3, 1, 4, 2) in ps.west_children((3, 1, 2), "W1")

    @given(perms, st.sampled_from(sorted(ps.WEST_PATTERNS)))
    def test_children_equal_per_gap_filter(self, sigma, cls):
        # members and non-members alike: every gap, full pattern test
        pats = ps.WEST_PATTERNS[cls]
        n = len(sigma) + 1
        gaps = (sigma[:k] + (n,) + sigma[k:] for k in range(n))
        assert (ps.west_children(sigma, cls)
                == [c for c in gaps if ps.avoids_all(c, pats)])

    def test_grow_equals_filter_on_walk_nodes(self):
        # every node below size 9 (children up to size 9), grown a level at
        # a time from the root with its carried sites: the level step's
        # legal gaps are the legal ones by the whole pattern test, and each
        # gap left out of the sites is illegal
        for cls, pats in ps.WEST_PATTERNS.items():
            level, sites, maxima = [()], [0b1], [0]
            for m in range(9):
                legal = ps.WEST_RULES[cls](sites, maxima, m)
                gaps = list(ps._west_gaps(legal, m, False))
                for i, sigma in enumerate(level):
                    want = [k for k in range(m + 1) if ps.avoids_all(
                        sigma[:k] + (m + 1,) + sigma[k:], pats)]
                    assert [k for k, mask, _ in gaps if mask[i]] == want, (
                        cls, sigma)
                    assert all(sites[i] >> k & 1 for k in want), (cls, sigma)
                # the deepest level selects the same nodes, without sites
                assert list(ps._west_gaps(legal, m, True)) == [
                    (k, mask, None) for k, mask, _ in gaps]
                level = [sigma[:k] + (m + 1,) + sigma[k:]
                         for k, mask, _ in gaps
                         for sigma in itertools.compress(level, mask)]
                sites = [s for _, _, kid_sites in gaps for s in kid_sites]
                maxima = [k for k, _, kid_sites in gaps for _ in kid_sites]

    @given(st.one_of(st.sampled_from((0, 7, 8, 15, 16, 31, 32, 63)),
                     st.integers(0, LANE_LIMIT - 1)).flatmap(
               lambda m: st.tuples(st.just(m), st.lists(st.one_of(
                   st.just(0), st.integers(0, (2 << m) - 1)),
                   max_size=40))),
           st.booleans())
    @example((0, []), False)
    @example((8, [0, 0, 0]), False)
    @example((63, [0, (1 << 64) - 1, 1 << 63]), False)
    @example((63, [0, (1 << 64) - 1, 1 << 63]), True)
    def test_gaps_equal_per_gap_reference(self, level, deepest):
        # every lane width, empty levels and nodes with no legal gap
        m, legal = level
        got = [(k, list(itertools.compress(legal, mask)), kid_sites)
               for k, mask, kid_sites in ps._west_gaps(legal, m, deepest)]
        assert got == list(per_gap_reference(legal, m, deepest))

    def test_levels_within_lane_limit(self):
        # a walk to n steps levels of size m < n; a path of the given size
        # steps m < size
        assert ps.WEST_BOUND - 1 < LANE_LIMIT
        assert PATH_SIZES[1] - 1 < LANE_LIMIT

    def test_counts(self):
        for cls in ("W1", "W2", "W3"):
            for n in range(1, ps.WEST_BOUND + 1):
                assert len(ps.west_class(n, cls)) == fibonacci(2 * n - 2)

    def test_class_equals_filter(self, monkeypatch):
        # also walked from the nodes of size n - 2, which carry their sites
        # and p into their subtrees
        for depth in (ps.SERIAL_DEPTH, 2):
            monkeypatch.setattr(ps, "SERIAL_DEPTH", depth)
            for cls, pats in ps.WEST_PATTERNS.items():
                for n in range(8):
                    assert ps.west_class(n, cls) == ps.enumerate_avoiders(
                        n, pats), (depth, cls, n)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(sorted(ps.WEST_PATTERNS)),
           st.integers(*PATH_SIZES),
           st.data())
    def test_rule_along_one_path(self, cls, size, data):
        # one path down the generating tree, past the sizes the walks reach:
        # at each node the rule, on a level of that one node, gives exactly
        # the gaps whose child avoids the patterns, and a drawn one of them
        # is the next node, with the sites _west_gaps gives it
        pats = ps.WEST_PATTERNS[cls]
        sigma, sites, p = (), 0b1, 0
        for m in range(size):
            legal, = ps.WEST_RULES[cls]([sites], [p], m)
            children = {k: sigma[:k] + (m + 1,) + sigma[k:]
                        for k in range(m + 1)}
            for k, child in children.items():
                assert (legal >> k & 1) == ps.avoids_all(child, pats), (
                    cls, sigma, k)
            gaps = {k: kid_sites[0]
                    for k, _, kid_sites in ps._west_gaps([legal], m, False)}
            p = data.draw(st.sampled_from(sorted(gaps)))
            sigma, sites = children[p], gaps[p]

    def test_bound(self):
        with pytest.raises(ps.BoundExceeded):
            ps.west_class(13, "W1")

    def test_negative_size(self):
        with pytest.raises(ValueError):
            ps.west_class(-1, "W1")
        with pytest.raises(ValueError):
            ps.enumerate_avoiders(-1, ps.WEST_PATTERNS["W1"])

    def test_result_is_not_the_cache(self):
        first = ps.west_class(4, "W3")
        expected = list(first)
        first.append((9, 9, 9))
        first[0] = ()
        assert ps.west_class(4, "W3") == expected

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            ps.west_class(3, "W9")
        with pytest.raises(ValueError):
            ps.west_children((1,), "W9")
        with pytest.raises(ValueError):
            ps.west_children((1, 1), "W1")


class TestSerialization:
    def test_digit_string(self):
        assert ps.perm_to_text((6, 7, 5, 3, 4, 2, 1)) == "6753421"
        assert ps.perm_from_text("6753421") == (6, 7, 5, 3, 4, 2, 1)

    def test_space_separated_above_nine(self):
        p = tuple(range(10, 0, -1))
        text = ps.perm_to_text(p)
        assert text == "10 9 8 7 6 5 4 3 2 1"
        assert ps.perm_from_text(text) == p

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            ps.perm_from_text("122")
