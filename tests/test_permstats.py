"""Permutation statistics, pattern filters, layered structure and the West
classes, checked against worked examples and independent brute-force
recomputation."""

import itertools

import pytest
from hypothesis import given, settings
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
                        == sorted(ps.enumerate_avoiders_scan(n, pats)))

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

    def test_site_plan(self):
        # (top, second, steps): the indices of the two largest letters, and
        # per other index (i, low, high, seg): the earlier unpinned index
        # nearest below pi[i] (-1: none), the one nearest above among them
        # and second, and the number of pinned indices before i
        assert ps._site_plan((2, 4, 1, 3)) == (
            1, 3, ((0, -1, 3, 0), (2, -1, 0, 1)))
        assert ps._site_plan((3, 1, 5, 2, 4)) == (
            2, 4, ((0, -1, 4, 0), (1, -1, 0, 0), (3, 1, 0, 1)))
        assert ps._site_plan((4, 1, 3, 5, 2)) == (
            3, 0, ((1, -1, 0, 1), (2, 1, 0, 1), (4, 1, 2, 2)))
        assert ps._site_plan((2, 1)) == (0, 1, ())
        assert ps._site_plan((1,)) == (0, 0, ())

    @given(st.integers(1, 8).flatmap(
               lambda n: st.tuples(st.permutations(range(1, n + 1)),
                                   st.integers(0, n))),
           st.one_of(st.sampled_from([(2, 4, 1, 3), (3, 1, 4, 2),
                                      (3, 1, 5, 2, 4), (2, 5, 3, 1, 4),
                                      (4, 1, 3, 5, 2)]),
                     st.integers(1, 5).flatmap(
                         lambda m: st.permutations(range(1, m + 1)))
                     .map(tuple)))
    @settings(deadline=None)
    def test_contains_through_equals_brute_force(self, sigma_k, pi):
        # the candidate's two largest values come in both orders: the new
        # maximum n goes before or after n - 1
        sigma, k = sigma_k
        n = len(sigma) + 1
        cand = tuple(sigma[:k]) + (n,) + tuple(sigma[k:])
        k2 = cand.index(n - 1)
        by_value = sorted(range(len(pi)), key=pi.__getitem__, reverse=True)
        pins = dict(zip(by_value, (k, k2)))
        want = any(all(idxs[t] == at for t, at in pins.items())
                   and naive_contains([cand[i] for i in idxs], pi)
                   for idxs in itertools.combinations(range(n), len(pi)))
        assert ps._contains_through(cand, pi, k, k2) == want

    def test_grow_equals_filter_on_walk_nodes(self):
        # every node below size 8 (children up to size 8), grown from the
        # root with its carried sites: the two-pin verdict at each site is
        # the whole pattern test, and each gap left out of the sites is
        # illegal
        for cls, pats in ps.WEST_PATTERNS.items():
            todo = [((), 0b1)]
            while todo:
                sigma, sites = todo.pop()
                n = len(sigma) + 1
                kids = ps._grow(sigma, sites, pats)
                legal = [k for k in range(n)
                         if ps.avoids_all(sigma[:k] + (n,) + sigma[k:], pats)]
                assert [k for k, _, _ in kids] == [
                    k for k in legal if sites >> k & 1], (cls, sigma)
                assert all(sites >> k & 1 for k in legal), (cls, sigma)
                if n < 8:
                    todo.extend((child, s) for _, child, s in kids)

    def test_counts(self):
        for cls in ("W1", "W2", "W3"):
            for n in range(1, ps.WEST_BOUND + 1):
                assert len(ps.west_class(n, cls)) == fibonacci(2 * n - 2)

    def test_class_equals_filter(self):
        for cls, pats in ps.WEST_PATTERNS.items():
            for n in range(8):
                assert ps.west_class(n, cls) == ps.enumerate_avoiders(n, pats)

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
