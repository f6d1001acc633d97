"""Set partitions: standard order, pattern containment, rb, and the bridge
from reverse layered matchings."""

import random

import pytest

from qfibonacci import partitions as pt
from qfibonacci import permstats as ps
from qfibonacci.blockwords import iter_words, weight_rb
from qfibonacci.polyring import MultiPoly
from qfibonacci.qfib import fibonacci

BETA = pt.partition_from_text("1/236/45")
CLASS_PATTERNS = (pt.partition_from_text("13/2"), pt.partition_from_text("123"))


class TestConstruction:
    def test_parse_and_format(self):
        assert BETA == ((1,), (2, 3, 6), (4, 5))
        assert pt.partition_to_text(BETA) == "1/236/45"
        assert pt.partition_from_text("") == ()

    def test_standard_order_enforced(self):
        assert pt.make_partition([(4, 5), (3, 2, 6), (1,)]) == BETA

    def test_rejects_non_cover(self):
        with pytest.raises(ValueError):
            pt.make_partition([(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            pt.make_partition([(1,), (3,)])

    def test_standardize(self):
        assert pt.standardize([(2, 6), (4,)]) == ((1, 3), (2,))

    def test_large_ground_set_text(self):
        alpha = pt.make_partition([tuple(range(1, 11))])
        assert pt.partition_to_text(alpha) == "1,2,3,4,5,6,7,8,9,10"
        assert pt.partition_from_text("1,2/3,10/4,5,6,7,8,9") == \
            ((1, 2), (3, 10), (4, 5, 6, 7, 8, 9))


class TestContainment:
    def test_paper_literal_subpartition(self):
        # literal sub-partition containment, as opposed to pattern containment
        assert pt.contains_subpartition(BETA, [(2, 6), (4,)])
        assert not pt.contains_subpartition(BETA, [(1,), (2,), (3,)])

    def test_pattern_from_papers_subpartition(self):
        # 26/4 standardizes to the pattern 13/2, which BETA contains
        assert pt.partition_contains(BETA, pt.standardize([(2, 6), (4,)]))
        assert pt.partition_contains(BETA, pt.partition_from_text("13/2"))

    def test_three_element_block_pattern(self):
        assert pt.partition_contains(BETA, pt.partition_from_text("123"))
        assert not pt.partition_contains(
            pt.partition_from_text("12/34"), pt.partition_from_text("123"))

    def test_three_singletons_pattern(self):
        # pattern containment (order-isomorphic sub-partition) differs from
        # the literal relation: 1, 2, 4 live in three distinct blocks
        assert pt.partition_contains(BETA, pt.partition_from_text("1/2/3"))
        assert not pt.partition_contains(
            pt.partition_from_text("123/456"), pt.partition_from_text("1/2/3"))

    def test_empty_pattern(self):
        assert pt.partition_contains(BETA, ())
        assert pt.partition_contains((), ())

    def test_monotone_under_subpartitions(self):
        rng = random.Random(401)
        pats = [pt.partition_from_text(t) for t in ("13/2", "123", "1/2/3",
                                                    "12/3")]
        for _ in range(300):
            n = rng.randint(1, 7)
            beta = random.Random(rng.random()).choice(
                list(pt.enumerate_partitions(n)))
            keep = [tuple(v for v in b if rng.random() < 0.7) for b in beta]
            keep = [b for b in keep if b]
            if not keep:
                continue
            sub = pt.standardize(keep)
            for alpha in pats:
                if pt.partition_avoids_all(beta, [alpha]):
                    assert pt.partition_avoids_all(sub, [alpha])


class TestEnumeration:
    def test_bell_numbers(self):
        bell = [1, 1, 2, 5, 15, 52, 203]
        for n, b in enumerate(bell):
            assert sum(1 for _ in pt.enumerate_partitions(n)) == b

    def test_avoiding_counts_are_fibonacci(self):
        for n in range(8):
            got = pt.enumerate_partitions_avoiding(n, CLASS_PATTERNS)
            assert len(got) == fibonacci(n)

    def test_unrestricted_filter(self):
        assert len(pt.enumerate_partitions_avoiding(3, ())) == 5
        assert pt.enumerate_partitions_avoiding(0, CLASS_PATTERNS) == [()]

    def test_bound(self):
        with pytest.raises(ps.BoundExceeded):
            pt.enumerate_partitions_avoiding(10, CLASS_PATTERNS)

    def test_negative_size(self):
        with pytest.raises(ValueError):
            list(pt.enumerate_partitions(-1))
        with pytest.raises(ValueError):
            pt.enumerate_partitions_avoiding(-1, CLASS_PATTERNS)
        with pytest.raises(ValueError):
            pt.enumerate_layered_matchings(-1)

    def test_structural_generator(self):
        assert set(pt.enumerate_layered_matchings(2)) == {((1,), (2,)),
                                                          ((1, 2),)}
        assert len(pt.enumerate_layered_matchings(7)) == 21
        assert pt.partition_from_word("DSSDD") == \
            pt.partition_from_text("12/3/4/56/78")

    def test_structural_equals_filter(self):
        for n in range(8):
            assert (sorted(pt.enumerate_layered_matchings(n))
                    == sorted(pt.enumerate_partitions_avoiding(n, CLASS_PATTERNS)))

    def test_word_roundtrip(self):
        for n in range(10):
            for w in iter_words(n):
                assert pt.word_of_partition(pt.partition_from_word(w)) == w
        # no word builds these back; an empty block is not a doubleton
        for alpha in [((),), ((), ()), ((1,), ()), ((1, 2, 3),),
                      ((1, 3), (2,)), ((2,), (1,))]:
            with pytest.raises(ValueError, match="not a layered matching"):
                pt.word_of_partition(alpha)


class TestRb:
    def test_paper_example(self):
        assert pt.rb(pt.partition_from_text("12/3/4/56/78")) == 15

    def test_all_singletons(self):
        for n in range(8):
            alpha = tuple((i,) for i in range(1, n + 1))
            assert pt.rb(alpha) == n * (n - 1) // 2

    def test_mixed_blocks(self):
        assert pt.rb(BETA) == 4

    def test_block_minimum_formula_on_layered_matchings(self):
        for n in range(10):
            for alpha in pt.enumerate_layered_matchings(n):
                assert pt.rb(alpha) == sum(b[0] - 1 for b in alpha)


class TestEta:
    def test_running_example(self):
        alpha = pt.eta((6, 7, 5, 3, 4, 2, 1))
        assert alpha == pt.partition_from_text("12/3/45/6/7")
        assert pt.rb(alpha) == 16 == ps.maj((6, 7, 5, 3, 4, 2, 1))

    def test_empty(self):
        assert pt.eta(()) == ()

    def test_non_class_input_rejected(self):
        with pytest.raises(ValueError):
            pt.eta((3, 2, 1, 5, 4, 9, 8, 7, 6))

    def test_two_element_boundary(self):
        # the reverse layered matching with word D is 12 (not 21), so the
        # pointwise claim maj = rb(eta) is clean at n = 2:
        assert pt.eta((1, 2)) == ((1, 2),)
        assert ps.maj((1, 2)) == 0 == pt.rb(((1, 2),))
        assert pt.eta((2, 1)) == ((1,), (2,))
        assert ps.maj((2, 1)) == 1 == pt.rb(((1,), (2,)))

    def test_pointwise_maj_equals_rb(self):
        for n in range(10):
            for w in iter_words(n):
                sigma = ps.perm_from_word(w, "reverse-layered")
                assert ps.maj(sigma) == pt.rb(pt.eta(sigma))

    def test_preserves_block_structure(self):
        for n in range(9):
            for w in iter_words(n):
                sigma = ps.perm_from_word(w, "reverse-layered")
                assert pt.word_of_partition(pt.eta(sigma)) == \
                    ps.block_structure(sigma, "reverse-layered")


class TestDistribution:
    def test_rb_distribution_equals_word_weights(self):
        for n in range(11):
            by_parts = MultiPoly.zero()
            for alpha in pt.enumerate_layered_matchings(n):
                s, d = pt.singleton_doubleton_counts(alpha)
                by_parts = by_parts + MultiPoly.term(1, x=s, y=d,
                                                     q=pt.rb(alpha))
            by_words = MultiPoly.zero()
            for w in iter_words(n):
                by_words = by_words + weight_rb(w)
            assert by_parts == by_words
