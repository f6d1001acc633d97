"""Block words: weights, Morse sequences, the interleave transform and the
leading-prefix cycle classifier, checked against brute-force cycle data."""

import pytest

from qfibonacci import blockwords as bw
from qfibonacci import permstats as ps
from qfibonacci.partitions import partition_from_word, rb
from qfibonacci.polyring import MultiPoly
from qfibonacci.qfib import fibonacci


def T(coeff=1, x=0, y=0, q=0):
    return MultiPoly.term(coeff, x=x, y=y, q=q)


class TestWords:
    def test_lengths(self):
        assert bw.word_length("DSDSS") == 7
        assert bw.word_length("") == 0
        assert bw.word_length("DD") == 4

    def test_enumeration(self):
        assert bw.enumerate_words(2) == ["D", "SS"]
        assert bw.enumerate_words(0) == [""]
        assert len(bw.enumerate_words(7)) == 21
        for n in range(12):
            assert len(bw.enumerate_words(n)) == fibonacci(n)

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            bw.word_length("SDX")

    def test_negative_size(self):
        with pytest.raises(ValueError):
            list(bw.iter_words(-1))
        with pytest.raises(ValueError):
            bw.enumerate_words(-1)


class TestWeights:
    def test_paper_inv_weight(self):
        assert bw.weight_inv("DSDSS") == T(1, x=3, y=2, q=19)

    def test_paper_maj_weight(self):
        assert bw.weight_maj("DSDSS") == T(1, x=3, y=2, q=16)

    def test_paper_rb_weight(self):
        assert bw.weight_rb("DSSDD") == T(1, x=2, y=3, q=15)

    def test_empty_weights(self):
        one = MultiPoly.one()
        assert bw.weight_inv("") == bw.weight_maj("") == bw.weight_rb("") == one

    def test_small_words(self):
        assert bw.weight_inv("SS") == T(1, x=2, q=1)
        assert bw.weight_maj("SD") == T(1, x=1, y=1, q=1)

    def test_maj_and_rb_weights_coincide(self):
        for n in range(11):
            for w in bw.iter_words(n):
                assert bw.weight_maj(w) == bw.weight_rb(w)

    def test_weight_sums_are_the_family_polynomials(self):
        from qfibonacci.qfib import qfib_oracle
        for n in range(11):
            total_inv = MultiPoly.zero()
            total_maj = MultiPoly.zero()
            for w in bw.iter_words(n):
                total_inv = total_inv + bw.weight_inv(w)
                total_maj = total_maj + bw.weight_maj(w)
            assert total_inv == qfib_oracle("I", n)
            assert total_maj == qfib_oracle("M", n)

    def test_exponents_equal_statistics(self):
        for n in range(11):
            for w in bw.iter_words(n):
                rev = ps.perm_from_word(w, "reverse-layered")
                s, d = w.count("S"), w.count("D")
                assert bw.weight_inv(w) == T(1, x=s, y=d, q=ps.inv(rev))
                assert bw.weight_maj(w) == T(1, x=s, y=d, q=ps.maj(rev))
                alpha = partition_from_word(w)
                assert bw.weight_rb(w) == T(1, x=s, y=d, q=rb(alpha))


class TestMorse:
    def test_paper_weight(self):
        assert bw.morse_weight("SSDDSD") == 16

    def test_all_dots(self):
        assert bw.morse_weight("SSSSS") == 0

    def test_single_dash(self):
        assert bw.morse_weight("D") == 1

    def test_morse_to_perm(self):
        p = bw.morse_to_perm("SSDDSD")
        assert p == (1, 2, 4, 3, 6, 5, 7, 9, 8)
        assert ps.maj(p) == 16
        assert bw.morse_to_perm("") == ()
        assert bw.morse_to_perm("D") == (2, 1)
        assert ps.maj((2, 1)) == bw.morse_weight("D") == 1

    def test_weight_equals_maj_of_image(self):
        for n in range(15):
            for w in bw.iter_words(n):
                assert bw.morse_weight(w) == ps.maj(bw.morse_to_perm(w))

    def test_rendering(self):
        assert bw.morse_text("SSDDSD") == "..--.-"
        assert bw.morse_parse("..--.-") == "SSDDSD"
        assert bw.morse_parse(bw.morse_text("DSDSS")) == "DSDSS"


class TestInterleave:
    def test_paper_example(self):
        assert bw.interleave("SDSDSD") == "SDDSSD"

    def test_fixed_points(self):
        assert bw.interleave("S") == "S"
        assert bw.interleave("SS") == "SS"
        assert bw.interleave("") == ""

    def test_invertible_small(self):
        for n in range(11):
            for w in bw.iter_words(n):
                assert bw.deinterleave(bw.interleave(w)) == w
                assert bw.interleave(bw.deinterleave(w)) == w


def cycle_truth(word):
    """Cycle lengths of the reverse layered matching whose interleaved word
    is `word`, computed by brute force."""
    sigma = ps.perm_from_word(bw.deinterleave(word), "reverse-layered")
    return ps.cycle_decomposition(sigma).cycle_lengths()


class TestClassify:
    def test_spec_examples(self):
        got = bw.classify_prefix("SDDSSD")
        assert (got.kind, got.ell, got.predicted_cycles) == ("sd^ls", 2, (6,))
        got = bw.classify_prefix("DD")
        assert (got.kind, got.predicted_cycles) == ("dd", (2, 2))
        assert bw.classify_prefix("SD").kind == "residual"

    def test_kind_table(self):
        cases = {
            "SS": ("ss", (2,)),
            "DD": ("dd", (2, 2)),
            "DSSD": ("dssd", (6,)),
            "DSSS": ("ds*s", (4,)),
            "DSDS": ("ds*s", (4,)),
            "DSS": ("dsd^ls", (4,)),
            "DSDDS": ("dsd^ls", (8,)),
            "SDS": ("sd^ls", (4,)),
            "SDDS": ("sd^ls", (6,)),
            "S": ("residual", ()),
            "D": ("residual", ()),
            "DS": ("residual", ()),
            "DSD": ("residual", ()),
            "SDD": ("residual", ()),
            # odd repeat counts >= 3 carry no valid dsd^ls prediction
            "DSDDDS": ("residual", ()),
        }
        for word, (kind, predicted) in cases.items():
            got = bw.classify_prefix(word)
            assert (got.kind, got.predicted_cycles) == (kind, predicted), word

    def test_consumed_letters(self):
        assert bw.classify_prefix("SS").consumed_letters == 2
        assert bw.classify_prefix("DD").consumed_letters == 2
        assert bw.classify_prefix("DSSD").consumed_letters == 4
        # the * of ds*s is left for the caller; only the d and first s count
        assert bw.classify_prefix("DSDS").consumed_letters == 2
        assert bw.classify_prefix("SDDS").consumed_letters == 4
        assert bw.classify_prefix("DSDDS").consumed_letters == 5

    def test_star_letter_recorded(self):
        assert bw.classify_prefix("DSDS").star == "D"
        assert bw.classify_prefix("DSSS").star == "S"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bw.classify_prefix("")

    def test_pure_prefix_cycles_simple_kinds(self):
        assert cycle_truth("SS") == (2,)
        assert cycle_truth("DD") == (2, 2)
        assert cycle_truth("DSSD") == (6,)

    def test_pure_prefix_cycles_parametric(self):
        for ell in range(1, 7):
            word = "S" + "D" * ell + "S"
            assert cycle_truth(word) == (2 * ell + 2,)
        for ell in (0, 2, 4):
            word = "DS" + "D" * ell + "S"
            assert cycle_truth(word) == (2 * ell + 4,)

    def test_dsd_odd_repeat_prediction_refuted(self):
        # the nominal dsd^ls rule would predict a single 2l+4 cycle, but
        # for odd l >= 3 the central doubleton is stranded as fixed points;
        # such words are classified residual
        for ell in (3, 5):
            word = "DS" + "D" * ell + "S"
            assert cycle_truth(word) == (1, 1, 2 * ell + 2)
            assert bw.classify_prefix(word).kind == "residual"

    def test_pure_ds_star_s_leaves_the_star(self):
        # the 4-cycle uses the d and the two trailing s layers; the * layer
        # survives as fixed points (one for s, two for d)
        assert cycle_truth("DSSS") == (1, 4)
        assert cycle_truth("DSDS") == (1, 1, 4)

    def test_paper_running_example(self):
        # v' = sddssd: the sd^2s prefix explains the 6-cycle of 978645312;
        # the trailing sd is residual and carries the odd 3-cycle
        sigma = ps.perm_from_word(bw.deinterleave("SDDSSD"), "reverse-layered")
        assert sigma == (9, 7, 8, 6, 4, 5, 3, 1, 2)
        assert ps.cycle_decomposition(sigma).cycle_lengths() == (3, 6)
