"""Command line behaviors: output formats, exit codes, validation."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfibonacci import qfib
from qfibonacci.cli import main
from qfibonacci.polyring import q_pow


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQfibVerb:
    def test_oracle_text(self, capsys):
        code, out, _ = run(capsys, "qfib", "--family", "I", "--n", "4",
                           "--method", "oracle")
        assert code == 0
        assert out.strip() == "x^4*q^6 + 3*x^2*y*q^5 + y^2*q^4"

    def test_methods_agree_bytewise(self, capsys):
        outputs = set()
        for method in ("oracle", "recursion", "closed-form"):
            code, out, _ = run(capsys, "qfib", "--family", "I", "--n", "6",
                               "--method", method)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "qfib", "--family", "D'", "--n", "3",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "D'" and data["n"] == 3
        assert data["text"] == "x^3*z1*z2 + 2*x*y*z3"
        assert {"coeff", "x", "y", "q", "z"} <= set(data["terms"][0])

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "qfib", "--family", "I", "--n", "4",
                           "--format", "latex")
        assert code == 0
        assert out.strip() == "x^{4} q^{6} + 3 x^{2} y q^{5} + y^{2} q^{4}"

    def test_bound_exit_3(self, capsys):
        code, _, err = run(capsys, "qfib", "--family", "I", "--n", "40",
                           "--method", "oracle")
        assert code == 3
        assert "bound" in err

    def test_memory_error_exit_3(self, capsys, monkeypatch):
        # stands in for a recursion too large to hold, e.g. C at n = 3000
        def exhausted(family, n):
            raise MemoryError

        monkeypatch.setattr(qfib, "qfib_recursive", exhausted)
        code, out, err = run(capsys, "qfib", "--family", "C", "--n", "3000",
                             "--method", "recursion")
        assert code == 3
        assert out == ""
        assert err.startswith("qfib: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_overflow_error_exit_3(self, capsys, monkeypatch):
        # stands in for a value whose exponent leaves the ring's range
        def out_of_range(family, n):
            return q_pow(2 ** 29) ** 2

        monkeypatch.setattr(qfib, "qfib_recursive", out_of_range)
        code, out, err = run(capsys, "qfib", "--family", "I'", "--n", "50000",
                             "--method", "recursion")
        assert code == 3
        assert out == ""
        assert err.startswith("qfib: ") and err.count("\n") == 1
        assert "2^30" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb,size", [("qfib", "--n"),
                                           ("table", "--max-n")],
                             ids=["qfib", "table"])
    @pytest.mark.parametrize("method", ["oracle", "recursion"])
    def test_unknown_family(self, capsys, verb, size, method):
        code, _, err = run(capsys, verb, "--family", "Z", size, "3",
                           "--method", method)
        assert code == 2
        assert "unknown family" in err

    def test_closed_form_only_for_I(self, capsys):
        code, _, err = run(capsys, "qfib", "--family", "M", "--n", "3",
                           "--method", "closed-form")
        assert code == 2


class TestEnumerateVerb:
    def test_pattern_class(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "123,132,213",
                           "--n", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert lines[0] == "45231"

    def test_west_class(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "W2", "--n", "4",
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 13

    def test_bound(self, capsys):
        code, _, err = run(capsys, "enumerate", "--class", "123,132,213",
                           "--n", "12")
        assert code == 3


class TestDistributionVerb:
    def test_inv_distribution(self, capsys):
        code, out, _ = run(capsys, "distribution", "--patterns", "123,132,213",
                           "--stat", "inv", "--n", "4")
        assert code == 0
        assert out.strip() == "q^6 + 3*q^5 + q^4"

    def test_rb_distribution(self, capsys):
        code, out, _ = run(capsys, "distribution", "--kind", "partitions",
                           "--patterns", "13/2,123", "--stat", "rb",
                           "--n", "4")
        assert code == 0
        assert out.strip() == "q^6 + q^5 + q^4 + q^3 + q^2"

    def test_unknown_stat(self, capsys):
        code, _, err = run(capsys, "distribution", "--patterns", "123",
                           "--stat", "bogus", "--n", "3")
        assert code == 2


class TestVerifyVerb:
    def test_valid_identity_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "T4.3a",
                           "--max-n", "10")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert len(reports[0]["instances"]) == 11
        assert all(i["verdict"] == "holds" for i in reports[0]["instances"])

    def test_failing_identity_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "T5.3",
                           "--max-n", "4")
        assert code == 1
        report = json.loads(out)[0]
        assert report["counterexample"]["indices"] == {"n": 0}
        assert report["counterexample"]["lhs"]
        assert report["counterexample"]["rhs"]

    def test_unknown_identity_lists_valid_ids(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "T4.2")
        assert code == 2
        assert "T4.3a" in err and "CASSINI" in err

    def test_list_catalog(self, capsys):
        code, out, _ = run(capsys, "verify", "--list")
        assert code == 0
        assert len(json.loads(out)) == 19

    def test_usage_error_without_selection(self, capsys):
        code, _, _ = run(capsys, "verify")
        assert code == 2

    def test_all_honours_max_m(self, capsys):
        _, out, _ = run(capsys, "verify", "--all", "--max-n", "5",
                        "--max-m", "1")
        t41 = next(r for r in json.loads(out) if r["id"] == "T4.1")
        _, alone, _ = run(capsys, "verify", "--identity", "T4.1",
                          "--max-n", "5", "--max-m", "1")
        assert [t41] == json.loads(alone)
        assert [i["indices"]["m"] for i in t41["instances"]] == [1] * 4


class TestTableVerb:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "I", "--max-n", "3",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,polynomial"
        assert lines[1] == "0,1"
        assert lines[-1] == "3,x^3*q^3 + 2*x*y*q^2"

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "M", "--max-n", "2",
                           "--format", "latex")
        assert code == 0
        assert out.startswith(r"\begin{tabular}")
        assert "x^{2} q + y" in out

    def test_text(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "C", "--max-n", "2")
        assert code == 0
        assert out.splitlines()[2] == "2\ty*q + x^2"

    def test_oracle_bound_checked_before_any_row(self, capsys):
        # the bound is checked before any row, so no West level is built
        code, out, err = run(capsys, "table", "--family", "W1",
                             "--max-n", "13")
        assert code == 3
        assert out == ""
        assert "bound" in err


class TestUsage:
    def test_no_verb(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "qfib", "--family", "I", "--n", "many")
        assert code == 2
        assert err.endswith(
            "qfib qfib: error: argument --n: invalid int value: 'many'\n")

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--class", "123,132,213", "--n", "-2"),
        ("enumerate", "--class", "W1", "--n", "-1"),
        ("distribution", "--patterns", "123", "--n", "-1"),
        ("qfib", "--family", "I", "--method", "recursion", "--n", "-1"),
        ("qfib", "--family", "I", "--method", "oracle", "--n", "-1"),
        ("table", "--family", "I", "--max-n", "-1"),
        ("verify", "--identity", "T4.3a", "--max-n", "-3"),
        ("verify", "--identity", "T4.1", "--max-m", "-1"),
    ])
    def test_negative_size_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "nonnegative" in err


# Option values for the exit-code property, good then malformed.  30 is past
# every enumeration bound (9, 12, 26) but cheap for a recursion.  verify
# always gets a --max-n, and none past 4: its default ranges build oracles
# for seconds.
_SIZES = (("0", "1", "3", "5", "30"), ("-1", "x", ""))
_FAMILIES = (qfib.FAMILIES, ("Z",))
_METHODS = (("oracle", "recursion", "closed-form"), ("guess",))
_OPTIONS = {
    "enumerate": (("--class", ("123,132,213", "W1", "W3", "12"),
                   ("W9", "1x", "")),
                  ("--n", *_SIZES), ("--format", ("text", "json"), ("xml",))),
    "distribution": (("--kind", ("perms", "partitions"), ("sets",)),
                     ("--patterns", ("123,132,213", "13/2,123", "12"), ("?",)),
                     ("--stat", ("inv", "maj", "des", "cycles", "rb"),
                      ("sd",)),
                     ("--n", *_SIZES), ("--format", ("text", "json"), ())),
    "qfib": (("--family", *_FAMILIES), ("--n", *_SIZES),
             ("--method", *_METHODS),
             ("--format", ("text", "json", "latex"), ("png",))),
    "verify": (("--max-m", ("0", "2"), ("-1", "x")),),
    "table": (("--family", *_FAMILIES), ("--max-n", *_SIZES),
              ("--method", *_METHODS),
              ("--format", ("text", "csv", "latex"), ("html",))),
}
_VERIFY_SELECTIONS = ((), ("--all",), ("--list",), ("--all", "--list"),
                      *(("--identity", i) for i in ("T2.1", "T4.1", "T5.3",
                                                     "T6.2", "T9")))


@st.composite
def _argv(draw):
    def value(good, bad):
        pool = bad if bad and draw(st.integers(0, 5)) == 5 else good
        return draw(st.sampled_from(pool))

    verb = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [verb]
    if verb == "verify":
        argv += draw(st.sampled_from(_VERIFY_SELECTIONS))
        argv += ["--max-n", value(("0", "2", "4"), ("-1", "x"))]
    for flag, good, bad in _OPTIONS[verb]:
        if draw(st.integers(0, 5)) < 5:     # mostly present: past the parser
            argv += [flag, value(good, bad)]
    return argv


class TestExitContract:
    @settings(max_examples=150, deadline=None)
    @given(_argv())
    def test_exit_code_and_no_traceback(self, argv):
        # an exception escaping main fails the test as well
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
