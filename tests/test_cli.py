"""Command line behaviors: output formats, exit codes, validation."""

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfibonacci import permstats, qfib
from qfibonacci.cli import main
from qfibonacci.polyring import q_pow


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

    def test_west_bound(self, capsys):
        # the shared West traversal refuses the size before any node
        code, out, err = run(capsys, "enumerate", "--class", "W3", "--n", "13")
        assert (code, out) == (3, "")
        assert "bound" in err


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


def count_walks(monkeypatch, family):
    """Empty the oracle cache, and list the sizes the family's walk is
    then called with."""
    walked = []
    fam = qfib.FAMILY[family]
    monkeypatch.setattr(qfib, "_oracle_cache", {})
    monkeypatch.setitem(qfib.FAMILY, family, fam._replace(
        walk=lambda n: walked.append(n) or fam.walk(n)))
    return walked


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

    @pytest.mark.parametrize("ident, max_n, size", [
        ("T4.1", 30, 30), ("T2.1", 30, 30), ("T4.5", 13, 27)])
    def test_bound_names_the_largest_instance(self, capsys, monkeypatch,
                                              ident, max_n, size):
        # instances are built largest first, so the bound refuses the
        # largest one before any walk runs
        walked = count_walks(monkeypatch, "I")
        code, out, err = run(capsys, "verify", "--identity", ident,
                             "--max-n", str(max_n))
        assert (code, out, walked) == (3, "", [])
        assert err == f"qfib: family I oracle bound is 26, got n = {size}\n"

    def test_all_honours_max_m(self, capsys):
        _, out, _ = run(capsys, "verify", "--all", "--max-n", "5",
                        "--max-m", "1")
        t41 = next(r for r in json.loads(out) if r["id"] == "T4.1")
        _, alone, _ = run(capsys, "verify", "--identity", "T4.1",
                          "--max-n", "5", "--max-m", "1")
        assert [t41] == json.loads(alone)
        assert [i["indices"]["m"] for i in t41["instances"]] == [1] * 4
        # the cut on m shows in the range of the identities with an m index
        assert t41["range"] == {"arity": ["m", "n"], "start": 1, "max": 5,
                                "max_m": 1}
        t21 = next(r for r in json.loads(out) if r["id"] == "T2.1")
        assert "max_m" not in t21["range"]
        _, uncut, _ = run(capsys, "verify", "--identity", "T4.1",
                          "--max-n", "5")
        assert "max_m" not in json.loads(uncut)[0]["range"]

    @pytest.mark.parametrize("argv, ident", [
        (("--identity", "T4.1", "--max-m", "0"), "T4.1"),
        (("--identity", "T6.1", "--max-n", "1"), "T6.1"),
        (("--all", "--max-n", "1"), "T4.1")])
    def test_empty_range_is_usage_error(self, capsys, argv, ident):
        # a run that checked nothing does not report success
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"qfib: error: identity {ident} has no instance")

    @pytest.mark.parametrize("ident, want", [("T2.1", 0), ("T5.3", 1)])
    def test_closed_stdout_keeps_the_verdict(self, monkeypatch, tmp_path,
                                             ident, want):
        # the reader of stdout has gone: the exit code is still the
        # verdict, and fd 1 now leads to the null device
        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["verify", "--identity", ident, "--max-n", "4"]) == want
            os.write(fd, b"dropped")
        finally:
            os.close(fd)
        assert (tmp_path / "out").read_bytes() == b""


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

    def test_oracle_rows_from_one_walk(self, capsys, monkeypatch):
        walked = count_walks(monkeypatch, "M")
        code, out, _ = run(capsys, "table", "--family", "M", "--max-n", "12")
        assert (code, walked) == (0, [12])
        assert out.splitlines()[3] == "3\tx^3*q^3 + x*y*q^2 + x*y*q"

    def test_west_rows_from_one_walk_without_levels(self, capsys,
                                                    monkeypatch):
        # the oracle walks the generating tree once for every row; the
        # enumerate verb sorts the depth-n nodes of the same traversal
        walked = count_walks(monkeypatch, "W1")
        code, out, _ = run(capsys, "table", "--family", "W1", "--max-n", "10")
        assert (code, walked) == (0, [10])
        assert out.splitlines()[3] == "3\tq^3 + 2*q^2 + 2*q"
        code, out, _ = run(capsys, "enumerate", "--class", "W1", "--n", "5")
        assert code == 0
        assert out.split() == [permstats.perm_to_text(p) for p in
                               permstats.enumerate_avoiders(
                                   5, permstats.WEST_PATTERNS["W1"])]

    def test_split_walk_prints_each_row_once(self, capfd, monkeypatch):
        # the forked child leaves by os._exit and writes nothing to fd 1
        monkeypatch.setattr(qfib, "_oracle_cache", {})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert main(["table", "--family", "W1", "--max-n", "10"]) == 0
        out, err = capfd.readouterr()
        assert (len(forks), err) == (1, "")
        assert [line.split("\t")[0] for line in out.splitlines()] == [
            str(n) for n in range(11)]

    def test_memory_error_in_split_walk_exit_3(self, capsys, monkeypatch):
        # the parent's share of the split West walk runs out of memory: the
        # child is killed and reaped, and the CLI exits 3
        parent, grow = os.getpid(), permstats._grow

        def exhausted(sigma, sites, pats):
            if os.getpid() == parent and len(sigma) >= qfib.WEST_CUT:
                raise MemoryError
            return grow(sigma, sites, pats)
        monkeypatch.setattr(qfib, "_oracle_cache", {})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(permstats, "_grow", exhausted)
        code, out, err = run(capsys, "table", "--family", "W1",
                             "--max-n", "10")
        assert (code, out) == (3, "")
        assert err.startswith("qfib: ") and err.count("\n") == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_closed_stdout_exits_0(self):
        # the reader takes 100 bytes and closes the pipe: no traceback, and
        # the exit code is the verb's own
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        with subprocess.Popen(
                [sys.executable, "-m", "qfibonacci.cli", "table", "--family",
                 "D'", "--max-n", "40", "--method", "recursion"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_oracle_bound_checked_before_any_row(self, capsys):
        # the bound is checked before any row, so no walk runs
        code, out, err = run(capsys, "table", "--family", "W1",
                             "--max-n", "13")
        assert code == 3
        assert out == ""
        assert "bound" in err

    def test_recursion_workload_output_is_recorded(self):
        # every `recursion` invocation of the benchmark prints the bytes whose
        # digest perfbench/expected.json records, so rendering stays byte-exact
        workloads = _workloads()
        expected = json.loads((PERFBENCH / "expected.json").read_text())
        for argv in workloads.WORKLOADS["recursion"]:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(list(argv))
            digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            want = expected["recursion"][workloads.key(argv)]
            assert (code, digest) == (want["exit"], want["sha256"]), argv


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


class TestStartUp:
    def test_no_heavy_module_at_import(self):
        # -S keeps site-wide .pth files from preloading modules, so the
        # probe sees what importing the CLI loads on every call of any verb
        probe = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import qfibonacci.cli\n"
            "print(sorted(set(sys.argv[2:]) & set(sys.modules)))\n"
            "from qfibonacci.polyring import MultiPoly\n"
            "print(MultiPoly.parse('x^2*q + 3*y').evaluate(x=2, q=-1))\n"
            "sys.exit(qfibonacci.cli.main(\n"
            "    ['verify', '--identity', 'T2.1', '--max-n', '3']))\n")
        heavy = ("dataclasses", "inspect", "fractions", "decimal", "json",
                 "csv")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe, str(ROOT / "src"), *heavy],
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        loaded, value, report = proc.stdout.split("\n", 2)
        assert (loaded, value) == ("[]", "-1")
        assert [i["verdict"] for i in json.loads(report)[0]["instances"]] == [
            "holds"] * 4


# Option values for the exit-code property, good then malformed.  30 is past
# every enumeration bound (9, 12, 26) but cheap for a recursion; at 10 the
# West oracle walks are split over two processes (given two CPUs).  verify
# always gets a --max-n, and none past 4: its default ranges build oracles
# for seconds.
_SIZES = (("0", "1", "3", "5", "10", "30"), ("-1", "x", ""))
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
