"""Command line behaviors: output formats, exit codes, validation."""

import csv
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

from qfibonacci import cli, permstats, qfib
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

    @pytest.mark.parametrize("wclass, digest", [
        ("W1", "04830fe232710f2b099610779e22c810"
               "407940196f9b17bc847aa7ad5e526636"),
        ("W2", "1c5f917fc61eb3f453d0f2dfc0826708"
               "bfb1b286715e0c08d135eda1c44c55f0"),
        ("W3", "0bfad73ecb6592f891a3e5f56b5ce7d2"
               "6ce63fde43238783b95ec974f89802d6")])
    def test_west_class_output_unchanged(self, capsys, wclass, digest):
        # the SHA-256 of the members at size 10, as printed when the tree
        # was walked depth first, one node at a time
        code, out, _ = run(capsys, "enumerate", "--class", wclass, "--n", "10")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bound(self, capsys):
        code, _, err = run(capsys, "enumerate", "--class", "123,132,213",
                           "--n", "12")
        assert code == 3

    @pytest.mark.parametrize("argv, forms", [
        (("enumerate", "--class", "D"), ("digit string", "W1, W2 or W3")),
        (("distribution", "--patterns", "x"), ("digit string",))])
    def test_pattern_not_a_permutation(self, capsys, argv, forms):
        # the message names the token and the forms accepted, not int()'s
        code, out, err = run(capsys, *argv, "--n", "3")
        assert (code, out) == (2, "")
        assert f"{argv[2]!r} is not a permutation" in err
        assert all(form in err for form in forms)
        assert "invalid literal" not in err and err.count("\n") == 1

    def test_west_bound(self, capsys):
        # the shared West traversal refuses the size before any node
        code, out, err = run(capsys, "enumerate", "--class", "W3", "--n", "13")
        assert (code, out) == (3, "")
        assert "bound" in err

    @pytest.mark.parametrize("written, plain", [
        ("1,3,2", "132"), ("1,3,2;123", "132,123"), ("1, 3, 2;", "132")])
    def test_patterns_written_with_commas(self, capsys, written, plain):
        expected = run(capsys, "enumerate", "--class", plain, "--n", "5")
        assert expected[0] == 0 and expected[1]
        assert run(capsys, "enumerate", "--class", written,
                   "--n", "5") == expected

    @pytest.mark.parametrize("value", ["", " , ", ";"])
    def test_no_pattern_is_usage_error(self, capsys, value):
        code, out, err = run(capsys, "enumerate", "--class", value,
                             "--n", "3")
        assert (code, out) == (2, "")
        assert "no pattern" in err and "W1, W2 or W3" in err


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

    @pytest.mark.parametrize("kind, written, plain", [
        ("partitions", "1,3/2;123", "13/2,123"),
        ("partitions", "1,3/2", "13/2"),
        ("perms", "1,3,2", "132"),
        ("perms", "1,3,2;2,1,3", "132,213")])
    def test_patterns_written_with_commas(self, capsys, kind, written, plain):
        # partition_to_text and perm_from_text use commas inside a pattern
        def dist(patterns):
            return run(capsys, "distribution", "--kind", kind, "--patterns",
                       patterns, "--stat", "rb" if kind == "partitions"
                       else "inv", "--n", "6")
        expected = dist(plain)
        assert expected[0] == 0 and expected[1]
        assert dist(written) == expected

    @pytest.mark.parametrize("kind, stat", [("perms", "inv"),
                                            ("partitions", "rb")])
    @pytest.mark.parametrize("value", ["", ",", " ; "])
    def test_no_pattern_is_usage_error(self, capsys, kind, stat, value):
        # not every member of S_n or of the set partitions of [n]
        code, out, err = run(capsys, "distribution", "--kind", kind,
                             "--patterns", value, "--stat", stat, "--n", "3")
        assert (code, out) == (2, "")
        assert f"no pattern in {value!r}" in err

    def test_comma_patterns_in_a_comma_list(self, capsys):
        # two patterns written with commas and separated by one: the
        # message says how to separate them
        code, out, err = run(capsys, "distribution", "--kind", "partitions",
                             "--patterns", "1,3/2,1,2,3", "--stat", "rb",
                             "--n", "4")
        assert (code, out) == (2, "")
        assert "';'" in err and err.count("\n") == 1


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

    def test_empty_range_refused_before_any_oracle(self, capsys, monkeypatch):
        # T4.1 is the first identity with an m index; the six before it
        # would fill the oracle cache if their reports came first
        monkeypatch.setattr(qfib, "_oracle_cache", {})
        code, out, err = run(capsys, "verify", "--all", "--max-n", "12",
                             "--max-m", "0")
        assert (code, out) == (2, "")
        assert err.startswith("qfib: error: identity T4.1 has no instance")
        assert qfib._oracle_cache == {}

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
        assert main(["table", "--family", "I", "--max-n", "22"]) == 0
        out, err = capfd.readouterr()
        assert (len(forks), err) == (1, "")
        assert [line.split("\t")[0] for line in out.splitlines()] == [
            str(n) for n in range(23)]

    def test_memory_error_in_split_walk_exit_3(self, capsys, monkeypatch):
        # the parent's share of the split word walk runs out of memory: the
        # child is killed and reaped, and the CLI exits 3
        parent, drawn = os.getpid(), permstats._drawn

        def exhausted(descend, roots, n, tickets, tallies):
            if os.getpid() == parent:
                raise MemoryError
            return drawn(descend, roots, n, tickets, tallies)
        monkeypatch.setattr(qfib, "_oracle_cache", {})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(permstats, "_drawn", exhausted)
        code, out, err = run(capsys, "table", "--family", "I",
                             "--max-n", "22")
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


#: A fresh process's renderings of a family's recursion rows 0..max_n, as
#: [text, latex] per row, each rendered with every factor cache emptied
#: first, so that no row reads a string that another row built.
_FRESH_ROWS = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from qfibonacci import polyring, qfib\n"
    "rows = []\n"
    "for n in range(int(sys.argv[3]) + 1):\n"
    "    p, texts = qfib.qfib_recursive(sys.argv[2], n), []\n"
    "    for latex in (False, True):\n"
    "        for cache in polyring._PLAIN + polyring._LATEX:\n"
    "            cache.clear()\n"
    "        texts.append(p.canonical_text(latex=latex))\n"
    "    rows.append(texts)\n"
    "print(json.dumps(rows))\n")


class TestTableRendering:
    """Table rows come from the process's factor caches, shared by every
    row and call, and read exactly as each row rendered alone."""

    @pytest.mark.parametrize("family, max_n", [("D'", 30), ("W1", 20)])
    def test_rows_equal_fresh_renderings(self, capsys, family, max_n):
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_ROWS, str(ROOT / "src"), family,
             str(max_n)], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        texts, latexes = zip(*json.loads(proc.stdout))
        argv = ("table", "--family", family, "--max-n", str(max_n),
                "--method", "recursion")
        assert run(capsys, *argv) == (0, "".join(
            f"{n}\t{t}\n" for n, t in enumerate(texts)), "")
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["n", "polynomial"], *([str(n), t] for n, t in enumerate(texts))]
        code, out, _ = run(capsys, *argv, "--format", "latex")
        assert code == 0
        assert out.splitlines()[2:-1] == [
            rf"{n} & ${t}$ \\" for n, t in enumerate(latexes)]

    @pytest.mark.parametrize("fmt, digest", [
        ("latex", "5829c63d92c57796667660375635908698dc98bb7a11cb5d2b85a172"
                  "cdb8570b"),
        ("csv", "52349a9be7a3b783c39df8f4d2d7b4406be45da398f9cc4f7f7e8302"
                "772a6aa7")])
    def test_d_prime_output_unchanged(self, capsys, fmt, digest):
        # the SHA-256 of the table as printed when each call built its own
        # factor strings; perfbench/expected.json pins text output only
        code, out, _ = run(capsys, "table", "--family", "D'", "--max-n", "20",
                           "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
                 "csv", "array")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe, str(ROOT / "src"), *heavy],
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        loaded, value, report = proc.stdout.split("\n", 2)
        assert (loaded, value) == ("[]", "-1")
        assert [i["verdict"] for i in json.loads(report)[0]["instances"]] == [
            "holds"] * 4


class TestSharedParser:
    """main builds one parser per process, on its first call."""

    def test_not_built_at_import(self):
        probe = ("import sys\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "import qfibonacci.cli\n"
                 "print(qfibonacci.cli._parser)\n")
        proc = subprocess.run([sys.executable, "-S", "-c", probe,
                               str(ROOT / "src")],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "None\n", "")

    def test_one_parser_for_many_calls(self, capsys, monkeypatch):
        built = []
        fresh = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or fresh())
        codes = [run(capsys, *argv)[0] for argv in (
            ("qfib", "--family", "I", "--n", "4"),
            ("qfib", "--family", "I", "--n", "many"),
            ("table", "--family", "W1", "--max-n", "3"),
            ("distribution", "--patterns", "123", "--n", "4"),
            ("verify", "--identity", "T2.1", "--max-n", "3"))]
        assert codes == [0, 2, 0, 0, 0]
        assert len(built) == 1

    @pytest.mark.parametrize("bad", [
        ("verify", "--identity", "T2.1", "--all"),
        ("verify", "--identity", "T2.1", "--max-n", "x"),
        ("table", "--family", "I", "--max-n", "2", "--format", "html"),
        ("qfib", "--family", "I", "--n"),
        ("frobnicate",)])
    @pytest.mark.parametrize("good", [
        ("verify", "--identity", "T2.1", "--max-n", "3"),
        ("qfib", "--family", "I", "--n", "4"),
        ("table", "--family", "I", "--max-n", "3", "--format", "csv")])
    def test_usage_error_leaves_no_trace(self, capsys, monkeypatch, bad,
                                         good):
        monkeypatch.setattr(cli, "_parser", None)
        alone = run(capsys, *good)
        monkeypatch.setattr(cli, "_parser", None)
        assert run(capsys, *bad)[:2] == (2, "")
        assert run(capsys, *good) == alone


# Option values for the exit-code property, good then malformed.  30 is past
# every enumeration bound (9, 12, 26) but cheap for a recursion; 10 walks
# every West oracle in one process, and no word walk splits below 22.  verify
# always gets a --max-n, and none past 4: its default ranges build oracles
# for seconds.
_SIZES = (("0", "1", "3", "5", "10", "30"), ("-1", "x", ""))
_FAMILIES = (qfib.FAMILIES, ("Z",))
_METHODS = (("oracle", "recursion", "closed-form"), ("guess",))
_OPTIONS = {
    "enumerate": (("--class", ("123,132,213", "W1", "W3", "12",
                               "1,3,2;123"),
                   ("W9", "1x", "")),
                  ("--n", *_SIZES), ("--format", ("text", "json"), ("xml",))),
    "distribution": (("--kind", ("perms", "partitions"), ("sets",)),
                     ("--patterns", ("123,132,213", "13/2,123", "12",
                                     "1,3/2;123"), ("?",)),
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
