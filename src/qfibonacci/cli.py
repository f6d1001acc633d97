"""Command line front end.

Verbs:
  enumerate     members of a pattern-restricted class (or W1/W2/W3)
  distribution  q-distribution of a statistic over a filtered class
  qfib          a q-Fibonacci family polynomial by oracle / recursion /
                closed form
  verify        identity verification reports (JSON)
  table         polynomial table for n = 0..max-n (text, CSV or LaTeX)

Exit codes: 0 success (verify: every instance holds under some cataloged
reading), 1 verification found an instance failing all readings, 2 usage
error (verify: also an index range with no instance), 3 bound, memory or
exponent range exceeded.  Data goes to stdout, diagnostics to stderr; a
reader that closes stdout early drops the rest of the data and leaves the
exit code as it was.  There is no configuration beyond the flags.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections import Counter
from typing import Iterable, Sequence

from . import partitions, permstats, qfib
from .permstats import BoundExceeded
from .polyring import MultiPoly

USAGE_EXIT = 2
BOUND_EXIT = 3

_STATS = {
    "inv": permstats.inv,
    "maj": permstats.maj,
    "des": lambda p: len(permstats.descent_set(p)),
    "cycles": lambda p: permstats.cycle_decomposition(p).cycle_count,
}


def _size(text: str) -> int:
    """argparse type of --n, --max-n and --max-m: a nonnegative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"size must be nonnegative, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfib",
        description="Pattern-restricted permutation classes, their "
                    "q-Fibonacci distributions, and the identity verifier.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_enum = sub.add_parser("enumerate", parents=[], help="list class members")
    p_enum.add_argument("--class", dest="cls", required=True,
                        help="comma-separated patterns (e.g. 123,132,213) or "
                             "a West class name W1/W2/W3")
    p_enum.add_argument("--n", type=_size, required=True)
    p_enum.add_argument("--format", choices=("text", "json"), default="text")

    p_dist = sub.add_parser("distribution",
                            help="q-distribution of a statistic over a class")
    p_dist.add_argument("--kind", choices=("perms", "partitions"),
                        default="perms")
    p_dist.add_argument("--patterns", required=True,
                        help="comma-separated patterns; permutations as digit "
                             "strings, partitions in slash notation separated "
                             "by commas (e.g. '13/2,123')")
    p_dist.add_argument("--stat", default="inv",
                        help="inv, maj, des, cycles (perms) or rb (partitions)")
    p_dist.add_argument("--n", type=_size, required=True)
    p_dist.add_argument("--format", choices=("text", "json"), default="text")

    p_qfib = sub.add_parser("qfib", help="a q-Fibonacci family polynomial")
    p_qfib.add_argument("--family", required=True,
                        help=f"one of {', '.join(qfib.FAMILIES)}")
    p_qfib.add_argument("--n", type=_size, required=True)
    p_qfib.add_argument("--method",
                        choices=("oracle", "recursion", "closed-form"),
                        default="oracle")
    p_qfib.add_argument("--format", choices=("text", "json", "latex"),
                        default="text")

    p_ver = sub.add_parser("verify", help="verify cataloged identities")
    group = p_ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--identity", help="catalog id, e.g. T4.3a")
    group.add_argument("--all", action="store_true",
                       help="verify the whole catalog")
    group.add_argument("--list", action="store_true",
                       help="print the identity catalog")
    p_ver.add_argument("--max-n", type=_size, default=None)
    p_ver.add_argument("--max-m", type=_size, default=None)

    p_tab = sub.add_parser("table",
                           help="family polynomials for n = 0..max-n")
    p_tab.add_argument("--family", required=True)
    p_tab.add_argument("--max-n", type=_size, required=True)
    p_tab.add_argument("--method",
                       choices=("oracle", "recursion", "closed-form"),
                       default="oracle")
    p_tab.add_argument("--format", choices=("text", "csv", "latex"),
                       default="text")
    return parser


def _parse_perm_patterns(text: str) -> list[tuple[int, ...]]:
    pats = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        pats.append(permstats.perm_from_text(tok))
    return pats


def _poly_payload(p: MultiPoly, fmt: str, **meta) -> str:
    if fmt == "json":
        import json
        return json.dumps({**meta, "text": p.canonical_text(),
                           "terms": p.to_json_terms()})
    if fmt == "latex":
        return p.canonical_text(latex=True)
    return p.canonical_text()


def _family_poly(family: str, n: int, method: str) -> MultiPoly:
    if method == "closed-form":
        qfib.lookup_family(family)     # an unknown name is reported first
        if family != "I":
            raise ValueError("closed form is available for family I only")
        return qfib.closed_form_I(n)
    if method == "recursion":
        return qfib.qfib_recursive(family, n)
    return qfib.qfib_oracle(family, n)


# Each verb returns its exit code and its output, as pieces of text that
# main writes in order.


def _cmd_enumerate(args) -> tuple[int, Iterable[str]]:
    cls = args.cls.strip()
    if cls in permstats.WEST_PATTERNS:
        members = permstats.west_class(args.n, cls)
    else:
        members = permstats.enumerate_avoiders(args.n, _parse_perm_patterns(cls))
    if args.format == "json":
        import json
        return 0, [json.dumps([list(p) for p in members]) + "\n"]
    return 0, (permstats.perm_to_text(p) + "\n" for p in members)


def _cmd_distribution(args) -> tuple[int, Iterable[str]]:
    n = args.n
    if args.kind == "partitions":
        if args.stat != "rb":
            raise ValueError("partition distributions support --stat rb")
        pats = [partitions.partition_from_text(t) for t in
                args.patterns.split(",") if t.strip()]
        members = partitions.enumerate_partitions_avoiding(n, pats)
        stat = partitions.rb
    else:
        if args.stat not in _STATS:
            raise ValueError(f"unknown statistic {args.stat!r}; choose from "
                             f"{', '.join(sorted(_STATS))} (or rb with "
                             "--kind partitions)")
        stat = _STATS[args.stat]
        members = permstats.enumerate_avoiders(n, _parse_perm_patterns(args.patterns))
    tally = Counter(stat(m) for m in members)
    poly = MultiPoly({(0, 0, e, ()): c for e, c in tally.items()})
    return 0, [_poly_payload(poly, args.format, kind=args.kind,
                             stat=args.stat, n=n, size=len(members)) + "\n"]


def _cmd_qfib(args) -> tuple[int, Iterable[str]]:
    poly = _family_poly(args.family, args.n, args.method)
    return 0, [_poly_payload(poly, args.format, family=args.family, n=args.n,
                             method=args.method) + "\n"]


def _cmd_verify(args) -> tuple[int, Iterable[str]]:
    import json
    if args.list:
        return 0, [json.dumps(qfib.identity_catalog(), indent=2) + "\n"]
    if args.all:
        reports = qfib.verify_all(max_n=args.max_n, max_m=args.max_m)
    else:
        reports = [qfib.verify_identity(args.identity, max_n=args.max_n,
                                        max_m=args.max_m)]
    return (0 if all(r.holds for r in reports) else 1,
            [json.dumps([r.to_json() for r in reports], indent=2) + "\n"])


def _cmd_table(args) -> tuple[int, Iterable[str]]:
    # largest first: the bound is checked before any row, and one oracle
    # walk to --max-n serves the smaller sizes
    rows = [(n, _family_poly(args.family, n, args.method))
            for n in range(args.max_n, -1, -1)][::-1]
    if args.format == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "polynomial"])
        for n, poly in rows:
            writer.writerow([n, poly.canonical_text()])
        return 0, [buf.getvalue()]
    if args.format == "latex":
        return 0, [r"\begin{tabular}{rl}" "\n",
                   rf"$n$ & $F_n^{{{args.family}}}$ \\ \hline" "\n",
                   *(rf"{n} & ${poly.canonical_text(latex=True)}$ \\" "\n"
                     for n, poly in rows),
                   r"\end{tabular}" "\n"]
    return 0, (f"{n}\t{poly.canonical_text()}\n" for n, poly in rows)


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "distribution": _cmd_distribution,
    "qfib": _cmd_qfib,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        code, output = _COMMANDS[args.verb](args)
        try:
            for text in output:
                sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone: the rest of the output goes to /dev/null,
            # so that the flush at exit raises nothing either (see "Note on
            # SIGPIPE" in the signal module's documentation)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except BoundExceeded as exc:
        print(f"qfib: {exc}", file=sys.stderr)
        return BOUND_EXIT
    except MemoryError:
        print("qfib: out of memory; try a smaller size", file=sys.stderr)
        return BOUND_EXIT
    except OverflowError as exc:
        print(f"qfib: {exc}", file=sys.stderr)
        return BOUND_EXIT
    except ValueError as exc:
        print(f"qfib: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
