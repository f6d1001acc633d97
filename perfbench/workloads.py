"""The benchmark's workloads: fixed lists of `qfib` invocations.

A workload's seed only permutes the order of its invocations.  The set of
invocations, their outputs and the total work do not depend on it: the
library's caches key on (family, n), so every order builds the same
oracles and recursion values.

This module imports nothing from the package, so the worker can time the
package import without it being preloaded.
"""

from __future__ import annotations

import random

#: Identities of the catalog, in catalog order; `verify --identity <id>` at
#: its default range.  T5.3, T5.4 and T6.1 fail under every cataloged
#: reading, so the CLI's contract is exit 1 for them.
IDENTITIES = ("T2.1", "T2.2", "L2.3", "L2.4", "T3.1", "T3.3", "T4.1",
              "T4.3a", "T4.3b", "CASSINI", "T4.4", "T4.5", "T4.6", "T4.7",
              "T5.3", "T5.4", "T6.1", "T6.2", "T6.3")


def _table(family: str, max_n: int, method: str = "oracle") -> tuple[str, ...]:
    return ("table", "--family", family, "--max-n", str(max_n),
            "--method", method)


WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # Word oracles: iter_words -> perm_from_word -> inv/maj/cycles, or rb.
    "words": tuple(_table(f, 20) for f in ("I", "I'", "M", "M'", "C", "D", "D'"))
    + (_table("RB", 18),),
    # West oracles: gap insertion filtered by contains_pattern.
    "west": tuple(_table(f, 10) for f in ("W1", "W2", "W3")),
    # Printed recursions and the closed form: ring arithmetic only.
    "recursion": (
        _table("M'", 36, "recursion"),
        _table("D'", 60, "recursion"),
        _table("W1", 45, "recursion"),
        _table("W2", 45, "recursion"),
        _table("W3", 45, "recursion"),
        _table("C", 40, "recursion"),
        _table("I'", 200, "recursion"),
        _table("I", 200, "closed-form"),
    ),
    # The identity verifier, one identity per call, all in one process.
    "verify": tuple(("verify", "--identity", i) for i in IDENTITIES),
}


def ordered(workload: str, order_seed: int) -> list[tuple[str, ...]]:
    """The workload's invocations in the order fixed by the seed."""
    argvs = list(WORKLOADS[workload])
    random.Random(order_seed).shuffle(argvs)
    return argvs


def key(argv: tuple[str, ...]) -> str:
    """The name of an invocation in the expected-digest file."""
    return " ".join(argv)


def _fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


#: Traced counts that follow from the class sizes (F_0 = F_1 = 1).  A table
#: to --max-n N builds the oracles 0..N, and sum_{n<=N} F_n = F_{N+2} - 1.
#: Six of the seven word families build a permutation per word; C does not.
#: West level n has F_{2n-2} members, and a table to 10 expands levels 1..9.
#: A wrapper that misses a call site bound by `from ... import` shows here.
ANALYTIC_COUNTS: dict[str, dict[str, int]] = {
    "words": {
        "permstats.perm_from_word.calls": 6 * (_fib(22) - 1),
        "partitions.rb.calls": _fib(20) - 1,
        "blockwords.iter_words.words": 7 * (_fib(22) - 1) + _fib(20) - 1,
    },
    "west": {
        "permstats.west_children.calls":
            3 * sum(_fib(2 * n - 2) for n in range(1, 10)),
    },
}
