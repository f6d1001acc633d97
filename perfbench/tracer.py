"""Layer tracing from outside the package.

`install()` replaces module attributes (and `MultiPoly` methods) with
timing wrappers.  Every call site in the package looks these names up at
call time (`permstats.inv(p)`, a module-global `contains_pattern(...)`, an
operator on a `MultiPoly`), so the wrappers see every call; the analytic
count check in `workloads.ANALYTIC_COUNTS` catches a call site that binds a
name at import time instead.

Coarse calls become spans (name, start, end, parent, self time).  Hot leaf
calls, about 10^6 per run, are aggregated per parent span instead: calls,
busy time, self time and up to two work counts.  A call's self time is its
duration minus the time spent in wrapped calls it made.  Everything stays
in memory until `Tracer.dump()`.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

#: Spans: calls that happen at most a few thousand times per run.
SPANS = (
    ("cli", "main"),
    ("qfib", "qfib_oracle"),
    ("qfib", "qfib_recursive"),
    ("qfib", "closed_form_I"),
    ("qfib", "verify_identity"),
    ("permstats", "west_class"),
    ("partitions", "enumerate_layered_matchings"),
)


def _length(v) -> int:
    return len(v) if hasattr(v, "__len__") else 1


# Leaf calls and their work counts, computed from (args, result).
LEAVES = {
    ("blockwords", "morse_weight"): None,
    ("permstats", "perm_from_word"): None,
    ("permstats", "inv"): None,
    ("permstats", "maj"): None,
    ("permstats", "cycle_decomposition"): None,
    ("partitions", "rb"): None,
    # (hits, 0)
    ("permstats", "contains_pattern"): lambda a, r: (1 if r else 0, 0),
    # (children, gaps tried)
    ("permstats", "west_children"): lambda a, r: (len(r), len(a[0]) + 1),
}

#: MultiPoly methods, reported under one name per ring operation.
#: mul counts term products, add terms copied, substitute terms read,
#: canonical_text terms rendered.
POLY = {
    "__mul__": ("mul", lambda a, r: (_length(a[0]) * _length(a[1]), 0)),
    "__rmul__": ("mul", lambda a, r: (_length(a[0]) * _length(a[1]), 0)),
    "__add__": ("add", lambda a, r: (_length(a[0]) + _length(a[1]), 0)),
    "__radd__": ("add", lambda a, r: (_length(a[0]) + _length(a[1]), 0)),
    "substitute": ("substitute", lambda a, r: (len(a[0]), 0)),
    "canonical_text": ("canonical_text", lambda a, r: (len(a[0]), 0)),
    "__eq__": ("eq", None),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent, self]
        # (parent span, name) -> [calls, busy, self, w1, w2]
        self.leaves: dict[tuple[int, str], list] = defaultdict(
            lambda: [0, 0.0, 0.0, 0, 0])
        self._open = [-1]                    # ids of the open spans
        self._child = [0.0]                  # wrapped time inside each open call

    # -- wrappers ------------------------------------------------------

    def span(self, name: str, fn):
        spans, open_, child = self.spans, self._open, self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1], 0.0])
            open_.append(sid)
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                inner = child.pop()
                open_.pop()
                child[-1] += t1 - t0
                spans[sid][1:] = [t0, t1, spans[sid][3], t1 - t0 - inner]
        return wrapper

    def leaf(self, name: str, fn, work=None):
        leaves, open_, child = self.leaves, self._open, self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                child[-1] += dt
                rec = leaves[(open_[-1], name)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
            if work is not None:
                w1, w2 = work(args, result)
                rec[3] += w1
                rec[4] += w2
            return result
        return wrapper

    def word_generator(self, name: str, fn):
        """A recursive generator: only the outermost call is wrapped, and
        each of its advances counts as busy time; w1 counts items."""
        leaves, open_, child = self.leaves, self._open, self._child
        depth = [0]

        def drive(gen):
            while True:
                child.append(0.0)
                depth[0] += 1
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    depth[0] -= 1
                    inner = child.pop()
                    child[-1] += dt
                    rec = leaves[(open_[-1], name)]
                    rec[1] += dt
                    rec[2] += dt - inner
                rec[3] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            leaves[(open_[-1], name)][0] += 1
            return drive(fn(*args, **kwargs))
        return wrapper

    # -- installation and output ------------------------------------------

    def install(self) -> None:
        import importlib

        from qfibonacci.polyring import MultiPoly

        def mod(name):
            return importlib.import_module(f"qfibonacci.{name}")

        for m, f in SPANS:
            setattr(mod(m), f, self.span(f"{m}.{f}", getattr(mod(m), f)))
        for (m, f), work in LEAVES.items():
            setattr(mod(m), f, self.leaf(f"{m}.{f}", getattr(mod(m), f), work))
        blockwords = mod("blockwords")
        blockwords.iter_words = self.word_generator("blockwords.iter_words",
                                                    blockwords.iter_words)
        for attr, (op, work) in POLY.items():
            setattr(MultiPoly, attr,
                    self.leaf(f"polyring.{op}", getattr(MultiPoly, attr), work))

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[parent, name, *rec]
                       for (parent, name), rec in self.leaves.items()],
        }


# -- per-layer metrics from a dumped trace ----------------------------------

MODULES = ("cli", "qfib", "blockwords", "permstats", "partitions", "polyring")


def _totals(trace: dict) -> dict[str, list]:
    """name -> [calls, busy, self, w1, w2]; a span's busy time counts only
    at its outermost activation, so recursive calls are not counted twice."""
    spans = trace["spans"]
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
    for name, t0, t1, parent, self_s in spans:
        rec = out[name]
        rec[0] += 1
        rec[2] += self_s
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec[1] += t1 - t0
    for parent, name, calls, busy, self_s, w1, w2 in trace["leaves"]:
        rec = out[name]
        for i, v in enumerate((calls, busy, self_s, w1, w2)):
            rec[i] += v
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _oracle_miss_ratio(trace: dict) -> float:
    """Share of qfib_oracle calls that enumerated a class: those with a
    class generator (iter_words, west_class, enumerate_layered_matchings)
    directly under them."""
    spans = trace["spans"]
    oracle = {sid for sid, s in enumerate(spans) if s[0] == "qfib.qfib_oracle"}
    enumerated = {s[3] for s in spans
                  if s[0] in ("permstats.west_class",
                              "partitions.enumerate_layered_matchings")}
    enumerated |= {parent for parent, name, *_ in trace["leaves"]
                   if name == "blockwords.iter_words"}
    return _ratio(len(oracle & enumerated), len(oracle))


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced sample, as name -> (value, unit)."""
    t = _totals(trace)

    def get(name: str, i: int) -> float:
        return t[name][i]

    def calls(name):
        return get(name, 0), "count"

    def busy(name):
        return get(name, 1), "s"

    def self_(name):
        return get(name, 2), "s"

    m: dict[str, tuple[float, str]] = {}
    m["cli.main.self_s"] = self_("cli.main")
    o = "qfib.qfib_oracle"
    m[f"{o}.calls"] = calls(o)
    m[f"{o}.miss_ratio"] = (_oracle_miss_ratio(trace), "ratio")
    m[f"{o}.self_s"] = self_(o)
    for name in ("qfib.qfib_recursive", "qfib.verify_identity"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_(name)
    m["qfib.closed_form_I.busy_s"] = busy("qfib.closed_form_I")
    m["blockwords.iter_words.words"] = (get("blockwords.iter_words", 3), "count")
    m["blockwords.iter_words.busy_s"] = busy("blockwords.iter_words")
    for name in ("blockwords.morse_weight", "permstats.perm_from_word",
                 "permstats.inv", "permstats.maj",
                 "permstats.cycle_decomposition", "partitions.rb"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    m["partitions.enumerate_layered_matchings.busy_s"] = busy(
        "partitions.enumerate_layered_matchings")
    m["permstats.west_class.busy_s"] = busy("permstats.west_class")
    wc, cp = "permstats.west_children", "permstats.contains_pattern"
    m[f"{wc}.calls"] = calls(wc)
    m[f"{wc}.accept_ratio"] = (_ratio(get(wc, 3), get(wc, 4)), "ratio")
    m[f"{cp}.calls"] = calls(cp)
    m[f"{cp}.busy_s"] = busy(cp)
    m[f"{cp}.hit_ratio"] = (_ratio(get(cp, 3), get(cp, 0)), "ratio")
    m[f"{cp}.calls_per_member"] = (_ratio(get(cp, 0), get(wc, 3)), "ratio")
    for op, work in (("mul", "term_products"), ("add", "terms_copied"),
                     ("substitute", "terms_in"), ("canonical_text", "terms"),
                     ("eq", None)):
        name = f"polyring.{op}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        if work:
            m[f"{name}.{work}"] = (get(name, 3), "count")
    for module in MODULES:
        m[f"{module}.self_s"] = (sum(rec[2] for name, rec in t.items()
                                     if name.split(".")[0] == module), "s")
    return m
