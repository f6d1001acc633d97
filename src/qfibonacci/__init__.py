"""Exact q-Fibonacci distributions of permutation statistics over
pattern-restricted classes, with exhaustive oracles, the five structural
bijections, and an oracle-adjudicated identity verifier."""

from .polyring import MultiPoly
from .permstats import (
    contains_pattern,
    cycle_decomposition,
    descent_set,
    enumerate_avoiders,
    inv,
    layered_classify,
    maj,
    perm_from_word,
    block_structure,
    reversal,
    west_children,
    west_class,
)
from .blockwords import (
    classify_prefix,
    deinterleave,
    enumerate_words,
    interleave,
    morse_to_perm,
    morse_weight,
    weight_inv,
    weight_maj,
    weight_rb,
    word_length,
)
from .partitions import (
    enumerate_layered_matchings,
    enumerate_partitions_avoiding,
    eta,
    partition_contains,
    rb,
)
from .qfib import (
    closed_form_I,
    fibonacci,
    identity_catalog,
    qfib_oracle,
    qfib_recursive,
    verify_identity,
)

__all__ = [
    "MultiPoly",
    "block_structure",
    "classify_prefix",
    "closed_form_I",
    "contains_pattern",
    "cycle_decomposition",
    "deinterleave",
    "descent_set",
    "enumerate_avoiders",
    "enumerate_layered_matchings",
    "enumerate_partitions_avoiding",
    "enumerate_words",
    "eta",
    "fibonacci",
    "identity_catalog",
    "interleave",
    "inv",
    "layered_classify",
    "maj",
    "morse_to_perm",
    "morse_weight",
    "partition_contains",
    "perm_from_word",
    "qfib_oracle",
    "qfib_recursive",
    "rb",
    "reversal",
    "verify_identity",
    "weight_inv",
    "weight_maj",
    "weight_rb",
    "west_children",
    "west_class",
    "word_length",
]
