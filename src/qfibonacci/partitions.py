"""Set partitions in standard order, partition pattern containment, the
Wachs-White rb statistic, and the block-word bridge from reverse layered
matchings to the layered matching partitions.

A partition of [n] is a tuple of blocks, each block an ascending tuple of
integers, blocks ordered by increasing minimum; the empty partition is ().
Slash notation follows the usual convention: "12/3/45" (digits concatenated
for n <= 9, comma-separated inside blocks otherwise).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from . import blockwords, permstats

SetPartition = tuple[tuple[int, ...], ...]

#: Largest n accepted by the Bell-number scan in enumerate_partitions_avoiding.
PARTITION_FILTER_BOUND = 9


def make_partition(blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Normalize to standard order and validate cover of 1..n."""
    blks = tuple(tuple(sorted(b)) for b in blocks)
    blks = tuple(sorted(blks, key=lambda b: b[0] if b else 0))
    elems = [v for b in blks for v in b]
    if any(not b for b in blks):
        raise ValueError("empty block in partition")
    if sorted(elems) != list(range(1, len(elems) + 1)):
        raise ValueError(f"blocks {blks} do not partition 1..{len(elems)}")
    return blks


def standardize(blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Relabel arbitrary distinct integers by rank, giving the order
    isomorphic partition of [m] (e.g. 26/4 -> 13/2)."""
    blks = [tuple(b) for b in blocks]
    elems = sorted(v for b in blks for v in b)
    if len(set(elems)) != len(elems):
        raise ValueError("blocks are not disjoint")
    rank = {v: i + 1 for i, v in enumerate(elems)}
    return make_partition(tuple(rank[v] for v in b) for b in blks)


def partition_n(alpha: SetPartition) -> int:
    return sum(len(b) for b in alpha)


def partition_to_text(alpha: SetPartition) -> str:
    if not alpha:
        return ""
    n = partition_n(alpha)
    if n <= 9:
        return "/".join("".join(str(v) for v in b) for b in alpha)
    return "/".join(",".join(str(v) for v in b) for b in alpha)


def partition_from_text(text: str) -> SetPartition:
    s = text.strip()
    if not s:
        return ()
    blocks = []
    for chunk in s.split("/"):
        if "," in chunk:
            blocks.append(tuple(int(t) for t in chunk.split(",")))
        else:
            blocks.append(tuple(int(ch) for ch in chunk.strip()))
    return make_partition(blocks)


# -- containment ---------------------------------------------------------------


def contains_subpartition(beta: SetPartition, blocks: Iterable[Iterable[int]]) -> bool:
    """Literal containment: each given block is a subset of its own
    distinct block of beta.  This is a stronger relation than pattern
    containment, which only asks for an order isomorphic witness."""
    wanted = [frozenset(b) for b in blocks]
    hosts = [frozenset(b) for b in beta]
    for assignment in itertools.permutations(range(len(hosts)), len(wanted)):
        if all(w <= hosts[i] for w, i in zip(wanted, assignment)):
            return True
    return False


def partition_contains(beta: SetPartition, alpha: SetPartition) -> bool:
    """Pattern containment: some sub-partition of beta (a nonempty subset
    from each of a family of distinct blocks) is order isomorphic to alpha.
    """
    alpha = standardize(alpha)
    k = len(alpha)
    if k == 0:
        return True
    if k > len(beta) or partition_n(alpha) > partition_n(beta):
        return False
    sizes = [len(b) for b in alpha]
    target = frozenset(frozenset(b) for b in alpha)
    hosts = [tuple(b) for b in beta]
    used = [False] * len(hosts)
    chosen: list[tuple[int, ...]] = []

    def assign(j: int) -> bool:
        if j == k:
            fam = frozenset(frozenset(b) for b in standardize(chosen))
            return fam == target
        for i, host in enumerate(hosts):
            if used[i] or len(host) < sizes[j]:
                continue
            used[i] = True
            for sub in itertools.combinations(host, sizes[j]):
                chosen.append(sub)
                if assign(j + 1):
                    return True
                chosen.pop()
            used[i] = False
        return False

    return assign(0)


def partition_avoids_all(beta: SetPartition,
                         patterns: Iterable[SetPartition]) -> bool:
    return not any(partition_contains(beta, a) for a in patterns)


# -- enumeration ---------------------------------------------------------------


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """All partitions of [n] via restricted growth strings."""
    permstats.check_size(n)
    rgs = [0] * n

    def walk(i: int, nblocks: int) -> Iterator[SetPartition]:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(nblocks)]
            for pos, b in enumerate(rgs):
                blocks[b].append(pos + 1)
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(nblocks + 1):
            rgs[i] = b
            yield from walk(i + 1, max(nblocks, b + 1))

    yield from walk(0, 0)


def enumerate_partitions_avoiding(
        n: int, patterns: Iterable[SetPartition]) -> list[SetPartition]:
    """All partitions of [n] avoiding every pattern (Bell-number scan).
    Sizes beyond PARTITION_FILTER_BOUND are refused: the 13/2,123 class
    has enumerate_layered_matchings."""
    permstats.check_size(n, PARTITION_FILTER_BOUND, "partition filter")
    pats = [standardize(a) for a in patterns]
    return [b for b in enumerate_partitions(n) if partition_avoids_all(b, pats)]


def layer_block(left: int, size: int) -> tuple[int, ...]:
    """The block of size consecutive integers that follows left elements
    in a layered matching partition."""
    return tuple(range(left + 1, left + size + 1))


def partition_from_word(word: str) -> SetPartition:
    """Layered matching partition of a block word: letters consume
    consecutive integers left to right ('DSSDD' -> 12/3/4/56/78)."""
    return tuple(layer_block(left, size)
                 for left, size in permstats.word_layers(word))


def word_of_partition(alpha: SetPartition) -> str:
    """Block word of a layered matching partition, read off the block
    sizes; rejects anything partition_from_word does not build back from
    that word."""
    word = "".join("S" if len(b) == 1 else "D" for b in alpha)
    if partition_from_word(word) != tuple(alpha):
        raise ValueError(f"{alpha} is not a layered matching partition")
    return word


def enumerate_layered_matchings(n: int) -> list[SetPartition]:
    """Structural generator for the layered matchings of [n] (the
    partitions avoiding 13/2 and 123); F_n of them."""
    return [partition_from_word(w) for w in blockwords.enumerate_words(n)]


# -- statistics and the eta bijection ----------------------------------------


def rb(alpha: SetPartition) -> int:
    """Right-bigger pairs: (b, B_j) with b in an earlier block and
    max B_j > b.

    >>> rb(((1, 2), (3,), (4,), (5, 6), (7, 8)))
    15
    """
    total = 0
    for i, block in enumerate(alpha):
        for later in alpha[i + 1:]:
            m = later[-1]
            total += sum(1 for b in block if m > b)
    return total


def singleton_doubleton_counts(alpha: SetPartition) -> tuple[int, int]:
    s = sum(1 for b in alpha if len(b) == 1)
    d = sum(1 for b in alpha if len(b) == 2)
    return s, d


def eta(sigma: Sequence[int]) -> SetPartition:
    """The layered matching partition with the same block word as the
    reverse layered matching sigma; carries maj(sigma) over to rb."""
    word = permstats.block_structure(tuple(sigma), "reverse-layered")
    return partition_from_word(word)
