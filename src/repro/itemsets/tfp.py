"""Top-k closed frequent itemset mining with a minimum length (TFP [47]).

Algorithm 5 reduces NDS discovery to this problem: transactions are the
maximum-sized densest subgraphs of sampled worlds, items are graph nodes,
and the top-k closed node sets of size >= ``l_m`` with the highest supports
are exactly the top-k NDS estimates.

The miner is a tidset depth-first search with the two signature ingredients
of TFP: every explored itemset is extended to its *closure* (all items its
supporting transactions share), and a bounded top-k pool of closed itemsets
of length >= ``l_m`` *raises the minimum support* as it fills, pruning the
search.  Duplicate transactions are merged up-front with counts; a support
sums the counts in ascending tid order, memoised per tidset.

The search walks *item classes* in the transaction-space bitset form of
Eclat/CHARM (Zaki 2000/2002).  Items with equal tidsets form one class, and
classes are numbered by their first item under (support, repr).  Each
transaction keeps a bitset of the classes it contains, so a closure is the
AND of those bitsets over the tidset.  Candidates are the bits of
``~closure`` above the core class, and LCM's prefix-preserving test (Uno et
al. 2004) is one mask test.  This yields the closed sets of an item-by-item
walk in the same order, because that walk's prefix test always rejects a
class member after the first: its closure gains the earlier first member.
So the pool sees the same offers, and the top-k, ties included, is the
same.  The item-wise miner is kept as a differential oracle in
``tests/oracles/tfp_itemwise.py``, with :func:`naive_closed_itemsets`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple,
)

Item = Hashable
Itemset = FrozenSet[Item]


@dataclass(frozen=True)
class ClosedItemset:
    """A closed itemset with its (weighted) support."""

    items: Itemset
    support: float


def _deduplicate(
    transactions: Iterable[Iterable[Item]],
    weights: Optional[Sequence[float]] = None,
) -> Tuple[List[Itemset], List[float]]:
    """Collapse duplicate transactions, accumulating weights (default 1)."""
    counts: Dict[Itemset, float] = {}
    if weights is None:
        for transaction in transactions:
            key = frozenset(transaction)
            if key:
                counts[key] = counts.get(key, 0.0) + 1.0
    else:
        transactions = list(transactions)
        if len(transactions) != len(weights):
            raise ValueError("weights must be parallel to transactions")
        for transaction, weight in zip(transactions, weights):
            key = frozenset(transaction)
            if key:
                counts[key] = counts.get(key, 0.0) + weight
    uniques = list(counts)
    return uniques, [counts[u] for u in uniques]


class _TopKPool:
    """Bounded pool of the k best (support, closure key) pairs seen so far."""

    def __init__(self, k: int) -> None:
        self._k = k
        self._heap: List[Tuple[float, int, int]] = []
        self._tiebreak = itertools.count()

    def offer(self, key: int, support: float) -> None:
        entry = (support, next(self._tiebreak), key)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, entry)
        elif support > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)

    def min_support(self) -> float:
        """Current support threshold: 0 until the pool is full."""
        if len(self._heap) < self._k:
            return 0.0
        return self._heap[0][0]

    def results(self, items_of: Callable[[int], Itemset]) -> List[ClosedItemset]:
        found = [(support, items_of(key)) for support, _, key in self._heap]
        found.sort(key=lambda e: (-e[0], sorted(map(repr, e[1]))))
        return [ClosedItemset(items, support) for support, items in found]


def top_k_closed_itemsets(
    transactions: Iterable[Iterable[Item]],
    k: int,
    min_length: int = 1,
    weights: Optional[Sequence[float]] = None,
) -> List[ClosedItemset]:
    """Return the top-k closed itemsets of length >= ``min_length``.

    Ordered by decreasing support.  ``weights`` (parallel to
    ``transactions``) makes supports weighted sums -- Algorithm 5 passes the
    sampler weights so RSS-sampled transactions are combined correctly.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    uniques, counts = _deduplicate(transactions, weights)
    if not uniques:
        return []

    # vertical layout: item -> bitmask of supporting transactions
    tid_of_item: Dict[Item, int] = {}
    for tid, transaction in enumerate(uniques):
        bit = 1 << tid
        for item in transaction:
            tid_of_item[item] = tid_of_item.get(item, 0) | bit

    supports: Dict[int, float] = {}

    def support_of(mask: int) -> float:
        total = supports.get(mask)
        if total is None:
            total, rest = 0.0, mask
            while rest:
                low = rest & -rest
                total += counts[low.bit_length() - 1]
                rest ^= low
            supports[mask] = total
        return total

    # item classes (equal tidsets), numbered by first item in search order
    items = sorted(tid_of_item, key=lambda it: (support_of(tid_of_item[it]), repr(it)))
    class_size: Dict[int, int] = {}
    for item in items:
        class_size[tid_of_item[item]] = class_size.get(tid_of_item[item], 0) + 1
    class_masks, sizes = list(class_size), list(class_size.values())
    class_bit = {mask: 1 << cls for cls, mask in enumerate(class_masks)}
    all_classes = (1 << len(class_masks)) - 1
    # transaction space: tid -> bitset of the classes it contains
    classes_of_tid = [0] * len(uniques)
    for tid, transaction in enumerate(uniques):
        for item in transaction:
            classes_of_tid[tid] |= class_bit[tid_of_item[item]]
    pool = _TopKPool(k)

    def closure_of(mask: int) -> int:
        closure = all_classes
        while mask:
            low = mask & -mask
            closure &= classes_of_tid[low.bit_length() - 1]
            mask ^= low
        return closure

    def length_of(classes: int) -> int:
        length = 0
        while classes:
            low = classes & -classes
            length += sizes[low.bit_length() - 1]
            classes ^= low
        return length

    def explore(mask: int, closure: int, length: int, above: int) -> None:
        """LCM-style DFS: each closed itemset is generated exactly once.

        A class ``c`` in ``above`` extends it only if the new closure gains
        no class below ``c`` (Uno et al.'s prefix-preserving extension).
        """
        if length >= min_length:
            pool.offer(closure, support_of(mask))
        threshold = pool.min_support()
        candidates = (all_classes ^ closure) & above
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            new_mask = mask & class_masks[low.bit_length() - 1]
            if not new_mask or support_of(new_mask) < threshold:
                continue  # TFP support raising: cannot enter the top-k
            new_closure = closure_of(new_mask)
            gained = new_closure & ~closure
            if gained & (low - 1) == 0:
                explore(new_mask, new_closure, length + length_of(gained), -(low << 1))
                threshold = pool.min_support()

    root = closure_of((1 << len(uniques)) - 1)
    explore((1 << len(uniques)) - 1, root, length_of(root), all_classes)
    return pool.results(lambda closure: frozenset(
        item for item, mask in tid_of_item.items() if closure & class_bit[mask]
    ))


def all_closed_itemsets(
    transactions: Iterable[Iterable[Item]],
    min_length: int = 1,
    weights: Optional[Sequence[float]] = None,
) -> List[ClosedItemset]:
    """Return *all* closed itemsets of length >= ``min_length``.

    Convenience wrapper used by analyses that need the full closed lattice
    (e.g. the l_m sensitivity sweep of Fig. 20); equivalent to asking for a
    huge k.  The transactions are read once, so a generator works.
    """
    uniques, counts = _deduplicate(transactions, weights)
    bound = 1 << min(len(uniques), 60)
    return top_k_closed_itemsets(uniques, bound, min_length, counts)


def naive_closed_itemsets(
    transactions: Iterable[Iterable[Item]],
    min_length: int = 1,
) -> List[ClosedItemset]:
    """Brute-force oracle: closed itemsets are intersections of transactions.

    The closed sets of a transaction database are exactly the non-empty
    intersections of non-empty subsets of (distinct) transactions; this
    computes them by BFS over pairwise intersections.  Exponential in the
    worst case -- tests only.
    """
    uniques, counts = _deduplicate(transactions)
    closed: set = set(uniques)
    frontier = set(uniques)
    while frontier:
        additions: set = set()
        for candidate in frontier:
            for transaction in uniques:
                meet = candidate & transaction
                if meet and meet not in closed:
                    additions.add(meet)
        closed |= additions
        frontier = additions
    results = []
    for itemset in closed:
        if len(itemset) < min_length:
            continue
        support = sum(
            count for transaction, count in zip(uniques, counts)
            if itemset <= transaction
        )
        results.append(ClosedItemset(itemset, support))
    results.sort(key=lambda c: (-c.support, sorted(map(repr, c.items))))
    return results
