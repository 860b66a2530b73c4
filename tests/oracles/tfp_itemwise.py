"""Item-wise top-k closed itemset miner: the differential reference.

This is the TFP-style miner that ``repro.itemsets.tfp`` shipped before
it moved to item classes and transaction-space closure.  It walks one
item at a time: ``closure_of`` tests every item's tidset, the candidate
loop visits every item position, and ``support_of`` shifts through every
bit of a tidset.  It is kept unchanged so ``tests/test_itemsets.py`` can
check that the production miner returns the same itemsets, the same
``repr`` of every support and the same order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.itemsets.tfp import ClosedItemset, Item, Itemset


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
        for transaction, weight in zip(transactions, weights):
            key = frozenset(transaction)
            if key:
                counts[key] = counts.get(key, 0.0) + weight
    uniques = list(counts)
    return uniques, [counts[u] for u in uniques]


class _TopKPool:
    """Bounded pool of the k best (support, itemset) pairs seen so far."""

    def __init__(self, k: int) -> None:
        self._k = k
        self._heap: List[Tuple[float, int, Itemset]] = []
        self._tiebreak = itertools.count()

    def offer(self, itemset: Itemset, support: float) -> None:
        entry = (support, next(self._tiebreak), itemset)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, entry)
        elif support > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)

    def min_support(self) -> float:
        """Current support threshold: 0 until the pool is full."""
        if len(self._heap) < self._k:
            return 0.0
        return self._heap[0][0]

    def results(self) -> List[ClosedItemset]:
        ordered = sorted(self._heap, key=lambda e: (-e[0], sorted(map(repr, e[2]))))
        return [ClosedItemset(items, support) for support, _, items in ordered]


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

    def support_of(mask: int) -> float:
        total = 0.0
        tid = 0
        while mask:
            if mask & 1:
                total += counts[tid]
            mask >>= 1
            tid += 1
        return total

    full_mask = (1 << len(uniques)) - 1
    items = sorted(tid_of_item, key=lambda it: (support_of(tid_of_item[it]), repr(it)))
    order = {item: position for position, item in enumerate(items)}
    pool = _TopKPool(k)

    def closure_of(mask: int) -> Itemset:
        return frozenset(
            item for item, item_mask in tid_of_item.items()
            if mask & ~item_mask == 0
        )

    def explore(current_mask: int, closure: Itemset, core_position: int) -> None:
        """LCM-style DFS: each closed itemset is generated exactly once.

        An extension by item ``i`` (with order > ``core_position``) is kept
        only if it is *prefix-preserving*: the new closure must not acquire
        any item ordered before ``i`` that the old closure lacked (Uno et
        al.'s ppc-extension); this makes the search tree a spanning tree of
        the closed-itemset lattice.
        """
        if len(closure) >= min_length:
            pool.offer(closure, support_of(current_mask))
        for position in range(core_position + 1, len(items)):
            item = items[position]
            if item in closure:
                continue
            new_mask = current_mask & tid_of_item[item]
            if not new_mask:
                continue
            support = support_of(new_mask)
            if support < pool.min_support():
                continue  # TFP support raising: cannot enter the top-k
            new_closure = closure_of(new_mask)
            prefix_ok = all(
                other in closure
                for other in new_closure
                if order[other] < position
            )
            if prefix_ok:
                explore(new_mask, new_closure, position)

    explore(full_mask, closure_of(full_mask), -1)
    return pool.results()
