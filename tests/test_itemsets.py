"""Tests for TFP-style top-k closed frequent itemset mining."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemsets.tfp import (
    all_closed_itemsets,
    naive_closed_itemsets,
    top_k_closed_itemsets,
)

from .oracles import tfp_itemwise


class TestBasics:
    def test_empty_database(self):
        assert top_k_closed_itemsets([], 3) == []

    def test_single_transaction(self):
        result = top_k_closed_itemsets([["a", "b"]], 5)
        assert len(result) == 1
        assert result[0].items == frozenset({"a", "b"})
        assert result[0].support == 1.0

    def test_textbook_example(self):
        transactions = [
            ["a", "b", "c"],
            ["a", "b"],
            ["a", "c"],
            ["a"],
        ]
        closed = {c.items: c.support for c in all_closed_itemsets(transactions)}
        assert closed == {
            frozenset({"a"}): 4.0,
            frozenset({"a", "b"}): 2.0,
            frozenset({"a", "c"}): 2.0,
            frozenset({"a", "b", "c"}): 1.0,
        }

    def test_min_length_filter(self):
        transactions = [["a", "b", "c"], ["a", "b"], ["a"]]
        result = all_closed_itemsets(transactions, min_length=2)
        assert all(len(c.items) >= 2 for c in result)
        assert frozenset({"a", "b"}) in {c.items for c in result}

    def test_top_k_ordering(self):
        transactions = [["a"], ["a"], ["a", "b"], ["b", "c"]]
        result = top_k_closed_itemsets(transactions, 2)
        supports = [c.support for c in result]
        assert supports == sorted(supports, reverse=True)
        assert result[0].items == frozenset({"a"})

    def test_weighted_supports(self):
        transactions = [["a", "b"], ["a"]]
        weights = [0.25, 0.5]
        result = all_closed_itemsets(transactions, weights=weights)
        by_items = {c.items: c.support for c in result}
        assert by_items[frozenset({"a"})] == pytest.approx(0.75)
        assert by_items[frozenset({"a", "b"})] == pytest.approx(0.25)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            top_k_closed_itemsets([["a"]], 0)
        with pytest.raises(ValueError):
            top_k_closed_itemsets([["a"]], 1, min_length=0)

    def test_all_closed_itemsets_reads_a_generator_once(self):
        transactions = [["a", "b", "c"], ["a", "b"], ["a", "c"], ["a"]]
        from_list = all_closed_itemsets(transactions, weights=[1, 2, 3, 4])
        from_generator = all_closed_itemsets(
            (t for t in transactions), weights=[1, 2, 3, 4]
        )
        assert from_generator == from_list
        assert len(from_list) == 4
        assert all_closed_itemsets(iter(t) for t in transactions) == (
            all_closed_itemsets(transactions)
        )

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 1.0, 1.0]])
    def test_weights_must_be_parallel(self, weights):
        transactions = [["a", "b"]] * 3
        with pytest.raises(ValueError, match="parallel"):
            top_k_closed_itemsets(transactions, 2, weights=weights)
        with pytest.raises(ValueError, match="parallel"):
            all_closed_itemsets(transactions, weights=weights)


class TestAgainstOracle:
    def test_random_databases(self, rng):
        for trial in range(60):
            n_items = rng.randint(2, 7)
            transactions = [
                rng.sample(range(n_items), rng.randint(1, n_items))
                for _ in range(rng.randint(1, 10))
            ]
            for min_length in (1, 2):
                oracle = {
                    (c.items, c.support)
                    for c in naive_closed_itemsets(transactions, min_length)
                }
                mined = {
                    (c.items, c.support)
                    for c in all_closed_itemsets(transactions, min_length)
                }
                assert mined == oracle, trial

    def test_top_k_supports_match_oracle(self, rng):
        for trial in range(30):
            n_items = rng.randint(2, 6)
            transactions = [
                rng.sample(range(n_items), rng.randint(1, n_items))
                for _ in range(rng.randint(2, 9))
            ]
            oracle = naive_closed_itemsets(transactions, 1)
            for k in (1, 2, 4):
                mined = top_k_closed_itemsets(transactions, k, 1)
                want = sorted((c.support for c in oracle), reverse=True)[:k]
                assert [c.support for c in mined] == want


class TestClosednessInvariants:
    @given(
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=5),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_results_are_closed(self, transactions):
        """No returned itemset has a superset with equal support."""
        mined = all_closed_itemsets(transactions)
        by_items = {c.items: c.support for c in mined}
        counts: dict = {}
        for t in transactions:
            if t:
                key = frozenset(t)
                counts[key] = counts.get(key, 0) + 1
        all_items = {i for t in counts for i in t}
        for items, sup in by_items.items():
            for extra in all_items - items:
                superset_support = sum(
                    c for t, c in counts.items() if items | {extra} <= t
                )
                assert superset_support < sup

    @given(
        st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=4),
            min_size=1, max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_every_transaction_is_covered(self, transactions):
        """Each distinct transaction itself is a closed itemset."""
        mined = {c.items for c in all_closed_itemsets(transactions)}
        for transaction in transactions:
            if transaction:
                closure_members = [
                    c for c in mined if frozenset(transaction) <= c
                ]
                assert closure_members, transaction


def _as_bytes(mined):
    """Everything a caller can observe: items in order, support repr, rank."""
    return [(list(c.items), repr(c.support)) for c in mined]


def _assert_same_as_itemwise(transactions, k, min_length, weights=None):
    mined = top_k_closed_itemsets(transactions, k, min_length, weights)
    reference = tfp_itemwise.top_k_closed_itemsets(
        transactions, k, min_length, weights
    )
    assert _as_bytes(mined) == _as_bytes(reference)
    return mined


RSS_WEIGHTS = (1 / 3, 0.1, 1e-9, 0.7, 2.5, 1.0)


class TestItemwiseDifferential:
    """The class-wise miner against the item-wise one it replaced."""

    def test_random_databases(self, rng):
        for _ in range(300):
            n_items = rng.randint(1, 9)
            transactions = [
                rng.sample(range(n_items), rng.randint(0, n_items))
                for _ in range(rng.randint(1, 12))
            ]
            weights = [rng.choice(RSS_WEIGHTS) for _ in transactions]
            k, min_length = rng.randint(1, 12), rng.randint(1, 4)
            _assert_same_as_itemwise(transactions, k, min_length)
            _assert_same_as_itemwise(transactions, k, min_length, weights)

    def test_tie_heavy_pool(self):
        # every pair {i, i+1} sits in exactly two transactions, so the pool
        # fills with equal supports and offers tie at the threshold
        transactions = [[i, (i + 1) % 8] for i in range(8)] * 2
        transactions += [[i, i + 8, i + 16] for i in range(8)]
        for k in (1, 3, 5, 8, 9, 20):
            for min_length in (1, 2, 3):
                _assert_same_as_itemwise(transactions, k, min_length)
                _assert_same_as_itemwise(
                    transactions, k, min_length, [0.1] * len(transactions)
                )

    def test_k_larger_than_closed_set_count(self, rng):
        transactions = [rng.sample(range(6), 3) for _ in range(7)]
        closed = naive_closed_itemsets(transactions)
        mined = _assert_same_as_itemwise(transactions, len(closed) + 10, 1)
        assert len(mined) == len(closed)

    def test_bench_shaped_database(self, rng):
        # the shape of a warm NDS query on the 500-node bench graph: a dozen
        # distinct densest subgraphs of 200-280 nodes over ~430 nodes, with
        # a shared core so many nodes share a tidset
        core = rng.sample(range(430), 160)
        transactions = []
        for _ in range(12):
            size = rng.randint(200, 280)
            kept = rng.sample(core, rng.randint(120, 160))
            rest = sorted(set(range(430)) - set(kept))
            transactions.append(kept + rng.sample(rest, size - len(kept)))
        weights = [rng.choice(RSS_WEIGHTS) for _ in transactions]
        for k, min_length in ((5, 3), (10, 2), (3, 4)):
            _assert_same_as_itemwise(transactions, k, min_length)
            _assert_same_as_itemwise(transactions, k, min_length, weights)

    @given(
        st.lists(
            st.lists(st.integers(0, 6), max_size=6), min_size=1, max_size=9,
        ),
        st.integers(1, 10),
        st.integers(1, 3),
        st.lists(st.sampled_from(RSS_WEIGHTS), min_size=9, max_size=9),
    )
    @settings(max_examples=100, deadline=None)
    def test_property(self, transactions, k, min_length, weights):
        _assert_same_as_itemwise(transactions, k, min_length)
        _assert_same_as_itemwise(
            transactions, k, min_length, weights[: len(transactions)]
        )
