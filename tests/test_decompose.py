"""Decomposition: maximal splits, expression trees, listed trees, creation sequences."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcograph.construct import evaluate, leaf, order, parse_expression, series, union
from dcograph.core import MAX_VERTICES, Digraph, _full_offdiag, _join_rows
from dcograph.decompose import (
    CLASS_BIT,
    creation_sequence,
    creation_sequence_raw,
    di_co_tree,
    listed_trees,
    maximal_split,
    replay,
    replay_arcs,
)
from dcograph.mine import canonical_masks
from dcograph.patterns import PATTERNS
from dcograph.recognize import GRAMMAR_CLASSES, ClassId, member_constructive


def test_split_identifies_each_operation() -> None:
    assert maximal_split(evaluate(union(leaf(), series(leaf(), leaf())))).op == "union"
    assert maximal_split(evaluate(series(leaf(), leaf(), leaf()))).op == "series"
    split = maximal_split(evaluate(order(union(leaf(), leaf()), leaf())))
    assert split.op == "order"
    assert split.parts == ((0, 1), (2,))


def test_split_parts_are_maximal() -> None:
    g = evaluate(parse_expression("union(v, v, series(v, v))"))
    split = maximal_split(g)
    assert split.op == "union"
    assert sorted(len(p) for p in split.parts) == [1, 1, 2]


def test_prime_digraphs_report_prime() -> None:
    # minimal obstructions of the largest class cannot split: a split with
    # hereditary-member parts would rebuild a member
    for name in ("D1", "D5", "D8"):
        assert maximal_split(PATTERNS[name]).op == "prime", name
    # obstructions of smaller classes may still split
    assert maximal_split(PATTERNS["Q7"]).op == "order"
    assert maximal_split(PATTERNS["Q3"]).op == "series"
    assert maximal_split(PATTERNS["D21"]).op == "union"


def test_split_requires_two_vertices() -> None:
    with pytest.raises(ValueError):
        maximal_split(Digraph(1))


def test_order_split_respects_arc_direction() -> None:
    g = Digraph(3, [(2, 0), (2, 1), (0, 1)])
    split = maximal_split(g)
    assert split.op == "order"
    assert split.parts == ((2,), (0,), (1,))


def test_di_co_tree_round_trip_on_small_members(reps_small, reps_by_n) -> None:
    # canonical labels up to four vertices, then every five-vertex
    # representative under one random relabelling, which moves the vertex ids
    # the tree's nodes carry; each is checked against the representative g
    rng = random.Random(1907)
    cases = [(g, g) for g in reps_small]
    for g in reps_by_n[5]:
        perm = list(range(5))
        rng.shuffle(perm)
        cases.append((g.relabel(perm), g))
    for h, g in cases:
        tree = di_co_tree(h)
        if member_constructive(h, ClassId.DC):
            assert tree is not None
            assert evaluate(tree).isomorphic_to(h)
        else:
            assert tree is None
        assert [member_constructive(h, x) for x in GRAMMAR_CLASSES] == [
            member_constructive(g, x) for x in GRAMMAR_CLASSES
        ], h


def test_creation_sequence_matches_threshold_membership(reps_small) -> None:
    for g in reps_small:
        seq = creation_sequence(g)
        assert (seq is not None) == member_constructive(g, ClassId.DT)
        if seq is not None:
            assert replay(seq.digits).isomorphic_to(g)
            assert sorted(seq.order) == list(range(g.n))
        oriented = creation_sequence(g, allow_series=False)
        assert (oriented is not None) == member_constructive(g, ClassId.OT)
        if oriented is not None:
            assert "3" not in oriented.digits


def test_replay_digit_semantics() -> None:
    assert replay("1") == Digraph(1)
    assert replay("10") == Digraph(2)
    assert replay("11") == Digraph(2, [(1, 0)])
    assert replay("12") == Digraph(2, [(0, 1)])
    assert replay("13") == Digraph(2, [(0, 1), (1, 0)])
    assert replay_arcs("113") == [(1, 0), (2, 0), (0, 2), (2, 1), (1, 2)]


def test_replay_rejects_bad_strings() -> None:
    with pytest.raises(ValueError):
        replay("")
    with pytest.raises(ValueError):
        replay("01")  # the opening vertex is written as digit 1
    with pytest.raises(ValueError):
        replay("14")
    with pytest.raises(ValueError):
        replay("1" * (MAX_VERTICES + 1))
    # the vertex cap is checked before the arc list is built; building the
    # ~4.5M arcs of 3000 digits first took hundreds of MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            replay("1" * 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@given(st.integers(min_value=1, max_value=6), st.data())
def test_raw_recognizer_agrees_with_object_form(n: int, data) -> None:
    mask = data.draw(st.integers(min_value=0, max_value=(1 << (n * n)) - 1))
    g = Digraph.from_mask(n, mask & _full_offdiag(n))
    seq = creation_sequence(g)
    raw = creation_sequence_raw(g.n, g.arcs)
    assert (seq is None) == (raw is None)
    if seq is not None and raw is not None:
        assert seq.digits == raw.digits and seq.order == raw.order


@pytest.mark.parametrize(
    ("n", "arcs"),
    [(3, [(-1, 0)]), (2, [(0, 0)]), (2, [(0, 5)]), (0, [])],
    ids=["negative-endpoint", "loop", "endpoint-past-n", "no-vertex"],
)
def test_raw_recognizer_rejects_what_is_no_digraph(n: int, arcs: list[tuple[int, int]]) -> None:
    # a negative endpoint would index from the end, a loop read as two degrees,
    # and n = 0 leave nothing to peel
    with pytest.raises(ValueError):
        creation_sequence_raw(n, arcs)


@pytest.mark.parametrize("arc", [(0, 1.5), (0, "1"), (None, 2)], ids=["float", "str", "none"])
def test_raw_recognizer_names_a_non_integer_arc(arc: tuple) -> None:
    # a float endpoint used to end in "list indices must be integers or slices, not float"
    with pytest.raises(TypeError) as info:
        creation_sequence_raw(3, [(0, 1), arc])
    assert str(info.value) == f"arc ({arc[0]!r}, {arc[1]!r}) needs integer endpoints"


def test_raw_recognizer_counts_a_repeated_arc_twice() -> None:
    assert creation_sequence_raw(2, [(0, 1)]).digits == "12"
    assert creation_sequence_raw(2, [(0, 1), (0, 1)]) is None


def _listed_counts(x: ClassId, n_max: int) -> list[int]:
    return [sum(word >> CLASS_BIT[x] & 1 for _, word in listed_trees(n)) for n in range(1, n_max + 1)]


def test_listed_trees_count_the_classes(reps_by_n) -> None:
    # DC lists every tree; OT = OCTP has F(2n-1) members and DT satisfies
    # a(n) = 4a(n-1) - a(n-2); at n <= 5 every constructive class counts as
    # many members as the enumerator holds
    assert [len(listed_trees(n)) for n in range(1, 7)] == [1, 3, 11, 51, 253, 1373]
    assert _listed_counts(ClassId.DC, 6) == [1, 3, 11, 51, 253, 1373]
    assert _listed_counts(ClassId.OT, 6) == [1, 2, 5, 13, 34, 89]
    assert _listed_counts(ClassId.DT, 6) == [1, 3, 11, 41, 153, 571]
    for x in CLASS_BIT:
        assert _listed_counts(x, 5) == [sum(member_constructive(g, x) for g in reps_by_n[n]) for n in range(1, 6)], x


def test_listed_trees_are_pairwise_non_isomorphic() -> None:
    # the normal form is unique, so no two listed trees share a canonical mask
    for n in range(1, 7):
        masks = np.array([_join_rows(list(rows), n) for rows, _ in listed_trees(n)], dtype=np.uint64)
        assert np.unique(canonical_masks(n, masks)).size == masks.size, n


def test_listed_trees_need_a_leaf() -> None:
    with pytest.raises(ValueError, match="at least 1 leaf"):
        listed_trees(0)
