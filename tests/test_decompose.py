"""Decomposition: maximal splits, expression trees, listed trees, creation sequences."""

from __future__ import annotations

import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcograph.construct import OPS, compose, evaluate, leaf, order, parse_expression, series, union
from dcograph.core import MAX_VERTICES, Digraph, _full_offdiag, _join_rows
from dcograph.decompose import (
    CLASS_BIT,
    Split,
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


def _reference_split(g: Digraph) -> Split:
    """The maximal split by its definition: one breadth-first search per auxiliary graph, then every cross pair of an order."""
    n = g.n
    arc = [[g.has_arc(u, v) for v in range(n)] for u in range(n)]

    def components(adjacent) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        comps = []
        for start in range(n):
            if start in seen:
                continue
            seen.add(start)
            comp, queue = [start], deque([start])
            while queue:
                u = queue.popleft()
                for v in range(n):
                    if v not in seen and adjacent(u, v):
                        seen.add(v)
                        comp.append(v)
                        queue.append(v)
            comps.append(tuple(sorted(comp)))
        return comps

    for op, adjacent in (
        ("union", lambda u, v: arc[u][v] or arc[v][u]),
        ("series", lambda u, v: not (arc[u][v] and arc[v][u])),
    ):
        parts = components(adjacent)
        if len(parts) > 1:
            return Split(op, tuple(parts))
    blocks = components(lambda u, v: arc[u][v] == arc[v][u])
    # in an order the first block has arcs into every other block, the next into all but one, ...
    ranked = sorted(blocks, key=lambda b: -sum(any(arc[u][v] for u in b for v in c) for c in blocks if c != b))
    for i, b in enumerate(ranked):
        if not all(arc[u][v] and not arc[v][u] for c in ranked[i + 1:] for u in b for v in c):
            return Split("prime", (tuple(range(n)),))
    if len(ranked) > 1:
        return Split("order", tuple(ranked))
    return Split("prime", (tuple(range(n)),))


def test_split_agrees_with_the_reference_up_to_five_vertices(reps_by_n) -> None:
    # every digraph with at most 5 vertices, its converse and its complement
    for n in range(1, 6):
        for g in reps_by_n[n]:
            for h in (g, g.converse(), g.complement()):
                if n == 1:
                    with pytest.raises(ValueError):
                        maximal_split(h)
                else:
                    assert maximal_split(h) == _reference_split(h), h


def _random_tree(rng: random.Random, k: int):
    if k == 1:
        return leaf()
    cuts = sorted(rng.sample(range(1, k), rng.randint(1, min(k - 1, 3))))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, k])]
    return rng.choice((union, order, series))(*(_random_tree(rng, s) for s in sizes))


@st.composite
def _split_inputs(draw) -> Digraph:
    """6 to 64 vertices, relabelled: members with one arc flipped, creation chains, members beside a planted directed triangle."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n = draw(st.integers(min_value=6, max_value=MAX_VERTICES))
    kind = draw(st.sampled_from(["flipped", "chain", "planted"]))
    if kind == "flipped":
        g = evaluate(_random_tree(rng, n))
        g = Digraph(n, set(g.arcs) ^ {tuple(rng.sample(range(n), 2))})
    elif kind == "chain":
        g = replay("1" + "".join(rng.choice("0123") for _ in range(n - 1)))
    else:
        g = compose(rng.choice(OPS), evaluate(_random_tree(rng, n - 3)), Digraph(3, [(0, 1), (1, 2), (2, 0)]))
    perm = list(range(n))
    rng.shuffle(perm)
    return g.relabel(perm)


@given(_split_inputs())
def test_split_agrees_with_the_reference_past_five_vertices(g: Digraph) -> None:
    # the root split, and the split of each part, which is how the di-co-tree recurses
    split = maximal_split(g)
    assert split == _reference_split(g)
    for part in split.parts:
        if split.op != "prime" and len(part) > 1:
            h = g.induced(part)
            assert maximal_split(h) == _reference_split(h), part


def test_an_order_defect_against_the_largest_block_is_prime() -> None:
    # order(edgeless 4, v, v) with one arc between the largest block and a
    # smaller one reversed: every pair stays one-way, so the blocks stay, and
    # only the smaller blocks' rows, which the order check reads, show it
    g = evaluate(order(union(leaf(), leaf(), leaf(), leaf()), leaf(), leaf()))
    assert maximal_split(g) == Split("order", ((0, 1, 2, 3), (4,), (5,)))
    for u in range(4):
        for v in (4, 5):
            flipped = Digraph(6, set(g.arcs) ^ {(u, v), (v, u)})
            assert maximal_split(flipped) == Split("prime", (tuple(range(6)),)), (u, v)


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("series(v, union(v, v))", Split("series", ((0,), (1, 2)))),
        ("series(order(v, v), order(v, v))", Split("series", ((0, 1), (2, 3)))),
        ("order(v, union(v, v))", Split("order", ((0,), (1, 2)))),
        ("order(series(v, v), union(v, v))", Split("order", ((0, 1), (2, 3)))),
    ],
)
def test_a_lowest_vertex_adjacent_to_all_still_splits(text: str, expected: Split) -> None:
    # vertex 0 has no non-neighbour, so only the union test may be skipped
    assert maximal_split(evaluate(parse_expression(text))) == expected


@pytest.mark.parametrize("call", [maximal_split, di_co_tree, creation_sequence])
@pytest.mark.parametrize("value", ["0 1", [(0, 1)], None, 3], ids=["str", "list", "none", "int"])
def test_a_non_digraph_is_a_type_error_naming_g(call, value) -> None:
    # a string used to end in "'str' object has no attribute 'n'", a list in "unhashable type: 'list'"
    with pytest.raises(TypeError, match=r"^g must be a Digraph, got "):
        call(value)


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
