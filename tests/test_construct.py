"""Expression language: normal form, parsing, evaluation, named families."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcograph.construct import (
    Expression,
    ExpressionError,
    compose,
    evaluate,
    format_expression,
    generate_family,
    leaf,
    order,
    parse_expression,
    series,
    transitive_tournament,
    union,
)
from dcograph.core import MAX_VERTICES, Digraph, _full_offdiag
from dcograph.decompose import di_co_tree


def _expressions(max_leaves: int) -> st.SearchStrategy[Expression]:
    return st.recursive(
        st.just(leaf()),
        lambda children: st.builds(
            lambda kind, cs: {"union": union, "order": order, "series": series}[kind](*cs),
            st.sampled_from(["union", "order", "series"]),
            st.lists(children, min_size=2, max_size=3),
        ),
        max_leaves=max_leaves,
    )


expressions = _expressions(8)


@given(expressions)
def test_format_parse_round_trip(e: Expression) -> None:
    assert parse_expression(format_expression(e)) == e


@given(expressions)
def test_evaluate_leaf_count_is_vertex_count(e: Expression) -> None:
    assert evaluate(e).n == e.leaf_count


def test_same_kind_children_are_flattened() -> None:
    assert union(union(leaf(), leaf()), leaf()) == union(leaf(), leaf(), leaf())
    assert order(order(leaf(), leaf()), leaf()) == order(leaf(), leaf(), leaf())


def test_unordered_operators_sort_children() -> None:
    a = union(order(leaf(), leaf()), leaf())
    b = union(leaf(), order(leaf(), leaf()))
    assert a == b
    assert format_expression(a) == format_expression(b)
    # order is a sequence, so swapping children changes the digraph
    assert order(union(leaf(), leaf()), leaf()) != order(leaf(), union(leaf(), leaf()))
    # equal leaf counts tie-break on the text
    tied = series(union(leaf(), leaf()), order(leaf(), leaf()))
    assert format_expression(tied) == "series(order(v, v), union(v, v))"


@given(_expressions(64), st.data())
def test_normal_form_text_is_canonical_at_any_size(e: Expression, data: st.DataObject) -> None:
    # a normal-form expression is its own di-co-tree, whatever the labelling
    perm = data.draw(st.permutations(range(e.leaf_count)))
    assert di_co_tree(evaluate(e).relabel(perm)) == e


def _same_tree(a: Expression, b: Expression) -> bool:
    """Reference equality: same kind at the root and the same children, in order."""
    return a.kind == b.kind and len(a.children) == len(b.children) and all(map(_same_tree, a.children, b.children))


def _rebuilt(e: Expression, rnd) -> Expression:
    """e built again from new nodes, with union and series children handed over shuffled."""
    if e.is_leaf:
        return leaf()
    children = [_rebuilt(c, rnd) for c in e.children]
    if e.kind != "order":
        rnd.shuffle(children)
    return {"union": union, "order": order, "series": series}[e.kind](*children)


@given(_expressions(64), _expressions(64), st.randoms(use_true_random=False))
def test_expression_identity_is_its_text(a: Expression, b: Expression, rnd) -> None:
    # the grammar is unambiguous: equal text, equal tree, equal hash
    for x, y in ((a, b), (a, _rebuilt(a, rnd)), (b, _rebuilt(b, rnd))):
        assert (x == y) == _same_tree(x, y) == (format_expression(x) == format_expression(y))
        if x == y:
            assert hash(x) == hash(y)
    for x in (a, b):
        assert x.leaf_count == format_expression(x).count("v")


def test_di_co_tree_text_is_one_to_one_with_canonical_form(reps_by_n) -> None:
    # every DC member with at most 5 vertices under every relabelling: the
    # text is constant on an isomorphism class and differs between classes
    texts = {}
    for n, reps in reps_by_n.items():
        perms = list(itertools.permutations(range(n)))
        for g in reps:
            tree = di_co_tree(g)
            if tree is None:
                continue
            text = format_expression(tree)
            assert {format_expression(di_co_tree(g.relabel(p))) for p in perms} == {text}
            texts[g.canonical_form()] = text
    assert len(texts) == 319
    assert len(set(texts.values())) == 319


def test_operator_arc_semantics() -> None:
    assert evaluate(union(leaf(), leaf())) == Digraph(2)
    assert evaluate(order(leaf(), leaf())) == Digraph(2, [(0, 1)])
    assert evaluate(series(leaf(), leaf())) == Digraph(2, [(0, 1), (1, 0)])
    assert evaluate(parse_expression("order(v, v, v)")) == transitive_tournament(3)


def test_evaluate_cross_arcs_by_block() -> None:
    g = evaluate(order(union(leaf(), leaf()), leaf()))
    assert g == Digraph(3, [(0, 2), (1, 2)])


def _leaf_paths(e: Expression) -> list[tuple[int, ...]]:
    """The child indices from the root down to each leaf, leaves depth-first, left to right."""
    return [()] if e.is_leaf else [(i, *p) for i, c in enumerate(e.children) for p in _leaf_paths(c)]


@given(_expressions(64))
def test_evaluate_follows_the_labelled_arc_rule(e: Expression) -> None:
    # u -> v exactly when their lowest common ancestor is a series node, or an
    # order node whose child holding u comes before the one holding v
    paths = _leaf_paths(e)
    expected = set()
    for u, v in itertools.permutations(range(len(paths)), 2):
        pu, pv = paths[u], paths[v]
        k = next(k for k in itertools.count() if pu[k] != pv[k])
        lca = e
        for i in pu[:k]:
            lca = lca.children[i]
        if lca.kind == "series" or lca.kind == "order" and pu[k] < pv[k]:
            expected.add((u, v))
    assert set(evaluate(e).arcs) == expected


@st.composite
def _digraphs(draw) -> Digraph:
    n = draw(st.integers(min_value=1, max_value=6))
    return Digraph.from_mask(n, draw(st.integers(min_value=0, max_value=(1 << n * n) - 1)) & _full_offdiag(n))


@given(st.sampled_from(["union", "order", "series"]), _digraphs(), _digraphs())
def test_compose_keeps_both_sides_and_adds_the_cross_arcs(op: str, a: Digraph, b: Digraph) -> None:
    g = compose(op, a, b)
    forward = {(u, v) for u in range(a.n) for v in range(a.n, g.n)}
    cross = {"union": set(), "order": forward, "series": forward | {(v, u) for u, v in forward}}[op]
    assert g.n == a.n + b.n
    assert set(g.arcs) == set(a.arcs) | {(u + a.n, v + a.n) for u, v in b.arcs} | cross


def test_both_vertex_caps_are_checked() -> None:
    with pytest.raises(ExpressionError, match=f"{MAX_VERTICES + 1} vertices"):
        evaluate(order(*[leaf()] * (MAX_VERTICES + 1)))
    assert evaluate(order(*[leaf()] * MAX_VERTICES)) == transitive_tournament(MAX_VERTICES)
    with pytest.raises(ValueError, match="got 80"):
        compose("union", transitive_tournament(40), transitive_tournament(40))


@pytest.mark.parametrize(
    "text",
    ["", "w", "union(v)", "union(v,v", "union(v,v))", "order()", "v v", "series(v,)"],
)
def test_parser_rejects_malformed_text(text: str) -> None:
    with pytest.raises(ExpressionError):
        parse_expression(text)


def test_nullary_and_unary_operators_rejected() -> None:
    with pytest.raises(ExpressionError):
        union(leaf())
    with pytest.raises(ExpressionError):
        series()


def test_unknown_composition_kind_is_rejected() -> None:
    with pytest.raises(ExpressionError, match="xor"):
        compose("xor", Digraph(1), Digraph(1))
    with pytest.raises(ExpressionError, match="xor"):
        evaluate(Expression("xor", (leaf(), leaf())))


def test_family_transitive_tournament() -> None:
    g = generate_family("tt", 4)
    assert g.is_tournament() and g.is_acyclic() and g.arc_count == 6
    assert g.arcs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_family_edgeless_and_bidir_complete() -> None:
    assert generate_family("edgeless", 3) == Digraph(3)
    k3 = generate_family("bidir-complete", 3)
    assert k3.is_bidirectional_complete() and k3.arc_count == 6
    assert k3.arcs == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def test_family_path_and_cycle() -> None:
    p4 = generate_family("path", 4)
    assert p4.is_oriented() and p4.arc_count == 3
    c4 = generate_family("cycle", 4)
    assert c4.is_oriented() and c4.arc_count == 4 and not c4.is_acyclic()


def test_family_bipartite_shapes() -> None:
    kb = generate_family("bidir-complete-bipartite", 2, 3)
    assert kb.n == 5 and kb.arc_count == 12 and kb.sym_part() == kb
    assert kb.arcs == (
        (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)
    )
    ob = generate_family("oriented-complete-bipartite", 2, 3)
    assert ob.n == 5 and ob.arc_count == 6 and ob.is_oriented()
    assert ob.arcs == ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))


def test_family_parameter_errors() -> None:
    with pytest.raises(ValueError):
        generate_family("nosuch", 3)
    with pytest.raises(ValueError):
        generate_family("tt", 3, 2)
    with pytest.raises(ValueError):
        generate_family("bidir-complete-bipartite", 3)
    with pytest.raises(ValueError):
        generate_family("tt", 0)


@pytest.mark.parametrize(
    "args",
    [("tt", 2000), ("cycle", 200000), ("bidir-complete-bipartite", 1000, 1000)],
    ids=lambda args: "-".join(map(str, args)),
)
def test_family_size_is_checked_before_any_arc_list(args) -> None:
    # a size past the vertex cap must be refused before its arcs are built;
    # building them first took hundreds of MB and could exhaust memory
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            generate_family(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_family_sizes_up_to_the_cap() -> None:
    assert generate_family("tt", MAX_VERTICES).n == MAX_VERTICES
    assert generate_family("cycle", MAX_VERTICES).n == MAX_VERTICES
    assert generate_family("oriented-complete-bipartite", 1, MAX_VERTICES - 1).n == MAX_VERTICES
    with pytest.raises(ValueError):
        generate_family("oriented-complete-bipartite", 1, MAX_VERTICES)
