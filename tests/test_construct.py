"""Expression language: normal form, parsing, evaluation, named families."""

from __future__ import annotations

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import expression_reference
from dcograph.construct import (
    OPS,
    Expression,
    ExpressionError,
    bidir_complete_bipartite,
    bidirectional_complete,
    compose,
    edgeless,
    evaluate,
    format_expression,
    generate_family,
    leaf,
    order,
    oriented_complete_bipartite,
    oriented_cycle,
    oriented_path,
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


@pytest.mark.parametrize(
    ("call", "error", "message"),
    [
        (lambda: evaluate("v"), TypeError, "e must be an Expression, got str"),
        (lambda: format_expression("v"), TypeError, "e must be an Expression, got str"),
        (lambda: compose("union", "a", Digraph(1)), TypeError, "a must be a Digraph, got str"),
        (lambda: compose("order", Digraph(1), "b"), TypeError, "b must be a Digraph, got str"),
        (lambda: evaluate(Expression("union", ())), ExpressionError, "union needs at least 1 child"),
        (lambda: evaluate(Expression("order", (leaf(), Expression("series", ())))), ExpressionError,
         "series needs at least 1 child"),
    ],
    ids=["evaluate-str", "format_expression-str", "compose-a-str", "compose-b-str", "empty-root", "empty-child"],
)
def test_a_bad_argument_is_named(call, error: type, message: str) -> None:
    # a string used to end in "'str' object has no attribute ...", and an
    # empty union in Digraph(0, []), which classify then read out of range
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# every whitespace the parser skips is str.isspace's, Unicode included
_SPACE = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x85\xa0\u1680\u2003\u2028\u3000", max_size=2)

# the tokens of a text in the grammar
_TOKENS = st.recursive(
    st.just(["v"]),
    lambda inner: st.builds(
        lambda op, args: [op, "(", *args[0], *[t for arg in args[1:] for t in (",", *arg)], ")"],
        st.sampled_from(OPS),
        st.lists(inner, min_size=2, max_size=4),
    ),
    max_leaves=12,
)


@st.composite
def _expression_texts(draw) -> str:
    """Expression text with random whitespace, kept as it is or with one mutation."""
    tokens = list(draw(_TOKENS))
    i = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
    mutation = draw(st.sampled_from(["none", "drop", "double", "swap", "trailing", "unknown", "bare", "unary"]))
    if mutation == "unary":  # the first argument "v" from i on goes with its comma
        at = next((j for j in range(i, len(tokens) - 1) if tokens[j : j + 2] == [",", "v"]), None)
        if at is not None:
            del tokens[at : at + 2]
    elif mutation == "drop":
        del tokens[i]
    elif mutation == "double":
        tokens.insert(i, tokens[i])
    elif mutation == "swap" and i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    elif mutation == "trailing":
        tokens.append(draw(st.sampled_from(["v", ")", ",", "(", "x", "union(v, v)"])))
    elif mutation == "unknown":
        tokens.insert(i, draw(st.sampled_from(["w", "unio", "orders", "Series", "vv", "x1", "\u00e9"])))
    elif mutation == "bare":
        tokens.insert(i, "(")
    spaces = draw(st.lists(_SPACE, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(space + token for space, token in zip(spaces, tokens)) + spaces[-1]


def _outcome(parse, text: str) -> tuple[str, str]:
    try:
        return "parsed", format_expression(parse(text))
    except ExpressionError as exc:
        return "error", str(exc)


@given(_expression_texts())
def test_parser_agrees_with_the_reference(text: str) -> None:
    # the same expression, or the same error at the same position, byte for byte
    assert _outcome(parse_expression, text) == _outcome(expression_reference.parse_expression, text)


def test_hostile_nesting_ends_fast_without_quadratic_text() -> None:
    # every node built on the way down would hold the text of all below it
    text = "union(v, series(v, " * 5000 + "v" + "))" * 5000
    start = time.perf_counter()
    with pytest.raises(ExpressionError) as info:
        parse_expression(text)
    assert time.perf_counter() - start < 1.0
    assert _outcome(expression_reference.parse_expression, text) == ("error", str(info.value))
    tracemalloc.start()
    try:
        with pytest.raises(ExpressionError):
            parse_expression(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * len(text)


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


_FAMILY_SIZES = [
    # (family, sizes, the size named in a TypeError or None if the sizes are integers)
    (transitive_tournament, (3.0,), "3.0"),
    (edgeless, ("3",), "'3'"),
    (bidirectional_complete, (None,), "None"),
    (oriented_path, (2.5,), "2.5"),
    (oriented_cycle, ("4",), "'4'"),
    (oriented_cycle, (4.0,), "4.0"),
    (bidir_complete_bipartite, (2, 2.0), "2.0"),
    (oriented_complete_bipartite, ("1", 2), "'1'"),
    (transitive_tournament, (np.int64(3),), None),
    (edgeless, (np.uint8(3),), None),
    (bidirectional_complete, (np.intp(3),), None),
    (oriented_path, (np.int32(3),), None),
    (oriented_cycle, (np.int64(4),), None),
    (bidir_complete_bipartite, (np.int64(2), np.uint8(2)), None),
    (oriented_complete_bipartite, (np.int16(1), 2), None),
]


@pytest.mark.parametrize(
    ("family", "sizes", "named"), _FAMILY_SIZES, ids=[f"{f.__name__}{sizes!r}" for f, sizes, _ in _FAMILY_SIZES]
)
def test_family_sizes_read_as_integers(family, sizes: tuple, named: str | None) -> None:
    # a float size used to end in "can't multiply sequence by non-int", a string in "'<' not supported"
    if named is not None:
        with pytest.raises(TypeError) as info:
            family(*sizes)
        assert str(info.value) == f"family size must be an integer vertex count, got {named}"
        return
    g = family(*sizes)
    assert g == family(*map(int, sizes)) and type(g.n) is int and type(g.mask) is int


def test_family_sizes_up_to_the_cap() -> None:
    assert generate_family("tt", MAX_VERTICES).n == MAX_VERTICES
    assert generate_family("cycle", MAX_VERTICES).n == MAX_VERTICES
    assert generate_family("oriented-complete-bipartite", 1, MAX_VERTICES - 1).n == MAX_VERTICES
    with pytest.raises(ValueError):
        generate_family("oriented-complete-bipartite", 1, MAX_VERTICES)
