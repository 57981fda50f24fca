"""Membership routes: constructive, pattern-based, literal-grammar oracle."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcograph import decompose, patterns, recognize
from dcograph.construct import Expression, compose, evaluate
from dcograph.core import Digraph
from dcograph.decompose import maximal_split
from dcograph.patterns import ANTICIRCUIT, CATALOG, PATTERNS, TWO_SWITCH, name_word, patterns_in
from dcograph.recognize import (
    _ORACLE_SPEC,
    _SIDE_BUILDERS,
    ANY,
    FORBIDDEN,
    GRAMMAR_CLASSES,
    MICRO_CLASSES,
    PATTERN_ONLY_CLASSES,
    RULES,
    ClassId,
    RouteDisagreement,
    classify,
    constructive_certificate,
    member,
    member_by_patterns,
    member_constructive,
    oracle_members,
    violating_occurrence,
)

_REST_CHECK = {
    "singleton": lambda g: g.n == 1,
    "edgeless": lambda g: g.is_edgeless(),
    "bidir-complete": lambda g: g.is_bidirectional_complete(),
    "transitive-tournament": lambda g: g.is_tournament() and g.is_acyclic(),
}


def _conforms(e: Expression, x: ClassId) -> bool:
    """Walk a certificate and re-check every node against the class grammar."""
    if e.is_leaf:
        return True
    rule = RULES[x][e.kind]
    if rule == FORBIDDEN:
        return False
    if rule == ANY:
        return all(_conforms(c, x) for c in e.children)
    rest = _REST_CHECK[rule[1]]
    loose = [c for c in e.children if not rest(evaluate(c))]
    # associativity lets one unconstrained child soak up the rest sides
    return len(loose) <= 1 and all(_conforms(c, x) for c in loose)


def test_routes_and_oracle_agree_up_to_four_vertices(reps_small) -> None:
    for g in reps_small:
        present = patterns_in(g)
        for x in GRAMMAR_CLASSES:
            constructive = member_constructive(g, x)
            patterns = present.isdisjoint(CATALOG[x.value])
            oracle = g.canonical_form() in oracle_members(x, g.n)
            assert constructive == patterns == oracle, (x, g)


def test_certificates_rebuild_and_conform(reps_small) -> None:
    for g in reps_small:
        for x in GRAMMAR_CLASSES + (ClassId.TT,) + MICRO_CLASSES:
            cert = constructive_certificate(g, x)
            if cert is None:
                assert not member_constructive(g, x)
                continue
            assert member_constructive(g, x)
            assert evaluate(cert).isomorphic_to(g)
            if x in GRAMMAR_CLASSES:
                assert _conforms(cert, x), (x, g)


def test_pattern_only_classes_reject_constructive_route() -> None:
    g = Digraph(2)
    for x in PATTERN_ONLY_CLASSES:
        with pytest.raises(ValueError):
            member_constructive(g, x)
        with pytest.raises(ValueError):
            constructive_certificate(g, x)


def test_violating_occurrence_induces_a_real_violation() -> None:
    c3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    hit = violating_occurrence(c3, ClassId.DC)
    assert hit is not None
    name, vertices = hit
    assert name == "D5" and vertices == (0, 1, 2)
    assert violating_occurrence(Digraph(3, [(0, 1)]), ClassId.DC) is None


def _assert_witness(g: Digraph, x: ClassId, hit: tuple[str, tuple[int, ...]]) -> None:
    """The witness induces a catalog pattern of x, or for TD/FD satisfies the partial pattern."""
    name, w = hit
    if name in CATALOG[x.value]:
        p = PATTERNS[name]
        assert len(w) == len(set(w)) == p.n, (x, name, w)
        assert all(p.has_arc(a, b) == g.has_arc(w[a], w[b]) for a in range(p.n) for b in range(p.n) if a != b)
        return
    partial = {ClassId.TD: TWO_SWITCH, ClassId.FD: ANTICIRCUIT}.get(x)
    assert partial is not None and name == partial.name, (x, name)
    a, b, c, d = w
    assert g.has_arc(a, b) and g.has_arc(c, d) and a != c and b != d
    assert d == a or not g.has_arc(a, d)
    assert b == c or not g.has_arc(c, b)
    assert len(set(w)) == 4 or not partial.all_distinct


def test_witnesses_of_every_digraph_up_to_four_vertices(reps_small) -> None:
    non_members = 0
    for g in reps_small:
        for x in ClassId:
            hit = violating_occurrence(g, x)
            assert (hit is None) == member(g, x), (x, g)
            if hit is not None:
                non_members += 1
                _assert_witness(g, x, hit)
    assert non_members == 5085


def test_witness_outside_the_catalog_refutes_it(monkeypatch) -> None:
    # D8 is a minimal non-member of DC; without D8 in the catalog, the shrunk
    # witness matches nothing the catalog names
    monkeypatch.setitem(CATALOG, "DC", tuple(name for name in CATALOG["DC"] if name != "D8"))
    with pytest.raises(RouteDisagreement) as info:
        violating_occurrence(PATTERNS["D8"], ClassId.DC)
    assert info.value.class_id is ClassId.DC
    assert info.value.constructive is False and info.value.by_patterns is True


def test_partial_pattern_verdicts() -> None:
    two_switch = Digraph(4, [(0, 1), (2, 3)])
    assert not member_by_patterns(two_switch, ClassId.TD)
    assert member_by_patterns(two_switch, ClassId.FD) is False  # it is an anticircuit too
    star = Digraph(4, [(0, 1), (0, 2), (0, 3)])
    assert member_by_patterns(star, ClassId.FD)
    assert not member_by_patterns(PATTERNS["D5"], ClassId.TD)


def test_micro_class_recognizers(reps_by_n) -> None:
    assert member_constructive(Digraph(3), ClassId.EDGELESS)
    k3 = Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
    assert member_constructive(k3, ClassId.BIDIR_COMPLETE)
    two_cliques = Digraph(3, [(0, 1), (1, 0)])
    assert member_constructive(two_cliques, ClassId.TWO_BIDIR_CLIQUES)
    assert member_constructive(two_cliques, ClassId.UNION_OF_BIDIR_CLIQUES)
    assert not member_constructive(Digraph(2, [(0, 1)]), ClassId.UNION_OF_BIDIR_CLIQUES)
    kb = Digraph(3, [(0, 2), (2, 0), (1, 2), (2, 1)])
    assert member_constructive(kb, ClassId.BIDIR_COMPLETE_BIPARTITE)
    assert member_constructive(kb, ClassId.SERIES_OF_STABLE_SETS)
    # every digraph with at most 5 vertices against the pair-level reference
    for n in range(1, 6):
        for g in reps_by_n[n]:
            for x, verdict in _pair_micro(_pair_matrix(g)).items():
                assert member(g, x) == verdict, (x, g)


def _pair_matrix(g: Digraph) -> list[list[bool]]:
    n = g.n
    return [[bool(g.mask >> u * n + v & 1) for v in range(n)] for u in range(n)]


def _pair_cliques(a: list[list[bool]]) -> int:
    """Pair-level: how many bidirectional cliques the matrix is a disjoint union of, or 0 if none.

    Symmetric and transitive adjacency is an equivalence off the diagonal; each
    class has one vertex with no arc to a smaller one.
    """
    n = len(a)
    for u in range(n):
        for v in range(n):
            if a[u][v] != a[v][u]:
                return 0
            if a[u][v] and any(w != u and a[v][w] and not a[u][w] for w in range(n)):
                return 0
    return sum(not any(a[u][:u]) for u in range(n))


def _pair_tt(a: list[list[bool]]) -> bool:
    n = len(a)
    return all(a[u][v] != a[v][u] for u in range(n) for v in range(u + 1, n)) and not any(
        a[u][v] and a[v][w] and not a[u][w] for u in range(n) for v in range(n) for w in range(n) if w != u
    )


def _pair_micro(a: list[list[bool]]) -> dict[ClassId, bool]:
    n = len(a)
    co = [[u != v and not a[u][v] for v in range(n)] for u in range(n)]
    cliques, co_cliques = _pair_cliques(a), _pair_cliques(co)
    return {
        ClassId.EDGELESS: not any(map(any, a)),
        ClassId.BIDIR_COMPLETE: not any(map(any, co)),
        ClassId.UNION_OF_BIDIR_CLIQUES: cliques > 0,
        ClassId.TWO_BIDIR_CLIQUES: 0 < cliques <= 2,
        ClassId.SERIES_OF_STABLE_SETS: co_cliques > 0,
        ClassId.BIDIR_COMPLETE_BIPARTITE: 0 < co_cliques <= 2,
        ClassId.TT: _pair_tt(a),
    }


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=64), st.randoms(use_true_random=False))
def test_micro_classes_and_tt_match_pair_reference(n: int, rng) -> None:
    kind = rng.choice(("cliques", "co-cliques", "tt", "random"))
    flip = rng.choice(("none", "one arc", "both arcs"))
    if kind == "random":
        density = rng.choice((0.1, 0.5, 0.9))
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    elif kind == "tt":
        rank = rng.sample(range(n), n)
        arcs = [(u, v) for u in range(n) for v in range(n) if rank[u] < rank[v]]
    else:
        # cliques join vertices with equal labels, co-cliques those with different ones
        k = rng.randint(1, 4)
        label = [rng.randrange(k) for _ in range(n)]
        same = kind == "cliques"
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and (label[u] == label[v]) == same]
    g = Digraph(n, arcs)
    if flip != "none" and n > 1:
        # one arc breaks symmetry and tournaments; both arcs keep them but move a vertex pair
        u, v = rng.sample(range(n), 2)
        pair = 1 << u * n + v | (1 << v * n + u if flip == "both arcs" else 0)
        g = Digraph.from_mask(n, g.mask ^ pair)
    for x, verdict in _pair_micro(_pair_matrix(g)).items():
        assert member(g, x) == verdict, (x, g)


def test_tt_and_micro_classes_are_read_from_the_memoized_tree(monkeypatch) -> None:
    rng = random.Random(24)
    label = rng.sample(range(24), 24)
    # a union of bidirectional cliques on 10 and 14 vertices, and a transitive tournament
    cliques = Digraph(24, [(label[u], label[v]) for u in range(24) for v in range(24)
                           if u != v and (u < 10) == (v < 10)])
    tt = Digraph(24, [(label[u], label[v]) for u in range(24) for v in range(u + 1, 24)])
    expected = {g: _pair_micro(_pair_matrix(g)) for g in (cliques, tt)}
    for g in expected:
        decompose._tree(g)

    def unread(self):
        raise AssertionError("the rows were read again")

    monkeypatch.setattr(Digraph, "out_rows", unread)
    monkeypatch.setattr(Digraph, "in_rows", unread)
    for g, verdicts in expected.items():
        assert {x: member(g, x) for x in verdicts} == verdicts
    assert expected[cliques][ClassId.TWO_BIDIR_CLIQUES] and expected[tt][ClassId.TT]


def test_classify_returns_closed_upward_sets() -> None:
    t3 = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    out = classify(t3)
    assert ClassId.TT in out and ClassId.OT in out and ClassId.DC in out
    assert ClassId.EDGELESS not in out
    c3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    out = classify(c3)
    assert out & set(GRAMMAR_CLASSES) == set()
    assert ClassId.TD not in out and ClassId.FD not in out
    # the oriented path has no directed triangle and no two-switch, but it
    # carries an alternating anticircuit on its two arcs
    out = classify(PATTERNS["D1"])
    assert ClassId.TD in out and ClassId.FD not in out


def test_classify_reads_classes_by_member_or_by_value() -> None:
    t3 = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert classify(t3, ["TT", ClassId.OC, "EdgelessD"]) == {ClassId.TT, ClassId.OC}
    with pytest.raises(ValueError):
        classify(t3, ["XX"])


def test_classify_rejects_a_bare_class_string() -> None:
    # a string is an iterable of its characters, which name no class the caller wrote
    with pytest.raises(TypeError, match=r"'DC'.*\['DC'\]"):
        classify(Digraph(3, [(0, 1), (0, 2), (1, 2)]), "DC")


def test_route_disagreement_carries_context() -> None:
    exc = RouteDisagreement(ClassId.DC, Digraph(1), True, False)
    assert "DC" in str(exc) and "constructive=True" in str(exc)


def test_cross_check_reads_the_pattern_word(monkeypatch) -> None:
    # a pattern pass that misses the directed triangle must make classify
    # disagree with the constructive route, which rejects the prime D5
    real, d5 = recognize.pattern_words, np.uint64(name_word(["D5"]))
    monkeypatch.setattr(recognize, "pattern_words", lambda n, masks: real(n, masks) & ~d5)
    with pytest.raises(RouteDisagreement):
        classify(PATTERNS["D5"])


@settings(max_examples=60)
@given(st.sampled_from(GRAMMAR_CLASSES), st.integers(min_value=5, max_value=8), st.booleans(), st.data())
def test_classify_runs_no_occurrence_search_up_to_eight_vertices(
    x: ClassId, n: int, flip: bool, data
) -> None:
    g = _draw_member(data, x, n).relabel(data.draw(st.permutations(range(n))))
    if flip:
        u, v = data.draw(st.permutations(range(n)))[:2]
        g = Digraph.from_mask(n, g.mask ^ 1 << u * n + v)
    # the occurrence search decides every class, as classify's cross-check used to
    expected = {y for y in ClassId if member_by_patterns(g, y)}

    def no_search(*args):
        raise AssertionError("classify ran the occurrence search")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "contains_induced", no_search)
        assert classify(g) == expected


def _draw_input(data, min_n: int, max_n: int) -> Digraph:
    """A random digraph, or a relabelled grammar member, perhaps with one arc flipped."""
    n = data.draw(st.integers(min_value=min_n, max_value=max_n))
    if data.draw(st.booleans()):
        rng = data.draw(st.randoms(use_true_random=False))
        return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.5])
    g = _draw_member(data, data.draw(st.sampled_from(GRAMMAR_CLASSES)), n)
    if n > 1 and data.draw(st.booleans()):
        u, v = data.draw(st.permutations(range(n)))[:2]
        g = Digraph.from_mask(n, g.mask ^ 1 << u * n + v)
    return g.relabel(data.draw(st.permutations(range(n))))


_CONSTRUCTIVE = tuple(x for x in ClassId if x not in PATTERN_ONLY_CLASSES)
_SUBSETS = st.one_of(
    st.sampled_from([(), PATTERN_ONLY_CLASSES, (ClassId.TD,), (ClassId.FD,), _CONSTRUCTIVE]),
    st.lists(st.sampled_from(list(ClassId)), unique=True),
)


@settings(max_examples=60)
@given(st.sampled_from([(1, 8), (9, 64)]), _SUBSETS, st.data())
def test_classify_equals_the_per_class_members(sizes: tuple[int, int], subset, data) -> None:
    g = _draw_input(data, *sizes)
    assert classify(g, subset) == {x for x in subset if member(g, x)}


@pytest.mark.parametrize("n", [5, 8, 9, 24])
@pytest.mark.parametrize(
    "subset", [None, (), PATTERN_ONLY_CLASSES, (ClassId.FD,), GRAMMAR_CLASSES, (ClassId.TD, ClassId.DC)]
)
def test_classify_reads_one_class_word_and_one_pattern_word(n: int, subset, monkeypatch) -> None:
    calls = dict.fromkeys(("_tree", "match_partial", "pattern_words"), 0)

    def counted(name: str):
        real = getattr(recognize, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    def per_class(*args):
        raise AssertionError("classify asked a class on its own")

    for name in calls:
        monkeypatch.setattr(recognize, name, counted(name))
    for name in ("member", "member_constructive"):
        monkeypatch.setattr(recognize, name, per_class)
    monkeypatch.setattr(patterns, "patterns_in", per_class)
    g = Digraph(n, [(u, (u + 1) % n) for u in range(n)] + [(0, 2)])
    classify(g, subset)
    asked = list(ClassId) if subset is None else subset
    assert calls["_tree"] == 1
    assert calls["match_partial"] == sum(x in asked for x in PATTERN_ONLY_CLASSES)
    assert calls["pattern_words"] == (n <= 8 and any(x not in PATTERN_ONLY_CLASSES for x in asked))


def test_copy_table_is_built_on_first_use_only() -> None:
    # classify above the pattern route's size, after the CLI's imports, must
    # not build the keys of the labelled pattern copies nor any gather table
    code = (
        "import dcograph.cli\n"
        "from dcograph import patterns, recognize\n"
        "from dcograph.construct import transitive_tournament\n"
        "recognize.classify(transitive_tournament(24))\n"
        "print(patterns._key_table.cache_info().currsize, patterns._gather.cache_info().currsize)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0\n"


def test_oracle_matches_constructive_at_five_vertices_for_one_class(reps_by_n) -> None:
    # the full sweep lives in the acceptance gate; keep one five-vertex
    # class pinned here so oracle regressions fail fast
    members = oracle_members(ClassId.OC, 5)
    expected = {g.canonical_form() for g in reps_by_n[5] if member_constructive(g, ClassId.OC)}
    assert members == expected


def _draw_member(data, x: ClassId, n: int) -> Digraph:
    """A member of x on n vertices, built by the literal grammar in _ORACLE_SPEC."""
    spec = _ORACLE_SPEC[x]
    if n == 1:
        return Digraph(1)
    if spec["base"] != "dot" and data.draw(st.booleans()):
        return _SIDE_BUILDERS[spec["base"]](n)  # type: ignore[index]
    op = data.draw(st.sampled_from([op for op in ("union", "order", "series") if spec[op] is not None]))
    left, right = data.draw(st.sampled_from(spec[op])) if op == "order" else spec[op]  # type: ignore[misc]
    if left == "dot":
        size = 1
    elif right == "dot":
        size = n - 1
    else:
        size = data.draw(st.integers(min_value=1, max_value=n - 1))

    def side(kind: str, k: int) -> Digraph:
        if kind == "G":
            return _draw_member(data, x, k)
        return Digraph(1) if kind == "dot" else _SIDE_BUILDERS[kind](k)

    return compose(op, side(left, size), side(right, n - size))


def _degree_pairs(g: Digraph) -> list[tuple[int, int]]:
    return sorted((g.out_degree(v), g.in_degree(v)) for v in range(g.n))


@given(st.sampled_from(GRAMMAR_CLASSES), st.integers(min_value=9, max_value=40), st.data())
def test_constructive_route_above_the_pattern_route(x: ClassId, n: int, data) -> None:
    # classify cross-checks nothing above eight vertices, so relabelled
    # grammar members are checked through their certificates instead
    g = _draw_member(data, x, n).relabel(data.draw(st.permutations(range(n))))
    assert {x, ClassId.DC} <= classify(g, GRAMMAR_CLASSES)
    parts = maximal_split(g).parts
    assert sorted(v for part in parts for v in part) == list(range(n))
    cert = constructive_certificate(g, x)
    assert cert is not None and _conforms(cert, x)
    rebuilt = evaluate(cert)
    assert (rebuilt.n, rebuilt.arc_count) == (g.n, g.arc_count)
    assert _degree_pairs(rebuilt) == _degree_pairs(g)
    # a disjoint directed triangle is prime, so no grammar class survives it
    planted = compose("union", g, PATTERNS["D5"])
    assert not any(member_constructive(planted, y) for y in GRAMMAR_CLASSES)


@settings(max_examples=40)
@given(
    st.sampled_from(GRAMMAR_CLASSES), st.sampled_from(list(ClassId)),
    st.integers(min_value=9, max_value=64), st.booleans(), st.data(),
)
def test_witnesses_past_the_mined_sizes(x: ClassId, y: ClassId, n: int, flip: bool, data) -> None:
    # a grammar member with one arc flipped, or beside a catalog pattern of x,
    # shrinks to a witness from x's own catalog without any occurrence search;
    # an obstruction outside the catalog would refute the characterization
    if flip:
        g = _draw_member(data, x, n)
        u, v = data.draw(st.permutations(range(n)))[:2]
        g = Digraph.from_mask(n, g.mask ^ 1 << u * n + v)
    else:
        planted = PATTERNS[data.draw(st.sampled_from(CATALOG[x.value]))]
        g = compose("union", _draw_member(data, x, n - planted.n), planted)
    g = g.relabel(data.draw(st.permutations(range(n))))

    def no_search(*args):
        raise AssertionError("the witness ran the occurrence search")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "contains_induced", no_search)
        hits = {z: violating_occurrence(g, z) for z in (x, y)}
    for z, hit in hits.items():
        assert (hit is None) == member(g, z)
        if hit is not None:
            _assert_witness(g, z, hit)
    assert flip or hits[x] is not None
