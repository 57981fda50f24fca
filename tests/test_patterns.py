"""Obstruction catalogs: occurrence search, minimality, partial patterns."""

from __future__ import annotations

import os
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcograph import patterns
from dcograph.construct import transitive_tournament
from dcograph.core import Digraph, _full_offdiag, parse_edge_list
from dcograph.mine import is_minimal_obstruction
from dcograph.patterns import (
    ANTICIRCUIT,
    CATALOG,
    PATTERNS,
    TWO_SWITCH,
    PartialPattern,
    catalog,
    contains_induced,
    contains_small,
    has_anticircuit,
    has_two_switch,
    induced_canon_set,
    is_free,
    match_partial,
    name_word,
    pattern_words,
    patterns_in,
    write_pattern_fixtures,
)
from dcograph.recognize import GRAMMAR_CLASSES, ClassId, member_by_patterns
from test_recognizers import _draw_member

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "patterns")


def test_pattern_aliases_are_exactly_the_known_pairs() -> None:
    # two catalog families name four graphs independently; everything else
    # is pairwise non-isomorphic
    by_canon: dict[bytes, list[str]] = {}
    for name, p in PATTERNS.items():
        by_canon.setdefault(p.canonical_form(), []).append(name)
    groups = sorted(sorted(g) for g in by_canon.values() if len(g) > 1)
    assert groups == [["D11", "Q1"], ["D12", "coQ2"], ["D15", "Q2"], ["coD11", "coQ1"]]


def test_every_pattern_contains_itself() -> None:
    for name, p in PATTERNS.items():
        witness = contains_induced(p, p)
        assert witness is not None, name
        assert p.induced(witness).isomorphic_to(p)


def test_occurrence_witness_induces_the_pattern() -> None:
    g = Digraph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    witness = contains_induced(g, PATTERNS["D5"])  # the directed triangle
    assert witness == (0, 1, 2)
    assert contains_induced(g, PATTERNS["K2bidir"]) is None
    assert is_free(g, (PATTERNS["K2bidir"],))
    assert not is_free(g, catalog("OC"))


def test_catalog_names_resolve() -> None:
    for class_name, names in CATALOG.items():
        assert catalog(class_name) == tuple(PATTERNS[n] for n in names)


def test_catalog_entries_are_minimal_obstructions() -> None:
    for class_name, names in CATALOG.items():
        x = ClassId(class_name)
        for name in names:
            assert is_minimal_obstruction(PATTERNS[name], x), (class_name, name)


def test_catalogs_are_antichains_under_induced_containment() -> None:
    for class_name, names in CATALOG.items():
        for a in names:
            for b in names:
                if a != b:
                    assert contains_induced(PATTERNS[a], PATTERNS[b]) is None, (a, b)


def test_induced_canon_set_tracks_occurrences() -> None:
    g = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    canons = induced_canon_set(g)
    assert PATTERNS["D1"].canonical_form() in canons
    assert PATTERNS["K2bidir"].canonical_form() not in canons


def test_patterns_in_agrees_with_occurrence_search(reps_small) -> None:
    for g in reps_small:
        present = patterns_in(g)
        for names in CATALOG.values():
            expected = is_free(g, tuple(PATTERNS[n] for n in names))
            assert present.isdisjoint(names) == expected, (g, names)


def test_two_switch_partial_pattern() -> None:
    g = Digraph(4, [(0, 1), (2, 3)])
    roles = match_partial(g, TWO_SWITCH)
    assert roles is not None
    w, x, y, z = roles
    assert g.has_arc(w, x) and g.has_arc(y, z)
    assert not g.has_arc(w, z) and not g.has_arc(y, x)
    assert has_two_switch(g)
    assert not has_two_switch(Digraph(3, [(0, 1), (0, 2), (1, 2)]))


def test_anticircuit_partial_pattern_allows_coincidences() -> None:
    # roles may reuse vertices: the directed triangle and the bidirected
    # pair both carry an alternating anticircuit on fewer than 4 vertices
    assert has_anticircuit(PATTERNS["D1"])
    assert has_anticircuit(PATTERNS["K2bidir"])
    assert has_anticircuit(PATTERNS["D5"])
    assert not has_anticircuit(Digraph(3, [(0, 1), (0, 2), (1, 2)]))
    roles = match_partial(PATTERNS["K2bidir"], ANTICIRCUIT)
    assert roles is not None
    x, y, z, w = roles
    assert x != z and y != w


def test_pattern_route_spot_checks() -> None:
    assert not member_by_patterns(PATTERNS["D5"], ClassId.TD)
    assert not member_by_patterns(PATTERNS["D1"], ClassId.FD)
    assert member_by_patterns(Digraph(4, [(0, 1), (0, 2), (0, 3)]), ClassId.FD)


# -- row tests against references ----------------------------------------------

# The arc-pair interpreter that match_partial replaced, kept as its reference:
# roles (p, q, r, s) over ordered arc pairs p->q, r->s, with the role pairs
# that must differ and the role pairs that must not be arcs unless they coincide.
_INTERPRETER_RULES = {
    TWO_SWITCH.name: (tuple(combinations(range(4), 2)), ((0, 3), (2, 1))),
    ANTICIRCUIT.name: (((0, 2), (1, 3)), ((0, 3), (2, 1))),
}

_ALL_FORMS = {name: p.canonical_form() for name, p in PATTERNS.items()}
_SMALL_FORMS = {name: form for name, form in _ALL_FORMS.items() if PATTERNS[name].n <= 3}


def _interpret(g: Digraph, pp: PartialPattern) -> tuple[int, ...] | None:
    distinct, forbidden = _INTERPRETER_RULES[pp.name]
    arcs = g.arcs
    for a in arcs:
        for b in arcs:
            roles = a + b
            if any(roles[i] == roles[j] for i, j in distinct):
                continue
            if any(roles[i] != roles[j] and g.has_arc(roles[i], roles[j]) for i, j in forbidden):
                continue
            return roles
    return None


def _small_forms(g: Digraph) -> set[bytes]:
    """Canonical forms of the 2- and 3-vertex induced subdigraphs; contains_induced matches by them."""
    return {
        g.induced(s).canonical_form() for k in (2, 3) for s in combinations(range(g.n), k)
    }


def _pair_formula(g: Digraph, pp: PartialPattern) -> bool:
    """Existence without roles: rows of some w != y each hold a vertex the other lacks.

    For the two-switch that vertex must also differ from the other row's owner.
    """
    rows = [g.out_row(u) for u in range(g.n)]
    for w in range(g.n):
        for y in range(g.n):
            only_w, only_y = rows[w] & ~rows[y], rows[y] & ~rows[w]
            if pp.all_distinct:
                only_w, only_y = only_w & ~(1 << y), only_y & ~(1 << w)
            if w != y and only_w and only_y:
                return True
    return False


def _assert_rows_match_references(g: Digraph, forms: frozenset[bytes] | set[bytes]) -> None:
    """forms: canonical forms of (at least) every 2- and 3-vertex induced subdigraph of g."""
    for pp in (TWO_SWITCH, ANTICIRCUIT):
        assert match_partial(g, pp) == _interpret(g, pp), (pp.name, g)
    for name, form in _SMALL_FORMS.items():
        assert contains_small(g, PATTERNS[name]) == (form in forms), (name, g)


def _draw_digraph(data, min_n: int, max_n: int) -> Digraph:
    """A relabelled grammar member or transitive tournament, one with one pair flipped, or a random digraph."""
    n = data.draw(st.integers(min_value=min_n, max_value=max_n))
    kind = data.draw(st.sampled_from(("member", "near miss", "random")))
    if kind == "random":
        rng = data.draw(st.randoms(use_true_random=False))
        density = data.draw(st.sampled_from((0.1, 0.5, 0.9)))
        return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density])
    x = data.draw(st.sampled_from(GRAMMAR_CLASSES + (ClassId.TT,)))
    g = transitive_tournament(n) if x is ClassId.TT else _draw_member(data, x, n)
    g = g.relabel(data.draw(st.permutations(range(n))))
    if kind == "member":
        return g
    u = data.draw(st.integers(min_value=0, max_value=n - 1))
    v = data.draw(st.integers(min_value=0, max_value=n - 2))
    v += v >= u
    return Digraph.from_mask(n, g.mask ^ 1 << u * n + v)


def test_rows_match_references_up_to_five_vertices(reps_by_n) -> None:
    for n in range(1, 6):
        for g in reps_by_n[n]:
            # memoized, and shared with the catalog-route tests
            _assert_rows_match_references(g, induced_canon_set(g))


@settings(max_examples=50)
@given(st.data())
def test_rows_match_references_on_six_to_24_vertices(data) -> None:
    g = _draw_digraph(data, 6, 24)
    _assert_rows_match_references(g, _small_forms(g))


@settings(max_examples=50)
@given(st.data())
def test_partial_patterns_match_pair_formula_on_25_to_64_vertices(data) -> None:
    g = _draw_digraph(data, 25, 64)
    for pp in (TWO_SWITCH, ANTICIRCUIT):
        assert (match_partial(g, pp) is not None) == _pair_formula(g, pp), (pp.name, g)


def _named_in(g: Digraph) -> frozenset[str]:
    """Reference for patterns_in: every name whose canonical form is an induced subdigraph's."""
    canons = induced_canon_set(g)
    return frozenset(name for name, form in _ALL_FORMS.items() if form in canons)


def test_patterns_in_matches_canon_sets_up_to_five_vertices(reps_by_n) -> None:
    for n in range(1, 6):
        for g in reps_by_n[n]:
            assert patterns_in(g) == _named_in(g), g


@settings(max_examples=100)
@given(st.data())
def test_patterns_in_matches_canon_sets_on_six_to_eight_vertices(data) -> None:
    g = _draw_digraph(data, 6, 8)
    assert patterns_in(g) == _named_in(g), g


def _labelled_copies() -> dict[int, dict[int, frozenset[str]]]:
    """Size k -> labelled k-vertex mask -> names of the PATTERNS it is a copy of."""
    table: dict[int, dict[int, frozenset[str]]] = {}
    for name, p in PATTERNS.items():
        copies = table.setdefault(p.n, {})
        for perm in permutations(range(p.n)):
            mask = sum(1 << perm[u] * p.n + perm[v] for u, v in p.arcs)
            copies[mask] = copies.get(mask, frozenset()) | {name}
    return table


_LABELLED_COPIES = _labelled_copies()


def _patterns_in_by_loop(g: Digraph) -> frozenset[str]:
    """Reference for patterns_in: each subset's labelled mask built bit by bit and looked up."""
    rows = g.out_rows()
    found: set[str] = set()
    for k, copies in _LABELLED_COPIES.items():
        # shifting in each pair bit from the first ends in the mask of the
        # subset labelled in reverse, itself one of the copies in the table
        for subset in combinations(range(g.n), k):
            mask = 0
            for u in subset:
                row = rows[u]
                for v in subset:
                    mask = mask << 1 | row >> v & 1
            found |= copies.get(mask, frozenset())
    return frozenset(found)


@settings(max_examples=200)
@given(st.data())
def test_patterns_in_matches_the_subset_loop_on_one_to_eight_vertices(data) -> None:
    n = data.draw(st.integers(min_value=1, max_value=8))
    if n == 1 or data.draw(st.booleans()):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        kept = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Digraph(n, [pair for pair, keep in zip(pairs, kept) if keep])
    else:
        g = _draw_digraph(data, n, n)
    assert patterns_in(g) == _patterns_in_by_loop(g), g


@settings(max_examples=40)
@given(st.data())
def test_batched_pattern_words_equal_one_row_calls(data) -> None:
    # batches of 1 to 2 chunks and a bit, so some end just past a chunk boundary
    n = data.draw(st.integers(min_value=2, max_value=8))
    rows = patterns._gather(n)[-1]
    size = data.draw(st.one_of(
        st.sampled_from([1, rows - 1, rows, rows + 1, 2 * rows + 1]), st.integers(1, 2 * rows + 2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    masks = rng.integers(0, 2**63, size=size, dtype=np.uint64) << np.uint64(1) & np.uint64(_full_offdiag(n))
    # one one-row call per distinct mask: at two vertices a chunk holds far more masks than there are digraphs
    one_row = {mask: name_word(patterns_in(Digraph.from_mask(n, mask))) for mask in set(masks.tolist())}
    assert pattern_words(n, masks).tolist() == [one_row[mask] for mask in masks.tolist()], n


def test_patterns_in_rejects_more_than_eight_vertices() -> None:
    with pytest.raises(ValueError, match="at most 8 vertices, got 9"):
        patterns_in(Digraph(9))


@pytest.mark.parametrize(("n", "mask"), [(2, 1), (2, 1 << 20), (8, 1 << 63)])
def test_pattern_words_reject_masks_of_no_digraph(n: int, mask: int) -> None:
    # a loop (bit 0, or bit 63 at eight vertices) or a bit past the n*n matrix
    # would otherwise read as the subsets it leaves, here the edgeless I2
    with pytest.raises(ValueError):
        pattern_words(n, np.array([mask], dtype=np.uint64))


def test_pattern_words_read_the_last_arc_of_eight_vertices() -> None:
    # bit 62 is the arc 7 -> 6; the range test must not shift a uint64 by 64
    got = pattern_words(8, np.array([1 << 62], dtype=np.uint64))
    assert got.tolist() == [name_word(patterns_in(Digraph.from_mask(8, 1 << 62)))]


@pytest.mark.parametrize("n", [0, -1])
def test_pattern_words_reject_vertex_counts_below_one(n: int) -> None:
    with pytest.raises(ValueError, match=f"got {n}"):
        pattern_words(n, np.zeros(1, dtype=np.uint64))


@pytest.mark.parametrize("masks", [np.array([2, 4], dtype=np.int64), [2, 4], 4])
def test_pattern_words_read_any_integer_masks(masks) -> None:
    want = pattern_words(2, np.asarray(masks, dtype=np.uint64))
    got = pattern_words(2, masks)
    assert np.shape(got) == np.shape(want) and got.tolist() == want.tolist()


def test_patterns_in_names_every_pattern_and_its_alias() -> None:
    aliases = {"D11": "Q1", "D15": "Q2", "D12": "coQ2", "coD11": "coQ1"}
    aliases.update({b: a for a, b in aliases.items()})
    for name, p in PATTERNS.items():
        found = patterns_in(p)
        assert name in found, name
        # a pattern contains none of its own size but itself and its alias
        assert {m for m in found if PATTERNS[m].n == p.n} == {name, aliases.get(name, name)}, name


def test_contains_small_rejects_larger_patterns() -> None:
    with pytest.raises(ValueError):
        contains_small(PATTERNS["D8"], PATTERNS["D8"])


def test_committed_fixture_files_match_patterns() -> None:
    for name, p in PATTERNS.items():
        path = os.path.join(FIXTURE_DIR, f"{name}.edges")
        with open(path, encoding="ascii") as fh:
            assert parse_edge_list(fh.read()) == p, name


def test_written_fixtures_reproduce_committed_files(tmp_path) -> None:
    paths = write_pattern_fixtures(str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == sorted(
        f for f in os.listdir(FIXTURE_DIR) if f.endswith(".edges")
    )
    for path in paths:
        name = os.path.basename(path)
        with open(path, "rb") as fresh, open(os.path.join(FIXTURE_DIR, name), "rb") as committed:
            assert fresh.read() == committed.read(), name


@pytest.mark.parametrize("name", ["Q3", "Q7", "coQ3", "coQ7", "D21", "D22", "D23"])
def test_six_vertex_patterns_exist(name: str) -> None:
    assert PATTERNS[name].n == 6
