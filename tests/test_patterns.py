"""Obstruction catalogs: occurrence search, minimality, partial patterns."""

from __future__ import annotations

import os

import pytest

from dcograph.core import Digraph, parse_edge_list
from dcograph.mine import is_minimal_obstruction
from dcograph.patterns import (
    ANTICIRCUIT,
    CATALOG,
    PATTERNS,
    TWO_SWITCH,
    catalog,
    contains_induced,
    free_of,
    has_anticircuit,
    has_two_switch,
    induced_canon_set,
    is_free,
    match_partial,
    write_pattern_fixtures,
)
from dcograph.recognize import ClassId, member_by_patterns

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


def test_free_of_agrees_with_occurrence_search(reps_small) -> None:
    for g in reps_small:
        canons = induced_canon_set(g)
        for names in CATALOG.values():
            expected = is_free(g, tuple(PATTERNS[n] for n in names))
            assert free_of(canons, names) == expected, (g, names)


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
