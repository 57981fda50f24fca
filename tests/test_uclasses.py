"""Undirected companion classes: catalogs, co-closure, hierarchy figure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcograph.construct import compose
from dcograph.core import UndirectedGraph
from dcograph.mine import verify_hierarchy
from dcograph.patterns import contains_induced
from dcograph.recognize import ClassId, member_constructive
from dcograph.uclasses import (
    FORB_U,
    UPATTERNS,
    UClassId,
    enumerate_undirected,
    member_u,
)


def test_class_ids_hash_by_identity() -> None:
    # membership reads key dicts by class; Enum.__hash__ would hash the name in Python
    for x in (*ClassId, *UClassId):
        assert type(x).__hash__ is object.__hash__ and hash(x) == object.__hash__(x), x


def test_enumeration_counts() -> None:
    assert [len(enumerate_undirected(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_member_u_takes_a_class_by_value() -> None:
    # as the directed entry points: a member or its value, and an unknown value is a ValueError
    for u in (UndirectedGraph(2), UPATTERNS["P4"]):
        for x in UClassId:
            assert member_u(u, x.value) == member_u(u, x), (u, x)
    with pytest.raises(ValueError):
        member_u(UndirectedGraph(2), "nope")


def test_upatterns_minimality() -> None:
    for x, names in FORB_U.items():
        for name in names:
            p = UPATTERNS[name]
            assert not member_u(p, x), (x, name)
            for v in range(p.n):
                rest = [u for u in range(p.n) if u != v]
                assert member_u(p.induced(rest), x), (x, name, v)


def _free_of_forbidden(u: UndirectedGraph, x: UClassId) -> bool:
    """Reference membership: no forbidden graph of FORB_U[x] occurs induced in u."""
    d = u.to_digraph()
    return all(contains_induced(d, UPATTERNS[p].to_digraph()) is None for p in FORB_U[x])


@pytest.mark.parametrize(
    ("u_id", "d_id"),
    [
        (UClassId.C, ClassId.DC),
        (UClassId.TP, ClassId.DTP),
        (UClassId.CTP, ClassId.DCTP),
        (UClassId.T, ClassId.DT),
        (UClassId.SC, ClassId.DSC),
        (UClassId.CSC, ClassId.DCSC),
        (UClassId.WQT, ClassId.DWQT),
        (UClassId.CWQT, ClassId.DCWQT),
        (UClassId.EDGELESS, ClassId.EDGELESS),
        (UClassId.COMPLETE, ClassId.BIDIR_COMPLETE),
        (UClassId.TWO_CLIQUES, ClassId.TWO_BIDIR_CLIQUES),
        (UClassId.COMPLETE_BIPARTITE, ClassId.BIDIR_COMPLETE_BIPARTITE),
        (UClassId.CLIQUE_UNION, ClassId.UNION_OF_BIDIR_CLIQUES),
        (UClassId.STABLE_JOIN, ClassId.SERIES_OF_STABLE_SETS),
    ],
)
def test_symmetric_encoding_matches_directed_class(u_id, d_id) -> None:
    # a symmetric digraph lies in the directed class exactly when the
    # undirected graph it encodes avoids the companion class's forbidden
    # subgraphs; member_u reads that directed class
    graphs = [u for n in range(1, 7) for u in enumerate_undirected(n)]
    assert len(graphs) == 208
    for u in graphs:
        expected = _free_of_forbidden(u, u_id)
        assert member_constructive(u.to_digraph(), d_id) == expected, u
        assert member_u(u, u_id) == expected, u


@st.composite
def _symmetric_cographs(draw, n: int) -> UndirectedGraph:
    """A cograph on n vertices: symmetric union or series of two smaller cographs."""
    if n == 1:
        return UndirectedGraph(1)
    k = draw(st.integers(min_value=1, max_value=n - 1))
    a, b = draw(_symmetric_cographs(k)), draw(_symmetric_cographs(n - k))
    op = draw(st.sampled_from(["union", "series"]))
    return compose(op, a.to_digraph(), b.to_digraph()).underlying()


@st.composite
def _graphs_past_the_enumeration(draw) -> UndirectedGraph:
    n = draw(st.integers(min_value=7, max_value=12))
    if draw(st.booleans()):
        u = draw(_symmetric_cographs(n))
    else:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        u = UndirectedGraph(n, [e for e in pairs if draw(st.booleans())])
    perm = draw(st.permutations(range(n)))
    return UndirectedGraph(n, [(perm[a], perm[b]) for a, b in u.edges])


@settings(max_examples=40)
@given(_graphs_past_the_enumeration())
def test_symmetric_encoding_past_the_enumeration(u: UndirectedGraph) -> None:
    for x in UClassId:
        assert member_u(u, x) == _free_of_forbidden(u, x), x


@pytest.mark.parametrize(
    ("a", "b"),
    [
        (UClassId.C, UClassId.C),
        (UClassId.T, UClassId.T),
        (UClassId.TP, UClassId.CTP),
        (UClassId.SC, UClassId.CSC),
        (UClassId.WQT, UClassId.CWQT),
    ],
)
def test_complement_pairs(a, b) -> None:
    for n in range(1, 6):
        for u in enumerate_undirected(n):
            assert member_u(u, a) == member_u(u.complement(), b)


def test_pattern_containment_spot_checks() -> None:
    p4 = UPATTERNS["P4"]
    assert contains_induced(p4.to_digraph(), UPATTERNS["P3"].to_digraph()) is not None
    assert contains_induced(p4.to_digraph(), UPATTERNS["K3"].to_digraph()) is None
    assert member_u(UPATTERNS["K3"], UClassId.C)
    assert not member_u(p4, UClassId.C)


def test_micro_classes_spot_checks() -> None:
    assert member_u(UPATTERNS["I3"], UClassId.EDGELESS)
    assert member_u(UPATTERNS["K3"], UClassId.COMPLETE)
    assert member_u(UPATTERNS["2K2"], UClassId.TWO_CLIQUES)
    assert member_u(UPATTERNS["C4"], UClassId.COMPLETE_BIPARTITE)
    assert not member_u(UPATTERNS["P3"], UClassId.CLIQUE_UNION)
    assert member_u(UPATTERNS["C4"], UClassId.STABLE_JOIN)


def test_hierarchy_figure_failures_shrink_at_six_vertices() -> None:
    # ten rows lack a separating witness at five vertices; at six only the
    # two genuine inclusions remain (every small-split-class member avoiding
    # P4, 2P3 and C4 also avoids C4-carrying co2P3, so no witness exists)
    five = verify_hierarchy(n_max=5, directed=False)
    assert sorted(r.subject for r in five.rows if r.verdict != "ok") == sorted(
        [
            "SC proper-subset CTP",
            "WQT proper-subset C",
            "CWQT proper-subset C",
            "TP not-below CSC",
            "CSC not-below TP",
            "TP not-below CWQT",
            "CTP not-below WQT",
            "CSC not-below WQT",
            "WQT not-below CWQT",
            "CWQT not-below WQT",
        ]
    )
    six = verify_hierarchy(n_max=6, directed=False)
    assert sorted(r.subject for r in six.rows if r.verdict != "ok") == [
        "CSC not-below TP",
        "CSC not-below WQT",
    ]
