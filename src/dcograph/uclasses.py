"""Undirected co-graph subclasses, read from the di-co-tree of the symmetric digraph.

The paper obtains each directed class by transmitting an undirected class to
the digraph grammar, so on symmetric digraphs the grammar decides the
undirected class: a graph is a cograph exactly when its symmetric digraph is a
directed co-graph, and so on for every class in `DIRECTED`. `FORB_U` keeps
the forbidden induced subgraphs of each class as data; the tests use them as
the reference that membership is checked against.
"""
from __future__ import annotations

from enum import Enum

from dcograph.core import UndirectedGraph
from dcograph.recognize import ClassId, member_constructive


class UClassId(Enum):
    __hash__ = object.__hash__  # by identity, as ClassId

    C = "C"
    TP = "TP"
    CTP = "CTP"
    T = "T"
    SC = "SC"
    CSC = "CSC"
    WQT = "WQT"
    CWQT = "CWQT"
    EDGELESS = "Edgeless"
    COMPLETE = "Complete"
    TWO_CLIQUES = "TwoCliques"
    COMPLETE_BIPARTITE = "CompleteBipartite"
    CLIQUE_UNION = "CliqueUnion"
    STABLE_JOIN = "StableJoin"


def _ug(n: int, *edges: tuple[int, int]) -> UndirectedGraph:
    return UndirectedGraph(n, edges)


P2 = _ug(2, (0, 1))
P3 = _ug(3, (0, 1), (1, 2))
P4 = _ug(4, (0, 1), (1, 2), (2, 3))
C4 = _ug(4, (0, 1), (1, 2), (2, 3), (0, 3))
K3 = _ug(3, (0, 1), (0, 2), (1, 2))
I3 = _ug(3)
TWO_K2 = _ug(4, (0, 1), (2, 3))
TWO_P3 = _ug(6, (0, 1), (1, 2), (3, 4), (4, 5))
CO_P2 = _ug(2)
CO_P3 = P3.complement()
CO_2P3 = TWO_P3.complement()

UPATTERNS: dict[str, UndirectedGraph] = {
    "P2": P2,
    "P3": P3,
    "P4": P4,
    "C4": C4,
    "K3": K3,
    "I3": I3,
    "2K2": TWO_K2,
    "2P3": TWO_P3,
    "coP2": CO_P2,
    "coP3": CO_P3,
    "co2P3": CO_2P3,
}

FORB_U: dict[UClassId, tuple[str, ...]] = {
    UClassId.C: ("P4",),
    UClassId.TP: ("P4", "C4"),
    UClassId.CTP: ("P4", "2K2"),
    UClassId.T: ("P4", "C4", "2K2"),
    UClassId.SC: ("P4", "co2P3", "2K2"),
    UClassId.CSC: ("P4", "2P3", "C4"),
    UClassId.WQT: ("P4", "co2P3"),
    UClassId.CWQT: ("P4", "2P3"),
    UClassId.EDGELESS: ("P2",),
    UClassId.COMPLETE: ("coP2",),
    UClassId.TWO_CLIQUES: ("I3", "P3"),
    UClassId.COMPLETE_BIPARTITE: ("K3", "coP3"),
    UClassId.CLIQUE_UNION: ("P3",),
    UClassId.STABLE_JOIN: ("coP3",),
}


# the directed class whose symmetric members encode each undirected class
DIRECTED: dict[UClassId, ClassId] = {
    UClassId.C: ClassId.DC,
    UClassId.TP: ClassId.DTP,
    UClassId.CTP: ClassId.DCTP,
    UClassId.T: ClassId.DT,
    UClassId.SC: ClassId.DSC,
    UClassId.CSC: ClassId.DCSC,
    UClassId.WQT: ClassId.DWQT,
    UClassId.CWQT: ClassId.DCWQT,
    UClassId.EDGELESS: ClassId.EDGELESS,
    UClassId.COMPLETE: ClassId.BIDIR_COMPLETE,
    UClassId.TWO_CLIQUES: ClassId.TWO_BIDIR_CLIQUES,
    UClassId.COMPLETE_BIPARTITE: ClassId.BIDIR_COMPLETE_BIPARTITE,
    UClassId.CLIQUE_UNION: ClassId.UNION_OF_BIDIR_CLIQUES,
    UClassId.STABLE_JOIN: ClassId.SERIES_OF_STABLE_SETS,
}


def member_u(g: UndirectedGraph, x: UClassId | str) -> bool:
    """Membership of g's symmetric digraph in the directed class encoding x, a member or a value ("C")."""
    return member_constructive(g.to_digraph(), DIRECTED[x if isinstance(x, UClassId) else UClassId(x)])


def enumerate_undirected(n: int) -> list[UndirectedGraph]:
    """One representative per isomorphism class of n-vertex undirected graphs (n <= 6).

    Read from the symmetric digraphs that the sweep engine enumerates.
    """
    from dcograph.mine import _graphs  # mine imports this module

    return [UndirectedGraph._of(g) for g in _graphs("undirected", n)]
