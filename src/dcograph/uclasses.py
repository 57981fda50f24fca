"""Undirected co-graph subclasses recognized by forbidden induced subgraphs."""
from __future__ import annotations

from enum import Enum

from dcograph.core import UndirectedGraph
from dcograph.patterns import contains_induced


class UClassId(Enum):
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


def member_u(g: UndirectedGraph, x: UClassId) -> bool:
    """Membership by freeness from the class's forbidden induced subgraphs."""
    d = g.to_digraph()
    return all(contains_induced(d, UPATTERNS[p].to_digraph()) is None for p in FORB_U[x])


_U_LEVELS: list[list[UndirectedGraph]] = [[UndirectedGraph(1)]]


def enumerate_undirected(n: int) -> list[UndirectedGraph]:
    """One representative per isomorphism class of n-vertex undirected graphs (n <= 7).

    Built by one-vertex extension of the (n-1)-level representatives: deleting
    the last vertex of any n-vertex graph lands on some (n-1)-representative up
    to isomorphism, and every attachment set is tried, so each class is hit.
    """
    if not 1 <= n <= 7:
        raise ValueError(f"undirected enumeration supports 1..7 vertices, got {n}")
    while len(_U_LEVELS) < n:
        k = len(_U_LEVELS)
        seen: set[bytes] = set()
        level: list[UndirectedGraph] = []
        for g in _U_LEVELS[-1]:
            base = list(g.edges)
            for bits in range(1 << k):
                extra = [(v, k) for v in range(k) if bits >> v & 1]
                cand = UndirectedGraph(k + 1, base + extra)
                key = cand.canonical_form()
                if key not in seen:
                    seen.add(key)
                    level.append(cand)
        _U_LEVELS.append(level)
    return list(_U_LEVELS[n - 1])
