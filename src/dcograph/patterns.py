"""Forbidden-pattern catalog: small digraphs, induced-containment search, partial patterns."""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from dcograph.construct import compose
from dcograph.core import _MEMO_SIZE, Digraph, format_edge_list


def _dg(n: int, *arcs: tuple[int, int]) -> Digraph:
    return Digraph(n, arcs)


# Single-pair and 3-vertex building blocks.
P2ARROW = _dg(2, (0, 1))
K2BIDIR = _dg(2, (0, 1), (1, 0))
I2 = _dg(2)
I3 = _dg(3)
K3BIDIR = _dg(3, (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))
P3BIDIR = _dg(3, (0, 1), (1, 0), (1, 2), (2, 1))
CO_P3BIDIR = P3BIDIR.complement()

# The 3- and 4-vertex obstructions for directed co-graphs and their relatives.
D1 = _dg(3, (0, 1), (1, 2))
D2 = _dg(3, (0, 1), (1, 0), (1, 2))
D3 = _dg(3, (0, 1), (1, 0), (2, 1))
D4 = D1.complement()
D5 = _dg(3, (0, 1), (1, 2), (2, 0))
D8 = _dg(4, (0, 1), (2, 1), (2, 3))
D6 = D8.complement()
D7 = _dg(4, (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2))
D9 = compose("series", I2, I2)
D10 = compose("series", P2ARROW, I2)
D11 = compose("series", P2ARROW, P2ARROW)
D12 = compose("order", I2, I2)
D13 = compose("order", I2, K2BIDIR)
D14 = compose("order", K2BIDIR, I2)
D15 = compose("order", K2BIDIR, K2BIDIR)
CO_D9 = D9.complement()
CO_D10 = D10.complement()
CO_D11 = D11.complement()

# Weakly-quasi-threshold obstructions built from the four 2/3-vertex seeds.
_Y1 = K2BIDIR
_Y2 = P2ARROW
_Y3 = compose("union", K2BIDIR, _dg(1))
_Y4 = compose("union", P2ARROW, _dg(1))
Q1 = compose("series", _Y2, _Y2)
Q2 = compose("order", _Y1, _Y1)
Q3 = compose("series", _Y3, _Y3)
Q4 = compose("series", _Y2, _Y3)
Q5 = compose("order", _Y1, _Y4)
Q6 = compose("order", _Y4, _Y1)
Q7 = compose("order", _Y4, _Y4)
CO_Q1 = Q1.complement()
CO_Q2 = Q2.complement()
CO_Q3 = Q3.complement()
CO_Q4 = Q4.complement()
CO_Q5 = Q5.complement()
CO_Q6 = Q6.complement()
CO_Q7 = Q7.complement()

# Star-pair obstructions: disjoint unions of in-stars and out-stars.
_IN_STAR = _dg(3, (0, 1), (2, 1))
_OUT_STAR = _dg(3, (1, 0), (1, 2))
D21 = compose("union", _IN_STAR, _IN_STAR)
D22 = compose("union", _OUT_STAR, _OUT_STAR)
D23 = compose("union", _OUT_STAR, _IN_STAR)

PATTERNS: dict[str, Digraph] = {
    "D1": D1, "D2": D2, "D3": D3, "D4": D4, "D5": D5, "D6": D6, "D7": D7,
    "D8": D8, "D9": D9, "D10": D10, "D11": D11, "D12": D12, "D13": D13,
    "D14": D14, "D15": D15,
    "coD9": CO_D9, "coD10": CO_D10, "coD11": CO_D11,
    "Q1": Q1, "Q2": Q2, "Q3": Q3, "Q4": Q4, "Q5": Q5, "Q6": Q6, "Q7": Q7,
    "coQ1": CO_Q1, "coQ2": CO_Q2, "coQ3": CO_Q3, "coQ4": CO_Q4,
    "coQ5": CO_Q5, "coQ6": CO_Q6, "coQ7": CO_Q7,
    "D21": D21, "D22": D22, "D23": D23,
    "P2arrow": P2ARROW, "K2bidir": K2BIDIR, "I2": I2, "I3": I3,
    "K3bidir": K3BIDIR, "P3bidir": P3BIDIR, "coP3bidir": CO_P3BIDIR,
}

# canonical forms record the vertex count, so a pattern larger than the
# digraph it is looked up in never matches
_FORMS: dict[str, bytes] = {name: p.canonical_form() for name, p in PATTERNS.items()}

_D1_8 = ("D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8")
_D1_15 = _D1_8 + ("D9", "D10", "D11", "D12", "D13", "D14", "D15")
_Q1_7 = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7")
_CO_Q1_7 = ("coQ1", "coQ2", "coQ3", "coQ4", "coQ5", "coQ6", "coQ7")
_CO_D9_11 = ("coD9", "coD10", "coD11")

# class name -> minimal forbidden induced subdigraphs
CATALOG: dict[str, tuple[str, ...]] = {
    "DC": _D1_8,
    "OC": ("D1", "D5", "D8", "K2bidir"),
    "DTP": _D1_15,
    "OTP": ("D1", "D5", "D8", "K2bidir", "D12"),
    "DCTP": _D1_8 + ("D12", "D13", "D14", "D15") + _CO_D9_11,
    "OCTP": ("D1", "D5", "D8", "D12", "coD11", "K2bidir"),
    "DT": _D1_15 + _CO_D9_11,
    "OT": ("D1", "D5", "D8", "K2bidir", "D12", "coD11"),
    "DWQT": _D1_8 + _Q1_7,
    "OWQT": ("D1", "D5", "D8", "K2bidir", "Q7"),
    "DCWQT": _D1_8 + _CO_Q1_7,
    "OCWQT": ("D1", "D5", "D8", "K2bidir", "D12", "D21", "D22", "D23"),
    "DSC": _D1_8 + _Q1_7 + _CO_D9_11,
    "OSC": ("D1", "D5", "D8", "K2bidir", "Q7", "coD11"),
    "DCSC": _D1_8 + ("Q1",) + _CO_Q1_7 + ("D9", "D10"),
    "OCSC": ("D1", "D5", "D8", "K2bidir", "D12", "D21", "D22", "D23"),
    "TT": ("I2", "K2bidir", "D5"),
    "TD": ("D5",),
    "FD": ("D1", "K2bidir"),
    "EdgelessD": ("P2arrow", "K2bidir"),
    "BidirComplete": ("P2arrow", "I2"),
    "TwoBidirCliques": ("P3bidir", "P2arrow", "I3"),
    "BidirCompleteBipartite": ("coP3bidir", "P2arrow", "K3bidir"),
    "SeriesOfStableSets": ("coP3bidir", "P2arrow"),
    "UnionOfBidirCliques": ("P3bidir", "P2arrow"),
}


def catalog(class_name: str) -> tuple[Digraph, ...]:
    if class_name not in CATALOG:
        raise ValueError(f"unknown class {class_name!r}")
    return tuple(PATTERNS[p] for p in CATALOG[class_name])


def contains_induced(g: Digraph, pattern: Digraph) -> tuple[int, ...] | None:
    """Occurrence witness: tuple w with w[p] = vertex of g playing pattern vertex p, or None.

    Enumerates vertex subsets, skips those whose arc count differs from the
    pattern's, then matches by canonical form; the first (lexicographically
    smallest) subset wins.
    """
    k = pattern.n
    if k > g.n:
        return None
    pat_arc_count = pattern.arc_count
    for subset in combinations(range(g.n), k):
        sub = g.induced(subset)
        if sub.arc_count != pat_arc_count:
            continue
        iso = pattern.isomorphism_to(sub)
        if iso is None:
            continue
        return tuple(subset[iso[p]] for p in range(k))
    return None


def is_free(g: Digraph, patterns: tuple[Digraph, ...]) -> bool:
    """True iff no pattern in the tuple occurs as an induced subdigraph of g."""
    return all(contains_induced(g, p) is None for p in patterns)


@lru_cache(maxsize=_MEMO_SIZE)
def induced_canon_set(g: Digraph) -> frozenset[bytes]:
    """Canonical forms of all induced subdigraphs of g (g.n <= 8); memoized."""
    return frozenset(
        g.induced(subset).canonical_form()
        for k in range(1, g.n + 1)
        for subset in combinations(range(g.n), k)
    )


def free_of(sub_canons: frozenset[bytes], names: Iterable[str]) -> bool:
    """True iff none of the named patterns is in sub_canons, an induced_canon_set(g)."""
    return all(_FORMS[name] not in sub_canons for name in names)


@dataclass(frozen=True)
class PartialPattern:
    """Role-based arc constraints: required and forbidden ordered pairs over 4 roles."""

    name: str
    roles: tuple[str, str, str, str]
    required: tuple[tuple[int, int], ...]
    forbidden: tuple[tuple[int, int], ...]
    distinct: tuple[tuple[int, int], ...]


# Roles w,x,y,z all pairwise distinct; arcs (w,x),(y,z) in, (w,z),(y,x) out.
TWO_SWITCH = PartialPattern(
    name="2-switch",
    roles=("w", "x", "y", "z"),
    required=((0, 1), (2, 3)),
    forbidden=((0, 3), (2, 1)),
    distinct=tuple((i, j) for i in range(4) for j in range(i + 1, 4)),
)

# Roles x,y,z,w with only x != z and y != w; other coincidences allowed.
ANTICIRCUIT = PartialPattern(
    name="alternating-4-anticircuit",
    roles=("x", "y", "z", "w"),
    required=((0, 1), (2, 3)),
    forbidden=((0, 3), (2, 1)),
    distinct=((0, 2), (1, 3)),
)


def match_partial(g: Digraph, pp: PartialPattern) -> tuple[int, ...] | None:
    """First role assignment satisfying the partial pattern, or None.

    Iterates over ordered arc pairs for the two required arcs, so the cost is
    O(m^2) rather than O(n^4). A required arc whose endpoints coincide can
    never be satisfied (no loops); a forbidden pair that coincides is vacuous.
    """
    arcs = g.arcs
    # both partial patterns share the required-arc shape ((0,1),(2,3))
    assert pp.required == ((0, 1), (2, 3))
    for a in arcs:
        for b in arcs:
            assignment = (a[0], a[1], b[0], b[1])
            if any(assignment[i] == assignment[j] for i, j in pp.distinct):
                continue
            ok = True
            for u, v in pp.forbidden:
                s, t = assignment[u], assignment[v]
                if s != t and g.has_arc(s, t):
                    ok = False
                    break
            if ok:
                return assignment
    return None


def has_two_switch(g: Digraph) -> bool:
    return match_partial(g, TWO_SWITCH) is not None


def has_anticircuit(g: Digraph) -> bool:
    return match_partial(g, ANTICIRCUIT) is not None


def write_pattern_fixtures(directory: str) -> list[str]:
    """Write every named pattern as <name>.edges into directory; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name in sorted(PATTERNS):
        path = os.path.join(directory, f"{name}.edges")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(format_edge_list(PATTERNS[name]))
        paths.append(path)
    return paths
