"""Membership recognizers: the di-co-tree's class word, forbidden patterns, grammar oracle.

Each of the 23 constructive classes (the 16 grammar classes, TT and the six
micro classes) is one bit of the memoized di-co-tree's `classes` word, so a
digraph is split once whichever of them is asked. TD and FD have no
construction and are decided by patterns on out-rows. Every function that
takes a digraph g raises `decompose._require_digraph`'s TypeError on anything
else.
"""
from __future__ import annotations

from typing import Callable, Container, Iterable

import numpy as np

from dcograph.construct import (
    Expression,
    bidirectional_complete,
    compose,
    edgeless,
    transitive_tournament,
)
from dcograph.core import Digraph
# the grammar lives with the di-co-tree that evaluates it; ANY, FORBIDDEN,
# RULES and the class tuples are re-exported here for callers of this module
from dcograph.decompose import (
    ANY,
    CLASS_BIT,
    FORBIDDEN,
    GRAMMAR_CLASSES,
    MICRO_CLASSES,
    RULES,
    ClassId,
    _require_digraph,
    _tree,
    di_co_tree,
)
from dcograph.patterns import (
    CATALOG,
    PATTERN_ROUTE_MAX_N,
    PATTERNS,
    catalog,
    has_directed_triangle,
    is_free,
    match_partial,
    name_word,
    pattern_words,
    ANTICIRCUIT,
    TWO_SWITCH,
)

PATTERN_ONLY_CLASSES: tuple[ClassId, ...] = (ClassId.TD, ClassId.FD)


class RouteDisagreement(Exception):
    """The membership routes disagreed, or a non-member shrank outside its catalog; never resolved silently."""

    def __init__(self, class_id: ClassId, g: Digraph, constructive: bool, by_patterns: bool):
        self.class_id = class_id
        self.digraph = g
        self.constructive = constructive
        self.by_patterns = by_patterns
        super().__init__(
            f"route disagreement for {class_id.value} on {g!r}: "
            f"constructive={constructive}, patterns={by_patterns}"
        )


def _class_id(x: ClassId | str) -> ClassId:
    """The class given by member or by value ("DC"); an unknown value is a ValueError."""
    # ClassId(x) costs about 0.6 µs even on a member, so members pass as they are
    return x if isinstance(x, ClassId) else ClassId(x)


def member_constructive(g: Digraph, x: ClassId | str) -> bool:
    """Membership via the class's construction: one bit of the digraph's one di-co-tree."""
    _require_digraph(g)
    x = _class_id(x)
    bit = CLASS_BIT.get(x)
    if bit is None:
        raise ValueError(f"{x.value} has no constructive recognizer; use member_by_patterns")
    return bool(_tree(g).classes >> bit & 1)


def constructive_certificate(g: Digraph, x: ClassId | str) -> Expression | None:
    """A construction expression conforming to the class grammar, or None.

    The di-co-tree certifies every constructive class: a part of a rest kind
    decomposes into leaves joined by that kind's operation, which the grammar
    admits as the rest side.
    """
    return di_co_tree(g) if member_constructive(g, x) else None


# -- pattern route ------------------------------------------------------------

_PARTIAL = {ClassId.TD: TWO_SWITCH, ClassId.FD: ANTICIRCUIT}


def member_by_patterns(g: Digraph, x: ClassId | str) -> bool:
    """Membership by freeness from the class catalog, or for TD and FD by out-row scans at any n.

    TD is free of two-switches and of D5; FD needs only its anticircuit scan, as D1 and K2bidir each hold one.
    """
    _require_digraph(g)
    x = _class_id(x)
    if x in PATTERN_ONLY_CLASSES:
        return match_partial(g, _PARTIAL[x]) is None and not (x is ClassId.TD and has_directed_triangle(g))
    return is_free(g, catalog(x.value))


def member(g: Digraph, x: ClassId | str) -> bool:
    """Membership in x by its one recognizer: out-rows for TD and FD, the construction for the rest."""
    x = _class_id(x)
    if x in PATTERN_ONLY_CLASSES:
        return member_by_patterns(g, x)
    return member_constructive(g, x)


# one bit per class in a class word: the constructive classes at CLASS_BIT, then TD and FD
WORD_BIT: dict[ClassId, int] = {
    **CLASS_BIT, **{x: len(CLASS_BIT) + i for i, x in enumerate(PATTERN_ONLY_CLASSES)}
}
# each constructive class's catalog as a name word: a member's pattern word shares no bit with it
_CATALOG_WORD: dict[ClassId, int] = {x: name_word(CATALOG[x.value]) for x in CLASS_BIT}


def _require_collection(classes: object) -> None:
    """A TypeError for a bare string, which is a collection of its characters and not of the class it names."""
    if isinstance(classes, str):
        raise TypeError(f"classes must be a collection of classes, not the string {classes!r}; try [{classes!r}]")


def class_word(g: Digraph, classes: Container[ClassId] | None = None) -> int:
    """Every class g is in, as one word with bit WORD_BIT[x] set per class x; TD and FD only if in classes.

    A bare string for classes is a TypeError, as in `classify`.
    """
    _require_digraph(g)
    _require_collection(classes)
    word = _tree(g).classes
    for x in PATTERN_ONLY_CLASSES:
        if (classes is None or x in classes) and member_by_patterns(g, x):
            word |= 1 << WORD_BIT[x]
    return word


def violating_occurrence(g: Digraph, x: ClassId | str) -> tuple[str, tuple[int, ...]] | None:
    """A minimal obstruction as (pattern name, vertex occurrence), or None if member.

    Every class is hereditary, so dropping v = n-1, ..., 0 whenever the rest stays a
    non-member keeps a minimal one in n membership tests. It is named from the class
    catalog, or for TD/FD by partial-pattern roles; anything else raises RouteDisagreement.
    """
    x = _class_id(x)
    if member(g, x):
        return None
    kept = list(range(g.n))
    for v in reversed(range(g.n)):
        rest = [u for u in kept if u != v]
        if not member(g.induced(rest), x):
            kept = rest
    sub = g.induced(kept)
    for name in CATALOG[x.value]:
        iso = PATTERNS[name].isomorphism_to(sub)
        if iso is not None:
            return (name, tuple(kept[i] for i in iso))
    roles = match_partial(sub, _PARTIAL[x]) if x in PATTERN_ONLY_CLASSES else None
    if roles is not None:
        return (_PARTIAL[x].name, tuple(kept[i] for i in roles))
    raise RouteDisagreement(x, sub, False, True)


def classify(g: Digraph, classes: Iterable[ClassId | str] | None = None) -> set[ClassId]:
    """The classes g belongs to among classes (by default all), read from one class word.

    Up to PATTERN_ROUTE_MAX_N vertices each constructive class asked is checked against
    one pattern word, and a disagreement raises RouteDisagreement at the first such class.
    A class may be given by its value ("DC"); an unknown one is a ValueError, and
    a bare string for classes is a TypeError.
    """
    _require_collection(classes)
    chosen = list(ClassId) if classes is None else [_class_id(x) for x in classes]
    word = class_word(g, chosen)
    checked = [x for x in chosen if x in _CATALOG_WORD]
    if checked and g.n <= PATTERN_ROUTE_MAX_N:
        present = int(pattern_words(g.n, np.uint64(g.mask)))
        for x in checked:
            verdict, by_patterns = bool(word >> WORD_BIT[x] & 1), not present & _CATALOG_WORD[x]
            if by_patterns != verdict:
                raise RouteDisagreement(x, g, verdict, by_patterns)
    return {x for x in chosen if word >> WORD_BIT[x] & 1}


# -- literal-grammar oracle ---------------------------------------------------

# side kinds: "G" class member, "dot" single vertex, "I" edgeless,
# "K" bidirectional complete, "T" transitive tournament
_ORACLE_SPEC: dict[ClassId, dict[str, object]] = {
    ClassId.DC: {"base": "dot", "union": ("G", "G"), "order": [("G", "G")], "series": ("G", "G")},
    ClassId.OC: {"base": "dot", "union": ("G", "G"), "order": [("G", "G")], "series": None},
    ClassId.DTP: {"base": "dot", "union": ("G", "G"), "order": [("G", "dot"), ("dot", "G")], "series": ("G", "dot")},
    ClassId.OTP: {"base": "dot", "union": ("G", "G"), "order": [("G", "dot"), ("dot", "G")], "series": None},
    ClassId.DCTP: {"base": "dot", "union": ("G", "dot"), "order": [("G", "dot"), ("dot", "G")], "series": ("G", "G")},
    ClassId.OCTP: {"base": "dot", "union": ("G", "dot"), "order": [("G", "dot"), ("dot", "G")], "series": None},
    ClassId.DT: {"base": "dot", "union": ("G", "dot"), "order": [("G", "dot"), ("dot", "G")], "series": ("G", "dot")},
    ClassId.OT: {"base": "dot", "union": ("G", "dot"), "order": [("G", "dot"), ("dot", "G")], "series": None},
    ClassId.DWQT: {"base": "I", "union": ("G", "G"), "order": [("G", "I"), ("I", "G")], "series": ("G", "I")},
    ClassId.OWQT: {"base": "I", "union": ("G", "G"), "order": [("G", "I"), ("I", "G")], "series": None},
    ClassId.DCWQT: {"base": "K", "union": ("G", "K"), "order": [("G", "K"), ("K", "G")], "series": ("G", "G")},
    ClassId.OCWQT: {"base": "T", "union": ("G", "T"), "order": [("G", "T"), ("T", "G")], "series": None},
    ClassId.DSC: {"base": "dot", "union": ("G", "I"), "order": [("G", "I"), ("I", "G")], "series": ("G", "I")},
    ClassId.OSC: {"base": "dot", "union": ("G", "I"), "order": [("G", "I"), ("I", "G")], "series": None},
    ClassId.DCSC: {"base": "dot", "union": ("G", "K"), "order": [("G", "K"), ("K", "G")], "series": ("G", "K")},
    ClassId.OCSC: {"base": "dot", "union": ("G", "T"), "order": [("G", "T"), ("T", "G")], "series": None},
}

_ORACLE_CACHE: dict[ClassId, list[dict[bytes, Digraph]]] = {}

_SIDE_BUILDERS: dict[str, Callable[[int], Digraph]] = {
    "I": edgeless,
    "K": bidirectional_complete,
    "T": transitive_tournament,
}


def _side_digraphs(kind: str, size: int, levels: list[dict[bytes, Digraph]]) -> list[Digraph]:
    if kind == "G":
        return list(levels[size - 1].values())
    if kind == "dot":
        return [Digraph(1)] if size == 1 else []
    return [_SIDE_BUILDERS[kind](size)]


def oracle_members(x: ClassId, n: int) -> frozenset[bytes]:
    """Canonical forms of all n-vertex members per the literal class definition."""
    return frozenset(oracle_level(x, n))


def oracle_level(x: ClassId, n: int) -> dict[bytes, Digraph]:
    """Canonical form -> representative for all n-vertex members (n <= 5)."""
    if x not in _ORACLE_SPEC:
        raise ValueError(f"{x.value} has no grammar oracle")
    if not 1 <= n <= 5:
        raise ValueError(f"oracle supports 1..5 vertices, got {n}")
    levels = _ORACLE_CACHE.setdefault(x, [])
    spec = _ORACLE_SPEC[x]
    while len(levels) < n:
        k = len(levels) + 1
        found: dict[bytes, Digraph] = {}

        def add(g: Digraph) -> None:
            key = g.canonical_form()
            if key not in found:
                found[key] = g

        if spec["base"] == "dot":
            if k == 1:
                add(Digraph(1))
        else:
            add(_SIDE_BUILDERS[spec["base"]](k))  # type: ignore[index]
        for op in ("union", "order", "series"):
            op_spec = spec[op]
            if op_spec is None:
                continue
            # union/series are commutative up to isomorphism, so one side order suffices
            shapes = op_spec if op == "order" else [op_spec]
            for left_kind, right_kind in shapes:  # type: ignore[union-attr]
                for a_size in range(1, k):
                    b_size = k - a_size
                    for a in _side_digraphs(left_kind, a_size, levels):
                        for b in _side_digraphs(right_kind, b_size, levels):
                            add(compose(op, a, b))
        levels.append(found)
    return dict(levels[n - 1])
