"""Forbidden-pattern catalog: small digraphs, induced-containment search, pattern pass, row tests, partial patterns."""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable

import numpy as np

from dcograph.construct import compose
from dcograph.core import _MEMO_SIZE, Digraph, format_edge_list, mask_array


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
    """Canonical forms of all induced subdigraphs of g (g.n <= 8); memoized. The tests' reference for patterns_in."""
    return frozenset(
        g.induced(subset).canonical_form()
        for k in range(1, g.n + 1)
        for subset in combinations(range(g.n), k)
    )


# Every pattern has at most 6 vertices, so a labelled pattern mask has at most
# 36 bits; a key carries its vertex count above them.
_SIZE_SHIFT = 36
PATTERN_ROUTE_MAX_N = 8  # the n*n arc bits of the input fill one uint64
# bytes of the widest array one chunk of pattern_words makes: a word per subset pair per mask
_CHUNK_BYTES = 1 << 20


@lru_cache(maxsize=1)
def _key_table() -> tuple[np.ndarray, np.ndarray]:
    """The name word of every key (k << _SIZE_SHIFT | labelled k-vertex mask), as a step function.

    Built on first use from every vertex permutation of every pattern. Bit i of
    a name word stands for the i-th name of PATTERNS. Aliased patterns
    (D11/Q1, D15/Q2, D12/coQ2, coD11/coQ1) share their masks, so one word can
    name two patterns. A key that is no pattern copy has the empty word. The
    function steps at each copy's key and just above it, so for sorted step
    points `steps` and values `words`, any key x has the word
    `words[np.searchsorted(steps, x, side="right")]`.
    """
    words: dict[int, int] = {}
    for bit, (name, p) in enumerate(PATTERNS.items()):
        k, arcs = p.n, p.arcs
        for perm in permutations(range(k)):
            key = k << _SIZE_SHIFT | sum(1 << perm[u] * k + perm[v] for u, v in arcs)
            words[key] = words.get(key, 0) | 1 << bit
    steps = {key + 1: 0 for key in words} | words
    points = sorted(steps)
    return (
        np.array(points, dtype=np.uint64),
        np.array([0] + [steps[point] for point in points], dtype=np.uint64),
    )


@lru_cache(maxsize=PATTERN_ROUTE_MAX_N)
def _gather(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Gather tables for n vertices: right shift and subset bit per pair, segment start and size tag per subset,
    and the masks per chunk of `pattern_words`.

    The pairs are the ordered pairs of every 2-6-vertex subset s of range(n),
    and the pairs of one subset form one segment. Subset vertex s[i] is
    labelled i, so the arc (s[i], s[j]) is bit i*k+j of the subset's labelled
    mask. Since s[i] >= i, s[j] >= j and n >= k, the input's arc bit
    s[i]*n+s[j] is never below it, and one right shift by the difference moves
    it there.
    """
    drops, bits, sizes = [], [], []
    for k in range(2, 7):
        subsets = np.array(list(combinations(range(n), k)), dtype=np.uint64).reshape(-1, k)
        i, j = np.nonzero(~np.eye(k, dtype=bool))
        shift = (i * k + j).astype(np.uint64)
        drops.append((subsets[:, i] * np.uint64(n) + subsets[:, j] - shift).ravel())
        bits.append(np.tile(np.uint64(1) << shift, len(subsets)))
        sizes.append(np.full(len(subsets), k, dtype=np.uint64))
    size = np.concatenate(sizes)
    width = (size * (size - 1)).astype(np.intp)
    tables = (
        np.concatenate(drops),
        np.concatenate(bits),
        np.cumsum(width) - width,
        size << np.uint64(_SIZE_SHIFT),
    )
    for table in tables:
        table.setflags(write=False)
    return (*tables, _CHUNK_BYTES // max(tables[0].nbytes, 1))


# the bit of each PATTERNS name in a name word
_NAME_BIT: dict[str, int] = {name: bit for bit, name in enumerate(PATTERNS)}


def name_word(names: Iterable[str]) -> int:
    """The word with the bit of each named pattern set."""
    return sum(1 << _NAME_BIT[name] for name in set(names))


def pattern_words(n: int, masks: np.ndarray) -> np.ndarray:
    """The name word of the PATTERNS occurring induced in each labelled n-vertex mask (n <= 8).

    masks is an array or sequence of any shape, or one integer, checked by
    `core.mask_array`; the words are shaped as masks. Every 2-6-vertex
    subset's size-tagged labelled mask is gathered from the input mask at once
    and looked up in the step function of the labelled pattern copies; no
    subset is canonicalised. A mask's word is the OR of its subsets' words.
    Arrays go through in chunks of the flattened masks, so no intermediate
    array passes about _CHUNK_BYTES. Raises ValueError outside
    1..PATTERN_ROUTE_MAX_N vertices.
    """
    if not 1 <= n <= PATTERN_ROUTE_MAX_N:
        raise ValueError(f"the pattern pass reads at least 1 and at most {PATTERN_ROUTE_MAX_N} vertices, got {n}")
    drop, bit, start, tag, rows = _gather(n)
    if np.size(masks) > rows:  # each chunk's call checks its masks
        masks = np.asarray(masks)
        flat = masks.reshape(-1)
        words = [pattern_words(n, flat[lo : lo + rows]) for lo in range(0, flat.size, rows)]
        return np.concatenate(words).reshape(masks.shape)
    masks = mask_array(n, masks)
    steps, words = _key_table()
    subsets = np.bitwise_or.reduceat(masks[..., None] >> drop & bit, start, axis=-1) | tag
    return np.bitwise_or.reduce(words[np.searchsorted(steps, subsets, side="right")], axis=-1)


def patterns_in(g: Digraph) -> frozenset[str]:
    """Names of the PATTERNS that occur induced in g (g.n <= 8): the one-mask case of `pattern_words`."""
    word = int(pattern_words(g.n, np.uint64(g.mask)))
    return frozenset(name for name, bit in _NAME_BIT.items() if word >> bit & 1)


@dataclass(frozen=True)
class PartialPattern:
    """Roles (p, q, r, s): arcs p->q, r->s; p->s, r->q absent unless the roles coincide.

    p != r and q != s always; all_distinct makes all four roles pairwise distinct.
    """

    name: str
    all_distinct: bool


# w->x and y->z with w->z and y->x absent, w,x,y,z pairwise distinct.
TWO_SWITCH = PartialPattern(name="2-switch", all_distinct=True)

# x->y and z->w with x->w and z->y absent, x != z and y != w.
ANTICIRCUIT = PartialPattern(name="alternating-4-anticircuit", all_distinct=False)


def match_partial(g: Digraph, pp: PartialPattern) -> tuple[int, ...] | None:
    """First role assignment (p, q, r, s) satisfying the partial pattern, or None.

    Walks the arcs p->q in order (p ascending, q by lowest bit of row[p]) and
    r ascending, and takes s as the lowest vertex of row[r] the constraints
    leave, so the assignment is the first in lexicographic order of the two
    arcs; the cost is O(n*m), and the walk stops at the first match.
    """
    rows = g.out_rows()
    for p, row in enumerate(rows):
        # r->s with s != q and, unless s == p, p->s absent
        free = ~row & ~(1 << p) if pp.all_distinct else ~row
        while row:
            low = row & -row
            row ^= low
            q = low.bit_length() - 1
            heads = free & ~low
            for r in range(g.n):
                if r == p or rows[r] & low or (pp.all_distinct and r == q):
                    continue
                s = rows[r] & heads
                if s:
                    return (p, q, r, (s & -s).bit_length() - 1)
    return None


def has_two_switch(g: Digraph) -> bool:
    return match_partial(g, TWO_SWITCH) is not None


def has_anticircuit(g: Digraph) -> bool:
    return match_partial(g, ANTICIRCUIT) is not None


def has_directed_triangle(g: Digraph) -> bool:
    """True iff D5 occurs induced, as a 3-cycle of one-way arcs; O(n + one-way arcs)."""
    rows, cols = g.out_rows(), g.in_rows()
    # ahead[u]: the vertices u reaches by a one-way arc; behind[u]: those reaching u by one
    ahead, behind = [r & ~c for r, c in zip(rows, cols)], [c & ~r for r, c in zip(rows, cols)]
    for u, vs in enumerate(ahead):
        while vs:
            v = (vs & -vs).bit_length() - 1
            vs &= vs - 1
            if ahead[v] & behind[u]:
                return True
    return False


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
