"""The di-co-tree of a digraph, the constructive classes it decides, and threshold creation sequences."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from dcograph.core import _MEMO_SIZE, MAX_VERTICES, Digraph, _bits, _component_masks, _vertex_count
from dcograph.construct import Expression, _compose_rows, _sort_key, leaf


class ClassId(Enum):
    # hash by identity: every membership read keys a dict by its class, and
    # Enum.__hash__ hashes the member's name in Python
    __hash__ = object.__hash__

    DC = "DC"
    OC = "OC"
    DTP = "DTP"
    OTP = "OTP"
    DCTP = "DCTP"
    OCTP = "OCTP"
    DT = "DT"
    OT = "OT"
    DWQT = "DWQT"
    OWQT = "OWQT"
    DCWQT = "DCWQT"
    OCWQT = "OCWQT"
    DSC = "DSC"
    OSC = "OSC"
    DCSC = "DCSC"
    OCSC = "OCSC"
    TT = "TT"
    TD = "TD"
    FD = "FD"
    EDGELESS = "EdgelessD"
    BIDIR_COMPLETE = "BidirComplete"
    TWO_BIDIR_CLIQUES = "TwoBidirCliques"
    BIDIR_COMPLETE_BIPARTITE = "BidirCompleteBipartite"
    SERIES_OF_STABLE_SETS = "SeriesOfStableSets"
    UNION_OF_BIDIR_CLIQUES = "UnionOfBidirCliques"


GRAMMAR_CLASSES: tuple[ClassId, ...] = (
    ClassId.DC, ClassId.OC, ClassId.DTP, ClassId.OTP, ClassId.DCTP,
    ClassId.OCTP, ClassId.DT, ClassId.OT, ClassId.DWQT, ClassId.OWQT,
    ClassId.DCWQT, ClassId.OCWQT, ClassId.DSC, ClassId.OSC, ClassId.DCSC,
    ClassId.OCSC,
)

MICRO_CLASSES: tuple[ClassId, ...] = (
    ClassId.EDGELESS, ClassId.BIDIR_COMPLETE, ClassId.TWO_BIDIR_CLIQUES,
    ClassId.BIDIR_COMPLETE_BIPARTITE, ClassId.SERIES_OF_STABLE_SETS,
    ClassId.UNION_OF_BIDIR_CLIQUES,
)

# the bit of each constructive class in `_Tree.classes`: the grammar classes
# first, so that the grammar rules below work on the low bits alone
CLASS_BIT: dict[ClassId, int] = {
    x: i for i, x in enumerate(GRAMMAR_CLASSES + (ClassId.TT,) + MICRO_CLASSES)
}

ANY = ("any",)
FORBIDDEN = ("forbidden",)


def _one(rest: str) -> tuple[str, str]:
    return ("one", rest)


# split-op -> rule, evaluated on maximal-split parts: ANY part may be a member,
# FORBIDDEN admits no split, ("one", kind) lets at most one part be a member
# and needs every other part to be of the rest kind
RULES: dict[ClassId, dict[str, tuple[str, ...]]] = {
    ClassId.DC: {"union": ANY, "order": ANY, "series": ANY},
    ClassId.OC: {"union": ANY, "order": ANY, "series": FORBIDDEN},
    ClassId.DTP: {"union": ANY, "order": _one("singleton"), "series": _one("singleton")},
    ClassId.OTP: {"union": ANY, "order": _one("singleton"), "series": FORBIDDEN},
    ClassId.DCTP: {"union": _one("singleton"), "order": _one("singleton"), "series": ANY},
    ClassId.OCTP: {"union": _one("singleton"), "order": _one("singleton"), "series": FORBIDDEN},
    ClassId.DT: {"union": _one("singleton"), "order": _one("singleton"), "series": _one("singleton")},
    ClassId.OT: {"union": _one("singleton"), "order": _one("singleton"), "series": FORBIDDEN},
    ClassId.DWQT: {"union": ANY, "order": _one("edgeless"), "series": _one("edgeless")},
    ClassId.OWQT: {"union": ANY, "order": _one("edgeless"), "series": FORBIDDEN},
    ClassId.DCWQT: {"union": _one("bidir-complete"), "order": _one("bidir-complete"), "series": ANY},
    ClassId.OCWQT: {"union": _one("transitive-tournament"), "order": _one("singleton"), "series": FORBIDDEN},
    ClassId.DSC: {"union": _one("edgeless"), "order": _one("edgeless"), "series": _one("edgeless")},
    ClassId.OSC: {"union": _one("edgeless"), "order": _one("edgeless"), "series": FORBIDDEN},
    ClassId.DCSC: {"union": _one("bidir-complete"), "order": _one("bidir-complete"), "series": _one("bidir-complete")},
    ClassId.OCSC: {"union": _one("transitive-tournament"), "order": _one("singleton"), "series": FORBIDDEN},
}

# Rest kinds as bits. A leaf is of every kind; a node whose children are all
# leaves is of its operation's kind (an edgeless digraph is a union of leaves,
# a bidirectional complete one a series, a transitive tournament an order).
_REST_BIT = {"singleton": 1, "edgeless": 2, "bidir-complete": 4, "transitive-tournament": 8}
_LEAF_REST = 15
_ALL_LEAVES_REST = {"union": 2, "series": 4, "order": 8}


def _rule_bits(op: str) -> tuple[int, dict[int, int]]:
    """For one operation: the class bits ruled ANY, and per rest-kind bit the class bits ruled ("one", kind)."""
    any_bits = 0
    one_bits: dict[int, int] = {}
    for i, x in enumerate(GRAMMAR_CLASSES):
        rule = RULES[x][op]
        if rule == ANY:
            any_bits |= 1 << i
        elif rule != FORBIDDEN:
            kind = _REST_BIT[rule[1]]
            one_bits[kind] = one_bits.get(kind, 0) | 1 << i
    return any_bits, one_bits


_RULE_BITS = {op: _rule_bits(op) for op in ("union", "order", "series")}


@dataclass(frozen=True)
class Split:
    """Top-level decomposition: the operation and its parts (ordered for `order`)."""

    op: str  # "union" | "series" | "order" | "prime"
    parts: tuple[tuple[int, ...], ...]


@dataclass
class _Tree:
    """The inner nodes of one digraph's di-co-tree in breadth-first order, read bottom-up.

    Node 0 is the root. A node is its operation and its children in split
    order: a later node's index, or -1 for a leaf, which reads the extra last
    entry of a per-node list. `classes` has bit CLASS_BIT[x] set iff the
    digraph is in the constructive class x: the grammar classes bottom-up, TT
    and the micro classes from the root. A digraph with a prime node anywhere
    keeps only its root split: it is in no constructive class and has no
    nodes. The one-vertex digraph has no nodes either and is in every class.
    """

    root: tuple[str, tuple[int, ...]]  # the root split: its operation and its parts as vertex bit sets
    classes: int
    nodes: tuple[tuple[str, tuple[int, ...]], ...]

    @cached_property
    def expression(self) -> Expression | None:
        if not self.classes:
            return None
        # no part of a maximal split carries its parent's operation, so a node
        # is in normal form once its union or series children are sorted
        exprs: list[Expression] = [leaf()] * (len(self.nodes) + 1)
        for i, (op, kids) in reversed(list(enumerate(self.nodes))):
            children = [exprs[c] for c in kids]
            if op != "order":
                children.sort(key=_sort_key)
            exprs[i] = Expression(op, tuple(children))
        return exprs[0]


def _split(s: int, out_rows: list[int], adj: list[int], co_adj: list[int], sym: list[int]) -> tuple[str, list[int]]:
    """Split the vertex bit set s into maximal parts joined by one operation, or report prime.

    Tries union (components of the underlying graph), then series (components
    of the complement's underlying graph), then order: components of the
    auxiliary graph M with {u,v} adjacent iff the pair is symmetric (both arcs
    or neither). Cross-M-component pairs carry exactly one arc by construction;
    the components are ranked by how much of the rest one vertex of each beats,
    and every vertex outside the largest component is then checked to beat
    exactly the later components. That settles every cross pair, the largest
    component's too, because each carries one arc.

    The lowest vertex v of s skips the tests that cannot succeed: parts of a
    union are pairwise non-adjacent, of a series pairwise joined both ways, of
    an order joined one way. So s can be a union only if v has a non-neighbour
    in s, a series only if v has a two-way neighbour, and an order only if v
    has a one-way neighbour.
    """
    low = s & -s
    v = low.bit_length() - 1
    if s & ~adj[v] != low:
        parts = _component_masks(s, adj)
        if len(parts) > 1:
            return "union", parts
    if s & ~co_adj[v]:
        parts = _component_masks(s, co_adj)
        if len(parts) > 1:
            return "series", parts
    if not s & ~sym[v]:
        return "prime", [s]
    blocks = _component_masks(s, sym)
    if len(blocks) < 2:
        return "prime", [s]
    ordered = sorted(blocks, key=lambda b: -(out_rows[(b & -b).bit_length() - 1] & s & ~b).bit_count())
    largest = max(blocks, key=int.bit_count)
    later = s
    for block in ordered:
        later &= ~block
        if block != largest and any(out_rows[u] & s & ~block != later for u in _bits(block)):
            return "prime", [s]
    return "order", ordered


def _node_bits(op: str, child_classes: list[int], child_rests: list[int]) -> tuple[int, int]:
    """Grammar-class and rest-kind bits of a node from those of its children that are not leaves.

    A leaf is in every grammar class and of every rest kind, so it changes
    neither; a node with no other child is of its operation's rest kind.
    """
    any_bits, one_bits = _RULE_BITS[op]
    classes = any_bits
    for c in child_classes:
        classes &= c
    for kind, bits in one_bits.items():
        loose = [c for c, r in zip(child_classes, child_rests) if not r & kind]
        if not loose:
            classes |= bits
        elif len(loose) == 1:
            classes |= bits & loose[0]
    return classes, 0 if child_rests else _ALL_LEAVES_REST[op]


def _root_bits(op: str, rest: int, child_rests: list[int]) -> int:
    """TT and micro-class bits from the root's operation and rest kind and its children's (`_LEAF_REST` for a leaf)."""
    # parts of a union of cliques (a series of stable sets): 1 if the root is one itself
    cliques = 1 if rest & 4 else len(child_rests) if op == "union" and all(r & 4 for r in child_rests) else 0
    stables = 1 if rest & 2 else len(child_rests) if op == "series" and all(r & 2 for r in child_rests) else 0
    held = {
        ClassId.TT: rest & 8,
        ClassId.EDGELESS: rest & 2,
        ClassId.BIDIR_COMPLETE: rest & 4,
        ClassId.UNION_OF_BIDIR_CLIQUES: cliques,
        ClassId.TWO_BIDIR_CLIQUES: 0 < cliques <= 2,
        ClassId.SERIES_OF_STABLE_SETS: stables,
        ClassId.BIDIR_COMPLETE_BIPARTITE: 0 < stables <= 2,
    }
    return sum(1 << CLASS_BIT[x] for x, h in held.items() if h)


@lru_cache(maxsize=_MEMO_SIZE)
def _tree(g: Digraph) -> _Tree:
    """Decompose g once; every split, membership and certificate question reads this."""
    if g.n == 1:
        return _Tree(("leaf", ()), (1 << len(CLASS_BIT)) - 1, ())  # one vertex is in every constructive class
    out_rows, in_rows = g.out_rows(), g.in_rows()
    # neighbour rows of the underlying graph, of its complement, and of M;
    # bits outside the set being split are masked off there
    adj = [o | i for o, i in zip(out_rows, in_rows)]
    co_adj = [~(o & i) for o, i in zip(out_rows, in_rows)]
    sym = [~(o ^ i) for o, i in zip(out_rows, in_rows)]

    nodes: list[tuple[str, tuple[int, ...]]] = []
    sets = [(1 << g.n) - 1]
    for s in sets:  # grows as it goes: each inner node's vertex set, children after their parent
        op, parts = _split(s, out_rows, adj, co_adj, sym)
        if not nodes:
            root = (op, tuple(parts))
        if op == "prime":
            return _Tree(root, 0, ())
        kids = []
        for part in parts:
            if part & part - 1:
                kids.append(len(sets))
                sets.append(part)
            else:
                kids.append(-1)
        nodes.append((op, tuple(kids)))

    classes = [(1 << len(GRAMMAR_CLASSES)) - 1] * (len(nodes) + 1)
    rests = [_LEAF_REST] * (len(nodes) + 1)
    for i, (op, kids) in reversed(list(enumerate(nodes))):
        inner = [c for c in kids if c >= 0]
        classes[i], rests[i] = _node_bits(op, [classes[c] for c in inner], [rests[c] for c in inner])
    op, kids = nodes[0]
    return _Tree(root, classes[0] | _root_bits(op, rests[0], [rests[c] for c in kids]), tuple(nodes))


def listed_trees(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Every normal-form di-co-tree with n leaves, once, as its out-rows and its class word.

    A node's children are smaller trees none of which has the node's
    operation: a multiset of them under union and series, a sequence under
    order. A maximal decomposition is unique up to the order of union and
    series children, so the listed trees are the n-vertex members of DC, one
    per isomorphism class. Each node's out-rows come from its children's
    through `construct._compose_rows`, the one composition kernel, so leaves
    are numbered depth-first, left to right, as `construct.evaluate` numbers
    them; its class bits come from its children's through `_node_bits` and
    `_root_bits`, as in `_tree`.
    """
    n = _vertex_count("n", n)
    if n < 1:
        raise ValueError(f"a di-co-tree has at least 1 leaf, got {n}")
    return [(rows, word) for _, rows, _, _, word in _listed(n)]


@lru_cache(maxsize=6)  # the sizes the miner reads
def _listed(k: int) -> tuple[tuple, ...]:
    """The trees with k leaves, each as (operation, out-rows, grammar bits, rest bits, class word), from the
    smaller sizes' entries; one entry per size, so a caller lists only the sizes up to the largest it reads."""
    if k == 1:
        return (("leaf", (0,), (1 << len(GRAMMAR_CLASSES)) - 1, _LEAF_REST, (1 << len(CLASS_BIT)) - 1),)
    smaller = [t for size in range(1, k) for t in _listed(size)]
    trees = []
    for op in ("union", "order", "series"):
        for kids in _child_lists([t for t in smaller if t[0] != op], k, op == "order"):
            inner = [c for c in kids if c[0] != "leaf"]
            classes, rest = _node_bits(op, [c[2] for c in inner], [c[3] for c in inner])
            word = classes | _root_bits(op, rest, [c[3] for c in kids])
            trees.append((op, _compose_rows(op, [c[1] for c in kids]), classes, rest, word))
    return tuple(trees)


def _child_lists(pool: list[tuple], k: int, ordered: bool) -> Iterator[tuple[tuple, ...]]:
    """Every sequence (ordered) or multiset, as a sequence in pool order, of pool's trees with k leaves in all.

    pool is sorted by leaf count and holds trees smaller than k, so every list has at least 2 trees.
    """
    if not k:
        yield ()
        return
    for i, tree in enumerate(pool):
        size = len(tree[1])
        if size > k:
            break
        for rest in _child_lists(pool if ordered else pool[i:], k - size, ordered):
            yield (tree, *rest)


def _require_digraph(g: object) -> None:
    """A TypeError naming g unless g is a Digraph; the memo would otherwise hash it and fail on its own terms."""
    if not isinstance(g, Digraph):
        raise TypeError(f"g must be a Digraph, got {type(g).__name__}")


def maximal_split(g: Digraph) -> Split:
    """Split into maximal parts joined by one operation, or report prime (see `_split`)."""
    _require_digraph(g)
    if g.n < 2:
        raise ValueError("splits need at least 2 vertices")
    op, parts = _tree(g).root
    return Split(op, tuple(_bits(part) for part in parts))


def di_co_tree(g: Digraph) -> Expression | None:
    """A construction expression evaluating to a digraph isomorphic to g, or None."""
    _require_digraph(g)
    return _tree(g).expression


@dataclass(frozen=True)
class CreationSequence:
    """Digit string over 0/1/2/3 plus the vertex peeled into each position."""

    digits: str
    order: tuple[int, ...]


def creation_sequence(g: Digraph, allow_series: bool = True) -> CreationSequence | None:
    """Greedy reverse peel; digits 0 isolated, 1 out-dominating, 2 in-dominated, 3 bi-dominating."""
    _require_digraph(g)
    outdeg = [row.bit_count() for row in g.out_rows()]
    indeg = [row.bit_count() for row in g.in_rows()]
    return _peel(g.n, outdeg, indeg, allow_series)


def creation_sequence_raw(
    n: int, arcs: Iterable[tuple[int, int]], allow_series: bool = True
) -> CreationSequence | None:
    """Creation-sequence recognition on a raw arc list, O(n + m).

    A repeated arc is counted twice. n < 1, a loop, or an endpoint outside
    0..n-1 is a ValueError, and an endpoint that is no integer a TypeError.
    """
    n = _vertex_count("n", n)
    if n < 1:
        raise ValueError(f"a creation sequence needs at least 1 vertex, got {n}")
    outdeg = [0] * n
    indeg = [0] * n
    for u, v in arcs:
        try:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) is a loop or has an endpoint outside 0..{n - 1}")
            outdeg[u] += 1
            indeg[v] += 1
        except TypeError:
            raise TypeError(f"arc ({u!r}, {v!r}) needs integer endpoints") from None
    return _peel(n, outdeg, indeg, allow_series)


def _peel(n: int, outdeg: list[int], indeg: list[int], allow_series: bool) -> CreationSequence | None:
    """The creation sequence of the digraph with these degrees, peeled greedily in O(n).

    Peeled vertices are adjacent-to-all-or-none of the remainder, so current
    degrees stay reconstructible from the original ones: every peel of digit
    2/3 lowers all remaining out-degrees by one (offset A), every peel of
    digit 1/3 lowers remaining in-degrees (offset B). Vertices therefore never
    change buckets and each step costs four dictionary probes.
    """
    buckets: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        buckets.setdefault((outdeg[v], indeg[v]), []).append(v)
    for vs in buckets.values():
        vs.sort(reverse=True)  # pop() yields the smallest remaining id

    a_off = 0  # peeled digits in {2, 3}: lost out-neighbors of the remainder
    b_off = 0  # peeled digits in {1, 3}: lost in-neighbors of the remainder
    peeled: list[tuple[int, int]] = []
    for k in range(n, 1, -1):
        probes = (
            (3, (a_off + k - 1, b_off + k - 1)),
            (2, (a_off, b_off + k - 1)),
            (1, (a_off + k - 1, b_off)),
            (0, (a_off, b_off)),
        )
        for digit, key in probes:
            if digit == 3 and not allow_series:
                continue
            bucket = buckets.get(key)
            if bucket:
                v = bucket.pop()
                peeled.append((digit, v))
                if digit in (2, 3):
                    a_off += 1
                if digit in (1, 3):
                    b_off += 1
                break
        else:
            return None
    last = next(vs[-1] for vs in buckets.values() if vs)
    peeled.append((1, last))
    peeled.reverse()
    return CreationSequence(
        digits="".join(str(d) for d, _ in peeled),
        order=tuple(v for _, v in peeled),
    )


def replay_arcs(digits: str) -> list[tuple[int, int]]:
    """Arc list of the digraph a creation sequence builds (vertex i = step i)."""
    if not digits or digits[0] != "1":
        raise ValueError("creation sequence must start with digit 1")
    arcs: list[tuple[int, int]] = []
    for i, d in enumerate(digits):
        if i == 0:
            continue
        if d == "0":
            continue
        if d not in "123":
            raise ValueError(f"invalid creation digit {d!r}")
        for j in range(i):
            if d in ("1", "3"):
                arcs.append((i, j))
            if d in ("2", "3"):
                arcs.append((j, i))
    return arcs


def replay(digits: str) -> Digraph:
    """Rebuild the digraph a creation sequence denotes (n <= 64)."""
    if len(digits) > MAX_VERTICES:
        raise ValueError(f"creation sequence has {len(digits)} digits, cap is {MAX_VERTICES}")
    return Digraph(len(digits), replay_arcs(digits))
