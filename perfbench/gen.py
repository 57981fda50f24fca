"""Benchmark inputs with verdicts known by construction.

Nothing here calls dcograph. Inputs are union/order/series trees built from
the class grammars below, one-arc flips of such members, planted directed
triangles and uniform random digraphs. Each leaves as text (an expression or
an edge list) together with the facts its construction guarantees.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace

GRAMMAR_CLASSES = (
    "DC", "OC", "DTP", "OTP", "DCTP", "OCTP", "DT", "OT",
    "DWQT", "OWQT", "DCWQT", "OCWQT", "DSC", "OSC", "DCSC", "OCSC",
)
MICRO_CLASSES = (
    "EdgelessD", "BidirComplete", "TwoBidirCliques",
    "BidirCompleteBipartite", "SeriesOfStableSets", "UnionOfBidirCliques",
)
# every class with a constructive recognizer: all but the pattern-only TD, FD
CONSTRUCTIVE_CLASSES = GRAMMAR_CLASSES + ("TT",) + MICRO_CLASSES

# A digraph with an induced directed triangle (D5) lies outside every class
# whose obstruction catalog lists D5: the sixteen grammar classes, TT and TD.
# Two of its vertices induce a single arc (P2arrow), which every micro-class
# catalog lists, so those classes exclude it too. FD's catalog has neither.
EXCLUDED_BY_D5 = GRAMMAR_CLASSES + ("TT", "TD") + MICRO_CLASSES

# Literal grammar of each grammar class: (base, union, order, series). A
# base names the digraphs a derivation may start from; an operation lists
# the allowed kinds of its two sides, or None when the class forbids it.
# Kinds: G a class member, dot one vertex, I edgeless, K bidirectional
# complete, T transitive tournament. Union and series are symmetric up to
# isomorphism, so one side order is listed for them.
_GG = ("G", "G")
_GD_DG = (("G", "dot"), ("dot", "G"))
GRAMMAR: dict[str, tuple] = {
    "DC": ("dot", _GG, (_GG,), _GG),
    "OC": ("dot", _GG, (_GG,), None),
    "DTP": ("dot", _GG, _GD_DG, ("G", "dot")),
    "OTP": ("dot", _GG, _GD_DG, None),
    "DCTP": ("dot", ("G", "dot"), _GD_DG, _GG),
    "OCTP": ("dot", ("G", "dot"), _GD_DG, None),
    "DT": ("dot", ("G", "dot"), _GD_DG, ("G", "dot")),
    "OT": ("dot", ("G", "dot"), _GD_DG, None),
    "DWQT": ("I", _GG, (("G", "I"), ("I", "G")), ("G", "I")),
    "OWQT": ("I", _GG, (("G", "I"), ("I", "G")), None),
    "DCWQT": ("K", ("G", "K"), (("G", "K"), ("K", "G")), _GG),
    "OCWQT": ("T", ("G", "T"), (("G", "T"), ("T", "G")), None),
    "DSC": ("dot", ("G", "I"), (("G", "I"), ("I", "G")), ("G", "I")),
    "OSC": ("dot", ("G", "I"), (("G", "I"), ("I", "G")), None),
    "DCSC": ("dot", ("G", "K"), (("G", "K"), ("K", "G")), ("G", "K")),
    "OCSC": ("dot", ("G", "T"), (("G", "T"), ("T", "G")), None),
}

_SIDE_OP = {"I": "union", "K": "series", "T": "order"}

LEAF = ("v",)


def node(op: str, children: list) -> tuple:
    """An operator node, with same-operator children merged into it."""
    flat: list = []
    for c in children:
        flat.extend(c[1] if c[0] == op else [c])
    return (op, flat)


def _block(op: str, k: int) -> tuple:
    return LEAF if k == 1 else (op, [LEAF] * k)


def grammar_member(rng: random.Random, cls: str, k: int) -> tuple:
    """A random k-vertex member of a grammar class, by its literal grammar."""
    base, union_sides, order_sides, series_sides = GRAMMAR[cls]
    if k == 1:
        return LEAF
    choices: list[tuple[str, tuple[str, str]]] = []
    if base != "dot":
        choices.append((base, ("", "")))
    if union_sides is not None:
        choices.append(("union", union_sides))
    choices.extend(("order", s) for s in order_sides)
    if series_sides is not None:
        choices.append(("series", series_sides))
    op, (left, right) = rng.choice(choices)
    if op in _SIDE_OP:
        return _block(_SIDE_OP[op], k)
    if left == "dot":
        a = 1
    elif right == "dot":
        a = k - 1
    else:
        a = rng.randint(1, k - 1)
    sides = [_side(rng, cls, left, a), _side(rng, cls, right, k - a)]
    return node(op, sides)


def _side(rng: random.Random, cls: str, kind: str, k: int) -> tuple:
    if kind == "G":
        return grammar_member(rng, cls, k)
    if kind == "dot":
        return LEAF
    return _block(_SIDE_OP[kind], k)


def creation_chain(rng: random.Random, k: int, series: bool) -> tuple[tuple, str]:
    """A threshold-like chain and its creation digits.

    Digit 0 adds an isolated vertex, 1 one with arcs to all earlier vertices,
    2 one with arcs from all of them, 3 one with both.
    """
    digits = "1" + "".join(rng.choice("0123" if series else "012") for _ in range(k - 1))
    tree = LEAF
    for d in digits[1:]:
        if d == "0":
            tree = node("union", [tree, LEAF])
        elif d == "1":
            tree = node("order", [LEAF, tree])
        elif d == "2":
            tree = node("order", [tree, LEAF])
        else:
            tree = node("series", [tree, LEAF])
    return tree, digits


def has_op(tree: tuple, op: str) -> bool:
    return tree[0] == op or (tree[0] != "v" and any(has_op(c, op) for c in tree[1]))


def tree_arcs(tree: tuple) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and arcs of a tree; leaves number depth-first left to right."""
    arcs: list[tuple[int, int]] = []

    def emit(t: tuple, base: int) -> int:
        if t[0] == "v":
            return base + 1
        bounds = [base]
        for c in t[1]:
            bounds.append(emit(c, bounds[-1]))
        if t[0] != "union":
            for i in range(len(t[1])):
                for j in range(i + 1, len(t[1])):
                    for u in range(bounds[i], bounds[i + 1]):
                        for v in range(bounds[j], bounds[j + 1]):
                            arcs.append((u, v))
                            if t[0] == "series":
                                arcs.append((v, u))
        return bounds[-1]

    return emit(tree, 0), arcs


def expression_text(tree: tuple) -> str:
    if tree[0] == "v":
        return "v"
    return f"{tree[0]}({', '.join(expression_text(c) for c in tree[1])})"


def edge_list_text(n: int, arcs) -> str:
    return "".join([f"n {n}\n"] + [f"{u} {v}\n" for u, v in sorted(arcs)])


def signature(n: int, arcs) -> tuple:
    """Isomorphism invariant: vertex count, arc count, sorted (out, in) degrees."""
    out = [0] * n
    inn = [0] * n
    count = 0
    for u, v in arcs:
        out[u] += 1
        inn[v] += 1
        count += 1
    return (n, count, tuple(sorted(zip(out, inn))))


def replay_digits(digits: str) -> tuple[int, list[tuple[int, int]]]:
    """Arcs of the digraph a creation digit string builds (vertex i = step i)."""
    arcs = []
    for i, d in enumerate(digits):
        for j in range(i):
            if d in "13":
                arcs.append((i, j))
            if d in "23":
                arcs.append((j, i))
    return len(digits), arcs


def out_rows(n: int, arcs) -> list[int]:
    rows = [0] * n
    for u, v in arcs:
        rows[u] |= 1 << v
    return rows


def has_two_switch(rows: list[int]) -> bool:
    """Arcs (w,x), (y,z) on four distinct vertices with (w,z), (y,x) absent."""
    n = len(rows)
    return any(
        rows[w] & ~rows[y] & ~(1 << y) and rows[y] & ~rows[w] & ~(1 << w)
        for w in range(n) for y in range(w + 1, n)
    )


def has_anticircuit(rows: list[int]) -> bool:
    """Arcs (x,y), (z,w), x != z, y != w, with (x,w), (z,y) absent where distinct:
    exactly when the out-rows are not a chain under inclusion."""
    n = len(rows)
    return any(
        rows[x] & ~rows[z] and rows[z] & ~rows[x]
        for x in range(n) for z in range(x + 1, n)
    )


def pattern_only_verdicts(n: int, arcs) -> tuple[set[str], set[str]]:
    """TD and FD verdicts of a digraph known to be free of D1 and D5.

    TD excludes D5 and two-switches; FD excludes D1, K2bidir and alternating
    anticircuits. Grammar-class members are D1- and D5-free by construction.
    """
    rows = out_rows(n, arcs)
    symmetric = any(rows[v] >> u & 1 for u, v in arcs)
    members, non_members = set(), set()
    (non_members if has_two_switch(rows) else members).add("TD")
    (non_members if symmetric or has_anticircuit(rows) else members).add("FD")
    return members, non_members


@dataclass(frozen=True)
class Case:
    """One request input: its text and the verdicts its construction fixes."""

    kind: str
    text: str
    is_expr: bool
    signature: tuple
    members: frozenset[str] = frozenset()
    non_members: frozenset[str] = frozenset()
    digits: str | None = None  # set for creation chains, which must have a sequence


def _relabel(rng: random.Random, n: int, arcs) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in arcs]


def _tree_case(rng: random.Random, kind: str, tree: tuple, members: set[str], as_expr: bool) -> Case:
    """A case for a union/order/series tree, which is D1- and D5-free."""
    k, arcs = tree_arcs(tree)
    pattern_members, pattern_non_members = pattern_only_verdicts(k, arcs)
    if as_expr:
        text = expression_text(tree)
    else:
        arcs = _relabel(rng, k, arcs)
        text = edge_list_text(k, arcs)
    return Case(
        kind, text, as_expr, signature(k, arcs),
        members=frozenset(members | pattern_members),
        non_members=frozenset(pattern_non_members),
    )


def _is_plain(tree: tuple) -> bool:
    k, arcs = tree_arcs(tree)
    return not pattern_only_verdicts(k, arcs)[0]


def _member_tree(rng: random.Random, cls: str, n: int, plain: bool) -> tuple:
    """A grammar member; plain ones are in neither TD nor FD (redrawn until so)."""
    tree = grammar_member(rng, cls, n)
    while plain and not _is_plain(tree):
        tree = grammar_member(rng, cls, n)
    return tree


def member_case(rng: random.Random, cls: str, n: int, as_expr: bool, plain: bool = False) -> Case:
    """A grammar-class member, as expression text or a relabelled edge list."""
    tree = _member_tree(rng, cls, n, plain)
    members = {cls, "DC"} | ({"OC"} if not has_op(tree, "series") else set())
    return _tree_case(rng, "member", tree, members, as_expr)


def chain_case(rng: random.Random, n: int, as_expr: bool, series: bool) -> Case:
    """A creation chain: in DT (and OT without digit 3), so it has a creation sequence."""
    tree, digits = creation_chain(rng, n, series)
    members = {"DT", "DC"} | ({"OT", "OC"} if "3" not in digits else set())
    case = _tree_case(rng, "chain", tree, members, as_expr)
    return replace(case, digits=digits)


def blocks_case(rng: random.Random, n: int, as_expr: bool, cliques: bool) -> Case:
    """Twin blocks: a union of bidirectional cliques or a series of stable sets.

    Block sizes run 8, 7, ..., 2 and repeat until n vertices are used, so
    every case at one n has the same blocks, in random order.
    """
    sizes: list[int] = []
    left = n
    while left:
        s = min(8 - len(sizes) % 7, left)
        if left - s == 1:  # no single-vertex block
            s -= 1
        sizes.append(s)
        left -= s
    rng.shuffle(sizes)
    inner, outer = ("series", "union") if cliques else ("union", "series")
    tree = (outer, [_block(inner, s) for s in sizes])
    members = {"UnionOfBidirCliques" if cliques else "SeriesOfStableSets", "DC"}
    return _tree_case(rng, "blocks", tree, members, as_expr)


def near_miss_case(rng: random.Random, cls: str, n: int, plain: bool = False) -> Case:
    """A member with one ordered pair flipped; no verdict is known."""
    k, arcs = tree_arcs(_member_tree(rng, cls, n, plain))
    u, v = rng.sample(range(k), 2)
    arcs = _relabel(rng, k, set(arcs) ^ {(u, v)})
    return Case("near-miss", edge_list_text(k, arcs), False, signature(k, arcs))


def random_case(rng: random.Random, n: int) -> Case:
    """Uniform random digraph: each vertex pair takes one of its four states."""
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            state = rng.randrange(4)
            if state & 1:
                arcs.append((u, v))
            if state & 2:
                arcs.append((v, u))
    return Case("random", edge_list_text(n, arcs), False, signature(n, arcs))


def planted_case(rng: random.Random, cls: str, n: int, plain: bool = False) -> Case:
    """A member on n-3 vertices beside a disjoint directed triangle (D5)."""
    k, arcs = tree_arcs(_member_tree(rng, cls, n - 3, plain))
    arcs = _relabel(rng, k + 3, arcs + [(k, k + 1), (k + 1, k + 2), (k + 2, k)])
    non_members = set(EXCLUDED_BY_D5)
    if has_anticircuit(out_rows(k + 3, arcs)):
        non_members.add("FD")
    return Case(
        "planted-D5", edge_list_text(k + 3, arcs), False, signature(k + 3, arcs),
        non_members=frozenset(non_members),
    )
