"""Expression language for building digraphs from vertices by union, order, and series.

`_cross` says which arcs a composition adds: `evaluate` reads it top-down,
and `_compose_rows`, through which `compose`, the named families and
`decompose.listed_trees` build out-rows, reads it bottom-up.
"""
from __future__ import annotations

import re
import sys
from itertools import islice
from typing import Iterable, Sequence

from dcograph.core import MAX_VERTICES, Digraph, _require, _vertex_count

OPS = ("union", "order", "series")


class ExpressionError(ValueError):
    """Raised on malformed expression text or invalid construction."""


class Expression:
    """A node of a construction tree: a leaf vertex or an n-ary operator.

    Normal form is maintained by the constructors: no child has the same
    kind as its operator parent, and union/series children (unordered
    combinations) are sorted by (leaf count, normal-form text); order
    children keep their sequence. A maximal decomposition is unique up to the
    order of union and series children, so two di-co-trees print the same
    text exactly when their digraphs are isomorphic, at any size. Leaves are
    anonymous: `evaluate` numbers them depth-first, left to right.
    """

    __slots__ = ("kind", "children", "leaf_count", "_text")

    def __init__(self, kind: str, children: tuple[Expression, ...]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "children", children)
        # both are read at every sort and comparison of an ancestor, so each node works them out once
        if kind == "leaf":
            count, text = 1, "v"
        else:
            count = sum(c.leaf_count for c in children)
            text = f"{kind}({', '.join(c._text for c in children)})"
        object.__setattr__(self, "leaf_count", count)
        object.__setattr__(self, "_text", text)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Expression is immutable")

    @property
    def is_leaf(self) -> bool:
        return self.kind == "leaf"

    # the grammar is unambiguous, so equal normal-form text means an equal tree
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self._text == other._text

    def __hash__(self) -> int:
        return hash(self._text)

    def __repr__(self) -> str:
        return f"<Expression {self._text}>"


_LEAF = Expression("leaf", ())


def leaf() -> Expression:
    return _LEAF


def _sort_key(e: Expression) -> tuple[int, str]:
    return (e.leaf_count, e._text)


def _node(kind: str, children: Iterable[Expression]) -> Expression:
    flat: list[Expression] = []
    for c in children:
        if not isinstance(c, Expression):
            raise ExpressionError(f"child {c!r} is not an Expression")
        if c.kind == kind:
            flat.extend(c.children)
        else:
            flat.append(c)
    if len(flat) < 2:
        raise ExpressionError(f"{kind} needs at least 2 children after flattening")
    if kind in ("union", "series"):
        flat.sort(key=_sort_key)
    return Expression(kind, tuple(flat))


def union(*children: Expression) -> Expression:
    return _node("union", children)


def order(*children: Expression) -> Expression:
    return _node("order", children)


def series(*children: Expression) -> Expression:
    return _node("series", children)


def _cross(kind: str, span: int, start: int, stop: int) -> int:
    """The vertices of a node's bit set span that the node joins each vertex of its child on start..stop-1 to.

    This is the only place that says which arcs a node adds: none under
    union; under order an arc to every vertex of each later child; under
    series both arcs between every two children. A kind outside OPS is an
    ExpressionError.
    """
    if kind == "order":
        return span >> stop << stop
    if kind == "series":
        return span & ~((1 << stop) - (1 << start))
    if kind == "union":
        return 0
    raise ExpressionError(f"unknown composition {kind!r}; expected one of {', '.join(OPS)}")


def _compose_rows(kind: str, children: list[Sequence[int]]) -> tuple[int, ...]:
    """The out-rows of a union/order/series of the children's out-rows, each child's vertices after the previous child's."""
    full = (1 << sum(map(len, children))) - 1
    joined: list[int] = []
    for rows in children:
        start, stop = len(joined), len(joined) + len(rows)
        cross = _cross(kind, full, start, stop)
        joined.extend([row << start | cross for row in rows])
    return tuple(joined)


def _digraph(rows: Sequence[int]) -> Digraph:
    """The digraph with these `_compose_rows` out-rows; more than MAX_VERTICES of them is a ValueError."""
    if len(rows) > MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {len(rows)}")
    return Digraph._of_rows(rows)


def evaluate(e: Expression) -> Digraph:
    """Build the digraph an expression denotes; leaves number depth-first left to right.

    One top-down walk: a node with vertices start..stop-1 and children in
    sequence gives each child its own range, and a leaf's out-row is the OR
    of what `_cross` gives each of its ancestors' children on the path to it.
    An expression in normal form (every node with at least 2 children, none
    of its own kind, union and series children sorted by `_sort_key`) is the
    di-co-tree of its digraph, so the digraph keeps it as its seed and
    `decompose` splits nothing. A node without children is an ExpressionError.
    """
    _require("e", e, Expression)
    total = e.leaf_count
    if total > MAX_VERTICES:
        raise ExpressionError(f"expression evaluates to {total} vertices, cap is {MAX_VERTICES}")
    rows = [0] * total
    normal = True
    stack = [(e, 0, 0)]  # a node, its first vertex, and the vertices its ancestors join each of its vertices to
    while stack:
        node, start, cross = stack.pop()
        kind, children = node.kind, node.children
        if kind == "leaf":
            rows[start] = cross
            continue
        if not children:
            raise ExpressionError(f"{kind} needs at least 1 child")
        span = (1 << start + node.leaf_count) - (1 << start)
        if normal:
            normal = len(children) > 1 and all(c.kind != kind for c in children)
            if kind != "order" and normal:
                keys = [_sort_key(c) for c in children]
                normal = keys == sorted(keys)
        for child in children:
            stop = start + child.leaf_count
            stack.append((child, start, cross | _cross(kind, span, start, stop)))
            start = stop
    return Digraph._of_rows(rows, seed=e if normal else None)


def compose(op: str, a: Digraph, b: Digraph) -> Digraph:
    """Binary union/order/series of two digraphs: a's vertices first, then b's shifted."""
    _require("a", a, Digraph)
    _require("b", b, Digraph)
    return _digraph(_compose_rows(op, [a.out_rows(), b.out_rows()]))


def format_expression(e: Expression) -> str:
    """Canonical text form, `op(child, child, ...)` with leaves as `v`."""
    _require("e", e, Expression)
    return e._text


# one token of expression text after any whitespace: an operation name or one
# character, and the empty token once the text is used up
_TOKEN = re.compile(r"\s*+(union|order|series|.|\Z)", re.DOTALL)

# text nested deeper than this is an ExpressionError, raised as the scan
# reaches that depth and before any node is built
_MAX_DEPTH = 900


def parse_expression(text: str) -> Expression:
    """Parse the grammar `expr := "v" | op "(" expr ("," expr)+ ")"`; text that is no str is a TypeError.

    One regular-expression scan splits the text into tokens, and a stack of
    the open operations reads them left to right: a node is built, through
    `_node`, when its `)` is read. An error names the position of the token
    it is found at, which is worked out only then.
    """
    _require("text", text, str)
    tokens = _TOKEN.findall(text)
    stack: list[tuple[str, list[Expression]]] = []
    i = 0
    while True:
        token = tokens[i]  # an expression starts here
        if token == "v":
            node = _LEAF
            i += 1
        elif token in OPS:
            if tokens[i + 1] != "(":
                raise _token_error(text, i + 1, f"expected '(', found {_found(tokens[i + 1])}")
            if len(stack) == _MAX_DEPTH:
                raise ExpressionError("expression is nested too deeply")
            stack.append((sys.intern(token), []))  # every node shares the one string of its operation's name
            i += 2
            continue
        elif token:
            raise _token_error(text, i, f"expected 'v' or one of {OPS}, found {token!r}")
        else:
            raise _token_error(text, i, "expected expression, found end of input")
        # node is whole: it joins the innermost open operation, which a ',' keeps open and a ')' closes
        while stack:
            op, children = stack[-1]
            children.append(node)
            token = tokens[i]
            i += 1
            if token == ",":
                break
            if token != ")":
                raise _token_error(text, i - 1, f"expected ')', found {_found(token)}")
            if len(children) < 2:
                raise _token_error(text, i - 1, f"{op} needs at least 2 arguments", 1)
            stack.pop()
            node = _node(op, children)
        else:
            if tokens[i]:
                pos = _token_start(text, i)
                raise ExpressionError(f"position {pos}: trailing input {text[pos:]!r}")
            return node


def _found(token: str) -> str:
    """How an error names the token where a `(` or `)` was expected: its first character, quoted."""
    return repr(token[:1] or "end of input")


def _token_start(text: str, index: int) -> int:
    """Where the index-th token of text starts, past its leading whitespace."""
    return next(islice(_TOKEN.finditer(text), index, None)).start(1)


def _token_error(text: str, index: int, message: str, past: int = 0) -> ExpressionError:
    """The error found at the index-th token of text, or past characters after its start."""
    return ExpressionError(f"position {_token_start(text, index) + past}: {message}")


# -- named digraph families ---------------------------------------------------


def transitive_tournament(n: int) -> Digraph:
    """T_n: arc (u, v) whenever u < v."""
    (n,) = _check_param(n)
    return _digraph(_compose_rows("order", [(0,)] * n))


def edgeless(n: int) -> Digraph:
    (n,) = _check_param(n)
    return Digraph(n)


def bidirectional_complete(n: int) -> Digraph:
    """K_n with every edge replaced by both arcs."""
    (n,) = _check_param(n)
    return _digraph(_compose_rows("series", [(0,)] * n))


def oriented_path(n: int) -> Digraph:
    """Arcs 0 -> 1 -> ... -> n-1."""
    (n,) = _check_param(n)
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def oriented_cycle(n: int) -> Digraph:
    """Arcs around a single directed cycle; needs n >= 3 to stay loop- and digon-free."""
    (n,) = _check_param(n)
    if n < 3:
        raise ValueError(f"oriented cycle needs n >= 3, got {n}")
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def bidir_complete_bipartite(a: int, b: int) -> Digraph:
    """Both arcs between every left-right pair, none inside the sides."""
    a, b = _check_param(a, b)
    return _digraph(_compose_rows("series", [(0,) * a, (0,) * b]))


def oriented_complete_bipartite(a: int, b: int) -> Digraph:
    """One arc left-to-right between every left-right pair."""
    a, b = _check_param(a, b)
    return _digraph(_compose_rows("order", [(0,) * a, (0,) * b]))


def _check_param(*sizes: int) -> list[int]:
    """The family sizes as Python ints; one that is no integer is a TypeError naming it."""
    counts = [_vertex_count("family size", size) for size in sizes]
    # checked before any arc list is built, so a huge size cannot exhaust memory
    if min(counts) < 1 or sum(counts) > MAX_VERTICES:
        total = " + ".join(map(str, counts))
        raise ValueError(f"family sizes must be >= 1 and total <= {MAX_VERTICES}, got {total}")
    return counts


# CLI-facing registry: name -> (callable, parameter count)
FAMILIES: dict[str, tuple[object, int]] = {
    "tt": (transitive_tournament, 1),
    "edgeless": (edgeless, 1),
    "bidir-complete": (bidirectional_complete, 1),
    "path": (oriented_path, 1),
    "cycle": (oriented_cycle, 1),
    "bidir-complete-bipartite": (bidir_complete_bipartite, 2),
    "oriented-complete-bipartite": (oriented_complete_bipartite, 2),
}


def generate_family(name: str, n: int, m: int | None = None) -> Digraph:
    """Build a named family member; two-parameter families require m."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    fn, argc = FAMILIES[name]
    if argc == 1:
        if m is not None:
            raise ValueError(f"family {name!r} takes only --n")
        return fn(n)  # type: ignore[operator]
    if m is None:
        raise ValueError(f"family {name!r} needs both --n and --m")
    return fn(n, m)  # type: ignore[operator]
