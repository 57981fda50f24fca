"""Expression language for building digraphs from vertices by union, order, and series.

`_compose_rows` is the one composition kernel: `evaluate`, `compose`, the
named families and `decompose.listed_trees` build out-rows through it.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from dcograph.core import MAX_VERTICES, Digraph, _join_rows

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


def _compose_rows(kind: str, children: list[Sequence[int]]) -> tuple[int, ...]:
    """The out-rows of a union/order/series of the children's out-rows, each child's vertices after the previous child's.

    This is the only place that says which arcs a node adds: none under
    union; under order every arc from a child to each later child; under
    series both arcs between every two children. A kind outside OPS is an
    ExpressionError.
    """
    if kind not in OPS:
        raise ExpressionError(f"unknown composition {kind!r}; expected one of {', '.join(OPS)}")
    full = (1 << sum(map(len, children))) - 1
    joined: list[int] = []
    for rows in children:
        start, end = len(joined), len(joined) + len(rows)
        later = full >> end << end
        cross = later if kind == "order" else later | (1 << start) - 1 if kind == "series" else 0
        joined.extend([row << start | cross for row in rows])
    return tuple(joined)


def _digraph(rows: Sequence[int]) -> Digraph:
    """The digraph with these out-rows; more than MAX_VERTICES of them is a ValueError."""
    return Digraph.from_mask(len(rows), _join_rows(rows, len(rows)))


def evaluate(e: Expression) -> Digraph:
    """Build the digraph an expression denotes; leaves number depth-first left to right."""
    total = e.leaf_count
    if total > MAX_VERTICES:
        raise ExpressionError(f"expression evaluates to {total} vertices, cap is {MAX_VERTICES}")

    def rows(node: Expression) -> tuple[int, ...]:
        return (0,) if node.is_leaf else _compose_rows(node.kind, [rows(c) for c in node.children])

    return _digraph(rows(e))


def compose(op: str, a: Digraph, b: Digraph) -> Digraph:
    """Binary union/order/series of two digraphs: a's vertices first, then b's shifted."""
    return _digraph(_compose_rows(op, [a.out_rows(), b.out_rows()]))


def format_expression(e: Expression) -> str:
    """Canonical text form, `op(child, child, ...)` with leaves as `v`."""
    return e._text


def parse_expression(text: str) -> Expression:
    """Parse the grammar `expr := "v" | op "(" expr ("," expr)+ ")"`."""
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def fail(msg: str) -> ExpressionError:
        return ExpressionError(f"position {pos}: {msg}")

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            found = text[pos] if pos < len(text) else "end of input"
            raise fail(f"expected {ch!r}, found {found!r}")
        pos += 1

    def parse_expr() -> Expression:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise fail("expected expression, found end of input")
        if text[pos] == "v":
            pos += 1
            return _LEAF
        for op in OPS:
            if text.startswith(op, pos):
                pos += len(op)
                expect("(")
                children = [parse_expr()]
                skip_ws()
                while pos < len(text) and text[pos] == ",":
                    pos += 1
                    children.append(parse_expr())
                    skip_ws()
                expect(")")
                if len(children) < 2:
                    raise fail(f"{op} needs at least 2 arguments")
                return _node(op, children)
        raise fail(f"expected 'v' or one of {OPS}, found {text[pos]!r}")

    try:
        result = parse_expr()
    except RecursionError:
        raise ExpressionError("expression is nested too deeply") from None
    skip_ws()
    if pos < len(text):
        raise fail(f"trailing input {text[pos:]!r}")
    return result


# -- named digraph families ---------------------------------------------------


def transitive_tournament(n: int) -> Digraph:
    """T_n: arc (u, v) whenever u < v."""
    _check_param(n)
    return _digraph(_compose_rows("order", [(0,)] * n))


def edgeless(n: int) -> Digraph:
    _check_param(n)
    return Digraph(n)


def bidirectional_complete(n: int) -> Digraph:
    """K_n with every edge replaced by both arcs."""
    _check_param(n)
    return _digraph(_compose_rows("series", [(0,)] * n))


def oriented_path(n: int) -> Digraph:
    """Arcs 0 -> 1 -> ... -> n-1."""
    _check_param(n)
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def oriented_cycle(n: int) -> Digraph:
    """Arcs around a single directed cycle; needs n >= 3 to stay loop- and digon-free."""
    if n < 3:
        raise ValueError(f"oriented cycle needs n >= 3, got {n}")
    _check_param(n)
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def bidir_complete_bipartite(a: int, b: int) -> Digraph:
    """Both arcs between every left-right pair, none inside the sides."""
    _check_param(a, b)
    return _digraph(_compose_rows("series", [(0,) * a, (0,) * b]))


def oriented_complete_bipartite(a: int, b: int) -> Digraph:
    """One arc left-to-right between every left-right pair."""
    _check_param(a, b)
    return _digraph(_compose_rows("order", [(0,) * a, (0,) * b]))


def _check_param(*sizes: int) -> None:
    # checked before any arc list is built, so a huge size cannot exhaust memory
    if min(sizes) < 1 or sum(sizes) > MAX_VERTICES:
        total = " + ".join(map(str, sizes))
        raise ValueError(f"family sizes must be >= 1 and total <= {MAX_VERTICES}, got {total}")


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
