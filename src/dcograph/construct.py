"""Expression language for building digraphs from vertices by union, order, and series."""
from __future__ import annotations

from typing import Iterable

from dcograph.core import MAX_VERTICES, Digraph

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


def _cross_arcs(kind: str, starts: list[int]) -> list[tuple[int, int]]:
    """Arcs an order/series node adds between its children, child i being starts[i]..starts[i+1]-1.

    A kind outside OPS is an ExpressionError.
    """
    if kind not in OPS:
        raise ExpressionError(f"unknown composition {kind!r}; expected one of {', '.join(OPS)}")
    if kind == "union":
        return []
    forward = [
        (u, v)
        for i in range(len(starts) - 1)
        for u in range(starts[i], starts[i + 1])
        for v in range(starts[i + 1], starts[-1])
    ]
    return forward + [(v, u) for u, v in forward] if kind == "series" else forward


def evaluate(e: Expression) -> Digraph:
    """Build the digraph an expression denotes; leaves number depth-first left to right."""
    total = e.leaf_count
    if total > MAX_VERTICES:
        raise ExpressionError(f"expression evaluates to {total} vertices, cap is {MAX_VERTICES}")
    arcs: list[tuple[int, int]] = []

    def emit(node: Expression, base: int) -> int:
        if node.is_leaf:
            return base + 1
        starts = []
        cur = base
        for c in node.children:
            starts.append(cur)
            cur = emit(c, cur)
        starts.append(cur)
        arcs.extend(_cross_arcs(node.kind, starts))
        return cur

    emit(e, 0)
    return Digraph(total, arcs)


def compose(op: str, a: Digraph, b: Digraph) -> Digraph:
    """Binary union/order/series of two digraphs: a's vertices first, then b's shifted."""
    n = a.n + b.n
    arcs = list(a.arcs)
    arcs.extend((u + a.n, v + a.n) for u, v in b.arcs)
    arcs.extend(_cross_arcs(op, [0, a.n, n]))
    return Digraph(n, arcs)


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
    return Digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def edgeless(n: int) -> Digraph:
    _check_param(n)
    return Digraph(n)


def bidirectional_complete(n: int) -> Digraph:
    """K_n with every edge replaced by both arcs."""
    _check_param(n)
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


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
    arcs = []
    for u in range(a):
        for v in range(a, a + b):
            arcs.append((u, v))
            arcs.append((v, u))
    return Digraph(a + b, arcs)


def oriented_complete_bipartite(a: int, b: int) -> Digraph:
    """One arc left-to-right between every left-right pair."""
    _check_param(a, b)
    return Digraph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


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
