"""The recursive-descent expression parser, kept as the reference `parse_expression` is tested against.

It reads the grammar `expr := "v" | op "(" expr ("," expr)+ ")"` one
character at a time, skipping whitespace by `str.isspace`, and builds each
node through `construct._node`. Its errors name the position they are found
at; text nested past the interpreter's recursion limit is "nested too
deeply".
"""

from __future__ import annotations

from dcograph.construct import _LEAF, OPS, Expression, ExpressionError, _node


def parse_expression(text: str) -> Expression:
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
