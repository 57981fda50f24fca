"""Command-line front end: classify, decompose, transform, generate, mine, verify."""

from __future__ import annotations

import argparse
import sys

from dcograph.construct import (
    FAMILIES,
    ExpressionError,
    evaluate,
    format_expression,
    generate_family,
    parse_expression,
)
from dcograph.core import (
    Digraph,
    EdgeListError,
    format_edge_list,
    parse_edge_list,
    to_dot,
)
from dcograph.decompose import creation_sequence, di_co_tree, maximal_split
from dcograph.mine import _SUITES, MINEABLE_CLASSES, minimal_forbidden, verify_suite
from dcograph.recognize import (
    ClassId,
    PATTERN_ONLY_CLASSES,
    RouteDisagreement,
    classify,
    constructive_certificate,
    violating_occurrence,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ROUTE_DISAGREEMENT = 3

_TRANSFORM_OPS = ("complement", "converse", "underlying", "sym", "asym")


def _read_digraph(args: argparse.Namespace) -> Digraph:
    """Resolve the single input source: file path, '-' for stdin, or --expr."""
    path = args.input
    expr = args.expr
    if path is not None and expr is not None:
        raise EdgeListError("choose one input source: a file path, '-' for stdin, or --expr")
    if expr is not None:
        return evaluate(parse_expression(expr))
    if path is None:
        path = "-"  # pipelines stay flag-free: no source means stdin
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_edge_list(text)


def _add_input_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", help="edge-list file, or '-' for stdin (default)")
    p.add_argument("--expr", help="construction expression instead of a file")


def _class_ids(values: list[str] | None) -> list[ClassId]:
    return [ClassId(v) for v in values] if values else list(ClassId)


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _read_digraph(args)
    selected = _class_ids(args.classes)
    members = classify(g, selected)
    for x in selected:
        verdict = "member" if x in members else "non-member"
        if not args.certificates:
            print(f"{x.value}\t{verdict}")
            continue
        if x in members:
            if x in PATTERN_ONLY_CLASSES:
                detail = "free of every catalog obstruction"
            else:
                cert = constructive_certificate(g, x)
                # a check that `python -O` keeps: a member always has a certificate
                if cert is None:
                    raise RuntimeError(f"{x.value} member {g!r} has no certificate")
                detail = format_expression(cert)
        else:
            name, vertices = violating_occurrence(g, x)  # type: ignore[misc]  # None only for members
            detail = f"violates {name} at {','.join(map(str, vertices))}"
        print(f"{x.value}\t{verdict}\t{detail}")
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _read_digraph(args)
    if g.n == 1:
        print("op\tsingleton")
        print("part\t0")
    else:
        split = maximal_split(g)
        print(f"op\t{split.op}")
        for part in split.parts:
            print(f"part\t{','.join(map(str, part))}")
    tree = di_co_tree(g)
    print(f"tree\t{format_expression(tree) if tree is not None else '-'}")
    return EXIT_OK


def _cmd_creation_seq(args: argparse.Namespace) -> int:
    g = _read_digraph(args)
    seq = creation_sequence(g, allow_series=not args.no_series)
    if seq is None:
        print("none")
        return EXIT_OK
    print(f"digits\t{seq.digits}")
    print(f"order\t{','.join(map(str, seq.order))}")
    return EXIT_OK


def _cmd_transform(args: argparse.Namespace) -> int:
    g = _read_digraph(args)
    if args.op == "complement":
        out = g.complement()
    elif args.op == "converse":
        out = g.converse()
    elif args.op == "underlying":
        # symmetric digraph encoding keeps the output pipeable
        out = g.underlying().to_digraph()
    elif args.op == "sym":
        out = g.sym_part()
    else:
        out = g.asym_part()
    print(format_edge_list(out), end="")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    g = generate_family(args.family, args.n, args.m)
    print(format_edge_list(g), end="")
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    g = _read_digraph(args)
    print(to_dot(g), end="")
    return EXIT_OK


def _cmd_mine(args: argparse.Namespace) -> int:
    report = minimal_forbidden(ClassId(args.class_id), n_max=args.nmax)
    print(report.render())
    return EXIT_OK if report.ok() else EXIT_CHECK_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_suite(args.suite, n_max=args.nmax)
    print(report.render())
    return EXIT_OK if report.ok() else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dcograph",
        description="Recognize, decompose, transform, mine, and verify directed co-graph classes.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="membership verdict for each requested class")
    _add_input_arguments(p)
    p.add_argument(
        "--class",
        dest="classes",
        action="append",
        choices=[x.value for x in ClassId],
        help="class to test (repeatable; default: all)",
    )
    p.add_argument(
        "--certificates",
        action="store_true",
        help="print a construction expression or a violating obstruction occurrence",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decompose", help="top-level split and di-co-tree when one exists")
    _add_input_arguments(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("creation-seq", help="vertex creation sequence when one exists")
    _add_input_arguments(p)
    p.add_argument(
        "--no-series",
        action="store_true",
        help="forbid bi-dominating additions (oriented threshold digits only)",
    )
    p.set_defaults(func=_cmd_creation_seq)

    p = sub.add_parser("transform", help="apply a digraph transform and print the edge list")
    _add_input_arguments(p)
    p.add_argument("--op", required=True, choices=_TRANSFORM_OPS)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("gen", help="generate a named family member")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", type=int, help="second size parameter for bipartite families")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("mine", help="mine minimal obstructions and diff against the catalog")
    p.add_argument(
        "--class",
        dest="class_id",
        required=True,
        choices=[x.value for x in MINEABLE_CLASSES],
    )
    p.add_argument("--nmax", type=int, default=5, help="largest vertex count to sweep (2..6)")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("verify", help="run a verification suite and print its report")
    p.add_argument("--suite", required=True, choices=tuple(_SUITES))
    p.add_argument("--nmax", type=int, default=5, help="largest vertex count to sweep (1..5)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export-dot", help="print the digraph as GraphViz DOT text")
    _add_input_arguments(p)
    p.set_defaults(func=_cmd_export_dot)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RouteDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ROUTE_DISAGREEMENT
    except (EdgeListError, ExpressionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
