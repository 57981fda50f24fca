"""Rewrite every file in tests/golden/ from the command-line interface.

    PYTHONPATH=src python tests/make_golden.py

Each file holds what `dcograph` prints on stdout: `mine --nmax 5` and
`mine --nmax 6` for each mineable class, `verify --nmax 5` for each suite,
and `cli_trees.txt`, the commands that read the di-co-tree (`classify
--certificates`, `decompose`, `creation-seq`) on every `patterns/*.edges`
file, on a 64-leaf expression, on that expression's digraph written as a
relabelled edge list and read from stdin, and on expression texts that are
not in normal form (`UNNORMAL_TEXTS`), each run headed by its arguments and
closed by its exit code.
On unchanged code the files come out byte for byte as committed; a change
meant to alter output reruns this script and shows the diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path
from typing import Iterator

from dcograph import cli
from dcograph.construct import evaluate, parse_expression
from dcograph.core import format_edge_list
from dcograph.mine import _SUITES, MINEABLE_CLASSES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def expression(leaves: int, depth: int = 0) -> str:
    """A construction expression with this many leaves that cycles union, order and series by depth."""
    if leaves == 1:
        return "v"
    left = max(1, leaves // 3)
    op = ("union", "order", "series")[depth % 3]
    return f"{op}({expression(left, depth + 1)}, {expression(leaves - left, depth + 1)})"


def caterpillar(leaves: int, depth: int = 0) -> str:
    """A construction expression nested leaves - 1 deep: each node cycles union, order and series by depth
    and lists its subtree before its leaf, so no union or series node has its children sorted."""
    if leaves == 1:
        return "v"
    return f"{('union', 'order', 'series')[depth % 3]}({caterpillar(leaves - 1, depth + 1)}, v)"


# texts the parser must bring to normal form: unsorted union and series
# children, children with their parent's operation, odd whitespace, and a
# 64-leaf expression nested 63 deep
UNNORMAL_TEXTS = (
    "union(series(v, v), v)",
    "series(order(v, v, v), union(v, v), v)",
    "order(order(v, v), v, order(v, union(v, v)))",
    "union(union(v, order(v, v)), series(v, v), union(v, v))",
    "  series (v ,\tunion( v,v ) ,  order(v , v) )\t",
    caterpillar(64),
)


def run(argv: list[str], stdin: str = "") -> tuple[str, int]:
    """The stdout and exit code of `dcograph argv` with this text on stdin, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), _stdin(stdin):
        code = cli.main(argv)
    return out.getvalue(), code


@contextlib.contextmanager
def _stdin(text: str) -> Iterator[None]:
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def relabelled_edge_list(leaves: int) -> str:
    """`expression(leaves)`'s digraph as a formatted edge list, vertex i renamed 7i + 3 mod leaves."""
    # a bijection whenever 7 does not divide leaves
    g = evaluate(parse_expression(expression(leaves)))
    return format_edge_list(g.relabel([(7 * i + 3) % leaves for i in range(leaves)]))


def cli_trees() -> str:
    """The text of cli_trees.txt: every tree-reading command on every pattern file, the 64-leaf
    expression, its relabelled edge list on stdin, which the bulk edge-list reader reads, and
    the texts that are not in normal form."""
    inputs = [([f"patterns/{path.name}"], "") for path in sorted((ROOT / "patterns").glob("*.edges"))]
    inputs.append((["--expr", expression(64)], ""))
    inputs.append((["-"], relabelled_edge_list(64)))
    inputs.extend((["--expr", text], "") for text in UNNORMAL_TEXTS)
    blocks = []
    for source, stdin in inputs:
        # pattern files are opened from the repository root, whatever the working directory
        opened = [str(ROOT / source[0])] if source[0].startswith("patterns/") else source
        for command in (["classify", "--certificates"], ["decompose"], ["creation-seq"]):
            stdout, code = run(command + opened, stdin)
            head = f"$ dcograph {' '.join(command + source)}" + (" < relabelled expression(64)" if stdin else "")
            blocks.append(f"{head}\n{stdout}exit {code}\n")
    return "".join(blocks)


def six_vertex_mining() -> dict[str, str]:
    """Each `mine_<class>_6.txt` file name with the text `mine --nmax 6` prints for that class."""
    return {f"mine_{x.value}_6.txt": run(["mine", "--class", x.value, "--nmax", "6"])[0] for x in MINEABLE_CLASSES}


def golden_texts() -> dict[str, str]:
    """Each file name in tests/golden/ with the text it should hold."""
    texts = {f"mine_{x.value}.txt": run(["mine", "--class", x.value, "--nmax", "5"])[0] for x in MINEABLE_CLASSES}
    texts.update(six_vertex_mining())
    texts.update({f"verify_{name}.txt": run(["verify", "--suite", name, "--nmax", "5"])[0] for name in _SUITES})
    texts["cli_trees.txt"] = cli_trees()
    return texts


def main() -> None:
    for name, text in golden_texts().items():
        (GOLDEN / name).write_bytes(text.encode("ascii"))
        print(f"wrote tests/golden/{name}")


if __name__ == "__main__":
    main()
