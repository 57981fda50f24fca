"""Rewrite every file in tests/golden/ from the command-line interface.

    PYTHONPATH=src python tests/make_golden.py

Each file holds what `dcograph` prints on stdout: `mine --nmax 5` and
`mine --nmax 6` for each mineable class, `verify --nmax 5` for each suite,
and `cli_trees.txt`, the commands that read the di-co-tree (`classify
--certificates`, `decompose`, `creation-seq`) on every `patterns/*.edges`
file and on a 64-leaf expression, each run headed by its arguments and
closed by its exit code.
On unchanged code the files come out byte for byte as committed; a change
meant to alter output reruns this script and shows the diff.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from dcograph import cli
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


def run(argv: list[str]) -> tuple[str, int]:
    """The stdout and exit code of `dcograph argv`, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code


def cli_trees() -> str:
    """The text of cli_trees.txt: every tree-reading command on every pattern file and the 64-leaf expression."""
    inputs = [[f"patterns/{path.name}"] for path in sorted((ROOT / "patterns").glob("*.edges"))]
    inputs.append(["--expr", expression(64)])
    blocks = []
    for source in inputs:
        # pattern files are opened from the repository root, whatever the working directory
        opened = [str(ROOT / source[0])] if source[0] != "--expr" else source
        for command in (["classify", "--certificates"], ["decompose"], ["creation-seq"]):
            stdout, code = run(command + opened)
            blocks.append(f"$ dcograph {' '.join(command + source)}\n{stdout}exit {code}\n")
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
