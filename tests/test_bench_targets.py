"""Every function the benchmark traces by name still exists in the package.

`perfbench/spans.py` looks its targets up by module and name and only lists
the missing ones, so a renamed or deleted function would silently drop that
function's per-layer metrics from the benchmark output.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
import types
import weakref

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_targets():
    # import spans without writing bytecode next to the benchmark's sources
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import spans
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)
    return spans.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.full_name)
def test_traced_target_resolves(target) -> None:
    # the same lookup as spans.Tracer.install: Class.method through the class
    module = importlib.import_module(f"dcograph.{target.module}")
    owner_name, _, attr = target.name.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    assert owner is not None, target.full_name
    assert callable(vars(owner).get(attr)), target.full_name


def _is_dcograph(name: str) -> bool:
    return name == "dcograph" or name.startswith("dcograph.")


def _run_a_fresh_copy() -> list[weakref.ref]:
    """Import dcograph.cli afresh as perfbench/run.py's load_api does, use it, and put the original modules back.

    Returns weak references to every class and function the fresh copy defined.
    """
    saved = {name: module for name, module in sys.modules.items() if _is_dcograph(name)}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("dcograph.cli")
        fresh = [module for name, module in sys.modules.items() if _is_dcograph(name)]
        core, recognize, mine = (sys.modules[f"dcograph.{m}"] for m in ("core", "recognize", "mine"))
        recognize.classify(core.parse_edge_list("n 3\n0 1\n1 2\n"))
        assert mine.verify_suite("theorems", 3).rows
        return [
            weakref.ref(obj)
            for module in fresh
            for obj in vars(module).values()
            if isinstance(obj, (type, types.FunctionType)) and obj.__module__ == module.__name__
        ]
    finally:
        for name in [name for name in sys.modules if _is_dcograph(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_a_re_imported_copy_is_freed_once_dropped() -> None:
    # the benchmark re-imports the package in every set-up round and reads the
    # process's peak memory, so nothing may keep an old copy alive (a typing
    # alias subscripted with a package class would, through typing's cache)
    refs = _run_a_fresh_copy()
    assert refs
    gc.collect()
    alive = [ref() for ref in refs if ref() is not None]
    assert not alive, [f"{obj.__module__}.{obj.__qualname__}" for obj in alive]
