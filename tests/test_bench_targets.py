"""Every function the benchmark traces by name still exists in the package.

`perfbench/spans.py` looks its targets up by module and name and only lists
the missing ones, so a renamed or deleted function would silently drop that
function's per-layer metrics from the benchmark output.
"""

from __future__ import annotations

import importlib
import os
import sys

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
