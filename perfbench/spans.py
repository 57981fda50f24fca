"""Spans around calls into dcograph's public functions, recorded from outside the package.

The tracer rebinds every `dcograph.*` module attribute that holds a target
function (modules import some by name, e.g. `recognize.maximal_split`) and
patches `Digraph` methods on the class. Spans stay in flat arrays until the
run ends; per-layer metrics are derived from them then. `restore()` puts
every original back.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function and the statistics reported for it."""

    module: str
    name: str  # function, or Class.method
    stats: tuple[str, ...]  # of: calls self_s total_s distinct_frac hit_frac induced_per_call rows
    label: Callable | None = None  # per-call span suffix, e.g. the class mined
    labels: tuple[str, ...] = ()  # the suffixes reported (total_s each)
    key: Callable | None = None  # distinct-argument key, for distinct_frac
    rows: Callable | None = None  # rows handled by one call, for rows

    @property
    def full_name(self) -> str:
        return f"{self.module}.{self.name}"


def _first(args, kwargs):
    return args[0]


def _graph_and_class(args, kwargs):
    return (args[0], args[1] if len(args) > 1 else kwargs["x"])


def _class_label(args, kwargs):
    return (args[0] if args else kwargs["x"]).value


def _suite_label(args, kwargs):
    return args[0] if args else kwargs["name"]


def _mask_rows(args, kwargs):
    return len(args[1] if len(args) > 1 else kwargs["masks"])


TARGETS: tuple[Target, ...] = (
    Target("core", "Digraph.induced", ("calls", "self_s")),
    Target("core", "Digraph.converse", ("calls", "self_s")),
    Target("core", "Digraph.canonical_form", ("calls", "self_s", "distinct_frac"), key=_first),
    Target("core", "Digraph.isomorphism_to", ("calls", "self_s")),
    Target("core", "parse_edge_list", ("self_s",)),
    Target("construct", "parse_expression", ("self_s",)),
    Target("construct", "evaluate", ("self_s",)),
    Target("patterns", "contains_induced", ("calls", "self_s", "hit_frac", "induced_per_call")),
    Target("patterns", "match_partial", ("calls", "self_s")),
    Target("patterns", "induced_canon_set", ("calls", "self_s", "distinct_frac"), key=_first),
    Target("decompose", "maximal_split", ("calls", "self_s", "distinct_frac"), key=_first),
    Target("decompose", "di_co_tree", ("total_s",)),
    Target("decompose", "creation_sequence", ("total_s",)),
    Target("recognize", "member_constructive", ("calls", "self_s", "distinct_frac"), key=_graph_and_class),
    Target("recognize", "constructive_certificate", ("total_s",)),
    Target("recognize", "classify", ("total_s",)),
    Target("recognize", "member_by_patterns", ("total_s",)),
    Target("recognize", "oracle_level", ("total_s",)),
    Target("mine", "enumerate_digraphs", ("total_s",)),
    Target("mine", "canonical_masks", ("calls", "rows", "self_s"), rows=_mask_rows),
    Target("mine", "minimal_forbidden", (), label=_class_label, labels=("DC", "DWQT")),
    Target("mine", "verify_suite", (), label=_suite_label, labels=("closures", "theorems", "hierarchy")),
    Target("uclasses", "enumerate_undirected", ("total_s",)),
    Target("uclasses", "member_u", ("calls", "self_s")),
)

INDUCED = "core.Digraph.induced"
CONTAINS = "patterns.contains_induced"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run can report, in a fixed order."""
    names = []
    for t in TARGETS:
        names.extend(f"{t.full_name}.{s}" for s in t.stats)
        names.extend(f"{t.full_name}.{label}.total_s" for label in t.labels)
    return names


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span; parent -1 marks a span with no traced caller
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outermost = array("b")  # no enclosing span of the same name
        self.request = array("i")
        self.current_request = -1
        self.distinct: dict[str, set] = {}
        self.rows: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self._depth: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, target: Target):
        base_id = self._name_id(target.full_name)
        stack, depth = self._stack, self._depth
        span_name, start, end = self.span_name, self.start, self.end
        parent, outermost, request = self.parent, self.outermost, self.request
        distinct = self.distinct.setdefault(target.full_name, set()) if target.key else None
        label, key, rows = target.label, target.key, target.rows
        counts_hits = "hit_frac" in target.stats
        full_name = target.full_name

        @wraps(fn)
        def traced(*args, **kwargs):
            nid = base_id if label is None else self._name_id(f"{full_name}.{label(args, kwargs)}")
            if key is not None:
                distinct.add(key(args, kwargs))
            if rows is not None:
                self.rows[full_name] = self.rows.get(full_name, 0) + rows(args, kwargs)
            sid = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            request.append(self.current_request)
            level = depth.get(nid, 0)
            outermost.append(level == 0)
            depth[nid] = level + 1
            stack.append(sid)
            end.append(0.0)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
                depth[nid] = level
            if counts_hits and result is not None:
                self.hits[full_name] = self.hits.get(full_name, 0) + 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every target found in the loaded dcograph modules."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "dcograph" or name.startswith("dcograph.")
        }
        for target in TARGETS:
            mod = modules.get(f"dcograph.{target.module}")
            owner_name, _, attr = target.name.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                self.absent.append(target.full_name)
                continue
            wrapper = self._wrap(fn, target)
            if owner_name:
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, fn))
                continue
            for m in modules.values():
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)
                        self._restore.append((m, name, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans; absent targets are left out."""
        count = len(self.span_name)
        covered = array("d", bytes(8 * count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        nnames = len(self.names)
        calls = [0] * nnames
        self_s = [0.0] * nnames
        total_s = [0.0] * nnames
        induced_id = self._name_ids.get(INDUCED)
        contains_id = self._name_ids.get(CONTAINS)
        induced_in_contains = 0
        for i in range(count):
            nid = self.span_name[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            self_s[nid] += dur - covered[i]
            if self.outermost[i]:
                total_s[nid] += dur
            p = self.parent[i]
            if nid == induced_id and p >= 0 and self.span_name[p] == contains_id:
                induced_in_contains += 1

        out: dict[str, float] = {}
        for t in TARGETS:
            if t.full_name in self.absent:
                continue
            nid = self._name_ids.get(t.full_name)
            n_calls = calls[nid] if nid is not None else 0
            values = {
                "calls": n_calls,
                "self_s": self_s[nid] if n_calls else 0.0,
                "total_s": total_s[nid] if n_calls else 0.0,
                "distinct_frac": len(self.distinct.get(t.full_name, ())) / n_calls if n_calls else 0.0,
                "hit_frac": self.hits.get(t.full_name, 0) / n_calls if n_calls else 0.0,
                "induced_per_call": induced_in_contains / n_calls if n_calls else 0.0,
                "rows": self.rows.get(t.full_name, 0),
            }
            for s in t.stats:
                out[f"{t.full_name}.{s}"] = values[s]
            for label in t.labels:
                lid = self._name_ids.get(f"{t.full_name}.{label}")
                out[f"{t.full_name}.{label}.total_s"] = total_s[lid] if lid is not None else 0.0
        return out
