"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Every criterion prints `acceptance <k> <name>: PASS|FAIL` through the pytest
terminal (or stdout when run standalone) so the gate stays visible under
output capture. Two criteria are pinned to an expected honest FAIL: the
theorem suite keeps a two-pattern restatement of the anticircuit property
that D5 refutes, and the hierarchy figures claim strict inclusions and
incomparabilities whose witnesses either need six vertices or do not exist at
all. The assertions below lock in those exact failure sets, so any drift
still breaks the build. Criteria 1, 4, 5, 6 and 9 also compare the full
rendered reports with the expected text in tests/golden/.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from dcograph.core import Digraph
from dcograph.decompose import creation_sequence_raw, replay_arcs
from dcograph.mine import (
    MINEABLE_CLASSES,
    VerifyReport,
    enumerate_digraphs,
    is_minimal_obstruction,
    minimal_forbidden,
    verify_closures,
    verify_hierarchy,
    verify_projections,
    verify_theorems,
)
from dcograph.patterns import CATALOG, PATTERNS, patterns_in
from dcograph.recognize import (
    GRAMMAR_CLASSES,
    ClassId,
    member_constructive,
    oracle_members,
)
from dcograph.uclasses import UClassId, enumerate_undirected, member_u

# anchor cardinalities for classes whose whole catalog fits in five vertices
_ANCHORS = {ClassId.DC: 8, ClassId.OC: 4, ClassId.DT: 18, ClassId.DTP: 15, ClassId.OT: 6}

# the theorem suite keeps one deliberately unrepaired biconditional: freeness
# from D1 and K2bidir plus two-switch-freeness does not imply anticircuit-
# freeness, because collapsing anticircuit roles can also yield D5
_EXPECTED_THEOREM_FAILURES = {
    "ferrers-two-switch: two-pattern variant: D1, K2bidir free and no two-switch"
    " == no alternating anticircuit",
}

# strictness/incomparability rows with no separating witness on five vertices;
# three have witnesses on six vertices (Q7 for the two OWQT/DWQT rows, D21 for
# the OCWQT row), one is a genuine equality (OT = OCTP), and the rest are
# provable inclusions, so no witness exists at any size
_EXPECTED_DIRECTED_FAILURES = {
    "OCWQT proper-subset OTP",
    "OWQT proper-subset OC",
    "OT proper-subset OCTP",
    "OC not-below DWQT",
    "OCTP not-below DTP",
    "DTP not-below DWQT",
    "OCTP not-below OTP",
    "OTP not-below DWQT",
    "OTP not-below OWQT",
    "DCTP not-below DCWQT",
    "OCTP not-below DWQT",
    "OCTP not-below OWQT",
    "OCTP not-below DCWQT",
    "OCTP not-below OCWQT",
    "OCTP not-below DSC",
    "OCTP not-below OSC",
    "OCTP not-below DCSC",
    "OCTP not-below DT",
    "OCTP not-below TD",
    "OCTP not-below FD",
    "OCWQT not-below DWQT",
    "OCWQT not-below OWQT",
    "OSC not-below OWQT",
    "OT not-below OWQT",
    "OSC not-below TD",
    "OSC not-below FD",
    "FD not-below TD",
}

_EXPECTED_UNDIRECTED_FAILURES = {
    "SC proper-subset CTP",
    "WQT proper-subset C",
    "CWQT proper-subset C",
    "TP not-below CSC",
    "CSC not-below TP",
    "TP not-below CWQT",
    "CTP not-below WQT",
    "CSC not-below WQT",
    "WQT not-below CWQT",
    "CWQT not-below WQT",
}


# the text `dcograph mine --class X --nmax 5` and `dcograph verify --suite S
# --nmax 5` print, one file per class and per suite
_GOLDEN = Path(__file__).parent / "golden"


def _matches_golden(name: str, text: str) -> bool:
    return text + "\n" == (_GOLDEN / f"{name}.txt").read_text(encoding="ascii")


_REPORTER = None


@pytest.fixture(autouse=True)
def _capture_reporter(request) -> None:
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")


def _verdict(number: int, name: str, ok: bool) -> None:
    line = f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'}"
    if _REPORTER is not None:
        _REPORTER.ensure_newline()
        _REPORTER.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)


def test_criterion_01_obstruction_set_reproduction() -> None:
    started = time.monotonic()
    ok = True
    for x in MINEABLE_CLASSES:
        report = minimal_forbidden(x, n_max=5)
        names = CATALOG[x.value]
        reachable = sorted(n for n in names if PATTERNS[n].n <= 5)
        beyond = sorted(n for n in names if PATTERNS[n].n > 5)
        ok = ok and not report.missing and not report.extra
        ok = ok and sorted(report.confirmed) == reachable
        ok = ok and sorted(report.out_of_reach) == beyond
        ok = ok and _matches_golden(f"mine_{x.value}", report.render())
        if x in _ANCHORS:
            ok = ok and len(report.confirmed) == _ANCHORS[x] == len(names)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 600
    _verdict(1, "obstruction-set reproduction", ok)
    assert ok, f"mining diverged from the catalogs (elapsed {elapsed:.1f}s)"


def test_criterion_02_route_agreement() -> None:
    started = time.monotonic()
    disagreements = 0
    checked = 0
    for n in range(1, 6):
        oracle = {x: oracle_members(x, n) for x in GRAMMAR_CLASSES}
        for g in enumerate_digraphs(n):
            present = patterns_in(g)
            key = g.canonical_form()
            for x in GRAMMAR_CLASSES:
                constructive = member_constructive(g, x)
                patterns = present.isdisjoint(CATALOG[x.value])
                checked += 1
                if not (constructive == patterns == (key in oracle[x])):
                    disagreements += 1
    elapsed = time.monotonic() - started
    ok = disagreements == 0 and checked == 157536 and elapsed < 900
    _verdict(2, "route agreement", ok)
    assert ok, f"{disagreements} disagreements in {checked} checks ({elapsed:.1f}s)"


def test_criterion_03_six_vertex_minimality() -> None:
    started = time.monotonic()
    pairs = [
        (ClassId(cname), name)
        for cname, names in CATALOG.items()
        for name in names
        if PATTERNS[name].n == 6
    ]
    checked_names = {name for _, name in pairs}
    ok = checked_names == {"Q3", "Q7", "coQ3", "coQ7", "D21", "D22", "D23"}
    for x, name in pairs:
        ok = ok and is_minimal_obstruction(PATTERNS[name], x)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    _verdict(3, "six-vertex minimality", ok)
    assert ok, f"six-vertex catalog entries not minimal (elapsed {elapsed:.3f}s)"


def test_criterion_04_theorem_suite() -> None:
    report = verify_theorems(n_max=5)
    failures = {row.subject for row in report.rows if row.verdict != "ok"}
    _verdict(4, "characterization theorems", not failures)
    assert failures == _EXPECTED_THEOREM_FAILURES, failures
    assert _matches_golden("verify_theorems", report.render())


def test_criterion_05_closure_properties() -> None:
    report = verify_closures(n_max=5)
    ok = report.ok() and _matches_golden("verify_closures", report.render())
    _verdict(5, "closure properties", ok)
    assert ok, [row.subject for row in report.rows if row.verdict != "ok"]


def test_criterion_06_hierarchy_figures() -> None:
    directed = verify_hierarchy(n_max=5, directed=True)
    undirected = verify_hierarchy(n_max=5, directed=False)
    directed_failures = {r.subject for r in directed.rows if r.verdict != "ok"}
    undirected_failures = {r.subject for r in undirected.rows if r.verdict != "ok"}
    _verdict(6, "hierarchy figures", not directed_failures and not undirected_failures)
    assert directed_failures == _EXPECTED_DIRECTED_FAILURES, directed_failures
    assert undirected_failures == _EXPECTED_UNDIRECTED_FAILURES, undirected_failures
    both = VerifyReport(suite="hierarchy", rows=directed.rows + undirected.rows)
    assert _matches_golden("verify_hierarchy", both.render())


def test_criterion_07_degenerate_equalities() -> None:
    ok = True
    for n in range(1, 6):
        for g in enumerate_digraphs(n):
            ok = ok and member_constructive(g, ClassId.OCTP) == member_constructive(g, ClassId.OT)
            ok = ok and member_constructive(g, ClassId.OCSC) == member_constructive(g, ClassId.OCWQT)
    _verdict(7, "degenerate grammar equalities", ok)
    assert ok


def _has_orientation_in(u, x: ClassId) -> bool:
    edges = u.edges
    for bits in range(1 << len(edges)):
        arcs = [(a, b) if bits >> i & 1 else (b, a) for i, (a, b) in enumerate(edges)]
        if member_constructive(Digraph(u.n, arcs), x):
            return True
    return False


def test_criterion_08_orientation_correspondence() -> None:
    pairs = [
        (UClassId.C, ClassId.OC),
        (UClassId.TP, ClassId.OTP),
        (UClassId.T, ClassId.OT),
    ]
    ok = True
    for n in range(1, 6):
        for u in enumerate_undirected(n):
            for u_id, d_id in pairs:
                ok = ok and member_u(u, u_id) == _has_orientation_in(u, d_id)
    _verdict(8, "orientation correspondence", ok)
    assert ok


def test_criterion_09_projections_and_round_trip() -> None:
    report = verify_projections(n_max=5)
    ok = report.ok() and _matches_golden("verify_projections", report.render())
    _verdict(9, "projections and expression round-trip", ok)
    assert ok, [row.subject for row in report.rows if row.verdict != "ok"]


def _sparse_digits(n: int) -> str:
    # non-trivial digits only at powers of two keep the arc count linear in n
    out = ["1"]
    k = 0
    for i in range(1, n):
        if i & (i - 1) == 0:
            out.append("123"[k % 3])
            k += 1
        else:
            out.append("0")
    return "".join(out)


def test_criterion_10_creation_sequence_scaling() -> None:
    rates = []
    for n in (10**3, 10**4, 10**5):
        arcs = replay_arcs(_sparse_digits(n))
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            seq = creation_sequence_raw(n, arcs)
            best = min(best, time.perf_counter() - t0)
            assert seq is not None
        rates.append(best / (n + len(arcs)))
    ok = max(rates) <= 3.0 * min(rates)
    _verdict(10, "creation-sequence scaling", ok)
    assert ok, [f"{r * 1e9:.1f}ns" for r in rates]
