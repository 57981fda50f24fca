"""Digraph primitives: masks, transforms, canonical forms, serialization."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcograph.core import (
    Digraph,
    EdgeListError,
    UndirectedGraph,
    _bits,
    _component_masks,
    _full_offdiag,
    _parse_lines,
    format_edge_list,
    parse_edge_list,
    to_dot,
)
from dcograph.uclasses import enumerate_undirected


@st.composite
def digraphs(draw, max_n: int = 7) -> Digraph:
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * n)) - 1))
    return Digraph.from_mask(n, mask & _full_offdiag(n))


def test_basic_arc_accounting() -> None:
    g = Digraph(3, [(0, 1), (1, 0), (2, 0)])
    assert g.arcs == ((0, 1), (1, 0), (2, 0))
    assert g.arc_count == 3
    assert g.has_arc(0, 1) and g.has_arc(1, 0) and not g.has_arc(0, 2)
    assert g.out_degree(0) == 1 and g.in_degree(0) == 2


def test_loops_and_range_rejected_duplicates_collapse() -> None:
    with pytest.raises(ValueError):
        Digraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])
    # the arc set is a mask, so repeating an arc is harmless
    assert Digraph(2, [(0, 1), (0, 1)]) == Digraph(2, [(0, 1)])
    # a vertex outside 0..n-1 is refused, not read as some other pair's bit
    g = Digraph(3, [(0, 1), (1, 2)])
    for call in (
        lambda: g.delete_vertex(99),
        lambda: g.delete_vertex(-1),
        lambda: g.in_row(5),
        lambda: g.out_row(3),
        lambda: g.out_row(-1),
        lambda: g.out_degree(3),
        lambda: g.in_degree(3),
    ):
        with pytest.raises(ValueError):
            call()


def test_undirected_has_edge_rejects_a_vertex_out_of_range() -> None:
    # like Digraph.has_arc: an off-by-one vertex is refused, not read as a missing edge
    u = UndirectedGraph(3, [(0, 1), (1, 2)])
    assert u.has_edge(2, 1) and not u.has_edge(0, 2)
    for a, b in ((1, 5), (-1, 2), (3, 0)):
        with pytest.raises(ValueError):
            u.has_edge(a, b)


@pytest.mark.parametrize("n", [3, 9, 64])
def test_numpy_integers_read_as_the_python_ints_they_equal(n: int) -> None:
    # a numpy endpoint once made a numpy mask: wrapped past 64 bits, and
    # without the int methods that arcs and repr read
    rng = random.Random(n)
    arcs = [(n - 1, 0), (0, 1)] + [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
    g = Digraph(n, arcs)
    for kind in (np.int64, np.uint8, np.intp):
        h = Digraph(kind(n), [(kind(u), kind(v)) for u, v in arcs])
        assert h == g and type(h.mask) is int and h.arcs == g.arcs and repr(h) == repr(g)
        assert Digraph.from_mask(kind(n), np.uint64(2)) == Digraph(n, [(0, 1)])
        assert h.has_arc(kind(n - 1), kind(0)) and h.out_row(kind(n - 1)) == g.out_row(n - 1)
        picked = np.arange(0, n, 2, dtype=kind)
        assert h.induced(picked) == g.induced(range(0, n, 2)) and type(h.induced(picked).mask) is int
        assert h.delete_vertex(kind(0)) == g.delete_vertex(0)
        assert h.in_row(kind(1)) == g.in_row(1) and h.in_degree(kind(1)) == g.in_degree(1)
        perm = list(range(1, n)) + [0]
        assert h.relabel(np.array(perm, dtype=kind)) == g.relabel(perm)
        assert repr(h.relabel(np.array(perm, dtype=kind))) == repr(g.relabel(perm))
        edges = [(u, v) for u, v in arcs if u < v]
        u = UndirectedGraph(kind(n), [(kind(a), kind(b)) for a, b in edges])
        assert u == UndirectedGraph(n, edges) and repr(u) == repr(UndirectedGraph(n, edges))
        assert u.has_edge(kind(1), kind(0))
    for bad in ((0, 1.0), (1.0, 0)):
        with pytest.raises(TypeError):
            Digraph(n, [bad])
        with pytest.raises(TypeError):
            UndirectedGraph(n, [bad])
    with pytest.raises(TypeError):
        Digraph(float(n))


@pytest.mark.parametrize("vertex", [0.5, 1.0, "1", None], ids=["half", "float-one", "str", "none"])
def test_a_vertex_that_is_no_integer_is_a_type_error(vertex) -> None:
    # delete_vertex(0.5) used to return the digraph unchanged and delete_vertex(1.0)
    # deleted vertex 1; in_row and in_degree ended in "slice indices must be integers"
    g = Digraph(3, [(0, 1), (1, 2)])
    for call in (g.delete_vertex, g.in_row, g.in_degree, g.out_row, g.out_degree):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(vertex)


_NON_INTEGER_ENDPOINTS = [
    (lambda: Digraph(3, [(0, "1")]), "arc (0, '1') needs integer endpoints"),
    (lambda: Digraph(3, [(0, 1), (1.5, 2)]), "arc (1.5, 2) needs integer endpoints"),
    (lambda: UndirectedGraph(3, [(0, "1")]), "edge (0, '1') needs integer endpoints"),
    (lambda: UndirectedGraph(3, [(0, 1), (1.0, 2)]), "edge (1.0, 2) needs integer endpoints"),
]


@pytest.mark.parametrize(("call", "message"), _NON_INTEGER_ENDPOINTS, ids=[m for _, m in _NON_INTEGER_ENDPOINTS])
def test_a_non_integer_endpoint_is_a_type_error_naming_its_arc(call, message: str) -> None:
    # Python's own words ("'<=' not supported between ...") named neither the arc nor the input
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


@given(digraphs())
def test_complement_and_converse_are_involutions(g: Digraph) -> None:
    assert g.complement().complement() == g
    assert g.converse().converse() == g


@given(digraphs())
def test_sym_asym_partition_arcs(g: Digraph) -> None:
    sym, asym = g.sym_part(), g.asym_part()
    assert sym.mask & asym.mask == 0
    assert sym.mask | asym.mask == g.mask
    assert asym.is_oriented()
    assert sym.converse() == sym


@given(digraphs())
def test_underlying_matches_arc_presence(g: Digraph) -> None:
    u = g.underlying()
    for a in range(g.n):
        for b in range(a + 1, g.n):
            assert u.has_edge(a, b) == (g.has_arc(a, b) or g.has_arc(b, a))


@given(digraphs(max_n=64))
def test_underlying_is_the_symmetric_closure(g: Digraph) -> None:
    u = g.underlying()
    assert u.to_digraph().mask == g.mask | g.converse().mask
    assert UndirectedGraph(g.n, u.edges) == u


@given(digraphs(max_n=6), st.randoms(use_true_random=False))
def test_canonical_form_is_relabel_invariant(g: Digraph, rnd) -> None:
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = g.relabel(perm)
    assert h.canonical_form() == g.canonical_form()
    assert h.isomorphic_to(g)


@given(digraphs(max_n=6))
def test_isomorphism_to_returns_a_real_mapping(g: Digraph) -> None:
    perm = list(reversed(range(g.n)))
    h = g.relabel(perm)
    mapping = g.isomorphism_to(h)
    assert mapping is not None
    assert g.relabel(mapping) == h


def test_nonisomorphic_pairs_get_distinct_canonical_forms() -> None:
    a = Digraph(3, [(0, 1)])
    b = Digraph(3, [(0, 1), (1, 0)])
    assert a.canonical_form() != b.canonical_form()
    assert not a.isomorphic_to(b)


@given(digraphs())
def test_induced_on_all_vertices_is_identity(g: Digraph) -> None:
    assert g.induced(range(g.n)) == g


def _induced_pairs(g: Digraph, vertices: list[int]) -> int:
    """Reference induced mask: one bit test per ordered pair of kept vertices."""
    sub = sorted(set(vertices))
    k, mask = len(sub), 0
    for i, u in enumerate(sub):
        for j, v in enumerate(sub):
            if u != v and g.mask >> u * g.n + v & 1:
                mask |= 1 << i * k + j
    return mask


@given(digraphs(max_n=64), st.data())
def test_induced_rows_match_pair_reference(g: Digraph, data) -> None:
    vertices = data.draw(st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=1))
    sub = g.induced(vertices)
    assert (sub.n, sub.mask) == (len(set(vertices)), _induced_pairs(g, vertices))


def test_induced_reads_its_argument_as_a_vertex_set() -> None:
    # repeats and order are ignored, on both graph types
    g = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.induced([2, 0, 0, 1, 2]) == g.induced([0, 1, 2]) == Digraph(3, [(0, 1), (1, 2)])
    u = g.underlying()
    assert u.induced([3, 1, 3, 0]) == u.induced([0, 1, 3]) == UndirectedGraph(3, [(0, 1), (0, 2)])


def _pair_arcs(g: Digraph) -> list[tuple[int, int]]:
    """Reference arc list: one bit test per ordered pair, u ascending, then v ascending."""
    n = g.n
    return [(u, v) for u in range(n) for v in range(n) if g.mask >> u * n + v & 1]


@given(digraphs(max_n=64), st.randoms(use_true_random=False))
def test_rows_converse_and_arcs_match_pair_reference(g: Digraph, rnd) -> None:
    n, arcs = g.n, _pair_arcs(g)
    assert g.arcs == tuple(arcs)
    converse = g.converse()
    assert (converse.n, converse.mask) == (n, sum(1 << v * n + u for u, v in arcs))
    out_rows = [sum(1 << v for w, v in arcs if w == u) for u in range(n)]
    in_rows = [sum(1 << u for u, w in arcs if w == v) for v in range(n)]
    assert g.out_rows() == out_rows
    assert g.in_rows() == in_rows == [g.in_row(v) for v in range(n)]
    assert [g.in_degree(v) for v in range(n)] == [row.bit_count() for row in in_rows]
    rnd.shuffle(arcs)
    assert Digraph(n, arcs).mask == g.mask
    assert parse_edge_list(format_edge_list(g)) == g
    lines = format_edge_list(g).splitlines()
    body = lines[1:]
    rnd.shuffle(body)
    assert parse_edge_list("\n".join(lines[:1] + body)) == g


def test_delete_vertex_matches_induced() -> None:
    g = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for v in range(4):
        rest = [u for u in range(4) if u != v]
        assert g.delete_vertex(v) == g.induced(rest)


def test_transitivity_and_acyclicity_spot_checks() -> None:
    tt3 = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    c3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    k2bidir = Digraph(2, [(0, 1), (1, 0)])
    assert tt3.is_transitive() and tt3.is_acyclic() and tt3.is_tournament()
    assert not c3.is_transitive() and not c3.is_acyclic()
    # transitivity only constrains pairs with distinct endpoints, so a
    # bidirected pair closes vacuously
    assert k2bidir.is_transitive()
    assert k2bidir.sym_part() == k2bidir and not k2bidir.is_oriented()


def test_component_views() -> None:
    # the components the di-co-tree splits on: those of the underlying graph,
    # and those of the complement's underlying graph (rows ~(out & in))
    g = Digraph(4, [(0, 1), (1, 0)])
    everyone = (1 << g.n) - 1
    components = _component_masks(everyone, g.underlying().to_digraph().out_rows())
    assert [_bits(c) for c in components] == [(0, 1), (2,), (3,)]
    co = g.complement()
    assert _component_masks(everyone, [~(o & i) for o, i in zip(co.out_rows(), co.in_rows())]) == components


def _union_find_components(s: int, adjacent) -> list[int]:
    """Components on the vertex bit set s of the pairs that adjacent(u, v) holds for, as bit sets by minimum vertex."""
    members = _bits(s)
    root = {v: v for v in members}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if adjacent(u, v):
                root[find(v)] = find(u)
    comps: dict[int, int] = {}
    for v in members:
        comps[find(v)] = comps.get(find(v), 0) | 1 << v
    return sorted(comps.values(), key=lambda c: c & -c)


@given(st.integers(min_value=1, max_value=64), st.sampled_from([0.02, 0.06, 0.2, 0.5, 0.9]), st.data())
def test_component_masks_agree_with_union_find(n: int, density: float, data) -> None:
    # symmetric rows, as given and negated: the di-co-tree passes ~(out & in)
    # and ~(out ^ in), whose bits outside the set split must not count
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    s = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert _component_masks(s, rows) == _union_find_components(s, lambda u, v: rows[u] >> v & 1)
    negated = [~row for row in rows]
    assert _component_masks(s, negated) == _union_find_components(s, lambda u, v: not rows[u] >> v & 1)


class _CountingRows(list):
    """Neighbour rows that count how often one is read."""

    def __init__(self, rows: list[int]) -> None:
        super().__init__(rows)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("isolated", [0, 63])
def test_component_masks_grow_from_the_smaller_side(isolated: int) -> None:
    # a 63-vertex bidirectional clique beside one isolated vertex: reading the
    # rows of every reached vertex reads all 64; growing from the smaller side
    # reads one clique row and checks the one vertex left against the frontier
    everyone = (1 << 64) - 1
    clique = everyone & ~(1 << isolated)
    rows = _CountingRows([0 if v == isolated else clique & ~(1 << v) for v in range(64)])
    assert _component_masks(everyone, rows) == sorted([clique, 1 << isolated])
    assert rows.reads <= 4, rows.reads


def test_bits_lists_the_members_ascending() -> None:
    assert _bits(0) == ()
    assert _bits(0b1011) == (0, 1, 3)
    assert _bits(1 << 63 | 1) == (0, 63)


@given(digraphs())
def test_edge_list_round_trip(g: Digraph) -> None:
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_parser_accepts_comments_and_blanks() -> None:
    text = "# header comment\nn 3\n\n0 1  # arc\n2 1\n"
    assert parse_edge_list(text) == Digraph(3, [(0, 1), (2, 1)])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "m 3\n0 1\n",
        "n x\n",
        "n 0\n",
        "n 2\n0\n",
        "n 2\n0 a\n",
        "n 2\n0 2\n",
        "n 2\n1 1\n",
        "n 2\n0 1\n0 1\n",
        # numerals int() reads but format_edge_list never writes
        "n 1_0\n0 1\n",
        "n +3\n",
        "n 2\n\u0660 \u0661\n",
        "n 12\n1_0 1\n",
        "n 3\n+0 1\n",
    ],
)
def test_edge_list_parser_rejects_malformed_input(text: str) -> None:
    with pytest.raises(EdgeListError):
        parse_edge_list(text)


def test_edge_list_parser_names_the_line_of_a_duplicate_arc() -> None:
    with pytest.raises(EdgeListError, match=r"^line 5: duplicate arc \(2, 0\)$"):
        parse_edge_list("n 3\n2 0\n0 1\n# note\n2 0\n")


def _outcome(parse, text: str) -> tuple[str, object]:
    try:
        return "digraph", parse(text)
    except EdgeListError as exc:
        return "error", str(exc)


# Each edit takes the text's lines (header first) and a line index; it returns
# the new lines. The index may point past the last line, so edits also land at
# the end of the text.
def _insert(line: str):
    return lambda lines, at: lines[:at] + [line] + lines[at:]


def _rewrite(edit):
    def apply(lines: list[str], at: int) -> list[str]:
        at = min(at, len(lines) - 1)
        return lines[:at] + [edit(lines[at])] + lines[at + 1 :]

    return apply


def _replace_field(token: str):
    return _rewrite(lambda line: " ".join([token] + line.split(" ")[1:]) if " " in line else token)


def _header(n: str):
    return lambda lines, at: [f"n {n}"] + lines[1:]


def _duplicate_later(lines: list[str], at: int) -> list[str]:
    arcs = [i for i in range(1, len(lines)) if lines[i][:1].isdigit()]
    if not arcs:
        return lines
    i = arcs[at % len(arcs)]
    later = i + 1 + at % (len(lines) - i)
    return lines[:later] + [lines[i]] + lines[later:]


_EDITS = {
    "comment line": _insert("# a comment"),
    "trailing comment": _rewrite(lambda line: line + "  # note"),
    "blank line": _insert(""),
    "CRLF": _rewrite(lambda line: line + "\r"),
    "tab": _rewrite(lambda line: line.replace(" ", "\t", 1)),
    "leading zero": _replace_field("07"),
    "plus sign": _replace_field("+1"),
    "underscore": _replace_field("1_0"),
    "Arabic-Indic digit": _replace_field("\u0663"),
    "3-digit numeral": _replace_field("100"),
    "25-digit numeral": _replace_field("1" * 25),
    "n 0": _header("0"),
    "n 00": _header("00"),
    "n 65": _header("65"),
    "duplicate arc": _duplicate_later,
    "1-field line": _insert("0"),
    "3-field line": _insert("0 1 2"),
}


@st.composite
def edge_list_texts(draw) -> str:
    """`format_edge_list` texts of 1-64 vertices, body shuffled, with up to two edits."""
    n = draw(st.integers(min_value=1, max_value=64))
    mask = draw(st.integers(min_value=0, max_value=(1 << n * n) - 1)) & _full_offdiag(n)
    header, *body = format_edge_list(Digraph.from_mask(n, mask)).splitlines()
    draw(st.randoms(use_true_random=False)).shuffle(body)
    lines = [header] + body
    u = draw(st.integers(min_value=0, max_value=n - 1))
    edits = dict(_EDITS, **{"loop": _insert(f"{u} {u}"), "out-of-range arc": _insert(f"{u} {n}")})
    for name in draw(st.lists(st.sampled_from(sorted(edits)), max_size=2)):
        lines = edits[name](lines, draw(st.integers(min_value=0, max_value=len(lines))))
    # most texts end as `format_edge_list` ends them, so single edits reach the bulk path
    ending = draw(st.sampled_from(["\n", "\n", "\n", "", "\r\n"]))
    return "\n".join(lines) + ending


@settings(max_examples=300)
@given(edge_list_texts())
def test_bulk_reader_agrees_with_the_line_reader(text: str) -> None:
    assert _outcome(parse_edge_list, text) == _outcome(_parse_lines, text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("n 1\n", ("digraph", Digraph(1, []))),
        ("n 3\n", ("digraph", Digraph(3, []))),
        ("n 3\n \n", ("digraph", Digraph(3, []))),
        ("n 3\n\t\n\n", ("digraph", Digraph(3, []))),
        ("n 3\n0 18446744073709551617\n", ("error", "line 2: arc (0, 18446744073709551617) out of range for n=3")),
        ("n 3\n0 9223372036854775807\n", ("error", "line 2: arc (0, 9223372036854775807) out of range for n=3")),
    ],
)
def test_bulk_reader_guards_numpy_quirks(text: str, expected: tuple[str, object]) -> None:
    # np.fromstring reads a blank string as [0] and saturates numerals past int64
    assert _outcome(parse_edge_list, text) == _outcome(_parse_lines, text) == expected


def _run_optimized(code: str) -> subprocess.CompletedProcess[str]:
    """Run code under `python -O`, which strips assert statements."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    prelude = "if __debug__:\n    raise SystemExit('asserts are still on')\n"
    return subprocess.run(
        [sys.executable, "-O", "-c", prelude + code], capture_output=True, text=True, env=env, timeout=120
    )


def test_isomorphism_check_survives_python_O() -> None:
    # a canonical order that ignores the digraph maps a path onto its reverse by the identity
    proc = _run_optimized(
        "from dcograph import core\n"
        "real = core._canonize\n"
        "core._canonize = lambda n, mask: (real(n, mask)[0], tuple(range(n)))\n"
        "core.Digraph(3, [(0, 1), (1, 2)]).isomorphism_to(core.Digraph(3, [(2, 1), (1, 0)]))\n"
    )
    assert proc.returncode != 0
    assert "RuntimeError: canonical orders of" in proc.stderr



def test_dot_export_golden() -> None:
    g = Digraph(2, [(1, 0)])
    assert to_dot(g) == "digraph G {\n  0;\n  1;\n  1 -> 0;\n}\n"


def test_dot_export_takes_no_graph_name() -> None:
    # the header is always `digraph G {`, so no name can break the DOT text
    with pytest.raises(TypeError):
        to_dot(Digraph(1), 'a"b')  # type: ignore[call-arg]


def test_undirected_graph_basics() -> None:
    u = UndirectedGraph(3, [(0, 1)])
    assert u.edges == ((0, 1),)
    assert u.complement().edges == ((0, 2), (1, 2))
    assert u.to_digraph() == Digraph(3, [(0, 1), (1, 0)])


_UNDIRECTED_INPUT_ERRORS = [
    (lambda: UndirectedGraph(0), "vertex count must be in 1..64, got 0"),
    (lambda: UndirectedGraph(65), "vertex count must be in 1..64, got 65"),
    (lambda: UndirectedGraph(3, [(0, 3)]), "edge (0, 3) out of range for n=3"),
    (lambda: UndirectedGraph(3, [(-1, 2)]), "edge (-1, 2) out of range for n=3"),
    (lambda: UndirectedGraph(3, [(1, 1)]), "self-edge (1, 1) not allowed"),
    (lambda: UndirectedGraph(3).has_edge(1, 3), "vertex pair (1, 3) out of range"),
    (lambda: UndirectedGraph(3).has_edge(-1, 0), "vertex pair (-1, 0) out of range"),
    (lambda: UndirectedGraph(3).induced([]), "induced subgraph needs at least one vertex"),
    (lambda: UndirectedGraph(3).induced(iter(())), "induced subgraph needs at least one vertex"),
    (lambda: UndirectedGraph(3).induced([0, 3]), "vertices [0, 3] out of range for n=3"),
    (lambda: UndirectedGraph(3).induced([-1, 1]), "vertices [-1, 1] out of range for n=3"),
]


@pytest.mark.parametrize(("call", "message"), _UNDIRECTED_INPUT_ERRORS, ids=[m for _, m in _UNDIRECTED_INPUT_ERRORS])
def test_undirected_graph_rejects_bad_input_with_its_own_words(call, message: str) -> None:
    # the undirected type says "edge" and "induced subgraph", not the digraph's "arc" and "subdigraph"
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_undirected_graph_views_match_edge_pair_references() -> None:
    graphs = [u for n in range(1, 6) for u in enumerate_undirected(n)]
    assert len(graphs) == 52
    for u in graphs:
        n = u.n
        edges = tuple((a, b) for a in range(n) for b in range(a + 1, n) if u.has_edge(a, b))
        # each edge once as (low, high), ascending
        assert u.edges == edges
        assert all(u.has_edge(a, b) == u.has_edge(b, a) for a in range(n) for b in range(a))
        assert UndirectedGraph(n, [(b, a) for a, b in reversed(edges)] + list(edges)) == u
        assert u.complement().edges == tuple(
            (a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges
        )
        assert u.to_digraph().mask == sum(1 << a * n + b | 1 << b * n + a for a, b in edges)
        assert repr(u) == f"UndirectedGraph({n}, {list(edges)!r})"
        for keep in range(1, 1 << n):
            sub = [v for v in range(n) if keep >> v & 1]
            rank = {v: i for i, v in enumerate(sub)}
            expected = [(rank[a], rank[b]) for a, b in edges if a in rank and b in rank]
            # a generator argument, in descending order, is read as the same vertex set
            assert u.induced(v for v in reversed(sub)) == UndirectedGraph(len(sub), expected)
    for i, a in enumerate(graphs):
        for j, b in enumerate(graphs):
            assert (a == b) == (i == j), (a, b)
        copy = UndirectedGraph(a.n, a.edges)
        assert copy == a and hash(copy) == hash(a)
        assert a != a.to_digraph()
