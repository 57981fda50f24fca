"""Enumeration and mining: counts, catalog reproduction, determinism, bounded memos."""

from __future__ import annotations

import importlib
import os
import pkgutil
import random
import subprocess
import sys
from functools import lru_cache, reduce
from itertools import permutations
from math import factorial
from operator import and_
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcograph
from dcograph import decompose, mine, patterns, recognize
from dcograph.core import Digraph, _full_offdiag, _join_rows
from dcograph.decompose import _tree, listed_trees
from dcograph.patterns import (
    CATALOG,
    PATTERNS,
    contains_induced,
    has_anticircuit,
    has_directed_triangle,
    has_two_switch,
    induced_canon_set,
    name_word,
    patterns_in,
)
from dcograph.recognize import PATTERN_ONLY_CLASSES, WORD_BIT, ClassId, member, member_by_patterns
from dcograph.mine import (
    MINEABLE_CLASSES,
    _representatives,
    canonical_masks,
    enumerate_digraphs,
    enumerate_tournaments,
    is_minimal_obstruction,
    minimal_forbidden,
    verify_closures,
    verify_hierarchy,
    verify_projections,
    verify_suite,
    verify_theorems,
)
from dcograph.uclasses import DIRECTED, UClassId, enumerate_undirected, member_u


def test_digraph_counts(reps_by_n) -> None:
    assert [len(reps_by_n[n]) for n in range(1, 6)] == [1, 3, 16, 218, 9608]


def test_enumeration_yields_canonical_distinct_graphs(reps_by_n) -> None:
    for n in (2, 3, 4):
        canons = [g.canonical_form() for g in reps_by_n[n]]
        assert len(set(canons)) == len(canons)
        masks = [g.mask for g in reps_by_n[n]]
        assert masks == sorted(masks)  # enumeration orders by minimal mask


_UNIVERSE_PREDICATES = {
    "digraphs": lambda g: True,
    "oriented": Digraph.is_oriented,
    "tournaments": Digraph.is_tournament,
    "undirected": lambda g: g.asym_part().is_edgeless(),
}


def test_extension_enumeration_matches_labelled_space() -> None:
    # oracle: canonicalise every labelled digraph, 4 states per vertex pair,
    # and keep the canonical masks that lie in each universe
    for n in range(1, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        ids = np.arange(4 ** len(pairs), dtype=np.uint64)
        masks = np.zeros_like(ids)
        for p, (u, v) in enumerate(pairs):
            state = (ids >> np.uint64(2 * p)) & np.uint64(3)
            masks |= (state & np.uint64(1)) << np.uint64(u * n + v)
            masks |= (state >> np.uint64(1)) << np.uint64(v * n + u)
        canon = [Digraph.from_mask(n, m) for m in np.unique(canonical_masks(n, masks)).tolist()]
        assert [g.mask for g in enumerate_digraphs(n)] == [g.mask for g in canon], n
        for universe, inside in _UNIVERSE_PREDICATES.items():
            expected = [g.mask for g in canon if inside(g)]
            assert _representatives(universe, n).tolist() == expected, (universe, n)


def _reference_canonical(n: int, masks: list[int]) -> list[int]:
    """Each mask's minimum over every relabelling, moving one arc bit at a time."""
    moves = [
        {u * n + v: 1 << (p[u] * n + p[v]) for u in range(n) for v in range(n) if u != v}
        for p in permutations(range(n))
    ]
    out = []
    for mask in masks:
        bits = [b for b in range(n * n) if mask >> b & 1]
        out.append(min(sum(move[b] for b in bits) for move in moves))
    return out


def _random_mask(n: int, rng: random.Random, tournament: bool) -> int:
    mask = 0
    for u in range(n):
        for v in range(u + 1, n):
            state = rng.choice((1, 2) if tournament else (0, 1, 2, 3))
            mask |= (state & 1) << (u * n + v) | (state >> 1) << (v * n + u)
    return mask


def test_canonical_masks_match_a_permutation_reference(reps_by_n) -> None:
    rng = random.Random(2019)
    relabelled = []
    for g in reps_by_n[5]:
        perm = list(range(5))
        rng.shuffle(perm)
        relabelled.append(sum(1 << (perm[u] * 5 + perm[v]) for u, v in g.arcs))
    got = canonical_masks(5, np.array(relabelled, dtype=np.uint64)).tolist()
    assert got == _reference_canonical(5, relabelled)
    assert got == [g.mask for g in reps_by_n[5]]

    six = [_random_mask(6, rng, tournament=i % 3 == 0) for i in range(300)]
    got = canonical_masks(6, np.array(six, dtype=np.uint64)).tolist()
    assert got == _reference_canonical(6, six)


@pytest.mark.parametrize("n", [5, 6])
def test_canonical_masks_across_chunk_boundaries(n: int, monkeypatch) -> None:
    # up to `edge` masks, all n! relabellings fit one block of the real chunk
    edge = mine._CHUNK // factorial(n)
    rng = random.Random(n)
    pool = [_random_mask(n, rng, tournament=i % 4 == 0) for i in range(max(edge + 1, 129))]
    expected = _reference_canonical(n, pool)
    for size in (1, 2, edge, edge + 1):
        got = canonical_masks(n, np.array(pool[:size], dtype=np.uint64)).tolist()
        assert got == expected[:size], size
    # a 64-entry chunk splits the masks themselves into parts of 64
    monkeypatch.setattr(mine, "_CHUNK", 64)
    for size in (63, 64, 65, 129):
        got = canonical_masks(n, np.array(pool[:size], dtype=np.uint64)).tolist()
        assert got == expected[:size], size


@pytest.mark.parametrize("n", range(1, 7))
def test_canonical_masks_of_no_masks(n: int) -> None:
    got = canonical_masks(n, np.zeros(0, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.size == 0


def test_canonical_masks_reject_bits_outside_the_vertices() -> None:
    # bit 9 is no arc of a 3-vertex digraph; dropping it would read 518 as mask 6
    with pytest.raises(ValueError):
        canonical_masks(3, np.array([518], dtype=np.uint64))
    with pytest.raises(ValueError):
        mine.class_words("digraphs", 3, np.array([518], dtype=np.uint64))
    for n in (0, 7):
        with pytest.raises(ValueError):
            canonical_masks(n, np.zeros(1, dtype=np.uint64))


@pytest.mark.parametrize("masks", [[1.5], np.array([1.0]), [-1], np.array([2, -3])])
def test_canonical_masks_reject_non_integer_and_negative_masks(masks) -> None:
    # a float would be truncated to another digraph's mask, and a negative
    # mask has no digraph at all
    with pytest.raises(ValueError):
        canonical_masks(2, masks)


@pytest.mark.parametrize("mask", [np.uint64(4), 4])
def test_canonical_masks_of_one_integer_are_0_d(mask) -> None:
    # bit 2 is the arc 1 -> 0, which relabels to the arc 0 -> 1 at bit 1
    got = canonical_masks(2, mask)
    assert got.shape == () and int(got) == 2


def test_canonical_masks_reject_a_loop() -> None:
    # bit 0 lies below 2^(n*n) but is the loop at vertex 0, no digraph's arc
    with pytest.raises(ValueError):
        canonical_masks(2, [1])


def test_class_words_reject_a_loop() -> None:
    with pytest.raises(ValueError):
        mine.class_words("digraphs", 2, [1])


def test_class_words_of_one_integer_are_0_d() -> None:
    got = mine.class_words("digraphs", 2, 4)
    assert got.shape == () and int(got) == mine.class_words("digraphs", 2, np.array([2], dtype=np.uint64))[0]


@pytest.mark.parametrize("n", range(1, 7))
def test_every_vertex_map_matches_the_digraph_reference(n: int) -> None:
    # each kind of map the one gather serves; the largest size is one mask
    # more than a block of all n! relabellings holds
    rng = random.Random(n)
    perms = list(permutations(range(n)))
    for size in (0, 1, mine._CHUNK // factorial(n) + 1):
        graphs = [Digraph.from_mask(n, _random_mask(n, rng, tournament=False)) for _ in range(size)]
        masks = np.array([g.mask for g in graphs], dtype=np.uint64)
        # the blocks at one lo hold the permutations in order
        by_lo: dict[int, list[np.ndarray]] = {}
        for lo, block in mine._relabellings(n, masks):
            by_lo.setdefault(lo, []).append(block)
        parts = [np.concatenate(blocks) for blocks in by_lo.values()]
        stacked = np.concatenate(parts or [np.zeros((len(perms), 0), dtype=np.uint64)], axis=1)
        k = rng.randrange(len(perms))
        assert stacked[k].tolist() == [g.relabel(perms[k]).mask for g in graphs], (size, perms[k])
        embedded = mine._one_vertex_extensions(n + 1, masks, (0,))
        assert embedded.tolist() == [Digraph(n + 1, g.arcs).mask for g in graphs], size
        rows = mine._rows(n, masks)
        for d in range(n if n > 1 else 0):
            assert mine._delete(n, rows, d).tolist() == [g.delete_vertex(d).mask for g in graphs], (size, d)
        assert mine._transpose(n, masks).tolist() == [g.converse().mask for g in graphs], size


@pytest.mark.parametrize(
    "universe, n",
    [(u, n) for u in mine._STATES for n in range(2, 6)]
    + [(u, 6) for u in ("tournaments", "oriented", "undirected")],
)
def test_orderly_filter_keeps_every_class(universe: str, n: int) -> None:
    # canonicalising every extension, unfiltered, gives the same representatives
    extensions = mine._one_vertex_extensions(n, _representatives(universe, n - 1), mine._STATES[universe])
    unfiltered = mine._distinct(canonical_masks(n, extensions)).tolist()
    assert _representatives(universe, n).tolist() == unfiltered


def test_class_words_look_representatives_up_uncanonicalised(monkeypatch) -> None:
    levels = [(u, n) for u in mine._STATES for n in range(1, 6)]
    for universe, n in levels:
        mine._level(universe, n)

    def canonicalise(n, masks):
        raise AssertionError(f"canonicalised {masks.size} masks on {n} vertices")

    monkeypatch.setattr(mine, "canonical_masks", canonicalise)
    for universe, n in levels:
        masks, words = mine._level(universe, n)[:2]
        assert mine.class_words(universe, n, masks).tolist() == words.tolist()


def test_mining_and_enumeration_leave_numpy_ma_unimported() -> None:
    # np.unique imports numpy.ma on its first call, a cost every cold mine paid
    code = (
        "import sys\n"
        "from dcograph.mine import enumerate_digraphs, minimal_forbidden\n"
        "from dcograph.recognize import ClassId\n"
        "minimal_forbidden(ClassId.DC, 4)\n"
        "enumerate_digraphs(4)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mine.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_mining_canonicalises_only_at_the_level_size(monkeypatch) -> None:
    # the pass looks each candidate's deletions up among the DC members'
    # relabellings, so level n canonicalises n-vertex masks, and then each of
    # the n deletions of its candidates once, to read their class words
    calls: list[tuple[int, int, int]] = []
    levels: list[int] = []
    obstructions, canonical = mine._obstructions, mine.canonical_masks

    def level(n):
        levels.append(n)
        return obstructions(n)

    def canonicalise(n, masks):
        calls.append((levels[-1], n, np.size(masks)))
        return canonical(n, masks)

    for n in range(1, 7):
        mine._tree_table(n)  # canonicalises its size once, on first use
    obstructions.cache_clear()
    monkeypatch.setattr(mine, "_obstructions", level)
    monkeypatch.setattr(mine, "canonical_masks", canonicalise)
    minimal_forbidden(ClassId.DC, n_max=6)
    assert levels == [2, 3, 4, 5, 6]
    for n in levels:
        sizes = [(size, rows) for at, size, rows in calls if at == n]
        assert {size for size, _ in sizes} == {n, n - 1}, (n, sorted(set(sizes)))
        assert [rows for size, rows in sizes if size == n - 1] == [obstructions(n)[0].size] * n, n
    assert sum(rows for at, size, rows in calls if at == 6 and size == 5) == 8238


def test_universes_and_classes_extend_through_one_batched_engine(monkeypatch) -> None:
    # a whole universe's level and the DC members the obstruction pass extends
    # go through _extend, which extends at most 200 base masks at once and
    # each of them once
    engine: list[tuple[int, int, tuple[int, ...]]] = []
    batches: list[int] = []
    extend, one_vertex_extensions = mine._extend, mine._one_vertex_extensions

    def record_extend(n, base, states, whole):
        engine.append((n, base.size, states, whole))
        return extend(n, base, states, whole)

    def record_batch(n, base, states):
        batches.append(base.size)
        return one_vertex_extensions(n, base, states)

    monkeypatch.setattr(mine, "_extend", record_extend)
    monkeypatch.setattr(mine, "_one_vertex_extensions", record_batch)
    _representatives.cache_clear()
    assert len(_representatives("oriented", 6)) == 21480
    mine._obstructions.cache_clear()
    mine._obstructions(5)
    oriented, digraphs = mine._STATES["oriented"], mine._STATES["digraphs"]
    # a universe's level is whole, so its deletions are not looked up; the DC members are not
    assert engine == [(2, 1, oriented, True), (3, 2, oriented, True), (4, 7, oriented, True),
                      (5, 42, oriented, True), (6, 582, oriented, True), (5, 51, digraphs, False)]
    assert max(batches) <= 200
    assert sum(batches) == sum(size for _, size, _, _ in engine)


def test_six_vertex_permutation_tables_stay_small() -> None:
    # every table canonical_masks keeps: one stack of shifts and column tables per size
    assert sum(table.nbytes for n in range(1, 7) for table in mine._perm_tables(n)) < 1 << 20


# per mineable class: the member counts and the minimal obstruction counts of
# the levels n = 2..6
_LEVEL_COUNTS = {
    "DC": ((3, 11, 51, 253, 1373), (0, 5, 3, 0, 0)),
    "OC": ((2, 5, 15, 48, 167), (1, 2, 1, 0, 0)),
    "DTP": ((3, 11, 44, 181, 780), (0, 5, 10, 0, 0)),
    "OTP": ((2, 5, 14, 40, 121), (1, 2, 2, 0, 0)),
    "DCTP": ((3, 11, 44, 181, 780), (0, 5, 10, 0, 0)),
    "OCTP": ((2, 5, 13, 34, 89), (1, 2, 3, 0, 0)),
    "DT": ((3, 11, 41, 153, 571), (0, 5, 13, 0, 0)),
    "OT": ((2, 5, 13, 34, 89), (1, 2, 3, 0, 0)),
    "DWQT": ((3, 11, 49, 227, 1104), (0, 5, 5, 3, 2)),
    "OWQT": ((2, 5, 15, 48, 166), (1, 2, 1, 0, 1)),
    "DCWQT": ((3, 11, 49, 227, 1104), (0, 5, 5, 3, 2)),
    "OCWQT": ((2, 5, 14, 40, 118), (1, 2, 2, 0, 3)),
    "DSC": ((3, 11, 46, 199, 876), (0, 5, 8, 3, 2)),
    "OSC": ((2, 5, 14, 42, 131), (1, 2, 2, 0, 1)),
    "DCSC": ((3, 11, 46, 199, 876), (0, 5, 8, 3, 2)),
    "OCSC": ((2, 5, 14, 40, 118), (1, 2, 2, 0, 3)),
    "TT": ((1, 1, 1, 1, 1), (2, 1, 0, 0, 0)),
    "EdgelessD": ((1, 1, 1, 1, 1), (2, 0, 0, 0, 0)),
    "BidirComplete": ((1, 1, 1, 1, 1), (2, 0, 0, 0, 0)),
    "TwoBidirCliques": ((2, 2, 3, 3, 4), (1, 2, 0, 0, 0)),
    "BidirCompleteBipartite": ((2, 2, 3, 3, 4), (1, 2, 0, 0, 0)),
    "SeriesOfStableSets": ((2, 3, 5, 7, 11), (1, 1, 0, 0, 0)),
    "UnionOfBidirCliques": ((2, 3, 5, 7, 11), (1, 1, 0, 0, 0)),
}


def test_level_counts_are_pinned() -> None:
    # members are read from the listed di-co-trees, obstructions from the pass
    assert set(_LEVEL_COUNTS) == {x.value for x in MINEABLE_CLASSES}
    for x in MINEABLE_CLASSES:
        bit, counts = np.uint64(WORD_BIT[x]), ([], [])
        for n in range(2, 7):
            counts[0].append(int((mine._tree_table(n)[1] >> bit & np.uint64(1)).sum()))
            counts[1].append(int((mine._obstructions(n)[1] >> bit & np.uint64(1)).sum()))
        assert tuple(map(tuple, counts)) == _LEVEL_COUNTS[x.value], x.value


def test_oriented_counts() -> None:
    # tournaments and undirected graphs are pinned by their enumerators' tests
    reps = [_representatives("oriented", n) for n in range(1, 7)]
    assert [len(level) for level in reps] == [1, 2, 7, 42, 582, 21480]
    assert all(Digraph._of(6, m).is_oriented() for m in reps[5].tolist())


def test_tournament_counts() -> None:
    assert [len(enumerate_tournaments(n)) for n in range(1, 7)] == [1, 1, 2, 4, 12, 56]
    for t in enumerate_tournaments(5):
        assert t.is_tournament()


def test_enumeration_stops_at_six_vertices() -> None:
    for enumerate_level in (enumerate_digraphs, enumerate_tournaments, enumerate_undirected):
        with pytest.raises(ValueError):
            enumerate_level(7)


def test_levels_are_read_only_mask_arrays() -> None:
    # the public enumerators wrap the memoized masks on each call
    public = {"digraphs": enumerate_digraphs, "tournaments": enumerate_tournaments,
              "undirected": lambda n: [u.to_digraph() for u in enumerate_undirected(n)]}
    for universe in mine._STATES:
        for n in range(1, (5 if universe == "digraphs" else 6) + 1):
            masks = _representatives(universe, n)
            assert masks.dtype == np.uint64 and not masks.flags.writeable, (universe, n)
            if universe in public:
                assert masks.tolist() == [g.mask for g in public[universe](n)], (universe, n)
    assert _representatives("digraphs", 1).tolist() == [0]


def test_enumerators_read_n_as_an_integer() -> None:
    # a numpy integer is read as its Python int; a float or a string is a
    # TypeError naming n whether the level's memo is cold or warm
    for enumerate_level in (enumerate_digraphs, enumerate_tournaments, enumerate_undirected):
        assert [type(g.n) for g in enumerate_level(np.int64(3))] == [int] * len(enumerate_level(3))
        for warm in (False, True):
            _representatives.cache_clear()
            if warm:
                enumerate_level(3)
            for n in (3.0, "3"):
                with pytest.raises(TypeError, match=r"\bn\b"):
                    enumerate_level(n)


def test_cold_suites_wrap_digraphs_only_for_predicates_and_witnesses(monkeypatch) -> None:
    # the levels are mask arrays: a sweep builds a Digraph for each row a
    # per-graph predicate reads and each witness it prints, about 10,000
    # when every representative was wrapped
    built = [0]
    wrap = Digraph._of.__func__

    def of(cls, n, mask):
        built[0] += 1
        return wrap(cls, n, mask)

    monkeypatch.setattr(Digraph, "_of", classmethod(of))
    for suite in ("closures", "hierarchy"):
        for memo in (_representatives, mine._level, mine._flip_words):
            memo.cache_clear()
        built[0] = 0
        verify_suite(suite, 5)
        assert built[0] < 1000, (suite, built[0])


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify_theorems(0),
        lambda: verify_projections(-1),
        lambda: verify_closures(0),
        lambda: verify_hierarchy(0, directed=False),
        lambda: verify_hierarchy(0, directed=True),
    ],
    ids=["theorems-0", "projections-minus-1", "closures-0", "hierarchy-undirected-0",
         "hierarchy-directed-0"],
)
def test_sweeps_reject_an_empty_universe(run) -> None:
    # with no graph to sweep every row would read "agree on 0 digraphs"
    with pytest.raises(ValueError):
        run()


@pytest.mark.parametrize("x", MINEABLE_CLASSES, ids=lambda x: x.value)
def test_mining_reproduces_each_catalog(x: ClassId) -> None:
    report = minimal_forbidden(x, n_max=5)
    assert not report.missing and not report.extra
    reachable = [n for n in CATALOG[x.value] if PATTERNS[n].n <= 5]
    beyond = [n for n in CATALOG[x.value] if PATTERNS[n].n > 5]
    assert sorted(report.confirmed) == sorted(reachable)
    assert sorted(report.out_of_reach) == sorted(beyond)


@pytest.fixture(scope="module")
def obstruction_words(reps_by_n) -> dict[int, tuple[list[int], list[int], list[int]]]:
    """Per size 2 <= n <= 5, every digraph's class word and the AND of its deletions' class words,
    as `_tree` splits them, and its obstruction word in the pass."""
    words = {}
    for n in range(2, 6):
        own = [_tree(g).classes for g in reps_by_n[n]]
        below = [reduce(and_, (_tree(g.delete_vertex(v)).classes for v in range(n))) for g in reps_by_n[n]]
        cands, found = mine._obstructions(n)
        at = dict(zip(cands.tolist(), found.tolist()))
        words[n] = own, below, [at.get(g.mask, 0) for g in reps_by_n[n]]
    return words


@pytest.mark.parametrize("x", MINEABLE_CLASSES, ids=lambda x: x.value)
def test_mining_levels_agree_with_the_definition(x: ClassId, reps_by_n, obstruction_words) -> None:
    # every digraph with at most 5 vertices: the pass sets x's bit exactly when
    # the digraph is outside x and each single-vertex deletion inside; the one
    # vertex is in every class, so it is no obstruction
    assert sum(map(len, reps_by_n.values())) == 9846
    bit = WORD_BIT[x]
    assert _tree(reps_by_n[1][0]).classes >> bit & 1
    for n, (own, below, passed) in obstruction_words.items():
        assert [w >> bit & 1 for w in passed] == [(~c & b) >> bit & 1 for c, b in zip(own, below)], n
        # x is hereditary here, as `recognize.violating_occurrence` assumes:
        # no member has a single-vertex deletion outside x
        assert not any((c & ~b) >> bit & 1 for c, b in zip(own, below)), n
        masks, words = mine._tree_table(n)
        assert masks[words >> np.uint64(bit) & np.uint64(1) != 0].tolist() == [
            g.mask for g in reps_by_n[n] if member(g, x)], n


def test_six_vertex_members_keep_their_classes_on_deletion() -> None:
    # heredity of every mineable class at 6 vertices: each listed DC member's
    # class word lies within the class word of each of its deletions
    masks, words = mine._tree_table(6)
    rows = mine._rows(6, masks)
    for d in range(6):
        deleted = mine._constructive_words(5, canonical_masks(5, mine._delete(6, rows, d)))
        assert not (words & ~deleted).any(), d


def test_per_digraph_memos_are_bounded() -> None:
    # every functools.lru_cache of the package, found by walking its modules,
    # so a new memo is checked without being named here
    memos = {}
    for info in pkgutil.iter_modules(dcograph.__path__, "dcograph."):
        module = importlib.import_module(info.name)
        for owner in (module, *(v for v in vars(module).values() if isinstance(v, type))):
            for value in vars(owner).values():
                if hasattr(value, "cache_parameters") and value.__module__ == info.name:
                    memos[f"{info.name}.{value.__qualname__}"] = value.cache_parameters()["maxsize"]
    known = {"core._canonize", "patterns._key_table", "decompose._tree", "decompose._listed", "mine._perm_tables",
             "mine._level", "mine._tree_table", "mine._flip_words", "mine._obstructions"}
    assert {f"dcograph.{name}" for name in known} <= memos.keys(), sorted(memos)
    for name, maxsize in memos.items():
        assert maxsize is not None and maxsize > 0, name


def _member_word(g: Digraph) -> int:
    """The class word of g from one membership call per class."""
    return sum(1 << WORD_BIT[x] for x in ClassId if member(g, x))


def _check_words(universe: str, n: int, masks: np.ndarray, graphs: list[Digraph]) -> None:
    assert mine.class_words(universe, n, masks).tolist() == [_member_word(g) for g in graphs], (universe, n)


# universe -> largest level swept, and the universe holding its complements
_SWEPT = {"digraphs": (5, "digraphs"), "oriented": (5, "digraphs"),
          "tournaments": (6, "tournaments"), "undirected": (6, "undirected")}


@pytest.mark.parametrize("universe", _SWEPT)
def test_columns_agree_with_per_graph_calls(universe: str) -> None:
    # every bit the suites read, against the per-graph calls the columns replace
    n_max, complements = _SWEPT[universe]
    for n in range(1, n_max + 1):
        reps = [Digraph._of(n, m) for m in _representatives(universe, n).tolist()]
        masks, _, words = mine._level(universe, n)[:3]
        assert masks.tolist() == [g.mask for g in reps]
        assert words.tolist() == [name_word(patterns_in(g)) for g in reps], (universe, n)
        _check_words(universe, n, masks, reps)
        _check_words(complements, n, masks ^ np.uint64(_full_offdiag(n)), [g.complement() for g in reps])
        _check_words(universe, n, mine._transpose(n, masks), [g.converse() for g in reps])
        underlying = mine.class_words("undirected", n, masks | mine._transpose(n, masks))
        for u in UClassId:
            bit = np.uint64(WORD_BIT[DIRECTED[u]])
            assert (underlying >> bit & np.uint64(1)).astype(bool).tolist() == [
                member_u(g.underlying(), u) for g in reps], (universe, n, u)


def _scans_by_graph(g: Digraph) -> list[bool]:
    """The rows of `mine._row_scans` for one digraph, from the per-graph scans."""
    return [has_anticircuit(g), has_two_switch(g), not g.is_transitive()]


@pytest.mark.parametrize("universe", mine._STATES)
def test_row_scans_agree_with_per_graph_scans(universe: str) -> None:
    # every level the sweep reads, and the 6-vertex oriented and undirected levels
    d5 = np.uint64(name_word(["D5"]))
    for n in range(1, (5 if universe == "digraphs" else 6) + 1):
        reps = [Digraph._of(n, m) for m in _representatives(universe, n).tolist()]
        _, words, pattern, scans = mine._level(universe, n)
        assert scans.T.tolist() == [_scans_by_graph(g) for g in reps], (universe, n)
        assert (pattern & d5 != 0).tolist() == [has_directed_triangle(g) for g in reps], (universe, n)
        for x in PATTERN_ONLY_CLASSES:
            bit = np.uint64(WORD_BIT[x])
            assert (words >> bit & np.uint64(1)).astype(bool).tolist() == [member_by_patterns(g, x) for g in reps]


@settings(max_examples=100)
@given(st.data())
def test_row_scans_agree_on_random_labelled_masks(data) -> None:
    # labelled masks, most of them no level's representative
    n = data.draw(st.integers(min_value=1, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    kept = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    graphs = [Digraph(n, [p for p, keep in zip(pairs, row) if keep])
              for row in data.draw(st.lists(kept, min_size=1, max_size=20))]
    masks = np.array([g.mask for g in graphs], dtype=np.uint64)
    assert mine._row_scans(n, masks).T.tolist() == [_scans_by_graph(g) for g in graphs]


def test_flips_read_the_per_graph_transforms(reps_by_n) -> None:
    # the agreement test above reads complements, converses and underlying
    # graphs' words; here every flip's masks, and the two parts' words
    transforms = {
        "complement": Digraph.complement,
        "converse": Digraph.converse,
        "underlying": lambda g: g.underlying().to_digraph(),
        "symmetric part": Digraph.sym_part,
        "asymmetric part": Digraph.asym_part,
    }
    assert set(transforms) == set(mine._FLIPS)
    for n in range(1, 6):
        masks = np.array([g.mask for g in reps_by_n[n]], dtype=np.uint64)
        for name, (flip, universe) in mine._FLIPS.items():
            flipped = [transforms[name](g) for g in reps_by_n[n]]
            assert flip(n, masks).tolist() == [h.mask for h in flipped], (name, n)
            if name.endswith("part"):
                _check_words(universe, n, flip(n, masks), flipped)


def test_class_words_reject_a_mask_outside_the_universe() -> None:
    with pytest.raises(ValueError, match="tournaments"):
        mine.class_words("tournaments", 3, np.array([0], dtype=np.uint64))


# the listing memo as the package defines it, before any test wraps it
_LISTED = decompose._listed


def _record_listing(monkeypatch) -> Callable[[], tuple[list[int], int]]:
    """Clear the listing memo and the memos built from it. The returned call gives the sizes read from the
    listing memo since, ascending, and how many of those reads listed a size."""
    read: set[int] = set()
    monkeypatch.setattr(decompose, "_listed", lambda k: read.add(k) or _LISTED(k))
    for memo in (_LISTED, mine._tree_table, mine._level, mine._flip_words, mine._obstructions):
        memo.cache_clear()
    return lambda: (sorted(read), _LISTED.cache_info().misses)


def test_the_sweep_jobs_decompose_at_most_one_digraph(monkeypatch) -> None:
    # levels, flips and mining candidates read the listed di-co-trees, each
    # size listed once, so no digraph is split
    listing = _record_listing(monkeypatch)
    _tree.cache_clear()
    for x in (ClassId.DC, ClassId.DWQT):
        minimal_forbidden(x, 6)
    for suite in ("closures", "theorems", "hierarchy"):
        verify_suite(suite, 5)
    assert _tree.cache_info().misses == 0
    assert listing() == ([1, 2, 3, 4, 5, 6], 6)


def test_small_runs_list_only_the_sizes_they_read(monkeypatch) -> None:
    # one listing and one tree table per size: a cold mine at n_max = 3 lists
    # the trees of 1-3 leaves, and a suite over digraphs of at most 5 vertices
    # none of the 1,373 six-leaf trees
    for x in MINEABLE_CLASSES:
        listing = _record_listing(monkeypatch)
        minimal_forbidden(x, 3)
        assert listing() == ([1, 2, 3], 3), x
    for suite in ("closures", "hierarchy", "projections"):
        listing = _record_listing(monkeypatch)
        verify_suite(suite, 5)
        assert listing() == ([1, 2, 3, 4, 5], 5), suite


def test_the_tree_table_agrees_with_the_splitter_at_six_vertices(monkeypatch) -> None:
    # n <= 5 is exhaustive in the column and mining-level tests; at n = 6 every
    # listed tree gets its word back from _tree, and every candidate of the
    # obstruction pass the same verdict from the table as from member, for
    # every mineable class
    masks, words = mine._tree_table(6)
    from_rows = [Digraph._of(6, _join_rows(list(rows), 6)) for rows, _ in listed_trees(6)]
    assert [_tree(g).classes for g in from_rows] == [word for _, word in listed_trees(6)]
    assert sorted(canonical_masks(6, np.array([g.mask for g in from_rows], dtype=np.uint64)).tolist()) == masks.tolist()

    members = np.array([g.mask for g in enumerate_digraphs(5) if member(g, ClassId.DC)], dtype=np.uint64)
    built: list[np.ndarray] = []
    extend = mine._extend

    def record(n, base, states, whole):
        built.append(extend(n, base, states, whole))
        return built[-1]

    monkeypatch.setattr(mine, "_extend", record)
    mine._obstructions.cache_clear()
    mine._obstructions(6)
    # at n = 6 every candidate is in DC, so add every attachment of a vertex
    # to three members, most of them outside DC
    (built_masks,) = built
    extensions = mine._one_vertex_extensions(6, members[100:103], mine._STATES["digraphs"])
    cands = mine._distinct(np.concatenate([built_masks, canonical_masks(6, extensions)]))
    table = mine._constructive_words(6, cands)
    assert built_masks.size == 1373 and (table == 0).sum() > 1500
    graphs = [Digraph._of(6, m) for m in cands.tolist()]
    for x in MINEABLE_CLASSES:
        bit = np.uint64(WORD_BIT[x])
        assert (table >> bit & np.uint64(1)).astype(bool).tolist() == [member(g, x) for g in graphs], x


def _forbid_per_graph_scans(monkeypatch) -> None:
    """Make every per-graph two-switch, anticircuit and transitivity scan raise, and drop the
    levels and flip words built so far, so the suites that follow build them afresh."""

    def scan(*args):
        raise AssertionError("a per-graph row scan ran")

    for owner, name in ((patterns, "match_partial"), (recognize, "match_partial"), (Digraph, "is_transitive")):
        monkeypatch.setattr(owner, name, scan)
    mine._level.cache_clear()
    mine._flip_words.cache_clear()


def test_sweep_suites_run_no_per_graph_row_scan(monkeypatch) -> None:
    # TD, FD, the two-switch and the transitivity columns come from one row pass per level
    want = {suite: verify_suite(suite, 5).render() for suite in ("closures", "theorems", "hierarchy")}
    _forbid_per_graph_scans(monkeypatch)
    assert {suite: verify_suite(suite, 5).render() for suite in want} == want


def test_per_graph_predicates_run_once_and_projections_only_on_members(monkeypatch) -> None:
    # each predicate given to _Columns.each sees a representative of its
    # universe at most once per suite call, the projection predicates see
    # exactly their scope's members, and no two-switch is scanned per graph
    runs: dict[tuple, int] = {}
    counted = {}
    real_each = mine._Columns.each

    def each(cols, pred, where=None):
        if (cols, pred) not in counted:
            def count(g):
                key = (cols, pred, g.n, g.mask)
                runs[key] = runs.get(key, 0) + 1
                return pred(g)
            counted[cols, pred] = count
        return real_each(cols, counted[cols, pred], where)

    seen: dict[str, set[tuple[int, int]]] = {"round trip": set(), "acyclic": set()}

    def recorder(name, real):
        def record(g):
            seen[name].add((g.n, g.mask))
            return real(g)
        return record

    monkeypatch.setattr(mine._Columns, "each", each)
    monkeypatch.setattr(mine, "_round_trip", recorder("round trip", mine._round_trip))
    monkeypatch.setattr(Digraph, "is_acyclic", recorder("acyclic", Digraph.is_acyclic))
    _forbid_per_graph_scans(monkeypatch)
    verify_theorems(5)
    assert runs and max(runs.values()) == 1
    runs.clear()
    for found in seen.values():
        found.clear()
    verify_projections(5)
    assert runs and max(runs.values()) == 1
    for name, x in (("round trip", ClassId.DC), ("acyclic", ClassId.OC)):
        members = {(g.n, g.mask) for n in range(1, 6) for g in enumerate_digraphs(n) if member(g, x)}
        assert seen[name] == members, name


def test_theorem_sweep_makes_no_canon_set_call() -> None:
    # the pattern predicates read the levels' pattern words; induced_canon_set is a test reference only
    before = induced_canon_set.cache_info()
    verify_suite("theorems", 4)
    after = induced_canon_set.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def test_mined_sets_are_antichains() -> None:
    report = minimal_forbidden(ClassId.DT, n_max=5)
    found = report.found
    for a in found:
        for b in found:
            if a is not b:
                assert contains_induced(a, b) is None


def test_mining_is_deterministic() -> None:
    a = minimal_forbidden(ClassId.OC, n_max=4).render()
    b = minimal_forbidden(ClassId.OC, n_max=4).render()
    assert a == b


def test_report_line_format() -> None:
    report = minimal_forbidden(ClassId.OC, n_max=4)
    assert report.ok()
    for line in report.lines():
        fields = line.split("\t")
        assert len(fields) == 4
        assert fields[0] == "OC"
        assert fields[1] in ("confirmed", "missing", "extra", "out-of-reach")
    assert f"n <= {report.n_max}" in report.render().splitlines()[0]


def test_six_vertex_sweep_finds_the_missing_obstruction() -> None:
    report = minimal_forbidden(ClassId.OWQT, n_max=6)
    assert report.ok()
    assert "Q7" in report.confirmed and not report.out_of_reach


# the text `dcograph mine --class X --nmax 6` prints, one file per mineable
# class, written by tests/make_golden.py
_GOLDEN = Path(__file__).parent / "golden"


def test_six_vertex_mining_reports_are_pinned() -> None:
    for x in MINEABLE_CLASSES:
        text = (_GOLDEN / f"mine_{x.value}_6.txt").read_text(encoding="ascii")
        assert minimal_forbidden(x, 6).render() + "\n" == text, x.value


def test_six_vertex_catalog_entries_are_minimal() -> None:
    for class_name, names in CATALOG.items():
        x = ClassId(class_name)
        for name in names:
            if PATTERNS[name].n == 6:
                assert is_minimal_obstruction(PATTERNS[name], x), (class_name, name)


def _shown(report) -> tuple:
    """What a caller sees of a result: the type of its size bound, if it keeps one, and its text if it renders one,
    else the result itself."""
    return type(getattr(report, "n_max", None)), report.render() if hasattr(report, "render") else report


_ONE = np.array([0], dtype=np.uint64)


@pytest.mark.parametrize(
    ("run", "same_as"),
    [
        (lambda: minimal_forbidden("DC", 3.5), "n_max"),
        (lambda: minimal_forbidden("DC", "3"), "n_max"),
        (lambda: minimal_forbidden("OC", np.int64(3)), lambda: minimal_forbidden("OC", 3)),
        (lambda: verify_suite("closures", 3.0), "n_max"),
        (lambda: verify_suite("theorems", "3"), "n_max"),
        (lambda: verify_closures(3.0), "n_max"),
        (lambda: verify_suite("hierarchy", True), lambda: verify_suite("hierarchy", 1)),
        (lambda: verify_hierarchy(np.int64(2), directed=False), lambda: verify_hierarchy(2, directed=False)),
        (lambda: listed_trees("2"), "n"),
        (lambda: listed_trees(1.0), "n"),
        (lambda: listed_trees(np.int64(3)), lambda: listed_trees(3)),
        (lambda: mine.class_words("digraphs", "3", _ONE), "n"),
        (lambda: mine.class_words("digraphs", np.int64(3), _ONE).tolist(),
         lambda: mine.class_words("digraphs", 3, _ONE).tolist()),
        (lambda: canonical_masks(2.0, _ONE), "n"),
        (lambda: canonical_masks(np.int64(2), _ONE).tolist(), lambda: canonical_masks(2, _ONE).tolist()),
    ],
    ids=["mine-float", "mine-string", "mine-numpy", "suite-float", "suite-string", "closures-float",
         "hierarchy-bool", "hierarchy-numpy", "listed-string", "listed-float", "listed-numpy", "words-string",
         "words-numpy", "canonical-float", "canonical-numpy"],
)
def test_mining_and_suites_read_n_max_as_an_integer(run, same_as) -> None:
    # n_max, and the vertex count n of the tree lister and the bulk readers,
    # pass through operator.index: an integer of any type reads as its Python
    # int, in the result and its text; anything else is a TypeError naming it
    if isinstance(same_as, str):
        with pytest.raises(TypeError, match=rf"^{same_as} must be an integer vertex count, got "):
            run()
    else:
        assert _shown(run()) == _shown(same_as())


def test_mining_rejects_pattern_only_classes() -> None:
    with pytest.raises(ValueError):
        minimal_forbidden(ClassId.FD, n_max=4)
    with pytest.raises(ValueError):
        minimal_forbidden(ClassId.DC, n_max=7)


def test_closures_suite_is_green() -> None:
    report = verify_closures(n_max=4)
    assert report.ok()
    assert len(report.rows) == 7


def test_projection_suite_is_green() -> None:
    report = verify_projections(n_max=4)
    assert report.ok()


# No golden report holds a row whose scan found a counterexample, so these
# fakes force each such row form at n <= 3 and pin its exact text.
_FORCED_HIERARCHY = [
    "suite hierarchy-directed: 6 checks, 5 failures",
    "DC subset-of OC\tfail\t0206\tmember of DC outside OC on 2 vertices",
    "DC proper-subset OC\tfail\t-\tno separating witness with at most 3 vertices",
    "DC not-below OT\tok\t0206\twitness in DC but not OT on 2 vertices",
    "OT not-below DC\tfail\t-\tclaimed incomparable but no witness in OT outside DC with at most 3 vertices",
    "OC not-below OT\tfail\t-\tclaimed incomparable but no witness in OC outside OT with at most 3 vertices",
    "OT not-below OC\tfail\t-\tclaimed incomparable but no witness in OT outside OC with at most 3 vertices",
]
_FORCED_CLOSURES = [
    "suite closures: 7 checks, 6 failures",
    "DC complement-closed\tfail\t0200\tcomplement flips membership on 2 vertices",
    "DT complement-closed\tfail\t0200\tcomplement flips membership on 2 vertices",
    "DC converse-closed\tfail\t0204\tconverse flips membership on 2 vertices",
    "DTP complement-not-closed\tfail\t-\tno member with complement outside the class at n <= 3",
    "DWQT complement-not-closed\tfail\t-\tno member with complement outside the class at n <= 3",
    "obstruction family D1-D8 complement-closed\tok\t-\tcomplement permutes the 8 patterns",
    "obstruction family D12-D15 complement-closed\tfail\t-\tcomplement maps the family to a different set",
]
_HOLDS_20 = "\tok\t-\tholds for all 20 members with at most 3 vertices"
_FORCED_PROJECTIONS = [
    "suite projections: 16 checks, 2 failures",
    "DC: underlying graph is a cograph" + _HOLDS_20,
    "OC: underlying graph is a cograph" + _HOLDS_20,
    "DTP: underlying graph is trivially perfect" + _HOLDS_20,
    "OTP: underlying graph is trivially perfect" + _HOLDS_20,
    "DWQT: underlying graph is weakly quasi threshold" + _HOLDS_20,
    "DSC: underlying graph is a simple cograph" + _HOLDS_20,
    "DT: underlying graph is threshold" + _HOLDS_20,
    "OT: underlying graph is a cograph" + _HOLDS_20,
    "DC: symmetric part underlies a cograph, asymmetric part oriented cograph" + _HOLDS_20,
    "DTP: symmetric part underlies trivially perfect, asymmetric part oriented" + _HOLDS_20,
    "DWQT: symmetric part underlies weakly quasi threshold, asymmetric part oriented" + _HOLDS_20,
    "DSC: symmetric part underlies a simple cograph, asymmetric part oriented" + _HOLDS_20,
    "DT: symmetric part underlies threshold, asymmetric part oriented threshold" + _HOLDS_20,
    "OC: acyclic\tfail\t0206\tmember on 2 vertices violates the projection",
    "DT: free of two-switches" + _HOLDS_20,
    "DC: expression round-trip rebuilds the digraph\tfail\t030060\tmember on 3 vertices violates the projection",
]


def _word(*classes: ClassId) -> int:
    return sum(1 << WORD_BIT[x] for x in classes)


def _fresh_flip_words(monkeypatch) -> None:
    # flip words are kept across suite calls, so a faked class_words needs an empty memo
    monkeypatch.setattr(mine, "_flip_words", lru_cache(maxsize=64)(mine._flip_words.__wrapped__))


def test_forced_fail_rows_render_exactly(monkeypatch) -> None:
    # a figure claiming DC below OC, and OT incomparable with both
    monkeypatch.setattr(mine, "DIRECTED_HIERARCHY_NODES", ("DC", "OC", "OT"))
    monkeypatch.setattr(mine, "DIRECTED_HIERARCHY_EDGES", (("DC", "OC"),))
    assert verify_hierarchy(n_max=3).render() == "\n".join(_FORCED_HIERARCHY)
    monkeypatch.undo()

    # DC and DT read "has arc 0 -> 1" (bit 1 of a labelled mask), which
    # complement and converse flip; DTP and DWQT hold everywhere; D12 is
    # swapped for D1 in the D12-D15 family
    everywhere = _word(ClassId.DTP, ClassId.DWQT)
    arc01 = everywhere | _word(ClassId.DC, ClassId.DT)

    def labelled_words(universe, n, masks):
        return np.where((n == 1) | (masks & np.uint64(2) != 0), np.uint64(arc01), np.uint64(everywhere))

    monkeypatch.setattr(mine, "class_words", labelled_words)
    _fresh_flip_words(monkeypatch)
    monkeypatch.setattr(mine, "PATTERNS", {**PATTERNS, "D12": PATTERNS["D1"]})
    assert verify_closures(n_max=3).render() == "\n".join(_FORCED_CLOSURES)
    monkeypatch.undo()

    # every digraph is a member of every class
    every = _word(*ClassId)
    monkeypatch.setattr(mine, "class_words", lambda universe, n, masks: np.full(masks.size, every, dtype=np.uint64))
    _fresh_flip_words(monkeypatch)
    assert verify_projections(n_max=3).render() == "\n".join(_FORCED_PROJECTIONS)
